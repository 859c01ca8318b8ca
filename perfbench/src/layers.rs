//! Layer-direct replays for the traced run: one sampled job is re-run one
//! call at a time through each layer's public functions, and the kernels
//! are timed at the sampled circuit's sizes. Every call runs inside a span.

use crate::check::{self, ParamsCache, Published};
use crate::report::Metric;
use crate::trace::{SpanId, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use zkml::cost::{fixed_base_points, HardwareStats};
use zkml::layers::lower_graph;
use zkml::{optimize_schedule, CompiledCircuit, OptimizerOptions};
use zkml_curves::{msm, multi_pairing, G1Affine, G1Projective, G2Affine};
use zkml_ff::{Field, Fr};
use zkml_model::Graph;
use zkml_net::decode_hex;
use zkml_pcs::Backend;
use zkml_plonk::VerifyingKey;
use zkml_poly::EvaluationDomain;
use zkml_service::{JobKind, JobSpec, ProvingService, ServiceConfig};

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median time of `reps` calls of `f`, each inside a span.
fn timed<R>(tr: &Tracer, name: &str, parent: SpanId, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(tr.time(name, parent, None, &mut f));
            ms_since(t)
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The host-drift marker: a fixed serial kernel (an MSM of 2^12 points on a
/// one-thread pool, fixed inputs), three times. Never used to normalize
/// another metric.
pub fn host_calib_ms() -> Vec<f64> {
    let pool = zkml_par::Pool::new(1);
    let mut rng = StdRng::seed_from_u64(0xca11_b7a7);
    let scalars: Vec<Fr> = (0..1usize << 12).map(|_| Fr::random(&mut rng)).collect();
    let bases = fixed_base_points(&G1Projective::generator(), &scalars);
    (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(zkml_par::with_pool(&pool, || msm(&bases, &scalars)));
            ms_since(t)
        })
        .collect()
}

/// Kernel timings at the sampled circuit's sizes, on the global pool:
/// an MSM of `2^k` points, FFTs at `k` and at the extended-domain `k`, and
/// the two-pair multi-pairing a KZG verification settles with.
pub fn kernels(tr: &Tracer, parent: SpanId, k: u32, ext_k: u32) -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    let n = 1usize << k;
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let bases = fixed_base_points(&G1Projective::generator(), &scalars);
    let msm_ms = timed(tr, "curves.msm", parent, 3, || msm(&bases, &scalars));
    let fft = |k: u32, name: &str| {
        let domain = EvaluationDomain::<Fr>::new(k);
        let mut rng = StdRng::seed_from_u64(u64::from(k));
        let vals: Vec<Fr> = (0..domain.n).map(|_| Fr::random(&mut rng)).collect();
        domain.fft(&mut vals.clone()); // warm the twiddle cache
        timed(tr, name, parent, 3, || {
            let mut v = vals.clone();
            domain.fft(&mut v);
            v
        })
    };
    let fft_ms = fft(k, "poly.fft");
    let fft_ext_ms = fft(ext_k, "poly.fft_ext");
    let (g1, g2) = (G1Affine::generator(), G2Affine::generator());
    let pairs = [(g1, g2), (-g1, g2)];
    let pairing_ms = timed(tr, "curves.pairing", parent, 5, || multi_pairing(&pairs));
    vec![
        Metric::new("curves.msm_ms", msm_ms, "ms", 3).note(format!("n = 2^{k}")),
        Metric::new("poly.fft_ms", fft_ms, "ms", 3).note(format!("k = {k}")),
        Metric::new("poly.fft_ext_ms", fft_ext_ms, "ms", 3).note(format!("extended k = {ext_k}")),
        Metric::new("curves.pairing_ms", pairing_ms, "ms", 5).note("2 pairs"),
    ]
}

/// Rows, cells and looked-up tuples per labelled gadget region of a
/// compiled circuit (from `CompiledCircuit::regions`), summed by label.
pub fn region_rows(c: &CompiledCircuit) -> BTreeMap<String, [usize; 3]> {
    let mut out: BTreeMap<String, [usize; 3]> = BTreeMap::new();
    for r in c.regions() {
        // Lookup arguments the gadget's selector enables on each row.
        let prefix = match r.label.as_str() {
            "DivRound" => "div_round".to_string(),
            "MaxPack" => "max_".to_string(),
            "VarDiv" => "var_div".to_string(),
            l if l.starts_with("Nonlin(") => format!("nonlin{}#", &l[7..l.len() - 1]),
            _ => String::new(),
        };
        let per_row = if prefix.is_empty() {
            0
        } else {
            c.cs.lookups
                .iter()
                .filter(|l| l.name.starts_with(&prefix))
                .count()
        };
        let rows = r.rows.len();
        let e = out.entry(r.label.clone()).or_default();
        e[0] += rows;
        e[1] += rows * r.columns.len();
        e[2] += rows * per_row;
    }
    out
}

/// What a prove replay leaves behind for later steps.
pub struct ProveReplay {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// `region_rows` of the compiled circuit.
    pub regions: BTreeMap<String, [usize; 3]>,
    /// Circuit size and extended-domain size.
    pub k: u32,
    /// `k` of the quotient's extended domain.
    pub ext_k: u32,
    /// The layout the optimizer chose, as [`layout_line`] prints it.
    pub layout: String,
}

/// One line naming an optimizer choice: k, column count, layout choices
/// and the predicted proving time.
pub fn layout_line(report: &zkml::OptimizerReport) -> String {
    format!(
        "k = {}, {} columns, {:?}, predicted {:.2} s",
        report.best_k, report.best.num_cols, report.best.choices, report.best_cost.proving_s
    )
}

/// Replays one prove job stage by stage: lower, optimize, synthesize,
/// analyze, keygen, commit weights, prove, decode the vk, verify a good
/// and a tampered copy of the proof.
pub fn replay_prove(
    tr: &Tracer,
    parent: SpanId,
    graph: &Graph,
    seed: u64,
    published: &Published,
    params: &ParamsCache,
) -> Result<ProveReplay, String> {
    let e = |err: zkml::ZkmlError| err.to_string();
    let opts = OptimizerOptions::new(Backend::Kzg, ServiceConfig::default().max_k);
    let inputs = check::job_inputs(graph, seed);
    let hw = HardwareStats::cached();

    let t = Instant::now();
    let sched = tr.time("core.lower", parent, None, || {
        lower_graph(graph, &inputs, opts.numeric)
    });
    let lower_ms = ms_since(t);
    let t = Instant::now();
    let report = tr
        .time("core.optimize", parent, None, || {
            optimize_schedule(sched, &opts, hw)
        })
        .map_err(e)?;
    let optimize_ms = ms_since(t);
    let t = Instant::now();
    let compiled = tr
        .time("core.synthesize", parent, None, || report.synthesize_best())
        .map_err(e)?;
    let synthesize_ms = ms_since(t);
    let t = Instant::now();
    tr.time("analyze.ensure_determined", parent, None, || {
        compiled.ensure_determined()
    })
    .map_err(e)?;
    let analyze_ms = ms_since(t);

    let params_k = params.get(compiled.k);
    let t = Instant::now();
    let pk = tr
        .time("plonk.keygen", parent, None, || compiled.keygen(&params_k))
        .map_err(e)?;
    let keygen_ms = ms_since(t);
    let pk_bytes = pk.to_bytes().len();
    let t = Instant::now();
    let (wc, weights) = tr
        .time("plonk.commit_weights", parent, None, || {
            compiled.commit_weights(&params_k)
        })
        .map_err(e)?;
    let commit_ms = ms_since(t);
    if wc.to_bytes() != decode_hex(&published.commitment_hex)? {
        return Err(format!(
            "{}: replayed commitment differs from the published one",
            graph.name
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let proof = tr
        .time("plonk.prove", parent, None, || {
            compiled.prove_with_weights(&params_k, &pk, &mut rng, &[], &weights)
        })
        .map_err(e)?;
    let prove_ms = ms_since(t);

    let vk_bytes = pk.vk.to_bytes();
    let vk_decode_ms = timed(tr, "plonk.vk_decode", parent, 3, || {
        VerifyingKey::from_bytes(&vk_bytes)
    });
    let public = compiled.instance()[0].clone();
    let (verify_ms, reject_ms) = verify_pair(tr, parent, params, &pk.vk, &public, &proof, &wc)?;

    let predicted_s = report.best_cost.proving_s;
    let factor = (compiled.cs.degree() - 1).next_power_of_two();
    let ext_k = compiled.k + factor.trailing_zeros();
    let metrics = vec![
        Metric::new("core.lower_ms", lower_ms, "ms", 1),
        Metric::new("core.optimize_ms", optimize_ms, "ms", 1),
        Metric::new(
            "core.layouts_evaluated",
            report.evaluated as f64,
            "count",
            1,
        ),
        Metric::new("core.layouts_pruned", report.pruned as f64, "count", 1),
        Metric::new("core.synthesize_ms", synthesize_ms, "ms", 1),
        Metric::new("core.k", compiled.k as f64, "count", 1),
        Metric::new("core.columns", compiled.cfg.num_cols as f64, "count", 1),
        Metric::new("core.rows", compiled.stats.rows as f64, "count", 1),
        Metric::new("core.predicted_prove_s", predicted_s, "s", 1),
        Metric::new(
            "core.cost_model_ratio",
            predicted_s * 1e3 / prove_ms,
            "ratio",
            1,
        )
        .note("predicted / measured plonk.prove_ms"),
        Metric::new("analyze.ms", analyze_ms, "ms", 1),
        Metric::new("plonk.keygen_ms", keygen_ms, "ms", 1),
        Metric::new("plonk.commit_weights_ms", commit_ms, "ms", 1),
        Metric::new("plonk.pk_bytes", pk_bytes as f64, "B", 1),
        Metric::new("plonk.prove_ms", prove_ms, "ms", 1),
        Metric::new("plonk.vk_decode_ms", vk_decode_ms, "ms", 3),
        Metric::new("plonk.verify_ms", verify_ms, "ms", 3),
        Metric::new("plonk.reject_ms", reject_ms, "ms", 3),
    ];
    Ok(ProveReplay {
        metrics,
        regions: region_rows(&compiled),
        k: compiled.k,
        ext_k,
        layout: layout_line(&report),
    })
}

/// Median times to accept a good proof and to reject a tampered copy
/// (`verify_proof_committed` + settle). Fails unless both verdicts hold.
fn verify_pair(
    tr: &Tracer,
    parent: SpanId,
    params: &ParamsCache,
    vk: &VerifyingKey,
    public: &[Fr],
    proof: &[u8],
    wc: &zkml_plonk::WeightCommitment,
) -> Result<(f64, f64), String> {
    let bad = check::tamper(proof, vk, 0);
    let mut good_ok = true;
    let mut bad_ok = true;
    let verify_ms = timed(tr, "plonk.verify", parent, 3, || {
        good_ok &= check::verify(params, vk, public, proof, wc).is_ok();
    });
    let reject_ms = timed(tr, "plonk.reject", parent, 3, || {
        bad_ok &= check::verify(params, vk, public, &bad, wc).is_err();
    });
    if !good_ok || !bad_ok {
        return Err("direct verification gave the wrong verdict".to_string());
    }
    Ok((verify_ms, reject_ms))
}

/// `ProvingService::submit` → `JobHandle::wait` for one job on a fresh
/// in-process service (the model is published on it first, untimed).
pub fn service_job_ms(
    tr: &Tracer,
    parent: SpanId,
    graph: Arc<Graph>,
    published: &Published,
    job: impl FnOnce([u8; 32]) -> JobSpec,
) -> Result<f64, String> {
    let svc = ProvingService::start(ServiceConfig::default()).map_err(|e| e.to_string())?;
    let commit = svc
        .submit(JobSpec::commit_model(graph, Backend::Kzg))
        .map_err(|e| e.to_string())?
        .wait()
        .map_err(|e| e.to_string())?
        .ok_or("commit-model returned no artifacts")?;
    let digest = commit
        .model_digest
        .ok_or("commit-model returned no digest")?;
    if decode_hex(&published.digest_hex)? != digest {
        return Err("direct service published a different digest".to_string());
    }
    let t = Instant::now();
    let outcome = tr.time("service.job", parent, None, || {
        svc.submit(job(digest)).map(|h| h.wait())
    });
    let job_ms = ms_since(t);
    svc.shutdown();
    match outcome {
        Ok(Ok(_)) => Ok(job_ms),
        Ok(Err(e)) | Err(e) => Err(format!("direct service job failed: {e}")),
    }
}

/// A verify job spec for the direct service.
pub fn verify_spec(
    vk: Vec<u8>,
    public: Vec<Fr>,
    proof: Vec<u8>,
    commitment: Vec<u8>,
) -> impl FnOnce([u8; 32]) -> JobSpec {
    move |digest| {
        JobSpec::new(JobKind::Verify {
            backend: Backend::Kzg,
            vk,
            public,
            proof,
            model: Some(digest),
            weight_commitment: commitment,
        })
    }
}
