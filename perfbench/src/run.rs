//! One benchmark run: set-up, the timed closed loop, the correctness
//! checks, and (traced runs) the per-layer replays.

use crate::check::{self, ParamsCache, Published};
use crate::harness::{self, closed_loop, run_job, service_stat, JobRecord, LoopConfig, Window};
use crate::layers;
use crate::report::Metric;
use crate::stats::{median, tail};
use crate::trace::{self, Tracer, ROOT};
use crate::workload::{setup_proof_seeds, Request, RequestStream, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zkml::cost::HardwareStats;
use zkml_model::Graph;
use zkml_net::{encode_hex, Gateway, Json, JsonObj};
use zkml_pcs::Backend;
use zkml_plonk::VerifyingKey;
use zkml_service::{decode_public, JobSpec, ServiceConfig};

/// Set-ups per run; `setup_s` is their median. The first is timed from
/// process start, the second from a fresh gateway in the warm process.
pub const SETUPS: usize = 2;

/// What to run.
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every request is drawn from.
    pub seed: u64,
    /// Length of the closed-loop window.
    pub seconds: f64,
    /// Also run the traced window and the layer replays.
    pub trace: bool,
    /// When the process started (the first set-up is timed from here).
    pub process_start: Instant,
    /// Where journals (removed afterwards) and trace files go.
    pub out_dir: PathBuf,
}

/// What a run measured.
pub struct Outcome {
    /// End-to-end metrics of the untraced window.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Jobs submitted in the measured windows.
    pub attempted: usize,
    /// Jobs whose outcome or benchmark-side check was wrong, plus failed
    /// counter checks.
    pub failed: usize,
    /// Why each failure failed.
    pub failures: Vec<String>,
    /// Lines of context printed with the tables (layouts, trace file).
    pub notes: Vec<String>,
}

/// A set-up proof the verify-mix jobs carry.
struct VerifyCase {
    published: Published,
    vk: VerifyingKey,
    vk_hex: String,
    proof: Vec<u8>,
    public_hex: String,
    prove_ms: f64,
}

/// Process-global counters sampled around a window.
struct Counters {
    keygens: usize,
    weight_encodings: usize,
    stats: Json,
    pool: zkml_par::PoolMetrics,
}

impl Counters {
    fn take(addr: &str) -> Result<Self, String> {
        Ok(Self {
            keygens: zkml_plonk::keygens(),
            weight_encodings: zkml_plonk::weight_encodings(),
            stats: harness::stats(addr)?,
            pool: zkml_par::global().metrics(),
        })
    }
}

/// The optimizer's cost table shipped with the benchmark.
pub fn cost_table() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("hw-table.txt")
}

/// Points `ZKML_HW_CACHE` at [`cost_table`], so the layouts the optimizer
/// picks do not follow whatever calibration a host keeps. Call it before
/// anything reads `HardwareStats::cached` (the first set-up does).
pub fn pin_cost_table() -> Result<(), String> {
    let path = cost_table();
    if HardwareStats::load(&path).is_none() {
        return Err(format!("cannot load {}", path.display()));
    }
    std::env::set_var("ZKML_HW_CACHE", &path);
    Ok(())
}

/// Runs the workload once.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let work = opts.out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn prove_body(published: &Published, seed: u64) -> String {
    JsonObj::new()
        .str("kind", "prove")
        .str("model", published.model)
        .u64("seed", seed)
        .str("model_digest", &published.digest_hex)
        .str("tenant", "bench")
        .finish()
}

fn verify_body(case: &VerifyCase, proof: &[u8]) -> String {
    JsonObj::new()
        .str("kind", "verify")
        .str("proof_hex", &encode_hex(proof))
        .str("vk_hex", &case.vk_hex)
        .str("public_hex", &case.public_hex)
        .str("model_digest", &case.published.digest_hex)
        .str("commitment_hex", &case.published.commitment_hex)
        .str("tenant", "bench")
        .finish()
}

/// Starts the gateway and publishes the workload's models, `SETUPS`
/// times; the last gateway is kept to serve the load.
fn set_up(opts: &Options, work: &Path) -> Result<(Gateway, Vec<Published>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take()); // graceful shutdown of the previous set-up
        let t0 = if i == 0 {
            opts.process_start
        } else {
            Instant::now()
        };
        let gw = harness::start_gateway(&work.join(format!("journal-{i}.jsonl")))
            .map_err(|e| format!("gateway: {e}"))?;
        let addr = gw.local_addr().to_string();
        let published = opts
            .workload
            .models()
            .iter()
            .map(|m| harness::publish(&addr, m))
            .collect::<Result<Vec<_>, _>>()?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((gw, published));
    }
    let (gw, published) = kept.expect("SETUPS > 0");
    Ok((gw, published, times))
}

/// Makes the verify-mix proofs through the gateway (untimed) and checks
/// them like any returned proof.
fn make_cases(
    opts: &Options,
    addr: &str,
    published: &[Published],
    graphs: &BTreeMap<&str, Arc<Graph>>,
    params: &ParamsCache,
) -> Result<Vec<VerifyCase>, String> {
    let off = Tracer::new(false);
    let cfg = LoopConfig {
        addr,
        poll: opts.workload.poll_interval(),
        seconds: 0.0,
        tracer: &off,
    };
    let seeds = setup_proof_seeds(opts.seed);
    let records: Vec<JobRecord> = std::thread::scope(|s| {
        let handles: Vec<_> = published
            .iter()
            .zip(&seeds)
            .enumerate()
            .map(|(i, (p, &seed))| {
                let cfg = &cfg;
                s.spawn(move || {
                    let req = Request::Prove {
                        model: p.model,
                        seed,
                    };
                    run_job(cfg, i, req, &prove_body(p, seed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up client panicked"))
            .collect()
    });
    let mut cases = Vec::new();
    for ((rec, p), &seed) in records.iter().zip(published).zip(&seeds) {
        let status = rec
            .status
            .as_ref()
            .ok_or_else(|| format!("set-up proof of {}: {:?}", p.model, rec.error))?;
        let a = check::check_prove(status, p, &graphs[p.model], seed, params)
            .map_err(|e| format!("set-up proof of {}: {e}", p.model))?;
        cases.push(VerifyCase {
            published: p.clone(),
            vk: VerifyingKey::from_bytes(&a.vk).map_err(|e| e.to_string())?,
            vk_hex: encode_hex(&a.vk),
            proof: a.proof,
            public_hex: encode_hex(&a.public),
            prove_ms: a.prove_ms,
        });
    }
    Ok(cases)
}

/// Checks one job; for a prove job returns its proof size and the
/// service's proving time.
fn check_job(
    job: &JobRecord,
    published: &[Published],
    graphs: &BTreeMap<&str, Arc<Graph>>,
    params: &ParamsCache,
) -> Result<Option<(usize, f64)>, String> {
    if let Some(e) = &job.error {
        return Err(e.clone());
    }
    let status = job.status.as_ref().ok_or("no terminal status")?;
    match &job.request {
        Request::Prove { model, seed } => {
            let p = published
                .iter()
                .find(|p| p.model == *model)
                .ok_or("model was not published")?;
            let a = check::check_prove(status, p, &graphs[model], *seed, params)?;
            Ok(Some((a.proof.len(), a.prove_ms)))
        }
        Request::Verify { tamper, .. } => {
            check::check_verdict(status, tamper.is_some()).map(|()| None)
        }
    }
}

/// A checked window: latencies of jobs with the expected outcome, proof
/// sizes and proving times of checked proofs, and the failures.
struct Checked {
    latencies: Vec<f64>,
    proof_bytes: Vec<f64>,
    prove_ms: Vec<f64>,
    failed: usize,
}

fn check_window(
    name: &str,
    window: &Window,
    published: &[Published],
    graphs: &BTreeMap<&str, Arc<Graph>>,
    params: &ParamsCache,
    failures: &mut Vec<String>,
) -> Checked {
    let mut c = Checked {
        latencies: Vec::new(),
        proof_bytes: Vec::new(),
        prove_ms: Vec::new(),
        failed: 0,
    };
    for job in &window.jobs {
        match check_job(job, published, graphs, params) {
            Ok(proof) => {
                c.latencies.push(job.latency_ms);
                if let Some((bytes, ms)) = proof {
                    c.proof_bytes.push(bytes as f64);
                    c.prove_ms.push(ms);
                }
            }
            Err(e) => {
                c.failed += 1;
                failures.push(format!("{name} job {}: {e}", job.index));
            }
        }
    }
    c
}

/// Jobs must reuse the published key and weights: neither counter may
/// move while they run.
fn check_counters(
    name: &str,
    before: &Counters,
    after: &Counters,
    failures: &mut Vec<String>,
) -> usize {
    let mut bad = 0;
    for (what, b, a) in [
        ("keygens()", before.keygens, after.keygens),
        (
            "weight_encodings()",
            before.weight_encodings,
            after.weight_encodings,
        ),
    ] {
        if a != b {
            bad += 1;
            failures.push(format!(
                "{name}: {what} moved by {} during the window",
                a - b
            ));
        }
    }
    bad
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Peak resident set of this process (server included), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_in(opts: &Options, work: &Path) -> Result<Outcome, String> {
    let w = opts.workload;
    let (gw, published, setup_times) = set_up(opts, work)?;
    let addr = gw.local_addr().to_string();
    let calib_before = layers::host_calib_ms();
    let graphs: BTreeMap<&str, Arc<Graph>> = w
        .models()
        .iter()
        .map(|&m| (m, Arc::new(zkml_model::zoo::by_name(m).expect("zoo model"))))
        .collect();
    let params = ParamsCache::default();
    let cases = if w == Workload::VerifyMix {
        make_cases(opts, &addr, &published, &graphs, &params)?
    } else {
        Vec::new()
    };
    let body = |req: &Request| match req {
        Request::Prove { model, seed } => {
            let p = published
                .iter()
                .find(|p| p.model == *model)
                .expect("published");
            prove_body(p, *seed)
        }
        Request::Verify { proof, tamper } => {
            let case = &cases[*proof];
            match tamper {
                Some(t) => verify_body(case, &check::tamper(&case.proof, &case.vk, t.section)),
                None => verify_body(case, &case.proof),
            }
        }
    };
    let stream = Mutex::new((0usize, RequestStream::new(w, opts.seed)));
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let loop_cfg = |tracer| LoopConfig {
        addr: &addr,
        poll: w.poll_interval(),
        seconds: opts.seconds,
        tracer,
    };

    let mut failures = Vec::new();
    let mut failed = 0;
    let before = Counters::take(&addr)?;
    let window = closed_loop(&loop_cfg(&off), &stream, &body);
    let after = Counters::take(&addr)?;
    failed += check_counters("untraced window", &before, &after, &mut failures);
    let mut attempted = window.jobs.len();

    // The traced window, and the sampled job replayed alone over HTTP.
    let traced = if opts.trace {
        let before = Counters::take(&addr)?;
        let tw = closed_loop(&loop_cfg(&on), &stream, &body);
        let after = Counters::take(&addr)?;
        failed += check_counters("traced window", &before, &after, &mut failures);
        attempted += tw.jobs.len();
        let mut pick = StdRng::seed_from_u64(opts.seed ^ 0x7265_706c_6179);
        let candidates: Vec<&JobRecord> = tw
            .jobs
            .iter()
            .filter(|j| {
                !matches!(
                    j.request,
                    Request::Verify {
                        tamper: Some(_),
                        ..
                    }
                )
            })
            .collect();
        if candidates.is_empty() {
            return Err("traced window issued no job to replay".to_string());
        }
        let picked = candidates[pick.gen_range(0..candidates.len())];
        let (index, sample) = (picked.index, picked.request.clone());
        let alone = run_job(&loop_cfg(&on), index, sample.clone(), &body(&sample));
        Some((tw, before, after, sample, alone))
    } else {
        None
    };
    drop(gw); // graceful drain and journal fsync

    let checked = check_window(
        "untraced",
        &window,
        &published,
        &graphs,
        &params,
        &mut failures,
    );
    failed += checked.failed;
    if checked.latencies.is_empty() {
        return Err(format!("no job succeeded: {failures:?}"));
    }
    let mut notes: Vec<String> = published
        .iter()
        .map(|p| {
            format!(
                "model {}: k = {}, digest {}",
                p.model,
                p.k,
                &p.digest_hex[..16]
            )
        })
        .collect();
    notes.push(format!("set-up times {setup_times:.3?} s"));

    let mut per_layer = Vec::new();
    if let Some((tw, before, after, sample, alone)) = traced {
        let tchecked = check_window("traced", &tw, &published, &graphs, &params, &mut failures);
        failed += tchecked.failed;
        attempted += 1;
        if let Err(e) = check_job(&alone, &published, &graphs, &params) {
            failed += 1;
            failures.push(format!("job {} replayed alone: {e}", alone.index));
        }
        per_layer = per_layer_metrics(
            opts,
            PerLayerInput {
                tw: &tw,
                tchecked: &tchecked,
                untraced_p50: median(&checked.latencies),
                before: &before,
                after: &after,
                sample: &sample,
                alone: &alone,
                published: &published,
                graphs: &graphs,
                cases: &cases,
                params: &params,
                tracer: &on,
            },
            &mut notes,
        )?;
    }
    let calib_after = layers::host_calib_ms();
    let calib: Vec<f64> = calib_before.iter().chain(&calib_after).copied().collect();
    notes.push(format!(
        "host.calib_ms before {:.2} after {:.2} (msm 2^12, 1 thread)",
        median(&calib_before),
        median(&calib_after)
    ));
    if opts.trace {
        per_layer.push(Metric::new(
            "host.calib_ms",
            median(&calib),
            "ms",
            calib.len(),
        ));
    }

    let proof_bytes = if w == Workload::VerifyMix {
        cases.iter().map(|c| c.proof.len() as f64).collect()
    } else {
        checked.proof_bytes.clone()
    };
    let job_tail = tail(&checked.latencies);
    let n = checked.latencies.len();
    let end_to_end = vec![
        Metric::new("job_p50_ms", median(&checked.latencies), "ms", n),
        Metric::new("job_tail_ms", job_tail.value, "ms", n)
            .note(format!("p{:.1}", job_tail.percentile)),
        Metric::new("jobs_per_s", n as f64 / window.seconds, "1/s", n)
            .note(format!("window {:.2} s", window.seconds)),
        Metric::new(
            "failed_frac",
            checked.failed as f64 / window.jobs.len() as f64,
            "ratio",
            window.jobs.len(),
        ),
        Metric::new("setup_s", median(&setup_times), "s", setup_times.len()),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1).note("VmHWM"),
        Metric::new("proof_bytes", mean(&proof_bytes), "B", proof_bytes.len()),
    ];
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
        failures,
        notes,
    })
}

struct PerLayerInput<'a> {
    tw: &'a Window,
    tchecked: &'a Checked,
    untraced_p50: f64,
    before: &'a Counters,
    after: &'a Counters,
    sample: &'a Request,
    alone: &'a JobRecord,
    published: &'a [Published],
    graphs: &'a BTreeMap<&'a str, Arc<Graph>>,
    cases: &'a [VerifyCase],
    params: &'a ParamsCache,
    tracer: &'a Tracer,
}

fn per_layer_metrics(
    opts: &Options,
    x: PerLayerInput,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let tr = x.tracer;
    let jobs = x.tw.jobs.len();
    let delta =
        |name: &str| service_stat(&x.after.stats, name) - service_stat(&x.before.stats, name);
    let spans_http = tr.spans();
    let submit = trace::durations(&spans_http, "net.submit");
    let poll = trace::durations(&spans_http, "net.poll");
    let polls: Vec<f64> = x.tw.jobs.iter().map(|j| f64::from(j.polls)).collect();
    let refused = x.tw.jobs.iter().filter(|j| j.refused).count();
    let pool_busy = (x.after.pool.busy_ns - x.before.pool.busy_ns) as f64
        / ((x.after.pool.uptime_ns - x.before.pool.uptime_ns) as f64 * x.after.pool.threads as f64);
    let traced_p50 = if x.tchecked.latencies.is_empty() {
        f64::NAN
    } else {
        median(&x.tchecked.latencies)
    };

    // The sampled job: which model, which seed, which published entry.
    let (model, seed) = match x.sample {
        Request::Prove { model, seed } => (*model, *seed),
        Request::Verify { proof, .. } => (
            x.published[*proof].model,
            setup_proof_seeds(opts.seed)[*proof],
        ),
    };
    let published = x
        .published
        .iter()
        .find(|p| p.model == model)
        .expect("published");
    let graph = Arc::clone(&x.graphs[model]);
    let replay_root = tr.begin("client.replay", ROOT, None);
    let replay = layers::replay_prove(tr, replay_root, &graph, seed, published, x.params)?;
    let service_ms = match x.sample {
        Request::Prove { .. } => {
            layers::service_job_ms(tr, replay_root, Arc::clone(&graph), published, |d| {
                JobSpec::prove_committed(Arc::clone(&graph), Backend::Kzg, seed, d)
            })?
        }
        Request::Verify { proof, .. } => {
            let case = &x.cases[*proof];
            let public = decode_public(&zkml_net::decode_hex(&case.public_hex)?)
                .map_err(|e| e.to_string())?
                .1;
            let commitment = zkml_net::decode_hex(&case.published.commitment_hex)?;
            let spec =
                layers::verify_spec(case.vk.to_bytes(), public, case.proof.clone(), commitment);
            layers::service_job_ms(tr, replay_root, Arc::clone(&graph), published, spec)?
        }
    };
    let kernels = layers::kernels(tr, replay_root, replay.k, replay.ext_k);
    tr.end(replay_root);

    let service_prove: Vec<f64> = if x.cases.is_empty() {
        x.tchecked.prove_ms.clone()
    } else {
        x.cases.iter().map(|c| c.prove_ms).collect()
    };
    let mut m = vec![
        Metric::new("net.submit_ms", median_or_zero(&submit), "ms", submit.len()),
        Metric::new("net.poll_ms", median_or_zero(&poll), "ms", poll.len()),
        Metric::new("net.polls_per_job", mean(&polls), "count", jobs),
        Metric::new("net.overhead_ms", x.alone.latency_ms - service_ms, "ms", 1).note(format!(
            "HTTP {:.1} ms - service {:.1} ms, {model} alone",
            x.alone.latency_ms, service_ms
        )),
        Metric::new("net.refused", refused as f64, "count", jobs),
        Metric::new("service.job_ms", service_ms, "ms", 1).note(format!("{model}, direct")),
        Metric::new(
            "service.prove_ms",
            median_or_zero(&service_prove),
            "ms",
            service_prove.len(),
        ),
        Metric::new(
            "service.cache_hit_rate",
            service_stat(&x.after.stats, "cache_hit_rate"),
            "ratio",
            1,
        )
        .note("cumulative, set-up included"),
        Metric::new("par.busy_fraction", pool_busy, "ratio", 1),
        Metric::new("par.steals", delta("par_steals"), "count", 1),
        Metric::new(
            "par.tasks_per_job",
            delta("par_tasks_executed") / jobs.max(1) as f64,
            "count",
            jobs,
        ),
        Metric::new(
            "plonk.keygens",
            (x.after.keygens - x.before.keygens) as f64,
            "count",
            1,
        ),
        Metric::new(
            "plonk.weight_encodings",
            (x.after.weight_encodings - x.before.weight_encodings) as f64,
            "count",
            1,
        ),
        Metric::new(
            "trace.overhead_ms",
            traced_p50 - x.untraced_p50,
            "ms",
            x.tchecked.latencies.len(),
        )
        .note("traced minus untraced job_p50_ms"),
    ];
    m.extend(replay.metrics);
    m.extend(kernels);

    // Every model's chosen layout, so a layout change shows as a count.
    for p in x.published {
        let line = if p.model == model {
            replay.layout.clone()
        } else {
            let g = &x.graphs[p.model];
            let opts = zkml::OptimizerOptions::new(Backend::Kzg, ServiceConfig::default().max_k);
            let inputs = zkml::optimizer::zero_inputs(g);
            let r = zkml::optimize(g, &inputs, &opts, HardwareStats::cached())
                .map_err(|e| e.to_string())?;
            layers::layout_line(&r)
        };
        notes.push(format!("layout {}: {line}", p.model));
    }
    for (label, [rows, cells, lookups]) in &replay.regions {
        notes.push(format!(
            "region {model} {label}: rows {rows}, cells {cells}, lookups {lookups}"
        ));
    }

    let spans = tr.spans();
    let self_ms = trace::self_time_by_layer(&spans);
    for (layer, ms) in &self_ms {
        notes.push(format!("self time {layer}: {ms:.1} ms"));
    }
    let path = opts
        .out_dir
        .join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
    let self_json = self_ms
        .iter()
        .fold(JsonObj::new(), |o, (layer, ms)| o.f64(layer, *ms));
    let regions_json = replay
        .regions
        .iter()
        .fold(JsonObj::new(), |o, (label, [r, c, l])| {
            let row = JsonObj::new()
                .u64("rows", *r as u64)
                .u64("cells", *c as u64)
                .u64("lookups", *l as u64);
            o.raw(label, &row.finish())
        });
    let doc = JsonObj::new()
        .str("workload", opts.workload.name())
        .u64("seed", opts.seed)
        .str("model", model)
        .raw("self_ms", &self_json.finish())
        .raw("regions", &regions_json.finish())
        .raw("spans", &trace::to_json(&spans))
        .finish();
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("trace written to {}", path.display()));
    Ok(m)
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}
