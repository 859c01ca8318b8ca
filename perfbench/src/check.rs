//! Benchmark-side correctness checks, run outside the timed window.
//!
//! * Every returned proof is re-verified against the commitment that
//!   `POST /v1/models` returned, with `Params` rebuilt from `SRS_SEED`.
//! * Its public values must equal the reference fixed-point executor's
//!   outputs on the inputs the job's seed denotes.
//! * Tampered proofs are made the way the plonk negative-path tests make
//!   them: flip the middle byte of one proof section.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use zkml::OptimizerOptions;
use zkml_ff::{Fr, PrimeField};
use zkml_model::{execute_fixed, Graph};
use zkml_net::{decode_hex, Json};
use zkml_pcs::{Backend, Params};
use zkml_plonk::protocol::opening_plan;
use zkml_plonk::{verify_proof_committed, ConstraintSystem, VerifyingKey, WeightCommitment};
use zkml_service::{decode_public, ServiceConfig, SRS_SEED};
use zkml_tensor::{FixedPoint, Tensor};

/// A model as `POST /v1/models` published it.
#[derive(Debug, Clone)]
pub struct Published {
    /// Zoo name.
    pub model: &'static str,
    /// Commitment digest, hex.
    pub digest_hex: String,
    /// Serialized weight commitment, hex.
    pub commitment_hex: String,
    /// Circuit size the optimizer chose.
    pub k: u32,
}

/// KZG parameters rebuilt from the service's fixed SRS seed, per `k`.
#[derive(Default)]
pub struct ParamsCache(Mutex<HashMap<u32, Arc<Params>>>);

impl ParamsCache {
    /// The parameters for `2^k` rows.
    pub fn get(&self, k: u32) -> Arc<Params> {
        let mut map = self.0.lock().expect("params cache poisoned");
        Arc::clone(map.entry(k).or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(SRS_SEED);
            Arc::new(Params::setup(Backend::Kzg, k, &mut rng))
        }))
    }
}

/// The quantized inputs a prove job with this seed proves, generated the
/// way the service generates them (`synthetic_inputs` in zkml-service).
pub fn job_inputs(graph: &Graph, seed: u64) -> Vec<Tensor<i64>> {
    let fp = FixedPoint::new(scale_bits());
    let mut rng = StdRng::seed_from_u64(seed);
    graph
        .inputs
        .iter()
        .map(|id| {
            let shape = graph.shape(*id).to_vec();
            let n: usize = shape.iter().product();
            let data = (0..n)
                .map(|_| fp.quantize(rng.gen_range(-1.0..1.0)))
                .collect();
            Tensor::new(shape, data)
        })
        .collect()
}

/// Fixed-point scale the service compiles under.
pub fn scale_bits() -> u32 {
    OptimizerOptions::new(Backend::Kzg, ServiceConfig::default().max_k)
        .numeric
        .scale_bits
}

/// The public values a correct proof of `graph` on seed `seed` carries:
/// the reference executor's outputs, flattened, as field elements.
pub fn expected_public(graph: &Graph, seed: u64) -> Vec<Fr> {
    let inputs = job_inputs(graph, seed);
    let fp = FixedPoint::new(scale_bits());
    execute_fixed(graph, &inputs, fp)
        .outputs(graph)
        .iter()
        .flat_map(|t| t.data().iter().map(|&v| Fr::from_i64(v)))
        .collect()
}

/// Verifies a proof against a published commitment.
pub fn verify(
    params: &ParamsCache,
    vk: &VerifyingKey,
    public: &[Fr],
    proof: &[u8],
    wc: &WeightCommitment,
) -> Result<(), String> {
    let p = params.get(vk.k);
    let v = verify_proof_committed(&p, vk, &[public.to_vec()], proof, &[], Some(wc))
        .map_err(|e| e.to_string())?;
    if v.settle(&p) {
        Ok(())
    } else {
        Err("pairing check failed".to_string())
    }
}

/// The artifacts of a completed prove job, decoded from its status JSON.
pub struct ProofArtifacts {
    /// Proof bytes.
    pub proof: Vec<u8>,
    /// Serialized verifying key.
    pub vk: Vec<u8>,
    /// Serialized public values (`encode_public`).
    pub public: Vec<u8>,
    /// The service's own proving time.
    pub prove_ms: f64,
}

fn hex_field(status: &Json, name: &str) -> Result<Vec<u8>, String> {
    let h = status
        .get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("status lacks {name}"))?;
    decode_hex(h).map_err(|e| format!("{name}: {e}"))
}

/// Checks a terminal prove-job status end to end and returns its
/// artifacts: completed, bound to the published model, public values equal
/// to the reference executor's, and the proof verifies against the
/// published commitment.
pub fn check_prove(
    status: &Json,
    published: &Published,
    graph: &Graph,
    seed: u64,
    params: &ParamsCache,
) -> Result<ProofArtifacts, String> {
    let state = status.get("status").and_then(Json::as_str).unwrap_or("");
    if state != "completed" {
        let err = status.get("error").and_then(Json::as_str).unwrap_or("");
        return Err(format!("prove job ended {state}: {err}"));
    }
    for (field, want) in [
        ("model_digest", &published.digest_hex),
        ("commitment_hex", &published.commitment_hex),
    ] {
        let got = status.get(field).and_then(Json::as_str).unwrap_or("");
        if got != want {
            return Err(format!("{field} differs from the published model"));
        }
    }
    let artifacts = ProofArtifacts {
        proof: hex_field(status, "proof_hex")?,
        vk: hex_field(status, "vk_hex")?,
        public: hex_field(status, "public_hex")?,
        prove_ms: status.get("prove_ms").and_then(Json::as_f64).unwrap_or(0.0),
    };
    let (backend, public) = decode_public(&artifacts.public).map_err(|e| e.to_string())?;
    if backend != Backend::Kzg {
        return Err(format!("proof is for {backend:?}, expected KZG"));
    }
    if public != expected_public(graph, seed) {
        return Err(format!(
            "public values differ from execute_fixed on seed {seed}"
        ));
    }
    let vk = VerifyingKey::from_bytes(&artifacts.vk).map_err(|e| format!("vk: {e}"))?;
    let wc = published_commitment(published)?;
    verify(params, &vk, &public, &artifacts.proof, &wc)
        .map_err(|e| format!("re-verification failed: {e}"))?;
    Ok(artifacts)
}

/// Decodes a published weight commitment.
pub fn published_commitment(published: &Published) -> Result<WeightCommitment, String> {
    let bytes = decode_hex(&published.commitment_hex).map_err(|e| e.to_string())?;
    WeightCommitment::from_bytes(&bytes).map_err(|e| format!("commitment: {e}"))
}

/// Checks a terminal verify-job status against the expected verdict: a
/// good proof completes, a tampered one fails verification.
pub fn check_verdict(status: &Json, tampered: bool) -> Result<(), String> {
    let state = status.get("status").and_then(Json::as_str).unwrap_or("");
    let err = status.get("error").and_then(Json::as_str).unwrap_or("");
    match (tampered, state) {
        (false, "completed") => Ok(()),
        (true, "failed") if err.starts_with("verification failed") => Ok(()),
        _ => Err(format!(
            "verify job (tampered: {tampered}) ended {state}: {err}"
        )),
    }
}

/// Named byte ranges of a serialized proof, derived from the constraint
/// system as the plonk negative-path tests derive them: advice
/// commitments, lookup permuted pairs, permutation and lookup grand
/// products, quotient pieces, evaluations, then the opening argument.
pub fn proof_sections(cs: &ConstraintSystem, k: u32, proof_len: usize) -> Vec<(usize, usize)> {
    let usable = cs.usable_rows(1usize << k);
    let factor = (cs.degree() - 1).next_power_of_two();
    let sizes = [
        cs.num_advice * 32,
        cs.lookups.len() * 2 * 32,
        cs.permutation_z_count() * 32,
        cs.lookups.len() * 32,
        factor * 32,
        opening_plan(cs, usable, factor).len() * 32,
    ];
    let mut out = Vec::new();
    let mut pos = 0;
    for len in sizes {
        out.push((pos, (pos + len).min(proof_len)));
        pos += len;
    }
    out.push((pos.min(proof_len), proof_len));
    out.retain(|(a, b)| b > a);
    out
}

/// A copy of `proof` with the middle byte of one section flipped.
pub fn tamper(proof: &[u8], vk: &VerifyingKey, section: u32) -> Vec<u8> {
    let sections = proof_sections(&vk.cs, vk.k, proof.len());
    let (start, end) = sections[section as usize % sections.len()];
    let mut bad = proof.to_vec();
    bad[start + (end - start) / 2] ^= 0x2a;
    bad
}
