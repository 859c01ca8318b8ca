//! Trustless recommendation audit (Figure 1 / §2 of the paper).
//!
//! A platform runs a MaskNet ranking model over private weights. With ZKML
//! it can publish, for each ranked item, a proof that the score came from
//! the committed model — an auditor verifies the scores without ever seeing
//! the weights.
//!
//! ```text
//! cargo run --release --example twitter_audit
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkml::{compile, CircuitConfig, LayoutChoices};
use zkml_pcs::{Backend, Params};
use zkml_plonk::verify_proof_committed;
use zkml_tensor::{FixedPoint, Tensor};

fn main() {
    let model = zkml_model::zoo::twitter_masknet();
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);

    // The platform ranks three candidate tweets for a user.
    let mut rng = StdRng::seed_from_u64(2024);
    let candidates: Vec<Tensor<i64>> = (0..3)
        .map(|_| {
            let feats: Vec<f32> = (0..32).map(|_| rng.gen_range(-4.0..4.0)).collect();
            fp.quantize_tensor(&Tensor::new(vec![1, 32], feats))
        })
        .collect();

    // One-time setup shared by prover (platform) and verifier (auditor).
    let probe = compile(&model, &[candidates[0].clone()], cfg).expect("compile");
    let mut srs_rng = StdRng::seed_from_u64(7);
    let params = Params::setup(Backend::Kzg, probe.k, &mut srs_rng);
    let pk = probe.keygen(&params).expect("keygen");
    // The platform publishes the model's weight commitment once.
    let (wc, weights) = probe.commit_weights(&params).expect("commit weights");
    println!(
        "MaskNet circuit: 2^{} rows, {} columns — keys ready",
        probe.k, probe.stats.num_advice
    );

    // The platform scores each candidate and attaches a proof.
    let mut scored = Vec::new();
    for (i, cand) in candidates.iter().enumerate() {
        let compiled = compile(&model, std::slice::from_ref(cand), cfg).expect("compile");
        let proof = compiled
            .prove_with_weights(&params, &pk, &mut rng, &[], &weights)
            .expect("prove");
        let score = fp.dequantize(compiled.outputs[0].data()[0]);
        println!("tweet #{i}: score {score:.4}, proof {} bytes", proof.len());
        scored.push((i, score, compiled, proof));
    }

    // The auditor verifies every score against the committed circuit and
    // the published weight commitment.
    for (i, score, compiled, proof) in &scored {
        let v = verify_proof_committed(&params, &pk.vk, compiled.instance(), proof, &[], Some(&wc))
            .unwrap_or_else(|e| panic!("tweet #{i} proof rejected: {e}"));
        assert!(v.settle(&params), "tweet #{i}: pairing check failed");
        println!("auditor: tweet #{i} score {score:.4} verified ✓");
    }

    // The ranking is the verified scores, sorted.
    let mut order: Vec<(usize, f32)> = scored.iter().map(|(i, s, _, _)| (*i, *s)).collect();
    order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    println!(
        "verified ranking: {:?}",
        order.iter().map(|(i, _)| *i).collect::<Vec<_>>()
    );
}
