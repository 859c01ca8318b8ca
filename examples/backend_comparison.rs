//! Compares the KZG and IPA backends on the same model — the tradeoff of
//! Tables 6 vs 7: KZG verifies in O(1) (two pairings) with a trusted setup;
//! IPA is transparent but verification does O(n) group work and proofs are
//! larger.
//!
//! ```text
//! cargo run --release --example backend_comparison
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use zkml::{compile, CircuitConfig, LayoutChoices};
use zkml_pcs::{Backend, Params};
use zkml_plonk::verify_proof_committed;
use zkml_tensor::FixedPoint;

fn main() {
    let model = zkml_model::zoo::dlrm();
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let mut rng = StdRng::seed_from_u64(42);
    use rand::Rng;
    let inputs: Vec<zkml_tensor::Tensor<i64>> = model
        .inputs
        .iter()
        .map(|id| {
            let shape = model.shape(*id).to_vec();
            let n: usize = shape.iter().product();
            zkml_tensor::Tensor::new(
                shape,
                (0..n)
                    .map(|_| fp.quantize(rng.gen_range(-1.0..1.0)))
                    .collect(),
            )
        })
        .collect();
    let compiled = compile(&model, &inputs, cfg).expect("compile");
    println!(
        "{}: 2^{} rows, {} columns\n",
        model.name, compiled.k, compiled.stats.num_advice
    );
    println!("| backend | setup | prove | verify | proof size |");
    println!("|---|---|---|---|---|");
    for backend in [Backend::Kzg, Backend::Ipa] {
        let t = Instant::now();
        let params = Params::setup(backend, compiled.k, &mut rng);
        let setup = t.elapsed();
        let pk = compiled.keygen(&params).expect("keygen");
        let t = Instant::now();
        let (wc, weights) = compiled.commit_weights(&params).expect("commit weights");
        let proof = compiled
            .prove_with_weights(&params, &pk, &mut rng, &[], &weights)
            .expect("prove");
        let prove = t.elapsed();
        let t = Instant::now();
        let v =
            verify_proof_committed(&params, &pk.vk, compiled.instance(), &proof, &[], Some(&wc))
                .expect("verify");
        assert!(v.settle(&params), "pairing check failed");
        let verify = t.elapsed();
        println!(
            "| {backend} | {setup:.2?} | {prove:.2?} | {verify:.2?} | {} B |",
            proof.len()
        );
    }
    println!("\nKZG: constant verification (pairings); IPA: transparent setup, O(n) verify.");
}
