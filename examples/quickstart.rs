//! Quickstart: build a tiny model, compile it to a circuit, prove an
//! inference, and verify the proof.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml::{compile, CircuitConfig, LayoutChoices};
use zkml_model::{Activation, GraphBuilder, Op};
use zkml_pcs::{Backend, Params};
use zkml_plonk::verify_proof_committed;
use zkml_tensor::{FixedPoint, Tensor};

fn main() {
    // 1. Describe a model (normally loaded from a framework export; here a
    //    two-layer MLP with seeded synthetic weights).
    let mut b = GraphBuilder::new("quickstart-mlp", 7);
    let x = b.input(vec![1, 4], "features");
    let w1 = b.weight(vec![4, 8], "w1");
    let b1 = b.weight(vec![8], "b1");
    let h = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w1, b1],
        "hidden",
    );
    let w2 = b.weight(vec![8, 3], "w2");
    let b2 = b.weight(vec![3], "b2");
    let logits = b.op(
        Op::FullyConnected { activation: None },
        &[h, w2, b2],
        "logits",
    );
    let probs = b.op(Op::Softmax, &[logits], "probs");
    let graph = b.finish(vec![probs]);

    // 2. Quantize an input with the compiler's fixed-point configuration.
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let input = Tensor::new(vec![1, 4], vec![0.5f32, -0.25, 0.75, 0.1]);
    let input_q = fp.quantize_tensor(&input);

    // 3. Compile: lowers every layer onto gadgets and produces the witness.
    let compiled = compile(&graph, &[input_q], cfg).expect("compile");
    println!(
        "compiled: 2^{} rows, {} advice columns, {} lookups",
        compiled.k, compiled.stats.num_advice, compiled.stats.num_lookups
    );

    // 4. Setup + keygen + weight commitment + prove + verify (KZG backend).
    // The weight commitment is published once per model; a proof verifies
    // only against it.
    let mut rng = StdRng::seed_from_u64(1);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).expect("keygen");
    let (wc, weights) = compiled.commit_weights(&params).expect("commit weights");
    let proof = compiled
        .prove_with_weights(&params, &pk, &mut rng, &[], &weights)
        .expect("prove");
    let v = verify_proof_committed(&params, &pk.vk, compiled.instance(), &proof, &[], Some(&wc))
        .expect("verify");
    assert!(v.settle(&params), "pairing check failed");

    println!("proof: {} bytes — verified ✓", proof.len());
    println!(
        "model output (dequantized softmax): {:?}",
        compiled.outputs[0]
            .data()
            .iter()
            .map(|q| fp.dequantize(*q))
            .collect::<Vec<f32>>()
    );
}
