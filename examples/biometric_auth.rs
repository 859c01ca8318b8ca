//! Private biometric authentication (§2 of the paper).
//!
//! A user proves that a freshly captured face embedding matches their
//! enrolled template — the service verifies the match score came from the
//! committed matching model without seeing either embedding.
//!
//! ```text
//! cargo run --release --example biometric_auth
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkml::{compile, CircuitConfig, LayoutChoices};
use zkml_model::{Activation, GraphBuilder, Op};
use zkml_pcs::{Backend, Params};
use zkml_plonk::verify_proof_committed;
use zkml_tensor::{FixedPoint, Tensor};

/// A small matching network: both embeddings pass through a shared
/// projection; the squared distance is reduced to a match score.
fn matcher() -> zkml_model::Graph {
    let d = 16usize;
    let mut b = GraphBuilder::new("face-matcher", 0xFACE);
    let probe = b.input(vec![1, d], "probe_embedding");
    let template = b.input(vec![1, d], "enrolled_template");
    let w = b.weight(vec![d, d], "proj.w");
    let pb = b.weight(vec![d], "proj.b");
    let p1 = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Tanh),
        },
        &[probe, w, pb],
        "proj_probe",
    );
    let p2 = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Tanh),
        },
        &[template, w, pb],
        "proj_template",
    );
    let d2 = b.op(Op::SquaredDifference, &[p1, p2], "sqdiff");
    let dist = b.op(
        Op::Sum {
            axis: 1,
            keep_dims: true,
        },
        &[d2],
        "distance",
    );
    // Score = sigmoid(-distance/4): 0.5 for a perfect match, lower as the
    // embeddings diverge; the service accepts scores above 0.48.
    let neg_quarter = b.weight_with(Tensor::from_vec(vec![-0.25f32]), "neg_quarter");
    let neg = b.op(Op::Mul, &[dist, neg_quarter], "scaled");
    let score = b.op(Op::Act(Activation::Sigmoid), &[neg], "score");
    b.finish(vec![score])
}

fn main() {
    let model = matcher();
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let mut rng = StdRng::seed_from_u64(31337);

    // Enrolled template and two probes: one genuine (template + noise), one
    // impostor (random).
    let template: Vec<f32> = (0..16).map(|_| rng.gen_range(-0.8..0.8)).collect();
    let genuine: Vec<f32> = template
        .iter()
        .map(|t| t + rng.gen_range(-0.05..0.05))
        .collect();
    let impostor: Vec<f32> = (0..16).map(|_| rng.gen_range(-0.8..0.8)).collect();

    let tq = fp.quantize_tensor(&Tensor::new(vec![1, 16], template));
    let mut params_rng = StdRng::seed_from_u64(55);
    let mut shared: Option<(Params, zkml_plonk::ProvingKey)> = None;

    for (label, probe) in [("genuine", genuine), ("impostor", impostor)] {
        let pq = fp.quantize_tensor(&Tensor::new(vec![1, 16], probe));
        let compiled = compile(&model, &[pq, tq.clone()], cfg).expect("compile");
        let (params, pk) = shared.get_or_insert_with(|| {
            let params = Params::setup(Backend::Kzg, compiled.k, &mut params_rng);
            let pk = compiled.keygen(&params).expect("keygen");
            (params, pk)
        });
        let (wc, weights) = compiled.commit_weights(params).expect("commit weights");
        let proof = compiled
            .prove_with_weights(params, pk, &mut rng, &[], &weights)
            .expect("prove");
        let v = verify_proof_committed(params, &pk.vk, compiled.instance(), &proof, &[], Some(&wc))
            .expect("verify");
        assert!(v.settle(params), "pairing check failed");
        let score = fp.dequantize(compiled.outputs[0].data()[0]);
        println!(
            "{label}: match score {score:.3} (proof {} bytes, verified ✓) -> {}",
            proof.len(),
            if score >= 0.48 { "ACCEPT" } else { "REJECT" }
        );
    }
}
