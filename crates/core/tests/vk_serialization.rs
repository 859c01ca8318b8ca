//! Integration: a proof verifies against a verifying key that went through
//! bytes (the standalone-verifier flow of §8), and keys from different
//! models do not cross-verify.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml::{compile, CircuitConfig, LayoutChoices};
use zkml_model::{Activation, GraphBuilder, Op};
use zkml_pcs::{Backend, Params};
use zkml_plonk::VerifyingKey;
use zkml_tensor::{FixedPoint, Tensor};

fn model(hidden: usize) -> zkml_model::Graph {
    let mut b = GraphBuilder::new(format!("ser-{hidden}"), hidden as u64);
    let x = b.input(vec![1, 4], "x");
    let w = b.weight(vec![4, hidden], "w");
    let bias = b.weight(vec![hidden], "b");
    let y = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w, bias],
        "fc",
    );
    b.finish(vec![y])
}

#[test]
fn proof_verifies_against_deserialized_vk() {
    let g = model(6);
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let input = fp.quantize_tensor(&Tensor::new(vec![1, 4], vec![0.2f32, -0.4, 0.9, 0.0]));
    let compiled = compile(&g, &[input], cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).unwrap();
    let (wc, weights) = compiled.commit_weights(&params).unwrap();
    let proof = compiled
        .prove_with_weights(&params, &pk, &mut rng, &[], &weights)
        .unwrap();

    let bytes = pk.vk.to_bytes();
    let vk2 = VerifyingKey::from_bytes(&bytes).expect("vk roundtrip");
    assert_eq!(vk2.digest, pk.vk.digest);
    // Weights lower into committed columns, so the standalone verifier needs
    // the (deterministic) weight commitment alongside the deserialized vk.
    let verification = zkml_plonk::verify_proof_committed(
        &params,
        &vk2,
        compiled.instance(),
        &proof,
        &[],
        Some(&wc),
    )
    .expect("verify with deserialized vk");
    assert!(verification.settle(&params), "pairing check failed");

    // Serialization is deterministic.
    assert_eq!(bytes, VerifyingKey::from_bytes(&bytes).unwrap().to_bytes());
}

#[test]
fn wrong_models_key_rejects_proof() {
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let input = fp.quantize_tensor(&Tensor::new(vec![1, 4], vec![0.1f32, 0.2, 0.3, 0.4]));

    let g1 = model(6);
    let g2 = model(7); // different architecture -> different circuit
    let c1 = compile(&g1, std::slice::from_ref(&input), cfg).unwrap();
    let c2 = compile(&g2, &[input], cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let k = c1.k.max(c2.k);
    let params = Params::setup(Backend::Kzg, k, &mut rng);
    let pk1 = c1.keygen(&params).unwrap();
    let pk2 = c2.keygen(&params).unwrap();
    assert_ne!(pk1.vk.digest, pk2.vk.digest);
    let (_, weights1) = c1.commit_weights(&params).unwrap();
    let proof = c1
        .prove_with_weights(&params, &pk1, &mut rng, &[], &weights1)
        .unwrap();
    // Verifying a g1 proof under g2's key (and g2's weight commitment) must
    // fail (different circuit and instance length).
    let (wc2, _) = c2.commit_weights(&params).unwrap();
    let accepted = zkml_plonk::verify_proof_committed(
        &params,
        &pk2.vk,
        c2.instance(),
        &proof,
        &[],
        Some(&wc2),
    )
    .map(|v| v.settle(&params))
    .unwrap_or(false);
    assert!(!accepted, "cross-model proof must be rejected");
}
