//! Commit-and-prove soundness at the circuit level: the proving key is
//! weight-independent (two weight sets of one architecture share it), and
//! a proof verifies only against the exact weight commitment it was proved
//! under — flipping a single weight after publication is caught.

mod common;

use common::verify;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkml::{compile, CircuitConfig, LayoutChoices};
use zkml_model::{Activation, Graph, GraphBuilder, Op};
use zkml_pcs::{Backend, Params};
use zkml_tensor::{FixedPoint, Tensor};

fn small_mlp(seed: u64) -> Graph {
    let mut b = GraphBuilder::new("cw-mlp", seed);
    let x = b.input(vec![1, 6], "x");
    let w1 = b.weight(vec![6, 8], "w1");
    let b1 = b.weight(vec![8], "b1");
    let h = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w1, b1],
        "fc1",
    );
    let w2 = b.weight(vec![8, 4], "w2");
    let b2 = b.weight(vec![4], "b2");
    let y = b.op(Op::FullyConnected { activation: None }, &[h, w2, b2], "fc2");
    b.finish(vec![y])
}

fn inputs(g: &Graph, seed: u64, fp: FixedPoint) -> Vec<Tensor<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    g.inputs
        .iter()
        .map(|id| {
            let shape = g.shape(*id).to_vec();
            let n: usize = shape.iter().product();
            Tensor::new(
                shape,
                (0..n)
                    .map(|_| fp.quantize(rng.gen_range(-1.0..1.0)))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn proving_key_is_weight_independent_and_commitment_binds_the_proof() {
    let graph_a = small_mlp(77);
    // Tamper: flip one weight. Architecture (and thus circuit layout) is
    // unchanged; the committed values are not.
    let mut graph_b = graph_a.clone();
    let slot = graph_b
        .weights
        .iter_mut()
        .flatten()
        .next()
        .expect("model has weights");
    slot.data_mut()[0] += 0.25;
    assert_eq!(graph_a.arch_hash(), graph_b.arch_hash());
    assert_ne!(graph_a.content_hash(), graph_b.content_hash());

    let mut config = CircuitConfig::default_with(LayoutChoices::optimized());
    config.num_cols = 16;
    let fp = FixedPoint::new(config.numeric.scale_bits);
    let xs = inputs(&graph_a, 1, fp);
    let a = compile(&graph_a, &xs, config).unwrap();
    let b = compile(&graph_b, &xs, config).unwrap();
    assert!(a.has_committed(), "weights must lower to committed columns");
    assert_eq!(
        a.circuit_digest(),
        b.circuit_digest(),
        "the circuit identity must not depend on weight values"
    );
    assert_ne!(
        a.committed_values_digest(),
        b.committed_values_digest(),
        "the committed values digest must detect the flipped weight"
    );

    let mut rng = StdRng::seed_from_u64(42);
    let params = Params::setup(Backend::Kzg, a.k, &mut rng);
    // One keygen serves both weight sets: preprocessing excludes the
    // committed columns entirely.
    let pk = a.keygen(&params).unwrap();

    let (wc_a, weights_a) = a.commit_weights(&params).unwrap();
    let (wc_b, weights_b) = b.commit_weights(&params).unwrap();
    assert_ne!(wc_a.digest, wc_b.digest);

    let proof_a = a
        .prove_with_weights(&params, &pk, &mut rng, &[], &weights_a)
        .unwrap();
    verify(&params, &pk.vk, a.instance(), &proof_a, &wc_a)
        .expect("honest proof verifies against its own commitment");
    // The same proof against the tampered commitment must be rejected.
    assert!(
        verify(&params, &pk.vk, a.instance(), &proof_a, &wc_b).is_err(),
        "a proof must not verify against a different weight commitment"
    );

    // The tampered model proves fine with the SAME pk — and its proof binds
    // to its own commitment, not the original one.
    let proof_b = b
        .prove_with_weights(&params, &pk, &mut rng, &[], &weights_b)
        .unwrap();
    verify(&params, &pk.vk, b.instance(), &proof_b, &wc_b)
        .expect("the shared pk proves the tampered weight set too");
    assert!(
        verify(&params, &pk.vk, b.instance(), &proof_b, &wc_a).is_err(),
        "the tampered proof must not pass as the published model"
    );
}
