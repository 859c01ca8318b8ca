//! Criterion benchmark for end-to-end proving of a small model — tracks the
//! headline "proving time" metric at a size criterion can iterate.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml::{compile, CircuitConfig, LayoutChoices};
use zkml_bench::random_inputs;
use zkml_model::{Activation, GraphBuilder, Op};
use zkml_pcs::{Backend, Params};
use zkml_plonk::verify_proof_committed;
use zkml_tensor::FixedPoint;

fn tiny_model() -> zkml_model::Graph {
    let mut b = GraphBuilder::new("bench-mlp", 11);
    let x = b.input(vec![1, 8], "x");
    let w1 = b.weight(vec![8, 8], "w1");
    let b1 = b.weight(vec![8], "b1");
    let h = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w1, b1],
        "fc1",
    );
    let w2 = b.weight(vec![8, 4], "w2");
    let y = b.op(Op::FullyConnected { activation: None }, &[h, w2], "fc2");
    b.finish(vec![y])
}

fn bench_prove_verify(c: &mut Criterion) {
    let g = tiny_model();
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let inputs = random_inputs(&g, 5, fp);
    let compiled = compile(&g, &inputs, cfg).expect("compile");
    let mut rng = StdRng::seed_from_u64(6);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).expect("keygen");
    let (wc, weights) = compiled.commit_weights(&params).expect("commit weights");
    let proof = compiled
        .prove_with_weights(&params, &pk, &mut rng, &[], &weights)
        .expect("prove");

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("prove_tiny_mlp", |b| {
        b.iter(|| {
            // Committing the weights inline, as an unpublished job does.
            let mut rng = StdRng::seed_from_u64(7);
            let (_, weights) = compiled.commit_weights(&params).expect("commit weights");
            std::hint::black_box(
                compiled
                    .prove_with_weights(&params, &pk, &mut rng, &[], &weights)
                    .expect("prove"),
            )
        })
    });
    group.bench_function("verify_tiny_mlp", |b| {
        b.iter(|| {
            let v = verify_proof_committed(
                &params,
                &pk.vk,
                compiled.instance(),
                &proof,
                &[],
                Some(&wc),
            )
            .expect("verify");
            assert!(v.settle(&params), "pairing check failed");
        })
    });
    group.bench_function("compile_tiny_mlp", |b| {
        b.iter(|| std::hint::black_box(compile(&g, &inputs, cfg).expect("compile")).k)
    });
    group.finish();
}

criterion_group!(benches, bench_prove_verify);
criterion_main!(benches);
