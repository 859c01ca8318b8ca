//! Cross-thread-count determinism: every parallelized kernel, and the full
//! prover, must produce bit-identical results on a 1-thread pool, a 2-thread
//! pool, and the default global pool.
//!
//! The `zkml-par` contract is that parallel decomposition never changes a
//! value: chunks are reduced in order and field arithmetic is exact. These
//! tests enforce that contract end to end — `scripts/check.sh` additionally
//! re-runs the whole suite under `ZKML_THREADS=1` to cover the env-var
//! path.

mod common;

use common::{prove, verify};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml::{compile, CircuitConfig, LayoutChoices};
use zkml_curves::{msm, G1Affine, G1Projective};
use zkml_ff::{Field, Fr};
use zkml_model::{Activation, GraphBuilder, Op};
use zkml_pcs::{Backend, Params};
use zkml_poly::EvaluationDomain;
use zkml_tensor::{FixedPoint, Tensor};

/// Runs `f` under a 1-thread pool, a 2-thread pool, and the default global
/// pool, and asserts all three results are equal.
fn assert_pool_invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let serial = zkml_par::with_pool(&zkml_par::Pool::new(1), &f);
    let two = zkml_par::with_pool(&zkml_par::Pool::new(2), &f);
    let default = f();
    assert_eq!(serial, two, "1-thread vs 2-thread mismatch");
    assert_eq!(serial, default, "1-thread vs default-pool mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Pippenger MSM (bucket path) is bit-identical at any thread count.
    #[test]
    fn msm_thread_count_invariant(seed in any::<u64>(), n in 32usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = G1Projective::generator();
        let uniq: Vec<G1Affine> = (0..16)
            .map(|_| g.mul_scalar(&Fr::random(&mut rng)).to_affine())
            .collect();
        let bases: Vec<G1Affine> = (0..n).map(|i| uniq[i % 16]).collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        assert_pool_invariant(|| msm(&bases, &scalars));
    }

    /// The (i)FFT, including the parallel butterfly stages at k >= 12, is
    /// bit-identical at any thread count.
    #[test]
    fn fft_thread_count_invariant(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 12u32;
        let domain = EvaluationDomain::<Fr>::new(k);
        let coeffs: Vec<Fr> = (0..domain.n).map(|_| Fr::random(&mut rng)).collect();
        assert_pool_invariant(|| {
            let mut v = coeffs.clone();
            domain.fft(&mut v);
            let evals = v.clone();
            domain.ifft(&mut v);
            (evals, v)
        });
    }

    /// Coset FFTs (the quotient-evaluation substrate: coset scaling plus the
    /// extended-domain transform) are bit-identical at any thread count.
    #[test]
    fn coset_fft_thread_count_invariant(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = EvaluationDomain::<Fr>::new(12);
        let coeffs: Vec<Fr> = (0..domain.n).map(|_| Fr::random(&mut rng)).collect();
        assert_pool_invariant(|| {
            let mut v = coeffs.clone();
            domain.coset_fft(&mut v);
            let evals = v.clone();
            domain.coset_ifft(&mut v);
            (evals, v)
        });
    }
}

fn small_model() -> zkml_model::Graph {
    let mut b = GraphBuilder::new("par-determinism-mlp", 21);
    let x = b.input(vec![1, 4], "x");
    let w1 = b.weight(vec![4, 8], "w1");
    let b1 = b.weight(vec![8], "b1");
    let h = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w1, b1],
        "fc1",
    );
    let w2 = b.weight(vec![8, 2], "w2");
    let b2 = b.weight(vec![2], "b2");
    let y = b.op(Op::FullyConnected { activation: None }, &[h, w2, b2], "fc2");
    b.finish(vec![y])
}

/// Full pipeline: keygen digests and proof bytes are identical across
/// thread counts (the RNG draws stay in serial order inside the prover), and
/// the proof verifies under every pool setting.
#[test]
fn prove_verify_roundtrip_identical_across_thread_counts() {
    let g = small_model();
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let vals: Vec<f32> = (0..4).map(|i| (i as f32 - 2.0) / 3.0).collect();
    let inputs = vec![fp.quantize_tensor(&Tensor::new(vec![1, 4], vals))];
    let compiled = compile(&g, &inputs, cfg).expect("compile");

    let run = || {
        let mut rng = StdRng::seed_from_u64(99);
        let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
        let pk = compiled.keygen(&params).expect("keygen");
        let (proof, wc) = prove(&compiled, &params, &pk, &mut rng).expect("prove");
        verify(&params, &pk.vk, compiled.instance(), &proof, &wc).expect("verify");
        (pk.vk.digest.to_vec(), proof)
    };
    let (digest_1, proof_1) = zkml_par::with_pool(&zkml_par::Pool::new(1), run);
    let (digest_2, proof_2) = zkml_par::with_pool(&zkml_par::Pool::new(2), run);
    let (digest_d, proof_d) = run();
    assert_eq!(digest_1, digest_2, "vk digest differs at 2 threads");
    assert_eq!(digest_1, digest_d, "vk digest differs at default threads");
    assert_eq!(proof_1, proof_2, "proof bytes differ at 2 threads");
    assert_eq!(proof_1, proof_d, "proof bytes differ at default threads");
}
