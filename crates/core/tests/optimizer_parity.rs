//! Determinism and single-lowering guarantees of the plan-driven optimizer:
//! the parallel layout sweep picks bit-identical winners at any thread
//! count, `lower_graph` runs exactly once per `optimize()`, and the winning
//! plan synthesizes into a circuit that satisfies the constraint checker
//! and a real KZG prove/verify round-trip.

mod common;

use common::{prove, verify};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use zkml::cost::HardwareStats;
use zkml::{optimizer, schedules_built, OptimizerOptions};
use zkml_par::{with_pool, Pool};
use zkml_pcs::{Backend, Params};

/// The global schedule counter is process-wide, so every test that reads it
/// (or that compares sweep outputs across pool sizes) runs under this lock
/// to keep the counter arithmetic and thread-pool overrides race-free.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_zoo() -> Vec<zkml_model::Graph> {
    vec![
        zkml_model::zoo::mnist_cnn(),
        zkml_model::zoo::dlrm(),
        zkml_model::zoo::twitter_masknet(),
    ]
}

fn opts() -> OptimizerOptions {
    OptimizerOptions::new(Backend::Kzg, 15)
}

#[test]
fn lower_graph_runs_exactly_once_per_optimize() {
    let _guard = lock();
    let hw = HardwareStats::fixture();
    for g in small_zoo() {
        let inputs = optimizer::zero_inputs(&g);
        let before = schedules_built();
        let report = optimizer::optimize(&g, &inputs, &opts(), &hw).expect("optimize");
        assert_eq!(
            schedules_built(),
            before + 1,
            "{}: optimize() must lower the graph exactly once, \
             regardless of how many candidates it sweeps",
            g.name
        );
        assert!(report.evaluated > 1, "sweep should cover many candidates");
        // Synthesizing the winner replays the stored schedule — no second
        // lowering.
        let before = schedules_built();
        let compiled = report.synthesize_best().expect("synthesize");
        assert_eq!(
            schedules_built(),
            before,
            "{}: synthesize_best() must reuse the schedule, not re-lower",
            g.name
        );
        assert_eq!(compiled.k, report.best_k);
    }
}

#[test]
fn parallel_sweep_matches_serial_exhaustive_sweep() {
    let _guard = lock();
    let hw = HardwareStats::fixture();
    for g in small_zoo() {
        let inputs = optimizer::zero_inputs(&g);
        // Ground truth: serial, exhaustive (no pruning) sweep.
        let mut exhaustive = opts();
        exhaustive.prune = false;
        let serial = with_pool(&Pool::new(1), || {
            optimizer::optimize(&g, &inputs, &exhaustive, &hw)
        })
        .expect("serial exhaustive optimize");
        // The pruned sweep at 1, 2 and the default thread count must pick
        // the same winner — same config, same k, same plan bytes.
        for threads in [Some(1usize), Some(2), None] {
            let run = || optimizer::optimize(&g, &inputs, &opts(), &hw);
            let report = match threads {
                Some(n) => with_pool(&Pool::new(n), run),
                None => run(),
            }
            .expect("optimize");
            let label = threads.map_or("default".into(), |n| n.to_string());
            assert_eq!(
                report.best, serial.best,
                "{} @ {label} threads: winner config diverged",
                g.name
            );
            assert_eq!(report.best_k, serial.best_k, "{} @ {label}", g.name);
            assert_eq!(
                report.best_plan.digest(),
                serial.best_plan.digest(),
                "{} @ {label} threads: winning plan bytes diverged",
                g.name
            );
            assert!(report.evaluated <= serial.evaluated);
        }
    }
}

#[test]
fn winning_plan_synthesizes_and_proves() {
    let _guard = lock();
    let hw = HardwareStats::fixture();
    let g = zkml_model::zoo::mnist_cnn();
    let inputs = optimizer::zero_inputs(&g);
    let report = optimizer::optimize(&g, &inputs, &opts(), &hw).expect("optimize");
    let compiled = report.synthesize_best().expect("synthesize");
    assert_eq!(compiled.circuit_digest(), report.best_plan.digest());
    // Row-exact constraint check.
    let mock = compiled.mock().expect("mock synthesis");
    mock.verify().expect("mock constraints violated");
    // Real KZG round-trip on the planned circuit.
    let mut rng = StdRng::seed_from_u64(17);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).expect("keygen");
    let (proof, wc) = prove(&compiled, &params, &pk, &mut rng).expect("prove");
    verify(&params, &pk.vk, compiled.instance(), &proof, &wc).expect("verify");
}
