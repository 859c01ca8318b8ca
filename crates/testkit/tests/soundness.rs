//! The gadget soundness suite: conformance (every zoo gadget satisfies the
//! mock checker at every size) and adversarial mutation (no single-cell
//! perturbation of a satisfied witness goes unnoticed — except in the
//! committed underconstrained toy fixture, which must be flagged).
//!
//! Run directly with `cargo test -p zkml-testkit --test soundness`, or via
//! the `soundness` step of `scripts/check.sh`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml_pcs::{Backend, Params};
use zkml_plonk::verify_proof_committed;
use zkml_testkit::{
    compile_case, cross_check_real_verifier, mutate_compiled, run_conformance, toy_case, zoo,
};

const SIZES: [usize; 3] = [8, 12, 16];

#[test]
fn conformance_every_gadget_every_size() {
    let reports = run_conformance(&SIZES);
    // 15 cases x 3 sizes, minus the sizes below a case's column minimum.
    assert!(
        reports.len() >= 40,
        "expected a full sweep, got {} reports",
        reports.len()
    );
    let bad: Vec<String> = reports
        .iter()
        .filter(|r| !r.failures.is_empty())
        .map(|r| {
            format!(
                "{} @ {} cols (k={}): {}",
                r.name,
                r.num_cols,
                r.k,
                r.failures.join("; ")
            )
        })
        .collect();
    assert!(bad.is_empty(), "conformance failures:\n{}", bad.join("\n"));
}

#[test]
fn conformance_covers_every_gadget_kind() {
    // Union of gate names across the zoo must include every gadget family.
    let mut gates = std::collections::BTreeSet::new();
    for case in zoo() {
        let compiled = compile_case(&case, case.min_cols.max(8)).unwrap();
        for g in &compiled.cs.gates {
            gates.insert(g.name.clone());
        }
    }
    for expected in [
        "dot_bias(p1=false)",
        "dot_bias(p1=true)",
        "dot_plain",
        "sum",
        "AddPack",
        "SubPack",
        "MulPack",
        "SqDiffPack",
        "square",
        "div_round",
        "max",
        "var_div",
        "relu_bits",
        "challenge_powers",
    ] {
        assert!(
            gates.contains(expected),
            "gadget gate '{expected}' not exercised by the zoo; have {gates:?}"
        );
    }
}

#[test]
fn zoo_mutations_leave_no_survivors() {
    let mut total_cells = 0;
    let mut total_flips = 0;
    for case in zoo() {
        let cols = case.min_cols.max(8);
        let compiled = compile_case(&case, cols).unwrap();
        let report = mutate_compiled(case.name, cols, &compiled).unwrap();
        assert!(report.cells_mutated > 0, "{}: nothing mutated", case.name);
        assert!(
            report.survivors.is_empty(),
            "underconstrained cells in {}:\n{}",
            case.name,
            report.survivors.join("\n")
        );
        total_cells += report.cells_mutated;
        total_flips += report.lookup_flips;
    }
    // The sweep must be substantial: hundreds of cells and at least the
    // lookup-bearing gadgets' tables flipped.
    assert!(total_cells > 300, "only {total_cells} cells mutated");
    assert!(
        total_flips >= 4,
        "only {total_flips} lookup entries flipped"
    );
}

#[test]
fn toy_underconstrained_fixture_is_flagged() {
    let case = toy_case();
    let compiled = compile_case(&case, 8).unwrap();
    // The unmutated toy witness satisfies every (existing) constraint —
    // the bug is precisely that a constraint is missing...
    compiled.mock().unwrap().assert_satisfied();
    // ...so the harness must find surviving mutations on the two input
    // cells nothing pins down.
    let report = mutate_compiled(case.name, 8, &compiled).unwrap();
    assert!(
        !report.survivors.is_empty(),
        "the underconstrained toy gadget was not flagged"
    );
    assert_eq!(
        report.survivors.len(),
        2,
        "expected exactly the two free input cells to survive: {:?}",
        report.survivors
    );
}

#[test]
fn real_verifier_rejects_mutated_witnesses() {
    // A cheap, challenge-free case: packed addition at 8 columns (k stays
    // tiny, so proving a handful of mutants is affordable).
    let case = zoo()
        .into_iter()
        .find(|c| c.name == "add_pack")
        .expect("add_pack case exists");
    assert!(!case.uses_challenges);
    let compiled = compile_case(&case, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(999);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);

    // Sanity: the honest witness proves and verifies.
    let pk = compiled.keygen(&params).unwrap();
    let (wc, weights) = compiled.commit_weights(&params).unwrap();
    let proof = compiled
        .prove_with_weights(&params, &pk, &mut rng, &[], &weights)
        .unwrap();
    let verified =
        verify_proof_committed(&params, &pk.vk, compiled.instance(), &proof, &[], Some(&wc))
            .unwrap();
    assert!(verified.settle(&params));

    // Every mutated grid must be rejected end-to-end. Sample a spread of
    // assigned cells to keep the test fast.
    let cells = compiled.assigned_cells();
    let sample: Vec<_> = cells.iter().copied().step_by(cells.len() / 4).collect();
    cross_check_real_verifier(&compiled, &sample, &params, 7).unwrap();
}
