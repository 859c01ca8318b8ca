//! A minimal-length run of every workload (one job per client) must pass
//! every benchmark-side check and report every metric `BENCHMARK.json`
//! names. One test runs them in turn: the keygen and weight-encoding
//! counters the checks read are process-global.

use std::path::Path;
use std::time::Instant;
use zkml_net::Json;
use zkml_perfbench::run::{pin_cost_table, run, Options};
use zkml_perfbench::workload::Workload;

fn listed(doc: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_at_minimal_length() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    let workloads = listed(&doc, "workloads");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    pin_cost_table().expect("cost table");
    let out_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| manifest.join("target"), Into::into)
        .join("perfbench-smoke");
    for w in Workload::ALL {
        // GPT-2 proves slowly; its traced path is the one prove-dlrm takes.
        let trace = w != Workload::ProveGpt2;
        let opts = Options {
            workload: w,
            seed: 7,
            seconds: 0.0,
            trace,
            process_start: Instant::now(),
            out_dir: out_dir.clone(),
        };
        let out = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
        assert!(out.attempted >= 2, "{}: one job per client", w.name());
        for name in &end_to_end {
            let m = out.end_to_end.iter().find(|m| &m.name == name);
            let m = m.unwrap_or_else(|| panic!("{}: no {name}", w.name()));
            assert!(m.value > 0.0, "{}: {name} = {}", w.name(), m.value);
        }
        if trace {
            let got: Vec<&str> = out.per_layer.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(got, per_layer, "{}", w.name());
            assert!(out.per_layer.iter().all(|m| m.value.is_finite()));
        }
    }
}
