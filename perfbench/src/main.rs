//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints a metric table, then one JSON result line.
//! Exits 1 when a correctness check failed, 2 when the run could not
//! complete.

use std::path::{Path, PathBuf};
use std::time::Instant;
use zkml_perfbench::report::{result_line, table};
use zkml_perfbench::run::{pin_cost_table, run, Options};
use zkml_perfbench::workload::Workload;

/// Printed in the table but not a result metric: it is 0 on correct code,
/// and the result line's `attempted`/`failed` already carry it.
const TABLE_ONLY: &str = "failed_frac";

fn parse_args(process_start: Instant) -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = Workload::parse(value("--workload")?)
        .ok_or_else(|| format!("--workload must be one of {names:?}"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds must be a non-negative number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let out_dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    }
    .join("perfbench");
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        process_start,
        out_dir,
    })
}

fn main() {
    let process_start = Instant::now();
    let code = match bench(process_start) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn bench(process_start: Instant) -> Result<i32, String> {
    let opts = parse_args(process_start)?;
    pin_cost_table()?;

    let out = run(&opts)?;
    let title = format!("{} seed {}", opts.workload.name(), opts.seed);
    print!(
        "{}",
        table(&format!("end to end, {title}"), &out.end_to_end)
    );
    if opts.trace {
        print!("{}", table(&format!("per layer, {title}"), &out.per_layer));
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let metrics: Vec<_> = if opts.trace {
        out.per_layer
    } else {
        out.end_to_end
            .into_iter()
            .filter(|m| m.name != TABLE_ONLY)
            .collect()
    };
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    Ok(if correct { 0 } else { 1 })
}
