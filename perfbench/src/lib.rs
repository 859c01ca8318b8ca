//! End-to-end benchmark of the ZKML proving gateway.
//!
//! Each run starts the real `zkml_net::Gateway` in process, configured as
//! `zkml serve` runs it (journal on, admission that never refuses),
//! publishes the workload's models through `POST /v1/models`, and drives a
//! closed loop of two HTTP clients: submit a job, poll it at a fixed
//! interval until it is terminal, submit the next. Every returned proof is
//! re-verified and its public values recomputed outside the timed window.
//! A traced run adds a second window with spans around the benchmark's own
//! calls and replays a sampled job through each layer's public functions.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload prove-dlrm --seed 1 --seconds 10 --trace 0
//! ```

pub mod check;
pub mod harness;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
