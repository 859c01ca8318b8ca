//! The workloads and the seeded request streams that drive them.
//!
//! The server only ever sees the generated requests; everything random
//! about a run (per-job input seeds, which proof a verify job carries,
//! which jobs are tampered and where) is drawn here from the workload
//! seed, so one seed always yields one request sequence.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Duration;

/// Closed-loop clients per workload: one per core of the 2-core host the
/// benchmark was sized on.
pub const CLIENTS: usize = 2;

/// One in this many verify-mix jobs carries a tampered proof.
pub const TAMPER_ONE_IN: u32 = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Prove jobs on the published GPT-2 model.
    ProveGpt2,
    /// Prove jobs on the published DLRM model.
    ProveDlrm,
    /// Verify jobs over set-up proofs of MNIST and DLRM, a seeded one in
    /// eight of them tampered.
    VerifyMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ProveGpt2,
        Workload::ProveDlrm,
        Workload::VerifyMix,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProveGpt2 => "prove-gpt2",
            Workload::ProveDlrm => "prove-dlrm",
            Workload::VerifyMix => "verify-mix",
        }
    }

    /// Zoo models published through `POST /v1/models` during set-up.
    pub fn models(self) -> &'static [&'static str] {
        match self {
            Workload::ProveGpt2 => &["gpt2"],
            Workload::ProveDlrm => &["dlrm"],
            Workload::VerifyMix => &["mnist", "dlrm"],
        }
    }

    /// How often a client polls `GET /v1/jobs/{id}`: about 1% of a prove
    /// job's time; for verify jobs (~70 ms end to end) 10 ms, because
    /// polling faster loads the 2-core server enough that run-to-run
    /// scheduling noise, not the server, sets the result.
    pub fn poll_interval(self) -> Duration {
        match self {
            Workload::ProveGpt2 => Duration::from_millis(100),
            Workload::ProveDlrm => Duration::from_millis(40),
            Workload::VerifyMix => Duration::from_millis(10),
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::ProveGpt2 => 0x6770_7432,
            Workload::ProveDlrm => 0x646c_726d,
            Workload::VerifyMix => 0x7665_7269,
        }
    }
}

/// Where a tampered proof gets corrupted: the middle byte of one proof
/// section (as listed by `check::proof_sections`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tamper {
    /// Section index, reduced modulo the section count.
    pub section: u32,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Prove one inference of a published model on the inputs `seed`
    /// denotes.
    Prove {
        /// Zoo model name.
        model: &'static str,
        /// Input seed (below 2^53, so it survives any JSON reader).
        seed: u64,
    },
    /// Verify the set-up proof of `models()[proof]`, tampered or not.
    Verify {
        /// Index into the workload's models.
        proof: usize,
        /// `Some` when the proof must be rejected.
        tamper: Option<Tamper>,
    },
}

/// An endless, seeded request sequence.
pub struct RequestStream {
    workload: Workload,
    rng: StdRng,
    order: Vec<usize>,
    issued: usize,
}

impl RequestStream {
    /// The sequence for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ workload.salt());
        // Seeded round-robin order over the set-up proofs.
        let mut order: Vec<usize> = (0..workload.models().len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Self {
            workload,
            rng,
            order,
            issued: 0,
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let i = self.issued;
        self.issued += 1;
        Some(match self.workload {
            Workload::ProveGpt2 | Workload::ProveDlrm => Request::Prove {
                model: self.workload.models()[0],
                seed: job_seed(&mut self.rng),
            },
            Workload::VerifyMix => {
                let tamper = (self.rng.gen_range(0..TAMPER_ONE_IN) == 0).then(|| Tamper {
                    section: self.rng.next_u32(),
                });
                Request::Verify {
                    proof: self.order[i % self.order.len()],
                    tamper,
                }
            }
        })
    }
}

/// Input seeds of the verify-mix set-up proofs, one per model.
pub fn setup_proof_seeds(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7475_7021);
    Workload::VerifyMix
        .models()
        .iter()
        .map(|_| job_seed(&mut rng))
        .collect()
}

fn job_seed(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> 11
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(w: Workload, seed: u64, n: usize) -> Vec<Request> {
        RequestStream::new(w, seed).take(n).collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        for w in Workload::ALL {
            assert_eq!(first(w, 11, 64), first(w, 11, 64), "{}", w.name());
            assert_ne!(first(w, 11, 64), first(w, 12, 64), "{}", w.name());
        }
        assert_eq!(setup_proof_seeds(5), setup_proof_seeds(5));
        assert_ne!(setup_proof_seeds(5), setup_proof_seeds(6));
    }

    #[test]
    fn verify_mix_cycles_all_proofs_and_tampers_some() {
        let reqs = first(Workload::VerifyMix, 3, 400);
        let mut seen = [0usize; 2];
        let mut tampered = 0;
        for r in &reqs {
            let Request::Verify { proof, tamper } = r else {
                panic!("verify-mix issued {r:?}");
            };
            seen[*proof] += 1;
            tampered += usize::from(tamper.is_some());
        }
        assert_eq!(seen, [200, 200]);
        assert!((25..=75).contains(&tampered), "{tampered} of 400 tampered");
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
