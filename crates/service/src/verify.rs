//! Batched verification: completed proofs are queued and verified in groups
//! sharing a verifying key, with all KZG pairing checks settled at once.
//!
//! Grouping by key digest means the per-key work — resolving the SRS,
//! holding the key's commitments hot in cache, walking the constraint
//! system — is paid once per batch instead of once per proof. Each proof
//! is replayed by [`zkml_plonk::verify_proof_committed`] (which checks
//! committed-weight circuits against their published [`WeightCommitment`])
//! with its KZG pairing deferred; [`zkml_pcs::settle_all`] then settles the
//! whole flush with one multi-pairing — across groups, since the
//! deterministic SRS shares one tau at every `k` — and settles proofs one
//! by one only when that batch fails, to attribute the failure. IPA has no
//! deferrable tail and verifies completely per proof.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use zkml_ff::Fr;
use zkml_pcs::{settle_all, Params, Verification};
use zkml_plonk::{verify_proof_committed, ProvingKey, WeightCommitment};

/// A proof waiting for verification.
pub struct PendingProof {
    /// The job that produced the proof.
    pub job_id: u64,
    /// Public values, one vector per instance column.
    pub instance: Vec<Vec<Fr>>,
    /// The proof bytes.
    pub proof: Vec<u8>,
    /// The published weight commitment the proof must verify against;
    /// `None` for circuits without committed columns.
    pub weights: Option<WeightCommitment>,
}

struct Group {
    params: Arc<Params>,
    pk: Arc<ProvingKey>,
    pending: Vec<PendingProof>,
}

/// The result of verifying one queued proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The job that produced the proof.
    pub job_id: u64,
    /// Whether the proof verified.
    pub ok: bool,
    /// The verification error, when `ok` is false.
    pub error: Option<String>,
}

/// Summary of one [`BatchVerifier::flush`] call.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Distinct verifying keys in the flushed batch.
    pub groups: usize,
    /// Proofs that verified.
    pub verified: usize,
    /// Proofs that failed.
    pub failed: usize,
    /// KZG accumulators settled by the single batched multi-pairing
    /// (0 when the flush was all-IPA or empty).
    pub kzg_batched: usize,
    /// Per-proof outcomes.
    pub outcomes: Vec<BatchOutcome>,
}

/// Accumulates proofs and verifies them grouped by verifying key.
#[derive(Default)]
pub struct BatchVerifier {
    groups: Mutex<HashMap<[u8; 64], Group>>,
}

impl BatchVerifier {
    /// Creates an empty verifier.
    pub fn new() -> Self {
        Self {
            groups: Mutex::new(HashMap::new()),
        }
    }

    /// Queues a proof under its key's digest.
    pub fn enqueue(&self, params: Arc<Params>, pk: Arc<ProvingKey>, proof: PendingProof) {
        let mut groups = self.groups.lock();
        groups
            .entry(pk.vk.digest)
            .or_insert_with(|| Group {
                params,
                pk,
                pending: Vec::new(),
            })
            .pending
            .push(proof);
    }

    /// Number of proofs currently queued.
    pub fn pending(&self) -> usize {
        self.groups.lock().values().map(|g| g.pending.len()).sum()
    }

    /// Verifies everything queued and empties the queue: transcript replay
    /// per proof (grouped by verifying key), then [`settle_all`] settles
    /// every deferred KZG check in one batched pairing, checking proofs one
    /// by one only to attribute a failed batch.
    pub fn flush(&self) -> BatchReport {
        let drained: Vec<Group> = {
            let mut groups = self.groups.lock();
            groups.drain().map(|(_, g)| g).collect()
        };
        let mut report = BatchReport {
            groups: drained.len(),
            ..BatchReport::default()
        };
        // (outcome index, verification, params). Outcomes of proofs whose
        // transcript replayed are recorded as verified; settlement
        // downgrades any whose pairing fails.
        let mut replayed: Vec<(usize, Verification, Arc<Params>)> = Vec::new();
        for group in drained {
            for p in group.pending {
                let result = verify_proof_committed(
                    &group.params,
                    &group.pk.vk,
                    &p.instance,
                    &p.proof,
                    &[],
                    p.weights.as_ref(),
                );
                report.outcomes.push(BatchOutcome {
                    job_id: p.job_id,
                    ok: result.is_ok(),
                    error: result.as_ref().err().map(ToString::to_string),
                });
                if let Ok(v) = result {
                    let index = report.outcomes.len() - 1;
                    replayed.push((index, v, Arc::clone(&group.params)));
                }
            }
        }

        let items: Vec<(Verification, &Params)> = replayed
            .iter()
            .map(|(_, v, params)| (v.clone(), params.as_ref()))
            .collect();
        match settle_all(&items) {
            Ok(batched) => report.kzg_batched = batched,
            Err(failed) => {
                for i in failed {
                    let o = &mut report.outcomes[replayed[i].0];
                    o.ok = false;
                    o.error = Some("KZG pairing check failed".to_string());
                }
            }
        }
        report.verified = report.outcomes.iter().filter(|o| o.ok).count();
        report.failed = report.outcomes.len() - report.verified;
        report
    }
}
