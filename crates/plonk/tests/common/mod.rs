//! Prove/verify shorthands for the integration tests, whose circuits have
//! no committed (weight) columns.

use rand::RngCore;
use zkml_ff::Fr;
use zkml_pcs::Params;
use zkml_plonk::{
    create_proof_committed, verify_proof_committed, CommittedWeights, PlonkError, ProvingKey,
    VerifyingKey, WitnessSource,
};

/// Proves with no binding and no committed weights.
pub fn prove_unweighted(
    params: &Params,
    pk: &ProvingKey,
    witness: &dyn WitnessSource,
    rng: &mut impl RngCore,
) -> Result<Vec<u8>, PlonkError> {
    create_proof_committed(params, pk, witness, rng, &[], &CommittedWeights::empty())
}

/// Verifies with no binding and settles the deferred pairing: `Ok` only
/// when the proof is accepted in full.
pub fn verify_settled(
    params: &Params,
    vk: &VerifyingKey,
    instance: &[Vec<Fr>],
    proof: &[u8],
) -> Result<(), PlonkError> {
    if verify_proof_committed(params, vk, instance, proof, &[], None)?.settle(params) {
        Ok(())
    } else {
        Err(PlonkError::Verify("pairing check failed".into()))
    }
}
