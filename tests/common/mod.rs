//! Commit → prove → verify shorthands for the integration tests.

use rand::RngCore;
use zkml::{CompiledCircuit, ZkmlError};
use zkml_ff::Fr;
use zkml_pcs::Params;
use zkml_plonk::{verify_proof_committed, PlonkError, ProvingKey, VerifyingKey, WeightCommitment};

/// Commits the circuit's weights (an empty commitment when it has none)
/// and proves under them; returns the proof and the commitment it
/// verifies against.
pub fn prove(
    compiled: &CompiledCircuit,
    params: &Params,
    pk: &ProvingKey,
    rng: &mut impl RngCore,
) -> Result<(Vec<u8>, WeightCommitment), ZkmlError> {
    let (wc, weights) = compiled.commit_weights(params)?;
    let proof = compiled.prove_with_weights(params, pk, rng, &[], &weights)?;
    Ok((proof, wc))
}

/// Verifies `proof` against the public values and the weight commitment,
/// then settles the deferred pairing: `Ok` only when accepted in full.
pub fn verify(
    params: &Params,
    vk: &VerifyingKey,
    instance: &[Vec<Fr>],
    proof: &[u8],
    wc: &WeightCommitment,
) -> Result<(), PlonkError> {
    if verify_proof_committed(params, vk, instance, proof, &[], Some(wc))?.settle(params) {
        Ok(())
    } else {
        Err(PlonkError::Verify("pairing check failed".into()))
    }
}
