//! Bundle verification: boundary chaining, per-segment transcript-bound
//! verification, and one batched KZG settlement for the whole chain.

use crate::bundle::{segment_binding, SegmentedProof};
use crate::ShardError;
use std::sync::Arc;
use zkml_pcs::{settle_all, Backend, Params, Verification};
use zkml_plonk::{verify_proof_committed, VerifyingKey, WeightCommitment};

/// What a successful [`verify_bundle`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BundleReport {
    /// Segments in the bundle.
    pub segments: usize,
    /// KZG accumulators settled by the single batched multi-pairing
    /// (0 for IPA bundles, which verify completely per segment).
    pub kzg_batched: usize,
}

/// Verifies a segmented proof bundle end to end.
///
/// Checks, in order:
///
/// 1. **Shape** — at least one segment, the first with an empty boundary-in
///    prefix, every header `k` matching its verifying key.
/// 2. **Chaining** — segment `i`'s instance past its boundary-in prefix
///    equals segment `i+1`'s boundary-in prefix, value for value; together
///    with each segment's proof this pins the bundle's
///    [`public_outputs`](SegmentedProof::public_outputs) to the composed
///    model evaluated on the first segment's committed inputs.
/// 3. **Per-segment proofs** — verified in parallel with the transcript
///    bound to `(chain digest, position, segment count)` recomputed from
///    the bundle itself, so reordering, splicing, or tampering with any
///    segment's public data invalidates every proof's Fiat–Shamir
///    challenges.
/// 4. **Settlement** — KZG pairing checks are deferred and settled by
///    [`zkml_pcs::settle_all`] in **one** multi-pairing (all segments
///    share the deterministic SRS's tau, whatever their `k`); IPA segments
///    were already settled in step 3.
///
/// `params_for` supplies the commitment params per `(backend, k)` —
/// typically an artifact cache or a [`crate::FreshKeySource`] closure.
pub fn verify_bundle<F>(bundle: &SegmentedProof, params_for: F) -> Result<BundleReport, ShardError>
where
    F: Fn(Backend, u32) -> Arc<Params> + Sync,
{
    let n = bundle.segments.len();
    if n == 0 {
        return Err(ShardError::Malformed("bundle has no segments".into()));
    }
    if bundle.segments[0].boundary_in_len != 0 {
        return Err(ShardError::Verify(
            "first segment claims boundary inputs".into(),
        ));
    }

    let mut vks = Vec::with_capacity(n);
    let mut wcs: Vec<Option<WeightCommitment>> = Vec::with_capacity(n);
    for (i, s) in bundle.segments.iter().enumerate() {
        if (s.boundary_in_len as usize) > s.instance.len() {
            return Err(ShardError::Malformed(format!(
                "segment {i}: boundary prefix longer than instance column"
            )));
        }
        let vk = VerifyingKey::from_bytes(&s.vk_bytes)
            .map_err(|e| ShardError::Malformed(format!("segment {i}: bad verifying key: {e}")))?;
        if vk.k != s.k {
            return Err(ShardError::Malformed(format!(
                "segment {i}: header k = {} but verifying key k = {}",
                s.k, vk.k
            )));
        }
        // A weight-bearing segment must carry its weight commitment, and a
        // weight-free one must not: both directions are bundle-shape
        // errors, caught before any proof math runs.
        let wc = if vk.cs.num_committed > 0 {
            if s.weight_commitment.is_empty() {
                return Err(ShardError::Malformed(format!(
                    "segment {i}: circuit has committed weight columns but \
                     the bundle carries no weight commitment"
                )));
            }
            Some(
                WeightCommitment::from_bytes(&s.weight_commitment).map_err(|e| {
                    ShardError::Malformed(format!("segment {i}: bad weight commitment: {e}"))
                })?,
            )
        } else {
            if !s.weight_commitment.is_empty() {
                return Err(ShardError::Malformed(format!(
                    "segment {i}: weight commitment present for a circuit \
                     without committed columns"
                )));
            }
            None
        };
        wcs.push(wc);
        vks.push(vk);
    }

    for i in 0..n - 1 {
        let out = &bundle.segments[i].instance[bundle.segments[i].boundary_in_len as usize..];
        let next = &bundle.segments[i + 1];
        let inn = &next.instance[..next.boundary_in_len as usize];
        if out != inn {
            return Err(ShardError::Verify(format!(
                "boundary mismatch between segments {i} and {}",
                i + 1
            )));
        }
    }

    let chain = bundle.chain_digest();
    let results: Vec<Result<(Verification, Arc<Params>), ShardError>> = zkml_par::par_map(n, |i| {
        let s = &bundle.segments[i];
        let params = params_for(bundle.backend, s.k);
        let instance = [s.instance.clone()];
        let binding = segment_binding(&chain, i, n);
        let v = verify_proof_committed(
            &params,
            &vks[i],
            &instance,
            &s.proof,
            &binding,
            wcs[i].as_ref(),
        )
        .map_err(|e| ShardError::Verify(format!("segment {i}: {e}")))?;
        Ok((v, params))
    });

    let (verifications, params): (Vec<Verification>, Vec<Arc<Params>>) = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let items: Vec<(Verification, &Params)> = verifications
        .into_iter()
        .zip(params.iter().map(Arc::as_ref))
        .collect();
    let kzg_batched = settle_all(&items).map_err(|failed| {
        ShardError::Verify(format!("KZG settlement failed for segments {failed:?}"))
    })?;

    Ok(BundleReport {
        segments: n,
        kzg_batched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prove::{compile_segments, prove_compiled, FreshKeySource, KeySource, SegmentSpec};
    use zkml::{
        eval_schedule, Gadget, HardwareStats, NumericConfig, OpSchedule, OptimizerOptions,
        ScheduleBuilder,
    };
    use zkml_ff::{Fr, PrimeField};

    /// relu -> dot -> add, enough structure to cut in two.
    fn toy_schedule() -> OpSchedule {
        let mut sb = ScheduleBuilder::new(NumericConfig::default_nano());
        let xs = sb.load_values(&[3, -2, 5, 1, -4, 7, 2, -1]);
        let ws = sb.load_values(&[2; 8]);
        let r = sb.relu(&xs);
        let pairs: Vec<_> = r.iter().zip(&ws).map(|(a, b)| (*a, *b)).collect();
        let m = sb.arith_pack(Gadget::MulPack, &pairs);
        let d = sb.dot(&r, &ws, None);
        let s = sb.sum(&[m[0], m[1], d]);
        sb.finish(vec![(vec![1], vec![s])])
    }

    fn setup() -> (OptimizerOptions, &'static HardwareStats) {
        let opts = OptimizerOptions::new(zkml_pcs::Backend::Kzg, 12);
        let hw = Box::leak(Box::new(HardwareStats::fixture()));
        (opts, hw)
    }

    #[test]
    fn segmented_roundtrip_batches_and_matches_monolithic() {
        let sched = toy_schedule();
        let (opts, hw) = setup();
        let keys = FreshKeySource::default();
        let model_hash = [0xA5u8; 32];

        let segs = compile_segments(&sched, SegmentSpec::Fixed(2), &opts, hw).unwrap();
        assert_eq!(segs.len(), 2, "toy schedule should cut in two");
        let bundle = prove_compiled(model_hash, &segs, &keys, &opts, 42).unwrap();

        let report = verify_bundle(&bundle, |b, k| keys.params(b, k)).unwrap();
        assert_eq!(report.segments, 2);
        assert_eq!(report.kzg_batched, 2, "KZG must settle via the batch");

        // Public outputs match the monolithic evaluation.
        let vals = eval_schedule(&sched);
        let expected = Fr::from_i64(*vals.last().unwrap());
        assert_eq!(bundle.public_outputs(), &[expected]);

        // And the serialized form round-trips to a verifying bundle.
        let back = SegmentedProof::from_bytes(&bundle.to_bytes()).unwrap();
        verify_bundle(&back, |b, k| keys.params(b, k)).unwrap();
    }

    #[test]
    fn tampered_boundary_and_order_rejected() {
        let sched = toy_schedule();
        let (opts, hw) = setup();
        let keys = FreshKeySource::default();
        let segs = compile_segments(&sched, SegmentSpec::Fixed(2), &opts, hw).unwrap();
        let bundle = prove_compiled([1u8; 32], &segs, &keys, &opts, 7).unwrap();
        let ok = |b: &SegmentedProof| verify_bundle(b, |be, k| keys.params(be, k)).is_ok();
        assert!(ok(&bundle));

        // Tampering with a boundary instance value breaks the chain (and
        // the binding).
        let mut t = bundle.clone();
        let cut = t.segments[0].boundary_in_len as usize;
        t.segments[0].instance[cut] += Fr::from_u64(1);
        assert!(!ok(&t));

        // Swapping segment order must fail even though each proof is
        // individually valid somewhere.
        let mut sw = bundle.clone();
        sw.segments.swap(0, 1);
        assert!(!ok(&sw));

        // Proof bytes are covered by verification itself.
        let mut p = bundle.clone();
        let mid = p.segments[1].proof.len() / 2;
        p.segments[1].proof[mid] ^= 1;
        assert!(!ok(&p));
    }

    /// Like `toy_schedule` but with the multiplier vector loaded as
    /// committed weights, so segments carry weight commitments.
    fn weighted_schedule(w: i64) -> OpSchedule {
        let mut sb = ScheduleBuilder::new(NumericConfig::default_nano());
        let xs = sb.load_values(&[3, -2, 5, 1, -4, 7, 2, -1]);
        let ws = sb.load_weights(&[w; 8]);
        let r = sb.relu(&xs);
        let pairs: Vec<_> = r.iter().zip(&ws).map(|(a, b)| (*a, *b)).collect();
        let m = sb.arith_pack(Gadget::MulPack, &pairs);
        let d = sb.dot(&r, &ws, None);
        let s = sb.sum(&[m[0], m[1], d]);
        sb.finish(vec![(vec![1], vec![s])])
    }

    #[test]
    fn weighted_segments_verify_and_reject_foreign_weight_commitments() {
        let (opts, hw) = setup();
        let keys = FreshKeySource::default();
        let ok = |b: &SegmentedProof| verify_bundle(b, |be, k| keys.params(be, k)).is_ok();

        // Two bundles over the identical architecture, different weights.
        let seg_a = compile_segments(&weighted_schedule(2), SegmentSpec::Fixed(2), &opts, hw)
            .expect("compile a");
        let bundle_a = prove_compiled([0xAAu8; 32], &seg_a, &keys, &opts, 3).expect("prove a");
        let seg_b = compile_segments(&weighted_schedule(3), SegmentSpec::Fixed(2), &opts, hw)
            .expect("compile b");
        let bundle_b = prove_compiled([0xAAu8; 32], &seg_b, &keys, &opts, 3).expect("prove b");
        assert!(ok(&bundle_a));
        assert!(ok(&bundle_b));
        let weighted = bundle_a
            .segments
            .iter()
            .filter(|s| !s.weight_commitment.is_empty())
            .count();
        assert!(weighted > 0, "weighted schedule must commit weights");

        // Splice a foreign segment's weight commitment: the chain digest
        // shifts, every proof's binding diverges, the bundle dies.
        let idx = bundle_a
            .segments
            .iter()
            .position(|s| !s.weight_commitment.is_empty())
            .unwrap();
        let mut spliced = bundle_a.clone();
        spliced.segments[idx].weight_commitment = bundle_b.segments[idx].weight_commitment.clone();
        assert!(
            !ok(&spliced),
            "foreign weight commitment must not verify in this chain"
        );

        // Dropping the commitment outright is a shape error.
        let mut stripped = bundle_a.clone();
        stripped.segments[idx].weight_commitment.clear();
        assert!(!ok(&stripped));
    }
}
