//! Polynomial commitment schemes for the ZKML proving stack.
//!
//! Two backends, mirroring the paper's halo2 configuration:
//!
//! * [`KzgSrs`] — pairing-based, universal trusted setup, constant-size
//!   verification (one batched pairing check), smaller per-point openings.
//! * [`IpaParams`] — transparent (no trusted setup), logarithmic proofs per
//!   point but `O(n)` group operations to verify.
//!
//! Both are driven through the [`Params`] enum so the Plonkish layer and the
//! ZKML optimizer can switch backends with a configuration flag, exactly as
//! the paper's Tables 6 and 7 do.

pub mod ipa;
pub mod kzg;
pub mod serial;

pub use ipa::IpaParams;
pub use kzg::{batch_check, KzgAccumulator, KzgSrs};
pub use serial::{ReadError, Reader, Writer};

use rand::RngCore;
use zkml_curves::G1Affine;
use zkml_ff::Fr;
use zkml_poly::Coeffs;
use zkml_transcript::Transcript;

/// The commitment-scheme backend selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// KZG (pairing-based; trusted setup; O(1) verification).
    Kzg,
    /// Inner-product argument (transparent; O(n) verification).
    Ipa,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Kzg => write!(f, "KZG"),
            Backend::Ipa => write!(f, "IPA"),
        }
    }
}

/// Instantiated commitment parameters for one of the two backends.
#[derive(Clone)]
pub enum Params {
    /// KZG structured reference string.
    Kzg(KzgSrs),
    /// Transparent IPA basis.
    Ipa(IpaParams),
}

impl Params {
    /// Sets up parameters supporting polynomials of length up to `2^k`.
    pub fn setup(backend: Backend, k: u32, rng: &mut impl RngCore) -> Self {
        match backend {
            Backend::Kzg => Params::Kzg(KzgSrs::setup(k, rng)),
            Backend::Ipa => Params::Ipa(IpaParams::setup(k)),
        }
    }

    /// Which backend these parameters instantiate.
    pub fn backend(&self) -> Backend {
        match self {
            Params::Kzg(_) => Backend::Kzg,
            Params::Ipa(_) => Backend::Ipa,
        }
    }

    /// log2 of the maximum polynomial length.
    pub fn k(&self) -> u32 {
        match self {
            Params::Kzg(s) => s.k,
            Params::Ipa(p) => p.k,
        }
    }

    /// Commits to a polynomial in coefficient form.
    pub fn commit(&self, poly: &Coeffs<Fr>) -> G1Affine {
        match self {
            Params::Kzg(s) => s.commit(poly),
            Params::Ipa(p) => p.commit(poly),
        }
    }

    /// Opens a batch of `(polynomial, point)` queries.
    ///
    /// IPA folds over the full basis, so polynomials are padded to the
    /// parameter size internally by the IPA path.
    pub fn open(&self, transcript: &mut Transcript, queries: &[(&Coeffs<Fr>, Fr)]) -> Vec<u8> {
        match self {
            Params::Kzg(s) => s.open(transcript, queries),
            Params::Ipa(p) => p.open(transcript, queries),
        }
    }

    /// Verifies a batched opening against `(commitment, point, eval)`
    /// claims, deferring the expensive final check when the backend
    /// supports it.
    ///
    /// KZG runs everything up to (not including) the pairing check and
    /// returns [`Verification::Deferred`]; the caller settles one proof with
    /// [`Verification::settle`] or a whole batch with [`settle_all`]. IPA
    /// has no such accumulator and verifies completely.
    pub fn verify_deferred(
        &self,
        transcript: &mut Transcript,
        queries: &[(G1Affine, Fr, Fr)],
        proof: &[u8],
    ) -> Result<Verification, ReadError> {
        match self {
            Params::Kzg(s) => Ok(Verification::Deferred(
                s.prepare(transcript, queries, proof)?,
            )),
            Params::Ipa(p) => {
                p.verify(transcript, queries, proof)?;
                Ok(Verification::Complete)
            }
        }
    }
}

/// The outcome of [`Params::verify_deferred`]: either the opening is fully
/// verified, or its final pairing check is pending as a [`KzgAccumulator`].
#[derive(Clone, Debug)]
pub enum Verification {
    /// The opening verified completely (IPA path).
    Complete,
    /// All transcript and group work is done; the pairing check is pending.
    Deferred(KzgAccumulator),
}

impl Verification {
    /// Settles this verification against the params it came from.
    pub fn settle(&self, params: &Params) -> bool {
        match (self, params) {
            (Verification::Complete, _) => true,
            (Verification::Deferred(acc), Params::Kzg(s)) => acc.check(s),
            // A deferred KZG accumulator cannot be settled by IPA params.
            (Verification::Deferred(_), Params::Ipa(_)) => false,
        }
    }
}

/// Settles many verifications at once, each against the params it came
/// from.
///
/// Every deferred KZG accumulator whose SRS shares the first one's toxic
/// scalar (`tau_g2`) is folded into **one** multi-pairing through
/// [`batch_check`]; with the deterministic setup every `k` shares one tau,
/// so that is all of them. The rest — accumulators from a foreign setup, or
/// paired with IPA params — are settled one by one, and
/// [`Verification::Complete`] items pass as they are.
///
/// Returns the number of accumulators the multi-pairing settled, or the
/// (ascending) indices of the items that failed. Only a failed fold pays
/// for per-item pairings, to attribute the failure.
pub fn settle_all(items: &[(Verification, &Params)]) -> Result<usize, Vec<usize>> {
    let mut tau_srs: Option<&KzgSrs> = None;
    let mut folded = Vec::new();
    let mut accs: Vec<KzgAccumulator> = Vec::new();
    let mut failed = Vec::new();
    for (i, (v, params)) in items.iter().enumerate() {
        match (v, params) {
            (Verification::Complete, _) => {}
            (Verification::Deferred(acc), Params::Kzg(s))
                if tau_srs.is_none_or(|first| first.tau_g2 == s.tau_g2) =>
            {
                tau_srs.get_or_insert(s);
                folded.push(i);
                accs.push(acc.clone());
            }
            _ if v.settle(params) => {}
            _ => failed.push(i),
        }
    }
    if let Some(srs) = tau_srs {
        if !batch_check(srs, &accs) {
            failed.extend(
                folded
                    .iter()
                    .zip(&accs)
                    .filter(|(_, acc)| !acc.check(srs))
                    .map(|(i, _)| *i),
            );
            failed.sort_unstable();
        }
    }
    if failed.is_empty() {
        Ok(accs.len())
    } else {
        Err(failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_curves::G1Projective;
    use zkml_ff::Field;

    /// A valid single-point KZG opening, prepared but not settled.
    fn prepared_opening(srs: &KzgSrs, seed: u64) -> KzgAccumulator {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Coeffs::new((0..20).map(|_| Fr::random(&mut rng)).collect());
        let z = Fr::random(&mut rng);
        let v = p.evaluate(z);
        let c = srs.commit(&p);
        let proof = srs.open(&mut Transcript::new(b"test"), &[(&p, z)]);
        srs.prepare(&mut Transcript::new(b"test"), &[(c, z, v)], &proof)
            .unwrap()
    }

    #[test]
    fn settle_all_batches_valid_items_and_reports_only_the_forged_one() {
        let kzg = Params::Kzg(KzgSrs::setup(5, &mut StdRng::seed_from_u64(7)));
        let ipa = Params::Ipa(IpaParams::setup(5));
        let Params::Kzg(srs) = &kzg else {
            unreachable!()
        };
        let mut items: Vec<(Verification, &Params)> = (0..4)
            .map(|i| (Verification::Deferred(prepared_opening(srs, i)), &kzg))
            .collect();
        items.insert(2, (Verification::Complete, &ipa));
        assert_eq!(settle_all(&items), Ok(4), "every accumulator folds");
        assert_eq!(settle_all(&[(Verification::Complete, &ipa)]), Ok(0));
        assert_eq!(settle_all(&[]), Ok(0));

        // Offsetting `lhs` by the generator breaks exactly one pairing.
        let Verification::Deferred(acc) = &mut items[3].0 else {
            unreachable!()
        };
        acc.lhs += G1Projective::generator();
        assert_eq!(settle_all(&items), Err(vec![3]));
    }

    #[test]
    fn settle_all_settles_foreign_setups_one_by_one() {
        let kzg = Params::Kzg(KzgSrs::setup(5, &mut StdRng::seed_from_u64(7)));
        let other = Params::Kzg(KzgSrs::setup(5, &mut StdRng::seed_from_u64(8)));
        let ipa = Params::Ipa(IpaParams::setup(5));
        let (Params::Kzg(srs), Params::Kzg(other_srs)) = (&kzg, &other) else {
            unreachable!()
        };
        let items = [
            (Verification::Deferred(prepared_opening(srs, 1)), &kzg),
            (
                Verification::Deferred(prepared_opening(other_srs, 2)),
                &other,
            ),
            (Verification::Deferred(prepared_opening(srs, 3)), &kzg),
        ];
        assert_eq!(settle_all(&items), Ok(2), "the foreign tau is not folded");
        // A deferred accumulator cannot be settled by IPA params.
        let mismatched = [(Verification::Deferred(prepared_opening(srs, 4)), &ipa)];
        assert_eq!(settle_all(&mismatched), Err(vec![0]));
    }
}
