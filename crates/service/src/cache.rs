//! The artifact cache: per-architecture layout plans, per-model
//! proving/verifying keys and per-size SRS, shared across workers behind
//! `parking_lot::RwLock`s, with optional disk spill of proving keys so a
//! restarted service skips key generation entirely.
//!
//! Layout plans are memoized per `(architecture hash, backend)`. The
//! optimizer's winner is a pure function of the architecture, the backend,
//! `max_k` and the hardware cost table. Within one service `max_k` is fixed
//! by the config and the cost table is a process-wide `OnceLock`, and the
//! sweep itself is deterministic, so the layout search is paid once per
//! architecture and backend per service process. Later jobs only lower the
//! graph and synthesize the memoized plan, which re-checks `k`, statistics
//! and the constraint system against it. Plans live in memory only.
//!
//! Keys are cached under `(architecture hash, backend, circuit digest)` —
//! the exact inputs key generation depends on. With weights living in
//! committed columns, keygen never reads a weight value, so the namespace
//! is `Graph::arch_hash()` (structure only): every weight set of one
//! architecture shares a single cached proving key. The circuit digest
//! ([`zkml::LayoutPlan::digest`]) covers the optimizer's full layout
//! choice and the serialized constraint system; the optimizer picks
//! layouts from a cost table calibrated on the host, so two processes can
//! compile the same model to different circuits with the same `k`, and a
//! key cached for one must never be applied to the other. As a second
//! line of defense against stale or foreign spill files, cached keys are
//! validated against the freshly compiled circuit before use. The SRS is a
//! public artifact this reproduction regenerates from a fixed seed (see
//! DESIGN.md on the trusted-setup substitution), so it is memoized per
//! `(backend, k)` rather than persisted.

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zkml::{CompiledCircuit, LayoutPlan};
use zkml_pcs::{Backend, Params, Writer};
use zkml_plonk::{serialize::write_cs, ProvingKey};

/// Seed for the deterministic SRS regeneration (shared with the CLI's
/// standalone prove/verify flows; see DESIGN.md).
pub const SRS_SEED: u64 = 0x5151;

/// Identity of a cached proving key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// `Graph::arch_hash()` of the model — the structure-only hash, so
    /// models differing only in trained weights share this namespace (and
    /// hence, when they compile to the same circuit, the proving key).
    pub arch_hash: [u8; 32],
    /// Commitment backend the key was generated for.
    pub backend: Backend,
    /// log2 of the circuit's row count.
    pub k: u32,
    /// `LayoutPlan::digest()` — pins the layout choice and constraint
    /// system the key was generated for, which `k` alone does not (the
    /// optimizer's choice depends on the host's cost table).
    pub circuit: [u8; 32],
}

/// Lowercase hex of a byte string (spill-file names, error messages).
pub(crate) fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

impl ArtifactKey {
    /// The key identifying the circuit a [`zkml::LayoutPlan`] describes,
    /// before any witness is synthesized. [`zkml::LayoutPlan::digest`] is
    /// byte-identical to the synthesized circuit's
    /// [`CompiledCircuit::circuit_digest`], so key lookups (and keygen) can
    /// start as soon as a plan is known.
    pub fn for_plan(arch_hash: [u8; 32], backend: Backend, plan: &LayoutPlan) -> Self {
        Self {
            arch_hash,
            backend,
            k: plan.k,
            circuit: plan.digest(),
        }
    }

    /// A filesystem-safe stem naming this key's spill file.
    pub fn file_stem(&self) -> String {
        let backend = match self.backend {
            Backend::Kzg => "kzg",
            Backend::Ipa => "ipa",
        };
        format!(
            "{}-{backend}-k{}-{}",
            hex(&self.arch_hash),
            self.k,
            hex(&self.circuit)
        )
    }
}

/// Whether a (possibly disk-loaded) proving key actually belongs to the
/// freshly compiled circuit: same row count and identical serialized
/// constraint system. Guards against stale spill files or cache
/// directories shared across incompatible builds.
pub fn pk_matches_circuit(pk: &ProvingKey, compiled: &CompiledCircuit) -> bool {
    if pk.vk.k != compiled.k {
        return false;
    }
    let mut a = Writer::new();
    write_cs(&mut a, &pk.vk.cs);
    let mut b = Writer::new();
    write_cs(&mut b, &compiled.cs);
    a.finish() == b.finish()
}

/// How a cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Found in memory.
    MemoryHit,
    /// Loaded from the disk spill directory (keygen still skipped).
    DiskHit,
    /// Not cached anywhere; the key was generated.
    Miss,
}

impl CacheOutcome {
    /// Whether key generation was skipped.
    pub fn is_hit(&self) -> bool {
        !matches!(self, CacheOutcome::Miss)
    }
}

/// Identity of a memoized layout plan: `Graph::arch_hash()` and backend.
type PlanKey = ([u8; 32], Backend);

/// Shared cache of layout plans, proving keys and SRS instances.
pub struct ArtifactCache {
    plans: RwLock<HashMap<PlanKey, Arc<LayoutPlan>>>,
    keys: RwLock<HashMap<ArtifactKey, Arc<ProvingKey>>>,
    params: RwLock<HashMap<(Backend, u32), Arc<Params>>>,
    disk_dir: Option<PathBuf>,
}

impl ArtifactCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        Self {
            plans: RwLock::new(HashMap::new()),
            keys: RwLock::new(HashMap::new()),
            params: RwLock::new(HashMap::new()),
            disk_dir: None,
        }
    }

    /// A cache that additionally spills proving keys to `dir`, so a future
    /// service instance pointed at the same directory starts warm.
    pub fn with_disk(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            plans: RwLock::new(HashMap::new()),
            keys: RwLock::new(HashMap::new()),
            params: RwLock::new(HashMap::new()),
            disk_dir: Some(dir.to_path_buf()),
        })
    }

    /// The spill directory, if configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// The memoized layout plan for an architecture and backend, if a
    /// layout search already ran for it in this process.
    pub fn plan(&self, arch_hash: [u8; 32], backend: Backend) -> Option<Arc<LayoutPlan>> {
        self.plans.read().get(&(arch_hash, backend)).cloned()
    }

    /// Memoizes the winning plan of a layout search. If two workers raced
    /// through the same search the first insert wins; both plans are
    /// identical because the search is deterministic within a process.
    pub fn insert_plan(
        &self,
        arch_hash: [u8; 32],
        backend: Backend,
        plan: LayoutPlan,
    ) -> Arc<LayoutPlan> {
        let mut map = self.plans.write();
        Arc::clone(
            map.entry((arch_hash, backend))
                .or_insert_with(|| Arc::new(plan)),
        )
    }

    /// Returns the SRS for `(backend, k)`, generating it on first use.
    ///
    /// Generation happens outside the lock so concurrent workers are never
    /// serialized behind a multi-second setup; if two race, one result wins
    /// and the other is dropped (both are identical — the seed is fixed).
    pub fn params(&self, backend: Backend, k: u32) -> Arc<Params> {
        if let Some(p) = self.params.read().get(&(backend, k)) {
            return Arc::clone(p);
        }
        let mut rng = StdRng::seed_from_u64(SRS_SEED);
        let fresh = Arc::new(Params::setup(backend, k, &mut rng));
        let mut map = self.params.write();
        Arc::clone(map.entry((backend, k)).or_insert(fresh))
    }

    /// Looks up a proving key, falling back to the disk spill; `None` means
    /// the caller must generate it (and should then call [`Self::insert`]).
    pub fn get(&self, key: &ArtifactKey) -> Option<(Arc<ProvingKey>, CacheOutcome)> {
        if let Some(pk) = self.keys.read().get(key) {
            return Some((Arc::clone(pk), CacheOutcome::MemoryHit));
        }
        let dir = self.disk_dir.as_ref()?;
        let path = dir.join(format!("{}.pk", key.file_stem()));
        let bytes = std::fs::read(&path).ok()?;
        let pk = ProvingKey::from_bytes(&bytes).ok()?;
        let pk = Arc::new(pk);
        self.keys
            .write()
            .entry(*key)
            .or_insert_with(|| Arc::clone(&pk));
        Some((pk, CacheOutcome::DiskHit))
    }

    /// Inserts a freshly generated key, spilling it to disk when configured.
    /// Returns the cached handle (the existing one if another worker won the
    /// race, so all holders share one allocation).
    pub fn insert(&self, key: ArtifactKey, pk: ProvingKey) -> Arc<ProvingKey> {
        let pk = Arc::new(pk);
        let cached = {
            let mut map = self.keys.write();
            Arc::clone(map.entry(key).or_insert_with(|| Arc::clone(&pk)))
        };
        if let Some(dir) = &self.disk_dir {
            let path = dir.join(format!("{}.pk", key.file_stem()));
            if !path.exists() {
                // Spill via a temp file + rename so concurrent readers never
                // observe a half-written key. Spill failure is non-fatal: the
                // cache simply stays memory-only for this entry.
                let tmp = dir.join(format!("{}.pk.tmp", key.file_stem()));
                if std::fs::write(&tmp, cached.to_bytes()).is_ok() {
                    let _ = std::fs::rename(&tmp, &path);
                }
            }
        }
        cached
    }

    /// Drops the key from memory and deletes its spill file, so the next
    /// lookup regenerates it.
    pub fn invalidate(&self, key: &ArtifactKey) {
        self.keys.write().remove(key);
        if let Some(dir) = &self.disk_dir {
            let _ = std::fs::remove_file(dir.join(format!("{}.pk", key.file_stem())));
        }
    }

    /// Looks up the key, generating and caching it on a miss. A cached key
    /// that fails `valid` (e.g. a spill file whose constraint system does
    /// not match the compiled circuit) is invalidated and regenerated. The
    /// returned outcome reports whether keygen was skipped.
    pub fn get_or_generate<E>(
        &self,
        key: ArtifactKey,
        valid: impl Fn(&ProvingKey) -> bool,
        generate: impl FnOnce() -> Result<ProvingKey, E>,
    ) -> Result<(Arc<ProvingKey>, CacheOutcome), E> {
        if let Some((pk, outcome)) = self.get(&key) {
            if valid(&pk) {
                return Ok((pk, outcome));
            }
            self.invalidate(&key);
        }
        let pk = generate()?;
        Ok((self.insert(key, pk), CacheOutcome::Miss))
    }

    /// Number of proving keys currently held in memory.
    pub fn len(&self) -> usize {
        self.keys.read().len()
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_stem_distinguishes_backend_k_and_circuit() {
        let key = |backend, k, circuit| ArtifactKey {
            arch_hash: [0xAB; 32],
            backend,
            k,
            circuit,
        };
        let a = key(Backend::Kzg, 10, [0x01; 32]).file_stem();
        let b = key(Backend::Ipa, 10, [0x01; 32]).file_stem();
        let c = key(Backend::Kzg, 11, [0x01; 32]).file_stem();
        let d = key(Backend::Kzg, 10, [0x02; 32]).file_stem();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d, "layouts sharing k must spill to distinct files");
        assert!(a.starts_with("abab"));
        assert!(a.contains("kzg-k10"));
    }

    #[test]
    fn params_memoized_per_backend_and_k() {
        let cache = ArtifactCache::in_memory();
        let p1 = cache.params(Backend::Kzg, 4);
        let p2 = cache.params(Backend::Kzg, 4);
        assert!(Arc::ptr_eq(&p1, &p2));
        let p3 = cache.params(Backend::Ipa, 4);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(p3.backend(), Backend::Ipa);
    }
}
