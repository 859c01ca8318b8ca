//! On-disk proof artifact layout shared by the CLI's prove, submit, status
//! and verify flows.
//!
//! A proof directory holds `proof.bin`, `vk.bin`, and `public.bin` (or
//! `bundle.bin` and `public.bin` for a segmented bundle); the public-values
//! file carries the backend tag followed by the first instance column.
//! Proofs of committed-weight circuits additionally get `commitment.bin`
//! (the serialized `WeightCommitment` the proof verifies against — a
//! committed proof is unverifiable without one).

use crate::error::ServiceError;
use std::path::Path;
use zkml_ff::Fr;
use zkml_pcs::{Backend, ReadError, Reader, Writer};

/// Encodes the `public.bin` payload: backend tag, then the public values.
pub fn encode_public(backend: Backend, values: &[Fr]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(match backend {
        Backend::Kzg => 0,
        Backend::Ipa => 1,
    });
    w.u64(values.len() as u64);
    for v in values {
        w.scalar(v);
    }
    w.finish()
}

/// Decodes a `public.bin` payload.
pub fn decode_public(bytes: &[u8]) -> Result<(Backend, Vec<Fr>), ReadError> {
    let mut r = Reader::new(bytes);
    let backend = match r.u32()? {
        0 => Backend::Kzg,
        1 => Backend::Ipa,
        _ => return Err(ReadError("bad backend tag")),
    };
    let n = r.u64()? as usize;
    if n > 1 << 24 {
        return Err(ReadError("too many public values"));
    }
    let values = (0..n).map(|_| r.scalar()).collect::<Result<_, _>>()?;
    if !r.is_exhausted() {
        return Err(ReadError("trailing bytes in public values"));
    }
    Ok((backend, values))
}

/// Writes a proof directory that `zkml verify --dir` accepts into `dir`
/// (created if missing). `vk: Some` writes a monolithic `proof.bin` +
/// `vk.bin`; `vk: None` writes `proof` as `bundle.bin`, since a segmented
/// bundle carries its own per-segment verifying keys. `commitment` becomes
/// `commitment.bin`, and `public.bin` is always written.
pub fn write_proof_dir(
    dir: &Path,
    backend: Backend,
    proof: &[u8],
    vk: Option<&[u8]>,
    public: &[Fr],
    commitment: Option<&[u8]>,
) -> Result<(), ServiceError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ServiceError::Io(format!("create {}: {e}", dir.display())))?;
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes)
            .map_err(|e| ServiceError::Io(format!("write {name}: {e}")))
    };
    match vk {
        Some(vk) => {
            write("proof.bin", proof)?;
            write("vk.bin", vk)?;
        }
        None => write("bundle.bin", proof)?,
    }
    if let Some(commitment) = commitment {
        write("commitment.bin", commitment)?;
    }
    write("public.bin", &encode_public(backend, public))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_ff::PrimeField;

    #[test]
    fn public_roundtrip() {
        let values: Vec<Fr> = (0..5).map(Fr::from_u64).collect();
        for backend in [Backend::Kzg, Backend::Ipa] {
            let bytes = encode_public(backend, &values);
            let (b, v) = decode_public(&bytes).unwrap();
            assert_eq!(b, backend);
            assert_eq!(v, values);
        }
    }

    #[test]
    fn corrupt_public_rejected() {
        let bytes = encode_public(Backend::Kzg, &[Fr::from_u64(3)]);
        assert!(decode_public(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_public(&trailing).is_err());
        let mut bad_tag = bytes;
        bad_tag[0] = 9;
        assert!(decode_public(&bad_tag).is_err());
    }
}
