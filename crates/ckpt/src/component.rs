//! Component-state checkpoint sets: the single-process counterpart of
//! the distributed [`crate::set::CheckpointSet`], used by the serving
//! layer to preempt and migrate long jobs. Instead of handing clients a
//! raw `CheckpointPort::save_bytes` blob, the server wraps every named
//! component blob in a versioned container with per-part and whole-set
//! checksums plus the same RNG-free configuration hash the distributed
//! sets carry — so a resume against the wrong job, a truncated transfer,
//! or a flipped bit is a typed error before any session time is spent.

use crate::set::CkptError;
use cca_mesh::checkpoint::{fnv1a64, FNV1A_INIT};

const MAGIC: &[u8; 4] = b"CCKC";
const VERSION: u32 = 1;

/// A checkpoint of one job's component state: named blobs plus identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentSet {
    /// RNG-free hash of the physics-bearing job configuration (step
    /// counts excluded, so a shorter resume leg still matches).
    pub config_hash: u64,
    /// Macro steps the checkpointed run had completed.
    pub steps_done: u64,
    /// Named component blobs, e.g. `("grace", CheckpointPort bytes)`.
    pub parts: Vec<(String, Vec<u8>)>,
}

impl ComponentSet {
    /// Serialize, with per-part and trailer checksums. Byte-stable.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&self.steps_done.to_le_bytes());
        out.extend_from_slice(&(self.parts.len() as u64).to_le_bytes());
        for (name, blob) in &self.parts {
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            out.extend_from_slice(blob);
            out.extend_from_slice(&fnv1a64(FNV1A_INIT, blob).to_le_bytes());
        }
        let sum = fnv1a64(FNV1A_INIT, &out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse and integrity-check a serialized component set.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CkptError> {
        if buf.len() < MAGIC.len() + 4 + 8 {
            return Err(CkptError::BadHeader(format!("{} bytes", buf.len())));
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let computed = fnv1a64(FNV1A_INIT, body);
        if stored != computed {
            return Err(CkptError::Corrupt(format!(
                "component-set checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            )));
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CkptError> {
            if *pos + n > body.len() {
                return Err(CkptError::Corrupt(format!(
                    "unexpected end of component set at byte {pos}"
                )));
            }
            let s = &body[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 4)? != MAGIC {
            return Err(CkptError::BadHeader("magic".into()));
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4"));
        if version != VERSION {
            return Err(CkptError::BadHeader(format!("version {version}")));
        }
        let config_hash = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8"));
        let steps_done = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8"));
        let n_parts = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8")) as usize;
        // A part is at least its two length prefixes and its checksum.
        if n_parts > (1 << 16).min((body.len() - pos) / 24) {
            return Err(CkptError::Corrupt(format!(
                "{n_parts} parts in {} remaining bytes",
                body.len() - pos
            )));
        }
        let mut parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let name_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8")) as usize;
            if name_len > 1 << 20 {
                return Err(CkptError::Corrupt(format!("part name length {name_len}")));
            }
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
                .map_err(|e| CkptError::Corrupt(format!("part name: {e}")))?;
            let blob_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8")) as usize;
            if blob_len > 1 << 32 {
                return Err(CkptError::Corrupt(format!("part blob length {blob_len}")));
            }
            let blob = take(&mut pos, blob_len)?.to_vec();
            let sum = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8"));
            if sum != fnv1a64(FNV1A_INIT, &blob) {
                return Err(CkptError::Corrupt(format!(
                    "part '{name}' checksum mismatch"
                )));
            }
            parts.push((name, blob));
        }
        if pos != body.len() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after last part",
                body.len() - pos
            )));
        }
        Ok(ComponentSet {
            config_hash,
            steps_done,
            parts,
        })
    }

    /// The blob of the named part, if present.
    pub fn part(&self, name: &str) -> Option<&[u8]> {
        self.parts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ComponentSet {
        ComponentSet {
            config_hash: 0xdead_beef_1234_5678,
            steps_done: 17,
            parts: vec![
                ("grace".into(), vec![1, 2, 3, 4, 5]),
                ("integrator".into(), vec![]),
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let set = sample();
        let bytes = set.to_bytes();
        assert_eq!(bytes, set.to_bytes(), "serialization must be byte-stable");
        let back = ComponentSet::from_bytes(&bytes).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.part("grace"), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(back.part("nope"), None);
    }

    #[test]
    fn corruption_and_truncation_are_typed_errors() {
        let bytes = sample().to_bytes();
        for i in [4usize, 20, bytes.len() / 2, bytes.len() - 4] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            let err = ComponentSet::from_bytes(&bad).err().unwrap();
            assert!(
                matches!(err, CkptError::Corrupt(_) | CkptError::BadHeader(_)),
                "byte {i}: {err}"
            );
        }
        let err = ComponentSet::from_bytes(&bytes[..bytes.len() / 2])
            .err()
            .unwrap();
        assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
    }
}
