//! The checkpoint-set format: a versioned, checksummed container holding
//! everything a cohort needs to restart **at any rank count** —
//! replicated hierarchy metadata (including the exact next-patch-id
//! watermark), one shard of bit-exact patch records per writing rank, any
//! named component-state blobs, and an RNG-free configuration hash that
//! gates restore against the wrong run.
//!
//! Wire layout (magic `CCKS`, little-endian throughout):
//!
//! ```text
//! magic, version u32,
//! epoch u64, step u64, config_hash u64, nvars u64, nghost i64,
//! hierarchy: domain0 box, origin f64×2, dx0 f64×2, ratio i64,
//!            next-id watermark u64, n_levels u64,
//!            per level: n_patches u64, per patch: id u64, box,
//! n_parts u64,  per part:  name, blob (len-prefixed), blob FNV-1a u64,
//! n_shards u64, per shard: writer u64, n_records u64,
//!                          records (len-prefixed bytes), shard FNV-1a u64,
//! set FNV-1a u64 over every preceding byte
//! ```
//!
//! Patch records inside a shard are the hardened
//! [`cca_mesh::checkpoint::patch_to_bytes`] records (length prefix +
//! per-record checksum), concatenated in `(level, id)` order — the same
//! wire format migration uses, so a restored patch is bit-identical to
//! the one the interrupted run held, ghosts included.

use cca_mesh::boxes::IntBox;
use cca_mesh::checkpoint::{
    fnv1a64, patch_from_bytes, patch_record_len, CheckpointError, FNV1A_INIT,
};
use cca_mesh::data::DataObject;
use cca_mesh::hierarchy::{Hierarchy, Level, Patch};
use std::collections::BTreeMap;

const MAGIC: &[u8; 4] = b"CCKS";
const VERSION: u32 = 1;

/// Checkpoint-set errors: every structural fault is typed, never a panic.
#[derive(Debug)]
pub enum CkptError {
    /// Not a checkpoint set, or a different format version.
    BadHeader(String),
    /// Structurally invalid or checksum-failing payload.
    Corrupt(String),
    /// The set is well-formed but does not belong to this run
    /// (configuration hash or geometry mismatch).
    Incompatible(String),
    /// A patch record inside a shard failed to parse.
    Record(CheckpointError),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadHeader(m) => write!(f, "bad checkpoint-set header: {m}"),
            CkptError::Corrupt(m) => write!(f, "corrupt checkpoint set: {m}"),
            CkptError::Incompatible(m) => write!(f, "incompatible checkpoint set: {m}"),
            CkptError::Record(e) => write!(f, "bad patch record in checkpoint set: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<CheckpointError> for CkptError {
    fn from(e: CheckpointError) -> Self {
        CkptError::Record(e)
    }
}

/// Run identity and resume point carried by a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CkptMeta {
    /// First macro step the resumed run must execute (the interrupted run
    /// completed steps `0..step`).
    pub step: u64,
    /// RNG-free hash of the physics-bearing configuration; restore
    /// refuses a set whose hash differs from the resuming run's.
    pub config_hash: u64,
    /// Variables per mesh point of the checkpointed Data Object.
    pub nvars: usize,
    /// Ghost-ring width of the checkpointed Data Object.
    pub nghost: i64,
}

/// Replicated hierarchy metadata as saved: enough to rebuild the exact
/// [`Hierarchy`], including the id counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavedHierarchy {
    /// Level-0 domain in index space.
    pub domain0: IntBox,
    /// Physical origin.
    pub origin: [u64; 2],
    /// Level-0 cell sizes (bit patterns, so equality is exact).
    pub dx0: [u64; 2],
    /// Refinement ratio.
    pub ratio: i64,
    /// The exact next-patch-id watermark at checkpoint time (see
    /// [`Hierarchy::next_id_watermark`]) — restoring `max(id) + 1`
    /// instead would let post-restart regrids issue different fresh ids
    /// and silently break bit-identical restart.
    pub next_id: usize,
    /// Per level, per patch: `(id, interior)`. Owners are deliberately
    /// NOT saved — restore replays the LPT assignment at the new rank
    /// count, so two cohorts of different sizes write byte-identical
    /// manifests for the same physical state.
    pub patches: Vec<Vec<(usize, IntBox)>>,
}

impl SavedHierarchy {
    /// Capture the replicated metadata of a live hierarchy.
    pub fn capture(hier: &Hierarchy) -> Self {
        SavedHierarchy {
            domain0: hier.domain0,
            origin: [hier.origin[0].to_bits(), hier.origin[1].to_bits()],
            dx0: [hier.dx0[0].to_bits(), hier.dx0[1].to_bits()],
            ratio: hier.ratio,
            next_id: hier.next_id_watermark(),
            patches: hier
                .levels
                .iter()
                .map(|l| l.patches.iter().map(|p| (p.id, p.interior)).collect())
                .collect(),
        }
    }

    /// Rebuild the exact hierarchy, id watermark included.
    pub fn rebuild(&self) -> Hierarchy {
        let mut hier = Hierarchy::new(
            self.domain0,
            [
                f64::from_bits(self.origin[0]),
                f64::from_bits(self.origin[1]),
            ],
            [f64::from_bits(self.dx0[0]), f64::from_bits(self.dx0[1])],
            self.ratio,
        );
        hier.levels.clear();
        for saved in &self.patches {
            let mut level = Level::default();
            for &(id, interior) in saved {
                level.patches.push(Patch {
                    id,
                    interior,
                    owner: 0,
                });
            }
            hier.levels.push(level);
        }
        hier.reserve_ids(self.next_id);
        hier
    }

    /// All `(level, id, interior)` triples in `(level, id)` order.
    fn sorted_patches(&self) -> Vec<(usize, usize, IntBox)> {
        let mut out = Vec::new();
        for (level, saved) in self.patches.iter().enumerate() {
            for &(id, interior) in saved {
                out.push((level, id, interior));
            }
        }
        out.sort_unstable_by_key(|&(level, id, _)| (level, id));
        out
    }
}

/// One rank's worth of patch records: concatenated hardened
/// `patch_to_bytes` records in `(level, id)` order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Rank that wrote the shard in the interrupted run.
    pub writer: usize,
    /// Number of records in `records`.
    pub n_records: u64,
    /// The concatenated records.
    pub records: Vec<u8>,
}

/// One complete coordinated checkpoint: manifest + shards + component
/// state. Assembled on rank 0 at a macro-step barrier, committed to a
/// [`crate::store::CkptStore`] only once whole — a rank that dies
/// mid-snapshot can never leave a half-written set behind.
#[derive(Clone, Debug)]
pub struct CheckpointSet {
    /// Monotonic checkpoint epoch within the run (1-based).
    pub epoch: u64,
    /// Run identity and resume point.
    pub meta: CkptMeta,
    /// Replicated hierarchy metadata.
    pub hier: SavedHierarchy,
    /// Named component-state blobs (e.g. `CheckpointPort::save_bytes`
    /// output), each integrity-checksummed on the wire.
    pub parts: Vec<(String, Vec<u8>)>,
    /// Per-writing-rank patch shards.
    pub shards: Vec<Shard>,
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_box(out: &mut Vec<u8>, b: &IntBox) {
    put_i64(out, b.lo[0]);
    put_i64(out, b.lo[1]);
    put_i64(out, b.hi[0]);
    put_i64(out, b.hi[1]);
}

/// Cursor-style reader over a byte slice with typed EOF errors.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.pos + n > self.buf.len() {
            return Err(CkptError::Corrupt(format!(
                "unexpected end of set at byte {} (want {n} more of {})",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, CkptError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn boxx(&mut self) -> Result<IntBox, CkptError> {
        let lo = [self.i64()?, self.i64()?];
        let hi = [self.i64()?, self.i64()?];
        if lo[0] > hi[0] || lo[1] > hi[1] {
            return Err(CkptError::Corrupt(format!("inverted box {lo:?}..{hi:?}")));
        }
        Ok(IntBox::new(lo, hi))
    }

    /// A declared entry count, refused above the format's `max` or when
    /// `wire` bytes per entry could not fit in the bytes left — so no
    /// reservation sized from it outgrows the input.
    fn count(&mut self, max: usize, wire: usize, what: &str) -> Result<usize, CkptError> {
        let n = self.u64()?;
        let fit = (self.buf.len() - self.pos) / wire;
        if n > max.min(fit) as u64 {
            return Err(CkptError::Corrupt(format!(
                "{n} {what} (at most {} fit in the remaining bytes)",
                max.min(fit)
            )));
        }
        Ok(n as usize)
    }

    fn bytes(&mut self, cap: usize, what: &str) -> Result<Vec<u8>, CkptError> {
        let n = self.u64()? as usize;
        if n > cap {
            return Err(CkptError::Corrupt(format!(
                "{what} length {n} exceeds {cap}"
            )));
        }
        Ok(self.take(n)?.to_vec())
    }
}

impl CheckpointSet {
    /// Serialize the whole set, trailer checksum included. Byte-stable:
    /// the same set always serializes to the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.meta.step);
        put_u64(&mut out, self.meta.config_hash);
        put_u64(&mut out, self.meta.nvars as u64);
        put_i64(&mut out, self.meta.nghost);
        put_box(&mut out, &self.hier.domain0);
        put_u64(&mut out, self.hier.origin[0]);
        put_u64(&mut out, self.hier.origin[1]);
        put_u64(&mut out, self.hier.dx0[0]);
        put_u64(&mut out, self.hier.dx0[1]);
        put_i64(&mut out, self.hier.ratio);
        put_u64(&mut out, self.hier.next_id as u64);
        put_u64(&mut out, self.hier.patches.len() as u64);
        for level in &self.hier.patches {
            put_u64(&mut out, level.len() as u64);
            for &(id, interior) in level {
                put_u64(&mut out, id as u64);
                put_box(&mut out, &interior);
            }
        }
        put_u64(&mut out, self.parts.len() as u64);
        for (name, blob) in &self.parts {
            put_u64(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            put_u64(&mut out, blob.len() as u64);
            out.extend_from_slice(blob);
            put_u64(&mut out, fnv1a64(FNV1A_INIT, blob));
        }
        put_u64(&mut out, self.shards.len() as u64);
        for shard in &self.shards {
            put_u64(&mut out, shard.writer as u64);
            put_u64(&mut out, shard.n_records);
            put_u64(&mut out, shard.records.len() as u64);
            out.extend_from_slice(&shard.records);
            put_u64(&mut out, fnv1a64(FNV1A_INIT, &shard.records));
        }
        let sum = fnv1a64(FNV1A_INIT, &out);
        put_u64(&mut out, sum);
        out
    }

    /// Parse and integrity-check a serialized set: the whole-set trailer
    /// checksum, every per-part and per-shard checksum, and the header
    /// fields are all validated before anything is returned.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CkptError> {
        if buf.len() < MAGIC.len() + 4 + 8 {
            return Err(CkptError::BadHeader(format!("{} bytes", buf.len())));
        }
        let (body, tail) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let computed = fnv1a64(FNV1A_INIT, body);
        if stored != computed {
            return Err(CkptError::Corrupt(format!(
                "set checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            )));
        }
        let mut r = Rd { buf: body, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(CkptError::BadHeader("magic".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CkptError::BadHeader(format!("version {version}")));
        }
        let epoch = r.u64()?;
        let step = r.u64()?;
        let config_hash = r.u64()?;
        let nvars = r.u64()? as usize;
        let nghost = r.i64()?;
        if nvars == 0 || nvars > 1 << 12 || !(0..=16).contains(&nghost) {
            return Err(CkptError::Corrupt(format!(
                "nvars {nvars}, nghost {nghost}"
            )));
        }
        let domain0 = r.boxx()?;
        let origin = [r.u64()?, r.u64()?];
        let dx0 = [r.u64()?, r.u64()?];
        let ratio = r.i64()?;
        if !(2..=16).contains(&ratio) {
            return Err(CkptError::Corrupt(format!("ratio {ratio}")));
        }
        let next_id = r.u64()? as usize;
        // Wire bytes per entry: a level's patch count; a patch's id and
        // box; a part's two length prefixes and checksum; a shard's
        // writer, record count, length prefix and checksum.
        let n_levels = r.count(64, 8, "levels")?;
        if n_levels == 0 {
            return Err(CkptError::Corrupt("0 levels".into()));
        }
        let mut patches = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let n = r.count(1 << 24, 40, "patches")?;
            let mut level = Vec::with_capacity(n);
            for _ in 0..n {
                let id = r.u64()? as usize;
                let interior = r.boxx()?;
                level.push((id, interior));
            }
            patches.push(level);
        }
        let n_parts = r.count(1 << 16, 24, "parts")?;
        let mut parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let name_bytes = r.bytes(1 << 20, "part name")?;
            let name = String::from_utf8(name_bytes)
                .map_err(|e| CkptError::Corrupt(format!("part name: {e}")))?;
            let blob = r.bytes(1 << 32, "part blob")?;
            let sum = r.u64()?;
            let want = fnv1a64(FNV1A_INIT, &blob);
            if sum != want {
                return Err(CkptError::Corrupt(format!(
                    "part '{name}' checksum mismatch"
                )));
            }
            parts.push((name, blob));
        }
        let n_shards = r.count(1 << 20, 32, "shards")?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let writer = r.u64()? as usize;
            let n_records = r.u64()?;
            let records = r.bytes(1 << 32, "shard")?;
            let sum = r.u64()?;
            let want = fnv1a64(FNV1A_INIT, &records);
            if sum != want {
                return Err(CkptError::Corrupt(format!(
                    "shard of rank {writer} checksum mismatch"
                )));
            }
            shards.push(Shard {
                writer,
                n_records,
                records,
            });
        }
        if r.pos != body.len() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after last shard",
                body.len() - r.pos
            )));
        }
        let set = CheckpointSet {
            epoch,
            meta: CkptMeta {
                step,
                config_hash,
                nvars,
                nghost,
            },
            hier: SavedHierarchy {
                domain0,
                origin,
                dx0,
                ratio,
                next_id,
                patches,
            },
            parts,
            shards,
        };
        set.validate()?;
        Ok(set)
    }

    /// Structural completeness check: every patch of the saved hierarchy
    /// has exactly one well-formed record across the shards (box and
    /// record checksum included), and no shard holds a record for a patch
    /// the hierarchy does not know. Commit gates on this, so a set in a
    /// store is always restorable.
    pub fn validate(&self) -> Result<(), CkptError> {
        let mut seen: BTreeMap<(usize, usize), IntBox> = BTreeMap::new();
        for shard in &self.shards {
            let mut r = shard.records.as_slice();
            for _ in 0..shard.n_records {
                let (level, id, pd) = patch_from_bytes(&mut r, self.meta.nvars, self.meta.nghost)?;
                if seen.insert((level, id), pd.interior).is_some() {
                    return Err(CkptError::Corrupt(format!(
                        "patch (level {level}, id {id}) appears in two shards"
                    )));
                }
            }
            if !r.is_empty() {
                return Err(CkptError::Corrupt(format!(
                    "shard of rank {} has {} trailing bytes",
                    shard.writer,
                    r.len()
                )));
            }
        }
        for (level, id, interior) in self.hier.sorted_patches() {
            match seen.remove(&(level, id)) {
                None => {
                    return Err(CkptError::Corrupt(format!(
                        "patch (level {level}, id {id}) has no record in any shard"
                    )));
                }
                Some(b) if b != interior => {
                    return Err(CkptError::Corrupt(format!(
                        "patch (level {level}, id {id}) record box disagrees with manifest"
                    )));
                }
                Some(_) => {}
            }
        }
        if let Some(((level, id), _)) = seen.into_iter().next() {
            return Err(CkptError::Corrupt(format!(
                "shard record (level {level}, id {id}) not in the manifest"
            )));
        }
        Ok(())
    }

    /// Build a complete set from a fully-local state (every patch stored
    /// in one Data Object) — the single-writer degenerate case of the
    /// coordinated snapshot, used by tests and single-rank runs.
    pub fn from_local(
        epoch: u64,
        meta: CkptMeta,
        hier: &Hierarchy,
        dobj: &DataObject,
        parts: Vec<(String, Vec<u8>)>,
    ) -> Result<Self, CkptError> {
        let saved = SavedHierarchy::capture(hier);
        let mut records = Vec::new();
        let mut n_records = 0u64;
        for (level, id, _) in saved.sorted_patches() {
            let pd = dobj.patch(level, id).ok_or_else(|| {
                CkptError::Corrupt(format!("patch (level {level}, id {id}) not stored locally"))
            })?;
            cca_mesh::checkpoint::patch_to_bytes(level, id, pd, &mut records);
            n_records += 1;
        }
        let set = CheckpointSet {
            epoch,
            meta,
            hier: saved,
            parts,
            shards: vec![Shard {
                writer: 0,
                n_records,
                records,
            }],
        };
        set.validate()?;
        Ok(set)
    }

    /// The blob of the named component-state part, if present.
    pub fn part(&self, name: &str) -> Option<&[u8]> {
        self.parts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Index every record by `(level, id)` as a borrowed byte slice,
    /// using the length prefixes — no field data is copied or parsed.
    /// Assumes a validated set (commit gates on [`CheckpointSet::validate`]).
    pub fn record_index(&self) -> BTreeMap<(usize, usize), &[u8]> {
        let mut index = BTreeMap::new();
        for shard in &self.shards {
            let mut rest = shard.records.as_slice();
            while rest.len() >= 24 {
                let len = u64::from_le_bytes(rest[..8].try_into().expect("8")) as usize;
                let len = len.min(rest.len());
                let level = u64::from_le_bytes(rest[8..16].try_into().expect("8")) as usize;
                let id = u64::from_le_bytes(rest[16..24].try_into().expect("8")) as usize;
                index.insert((level, id), &rest[..len]);
                rest = &rest[len..];
            }
        }
        index
    }

    /// Exact byte length of the records for the patches `owner_rank` owns
    /// under the hierarchy `hier` — derivable from replicated metadata
    /// alone, which is what lets every rank emit identical comm-plan rows
    /// for checkpoint and restore exchanges without seeing the data.
    pub fn owned_record_len(
        hier: &Hierarchy,
        owner_rank: usize,
        nvars: usize,
        nghost: i64,
    ) -> usize {
        hier.levels
            .iter()
            .flat_map(|l| l.patches.iter())
            .filter(|p| p.owner == owner_rank)
            .map(|p| patch_record_len(&p.interior, nvars, nghost))
            .sum()
    }

    /// Restore every patch of the set into one Data Object (the local
    /// inverse of [`CheckpointSet::from_local`]). Returns the rebuilt
    /// hierarchy and data.
    pub fn restore_local(&self) -> Result<(Hierarchy, DataObject), CkptError> {
        let hier = self.hier.rebuild();
        let mut dobj = DataObject::new(self.meta.nvars, self.meta.nghost);
        dobj.ensure_levels(hier.n_levels());
        for shard in &self.shards {
            let mut r = shard.records.as_slice();
            for _ in 0..shard.n_records {
                let (level, id, pd) = patch_from_bytes(&mut r, self.meta.nvars, self.meta.nghost)?;
                dobj.ensure_levels(level + 1);
                dobj.insert(level, id, pd);
            }
        }
        Ok((hier, dobj))
    }
}
