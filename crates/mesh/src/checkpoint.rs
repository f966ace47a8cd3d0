//! Checkpoint/restart of the SAMR state: hierarchy geometry plus any
//! number of named Data Objects, in a self-describing little-endian
//! binary format. Long SAMR campaigns (the paper's production flame run
//! took 58 hours on 28 CPUs) are not survivable without restart files;
//! GrACE/DAGH shipped the equivalent facility.
//!
//! Format: magic `CCAH`, version u32, hierarchy block, object count, then
//! per object: name, nvars, nghost, and per (level, patch) the interior
//! box plus the raw interior+ghost field data.

use crate::boxes::IntBox;
use crate::data::{DataObject, PatchData};
use crate::hierarchy::{Hierarchy, Patch};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"CCAH";
const VERSION: u32 = 1;

/// FNV-1a initial offset basis (64-bit).
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain 64-bit FNV-1a over a byte stream, seedable for chaining.
/// The per-record and per-set integrity checksums of the checkpoint
/// subsystem all use this (deterministic, dependency-free).
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV1A_PRIME);
    }
    h
}

/// Fixed bytes of one patch record besides the field data: length prefix,
/// level, id, interior box, trailing checksum.
const RECORD_OVERHEAD: usize = 8 + 8 + 8 + 32 + 8;

/// Upper bound accepted for a record's length prefix; anything larger is
/// reported as corruption instead of attempted as an allocation.
const RECORD_MAX: usize = 1 << 32;

/// Checkpoint errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a checkpoint, or a different format version.
    BadHeader(String),
    /// Structurally invalid payload.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadHeader(m) => write!(f, "bad checkpoint header: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_i64(w: &mut impl Write, v: i64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    put_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn get_u32(r: &mut impl Read) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_i64(r: &mut impl Read) -> Result<i64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}

fn get_f64(r: &mut impl Read) -> Result<f64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn get_str(r: &mut &[u8]) -> Result<String, CheckpointError> {
    let len = get_u64(r)? as usize;
    if len > 1 << 20 || len > r.len() {
        return Err(CheckpointError::Corrupt(format!("string length {len}")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| CheckpointError::Corrupt(e.to_string()))
}

fn put_box(w: &mut impl Write, b: &IntBox) -> io::Result<()> {
    put_i64(w, b.lo[0])?;
    put_i64(w, b.lo[1])?;
    put_i64(w, b.hi[0])?;
    put_i64(w, b.hi[1])
}

fn get_box(r: &mut impl Read) -> Result<IntBox, CheckpointError> {
    let lo = [get_i64(r)?, get_i64(r)?];
    let hi = [get_i64(r)?, get_i64(r)?];
    if lo[0] > hi[0] || lo[1] > hi[1] {
        return Err(CheckpointError::Corrupt(format!(
            "inverted box {lo:?}..{hi:?}"
        )));
    }
    Ok(IntBox::new(lo, hi))
}

/// Serialize one stored patch as a self-describing migration record:
/// `u64 record length (whole record, length prefix and trailing checksum
/// included), u64 level, u64 id, interior box, raw f64 data (all vars,
/// interior + ghosts), u64 FNV-1a checksum of the body (level through
/// data)`. Little-endian, same conventions as the checkpoint body, so a
/// record is exactly [`patch_record_len`] bytes and a concatenation of
/// records is a valid migration payload — and every record carries enough
/// framing for [`patch_from_bytes`] to reject truncation or corruption
/// with a typed error instead of misparsing garbage.
pub fn patch_to_bytes(level: usize, id: usize, pd: &PatchData, out: &mut Vec<u8>) {
    let start = out.len();
    let len = patch_record_len(&pd.interior, pd.nvars, pd.nghost);
    put_u64(out, len as u64).expect("Vec writes are infallible");
    put_u64(out, level as u64).expect("Vec writes are infallible");
    put_u64(out, id as u64).expect("Vec writes are infallible");
    put_box(out, &pd.interior).expect("Vec writes are infallible");
    for var in 0..pd.nvars {
        for v in pd.var_slice(var) {
            put_f64(out, *v).expect("Vec writes are infallible");
        }
    }
    let sum = fnv1a64(FNV1A_INIT, &out[start + 8..]);
    put_u64(out, sum).expect("Vec writes are infallible");
    debug_assert_eq!(out.len() - start, len);
}

/// Parse one migration record produced by [`patch_to_bytes`]. `nvars` and
/// `nghost` come from the receiving Data Object (the record stores only
/// geometry + raw data). Returns `(level, id, patch)`.
///
/// Every structural fault is a typed [`CheckpointError`], never a panic:
/// an implausible or geometry-inconsistent length prefix and a checksum
/// mismatch are `Corrupt`; a stream shorter than its own length prefix is
/// `Io` (unexpected EOF).
pub fn patch_from_bytes(
    r: &mut impl Read,
    nvars: usize,
    nghost: i64,
) -> Result<(usize, usize, PatchData), CheckpointError> {
    let len = get_u64(r)? as usize;
    if !(RECORD_OVERHEAD + 8..=RECORD_MAX).contains(&len) {
        return Err(CheckpointError::Corrupt(format!(
            "record length prefix {len} outside [{}, {RECORD_MAX}]",
            RECORD_OVERHEAD + 8
        )));
    }
    let mut body = vec![0u8; len - 8];
    r.read_exact(&mut body)?;
    let (payload, tail) = body.split_at(body.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let computed = fnv1a64(FNV1A_INIT, payload);
    if stored != computed {
        return Err(CheckpointError::Corrupt(format!(
            "record checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        )));
    }
    let mut p = payload;
    let level = get_u64(&mut p)? as usize;
    let id = get_u64(&mut p)? as usize;
    let interior = get_box(&mut p)?;
    let want = patch_record_len(&interior, nvars, nghost);
    if want != len {
        return Err(CheckpointError::Corrupt(format!(
            "record length {len} does not match geometry ({want} bytes for \
             box {:?}..{:?}, {nvars} vars, {nghost} ghosts)",
            interior.lo, interior.hi
        )));
    }
    let mut pd = PatchData::new(interior, nvars, nghost);
    for var in 0..nvars {
        for v in pd.var_slice_mut(var).iter_mut() {
            *v = get_f64(&mut p)?;
        }
    }
    Ok((level, id, pd))
}

/// Exact wire size of one [`patch_to_bytes`] record for a patch with the
/// given interior box: framing (length prefix + level + id + box +
/// checksum) plus the ghost-padded field data. Lets both sides of a
/// migration size buffers and comm plans without constructing the
/// payload.
pub fn patch_record_len(interior: &IntBox, nvars: usize, nghost: i64) -> usize {
    let total = interior.grow(nghost).count() as usize;
    RECORD_OVERHEAD + 8 * nvars * total
}

/// Write a checkpoint of `hier` and the given Data Objects.
pub fn write_checkpoint(
    hier: &Hierarchy,
    objects: &BTreeMap<String, DataObject>,
    w: &mut impl Write,
) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    put_u32(w, VERSION)?;
    // Hierarchy geometry.
    put_box(w, &hier.domain0)?;
    put_f64(w, hier.origin[0])?;
    put_f64(w, hier.origin[1])?;
    put_f64(w, hier.dx0[0])?;
    put_f64(w, hier.dx0[1])?;
    put_i64(w, hier.ratio)?;
    put_u64(w, hier.n_levels() as u64)?;
    for level in &hier.levels {
        put_u64(w, level.patches.len() as u64)?;
        for p in &level.patches {
            put_u64(w, p.id as u64)?;
            put_box(w, &p.interior)?;
            put_u64(w, p.owner as u64)?;
        }
    }
    // Data objects.
    put_u64(w, objects.len() as u64)?;
    for (name, dobj) in objects {
        put_str(w, name)?;
        put_u64(w, dobj.nvars as u64)?;
        put_i64(w, dobj.nghost)?;
        put_u64(w, dobj.n_levels() as u64)?;
        for level in 0..dobj.n_levels() {
            let ids = dobj.patch_ids(level);
            put_u64(w, ids.len() as u64)?;
            for id in ids {
                let pd = dobj.patch(level, id).expect("listed id");
                put_u64(w, id as u64)?;
                put_box(w, &pd.interior)?;
                for var in 0..pd.nvars {
                    for v in pd.var_slice(var) {
                        put_f64(w, *v)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Bytes one hierarchy patch entry occupies: id, interior box, owner.
const HIER_PATCH_BYTES: u64 = 8 + 32 + 8;

/// Fewest bytes one Data Object occupies: name length, nvars, nghost and
/// level count.
const OBJECT_MIN_BYTES: u64 = 4 * 8;

/// Bytes one stored patch occupies before its field data: id, interior box.
const OBJECT_PATCH_HEADER: u64 = 8 + 32;

/// Refuse a declared `count` of items, each at least `item_bytes` long,
/// that cannot fit in the `remaining` bytes of the stream — so no
/// allocation or loop is ever sized from an untrusted count alone.
fn fits(
    count: u64,
    item_bytes: u64,
    remaining: usize,
    what: &str,
) -> Result<usize, CheckpointError> {
    match count.checked_mul(item_bytes) {
        Some(need) if need <= remaining as u64 => Ok(count as usize),
        _ => Err(CheckpointError::Corrupt(format!(
            "{count} {what} cannot fit in the {remaining} remaining bytes"
        ))),
    }
}

/// Field-data bytes of one stored patch, `grow(nghost).count() × nvars ×
/// 8`, in checked arithmetic: `None` when the ghost-grown box leaves the
/// `i64` index space or the product overflows.
fn patch_data_bytes(interior: &IntBox, nvars: usize, nghost: i64) -> Option<u64> {
    let mut cells = 1u64;
    for k in 0..2 {
        let lo = interior.lo[k].checked_sub(nghost)?;
        let hi = interior.hi[k].checked_add(nghost)?;
        let n = hi.checked_sub(lo)?.checked_add(1)?;
        cells = cells.checked_mul(u64::try_from(n).ok()?)?;
    }
    cells.checked_mul(nvars as u64)?.checked_mul(8)
}

/// Read a checkpoint back from its bytes.
///
/// Every declared count and every patch's data size is checked against
/// the bytes that remain before anything is allocated for it, so a
/// corrupted or hostile stream yields a typed [`CheckpointError`] —
/// never a panic and never an allocation out of proportion to `bytes`.
pub fn read_checkpoint(
    bytes: &[u8],
) -> Result<(Hierarchy, BTreeMap<String, DataObject>), CheckpointError> {
    let r = &mut &bytes[..];
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadHeader(format!("magic {magic:?}")));
    }
    let version = get_u32(r)?;
    if version != VERSION {
        return Err(CheckpointError::BadHeader(format!("version {version}")));
    }
    let domain0 = get_box(r)?;
    let origin = [get_f64(r)?, get_f64(r)?];
    let dx0 = [get_f64(r)?, get_f64(r)?];
    let ratio = get_i64(r)?;
    if !(2..=16).contains(&ratio) {
        return Err(CheckpointError::Corrupt(format!("ratio {ratio}")));
    }
    let mut hier = Hierarchy::new(domain0, origin, dx0, ratio);
    let n_levels = get_u64(r)?;
    if n_levels == 0 || n_levels > 64 {
        return Err(CheckpointError::Corrupt(format!("{n_levels} levels")));
    }
    let n_levels = fits(n_levels, 8, r.len(), "levels")?;
    hier.levels.clear();
    let mut max_id = 0usize;
    for _ in 0..n_levels {
        let n_patches = get_u64(r)?;
        if n_patches > 1 << 24 {
            return Err(CheckpointError::Corrupt(format!("{n_patches} patches")));
        }
        let n_patches = fits(n_patches, HIER_PATCH_BYTES, r.len(), "patches")?;
        let mut level = crate::hierarchy::Level::default();
        for _ in 0..n_patches {
            let id = get_u64(r)? as usize;
            let interior = get_box(r)?;
            let owner = get_u64(r)? as usize;
            let next = id
                .checked_add(1)
                .ok_or_else(|| CheckpointError::Corrupt(format!("patch id {id}")))?;
            max_id = max_id.max(next);
            level.patches.push(Patch {
                id,
                interior,
                owner,
            });
        }
        hier.levels.push(level);
    }
    hier.reserve_ids(max_id);

    let n_objects = get_u64(r)?;
    if n_objects > 1 << 16 {
        return Err(CheckpointError::Corrupt(format!("{n_objects} objects")));
    }
    let n_objects = fits(n_objects, OBJECT_MIN_BYTES, r.len(), "objects")?;
    let mut objects = BTreeMap::new();
    for _ in 0..n_objects {
        let name = get_str(r)?;
        let nvars = get_u64(r)? as usize;
        let nghost = get_i64(r)?;
        if nvars == 0 || nvars > 1 << 12 || !(0..=16).contains(&nghost) {
            return Err(CheckpointError::Corrupt(format!(
                "object '{name}': nvars {nvars}, nghost {nghost}"
            )));
        }
        let mut dobj = DataObject::new(nvars, nghost);
        let n_levels = fits(get_u64(r)?, 8, r.len(), "object levels")?;
        for level in 0..n_levels {
            let n_patches = fits(get_u64(r)?, OBJECT_PATCH_HEADER, r.len(), "object patches")?;
            for _ in 0..n_patches {
                let id = get_u64(r)? as usize;
                let interior = get_box(r)?;
                match patch_data_bytes(&interior, nvars, nghost) {
                    Some(need) if need <= r.len() as u64 => {}
                    _ => {
                        return Err(CheckpointError::Corrupt(format!(
                            "object '{name}' patch {id}: box {:?}..{:?} with {nvars} vars and \
                             {nghost} ghosts cannot fit in the {} remaining bytes",
                            interior.lo,
                            interior.hi,
                            r.len()
                        )))
                    }
                }
                let mut pd = PatchData::new(interior, nvars, nghost);
                for var in 0..nvars {
                    for v in pd.var_slice_mut(var).iter_mut() {
                        *v = get_f64(r)?;
                    }
                }
                dobj.insert(level, id, pd);
            }
        }
        objects.insert(name, dobj);
    }
    Ok((hier, objects))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Hierarchy, BTreeMap<String, DataObject>) {
        let mut hier = Hierarchy::new(IntBox::sized(16, 16), [0.0, 0.0], [1.0 / 16.0; 2], 2);
        hier.set_level_boxes(1, &[IntBox::new([4, 4], [11, 11]).refine(2)]);
        hier.levels[1].patches[0].owner = 3;
        let mut dobj = DataObject::new(2, 1);
        for (level, l) in hier.levels.iter().enumerate() {
            for p in &l.patches {
                dobj.allocate(level, p.id, p.interior);
            }
        }
        let id0 = hier.levels[0].patches[0].id;
        let pd = dobj.patch_mut(0, id0).unwrap();
        let interior = pd.interior;
        for (k, (i, j)) in interior.cells().enumerate() {
            pd.set(0, i, j, k as f64);
            pd.set(1, i, j, -(k as f64) * 0.5);
        }
        let mut objects = BTreeMap::new();
        objects.insert("state".to_string(), dobj);
        (hier, objects)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (hier, objects) = sample();
        let mut buf = Vec::new();
        write_checkpoint(&hier, &objects, &mut buf).unwrap();
        let (h2, o2) = read_checkpoint(&buf).unwrap();
        assert_eq!(h2.domain0, hier.domain0);
        assert_eq!(h2.ratio, hier.ratio);
        assert_eq!(h2.n_levels(), hier.n_levels());
        assert_eq!(h2.levels[1].patches[0].owner, 3);
        assert_eq!(
            h2.levels[1].patches[0].interior,
            hier.levels[1].patches[0].interior
        );
        let src = objects.get("state").unwrap();
        let dst = o2.get("state").unwrap();
        let id0 = hier.levels[0].patches[0].id;
        assert_eq!(src.patch(0, id0).unwrap(), dst.patch(0, id0).unwrap());
    }

    #[test]
    fn fresh_ids_do_not_collide_after_restart() {
        let (hier, objects) = sample();
        let mut buf = Vec::new();
        write_checkpoint(&hier, &objects, &mut buf).unwrap();
        let (mut h2, _) = read_checkpoint(&buf).unwrap();
        let existing: Vec<usize> = h2
            .levels
            .iter()
            .flat_map(|l| l.patches.iter().map(|p| p.id))
            .collect();
        let fresh = h2.fresh_id();
        assert!(!existing.contains(&fresh), "id {fresh} collides");
    }

    #[test]
    fn patch_record_roundtrip_is_bit_exact_and_sized() {
        let (hier, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let id0 = hier.levels[0].patches[0].id;
        let pd = dobj.patch(0, id0).unwrap();
        let mut buf = Vec::new();
        patch_to_bytes(0, id0, pd, &mut buf);
        assert_eq!(buf.len(), patch_record_len(&pd.interior, pd.nvars, 1));
        let (level, id, back) = patch_from_bytes(&mut buf.as_slice(), pd.nvars, 1).unwrap();
        assert_eq!((level, id), (0, id0));
        assert_eq!(&back, pd);
    }

    #[test]
    fn concatenated_patch_records_parse_sequentially() {
        let (hier, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let mut buf = Vec::new();
        let mut expect = Vec::new();
        for (level, l) in hier.levels.iter().enumerate() {
            for p in &l.patches {
                patch_to_bytes(level, p.id, dobj.patch(level, p.id).unwrap(), &mut buf);
                expect.push((level, p.id));
            }
        }
        let mut r = buf.as_slice();
        for &(level, id) in &expect {
            let (l, i, pd) = patch_from_bytes(&mut r, dobj.nvars, dobj.nghost).unwrap();
            assert_eq!((l, i), (level, id));
            assert_eq!(&pd, dobj.patch(level, id).unwrap());
        }
        assert!(r.is_empty(), "trailing bytes after last record");
    }

    #[test]
    fn corrupted_patch_record_data_rejected_by_checksum() {
        let (hier, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let id0 = hier.levels[0].patches[0].id;
        let mut buf = Vec::new();
        patch_to_bytes(0, id0, dobj.patch(0, id0).unwrap(), &mut buf);
        // Flip one bit in the middle of the field data.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = patch_from_bytes(&mut buf.as_slice(), 2, 1).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_patch_record_rejected_not_panicking() {
        let (hier, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let id0 = hier.levels[0].patches[0].id;
        let mut buf = Vec::new();
        patch_to_bytes(0, id0, dobj.patch(0, id0).unwrap(), &mut buf);
        for keep in [4usize, 9, buf.len() / 2, buf.len() - 1] {
            let mut cut = buf.clone();
            cut.truncate(keep);
            let err = patch_from_bytes(&mut cut.as_slice(), 2, 1).err().unwrap();
            assert!(
                matches!(err, CheckpointError::Io(_) | CheckpointError::Corrupt(_)),
                "keep {keep}: {err}"
            );
        }
    }

    #[test]
    fn implausible_record_length_prefix_rejected() {
        // A length prefix far beyond RECORD_MAX must not be trusted as an
        // allocation size.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u64::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let err = patch_from_bytes(&mut buf.as_slice(), 2, 1).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("length prefix"), "{err}");
    }

    #[test]
    fn geometry_inconsistent_length_rejected() {
        let (hier, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let id0 = hier.levels[0].patches[0].id;
        let mut buf = Vec::new();
        patch_to_bytes(0, id0, dobj.patch(0, id0).unwrap(), &mut buf);
        // Parse with the wrong nvars: the record is intact (checksum
        // passes) but its length no longer matches the claimed geometry.
        let err = patch_from_bytes(&mut buf.as_slice(), 3, 1).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("geometry"), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_checkpoint(b"NOPE\x01\x00\x00\x00").err().unwrap();
        assert!(matches!(err, CheckpointError::BadHeader(_)), "{err}");
    }

    #[test]
    fn truncated_stream_rejected() {
        let (hier, objects) = sample();
        let mut buf = Vec::new();
        write_checkpoint(&hier, &objects, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        // The cut lands inside a patch's field data: its declared size no
        // longer fits, which is refused before the patch is allocated.
        let err = read_checkpoint(&buf).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("remaining bytes"), "{err}");
        // A cut inside a fixed-size field is a plain unexpected EOF.
        let err = read_checkpoint(&buf[..10]).err().unwrap();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn corrupted_ratio_rejected() {
        let (hier, objects) = sample();
        let mut buf = Vec::new();
        write_checkpoint(&hier, &objects, &mut buf).unwrap();
        // ratio sits after magic(4) + version(4) + box(32) + origin/dx(32).
        let off = 4 + 4 + 32 + 32;
        buf[off..off + 8].copy_from_slice(&999i64.to_le_bytes());
        let err = read_checkpoint(&buf).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }
}
