//! Adversarial inputs for the checkpoint-set decoders
//! (`CheckpointSet::from_bytes`, `ComponentSet::from_bytes`): every
//! 8-byte window of a valid set's body overwritten with 0, 1, −1,
//! `i64::MAX` and `i64::MIN` with the trailer checksum recomputed, so the
//! mutation reaches the field parser instead of stopping at the checksum;
//! and the set truncated at every offset, both raw and resealed with a
//! fresh trailer. Each case must come back `Ok` or `Err` — never a
//! panic, and never an allocation out of proportion to the input (a
//! patch count of 2²⁴ − 1 once reserved 576 MB for a 1 KB set).
//!
//! `unsafe_code` is denied, so there is no counting global allocator:
//! as in `cca-mesh`'s `checkpoint_decoder` test, the allocation bound is
//! read from the process's peak virtual size (`VmPeak`), so this file
//! holds a single test: no other test thread maps memory while it runs.

use cca_ckpt::{CheckpointSet, CkptError, CkptMeta, ComponentSet, Shard};
use cca_mesh::boxes::IntBox;
use cca_mesh::checkpoint::{fnv1a64, patch_to_bytes, FNV1A_INIT};
use cca_mesh::data::DataObject;
use cca_mesh::hierarchy::Hierarchy;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A `/proc/self/status` size line (`VmPeak`, `VmSize`) in bytes, where
/// `/proc` exists.
fn vm(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A two-level set with one part and one shard per level, so every
/// count field (levels, patches, parts, shards) is present.
fn checkpoint_set() -> Vec<u8> {
    let mut hier = Hierarchy::new(IntBox::sized(4, 4), [0.0, 0.0], [0.25; 2], 2);
    hier.set_level_boxes(1, &[IntBox::new([1, 1], [2, 2]).refine(2)]);
    let mut dobj = DataObject::new(1, 1);
    let mut shards = Vec::new();
    for (level, l) in hier.levels.iter().enumerate() {
        let mut records = Vec::new();
        for p in &l.patches {
            dobj.allocate(level, p.id, p.interior);
            let pd = dobj.patch_mut(level, p.id).unwrap();
            for (k, (i, j)) in pd.total_box().cells().enumerate() {
                pd.set(0, i, j, k as f64 * 0.5);
            }
            patch_to_bytes(level, p.id, pd, &mut records);
        }
        shards.push(Shard {
            writer: level,
            n_records: l.patches.len() as u64,
            records,
        });
    }
    let mut set = CheckpointSet::from_local(
        3,
        CkptMeta {
            step: 12,
            config_hash: 0xfeed,
            nvars: 1,
            nghost: 1,
        },
        &hier,
        &dobj,
        vec![("grace".to_string(), vec![7u8; 16])],
    )
    .unwrap();
    set.shards = shards;
    set.validate().unwrap();
    set.to_bytes()
}

fn component_set() -> Vec<u8> {
    ComponentSet {
        config_hash: 0xbeef,
        steps_done: 5,
        parts: vec![
            ("grace".to_string(), vec![1u8; 24]),
            ("rkc".to_string(), vec![2u8; 8]),
        ],
    }
    .to_bytes()
}

/// Replace the trailing 8-byte checksum with the FNV-1a of the body.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - 8;
    let sum = fnv1a64(FNV1A_INIT, &bytes[..n]);
    bytes[n..].copy_from_slice(&sum.to_le_bytes());
}

/// Run every mutated and truncated variant of `valid` through `decode`;
/// return the cases that panicked and the `VmPeak` growth they caused.
fn attack<T>(valid: &[u8], decode: fn(&[u8]) -> Result<T, CkptError>) -> (Vec<String>, u64) {
    // `VmPeak` is a high-water mark, and thread start-up leaves it tens
    // of MB above the current size (a new malloc arena maps a transient
    // reservation and trims it). An untouched ballast reservation lifts
    // the current size to the peak, so any further mapping the decoder
    // makes raises the peak. Its pages are never touched.
    let gap = match (vm("VmPeak:"), vm("VmSize:")) {
        (Some(peak), Some(size)) => peak.saturating_sub(size) as usize,
        _ => 0,
    };
    let ballast: Vec<u8> = Vec::with_capacity(gap);
    let before = vm("VmPeak:");
    let mut panicked = Vec::new();
    let mut check = |what: String, bytes: &[u8]| {
        if catch_unwind(AssertUnwindSafe(|| decode(bytes))).is_err() {
            panicked.push(what);
        }
    };
    let body = valid.len() - 8;
    let mut bytes = valid.to_vec();
    for off in 0..=body - 8 {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN] {
            bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
            reseal(&mut bytes);
            check(format!("field at {off} = {v}"), &bytes);
        }
        bytes.copy_from_slice(valid);
    }
    for keep in 0..valid.len() {
        check(format!("truncated to {keep} bytes"), &valid[..keep]);
        if keep >= 8 {
            let mut cut = valid[..keep].to_vec();
            reseal(&mut cut);
            check(format!("truncated to {keep} bytes, resealed"), &cut);
        }
    }
    let grew = match (before, vm("VmPeak:")) {
        (Some(before), Some(after)) => after - before,
        _ => 0,
    };
    drop(ballast);
    (panicked, grew)
}

#[test]
fn mutated_and_truncated_sets_never_panic_or_over_allocate() {
    let set = checkpoint_set();
    let comp = component_set();
    assert!(CheckpointSet::from_bytes(&set).is_ok(), "pristine set");
    assert!(
        ComponentSet::from_bytes(&comp).is_ok(),
        "pristine component set"
    );

    // Expected panics are caught and reported; keep their messages quiet.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let runs = [
        (
            "CheckpointSet",
            set.len(),
            attack(&set, CheckpointSet::from_bytes),
        ),
        (
            "ComponentSet",
            comp.len(),
            attack(&comp, ComponentSet::from_bytes),
        ),
    ];
    std::panic::set_hook(hook);

    for (what, len, (panicked, grew)) in runs {
        assert!(
            panicked.is_empty(),
            "{what}: {} cases panicked, first: {:?}",
            panicked.len(),
            &panicked[..panicked.len().min(5)]
        );
        // 16× the input plus 1 MiB of allocator slack: room for the
        // decoded copy and nothing resembling an unchecked count.
        let budget = 16 * len as u64 + (1 << 20);
        assert!(
            grew <= budget,
            "{what}: peak virtual size grew by {grew} bytes decoding {len}-byte sets"
        );
    }
}
