//! Adversarial inputs for the legacy checkpoint decoder: every 8-byte
//! window of a valid stream overwritten with 0, 1, −1, `i64::MAX` and
//! `i64::MIN`, and the stream truncated at every offset. Each case must
//! come back `Ok` or `Err` — never a panic, and never an allocation out
//! of proportion to the stream (an overwritten size field once asked for
//! 844 TB and aborted the process).
//!
//! `unsafe_code` is denied, so there is no counting global allocator:
//! the allocation bound is read from the process's peak virtual size
//! (`VmPeak` in `/proc/self/status`), which grows with every large
//! allocation even when its pages are never touched. That is also why
//! this test lives alone in its own binary — no other test thread maps
//! memory while it runs.

use cca_mesh::boxes::IntBox;
use cca_mesh::checkpoint::{read_checkpoint, write_checkpoint};
use cca_mesh::data::DataObject;
use cca_mesh::hierarchy::Hierarchy;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A `/proc/self/status` size line (`VmPeak`, `VmSize`) in bytes, where
/// `/proc` exists.
fn vm(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A small two-level, two-object checkpoint (the second object has two
/// ghost layers, so patch sizes differ between objects).
fn stream() -> Vec<u8> {
    let mut hier = Hierarchy::new(IntBox::sized(8, 8), [0.0, 0.0], [1.0 / 8.0; 2], 2);
    hier.set_level_boxes(1, &[IntBox::new([2, 2], [5, 5]).refine(2)]);
    let mut objects = BTreeMap::new();
    for (name, nvars, nghost) in [("phi", 1, 2), ("state", 2, 1)] {
        let mut dobj = DataObject::new(nvars, nghost);
        for (level, l) in hier.levels.iter().enumerate() {
            for p in &l.patches {
                dobj.allocate(level, p.id, p.interior);
            }
        }
        objects.insert(name.to_string(), dobj);
    }
    let mut buf = Vec::new();
    write_checkpoint(&hier, &objects, &mut buf).unwrap();
    buf
}

#[test]
fn mutated_and_truncated_streams_never_panic_or_over_allocate() {
    let valid = stream();
    assert!(
        read_checkpoint(&valid).is_ok(),
        "the pristine stream decodes"
    );

    // Expected panics are caught and reported; keep their messages quiet.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
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
    let mut cases = 0usize;
    let mut panicked = Vec::new();
    let mut check = |what: String, bytes: &[u8]| {
        cases += 1;
        if catch_unwind(AssertUnwindSafe(|| read_checkpoint(bytes))).is_err() {
            panicked.push(what);
        }
    };
    let mut bytes = valid.clone();
    for off in 0..=valid.len() - 8 {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN] {
            bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
            check(format!("field at {off} = {v}"), &bytes);
        }
        bytes[off..off + 8].copy_from_slice(&valid[off..off + 8]);
    }
    for keep in 0..valid.len() {
        check(format!("truncated to {keep} bytes"), &valid[..keep]);
    }
    let after = vm("VmPeak:");
    drop(ballast);
    std::panic::set_hook(hook);

    assert!(
        panicked.is_empty(),
        "{} of {cases} cases panicked, first: {:?}",
        panicked.len(),
        &panicked[..panicked.len().min(5)]
    );
    // A decoded patch holds about its wire size again; 16× the stream
    // plus 1 MiB of allocator slack leaves room for that and for nothing
    // resembling an unchecked size field.
    match (before, after) {
        (Some(before), Some(after)) => {
            let budget = 16 * valid.len() as u64 + (1 << 20);
            assert!(
                after - before <= budget,
                "peak virtual size grew by {} bytes decoding {}-byte streams",
                after - before,
                valid.len()
            );
        }
        _ => eprintln!("no /proc/self/status: allocation bound not checked"),
    }
}
