//! The result cache: completed artifacts keyed by content-addressed job
//! hash, bounded by a capacity with least-recently-used eviction. Because
//! runs are deterministic, a hit is *bit-identical* to recomputation —
//! the fidelity test in `tests/serve_cache.rs` pins exactly that.

use crate::job::{fnv1a64, JobKey};
use std::collections::BTreeMap;
use std::rc::Rc;

/// What a completed simulation leaves behind.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifacts {
    /// Named scalar results (field norms, final state summaries), in a
    /// fixed per-workload order.
    pub norms: Vec<(String, f64)>,
    /// Digest of the run (norm bits + checkpoint bytes + step count) —
    /// a compact fingerprint clients can compare across runs.
    pub transcript_digest: String,
    /// Serialized SAMR state, when the job requested a checkpoint and
    /// the workload supports it.
    pub checkpoint: Option<Vec<u8>>,
    /// Macro steps the run executed.
    pub steps: u64,
}

impl Artifacts {
    /// Build the digest from the other fields (call after filling them).
    pub fn seal(mut self) -> Self {
        let mut bytes = Vec::new();
        for (name, v) in &self.norms {
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        if let Some(ck) = &self.checkpoint {
            bytes.extend_from_slice(ck);
        }
        bytes.extend_from_slice(&self.steps.to_le_bytes());
        self.transcript_digest = format!("{:016x}", fnv1a64(0xcbf2_9ce4_8422_2325, &bytes));
        self
    }

    /// Look up one norm by name.
    pub fn norm(&self, name: &str) -> Option<f64> {
        self.norms.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Counters the cache exposes through [`crate::ShardStat`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries ever inserted.
    pub insertions: u64,
}

struct Slot {
    artifacts: Rc<Artifacts>,
    last_used: u64,
}

/// Capacity-bounded LRU cache of completed results.
pub struct ResultCache {
    capacity: usize,
    map: BTreeMap<JobKey, Slot>,
    use_clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl ResultCache {
    /// Empty cache holding at most `capacity` results.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            map: BTreeMap::new(),
            use_clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: JobKey) -> Option<Rc<Artifacts>> {
        self.use_clock += 1;
        match self.map.get_mut(&key) {
            Some(slot) => {
                slot.last_used = self.use_clock;
                self.hits += 1;
                Some(slot.artifacts.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) the result for `key`, evicting the least
    /// recently used entry when at capacity.
    pub fn insert(&mut self, key: JobKey, artifacts: Rc<Artifacts>) {
        self.use_clock += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.insertions += 1;
        self.map.insert(
            key,
            Slot {
                artifacts,
                last_used: self.use_clock,
            },
        );
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.map.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> JobKey {
        JobKey { hi: n, lo: n }
    }

    fn art(v: f64) -> Rc<Artifacts> {
        Rc::new(
            Artifacts {
                norms: vec![("v".into(), v)],
                transcript_digest: String::new(),
                checkpoint: None,
                steps: 1,
            }
            .seal(),
        )
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert(key(1), art(1.0));
        c.insert(key(2), art(2.0));
        assert!(c.get(key(1)).is_some()); // 1 is now the most recent
        c.insert(key(3), art(3.0)); // evicts 2
        assert!(c.get(key(2)).is_none());
        assert!(c.get(key(1)).is_some());
        assert!(c.get(key(3)).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
    }

    #[test]
    fn digest_covers_norms_checkpoint_and_steps() {
        let a = Artifacts {
            norms: vec![("T".into(), 1000.0)],
            transcript_digest: String::new(),
            checkpoint: Some(vec![1, 2, 3]),
            steps: 4,
        }
        .seal();
        let b = Artifacts {
            norms: vec![("T".into(), 1000.0)],
            transcript_digest: String::new(),
            checkpoint: Some(vec![1, 2, 4]),
            steps: 4,
        }
        .seal();
        assert_ne!(a.transcript_digest, b.transcript_digest);
        assert_eq!(a.norm("T"), Some(1000.0));
    }
}
