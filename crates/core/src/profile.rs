//! Per-component performance instrumentation — the reproduction of the
//! paper's future-work item (4): "By using TAU, we intend to characterize
//! the performance characteristics of individual components and their
//! assemblies."
//!
//! A [`Profiler`] is a cheap shared registry of named timers. The
//! framework owns one and hands it to every component through its
//! [`crate::Services`]; components bracket their port bodies with
//! [`Profiler::scope`] guards. [`Profiler::report`] renders the
//! per-component table (calls, total time, mean time), the assembly-level
//! view TAU would give.
//!
//! Beyond the TAU-style means, every timer keeps a bounded **ring-buffer
//! sample reservoir** (the most recent [`SAMPLE_CAPACITY`] durations), so
//! latency *tails* — max, p50/p95/p99 — are available through
//! [`Profiler::percentiles`] and the report. Serving layers need tails,
//! not means: one slow job hiding behind a flat average is exactly the
//! pathology a mean cannot show.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Number of most-recent samples each timer retains for percentile
/// queries. Old samples are overwritten ring-buffer style, so long runs
/// report the *recent* latency distribution at O(1) memory per timer.
pub const SAMPLE_CAPACITY: usize = 1024;

/// Accumulated statistics of one named timer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimerStat {
    /// Number of completed scopes.
    pub calls: u64,
    /// Total seconds inside the scope.
    pub total_secs: f64,
    /// Longest single scope, seconds.
    pub max_secs: f64,
    /// Scratch-pool misses (real heap allocations, see
    /// [`crate::scratch`]) attributed to this scope. A hot loop that
    /// reports a non-zero steady-state value here is re-allocating
    /// workspaces it should be reusing.
    pub alloc_events: u64,
    /// Mesh cells the scope has swept, accumulated by kernels through
    /// [`Profiler::add_cells`]. Together with `total_secs` this yields
    /// the throughput column (cells/s) in [`Profiler::report`] — the
    /// figure of merit kernel work is judged by.
    pub cells_processed: u64,
}

impl TimerStat {
    /// Throughput in cells per second, or `None` until the timer has
    /// both swept cells and spent measurable time.
    pub fn cells_per_sec(&self) -> Option<f64> {
        if self.cells_processed > 0 && self.total_secs > 0.0 {
            Some(self.cells_processed as f64 / self.total_secs)
        } else {
            None
        }
    }
}

/// One timer's full record: the running totals plus the sample ring.
#[derive(Default)]
struct TimerRecord {
    stat: TimerStat,
    /// Ring buffer of the most recent samples; `stat.calls % capacity`
    /// marks the overwrite cursor once the ring is full.
    samples: Vec<f64>,
}

impl TimerRecord {
    fn record(&mut self, secs: f64, alloc_events: u64) {
        self.stat.alloc_events += alloc_events;
        if self.samples.len() < SAMPLE_CAPACITY {
            self.samples.push(secs);
        } else {
            let slot = (self.stat.calls as usize) % SAMPLE_CAPACITY;
            self.samples[slot] = secs;
        }
        self.stat.calls += 1;
        self.stat.total_secs += secs;
        if secs > self.stat.max_secs {
            self.stat.max_secs = secs;
        }
    }
}

#[derive(Default)]
struct ProfilerState {
    timers: BTreeMap<String, TimerRecord>,
    enabled: bool,
}

/// Shared timing registry. Cloning shares the underlying state.
#[derive(Clone, Default)]
pub struct Profiler {
    state: Rc<RefCell<ProfilerState>>,
}

impl Profiler {
    /// New, disabled profiler (scopes cost one branch while disabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn timing on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.state.borrow_mut().enabled = enabled;
    }

    /// Is timing on?
    pub fn is_enabled(&self) -> bool {
        self.state.borrow().enabled
    }

    /// Start a scope named `component.port`; the returned guard records
    /// elapsed time when dropped. Returns `None` (no overhead) while
    /// disabled.
    pub fn scope(&self, name: &str) -> Option<ProfileScope> {
        if !self.is_enabled() {
            return None;
        }
        Some(ProfileScope {
            profiler: self.clone(),
            name: name.to_string(),
            start: Instant::now(),
            alloc_start: crate::scratch::thread_alloc_events(),
        })
    }

    /// Directly record an externally measured duration.
    pub fn record(&self, name: &str, secs: f64) {
        self.record_with_allocs(name, secs, 0);
    }

    /// Record a duration together with the number of scratch-pool misses
    /// (heap allocations) the region incurred — what [`ProfileScope`]
    /// reports automatically from the [`crate::scratch`] counter delta.
    pub fn record_with_allocs(&self, name: &str, secs: f64, alloc_events: u64) {
        let mut st = self.state.borrow_mut();
        st.timers
            .entry(name.to_string())
            .or_default()
            .record(secs, alloc_events);
    }

    /// Attribute `cells` swept mesh cells to the named timer. Kernel
    /// call sites call this next to their [`Profiler::scope`] guard so
    /// the report can derive per-scope throughput. No-op while disabled,
    /// mirroring `scope`.
    pub fn add_cells(&self, name: &str, cells: u64) {
        let mut st = self.state.borrow_mut();
        if !st.enabled {
            return;
        }
        st.timers
            .entry(name.to_string())
            .or_default()
            .stat
            .cells_processed += cells;
    }

    /// Snapshot of one timer.
    pub fn stat(&self, name: &str) -> Option<TimerStat> {
        self.state.borrow().timers.get(name).map(|r| r.stat)
    }

    /// Snapshot of everything, name-sorted.
    pub fn stats(&self) -> Vec<(String, TimerStat)> {
        self.state
            .borrow()
            .timers
            .iter()
            .map(|(k, v)| (k.clone(), v.stat))
            .collect()
    }

    /// Percentiles of one timer's sample reservoir by nearest-rank, e.g.
    /// `percentiles("a.go", &[0.50, 0.95, 0.99])`. Quantiles outside
    /// `[0, 1]` are clamped. `None` if the timer has never fired. The
    /// reservoir holds the most recent [`SAMPLE_CAPACITY`] samples, so on
    /// long runs this is the *recent* distribution.
    pub fn percentiles(&self, name: &str, quantiles: &[f64]) -> Option<Vec<f64>> {
        let st = self.state.borrow();
        let rec = st.timers.get(name)?;
        if rec.samples.is_empty() {
            return None;
        }
        let mut sorted = rec.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        Some(
            quantiles
                .iter()
                .map(|q| {
                    let q = q.clamp(0.0, 1.0);
                    // Nearest-rank: smallest sample with cumulative
                    // frequency >= q.
                    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                    sorted[rank - 1]
                })
                .collect(),
        )
    }

    /// Merge every timer of `other` into this profiler: counters add,
    /// maxima take the larger value, and the sample reservoirs
    /// concatenate under the usual ring-buffer bound — so percentile
    /// queries on the merged profiler see both sides' samples.
    ///
    /// This is the multi-shard aggregation primitive: each serve shard
    /// records into its own profiler, and a fleet-level snapshot absorbs
    /// the shard profilers into a fresh one. Because absorption reads
    /// `other` without modifying it, and the destination starts empty,
    /// each sample is counted exactly once per snapshot — retried jobs
    /// are not double-counted (their timers only fire on the terminal
    /// attempt) and repeated snapshots do not compound.
    pub fn absorb(&self, other: &Profiler) {
        if Rc::ptr_eq(&self.state, &other.state) {
            return; // self-absorption would double every counter
        }
        let src = other.state.borrow();
        let mut dst = self.state.borrow_mut();
        for (name, rec) in &src.timers {
            let d = dst.timers.entry(name.clone()).or_default();
            d.stat.total_secs += rec.stat.total_secs;
            d.stat.alloc_events += rec.stat.alloc_events;
            d.stat.cells_processed += rec.stat.cells_processed;
            if rec.stat.max_secs > d.stat.max_secs {
                d.stat.max_secs = rec.stat.max_secs;
            }
            // Replay the source samples in recording order so the merged
            // reservoir keeps the same most-recent-window semantics.
            for &s in &rec.samples {
                if d.samples.len() < SAMPLE_CAPACITY {
                    d.samples.push(s);
                } else {
                    let slot = (d.stat.calls as usize) % SAMPLE_CAPACITY;
                    d.samples[slot] = s;
                }
                d.stat.calls += 1;
            }
            // Calls beyond the reservoir window (long runs) still count.
            d.stat.calls += rec.stat.calls - rec.samples.len() as u64;
        }
    }

    /// Forget all recorded data (keeps the enabled flag).
    pub fn reset(&self) {
        self.state.borrow_mut().timers.clear();
    }

    /// The TAU-style report: one row per timer, sorted by total time
    /// descending. Columns: calls, total, mean, then the tail — max and
    /// p50/p95/p99 from the sample reservoir.
    pub fn report(&self) -> String {
        let mut rows = self.stats();
        rows.sort_by(|a, b| {
            b.1.total_secs
                .partial_cmp(&a.1.total_secs)
                .expect("finite times")
        });
        let mut out = String::from(
            "=== component profile ===\n\
             timer                                    calls      total[s]    mean[us]     max[us]     p50[us]     p95[us]     p99[us]      allocs       cells     cells/s\n",
        );
        for (name, t) in rows {
            let mean_us = if t.calls > 0 {
                1e6 * t.total_secs / t.calls as f64
            } else {
                0.0
            };
            let p = self
                .percentiles(&name, &[0.50, 0.95, 0.99])
                .unwrap_or_else(|| vec![0.0; 3]);
            let rate = match t.cells_per_sec() {
                Some(r) => format!("{r:>11.3e}"),
                None => format!("{:>11}", "-"),
            };
            out.push_str(&format!(
                "{name:<40} {calls:>7}  {total:>12.6}  {mean_us:>10.2}  {max_us:>10.2}  {p50:>10.2}  {p95:>10.2}  {p99:>10.2}  {allocs:>10}  {cells:>10}  {rate}\n",
                calls = t.calls,
                total = t.total_secs,
                max_us = 1e6 * t.max_secs,
                p50 = 1e6 * p[0],
                p95 = 1e6 * p[1],
                p99 = 1e6 * p[2],
                allocs = t.alloc_events,
                cells = t.cells_processed,
            ));
        }
        out
    }
}

/// RAII guard created by [`Profiler::scope`].
pub struct ProfileScope {
    profiler: Profiler,
    name: String,
    start: Instant,
    /// Scratch-pool miss counter at scope entry; the delta at drop is the
    /// region's allocation count.
    alloc_start: u64,
}

impl Drop for ProfileScope {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        let allocs = crate::scratch::thread_alloc_events().saturating_sub(self.alloc_start);
        self.profiler.record_with_allocs(&self.name, secs, allocs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::new();
        {
            let _g = p.scope("x");
        }
        assert!(p.stat("x").is_none());
    }

    #[test]
    fn scopes_accumulate() {
        let p = Profiler::new();
        p.set_enabled(true);
        for _ in 0..3 {
            let _g = p.scope("comp.port");
        }
        let s = p.stat("comp.port").unwrap();
        assert_eq!(s.calls, 3);
        assert!(s.total_secs >= 0.0);
        assert!(s.max_secs >= 0.0);
    }

    #[test]
    fn record_and_report() {
        let p = Profiler::new();
        p.set_enabled(true);
        p.record("a.go", 0.25);
        p.record("a.go", 0.75);
        p.record("b.rhs", 0.1);
        let s = p.stat("a.go").unwrap();
        assert_eq!(s.calls, 2);
        assert!((s.total_secs - 1.0).abs() < 1e-12);
        assert!((s.max_secs - 0.75).abs() < 1e-12);
        let report = p.report();
        // Sorted by total time: a.go first.
        let a_pos = report.find("a.go").unwrap();
        let b_pos = report.find("b.rhs").unwrap();
        assert!(a_pos < b_pos, "{report}");
        assert!(report.contains("p99[us]"), "{report}");
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = Profiler::new();
        p.set_enabled(true);
        // 100 samples: 1ms .. 100ms.
        for k in 1..=100 {
            p.record("t", k as f64 * 1e-3);
        }
        let q = p.percentiles("t", &[0.50, 0.95, 0.99, 1.0]).unwrap();
        assert!((q[0] - 0.050).abs() < 1e-12, "{q:?}");
        assert!((q[1] - 0.095).abs() < 1e-12, "{q:?}");
        assert!((q[2] - 0.099).abs() < 1e-12, "{q:?}");
        assert!((q[3] - 0.100).abs() < 1e-12, "{q:?}");
        assert!(p.percentiles("ghost", &[0.5]).is_none());
    }

    #[test]
    fn reservoir_overwrites_oldest_samples() {
        let p = Profiler::new();
        p.set_enabled(true);
        // Overfill the ring: first SAMPLE_CAPACITY samples are slow (1s),
        // the next SAMPLE_CAPACITY are fast (1ms). Only fast ones remain.
        for _ in 0..SAMPLE_CAPACITY {
            p.record("t", 1.0);
        }
        for _ in 0..SAMPLE_CAPACITY {
            p.record("t", 1e-3);
        }
        let q = p.percentiles("t", &[1.0]).unwrap();
        assert!((q[0] - 1e-3).abs() < 1e-12, "stale sample survived: {q:?}");
        // Totals still cover every call, and max remembers the slow era.
        let s = p.stat("t").unwrap();
        assert_eq!(s.calls, 2 * SAMPLE_CAPACITY as u64);
        assert!((s.max_secs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_merges_counters_and_reservoirs() {
        let a = Profiler::new();
        let b = Profiler::new();
        for k in 1..=50 {
            a.record("t", k as f64);
        }
        for k in 51..=100 {
            b.record("t", k as f64);
        }
        b.record("b.only", 7.0);
        let merged = Profiler::new();
        merged.absorb(&a);
        merged.absorb(&b);
        let s = merged.stat("t").unwrap();
        assert_eq!(s.calls, 100);
        assert!((s.total_secs - 5050.0).abs() < 1e-9);
        assert!((s.max_secs - 100.0).abs() < 1e-12);
        // Percentiles see both sides' samples.
        let q = merged.percentiles("t", &[0.50, 0.99]).unwrap();
        assert!((q[0] - 50.0).abs() < 1e-12, "{q:?}");
        assert!((q[1] - 99.0).abs() < 1e-12, "{q:?}");
        assert_eq!(merged.stat("b.only").unwrap().calls, 1);
        // Self-absorption is a no-op, not a doubling.
        merged.absorb(&merged.clone());
        assert_eq!(merged.stat("t").unwrap().calls, 100);
        // Sources are untouched: a second snapshot counts once again.
        let again = Profiler::new();
        again.absorb(&a);
        assert_eq!(again.stat("t").unwrap().calls, 50);
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let p = Profiler::new();
        p.set_enabled(true);
        p.record("x", 1.0);
        p.reset();
        assert!(p.stat("x").is_none());
        assert!(p.is_enabled());
    }

    #[test]
    fn scopes_attribute_scratch_alloc_events() {
        let _lock = crate::scratch::test_guard();
        let p = Profiler::new();
        p.set_enabled(true);
        crate::scratch::clear_thread_pools();
        let pooling_was = crate::scratch::pooling_enabled();
        crate::scratch::set_pooling(true);
        {
            let _g = p.scope("hot.loop");
            let _buf = crate::scratch::take_f64(64); // cold pool: one miss
        }
        {
            let _g = p.scope("hot.loop");
            let _buf = crate::scratch::take_f64(64); // warm pool: no miss
        }
        crate::scratch::set_pooling(pooling_was);
        let s = p.stat("hot.loop").unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.alloc_events, 1, "only the cold checkout allocates");
        let report = p.report();
        assert!(report.contains("allocs"), "{report}");
    }

    #[test]
    fn cells_accumulate_and_derive_throughput() {
        let p = Profiler::new();
        p.add_cells("k.rhs", 100); // disabled: dropped, mirroring scope()
        p.set_enabled(true);
        p.record("k.rhs", 0.5);
        p.add_cells("k.rhs", 1_000);
        p.add_cells("k.rhs", 1_000);
        let s = p.stat("k.rhs").unwrap();
        assert_eq!(s.cells_processed, 2_000);
        let rate = s.cells_per_sec().unwrap();
        assert!((rate - 4_000.0).abs() < 1e-9, "rate = {rate}");
        let report = p.report();
        assert!(report.contains("cells/s"), "{report}");
        assert!(report.contains("2000"), "{report}");
        // A timer with time but no cells renders a dash, not a rate.
        p.record("idle", 0.1);
        assert!(p.stat("idle").unwrap().cells_per_sec().is_none());
    }

    #[test]
    fn clones_share_state() {
        let p = Profiler::new();
        p.set_enabled(true);
        let q = p.clone();
        q.record("shared", 0.5);
        assert_eq!(p.stat("shared").unwrap().calls, 1);
    }
}
