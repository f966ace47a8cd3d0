//! The metric and workload registry (the single source of
//! `BENCHMARK.json`), and the result line.

use crate::trace::json_string;
use std::fmt::Write as _;

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// `--workload` name.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// The workloads, in manifest order.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "flame",
        why: "SAMR flame with implicit chemistry on 2 executor workers: chemistry, BDF and executor changes show here; diffusion-kernel changes should not",
    },
    WorkloadSpec {
        name: "shock",
        why: "serial Godunov shock-interface run: flux, ghost-fill and regrid changes show here; chemistry changes should not",
    },
    WorkloadSpec {
        name: "fleet",
        why: "2400 seeded requests through 2 serve shards: the only workload with queueing, caching and slicing; the flux kernel is never called",
    },
    WorkloadSpec {
        name: "samr_recover",
        why: "distributed SAMR on 2 rank threads plus a kill-and-restart drill: the only workload with inter-rank comm, distributed regrid and checkpoint restore",
    },
];

/// One end-to-end metric (measured with tracing off, gated by `bound`).
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric (measured in the traced run, no bound).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, `layer.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// End-to-end metrics. Every workload reports every one; what a "job"
/// is differs per workload (see `README.md`).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("turnaround_p50_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Per-layer metrics. Every traced run reports every one; a layer a
/// workload never enters reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    layer("apps.unattributed_frac", "frac", "lower"),
    layer("bench.trace_overhead_s", "s", "lower"),
    // flame
    layer("components.chem_advance_s", "s", "lower"),
    layer("core.executor_busy_max_s", "s", "lower"),
    layer("core.executor_imbalance", "ratio", "lower"),
    layer("solvers.rkc_advance_self_s", "s", "lower"),
    layer("components.diffusion_rhs_cells_per_s", "cells/s", "higher"),
    layer("core.scratch_alloc_events", "count", "lower"),
    // flame and shock
    layer("mesh.fill_ghosts_s", "s", "lower"),
    layer("mesh.regrid_s", "s", "lower"),
    // shock
    layer("hydro.flux_s", "s", "lower"),
    layer("hydro.flux_cells_per_s", "cells/s", "higher"),
    layer("solvers.rk2_self_s", "s", "lower"),
    layer("mesh.fill_ghosts_calls", "count", "lower"),
    layer("apps.steps", "count", "lower"),
    // fleet
    layer("serve.submit_us_p50", "us", "lower"),
    layer("serve.submit_us_p99", "us", "lower"),
    layer("serve.step_s", "s", "lower"),
    layer("serve.steps", "count", "lower"),
    layer("serve.cache_hit_frac", "frac", "higher"),
    layer("serve.coalesced", "count", "higher"),
    layer("serve.rejected_full", "count", "lower"),
    layer("serve.steals", "count", "higher"),
    layer("serve.migrations", "count", "lower"),
    layer("serve.preemptions", "count", "lower"),
    layer("serve.queue_wait_p99_ticks", "ticks", "lower"),
    layer("serve.turnaround_p99_ms", "ms", "lower"),
    layer("serve.turnaround_p99_ticks", "ticks", "lower"),
    layer("serve.ns_per_tick", "ns/tick", "lower"),
    // samr_recover
    layer("apps.doomed_run_s", "s", "lower"),
    layer("apps.restart_run_s", "s", "lower"),
    layer("ckpt.encode_mb_per_s", "MB/s", "higher"),
    layer("ckpt.decode_mb_per_s", "MB/s", "higher"),
    layer("ckpt.set_bytes", "bytes", "lower"),
    layer("ckpt.sets", "count", "lower"),
    layer("ckpt.overhead_frac", "frac", "lower"),
    layer("comm.messages", "count", "lower"),
    layer("comm.bytes", "bytes", "lower"),
    layer("comm.messages_coalesced", "count", "higher"),
    layer("mesh.regrids", "count", "lower"),
    layer("mesh.migrations", "count", "lower"),
    layer("mesh.fine_cells", "count", "lower"),
    layer("comm.model_over_measured", "ratio", "higher"),
];

/// Seconds one benchmark run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 30;

/// Unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The names a run must emit: every end-to-end metric, or with tracing
/// every per-layer metric.
pub fn expected_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// The `BENCHMARK.json` manifest.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_string(w.name),
            json_string(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Registered metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Operations attempted and failed during a run, with the first few
/// failure messages.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted (solves, requests, runs).
    pub attempted: u64,
    /// Operations that errored, failed a check, or were lost.
    pub failed: u64,
    /// Messages of the first failures.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; `problem` is `Some(why)` if it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }
}

/// The final JSON result line.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            m.value,
            json_string(unit_of(m.name).expect("registered metric"))
        );
    }
    out.push_str("}}");
    out
}
