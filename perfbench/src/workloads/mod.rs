//! The four workloads. Each `run` measures for the argument's budget,
//! checks every operation into the [`Tally`], and returns the end-to-end
//! metrics (tracing off) or the per-layer metrics (traced run).

pub mod apps;
pub mod fleet;
pub mod samr;

use crate::cli::Args;
use crate::metrics::{Metric, Tally};
use crate::stats::median;
use crate::trace::Recorder;
use std::time::{Duration, Instant};

/// Set-ups timed per call of [`setup_samples`]. Workloads call it after
/// every job, so the `setup_s` median samples the whole run rather than
/// its first milliseconds.
pub const SETUP_REPS: usize = 10;

/// Time [`SETUP_REPS`] set-ups.
pub fn setup_samples<T>(
    rec: &mut Recorder,
    layer: &'static str,
    name: &str,
    mut setup: impl FnMut() -> T,
) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let (value, secs) = rec.time(layer, name, &mut setup);
            std::hint::black_box(value);
            secs
        })
        .collect()
}

/// Run the workload `args.workload`.
pub fn run(args: &Args, rec: &mut Recorder, tally: &mut Tally) -> Vec<Metric> {
    match args.workload.as_str() {
        "flame" => apps::run(&apps::App::flames(args.seed), args, rec, tally),
        "shock" => apps::run(&apps::App::shocks(args.seed), args, rec, tally),
        "fleet" => fleet::run(args, rec, tally),
        "samr_recover" => samr::run(args, rec, tally),
        other => unreachable!("cli validated the workload name, got {other}"),
    }
}

/// The measurement budget: keep iterating until `seconds` have passed
/// and at least `min_iters` iterations ran.
pub struct Budget {
    start: Instant,
    span: Duration,
    min_iters: usize,
}

impl Budget {
    /// Budget starting now.
    pub fn new(seconds: f64, min_iters: usize) -> Self {
        Budget {
            start: Instant::now(),
            span: Duration::from_secs_f64(seconds),
            min_iters,
        }
    }

    /// Should iteration number `done` (0-based count of finished ones)
    /// run?
    pub fn more(&self, done: usize) -> bool {
        done < self.min_iters || self.start.elapsed() < self.span
    }
}

/// Samples of an untraced run. Workloads cycle their seeded inputs, and
/// each time figure is the median over every sample of the run.
#[derive(Default)]
pub struct RunSamples {
    /// Set-up times, s.
    setups: Vec<f64>,
    /// Times of the workload's primary timed unit, s.
    walls: Vec<f64>,
    /// Jobs resolved per second.
    rates: Vec<f64>,
    /// Job turnaround times, s.
    turnarounds: Vec<f64>,
    /// Peak resident memory after set-up and the first job, MB.
    rss_mb: Option<f64>,
}

impl RunSamples {
    /// Record one job: the primary unit's time `wall`, the job rate, the
    /// turnaround times and the set-up times.
    pub fn job(&mut self, wall: f64, rate: f64, turnarounds: &[f64], setups: &[f64]) {
        // Every framework a job assembles stays allocated afterwards,
        // so later readings would grow with the number of jobs that fit
        // in the time budget.
        self.rss_mb.get_or_insert_with(crate::host::peak_rss_mb);
        self.walls.push(wall);
        self.rates.push(rate);
        self.turnarounds.extend_from_slice(turnarounds);
        self.setups.extend_from_slice(setups);
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ms: Vec<f64> = self.turnarounds.iter().map(|t| t * 1e3).collect();
        vec![
            metric("setup_s", median(&self.setups), self.setups.len()),
            metric("wall_s", median(&self.walls), self.walls.len()),
            metric("jobs_per_s", median(&self.rates), self.rates.len()),
            metric("turnaround_p50_ms", median(&ms), ms.len()),
            metric("peak_rss_mb", self.rss_mb.unwrap_or_default(), 1),
        ]
    }
}

/// Per-layer figures of one traced iteration.
pub type Row = Vec<(&'static str, f64)>;

/// The per-layer metrics of a traced run: per-name medians over the
/// traced iterations' rows, and the tracing overhead — the median traced
/// time of the primary unit minus the median untraced time.
pub fn per_layer(rows: &[Row], untraced: &[f64], traced: &[f64]) -> Vec<Metric> {
    let mut out: Vec<Metric> = rows
        .first()
        .map(|first| {
            first
                .iter()
                .enumerate()
                .map(|(k, (name, _))| {
                    let values: Vec<f64> = rows.iter().map(|r| r[k].1).collect();
                    metric(name, median(&values), values.len())
                })
                .collect()
        })
        .unwrap_or_default();
    out.push(metric(
        "bench.trace_overhead_s",
        median(traced) - median(untraced),
        traced.len(),
    ));
    out
}

/// A metric value with its sample count.
pub fn metric(name: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        value,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use std::collections::BTreeSet;

    #[test]
    fn end_to_end_names_match_the_registry() {
        let names: Vec<_> = RunSamples::default()
            .end_to_end()
            .iter()
            .map(|m| m.name)
            .collect();
        let registry: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, registry);
    }

    #[test]
    fn every_per_layer_metric_is_emitted_by_some_workload() {
        let mut emitted = BTreeSet::new();
        for row in [apps::sample_row(), fleet::sample_row(), samr::sample_row()] {
            for (name, _) in row {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == name),
                    "{name} is not registered"
                );
                emitted.insert(name);
            }
        }
        emitted.extend(per_layer(&[], &[], &[]).iter().map(|m| m.name));
        let registry: BTreeSet<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(emitted, registry);
    }

    #[test]
    fn run_samples_take_plain_medians() {
        let mut run = RunSamples::default();
        run.job(1.0, 2.0, &[0.5, 1.5], &[3.0, 1.0, 2.0]);
        run.job(9.0, 1.0, &[2.5], &[]);
        run.job(2.0, 3.0, &[], &[]);
        run.job(4.0, 4.0, &[], &[]);
        let m = run.end_to_end();
        let value = |name: &str| m.iter().find(|x| x.name == name).expect("emitted");
        assert_eq!(value("setup_s").value, 2.0);
        assert_eq!((value("wall_s").value, value("wall_s").samples), (3.0, 4));
        assert_eq!(value("jobs_per_s").value, 2.5);
        assert_eq!(value("turnaround_p50_ms").value, 1500.0);
        assert!(value("peak_rss_mb").value > 0.0);
    }

    #[test]
    fn per_layer_takes_row_medians_and_the_tracing_overhead() {
        let rows = vec![
            vec![("mesh.regrid_s", 1.0)],
            vec![("mesh.regrid_s", 5.0)],
            vec![("mesh.regrid_s", 2.0)],
        ];
        let m = per_layer(&rows, &[1.0, 1.0], &[1.5, 1.25]);
        assert_eq!(m[0], metric("mesh.regrid_s", 2.0, 3));
        assert_eq!(m[1], metric("bench.trace_overhead_s", 0.375, 2));
    }
}
