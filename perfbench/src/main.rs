//! Benchmark entry point. Run from the checkout root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flame --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the host fingerprint, one line per metric (value, unit, sample
//! count), the failure tally, and last a one-line JSON result. The traced
//! run (`--trace 1`) also writes its spans as Chrome trace-event JSON
//! under `.bench_out/`.

use cca_perfbench::cli::{self, Command};
use cca_perfbench::host::{self, Fingerprint};
use cca_perfbench::metrics::{self, Metric, Tally};
use cca_perfbench::trace::{chrome_trace_json, Recorder};
use cca_perfbench::workloads;
use std::path::Path;
use std::process::ExitCode;

/// Where run artifacts (traces) go, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Manifest) => {
            print!("{}", metrics::manifest_json());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(args)) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let knobs = host::forbidden_knobs(|k| std::env::var(k).ok());
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run: {} set; these knobs shift kernel behaviour process-wide, so results would not compare with a baseline",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }

    let root = Path::new(".");
    let host = Fingerprint::probe(root);
    println!("{}", host.render());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut rec = Recorder::new(false);
    let mut tally = Tally::default();
    let mut emitted = workloads::run(&args, &mut rec, &mut tally);

    // A layer the workload never enters reads 0; a missing end-to-end
    // metric is a bug in this benchmark.
    let expected = metrics::expected_names(args.trace);
    let mut ordered: Vec<Metric> = Vec::with_capacity(expected.len());
    for name in &expected {
        match emitted.iter().position(|m| m.name == *name) {
            Some(k) => ordered.push(emitted.swap_remove(k)),
            None if args.trace => ordered.push(Metric {
                name,
                value: 0.0,
                samples: 0,
            }),
            None => panic!("workload {} did not report {name}", args.workload),
        }
    }
    assert!(emitted.is_empty(), "unregistered metrics: {emitted:?}");
    for m in &mut ordered {
        if !m.value.is_finite() {
            tally.op(Some(format!("{} measured as {}", m.name, m.value)));
            m.value = 0.0;
        }
    }

    for m in &ordered {
        println!(
            "metric {:<40} {:>16.6} {:<8} (n={})",
            m.name,
            m.value,
            metrics::unit_of(m.name).expect("registered"),
            m.samples
        );
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ({} of {} operations)",
        tally.failed, tally.attempted
    );
    for f in &tally.failures {
        println!("FAILED: {f}");
    }

    if args.trace {
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let meta = [
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("host", host.render()),
        ];
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|_| std::fs::write(&path, chrome_trace_json(rec.spans(), &meta)));
        match written {
            Ok(()) => println!("trace {} ({} spans)", path.display(), rec.spans().len()),
            Err(e) => tally.op(Some(format!("writing {}: {e}", path.display()))),
        }
    }

    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", metrics::result_line(correct, &tally, &ordered));
    ExitCode::SUCCESS
}
