//! `cca_serve` — batch front-end for the simulation job server.
//!
//! Feeds a request stream to a one-shard [`cca_serve::Fleet`] and prints
//! one outcome line per request plus the fleet statistics table. Modes:
//!
//! ```text
//! cargo run --example cca_serve -- --demo          # built-in showcase stream
//! cargo run --example cca_serve -- --loadgen [N]   # deterministic loadgen, N jobs
//! cargo run --example cca_serve -- --fleet [N]     # multi-tenant fleet loadgen, N shards
//! cargo run --example cca_serve -- requests.txt    # one request per line
//! ```
//!
//! Request-file syntax (`#` starts a comment):
//!
//! ```text
//! ign T0=1000 P0=101325 t_end=5e-6 chunks=4 priority=2
//! rd  nx=10 steps=2 levels=2 t_hot=1400 chem=1 checkpoint=1 budget=3
//! ```
//!
//! Everything is deterministic: scheduling runs on a virtual tick clock,
//! so repeated invocations print byte-identical output.

use cca_serve::{
    run_fleet_loadgen, run_loadgen, Fleet, FleetConfig, FleetLoadgenConfig, IgnitionSpec,
    JobOutcome, LoadgenConfig, RdSpec, SimJob, SubmitError,
};
use std::process::ExitCode;

/// Parse one `key=value` token into `(key, value)`.
fn kv(tok: &str) -> Result<(&str, &str), String> {
    tok.split_once('=')
        .ok_or_else(|| format!("expected key=value, got `{tok}`"))
}

fn num(v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .map_err(|e| format!("bad number `{v}`: {e}"))
}

/// Parse one request line into a job.
fn parse_request(line: &str) -> Result<SimJob, String> {
    let mut toks = line.split_whitespace();
    let head = toks.next().ok_or("empty request")?;
    let mut priority = 0u8;
    let mut budget = None;
    let mut checkpoint = false;
    let mut job = match head {
        "ign" => {
            let mut spec = IgnitionSpec::default();
            for tok in toks {
                let (k, v) = kv(tok)?;
                match k {
                    "T0" => spec.t0 = num(v)?,
                    "P0" => spec.p0 = num(v)?,
                    "t_end" => spec.t_end = num(v)?,
                    "chunks" => spec.chunks = num(v)? as u64,
                    "reduced" => spec.reduced = num(v)? != 0.0,
                    "priority" => priority = num(v)? as u8,
                    "budget" => budget = Some(num(v)? as u64),
                    other => return Err(format!("unknown ign key `{other}`")),
                }
            }
            spec.job()
        }
        "rd" => {
            let mut spec = RdSpec::default();
            for tok in toks {
                let (k, v) = kv(tok)?;
                match k {
                    "nx" => spec.nx = num(v)? as i64,
                    "steps" => spec.n_steps = num(v)? as usize,
                    "levels" => spec.max_levels = num(v)? as usize,
                    "t_hot" => spec.t_hot = num(v)?,
                    "chem" => spec.with_chemistry = num(v)? != 0.0,
                    "checkpoint" => checkpoint = num(v)? != 0.0,
                    "priority" => priority = num(v)? as u8,
                    "budget" => budget = Some(num(v)? as u64),
                    other => return Err(format!("unknown rd key `{other}`")),
                }
            }
            spec.job()
        }
        other => return Err(format!("unknown workload `{other}` (want ign|rd)")),
    };
    job.priority = priority;
    job.step_budget = budget;
    job.want_checkpoint = checkpoint;
    Ok(job)
}

/// The showcase stream: completion, a coalesced duplicate, a cache hit,
/// a priority jump, and a step-budget deadline.
fn demo_requests() -> Vec<String> {
    [
        "ign T0=1050 t_end=4e-6 chunks=4",
        "ign T0=1050 t_end=4e-6 chunks=4", // duplicate: coalesces onto the first
        "rd  nx=8 steps=2 t_hot=1350",
        "ign T0=1200 t_end=4e-6 chunks=4 priority=5", // jumps the queue
        "rd  nx=8 steps=6 t_hot=1400 budget=2",       // deadline: stopped after 2 steps
        "ign T0=1050 t_end=4e-6 chunks=4",            // resubmission: served from cache
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Submit every request, drain the fleet, print outcome lines + stats.
fn serve(requests: &[String]) -> ExitCode {
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    });
    let mut accepted = Vec::new();
    for (lineno, raw) in requests.iter().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let job = match parse_request(line) {
            Ok(job) => job,
            Err(e) => {
                eprintln!("request {}: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        };
        match fleet.submit(job) {
            Ok(id) => accepted.push((id, line.to_string())),
            Err(e @ SubmitError::QueueFull { .. }) => {
                println!("request {:>3} rejected: {e}", lineno + 1);
            }
            Err(SubmitError::Admission { report }) => {
                eprintln!("request {} rejected by admission:\n{report}", lineno + 1);
                return ExitCode::FAILURE;
            }
            Err(e @ SubmitError::Deadline { .. }) => {
                println!("request {:>3} rejected: {e}", lineno + 1);
            }
        }
    }
    fleet.run_until_idle();

    for (id, line) in &accepted {
        let Some(outcome) = fleet.outcome(*id) else {
            println!("job {id:>3} LOST ({line}) -- this is a bug");
            continue;
        };
        let detail = match outcome {
            JobOutcome::Completed {
                artifacts,
                wait_ticks,
                run_ticks,
                attempts,
                session,
            } => format!(
                "wait {wait_ticks}t run {run_ticks}t attempt {attempts} session {session} digest {}",
                artifacts.transcript_digest
            ),
            JobOutcome::Cached {
                artifacts,
                wait_ticks,
            } => format!("wait {wait_ticks}t digest {}", artifacts.transcript_digest),
            JobOutcome::Cancelled {
                reason,
                wait_ticks,
                steps,
            } => format!("after {steps} steps, wait {wait_ticks}t ({reason})"),
            JobOutcome::Failed { reason, attempts } => {
                format!("after {attempts} attempts: {reason}")
            }
        };
        println!("job {id:>3} {:<18} {detail}  [{line}]", outcome.tag());
    }
    println!();
    print!("{}", fleet.stats().render());
    ExitCode::SUCCESS
}

fn loadgen(jobs: Option<usize>) -> ExitCode {
    let mut cfg = LoadgenConfig::default();
    if let Some(n) = jobs {
        cfg.jobs = n;
    }
    let r = run_loadgen(&cfg);
    println!(
        "loadgen: {} jobs ({} duplicates) on {} sessions, queue {} / burst {}",
        r.config.jobs,
        r.duplicate_requests,
        r.config.sessions,
        r.config.queue_capacity,
        r.config.burst
    );
    println!(
        "outcomes: {} completed, {} cached, {} deadline, {} user-cancelled, {} failed",
        r.completed, r.cached, r.cancelled_deadline, r.cancelled_user, r.failed
    );
    println!(
        "backpressure: {} rejection events (all resubmitted; zero lost)",
        r.rejection_events
    );
    println!(
        "cache hit ratio {:.3} | {} ticks total | {:.3} jobs/kilotick",
        r.cache_hit_ratio, r.total_ticks, r.throughput_jobs_per_kilotick
    );
    println!();
    print!("{}", r.stats.render());
    ExitCode::SUCCESS
}

fn fleet(shards: Option<usize>) -> ExitCode {
    let mut cfg = FleetLoadgenConfig::default();
    if let Some(n) = shards {
        cfg.shards = n;
    }
    let r = run_fleet_loadgen(&cfg);
    println!(
        "fleet loadgen: {} requests over {} shards x {} sessions, burst {}",
        r.config.jobs, r.config.shards, r.config.sessions_per_shard, r.config.burst
    );
    println!(
        "outcomes: {} completed, {} cached, {} deadline-rejected, {} failed, {} lost",
        r.completed, r.cached, r.rejected_deadline, r.failed, r.lost
    );
    println!(
        "{} ticks total | {:.3} jobs/kilotick | outcome checksum {:016x}",
        r.total_ticks, r.throughput_jobs_per_kilotick, r.outcome_checksum
    );
    println!();
    print!("{}", r.stats.render());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--demo") => serve(&demo_requests()),
        Some("--loadgen") => loadgen(args.get(2).and_then(|s| s.parse().ok())),
        Some("--fleet") => fleet(args.get(2).and_then(|s| s.parse().ok())),
        Some(path) if !path.starts_with('-') => match std::fs::read_to_string(path) {
            Ok(text) => serve(&text.lines().map(String::from).collect::<Vec<_>>()),
            Err(e) => {
                eprintln!("cca_serve: cannot read {path}: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: cca_serve --demo | --loadgen [N] | --fleet [N] | REQUEST_FILE");
            ExitCode::FAILURE
        }
    }
}
