//! `cca-perfbench` — the measured wall-clock benchmark of the cca-hydro
//! workspace.
//!
//! Every other performance figure in the repository comes from a model
//! (the CPlant cluster model, the kernel roofline model, the fleet's
//! virtual ticks). This package times the real code on the host it runs
//! on. Four workloads drive the paper apps and the serve fleet through
//! their public entry points:
//!
//! * `flame` — §4.2 reaction–diffusion flame on SAMR, with chemistry;
//! * `shock` — §4.3 shock–interface run with the Godunov flux;
//! * `fleet` — 2400 seeded requests through a 2-shard serve fleet;
//! * `samr_recover` — distributed SAMR on 2 rank threads: a straight
//!   run plus a kill-and-restart drill from coordinated checkpoints.
//!
//! A run prints its end-to-end metrics (tracing off) or, with
//! `--trace 1`, its per-layer metrics, each with unit and sample count,
//! then one JSON result line. See `README.md` for the metric tables.

pub mod cli;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod stats;
pub mod timers;
pub mod trace;
pub mod workloads;
