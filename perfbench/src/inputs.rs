//! Seeded input generation. Every workload input is a pure function of
//! the `--seed` argument; the programs under test receive only these
//! generated inputs.

use cca_apps::reaction_diffusion::RdConfig;
use cca_apps::samr::SamrConfig;
use cca_apps::shock_interface::ShockConfig;
use cca_ckpt::FaultPlan;
use cca_serve::FleetLoadgenConfig;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seeded inputs one run cycles through, so a run's figures average over
/// several draws rather than resting on one.
pub const INPUTS_PER_RUN: usize = 8;

/// Executor workers of the flame run.
pub const FLAME_WORKERS: usize = 2;
/// Executor workers of the shock run (the serial kernel baseline).
pub const SHOCK_WORKERS: usize = 1;
/// Requests per fleet pass.
pub const FLEET_REQUESTS: usize = 2400;

/// `flame`: the `RdConfig` defaults with the hot-spot peak temperature
/// drawn from 1380–1420 K.
pub fn flame_configs(seed: u64) -> Vec<RdConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..INPUTS_PER_RUN)
        .map(|_| RdConfig {
            t_hot: rng.gen_range(1380.0..1420.0),
            ..RdConfig::default()
        })
        .collect()
}

/// `shock`: the `ShockConfig` defaults with Mach drawn from 1.45–1.55
/// and the interface angle from 28–32°.
pub fn shock_configs(seed: u64) -> Vec<ShockConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..INPUTS_PER_RUN)
        .map(|_| ShockConfig {
            mach: rng.gen_range(1.45..1.55),
            angle_deg: rng.gen_range(28.0..32.0),
            ..ShockConfig::default()
        })
        .collect()
}

/// `fleet`: streams of 2400 requests from `fleet_request_stream`, each
/// with a seeded stream seed, on the default 2 shards × 2 sessions.
pub fn fleet_configs(seed: u64) -> Vec<FleetLoadgenConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..INPUTS_PER_RUN)
        .map(|_| FleetLoadgenConfig {
            jobs: FLEET_REQUESTS,
            seed: rng.next_u64(),
            ..FleetLoadgenConfig::default()
        })
        .collect()
}

/// `samr_recover`: the distributed SAMR configuration.
pub fn samr_config() -> SamrConfig {
    SamrConfig {
        nx: 256,
        patch_split: 8,
        steps: 60,
        ranks: 2,
        ckpt_interval: 6,
        ..SamrConfig::default()
    }
}

/// `samr_recover`: which rank dies, and at which step of the middle
/// third of the run.
pub fn kill_plans(seed: u64, cfg: &SamrConfig) -> Vec<FaultPlan> {
    let mut rng = StdRng::seed_from_u64(seed);
    let third = cfg.steps / 3;
    (0..INPUTS_PER_RUN)
        .map(|_| FaultPlan {
            rank: rng.gen_range(0..cfg.ranks),
            step: rng.gen_range(third..2 * third),
            mid_snapshot: false,
        })
        .collect()
}
