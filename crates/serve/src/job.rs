//! Job description and content-addressed job identity.
//!
//! A [`SimJob`] is exactly what a remote client would send a simulation
//! service: an rc-script assembling the application, plus typed parameter
//! overrides and scheduling attributes. Its *identity* — the key results
//! are cached under — is derived only from what changes the physics:
//! the workload kind, the canonicalized script, the overrides, and whether
//! a checkpoint artifact is requested. Scheduling attributes (priority,
//! step budget) and the fault-injection hook deliberately do **not**
//! enter the key: two submissions asking for the same simulation must
//! coalesce even if one is more patient than the other.

use crate::cost::LatePolicy;
use cca_analyze::commplan::CommPlan;
use cca_apps::scaling::ScalingConfig;
use std::fmt;

/// Unique per-submission identifier handed back by the fleet.
pub type JobId = u64;

/// Which stepper drives the assembled application (the serve-side
/// analogue of choosing a driver component).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadKind {
    /// 0D homogeneous ignition (paper §4.1): chunked BDF integration.
    Ignition0d,
    /// 2D reaction–diffusion flame (paper §4.2): Strang-split macro steps.
    ReactionDiffusion,
}

impl WorkloadKind {
    /// Stable tag folded into the job key and printed in outcome lines.
    pub fn tag(&self) -> &'static str {
        match self {
            WorkloadKind::Ignition0d => "ign0d",
            WorkloadKind::ReactionDiffusion => "rd2d",
        }
    }
}

/// One typed parameter override, applied after the script's own
/// `parameter` lines (client-side knob turning on a template script).
#[derive(Clone, Debug, PartialEq)]
pub struct Override {
    /// Target instance (must provide a `ParameterPort`).
    pub instance: String,
    /// Parameter key.
    pub key: String,
    /// Numeric value.
    pub value: f64,
}

impl Override {
    /// Convenience constructor.
    pub fn new(instance: &str, key: &str, value: f64) -> Self {
        Override {
            instance: instance.to_string(),
            key: key.to_string(),
            value,
        }
    }
}

/// Deterministic fault-injection hook: the session panics at the start of
/// macro step `panic_at_step` (1-based) while the attempt number is below
/// `fail_attempts`. `fail_attempts == 0` (the default) injects nothing.
/// This models transient infrastructure failure — the job itself is fine,
/// so it is *not* part of the job key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Number of leading attempts that panic (0 = healthy job).
    pub fail_attempts: u32,
    /// 1-based macro step at which the injected panic fires.
    pub panic_at_step: u64,
    /// Chaos drill for preemptive migration: pretend every preemption of
    /// this job lands *mid-snapshot* — a boundary commit coinciding with
    /// the yield step is treated as torn, forcing the continuation back
    /// onto the prior committed set.
    pub mid_snapshot_preempt: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            fail_attempts: 0,
            panic_at_step: 1,
            mid_snapshot_preempt: false,
        }
    }
}

/// Distributed-run attachment for a job: the scaling configuration and,
/// optionally, an explicit communication plan.
///
/// When `plan` is `None` the admission gate derives the plan from
/// `config` with the schedule emitter — the shipped emitter always
/// verifies clean. An explicit `plan` is the seam for clients shipping a
/// hand-written schedule (and for tests injecting a broken one): it is
/// verified *instead of* the derived plan, so a mis-scheduled exchange is
/// rejected with C-code diagnostics before any session time is spent.
#[derive(Clone, Debug)]
pub struct DistributedSpec {
    /// The distributed scaling configuration to run.
    pub config: ScalingConfig,
    /// Explicit communication plan; `None` derives it from `config`.
    pub plan: Option<CommPlan>,
}

impl DistributedSpec {
    /// The plan admission verifies: the explicit one if given, else the
    /// one the schedule emitter derives from `config`.
    pub fn effective_plan(&self) -> CommPlan {
        self.plan.clone().unwrap_or_else(|| {
            cca_apps::schedule::comm_plan(&cca_apps::scaling::decompose(&self.config), &self.config)
        })
    }

    /// Identity material folded into the job key: the physics-bearing
    /// configuration fields plus the canonical plan text. The `audit`
    /// flag is an observability knob (like priority) and stays out.
    fn key_material(&self) -> String {
        let c = &self.config;
        format!(
            "n={} per_rank={} steps={} stages={}\u{1f}{}",
            c.n,
            c.per_rank,
            c.steps,
            c.stages_per_step,
            self.effective_plan().canonical()
        )
    }
}

/// A simulation job: rc-script + overrides + scheduling attributes.
#[derive(Clone, Debug)]
pub struct SimJob {
    /// Which stepper drives the assembly once the script has run.
    pub kind: WorkloadKind,
    /// The rc-script assembling the application (no `go` lines — the
    /// serve stepper drives ports directly so it can honor deadlines).
    pub script: String,
    /// Typed parameter overrides applied after the script.
    pub overrides: Vec<Override>,
    /// Scheduling priority; higher dequeues first among ready jobs.
    pub priority: u8,
    /// Deadline as a macro-step budget: the job executes at most this
    /// many steps, then is cancelled deterministically (no wall clocks).
    pub step_budget: Option<u64>,
    /// Request the checkpoint artifact (serialized SAMR state) where the
    /// workload supports it.
    pub want_checkpoint: bool,
    /// Transient-failure injection hook (testing / chaos drills).
    pub fault: FaultSpec,
    /// Distributed-run attachment; `None` for single-rank jobs.
    pub distributed: Option<DistributedSpec>,
    /// Resume from this serialized `cca-ckpt` component set instead of
    /// the initial condition (preemption/migration of long jobs).
    pub restore: Option<Vec<u8>>,
    /// Owning tenant (index into the fleet's tenant table; 0 is the
    /// default tenant). A scheduling attribute — not part of the key, so
    /// identical physics coalesces across tenants.
    pub tenant: u32,
    /// Completion deadline in virtual ticks *after submission*. The
    /// fleet's cost model rejects (or downgrades) jobs that provably
    /// cannot finish by it. `None` = no deadline. Not part of the key.
    pub deadline: Option<u64>,
    /// Macro steps between periodic checkpoint commits while the job
    /// runs (0 = none). A job with a positive interval is *sliceable*:
    /// the fleet may preempt it at slice edges and migrate the committed
    /// set to another shard. Not part of the key — the committed sets
    /// never change the physics.
    pub ckpt_interval: u64,
    /// What admission does when the cost model proves `deadline`
    /// unreachable: refuse the job, or accept it degraded. Not part of
    /// the key.
    pub on_late: LatePolicy,
}

impl SimJob {
    /// The content-addressed identity of this job. A distributed
    /// attachment folds its canonical comm-plan into the key, and a
    /// restore set folds its bytes in — a resumed leg must never coalesce
    /// with (or be served from the cache of) a from-scratch run.
    pub fn key(&self) -> JobKey {
        let mut key = JobKey::compute(
            self.kind.tag(),
            &self.script,
            &self.overrides,
            self.want_checkpoint,
        );
        if let Some(d) = &self.distributed {
            let material = d.key_material();
            key = JobKey {
                hi: fnv1a64(key.hi, material.as_bytes()),
                lo: fnv1a64(key.lo, material.as_bytes()),
            };
        }
        if let Some(set) = &self.restore {
            key = JobKey {
                hi: fnv1a64(key.hi, set),
                lo: fnv1a64(key.lo, set),
            };
        }
        key
    }

    /// The script the admission checker vets: the assembly script plus
    /// one synthetic `parameter` line per override, so a typo'd override
    /// (unknown instance, no `ParameterPort`) is rejected *before* a
    /// session is spent on it.
    pub fn admission_script(&self) -> String {
        let mut s = self.script.clone();
        for o in &self.overrides {
            s.push_str(&format!(
                "parameter {} {} {:e}\n",
                o.instance, o.key, o.value
            ));
        }
        s
    }
}

/// Canonical form of an rc-script: comments stripped, blank lines
/// dropped, runs of whitespace collapsed — the two scripts a human would
/// call "the same" hash identically.
pub fn canonical_script(script: &str) -> String {
    let mut out = String::new();
    for raw in script.lines() {
        let line = raw.split('#').next().unwrap_or("");
        let mut first = true;
        let mut wrote = false;
        for tok in line.split_whitespace() {
            if !first {
                out.push(' ');
            }
            out.push_str(tok);
            first = false;
            wrote = true;
        }
        if wrote {
            out.push('\n');
        }
    }
    out
}

/// 128-bit content hash of a job (two independent FNV-1a streams).
///
/// Order of overrides and insignificant script whitespace do not affect
/// the key; any physics-relevant difference does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second-stream seed: golden-ratio offset, decorrelating the two hashes.
const FNV_OFFSET_ALT: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// Plain FNV-1a over a byte stream (used for keys and artifact digests).
pub(crate) fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl JobKey {
    /// Compute the key from the identity-bearing parts of a job.
    pub fn compute(
        kind_tag: &str,
        script: &str,
        overrides: &[Override],
        want_checkpoint: bool,
    ) -> JobKey {
        let mut material = String::new();
        material.push_str(kind_tag);
        material.push('\u{1f}');
        material.push_str(&canonical_script(script));
        material.push('\u{1e}');
        let mut sorted: Vec<&Override> = overrides.iter().collect();
        sorted.sort_by(|a, b| {
            (&a.instance, &a.key, a.value.to_bits()).cmp(&(&b.instance, &b.key, b.value.to_bits()))
        });
        for o in sorted {
            material.push_str(&o.instance);
            material.push('\u{1f}');
            material.push_str(&o.key);
            material.push('\u{1f}');
            material.push_str(&format!("{:016x}", o.value.to_bits()));
            material.push('\u{1e}');
        }
        material.push(if want_checkpoint { '1' } else { '0' });
        JobKey {
            hi: fnv1a64(FNV_OFFSET, material.as_bytes()),
            lo: fnv1a64(FNV_OFFSET_ALT, material.as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_strips_noise() {
        let a = "instantiate Foo f\nconnect a b c d\n";
        let b = "  instantiate   Foo  f   # what it is\n\n\nconnect a b c d";
        assert_eq!(canonical_script(a), canonical_script(b));
        assert_eq!(
            JobKey::compute("t", a, &[], false),
            JobKey::compute("t", b, &[], false)
        );
    }

    #[test]
    fn override_order_is_irrelevant_values_are_not() {
        let o1 = vec![Override::new("i", "a", 1.0), Override::new("i", "b", 2.0)];
        let o2 = vec![Override::new("i", "b", 2.0), Override::new("i", "a", 1.0)];
        let o3 = vec![Override::new("i", "a", 1.0), Override::new("i", "b", 2.5)];
        let k = |o: &[Override]| JobKey::compute("t", "x y", o, false);
        assert_eq!(k(&o1), k(&o2));
        assert_ne!(k(&o1), k(&o3));
    }

    #[test]
    fn checkpoint_request_and_kind_change_the_key() {
        let base = JobKey::compute("a", "s", &[], false);
        assert_ne!(base, JobKey::compute("a", "s", &[], true));
        assert_ne!(base, JobKey::compute("b", "s", &[], false));
    }

    #[test]
    fn distributed_plan_enters_the_key() {
        let job = |distributed| SimJob {
            kind: WorkloadKind::Ignition0d,
            script: "instantiate X x".into(),
            overrides: vec![],
            priority: 0,
            step_budget: None,
            want_checkpoint: false,
            fault: FaultSpec::default(),
            distributed,
            restore: None,
            tenant: 0,
            deadline: None,
            ckpt_interval: 0,
            on_late: LatePolicy::Reject,
        };
        let cfg = ScalingConfig {
            n: 16,
            per_rank: false,
            ranks: 2,
            ..ScalingConfig::default()
        };
        let plain = job(None).key();
        let d1 = job(Some(DistributedSpec {
            config: cfg,
            plan: None,
        }))
        .key();
        let d2 = job(Some(DistributedSpec {
            config: cfg,
            plan: None,
        }))
        .key();
        let other = job(Some(DistributedSpec {
            config: ScalingConfig {
                overlap: true,
                ..cfg
            },
            plan: None,
        }))
        .key();
        assert_ne!(plain, d1, "attachment must change the key");
        assert_eq!(d1, d2, "identical specs must coalesce");
        assert_ne!(d1, other, "a different schedule is a different job");
    }
}
