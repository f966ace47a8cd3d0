//! Host fingerprint, knob refusal, and process memory.

use std::path::Path;

/// Environment knobs that change kernel behaviour process-wide. A
/// baseline taken with one of them set would not compare with one taken
/// without, so the benchmark refuses to run while any is set. Executor
/// workers are set per framework through `Framework::set_workers`.
pub const FORBIDDEN_ENV: [&str; 4] = [
    "CCA_HYDRO_THREADS",
    "CCA_TILE_ROWS",
    "CCA_PITCH_QUANTUM",
    "CCA_FAST_DIV",
];

/// The forbidden knobs that `lookup` reports as set.
pub fn forbidden_knobs(lookup: impl Fn(&str) -> Option<String>) -> Vec<&'static str> {
    FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|k| lookup(k).is_some())
        .collect()
}

/// What machine and build a result came from.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl Fingerprint {
    /// Probe the current host; `root` is the checkout root.
    pub fn probe(root: &Path) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_commit: git_commit(root).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One-line rendering for the human-readable output.
    pub fn render(&self) -> String {
        format!(
            "host cpu=\"{}\" nproc={} rustc=\"{}\" commit={}",
            self.cpu_model, self.nproc, self.rustc, self.git_commit
        )
    }
}

/// Resolve `HEAD` by reading `.git` directly (no subprocess): a
/// detached hash, a loose ref, or a packed ref.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(hash, _)| hash.to_string())
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
