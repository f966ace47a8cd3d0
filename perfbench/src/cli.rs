//! Command-line arguments.

use std::fmt;

/// One benchmark invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name (see [`crate::metrics::WORKLOADS`]).
    pub workload: String,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the traced run.
    pub trace: bool,
}

/// What the command line asked for.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run one workload.
    Run(Args),
    /// Print the `BENCHMARK.json` manifest.
    Manifest,
}

/// A malformed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\nusage: cca-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       cca-perfbench --manifest",
            self.0
        )
    }
}

/// Parse `args` (without the program name).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, UsageError> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--manifest" {
            return Ok(Command::Manifest);
        }
        let value = it
            .next()
            .ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
        let bad = || UsageError(format!("bad value '{value}' for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(UsageError(format!("unknown flag {flag}"))),
        }
    }
    let workload = workload.ok_or_else(|| UsageError("--workload is required".into()))?;
    if !crate::metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(UsageError(format!("unknown workload '{workload}'")));
    }
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}
