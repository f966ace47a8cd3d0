//! In-memory spans recorded around the benchmark's calls into each
//! layer, exported as Chrome trace-event JSON (opens in Perfetto).
//!
//! Every call the benchmark makes is timed whether or not tracing is on
//! (the end-to-end metrics need the durations); only the traced run keeps
//! the spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called (`fleet.submit`, `driver.go`, ...).
    pub name: String,
    /// The layer (workspace crate) that was called.
    pub layer: &'static str,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Iteration the span belongs to (the trace's thread lane).
    pub iteration: u64,
}

/// Span recorder. Disabled recorders only time.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    iteration: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            iteration: 0,
            spans: Vec::new(),
        }
    }

    /// Switch span keeping on or off (timing continues either way).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag subsequent spans with iteration `k`.
    pub fn set_iteration(&mut self, k: u64) {
        self.iteration = k;
    }

    /// Run `f`, returning its value and its wall time in seconds; keep a
    /// span named `name` in layer `layer` when enabled.
    pub fn time<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                layer,
                start_us: (start - self.origin).as_secs_f64() * 1e6,
                dur_us: secs * 1e6,
                iteration: self.iteration,
            });
        }
        (value, secs)
    }

    /// Spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Chrome trace-event JSON for `spans` ("X" complete events, one lane
/// per iteration), with `metadata` as string-valued `otherData`.
pub fn chrome_trace_json(spans: &[Span], metadata: &[(&str, String)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (i, (k, v)) in metadata.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(k), json_string(v));
    }
    out.push_str("},\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
            json_string(&s.name),
            json_string(s.layer),
            s.start_us,
            s.dur_us,
            s.iteration
        );
    }
    out.push_str("\n]}\n");
    out
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
