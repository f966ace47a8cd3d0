//! Order statistics over timing samples.

/// Median of `samples` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`): the smallest sample with
/// cumulative frequency at least `q`; 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
