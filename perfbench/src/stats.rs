//! Summary statistics and the metric records the benchmark prints.

use std::collections::BTreeMap;

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail the sample supports: the 99th percentile when at least ten
/// samples lie beyond it, otherwise the highest percentile that still
/// has ten beyond it, and the maximum when the sample is too small for
/// any. Returns `(value, percentile used)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let q = (1.0 - 10.0 / n).min(0.99);
    if q <= 0.5 {
        return (quantile(values, 1.0), 1.0);
    }
    (quantile(values, q), q)
}

/// One named measurement: value, unit, how many samples it summarises,
/// and where it came from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

/// Metrics keyed by name.
pub type Metrics = BTreeMap<&'static str, Metric>;

/// Inserts a metric.
pub fn put(m: &mut Metrics, name: &'static str, value: f64, unit: &'static str, samples: usize) {
    put_note(m, name, value, unit, samples, String::new());
}

/// Inserts a metric with a provenance note.
pub fn put_note(
    m: &mut Metrics,
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
) {
    m.insert(
        name,
        Metric {
            value,
            unit,
            samples,
            note,
        },
    );
}

/// Inserts the median of `values` unless it is empty (a layer the
/// phase never reached stays absent).
pub fn put_median(m: &mut Metrics, name: &'static str, values: &[f64], unit: &'static str) {
    if !values.is_empty() {
        put(m, name, median(values), unit, values.len());
    }
}

/// Peak resident set size of this process, in MiB (from
/// `/proc/self/status`; 0 where that file does not exist).
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

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// choices, such as which queries to spot-check.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_follows_sample_size() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v).1, 0.99);
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((tail(&small).1 - 0.9).abs() < 1e-12);
        assert_eq!(tail(&[1.0, 5.0, 3.0]), (5.0, 1.0));
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
