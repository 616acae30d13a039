//! Host-speed reference.
//!
//! The benchmark shares its machine, whose speed drifts by tens of
//! percent over minutes as other tenants come and go. Throughout every
//! set-up and measured phase, while the program is idle between ops,
//! the benchmark times a fixed reference loop (dependent loads from a
//! cache-resident table plus integer work). End-to-end times are
//! reported scaled to a host on which that loop takes
//! [`REFERENCE_US`]; the raw values are printed beside them.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The reference loop's time on an unloaded host (µs).
pub const REFERENCE_US: f64 = 200.0;

/// Dependent loads per reference run.
const READS: u32 = 33_000;

/// Reference samples before each set-up, after the last one, and
/// between the passes of a batch workload.
pub const SETUP_SAMPLES: usize = 10;

/// How often a running phase samples the reference.
pub const EVERY: Duration = Duration::from_millis(50);

fn table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x: u32 = 0x9e37_79b9;
        (0..1 << 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect()
    })
}

fn run_once(t: &[u32]) -> f64 {
    let mask = t.len() - 1;
    let start = Instant::now();
    let (mut x, mut acc) = (0u32, 0u64);
    for i in 0..READS {
        x = t[((x ^ i) as usize) & mask].wrapping_add(i);
        acc = acc.wrapping_add(u64::from(x) * 3);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e6
}

/// Times one run of the reference loop (µs), after an untimed run that
/// brings its table back into cache, so the sample reflects the core's
/// speed rather than what the program left in the cache.
pub fn sample() -> f64 {
    let t = std::hint::black_box(table());
    run_once(t);
    run_once(t)
}

/// Samples the reference at most every [`EVERY`].
#[derive(Debug)]
pub struct Pacer {
    last: Instant,
    pub samples: Vec<f64>,
}

impl Pacer {
    /// A pacer that samples at once.
    pub fn new() -> Self {
        Pacer {
            last: Instant::now() - EVERY,
            samples: Vec::new(),
        }
    }

    /// Takes a sample when [`EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.burst(1);
        }
    }

    /// Takes `n` samples now.
    pub fn burst(&mut self, n: usize) {
        self.samples.extend((0..n).map(|_| sample()));
        self.last = Instant::now();
    }
}

/// Factor that scales a measured time to the reference host:
/// `REFERENCE_US / median(samples)` (1 without samples).
pub fn factor(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    REFERENCE_US / median(samples)
}
