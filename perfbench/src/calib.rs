//! Host-speed calibration of the timing metrics.
//!
//! The benchmark runs on shared virtual machines whose speed changes by a
//! factor of 1.5 or more over minutes, for every process alike. A run
//! therefore times a fixed piece of work of its own, interleaved with the
//! measured operations (with the clock paused), and reports its timing
//! metrics at the speed of a reference host: the calibration work takes
//! [`REFERENCE_NS`] there. The kernel is the benchmark's own code, so a
//! change to the system never moves it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::workload::sub_seed;

/// Measured time between two calibration samples.
pub const EVERY: Duration = Duration::from_millis(100);
/// The kernel's time on the reference host, nanoseconds: a 2-vCPU Intel
/// Xeon KVM guest at its usual speed.
pub const REFERENCE_NS: f64 = 600_000.0;
/// Values sorted per sample (256 KiB): branchy compute over data that
/// fits a core's L2 cache, the closest of the kernels tried to how the
/// engine's own speed follows the host's.
const VALUES: usize = 1 << 15;
/// Share of samples dropped at each end before averaging.
const TRIM: usize = 10;

/// The calibration kernel and the samples taken so far.
pub struct Calibration {
    data: Vec<u64>,
    scratch: Vec<u64>,
    samples_ns: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        let data = (0..VALUES as u64).map(|i| sub_seed(0x5EED, i)).collect();
        Calibration { data, scratch: Vec::with_capacity(VALUES), samples_ns: Vec::new() }
    }
}

impl Calibration {
    /// Runs the kernel twice and records the time of the second run,
    /// whose data the first brought into the cache: the sample then does
    /// not depend on how much of the cache the measured work took.
    /// Returns how long the whole sample took.
    pub fn sample(&mut self) -> Duration {
        let start = Instant::now();
        self.sort();
        let t = Instant::now();
        self.sort();
        self.samples_ns.push(t.elapsed().as_nanos() as u64);
        start.elapsed()
    }

    fn sort(&mut self) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.data);
        self.scratch.sort_unstable();
        black_box(&self.scratch);
    }

    /// This host's speed relative to the reference host (above 1 when
    /// faster): [`REFERENCE_NS`] times the mean per-sample speed, with the
    /// fastest and slowest tenth of samples dropped. 1 without samples.
    pub fn speed(&self) -> f64 {
        speed_of(&self.samples_ns)
    }
}

fn speed_of(samples_ns: &[u64]) -> f64 {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    let cut = sorted.len() / TRIM;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return 1.0;
    }
    let mean_rate = kept.iter().map(|&ns| 1.0 / ns.max(1) as f64).sum::<f64>() / kept.len() as f64;
    REFERENCE_NS * mean_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_relative_to_the_reference_and_trimmed() {
        assert_eq!(speed_of(&[]), 1.0);
        let reference = REFERENCE_NS as u64;
        assert!((speed_of(&[reference; 20]) - 1.0).abs() < 1e-12);
        assert!((speed_of(&[reference / 2; 20]) - 2.0).abs() < 1e-12);
        let mut outliers = vec![reference; 18];
        outliers.extend([1, 100 * reference]);
        assert!((speed_of(&outliers) - 1.0).abs() < 1e-12, "a tenth dropped at each end");
    }

    #[test]
    fn samples_are_recorded() {
        let mut cal = Calibration::default();
        for _ in 0..3 {
            assert!(cal.sample() > Duration::ZERO);
        }
        assert_eq!(cal.samples_ns.len(), 3);
        assert!(cal.speed() > 0.0);
    }
}
