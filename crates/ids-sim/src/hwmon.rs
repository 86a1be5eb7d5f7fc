//! Hardware event monitoring — the perf/OProfile row of Table 1.
//!
//! Statistical anomaly detection over hardware performance counters
//! (paper reference \[21\]: "Early detection of system-level anomalous
//! behaviour using hardware performance counters"): a profiling phase
//! learns the per-counter mean/variance of the healthy workload; the
//! monitor task then flags samples whose z-score exceeds a threshold —
//! e.g. the cache-miss surge of a side-channel prime-and-probe loop.

/// One sample of hardware counters for a monitoring window.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CounterSample {
    /// Retired instructions.
    pub instructions: f64,
    /// Last-level cache misses.
    pub cache_misses: f64,
    /// Branch mispredictions.
    pub branch_misses: f64,
}

impl CounterSample {
    fn features(&self) -> [f64; 3] {
        [self.instructions, self.cache_misses, self.branch_misses]
    }
}

/// Per-feature Gaussian profile learned from healthy samples.
#[derive(Clone, PartialEq, Debug)]
pub struct CounterProfile {
    mean: [f64; 3],
    std_dev: [f64; 3],
}

impl CounterProfile {
    /// Learns a profile from healthy training samples.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two samples are supplied.
    #[must_use]
    pub fn train(samples: &[CounterSample]) -> Self {
        assert!(samples.len() >= 2, "training needs at least two samples");
        let n = samples.len() as f64;
        let mut mean = [0.0f64; 3];
        for s in samples {
            for (m, v) in mean.iter_mut().zip(s.features()) {
                *m += v;
            }
        }
        mean.iter_mut().for_each(|m| *m /= n);
        let mut var = [0.0f64; 3];
        for s in samples {
            for ((v, m), x) in var.iter_mut().zip(&mean).zip(s.features()) {
                *v += (x - m) * (x - m);
            }
        }
        let std_dev = var.map(|v| (v / (n - 1.0)).sqrt().max(f64::EPSILON));
        CounterProfile { mean, std_dev }
    }

    /// The largest absolute z-score of the sample across features.
    #[must_use]
    pub fn z_score(&self, sample: &CounterSample) -> f64 {
        sample
            .features()
            .iter()
            .zip(&self.mean)
            .zip(&self.std_dev)
            .map(|((x, m), s)| ((x - m) / s).abs())
            .fold(0.0, f64::max)
    }

    /// Flags the sample as anomalous if any feature's z-score exceeds
    /// `threshold` (3.0–4.0 are typical).
    #[must_use]
    pub fn is_anomalous(&self, sample: &CounterSample, threshold: f64) -> bool {
        self.z_score(sample) > threshold
    }
}

/// Generates a healthy sample stream around nominal rover values
/// (deterministic triangle dither; good enough for a variance estimate
/// without pulling RNG into the profile tests).
#[must_use]
pub fn healthy_stream(len: usize) -> Vec<CounterSample> {
    (0..len)
        .map(|i| {
            let dither = (i % 7) as f64 - 3.0;
            CounterSample {
                instructions: 1.0e6 + 1.0e4 * dither,
                cache_misses: 2.0e3 + 40.0 * dither,
                branch_misses: 5.0e2 + 8.0 * dither,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_samples_score_low() {
        let train = healthy_stream(64);
        let profile = CounterProfile::train(&train);
        for s in healthy_stream(16) {
            assert!(profile.z_score(&s) < 3.0, "z = {}", profile.z_score(&s));
            assert!(!profile.is_anomalous(&s, 3.5));
        }
    }

    #[test]
    fn cache_miss_surge_is_anomalous() {
        let profile = CounterProfile::train(&healthy_stream(64));
        let attack = CounterSample {
            instructions: 1.0e6,
            cache_misses: 9.0e3, // prime-and-probe style surge
            branch_misses: 5.0e2,
        };
        assert!(profile.is_anomalous(&attack, 3.5));
        assert!(profile.z_score(&attack) > 10.0);
    }

    #[test]
    fn threshold_separates_borderline_cases() {
        let profile = CounterProfile::train(&healthy_stream(64));
        let mild = CounterSample {
            instructions: 1.05e6,
            cache_misses: 2.1e3,
            branch_misses: 5.2e2,
        };
        let z = profile.z_score(&mild);
        assert!(profile.is_anomalous(&mild, z - 0.1));
        assert!(!profile.is_anomalous(&mild, z + 0.1));
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn training_requires_data() {
        let _ = CounterProfile::train(&healthy_stream(1));
    }
}
