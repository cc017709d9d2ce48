//! Order statistics over samples of host time.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// The `q`-quantile of `sorted` by linear interpolation between closest
/// ranks.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The median, or 0 where nothing was measured.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The `q`-quantile of integer nanosecond samples (sorts in place).
pub fn quantile_ns(samples: &mut [u64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable();
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] as f64 + (samples[hi] - samples[lo]) as f64 * (pos - lo as f64)
}

/// splitmix64: the benchmark's own seeded random numbers.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Host latencies of single operations, pooled over every repetition of a
/// run in constant memory: once `CAPACITY` are held, a uniform sample of
/// them (reservoir sampling). `peak_rss_mb` therefore does not grow with the
/// number of operations a run gets through.
#[derive(Debug)]
pub struct Latencies {
    sample_ns: Vec<u64>,
    seen: u64,
    random: u64,
}

impl Latencies {
    const CAPACITY: usize = 1 << 16;

    pub fn push(&mut self, ns: u64) {
        self.seen += 1;
        if self.sample_ns.len() < Self::CAPACITY {
            self.sample_ns.push(ns);
        } else {
            let slot = splitmix64(&mut self.random) % self.seen;
            if let Some(held) = self.sample_ns.get_mut(slot as usize) {
                *held = ns;
            }
        }
    }

    /// Operations pushed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The `q`-quantile of the pooled latencies, in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if nothing was pushed.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        quantile_ns(&mut self.sample_ns, q)
    }
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            sample_ns: Vec::with_capacity(Self::CAPACITY),
            seen: 0,
            random: 0,
        }
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_keep_a_uniform_sample() {
        let mut pool = Latencies::default();
        for ns in 0..4 * Latencies::CAPACITY as u64 {
            pool.push(ns);
        }
        assert_eq!(pool.seen(), 4 * Latencies::CAPACITY as u64);
        assert_eq!(pool.sample_ns.len(), Latencies::CAPACITY);
        let median = pool.quantile_ns(0.5) / (4 * Latencies::CAPACITY) as f64;
        assert!((median - 0.5).abs() < 0.02, "median at {median}");
    }

    #[test]
    fn quantiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(quantile_ns(&mut [5, 1, 3], 0.5), 3.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
