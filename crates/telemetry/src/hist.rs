//! Fixed-size, log-bucketed latency histograms (HDR-style).
//!
//! A [`LatencyHistogram`] covers the whole `u64` value range with
//! preallocated buckets: exact buckets below 2^6 and 64 linear sub-buckets
//! per power of two above it, bounding the relative quantization error at
//! 1/64 (~1.6%). Every bucket is an [`AtomicU64`], so recording is one
//! relaxed `fetch_add` plus min/max/sum updates — **lock-free and
//! allocation-free**, cheap enough for the zero-alloc decode hot path.
//! Percentiles are computed at read time by scanning the bucket array and
//! interpolating linearly inside the bucket the rank lands in, so quantiles
//! move with the distribution instead of clamping to bucket bounds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^6 = 64 linear sub-buckets per octave.
const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Exact buckets `[0, 64)`, then 64 sub-buckets for each of the 58
/// remaining octaves `[2^6, 2^64)`.
const BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// Maps a value to its bucket index (total order preserving).
const fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        return value as usize;
    }
    let top = 63 - value.leading_zeros();
    let shift = top - SUB_BITS;
    let sub = ((value >> shift) as usize) & (SUB_COUNT - 1);
    SUB_COUNT + (shift as usize) * SUB_COUNT + sub
}

/// The largest value a bucket holds — percentile reads report this upper
/// bound, so a reported quantile never under-states the true latency.
const fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let shift = ((index - SUB_COUNT) / SUB_COUNT) as u32;
    let sub = ((index - SUB_COUNT) % SUB_COUNT) as u64;
    let base = 1u64 << (shift + SUB_BITS);
    let low = base + (sub << shift);
    low + ((1u64 << shift) - 1)
}

/// A lock-free log-bucketed latency histogram (see the module docs).
/// Values are unit-agnostic; the stack records microseconds or nanoseconds
/// depending on the stage's dynamic range.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram — the one allocation of its lifetime.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value: one relaxed `fetch_add` per statistic, no lock,
    /// no allocation. The running sum saturates instead of wrapping.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // fetch_update loop only retries under contention; saturation keeps
        // a pathological accumulation from wrapping the mean negative.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let min = self.min.load(Ordering::Relaxed);
        if min == u64::MAX && self.count() == 0 {
            0
        } else {
            min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum() as f64 / count as f64
    }

    /// The value at quantile `q` in `[0, 1]`: the rank-`ceil(q · count)`
    /// value, interpolated linearly within the bucket it lands in (rank k
    /// of n bucket occupants maps to `lower + span·k/n`). Interpolated
    /// values stay inside the bucket (relative error ≤ 1/64) and are exact
    /// when occupants fill the bucket uniformly; distinct ranks in one
    /// bucket report distinct values instead of all clamping to the bucket
    /// bound. Clamped to the exact recorded max, and monotone in `q` by
    /// construction (each bucket's interpolation starts above the previous
    /// bucket's upper bound). Returns 0 when the histogram is empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            let occupants = bucket.load(Ordering::Relaxed);
            if occupants == 0 {
                continue;
            }
            seen += occupants;
            if seen >= rank {
                let upper = bucket_upper_bound(index);
                let lower = if index == 0 {
                    0
                } else {
                    bucket_upper_bound(index - 1) + 1
                };
                // The rank is the k-th (1-based) of this bucket's occupants.
                let k = rank - (seen - occupants);
                let span = (upper - lower) as u128;
                let step = (span * k as u128 / occupants as u128) as u64;
                return (lower + step).min(self.max());
            }
        }
        // Counters raced ahead of bucket stores; the max is the honest
        // answer for "highest quantile".
        self.max()
    }

    /// A point-in-time summary of the distribution.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p50: self.value_at_quantile(0.50),
            p95: self.value_at_quantile(0.95),
            p99: self.value_at_quantile(0.99),
            max: self.max(),
        }
    }
}

/// A snapshot of one histogram's distribution statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Recorded values.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Smallest value.
    pub min: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Largest value (exact).
    pub max: u64,
}

impl HistogramSummary {
    /// The summary as a JSON object (hand-rolled; the workspace builds
    /// offline without serde).
    pub fn json(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean\": {:.1}, \"min\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
            self.count, self.mean, self.min, self.p50, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_use_exact_buckets() {
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // 2976..3008 fills one 32-wide sub-bucket of the [2048, 4096)
        // octave exactly; uniform occupancy makes interpolation exact.
        let h = LatencyHistogram::new();
        for v in 2976..3008u64 {
            assert_eq!(bucket_index(v), bucket_index(2976), "value {v}");
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.25), 2983); // 8th of 32
        assert_eq!(h.value_at_quantile(0.50), 2991); // 16th of 32
        assert_eq!(h.value_at_quantile(0.75), 2999); // 24th of 32
        assert_eq!(h.value_at_quantile(1.0), 3007);
        // The pre-interpolation failure mode: every quantile clamped to the
        // same bucket bound. Distinct ranks must now report distinct values.
        assert!(h.value_at_quantile(0.25) < h.value_at_quantile(0.50));
        assert!(h.value_at_quantile(0.50) < h.value_at_quantile(0.75));
    }

    #[test]
    fn quantiles_are_monotone_and_bounded_by_max() {
        let h = LatencyHistogram::new();
        for v in [1u64, 7, 90, 91, 1_500, 122_879, 122_880, 9_000_000] {
            h.record(v);
        }
        let mut previous = 0u64;
        for step in 0..=100 {
            let q = step as f64 / 100.0;
            let value = h.value_at_quantile(q);
            assert!(value >= previous, "quantile {q} regressed");
            assert!(value <= h.max(), "quantile {q} above max");
            previous = value;
        }
        assert_eq!(h.value_at_quantile(1.0), h.max());
    }

    #[test]
    fn bucket_bounds_are_consistent_and_ordered() {
        // Every value maps into a bucket whose upper bound is >= the value,
        // and bucket upper bounds grow monotonically with the index.
        for &v in &[
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let index = bucket_index(v);
            assert!(index < BUCKETS, "value {v} → out-of-range bucket {index}");
            let upper = bucket_upper_bound(index);
            assert!(upper >= v, "value {v} above its bucket bound {upper}");
            // Quantization error bounded by 1/64 of the value.
            assert!(
                upper - v <= v / 64 + 1,
                "value {v}: bound {upper} overshoots by more than 1/64"
            );
        }
        let mut previous = 0u64;
        for index in 0..BUCKETS {
            let upper = bucket_upper_bound(index);
            assert!(upper >= previous, "bucket {index} not monotonic");
            previous = upper;
        }
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }
}
