//! Order statistics over samples and the order-sensitive output hash.

/// The `q` quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks, the convention of Python's `statistics.quantiles(method="inclusive")`.
/// Returns 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// [`quantile`] over nanosecond samples, converted by `scale` (for
/// example `1e-3` for microseconds).
pub fn quantile_ns(samples: &[u64], q: f64, scale: f64) -> f64 {
    let as_f64: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    quantile(&as_f64, q) * scale
}

/// Samples kept per interval. Beyond this, an interval keeps a uniform
/// random sample (a reservoir), so the benchmark's own memory does not
/// grow with the program's throughput and distort `peak_rss_mb`.
pub const RESERVOIR: usize = 4096;

/// Samples grouped by the interval they completed in: a whole second of a
/// serving window, or a ranking round.
#[derive(Debug, Default)]
pub struct Series {
    intervals: Vec<Vec<f64>>,
    seen: Vec<u64>,
    /// SplitMix64 state choosing reservoir slots; it never touches the
    /// workload's inputs.
    state: u64,
}

impl Series {
    pub fn push(&mut self, at: usize, value: f64) {
        if self.intervals.len() <= at {
            self.intervals.resize_with(at + 1, Vec::new);
            self.seen.resize(at + 1, 0);
        }
        self.seen[at] += 1;
        let kept = &mut self.intervals[at];
        if kept.len() < RESERVOIR {
            kept.push(value);
            return;
        }
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let slot = hprng_core::seeding::mix64(self.state) % self.seen[at];
        if let Some(v) = kept.get_mut(slot as usize) {
            *v = value;
        }
    }

    /// Merges another thread's samples interval by interval.
    pub fn extend(&mut self, other: Series) {
        for (at, values) in other.intervals.into_iter().enumerate() {
            for v in values {
                self.push(at, v);
            }
        }
    }

    /// The median, over the intervals `keep` marks that hold samples, of
    /// each interval's `q` quantile.
    pub fn interval_quantile(&self, keep: &[bool], q: f64) -> f64 {
        let per_interval: Vec<f64> = self
            .intervals
            .iter()
            .enumerate()
            .filter(|(at, values)| {
                !values.is_empty() && (keep.is_empty() || keep.get(*at).copied().unwrap_or(false))
            })
            .map(|(_, values)| quantile(values, q))
            .collect();
        median(&per_interval)
    }

    /// Samples kept, over all intervals.
    pub fn len(&self) -> usize {
        self.intervals.iter().map(Vec::len).sum()
    }

    /// The values of the intervals `keep` marks; every value when `keep`
    /// is empty.
    pub fn kept(&self, keep: &[bool]) -> Vec<f64> {
        self.intervals
            .iter()
            .enumerate()
            .filter(|(at, _)| keep.is_empty() || keep.get(*at).copied().unwrap_or(false))
            .flat_map(|(_, values)| values.iter().copied())
            .collect()
    }
}

/// Marks the calm intervals: those whose CPU steal is at most the first
/// quartile of the run's. On a shared virtual machine the hypervisor
/// takes the CPUs away for seconds at a time; figures from the calmest
/// quarter of a run describe the program rather than its neighbours.
/// Every interval is calm on a host that reports no steal.
pub fn calm(steal: &[f64]) -> Vec<bool> {
    let threshold = quantile(steal, 0.25);
    steal.iter().map(|&s| s <= threshold).collect()
}

/// An order-sensitive 64-bit digest of a word stream (FNV-1a over whole
/// words). The serving workloads fold every delivered word into one per
/// lane and compare it with a standalone replay after the timed window,
/// so the check costs about a nanosecond per word and no memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    /// Folds `words`, in order, into the digest.
    #[inline]
    pub fn absorb(&mut self, words: &[u64]) {
        for &w in words {
            self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn series_keep_only_calm_intervals() {
        let mut s = Series::default();
        for (at, v) in [(0, 1.0), (1, 2.0), (2, 3.0), (1, 4.0)] {
            s.push(at, v);
        }
        let keep = calm(&[0.0, 5.0, 1.0, 2.0, 3.0]);
        assert_eq!(keep, [true, false, true, false, false]);
        assert_eq!(s.kept(&keep), [1.0, 3.0]);
        assert_eq!(s.kept(&[]), [1.0, 2.0, 4.0, 3.0]);
        assert!(calm(&[0.0; 4]).iter().all(|&c| c));
        // Interval 0 holds [1], interval 2 holds [3]: their medians' median.
        assert_eq!(s.interval_quantile(&keep, 0.5), 2.0);
    }

    #[test]
    fn series_memory_is_bounded_per_interval() {
        let mut s = Series::default();
        for k in 0..3 * RESERVOIR {
            s.push(0, k as f64);
        }
        s.push(1, -1.0);
        assert_eq!(s.len(), RESERVOIR + 1);
        // The reservoir keeps late samples too.
        assert!(s
            .kept(&[true, false])
            .iter()
            .any(|&v| v >= RESERVOIR as f64));
    }

    #[test]
    fn stream_hash_is_chunking_invariant_and_order_sensitive() {
        let (mut a, mut b, mut c) = Default::default();
        StreamHash::absorb(&mut a, &[1, 2, 3]);
        StreamHash::absorb(&mut b, &[1]);
        StreamHash::absorb(&mut b, &[2, 3]);
        StreamHash::absorb(&mut c, &[2, 1, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
