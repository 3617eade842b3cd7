//! Order statistics for the benchmark's samples: medians, quartiles, the
//! highest percentile a sample supports, and the failure ratio.

/// Quantile `q` in `[0, 1]` of `xs` by linear interpolation between the
/// closest ranks (the "inclusive" method: the minimum is quantile 0 and
/// the maximum quantile 1). `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Consecutive blocks a run's samples are split into by [`blocked`].
pub const BLOCKS: usize = 8;

/// The median over [`BLOCKS`] consecutive blocks of `samples`, taken in
/// run order, of each block's summed numerators over its summed
/// denominators: a block's mean time for `(ms, 1)` samples, its rate for
/// `(work, seconds)` samples. With fewer samples than blocks, each sample
/// is a block. `None` for an empty sample.
///
/// The host this benchmark was built on switches between two speeds
/// about 1.8x apart, every second or so at some times and for minutes at
/// others. A median of single samples then lands on whichever speed held
/// more than half the run, and jumps between runs; a block's mean moves
/// smoothly with the share of the block spent slow, and the median over
/// blocks drops a stretch the host spent stalled.
pub fn blocked(samples: &[(f64, f64)]) -> Option<f64> {
    let k = BLOCKS.min(samples.len());
    let ratios: Vec<f64> = (0..k)
        .map(|b| {
            let block = &samples[b * samples.len() / k..(b + 1) * samples.len() / k];
            let (num, den) = block
                .iter()
                .fold((0.0, 0.0), |(n, d), (x, y)| (n + x, d + y));
            num / den
        })
        .collect();
    median(&ratios)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// First and third quartiles of `xs`, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive"
/// method, which extrapolates for very small samples). Needs at least
/// two points.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i as f64 * m as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Number of samples strictly above percentile `p` (in percent) of a
/// sample of `n`: the tail the percentile summarises.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Percentile `p` (in percent) of `xs`, but only when at least
/// `min_tail` samples lie beyond it; otherwise the sample does not
/// support it and the result is `None`.
pub fn supported_percentile(xs: &[f64], p: f64, min_tail: usize) -> Option<f64> {
    if beyond(xs.len(), p) < min_tail {
        return None;
    }
    quantile(xs, p / 100.0)
}

/// The highest of the given percentiles (in percent) that has at least
/// `min_tail` samples beyond it, with its value.
pub fn highest_supported(xs: &[f64], candidates: &[f64], min_tail: usize) -> Option<(f64, f64)> {
    let mut best: Option<(f64, f64)> = None;
    for &p in candidates {
        if let Some(v) = supported_percentile(xs, p, min_tail) {
            if best.is_none_or(|(bp, _)| p > bp) {
                best = Some((p, v));
            }
        }
    }
    best
}

/// Operations attempted and failed. A refused request, an error reply
/// and a result that does not match its reference all count as failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed operations as a share of attempted ones (0 when nothing
    /// was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn blocked_takes_the_median_of_block_ratios() {
        // 16 samples make 8 blocks of 2; block means 1.5, 3.5, ..., 15.5.
        let xs: Vec<(f64, f64)> = (1..=16).map(|x| (f64::from(x), 1.0)).collect();
        assert_eq!(blocked(&xs), Some(8.5));
        // A block's ratio is its sums' ratio, not the mean of its ratios:
        // 10 units in 1 s and 10 in 4 s make 4 per second.
        let rates = vec![(10.0, 1.0), (10.0, 4.0)];
        assert_eq!(blocked(&rates[..]), Some((10.0 + 2.5) / 2.0));
        let mut two_blocks = rates.clone();
        two_blocks.extend(rates.iter().copied());
        assert_eq!(blocked(&two_blocks.repeat(4)), Some(4.0));
        // A stalled stretch moves the median only to the next block's
        // mean (a plain mean would take the stall in whole).
        let mut stalled = xs.clone();
        stalled[0].0 = 1e6;
        assert_eq!(blocked(&stalled), Some(10.5));
        // Fewer samples than blocks: the median of the samples.
        assert_eq!(blocked(&[(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]), Some(2.0));
        assert_eq!(blocked(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples leave only 9 beyond p99; 1000 leave 10.
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(beyond(short.len(), 99.0), 9);
        assert_eq!(supported_percentile(&short, 99.0, 10), None);
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond(long.len(), 99.0), 10);
        assert!(supported_percentile(&long, 99.0, 10).is_some());
    }

    #[test]
    fn highest_supported_percentile_falls_back_with_small_samples() {
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        // p99 has 2 beyond, p95 has 10: p95 is the highest supported.
        let (p, v) = highest_supported(&xs, &[50.0, 90.0, 95.0, 99.0], 10).unwrap();
        assert_eq!(p, 95.0);
        assert!((v - 189.05).abs() < 1e-9);
        assert_eq!(highest_supported(&xs[..5], &[50.0, 99.0], 10), None);
    }

    #[test]
    fn failed_ratio_counts_refused_and_mismatched_operations() {
        let mut t = Tally::default();
        assert_eq!(t.failed_ratio(), 0.0);
        t.record(true); // served and matched
        t.record(false); // refused as overloaded
        t.record(false); // served, but the result mismatched its reference
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.failed_ratio(), 0.5);
    }
}
