//! The benchmark's statistics: medians, quartiles, the tail percentile a
//! sample supports, and the rule that compares runs of two commits.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// Sorted copy of `values` (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of a sorted, non-empty
/// sample: the value at rank `ceil(p·n/100)`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of a non-empty sample (mean of the middle two for even `n`).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median, or 0 for an empty sample (a count nothing was measured for).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    assert!(!s.is_empty(), "quartiles of an empty sample");
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let ld = s.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest percentile, at most `wanted`, with at least
/// [`TAIL_MARGIN`] samples beyond it in a sample of `n`; `None` when not
/// even the median qualifies.
pub fn tail_percentile(n: usize, wanted: f64) -> Option<f64> {
    let beyond = |p: f64| n - ((p / 100.0) * n as f64).ceil().min(n as f64) as usize;
    let mut p = wanted.floor();
    while p >= 50.0 {
        if beyond(p) >= TAIL_MARGIN {
            return Some(p);
        }
        p -= 1.0;
    }
    None
}

/// A timing summary: median and the supported tail of one sample.
#[derive(Clone, Debug)]
pub struct Summary {
    pub p50: f64,
    /// The tail percentile actually used (see [`tail_percentile`]).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarises `values`, reporting the tail at `wanted` or the highest
/// percentile below it that the sample supports. `None` if the sample
/// is too small for any tail.
pub fn summarize(values: &[f64], wanted: f64) -> Option<Summary> {
    let tail_pct = tail_percentile(values.len(), wanted)?;
    let s = sorted(values);
    Some(Summary {
        p50: percentile_sorted(&s, 50.0),
        tail_pct,
        tail: percentile_sorted(&s, tail_pct),
    })
}

/// Most blocks a sample is split into by [`block_summary`].
pub const MAX_BLOCKS: usize = 8;
/// Fewest samples per block for a median.
pub const BLOCK_MIN_MEDIAN: usize = 20;
/// Fewest samples per block for a p90 with [`TAIL_MARGIN`] samples
/// beyond it.
pub const BLOCK_MIN_TAIL: usize = 100;

/// A sample summarised block by block.
#[derive(Clone, Debug)]
pub struct BlockSummary {
    pub n: usize,
    /// Blocks the median was taken over.
    pub blocks: usize,
    /// Blocks the tail was taken over.
    pub tail_blocks: usize,
    /// Each block's median, in time order.
    pub block_p50s: Vec<f64>,
    /// The median of the blocks' medians.
    pub p50: f64,
    /// The tail percentile every block supports.
    pub tail_pct: f64,
    /// The median of the blocks' tails.
    pub tail: f64,
}

/// Summarises a time-ordered sample robustly: it is cut into as many
/// contiguous blocks as keep [`BLOCK_MIN_MEDIAN`] samples each (at most
/// [`MAX_BLOCKS`], at least one) for the median, and likewise with
/// [`BLOCK_MIN_TAIL`] for the tail, and the medians of the block
/// medians and of the block tails are reported. Load from outside the
/// program (other tenants of the host taking CPU time) comes in bursts
/// of seconds; a burst over fewer than half the blocks, or one lucky
/// block, leaves the result where it was.
pub fn block_summary(values: &[f64], wanted: f64) -> Option<BlockSummary> {
    let per_block = |min: usize| -> Option<Vec<Summary>> {
        let blocks = (values.len() / min).clamp(1, MAX_BLOCKS);
        let size = values.len() / blocks;
        (0..blocks)
            .map(|b| {
                let end = if b + 1 == blocks {
                    values.len()
                } else {
                    (b + 1) * size
                };
                summarize(&values[b * size..end], wanted)
            })
            .collect()
    };
    let mid = per_block(BLOCK_MIN_MEDIAN).filter(|_| values.len() >= BLOCK_MIN_MEDIAN)?;
    let tails = per_block(BLOCK_MIN_TAIL)?;
    let block_p50s: Vec<f64> = mid.iter().map(|s| s.p50).collect();
    Some(BlockSummary {
        n: values.len(),
        blocks: mid.len(),
        tail_blocks: tails.len(),
        p50: median(&block_p50s),
        block_p50s,
        tail_pct: tails
            .iter()
            .map(|s| s.tail_pct)
            .fold(f64::INFINITY, f64::min),
        tail: median(&tails.iter().map(|s| s.tail).collect::<Vec<_>>()),
    })
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// True when `a` is strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of comparing a change's runs with its parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Wins at least nine tenths of the pairs, and the medians differ
    /// by more than the parent's own interquartile range.
    Gain,
    /// Median within the bound of the parent's (or better, unproven).
    NoWorse,
    /// Median worse than the parent's by more than the bound.
    Regression,
    /// Spread wider than the bound, so neither "no worse" nor
    /// "regression" can be told apart from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoWorse => "no-worse",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares paired runs: `parent[i]` and `change[i]` were measured back
/// to back with identical settings. `bound` is the share of the parent's
/// median by which the metric may worsen.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    assert!(
        !parent.is_empty() && parent.len() == change.len(),
        "compare needs equally many runs on both sides"
    );
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**c, **p))
        .count();
    let (m_parent, m_change) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    if wins * 10 >= parent.len() * 9
        && better.beats(m_change, m_parent)
        && (m_change - m_parent).abs() > q3 - q1
    {
        return Verdict::Gain;
    }
    let every_run_better = change
        .iter()
        .all(|c| parent.iter().all(|p| better.beats(*c, *p)));
    if every_run_better {
        return Verdict::NoWorse;
    }
    if relative_spread(parent) > bound || relative_spread(change) > bound {
        return Verdict::Unresolved;
    }
    let limit = m_parent.abs() * bound;
    let worse_by = match better {
        Better::Lower => m_change - m_parent,
        Better::Higher => m_parent - m_change,
    };
    if worse_by > limit {
        Verdict::Regression
    } else {
        Verdict::NoWorse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(100, 90.0), Some(90.0));
        assert_eq!(tail_percentile(1000, 90.0), Some(90.0));
        assert_eq!(tail_percentile(99, 90.0), Some(89.0));
        assert_eq!(tail_percentile(50, 90.0), Some(80.0));
        assert_eq!(tail_percentile(20, 90.0), Some(50.0));
        assert_eq!(tail_percentile(19, 90.0), None);
        // Whatever is chosen really leaves ten samples beyond it.
        for n in 20..400 {
            let p = tail_percentile(n, 90.0).unwrap();
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_MARGIN, "n={n} p={p}");
            assert!(p <= 90.0);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 90.0), 7.0);
        let s = summarize(&v, 90.0).unwrap();
        assert_eq!((s.p50, s.tail_pct, s.tail), (50.0, 90.0, 90.0));
        assert!(summarize(&v[..15], 90.0).is_none());
    }

    #[test]
    fn blocks_report_their_medians() {
        // 448 samples: eight median blocks of 56 and four tail blocks of
        // 112, each the same shape.
        let v: Vec<f64> = (0..448).map(|i| f64::from(i % 56)).collect();
        let b = block_summary(&v, 90.0).unwrap();
        assert_eq!(
            (b.n, b.blocks, b.tail_blocks, b.tail_pct),
            (448, 8, 4, 90.0)
        );
        let one = summarize(&v[..112], 90.0).unwrap();
        assert_eq!((b.p50, b.tail), (one.p50, one.tail));
        // A burst over the first block, and a lucky last block, move
        // neither value.
        let mut noisy = v.clone();
        for x in &mut noisy[..56] {
            *x += 1000.0;
        }
        for x in &mut noisy[392..] {
            *x -= 1000.0;
        }
        let c = block_summary(&noisy, 90.0).unwrap();
        assert_eq!((c.p50, c.tail), (b.p50, b.tail));
        // Under two tail blocks' worth: one tail block, the plain tail.
        let s = block_summary(&v[..150], 90.0).unwrap();
        assert_eq!((s.blocks, s.tail_blocks), (7, 1));
        assert_eq!(s.tail, summarize(&v[..150], 90.0).unwrap().tail);
        let many: Vec<f64> = (0..5000).map(f64::from).collect();
        let m = block_summary(&many, 90.0).unwrap();
        assert_eq!((m.blocks, m.tail_blocks), (MAX_BLOCKS, MAX_BLOCKS));
        assert!(block_summary(&v[..15], 90.0).is_none());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn clear_gain_is_a_gain() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(compare(&parent, &change, Better::Lower, 0.1), Verdict::Gain);
        assert_eq!(
            compare(&parent, &change, Better::Higher, 0.1),
            Verdict::Regression
        );
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let parent = [100.0; 10];
        let mut change = [90.0; 10];
        change[0] = 110.0;
        change[1] = 100.0; // a tie counts for neither side
        assert_ne!(compare(&parent, &change, Better::Lower, 0.2), Verdict::Gain);
        change[1] = 90.0;
        // Nine wins of ten, gap 10 > parent IQR 0.
        assert_eq!(compare(&parent, &change, Better::Lower, 0.2), Verdict::Gain);
    }

    #[test]
    fn gap_inside_parent_iqr_is_not_a_gain() {
        // The change wins every pair, but by less than the parent's own
        // quartile spread: not a gain, only "no worse".
        let parent = [
            80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(
            compare(&parent, &change, Better::Lower, 0.5),
            Verdict::NoWorse
        );
    }

    #[test]
    fn small_slowdown_within_bound_is_no_worse() {
        let parent = [
            100.0, 101.0, 99.0, 100.0, 100.0, 101.0, 99.0, 100.0, 100.0, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p * 1.03).collect();
        assert_eq!(
            compare(&parent, &change, Better::Lower, 0.1),
            Verdict::NoWorse
        );
        let change: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            compare(&parent, &change, Better::Lower, 0.1),
            Verdict::Regression
        );
    }

    #[test]
    fn spread_beyond_bound_is_unresolved() {
        let parent = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0,
        ];
        let change = [
            55.0, 160.0, 65.0, 150.0, 110.0, 75.0, 140.0, 85.0, 125.0, 104.0,
        ];
        assert_eq!(
            compare(&parent, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every run of the parent.
        let change = [10.0, 12.0, 11.0, 13.0, 10.5, 11.5, 12.5, 10.2, 11.8, 12.2];
        assert_ne!(
            compare(&parent, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
