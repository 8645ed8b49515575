//! The benchmark's own statistics: medians, quartiles, nearest-rank
//! percentiles, the tail-percentile rule and the per-layer remainder.

/// The standard percentiles a `_tail_` metric may report, lowest first.
pub const STANDARD_PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// A tail percentile must leave at least this many samples beyond it.
pub const MIN_SAMPLES_BEYOND_TAIL: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// (Python's `statistics.quantiles(values, n=4)`). Needs two values;
/// with fewer, every quartile is the single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
/// The epsilon keeps a product such as 99.9 × 10 000 / 100, which binary
/// floating point may put a hair above 9990, from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; 0 for none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest standard percentile that leaves at least
/// [`MIN_SAMPLES_BEYOND_TAIL`] of `n` samples beyond it; `None` when
/// even the median does not (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    STANDARD_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND_TAIL)
}

/// Summary of one latency sample set: median, tail and which
/// percentile the tail is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    /// `None` when too few samples for any tail; `tail` is then the
    /// maximum.
    pub tail_percentile: Option<f64>,
}

impl Latency {
    /// Median and tail of `samples`. The tail percentile follows from
    /// `run_length`, the sample count a run is guaranteed to reach, not
    /// from the count this run happened to reach: a faster host then
    /// reports the same percentile as a slower one.
    pub fn of(samples: &[f64], run_length: usize) -> Latency {
        let tail_percentile = tail_percentile(run_length.min(samples.len()));
        Latency {
            count: samples.len(),
            p50: percentile(samples, 50.0),
            tail: percentile(samples, tail_percentile.unwrap_or(100.0)),
            tail_percentile,
        }
    }
}

/// End-to-end time per item left over once the measured layers are
/// taken away. Layers timed on the caller's thread count in full;
/// layers timed inside the worker pool ran `pool_width` at a time, so
/// each counts at `1 / pool_width` of its summed time. Negative when
/// the traced layers cost more than the untraced whole.
pub fn unattributed_ns(
    e2e_ns: f64,
    serial_ns: &[f64],
    pooled_ns: &[f64],
    pool_width: usize,
) -> f64 {
    let serial: f64 = serial_ns.iter().sum();
    let pooled: f64 = pooled_ns.iter().sum();
    e2e_ns - serial - pooled / pool_width.max(1) as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn relative_iqr_is_share_of_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn samples_beyond_counts_strictly_greater_ranks() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_percentile_is_highest_with_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn latency_summary_uses_the_tail_rule() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&v, 1000);
        assert_eq!(
            (l.count, l.p50, l.tail, l.tail_percentile),
            (1000, 500.0, 990.0, Some(99.0))
        );
        // A run past its fixed length keeps the fixed length's tail.
        let v: Vec<f64> = (1..=20_000).map(f64::from).collect();
        let l = Latency::of(&v, 1000);
        assert_eq!((l.tail, l.tail_percentile), (19_800.0, Some(99.0)));
        // A run short of it falls back to what its own count allows.
        let l = Latency::of(&v[..500], 1000);
        assert_eq!((l.tail, l.tail_percentile), (475.0, Some(95.0)));
        let few = Latency::of(&[1.0, 9.0, 4.0], 1000);
        assert_eq!((few.tail, few.tail_percentile), (9.0, None));
    }

    #[test]
    fn unattributed_subtracts_serial_and_width_scaled_pool_layers() {
        // 100 ns end to end; 30 ns on the caller; 80 ns of pool work on
        // two workers is 40 ns of wall time.
        assert_eq!(
            unattributed_ns(100.0, &[10.0, 20.0], &[50.0, 30.0], 2),
            30.0
        );
        assert_eq!(
            unattributed_ns(100.0, &[10.0, 20.0], &[50.0, 30.0], 1),
            -10.0
        );
        // A zero width is treated as serial rather than dividing by 0.
        assert_eq!(unattributed_ns(10.0, &[], &[4.0], 0), 6.0);
    }

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
