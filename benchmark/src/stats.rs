//! Order statistics over timing samples.

/// Sort ascending. Samples are finite by construction (elapsed times).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

/// Median of an ascending slice (mean of the middle two when even).
/// `0.0` for an empty slice, so a layer that never ran reports zero.
pub fn median_sorted(xs: &[f64]) -> f64 {
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    median_sorted(&sorted(xs.to_vec()))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `0.0` when empty.
pub fn percentile_sorted(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The time an operation takes when the box leaves it alone: the lowest
/// decile (nearest rank) of its samples. The bench box is a shared
/// host whose neighbours slow throughput-bound code by up to 1.55x for
/// milliseconds to minutes at a time, so a run's median follows the
/// neighbours and not the program; the slow-downs only ever add time, so
/// the low end of the samples is the program's own cost. The decile and
/// not the minimum: one freak-fast sample must not set the result.
pub fn quiet(xs: &[f64]) -> f64 {
    percentile_sorted(&sorted(xs.to_vec()), 0.1)
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so `compare` reads spreads
/// the way the driver does. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let xs = sorted(xs.to_vec());
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis; the interval is clamped
        // into the data but the offset is not, so tiny samples
        // extrapolate exactly as Python does.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        xs[j - 1] + (xs[j] - xs[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median; `0.0` when
/// there are too few samples to have quartiles.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 0.5), 5.0);
        assert_eq!(percentile_sorted(&xs, 0.9), 9.0);
        assert_eq!(percentile_sorted(&xs, 0.91), 10.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.9), 0.0);
        // 160 samples: p90 leaves exactly 16 beyond it.
        let ys: Vec<f64> = (1..=160).map(f64::from).collect();
        assert_eq!(percentile_sorted(&ys, 0.9), 144.0);
    }

    #[test]
    fn quiet_is_the_lowest_decile() {
        assert_eq!(quiet(&[]), 0.0);
        assert_eq!(quiet(&[4.0, 9.0, 5.0]), 4.0);
        // 40 samples: the fourth smallest, whatever the slow ones read.
        let mut xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(quiet(&xs), 4.0);
        for x in xs.iter_mut().filter(|x| **x > 10.0) {
            *x *= 1.55;
        }
        assert_eq!(quiet(&xs), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5].
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((quartile_spread(&xs) - 1.0).abs() < 1e-12);
    }
}
