//! Order statistics: every sample set is kept as its median, quartiles
//! and outer deciles, never a best-of-N. Which of them a metric's value
//! is, `results::estimate` decides.

use std::fmt::Write as _;

/// `values`, ascending. Samples are finite by construction (the
/// harness never records a NaN), so the total order is safe.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// First and third quartile of an ascending slice exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method)
/// computes them, so a spread printed here is the spread the driver's
/// acceptance script will compute from the same numbers. Fewer than two
/// samples have no spread: both quartiles collapse onto the sample.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let ld = v.len();
    if ld < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        // Signed: after the clamp Python extrapolates past the ends.
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quantile `p` in `[0, 1]` of an ascending slice, interpolated between
/// the two nearest ranks, so it moves smoothly as samples are added.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let at = p * last as f64;
    let lo = at.floor() as usize;
    let hi = (lo + 1).min(last);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]` —
/// the latency convention: the reported value is a latency some request
/// actually saw.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What the result file keeps of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// First and ninth decile: a tenth of the samples lie beyond each.
    pub p10: f64,
    pub p90: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let v = sorted(samples);
        let (q1, q3) = quartiles_sorted(&v);
        Summary {
            n: v.len(),
            median: median_sorted(&v),
            q1,
            q3,
            p10: quantile_sorted(&v, 0.10),
            p90: quantile_sorted(&v, 0.90),
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
        }
    }

    pub fn write_json(&self, out: &mut String, unit: &str) {
        let _ = write!(
            out,
            "{{\"unit\":\"{unit}\",\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"p10\":{},\"p90\":{},\"min\":{},\"max\":{}}}",
            self.n,
            num(self.median),
            num(self.q1),
            num(self.q3),
            num(self.p10),
            num(self.p90),
            num(self.min),
            num(self.max)
        );
    }
}

/// A JSON number with every digit the measurement has. Non-finite
/// values have no JSON form; they are written as `0` and the metric's
/// producer is responsible for failing a check instead.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let quartiles = |values: &[f64]| {
            let s = Summary::of(values);
            (s.q1, s.q3)
        };
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn deciles_interpolate_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.p10, s.p90), (1.0, 9.0));
        // Four samples: rank 0.3 and rank 2.7.
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert!((s.p10 - 1.3).abs() < 1e-12 && (s.p90 - 3.7).abs() < 1e-12);
        let s = Summary::of(&[7.0]);
        assert_eq!((s.p10, s.p90), (7.0, 7.0));
        assert_eq!(Summary::of(&[]).p10, 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_keeps_count_median_and_extremes() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (5, 3.0, 1.0, 5.0));
    }

    #[test]
    fn numbers_keep_all_digits_and_stay_valid_json() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1e-12), "1e-12");
    }
}
