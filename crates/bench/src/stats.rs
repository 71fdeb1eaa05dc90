//! Run-to-run statistics for `table2`.
//!
//! The paper reports "the average runtime of five executions" with
//! "statistically insignificant deviation"; `table2` reproduces that
//! protocol and uses these helpers to summarise its repeated runs.

/// Arithmetic mean. Returns 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation (n-1 denominator). Returns 0 for fewer than
/// two samples.
#[must_use]
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Relative standard deviation (coefficient of variation), used to check
/// the paper's "statistically insignificant deviation" claim on our runs.
#[must_use]
pub fn rel_std_dev(values: &[f64]) -> f64 {
    let m = mean(values);
    if m == 0.0 {
        0.0
    } else {
        std_dev(values) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn std_dev_known_value() {
        // {2, 4, 4, 4, 5, 5, 7, 9}: sample sd = sqrt(32/7)
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((std_dev(&v) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn std_dev_degenerate() {
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn rel_std_dev_zero_mean() {
        assert_eq!(rel_std_dev(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn rel_std_dev_constant_is_zero() {
        assert_eq!(rel_std_dev(&[4.0, 4.0, 4.0]), 0.0);
    }
}
