//! Compensated floating-point summation.
//!
//! Energy-conservation checks in the integration tests need sums over
//! millions of elements that are accurate to near round-off; naive
//! accumulation loses several digits. We provide the Neumaier variant of
//! Kahan summation, which also handles the case where the addend is
//! larger than the running sum.

/// Streaming Neumaier (improved Kahan–Babuška) accumulator.
///
/// ```
/// use bookleaf_util::NeumaierSum;
/// let mut s = NeumaierSum::new();
/// s.add(1e100);
/// s.add(1.0);
/// s.add(-1e100);
/// assert_eq!(s.value(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NeumaierSum {
    sum: f64,
    comp: f64,
}

impl NeumaierSum {
    /// A fresh accumulator holding zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// Add every element of a slice.
    pub fn add_slice(&mut self, values: &[f64]) {
        for &v in values {
            self.add(v);
        }
    }

    /// The compensated total.
    #[inline]
    #[must_use]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neumaier_handles_large_addend() {
        let mut s = NeumaierSum::new();
        s.add(1.0);
        s.add(1e100);
        s.add(1.0);
        s.add(-1e100);
        assert_eq!(s.value(), 2.0);
    }

    #[test]
    fn empty_sums_are_zero() {
        assert_eq!(NeumaierSum::new().value(), 0.0);
    }
}
