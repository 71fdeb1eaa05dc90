//! # bookleaf-util
//!
//! Shared numerical utilities for the BookLeaf-rs workspace: 2-D vector
//! algebra, lane-wise arithmetic for kernels that take several elements
//! per iteration, Neumaier-compensated summation, typed errors and
//! hierarchical per-kernel timers.
//!
//! Everything in this crate is dependency-light and deterministic; the
//! heavier physics crates build on top of it.

pub mod constants;
pub mod error;
pub mod hash;
pub mod lanes;
pub mod sum;
pub mod timer;
pub mod vec2;

pub use error::{
    BookLeafError, CheckpointError, CommError, DeckError, HealthDiagnosis, HealthField, Result,
};
pub use hash::{crc32, crc32_f64s, Crc32, Crc32F64s};
pub use lanes::Lanes;
pub use sum::NeumaierSum;
pub use timer::{KernelId, TimerRegistry, TimerReport};
pub use vec2::Vec2;

/// Relative comparison of two floating point numbers.
///
/// Returns `true` when `a` and `b` are within `tol` of each other relative
/// to their magnitudes, or within `tol` absolutely for values near zero.
/// This is the comparison used throughout the test suites.
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_near_zero() {
        assert!(approx_eq(0.0, 1e-13, 1e-12));
        assert!(!approx_eq(0.0, 1e-9, 1e-12));
    }

    #[test]
    fn approx_eq_relative_large() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-10));
        assert!(!approx_eq(1e12, 1.01e12, 1e-10));
    }

    #[test]
    fn approx_eq_symmetric() {
        assert_eq!(approx_eq(3.0, 4.0, 0.5), approx_eq(4.0, 3.0, 0.5));
    }
}
