//! Numerical constants shared across the workspace.
//!
//! These mirror the defaults of the BookLeaf reference implementation's
//! input namelists; individual decks may override them.

/// Default CFL safety factor applied to the sound-speed time-step limit.
pub const CFL_SF: f64 = 0.5;

/// Default divergence safety factor applied to the volume-change limit.
pub const DIV_SF: f64 = 0.25;

/// Maximum factor by which the time step may grow between steps.
pub const DT_GROWTH: f64 = 1.02;

/// Default initial time step.
pub const DT_INITIAL: f64 = 1.0e-5;

/// Default maximum time step.
pub const DT_MAX: f64 = 1.0e-1;

/// Default minimum time step; collapse below this is a fatal error.
pub const DT_MIN: f64 = 1.0e-12;

/// Linear (first-order) artificial viscosity coefficient (Caramana et al.).
pub const CQ1: f64 = 0.5;

/// Quadratic (second-order) artificial viscosity coefficient.
pub const CQ2: f64 = 0.75;

/// Hourglass filter coefficient (Hancock-style damping).
pub const KAPPA_HG: f64 = 0.7;

/// Sub-zonal pressure restoring coefficient (Caramana–Shashkov).
pub const ZETA_SZ: f64 = 0.3;

/// Cut-off for velocity magnitudes treated as zero in limiters.
pub const ZERO_CUT: f64 = 1.0e-40;

/// Number of corners (= nodes = faces) of a quadrilateral element.
pub const NCORN: usize = 4;

#[cfg(test)]
mod tests {
    // These sanity tests intentionally assert on the constants above —
    // they exist to fail loudly if anyone edits a default out of range.
    #![allow(clippy::assertions_on_constants)]
    use super::*;

    #[test]
    fn safety_factors_in_unit_interval() {
        assert!(CFL_SF > 0.0 && CFL_SF <= 1.0);
        assert!(DIV_SF > 0.0 && DIV_SF <= 1.0);
    }

    #[test]
    fn dt_bounds_ordered() {
        assert!(DT_MIN < DT_INITIAL);
        assert!(DT_INITIAL < DT_MAX);
        assert!(DT_GROWTH > 1.0);
    }

    #[test]
    fn viscosity_coefficients_positive() {
        assert!(CQ1 > 0.0);
        assert!(CQ2 > 0.0);
    }
}
