//! The four EoS forms and their analytic derivatives.

use crate::CS2_FLOOR;

/// An equation of state `p = p(ρ, ε)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EosSpec {
    /// Ideal (gamma-law) gas: `p = (γ−1) ρ ε`.
    IdealGas {
        /// Ratio of specific heats.
        gamma: f64,
    },
    /// Tait (stiffened liquid) form: `p = p0 [ (ρ/ρ0)^γ − 1 ]`.
    ///
    /// Pressure is a function of density only; energy plays no role. Used
    /// for nearly incompressible liquids (water-like materials).
    Tait {
        /// Reference bulk modulus scale.
        p0: f64,
        /// Reference density.
        rho0: f64,
        /// Tait exponent (≈ 7 for water).
        gamma: f64,
    },
    /// Jones–Wilkins–Lee detonation-product EoS:
    /// `p = A (1 − ω/(R1 v)) e^{−R1 v} + B (1 − ω/(R2 v)) e^{−R2 v} + ω ρ ε`
    /// with relative volume `v = ρ0/ρ`.
    Jwl {
        /// First exponential coefficient.
        a: f64,
        /// Second exponential coefficient.
        b: f64,
        /// First exponential rate.
        r1: f64,
        /// Second exponential rate.
        r2: f64,
        /// Grüneisen coefficient.
        omega: f64,
        /// Reference (unreacted) density.
        rho0: f64,
    },
    /// Void: zero pressure, floor sound speed. Used for empty regions.
    Void,
}

impl EosSpec {
    /// Convenience constructor for the most common case.
    #[must_use]
    pub fn ideal_gas(gamma: f64) -> Self {
        EosSpec::IdealGas { gamma }
    }

    /// Pressure from density and specific internal energy.
    #[inline(always)]
    #[must_use]
    pub(crate) fn pressure(&self, rho: f64, ein: f64) -> f64 {
        match *self {
            EosSpec::IdealGas { gamma } => (gamma - 1.0) * rho * ein,
            EosSpec::Tait { p0, rho0, gamma } => p0 * ((rho / rho0).powf(gamma) - 1.0),
            EosSpec::Jwl {
                a,
                b,
                r1,
                r2,
                omega,
                rho0,
            } => {
                let v = rho0 / rho;
                a * (1.0 - omega / (r1 * v)) * (-r1 * v).exp()
                    + b * (1.0 - omega / (r2 * v)) * (-r2 * v).exp()
                    + omega * rho * ein
            }
            EosSpec::Void => 0.0,
        }
    }

    /// `(∂p/∂ρ)|ε` — analytic.
    #[inline(always)]
    #[must_use]
    fn dp_drho(&self, rho: f64, ein: f64) -> f64 {
        match *self {
            EosSpec::IdealGas { gamma } => (gamma - 1.0) * ein,
            EosSpec::Tait { p0, rho0, gamma } => p0 * gamma * (rho / rho0).powf(gamma - 1.0) / rho0,
            EosSpec::Jwl {
                a,
                b,
                r1,
                r2,
                omega,
                rho0,
            } => {
                let v = rho0 / rho;
                let dv_drho = -rho0 / (rho * rho);
                // d/dv of each exponential term.
                let term = |coef: f64, r: f64| {
                    coef * (-r * v).exp() * (omega / (r * v * v) - r + omega / v)
                };
                (term(a, r1) + term(b, r2)) * dv_drho + omega * ein
            }
            EosSpec::Void => 0.0,
        }
    }

    /// `(∂p/∂ε)|ρ` — analytic.
    #[inline(always)]
    #[must_use]
    fn dp_dein(&self, rho: f64) -> f64 {
        match *self {
            EosSpec::IdealGas { gamma } => (gamma - 1.0) * rho,
            EosSpec::Tait { .. } => 0.0,
            EosSpec::Jwl { omega, .. } => omega * rho,
            EosSpec::Void => 0.0,
        }
    }

    /// Pressure and sound speed squared in one call (the `getpc` kernel
    /// needs both; this avoids re-deriving `p`).
    ///
    /// Always inlined, with the three forms it is made of: the EOS sweeps
    /// call it per element, and out of line the `match` on the form is
    /// taken three times behind a call (`scripts/hot_loops.sh` holds the
    /// line).
    #[inline(always)]
    #[must_use]
    pub fn pressure_cs2(&self, rho: f64, ein: f64) -> (f64, f64) {
        let p = self.pressure(rho, ein);
        if matches!(self, EosSpec::Void) || rho <= 0.0 {
            return (p, CS2_FLOOR);
        }
        let cs2 = self.dp_drho(rho, ein) + p / (rho * rho) * self.dp_dein(rho);
        (p, cs2.max(CS2_FLOOR))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_util::approx_eq;

    #[test]
    fn ideal_gas_pressure_and_cs2() {
        let eos = EosSpec::ideal_gas(1.4);
        let (rho, ein) = (1.0, 2.5);
        let p = eos.pressure(rho, ein);
        assert!(approx_eq(p, 1.0, 1e-14)); // (1.4-1)*1*2.5 = 1
        let cs2 = eos.pressure_cs2(rho, ein).1;
        assert!(approx_eq(cs2, 1.4 * p / rho, 1e-12)); // γp/ρ
    }

    #[test]
    fn tait_reference_density_zero_pressure() {
        let eos = EosSpec::Tait {
            p0: 3.0e2,
            rho0: 1.0,
            gamma: 7.0,
        };
        assert!(approx_eq(eos.pressure(1.0, 99.0), 0.0, 1e-12));
        // Compression raises pressure steeply.
        assert!(eos.pressure(1.1, 0.0) > 2.0 * 3.0e2 * 0.1 * 7.0 * 0.5);
        // Tension gives negative pressure.
        assert!(eos.pressure(0.9, 0.0) < 0.0);
    }

    #[test]
    fn tait_energy_independent() {
        let eos = EosSpec::Tait {
            p0: 1.0,
            rho0: 1.0,
            gamma: 7.0,
        };
        assert_eq!(eos.pressure(1.2, 0.0), eos.pressure(1.2, 55.0));
        assert_eq!(eos.dp_dein(1.2), 0.0);
    }

    #[test]
    fn jwl_reduces_to_omega_term_at_low_density() {
        // As v = rho0/rho -> large, exponentials vanish: p -> ω ρ ε.
        let eos = EosSpec::Jwl {
            a: 6.0e2,
            b: 0.1e2,
            r1: 4.5,
            r2: 1.5,
            omega: 0.3,
            rho0: 1.8,
        };
        let (rho, ein) = (0.01, 5.0);
        let p = eos.pressure(rho, ein);
        assert!(approx_eq(p, 0.3 * rho * ein, 1e-6), "p = {p}");
    }

    #[test]
    fn void_is_inert() {
        assert_eq!(EosSpec::Void.pressure(1.0, 1.0), 0.0);
        assert_eq!(EosSpec::Void.pressure_cs2(1.0, 1.0).1, CS2_FLOOR);
    }

    #[test]
    fn cs2_floored_for_cold_gas() {
        let eos = EosSpec::ideal_gas(1.4);
        assert_eq!(eos.pressure_cs2(1.0, 0.0).1, CS2_FLOOR);
        assert_eq!(eos.pressure_cs2(-1.0, 1.0).1, CS2_FLOOR);
    }

    /// Finite-difference validation of the analytic derivatives for every
    /// non-trivial EoS.
    #[test]
    fn derivatives_match_finite_differences() {
        let specs = [
            EosSpec::ideal_gas(5.0 / 3.0),
            EosSpec::Tait {
                p0: 2.0,
                rho0: 1.1,
                gamma: 7.15,
            },
            EosSpec::Jwl {
                a: 6.0,
                b: 0.15,
                r1: 4.5,
                r2: 1.4,
                omega: 0.35,
                rho0: 1.6,
            },
        ];
        let (rho, ein) = (1.3, 2.1);
        let h = 1e-6;
        for eos in specs {
            let num_drho = (eos.pressure(rho + h, ein) - eos.pressure(rho - h, ein)) / (2.0 * h);
            assert!(
                approx_eq(eos.dp_drho(rho, ein), num_drho, 1e-5),
                "{eos:?}: dp/drho {} vs {num_drho}",
                eos.dp_drho(rho, ein)
            );
            let num_dein = (eos.pressure(rho, ein + h) - eos.pressure(rho, ein - h)) / (2.0 * h);
            assert!(
                approx_eq(eos.dp_dein(rho), num_dein, 1e-5),
                "{eos:?}: dp/dein {} vs {num_dein}",
                eos.dp_dein(rho)
            );
        }
    }

    #[test]
    fn pressure_cs2_consistent_with_separate_calls() {
        let eos = EosSpec::Jwl {
            a: 6.0,
            b: 0.15,
            r1: 4.5,
            r2: 1.4,
            omega: 0.35,
            rho0: 1.6,
        };
        let (p, cs2) = eos.pressure_cs2(1.9, 3.0);
        assert_eq!(p, eos.pressure(1.9, 3.0));
        let (rho, ein) = (1.9, 3.0);
        let expected = eos.dp_drho(rho, ein) + p / (rho * rho) * eos.dp_dein(rho);
        assert_eq!(cs2, expected.max(CS2_FLOOR));
    }

    #[test]
    fn jwl_cs2_positive_in_expansion_and_compression() {
        let eos = EosSpec::Jwl {
            a: 6.0,
            b: 0.15,
            r1: 4.5,
            r2: 1.4,
            omega: 0.35,
            rho0: 1.6,
        };
        for rho in [0.5, 1.0, 1.6, 2.5] {
            assert!(eos.pressure_cs2(rho, 4.0).1 > 0.0, "rho = {rho}");
        }
    }
}
