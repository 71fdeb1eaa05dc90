//! # bookleaf-eos
//!
//! Equations of state for BookLeaf-rs.
//!
//! Euler's equations (mass, momentum, energy) are closed by an Equation of
//! State relating pressure to density and specific internal energy.
//! BookLeaf provides three EoS options — **ideal gas**, **Tait** and
//! **JWL** — plus a **void** option; this crate implements all four with
//! analytic sound speeds and a material table keyed by region id (what
//! the `getpc` kernel looks each element's EoS up in).
//!
//! The adiabatic sound speed is evaluated from the exact thermodynamic
//! identity
//!
//! ```text
//! cs² = (∂p/∂ρ)|ε + (p/ρ²) (∂p/∂ε)|ρ
//! ```
//!
//! which reduces to the familiar `γp/ρ` for an ideal gas.

mod material;
mod spec;

pub use material::MaterialTable;
pub use spec::EosSpec;

/// Floor applied to sound speed squared to keep the CFL condition finite
/// in cold or void regions.
pub const CS2_FLOOR: f64 = 1.0e-10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_compile() {
        let t = MaterialTable::single(EosSpec::ideal_gas(1.4));
        assert_eq!(t.spec(0), &EosSpec::ideal_gas(1.4));
    }
}
