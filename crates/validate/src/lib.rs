//! # bookleaf-validate
//!
//! Analytic reference solutions for BookLeaf's four standard test
//! problems, plus error norms. The integration tests
//! (`tests/*_validation.rs`) compare full runs against these solutions
//! and bound the error.
//!
//! * [`riemann`] — exact solution of Sod's shock tube (exact Riemann
//!   solver for the ideal-gas Euler equations);
//! * [`noh`] — exact solution of the cylindrical Noh implosion;
//! * [`sedov`] — the Sedov–Taylor point-blast similarity solution
//!   (shock trajectory and Rankine–Hugoniot front states);
//! * [`norms`] — L1/L2 error norms of mesh fields against references;
//! * [`quality`] — mesh-quality metrics (aspect ratio, skewness, the
//!   whole-mesh [`quality::QualityReport`], and whether a quad is untangled) that
//!   the Saltzmann validation, the ALE smoothing test and the hourglass
//!   ablation measure a mesh by.

pub mod noh;
pub mod norms;
pub mod quality;
pub mod riemann;
pub mod sedov;

pub use norms::{l1_error, l2_error};
pub use riemann::{ExactRiemann, PrimState};
