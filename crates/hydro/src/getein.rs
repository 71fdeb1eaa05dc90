//! `getein`: the velocity the compatible internal-energy update reads.
//!
//! The update, `m dε/dt = − Σ_corners F_c · u_c` with the momentum
//! equation's own corner forces (so total energy is conserved to
//! round-off, Barlow 2008; `m dε = −P dV` for a uniform pressure), is
//! the energy stage of [`fn@crate::eos_fused`].

/// Which velocity the work term uses: the predictor half-step uses the
/// start-of-step velocity; the corrector uses the time-centred `ubar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkVelocity {
    /// Start-of-step nodal velocity `u`.
    Current,
    /// Time-centred velocity `ubar` set by `getacc`.
    TimeCentred,
}
