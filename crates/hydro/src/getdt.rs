//! `getdt`: explicit time-step control.
//!
//! Euler's equations are hyperbolic; BookLeaf integrates them explicitly,
//! so the step must respect a CFL condition. Three limits apply:
//!
//! * **CFL**: `dt ≤ cfl_sf · l / c_eff` per element, with characteristic
//!   length `l` and effective signal speed `c_eff² = cs² + 2 q/ρ`
//!   (viscosity stiffens the acoustics);
//! * **divergence**: `dt ≤ div_sf / |∇·u|` so no element's volume changes
//!   by more than a fraction per step;
//! * **growth**: `dt ≤ growth · dt_prev` and `dt ≤ dt_max`.
//!
//! The reference implementation computes the element minimum with
//! Fortran `MINVAL`/`MINLOC` intrinsics — the paper's §IV-B notes these
//! had to be expanded into explicit loops for OpenMP; we track the
//! controlling element explicitly for the same reason (and better error
//! messages). In a distributed run this kernel ends in BookLeaf's *only*
//! global reduction.

use bookleaf_mesh::geometry::velocity_divergence;
use bookleaf_mesh::Mesh;
use bookleaf_util::constants;
use bookleaf_util::{BookLeafError, Result};

use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep, Pass};
use crate::Threading;

/// Time-step control parameters (deck-overridable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtControls {
    /// CFL safety factor.
    pub cfl_sf: f64,
    /// Divergence safety factor.
    pub div_sf: f64,
    /// Max growth factor per step.
    pub growth: f64,
    /// Initial dt.
    pub dt_initial: f64,
    /// Hard maximum dt.
    pub dt_max: f64,
    /// Hard minimum dt (collapse below is fatal).
    pub dt_min: f64,
}

impl Default for DtControls {
    fn default() -> Self {
        DtControls {
            cfl_sf: constants::CFL_SF,
            div_sf: constants::DIV_SF,
            growth: constants::DT_GROWTH,
            dt_initial: constants::DT_INITIAL,
            dt_max: constants::DT_MAX,
            dt_min: constants::DT_MIN,
        }
    }
}

/// Which constraint set the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DtCause {
    /// Sound-speed CFL in the given element.
    Cfl(usize),
    /// Velocity divergence in the given element.
    Divergence(usize),
    /// Growth cap from the previous step.
    Growth,
    /// The configured maximum.
    Max,
    /// First step: the configured initial dt.
    Initial,
}

/// The local (this rank's) time-step proposal before the global min.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtProposal {
    /// Proposed dt.
    pub dt: f64,
    /// Constraint that set it.
    pub cause: DtCause,
}

/// Compute this rank's dt proposal. `dt_prev` is `None` on the first
/// step (use `dt_initial`). Also refreshes `state.div_u`.
pub fn getdt(
    mesh: &Mesh,
    state: &mut HydroState,
    range: LocalRange,
    controls: &DtControls,
    dt_prev: Option<f64>,
    threading: Threading,
) -> Result<DtProposal> {
    let n = range.n_owned_el;
    let dt_prev = match dt_prev {
        None => {
            return Ok(DtProposal {
                dt: controls.dt_initial,
                cause: DtCause::Initial,
            });
        }
        Some(d) => d,
    };

    let (elnd, x, u) = (&mesh.elnd[..n], &mesh.nodes, &state.u);
    sweep(
        threading,
        Pass::All,
        (&mut state.div_u[..n],),
        |e, (div,)| {
            let nd = elnd[e].map(|n| n as usize);
            *div = velocity_divergence(&nd.map(|n| x[n]), &nd.map(|n| u[n]));
        },
    );

    // The min-scan (the MINVAL/MINLOC the paper discusses) — serial, it
    // is O(n) with trivial cost next to the sweep above.
    let mut min_cfl = (f64::INFINITY, 0usize);
    let mut max_div = (0.0f64, 0usize);
    for e in 0..n {
        let c_eff2 = state.cs2[e] + 2.0 * state.q[e] / state.rho[e].max(1e-300);
        let ratio = state.length[e] * state.length[e] / c_eff2.max(1e-300);
        if ratio < min_cfl.0 {
            min_cfl = (ratio, e);
        }
        let ad = state.div_u[e].abs();
        if ad > max_div.0 {
            max_div = (ad, e);
        }
    }

    let dt_cfl = controls.cfl_sf * min_cfl.0.sqrt();
    let dt_div = if max_div.0 > 0.0 {
        controls.div_sf / max_div.0
    } else {
        f64::INFINITY
    };
    let dt_growth = controls.growth * dt_prev;

    let mut dt = dt_cfl;
    let mut cause = DtCause::Cfl(min_cfl.1);
    if dt_div < dt {
        dt = dt_div;
        cause = DtCause::Divergence(max_div.1);
    }
    if dt_growth < dt {
        dt = dt_growth;
        cause = DtCause::Growth;
    }
    if controls.dt_max < dt {
        dt = controls.dt_max;
        cause = DtCause::Max;
    }

    if dt < controls.dt_min || !dt.is_finite() {
        return Err(BookLeafError::TimestepCollapse {
            dt,
            dt_min: controls.dt_min,
            cause: format!("{cause:?}"),
        });
    }
    Ok(DtProposal { dt, cause })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::{approx_eq, Vec2};

    fn setup(n: usize) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
        (mesh, st)
    }

    #[test]
    fn first_step_uses_initial_dt() {
        let (mesh, mut st) = setup(4);
        let p = getdt(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            &DtControls::default(),
            None,
            Threading::Serial,
        )
        .unwrap();
        assert_eq!(p.dt, DtControls::default().dt_initial);
        assert_eq!(p.cause, DtCause::Initial);
    }

    #[test]
    fn cfl_limit_for_quiescent_gas() {
        let (mesh, mut st) = setup(10);
        // cs² = 1.4 * 1 / 1 = 1.4; l = 0.1 -> dt_cfl = 0.5 * 0.1/sqrt(1.4).
        let ctrl = DtControls {
            growth: 1e9,
            dt_max: 1e9,
            ..DtControls::default()
        };
        let p = getdt(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            &ctrl,
            Some(1.0),
            Threading::Serial,
        )
        .unwrap();
        let expect = 0.5 * 0.1 / 1.4f64.sqrt();
        assert!(approx_eq(p.dt, expect, 1e-12), "{} vs {expect}", p.dt);
        assert!(matches!(p.cause, DtCause::Cfl(_)));
    }

    #[test]
    fn growth_cap_applies() {
        let (mesh, mut st) = setup(4);
        let ctrl = DtControls::default();
        let p = getdt(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            &ctrl,
            Some(1e-6),
            Threading::Serial,
        )
        .unwrap();
        assert!(approx_eq(p.dt, 1.02e-6, 1e-12));
        assert_eq!(p.cause, DtCause::Growth);
    }

    #[test]
    fn divergence_limits_fast_compression() {
        let (mesh, mut st) = setup(4);
        // Strong uniform compression u = -50 x: div u = -100.
        for n in 0..mesh.n_nodes() {
            st.u[n] = Vec2::new(-50.0 * mesh.nodes[n].x, -50.0 * mesh.nodes[n].y);
        }
        let ctrl = DtControls {
            growth: 1e9,
            dt_max: 1e9,
            ..DtControls::default()
        };
        let p = getdt(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            &ctrl,
            Some(1.0),
            Threading::Serial,
        )
        .unwrap();
        assert!(matches!(p.cause, DtCause::Divergence(_)));
        assert!(approx_eq(p.dt, 0.25 / 100.0, 1e-10), "dt = {}", p.dt);
    }

    #[test]
    fn viscosity_tightens_cfl() {
        let (mesh, mut st0) = setup(4);
        let ctrl = DtControls {
            growth: 1e9,
            dt_max: 1e9,
            ..DtControls::default()
        };
        let base = getdt(
            &mesh,
            &mut st0.clone(),
            LocalRange::whole(&mesh),
            &ctrl,
            Some(1.0),
            Threading::Serial,
        )
        .unwrap();
        for q in &mut st0.q {
            *q = 5.0;
        }
        let with_q = getdt(
            &mesh,
            &mut st0,
            LocalRange::whole(&mesh),
            &ctrl,
            Some(1.0),
            Threading::Serial,
        )
        .unwrap();
        assert!(with_q.dt < base.dt);
    }

    #[test]
    fn collapse_is_fatal() {
        let (mesh, mut st) = setup(4);
        let ctrl = DtControls {
            dt_min: 1.0,
            growth: 1e9,
            ..DtControls::default()
        };
        let err = getdt(
            &mesh,
            &mut st,
            LocalRange::whole(&mesh),
            &ctrl,
            Some(1.0),
            Threading::Serial,
        )
        .unwrap_err();
        assert!(matches!(err, BookLeafError::TimestepCollapse { .. }));
    }

    #[test]
    fn serial_matches_rayon() {
        let (mesh, mut a) = setup(6);
        for n in 0..mesh.n_nodes() {
            a.u[n] = Vec2::new((n as f64).sin(), -(n as f64).cos());
        }
        let mut b = a.clone();
        let ctrl = DtControls {
            growth: 1e9,
            dt_max: 1e9,
            ..DtControls::default()
        };
        let pa = getdt(
            &mesh,
            &mut a,
            LocalRange::whole(&mesh),
            &ctrl,
            Some(1.0),
            Threading::Serial,
        )
        .unwrap();
        let pb = getdt(
            &mesh,
            &mut b,
            LocalRange::whole(&mesh),
            &ctrl,
            Some(1.0),
            Threading::Rayon,
        )
        .unwrap();
        assert_eq!(pa.dt, pb.dt);
        assert_eq!(a.div_u, b.div_u);
    }
}
