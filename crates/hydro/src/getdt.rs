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
//! had to be expanded into explicit loops for OpenMP; here the length,
//! the divergence, the CFL ratio and both extrema are one reduction
//! sweep over the elements that tracks the controlling element (for
//! [`DtCause`] and better error messages). In a distributed run this
//! kernel ends in BookLeaf's *only* global reduction.

use bookleaf_mesh::geometry::{char_length, velocity_divergence};
use bookleaf_mesh::Mesh;
use bookleaf_util::constants;
use bookleaf_util::{BookLeafError, Result};

use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep_reduce, Pass};
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

/// An extremum of the sweep and the element that holds it; the first
/// such element on a tie.
type Extremum = (f64, usize);

/// No finite CFL ratio seen: the identity of [`first_min`].
const NO_RATIO: Extremum = (f64::INFINITY, 0);
/// No positive `|∇·u|` seen: the identity of [`first_max`].
const NO_DIVERGENCE: Extremum = (0.0, 0);

/// The smaller value, the lower element on a tie. Associative and
/// commutative over the pairs the sweep makes (no NaN values), so any
/// split of the range finds what a serial first-occurrence `<` scan
/// does.
#[inline(always)]
fn first_min(a: Extremum, b: Extremum) -> Extremum {
    if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) {
        b
    } else {
        a
    }
}

/// The larger value, the lower element on a tie (see [`first_min`]).
#[inline(always)]
fn first_max(a: Extremum, b: Extremum) -> Extremum {
    if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
        b
    } else {
        a
    }
}

/// Compute this rank's dt proposal. `dt_prev` is `None` on the first
/// step (use `dt_initial`).
///
/// Every element's characteristic length and velocity divergence are
/// computed here, from its corners, where they are read: one reduction
/// sweep yields the smallest CFL ratio `l² / c_eff²` and the largest
/// `|∇·u|` with the elements that hold them. A ratio that is not below
/// infinity (NaN included) and a divergence that is not above zero
/// never set the step, exactly as in a serial `<` / `>` scan.
pub fn getdt(
    mesh: &Mesh,
    state: &HydroState,
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

    let (x, u) = (&mesh.nodes, &state.u);
    let (cs2, q, rho) = (&state.cs2[..n], &state.q[..n], &state.rho[..n]);
    let (min_cfl, max_div) = sweep_reduce(
        threading,
        Pass::All,
        &mesh.elnd[..n],
        (NO_RATIO, NO_DIVERGENCE),
        |a, b| (first_min(a.0, b.0), first_max(a.1, b.1)),
        |e, nd| {
            let nd = nd.map(|n| n as usize);
            let corners = nd.map(|n| x[n]);
            let length = char_length(&corners);
            let c_eff2 = cs2[e] + 2.0 * q[e] / rho[e].max(1e-300);
            let ratio = length * length / c_eff2.max(1e-300);
            let div = velocity_divergence(&corners, &nd.map(|n| u[n])).abs();
            (
                if ratio < f64::INFINITY {
                    (ratio, e)
                } else {
                    NO_RATIO
                },
                if div > 0.0 { (div, e) } else { NO_DIVERGENCE },
            )
        },
    );

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
        let (mesh, st) = setup(4);
        let p = getdt(
            &mesh,
            &st,
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
        let (mesh, st) = setup(10);
        // cs² = 1.4 * 1 / 1 = 1.4; l = 0.1 -> dt_cfl = 0.5 * 0.1/sqrt(1.4).
        let ctrl = DtControls {
            growth: 1e9,
            dt_max: 1e9,
            ..DtControls::default()
        };
        let p = getdt(
            &mesh,
            &st,
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
        let (mesh, st) = setup(4);
        let ctrl = DtControls::default();
        let p = getdt(
            &mesh,
            &st,
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
            &st,
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
            &st0,
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
            &st0,
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
        let (mesh, st) = setup(4);
        let ctrl = DtControls {
            dt_min: 1.0,
            growth: 1e9,
            ..DtControls::default()
        };
        let err = getdt(
            &mesh,
            &st,
            LocalRange::whole(&mesh),
            &ctrl,
            Some(1.0),
            Threading::Serial,
        )
        .unwrap_err();
        assert!(matches!(err, BookLeafError::TimestepCollapse { .. }));
    }

    /// The serial first-occurrence scan the reduction must equal: the
    /// element loop the reduction replaced, over freshly computed
    /// lengths and divergences.
    fn scan(mesh: &Mesh, st: &HydroState, ctrl: &DtControls, dt_prev: f64) -> DtProposal {
        let mut min_cfl = (f64::INFINITY, 0usize);
        let mut max_div = (0.0f64, 0usize);
        for e in 0..mesh.n_elements() {
            let corners = mesh.corners(e);
            let length = char_length(&corners);
            let c_eff2 = st.cs2[e] + 2.0 * st.q[e] / st.rho[e].max(1e-300);
            let ratio = length * length / c_eff2.max(1e-300);
            if ratio < min_cfl.0 {
                min_cfl = (ratio, e);
            }
            let u = mesh.elnd[e].map(|n| st.u[n as usize]);
            let ad = velocity_divergence(&corners, &u).abs();
            if ad > max_div.0 {
                max_div = (ad, e);
            }
        }
        let dt_cfl = ctrl.cfl_sf * min_cfl.0.sqrt();
        let dt_div = if max_div.0 > 0.0 {
            ctrl.div_sf / max_div.0
        } else {
            f64::INFINITY
        };
        let mut best = DtProposal {
            dt: dt_cfl,
            cause: DtCause::Cfl(min_cfl.1),
        };
        for (dt, cause) in [
            (dt_div, DtCause::Divergence(max_div.1)),
            (ctrl.growth * dt_prev, DtCause::Growth),
            (ctrl.dt_max, DtCause::Max),
        ] {
            if dt < best.dt {
                best = DtProposal { dt, cause };
            }
        }
        best
    }

    #[test]
    fn the_reduction_is_the_first_occurrence_scan_under_every_driver() {
        // An 8×8 grid of side 2^17: every coordinate is dyadic, so every
        // element's length is exactly 2^14 and equal ratios are equal
        // bits. With cs² = l² the CFL ratio is 1; four elements in four
        // different leaves of a 4-wide pool's tree tie at 1/4 (cs² four
        // times larger), element 5 has cs² = 0 and so an infinite ratio,
        // and a NaN corner (node 0, element 0's alone) makes element 0's
        // ratio and divergence NaN.
        let mut mesh = generate_rect(&RectSpec::unit_square(8), |_| 0).unwrap();
        for p in &mut mesh.nodes {
            *p *= f64::from(1 << 17);
        }
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let mut st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
        mesh.nodes[0].x = f64::NAN;
        let l2 = f64::from(1 << 28);
        st.cs2.fill(l2);
        st.q.fill(0.0);
        for e in [13, 27, 40, 58] {
            st.cs2[e] = 4.0 * l2;
        }
        st.cs2[5] = 0.0;
        // Two equal bumps, far apart: a node pushed along x makes the
        // four elements round it (9, 10, 17, 18 and 44, 45, 52, 53)
        // diverge by the same |∇·u|, so eight elements tie for the
        // largest.
        for n in [2 * 9 + 2, 6 * 9 + 5] {
            st.u[n] = Vec2::new(3.0, 0.0);
        }

        let cfl_wins = DtControls {
            growth: 1e9,
            dt_max: 1e9,
            div_sf: 1e9,
            ..DtControls::default()
        };
        let div_wins = DtControls {
            div_sf: 1e-9,
            ..cfl_wins
        };
        for (ctrl, want) in [
            (cfl_wins, DtCause::Cfl(13)),
            (div_wins, DtCause::Divergence(9)),
        ] {
            let oracle = scan(&mesh, &st, &ctrl, 1.0);
            assert_eq!(oracle.cause, want, "the mesh sets up the ties it means to");
            crate::sweep::tests::under_every_driver(|th, driver| {
                let range = LocalRange::whole(&mesh);
                let p = getdt(&mesh, &st, range, &ctrl, Some(1.0), th).unwrap();
                assert_eq!(p.dt.to_bits(), oracle.dt.to_bits(), "{driver}");
                assert_eq!(p.cause, oracle.cause, "{driver}");
            });
        }

        // No finite ratio and no divergence anywhere: the identities,
        // as the scan leaves them, and with no cap the step collapses
        // on element 0.
        let mut blank = st.clone();
        blank.u.fill(Vec2::ZERO);
        blank.cs2.fill(0.0);
        let unbounded = DtControls {
            growth: f64::INFINITY,
            dt_max: f64::INFINITY,
            ..cfl_wins
        };
        let oracle = scan(&mesh, &blank, &unbounded, 1.0);
        assert_eq!(oracle.cause, DtCause::Cfl(0));
        crate::sweep::tests::under_every_driver(|th, driver| {
            let range = LocalRange::whole(&mesh);
            let err = getdt(&mesh, &blank, range, &unbounded, Some(1.0), th).unwrap_err();
            assert!(
                matches!(&err, BookLeafError::TimestepCollapse { cause, .. } if cause == "Cfl(0)"),
                "{driver}: {err:?}"
            );
        });
    }
}
