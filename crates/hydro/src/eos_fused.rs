//! The fused `getgeom → getrho → getein → getpc` element sweep.
//!
//! All four kernels of the EOS chain are per-element independent: each
//! element's geometry, density, energy and pressure depend only on its
//! own corners, mass, corner forces and nodal velocities — never on
//! another element's output from the same chain. Running them as four
//! separate sweeps therefore streams the element arrays through the
//! cache four times for no algorithmic reason. This module performs the
//! whole chain in **one pass**: corner coordinates are loaded once,
//! geometry, density, the compatible work term and the EOS evaluation
//! happen back-to-back in registers, and pressure/sound-speed are
//! written in the same loop iteration.
//!
//! ## Bitwise contract
//!
//! The fused sweep produces *bitwise identical* state to the unfused
//! chain (which remains in the crate as the reference implementation):
//!
//! - every per-element expression is the same expression, in the same
//!   evaluation order, as its unfused counterpart;
//! - there are no floating-point reductions across elements, so any
//!   traversal [`mod@crate::sweep`] makes of the element range yields the
//!   same bits;
//! - `getpc`'s body is the per-element
//!   `spec(region).pressure_cs2(rho, ein)` — exactly the call made
//!   here.
//!
//! The only observable difference is the **error path**: the unfused
//! chain stops at the first failing kernel (a tangled mesh aborts before
//! density is touched), while the fused sweep completes the pass and
//! *then* reports the first failure with the same error value and
//! precedence (tangling before invalid density). Since both errors are
//! fatal to the step, the partially-updated downstream fields are never
//! observed by a continuing simulation.
//!
//! ## Chain subsets
//!
//! [`EosStages`] lets callers fuse any contiguous or non-contiguous
//! subset of the chain; a disabled stage reads whatever its state array
//! currently holds, exactly as the unfused kernel sequence would. The
//! equivalence suite exercises these combinations against the unfused
//! kernels deck-by-deck.

use bookleaf_eos::MaterialTable;
use bookleaf_mesh::geometry::{char_length, corner_volumes, quad_area};
use bookleaf_mesh::Mesh;
use bookleaf_util::{BookLeafError, Result, Vec2};

use crate::getein::WorkVelocity;
use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep_reduce, Pass};
use crate::Threading;

/// Which stages of the `getgeom → getrho → getein → getpc` chain the
/// fused sweep executes. A disabled stage's outputs are left untouched
/// and its inputs are read from the current state arrays — the same
/// dataflow as skipping that kernel in the unfused sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EosStages {
    /// Recompute volume, corner volumes and characteristic length.
    pub geom: bool,
    /// Recompute density from mass and volume.
    pub rho: bool,
    /// Advance internal energy by the compatible work term.
    pub ein: bool,
    /// Evaluate the EOS for pressure and sound speed.
    pub pc: bool,
}

impl EosStages {
    /// The full chain (the production configuration).
    #[must_use]
    pub fn all() -> Self {
        EosStages {
            geom: true,
            rho: true,
            ein: true,
            pc: true,
        }
    }
}

impl Default for EosStages {
    fn default() -> Self {
        EosStages::all()
    }
}

/// Per-sweep parameters of the fused chain.
#[derive(Debug, Clone, Copy)]
pub struct FusedEos<'a> {
    /// Step the energy update integrates over.
    pub dt: f64,
    /// Velocity the work term uses (predictor: current; corrector:
    /// time-centred).
    pub which: WorkVelocity,
    /// Energy source: `None` advances `state.ein` in place (predictor);
    /// `Some(ein0)` integrates from the saved start-of-step energies
    /// (corrector), replacing the unfused path's restore-then-advance
    /// `copy_from_slice` with a single fused read.
    pub ein_from: Option<&'a [f64]>,
    /// Which chain stages run.
    pub stages: EosStages,
}

/// Run the fused EOS chain over the owned range.
///
/// Errors mirror the unfused chain: the first tangled element is
/// reported as [`BookLeafError::NegativeVolume`]; failing that, the
/// first non-finite or negative density as
/// [`BookLeafError::InvalidState`].
pub fn eos_fused(
    mesh: &Mesh,
    materials: &MaterialTable,
    state: &mut HydroState,
    range: LocalRange,
    sweep: FusedEos<'_>,
    threading: Threading,
) -> Result<()> {
    let n = range.n_owned_el;
    let stages = sweep.stages;
    let dt = sweep.dt;
    let ein_from = sweep.ein_from;
    if let Some(src) = ein_from {
        assert!(
            src.len() >= n,
            "ein_from holds {} entries for {} owned elements",
            src.len(),
            n
        );
    }

    // Slice the element-indexed reads to the owned range so the sweep
    // (bounded by the same `n` through its columns) indexes them without
    // bounds checks; `vel` stays full-length — it is gathered through
    // node ids.
    let mass = &state.mass[..n];
    let fx = &state.cnforce_x[..n];
    let fy = &state.cnforce_y[..n];
    let vel: &[Vec2] = match sweep.which {
        WorkVelocity::Current => &state.u,
        WorkVelocity::TimeCentred => &state.ubar,
    };
    let region = &mesh.region[..n];

    // One loop body for the whole chain. Each stage is the verbatim
    // per-element expression of its unfused kernel; the boolean tracks
    // "no failure seen" exactly like `getgeom`'s sweep.
    let body = |e: usize, (v, cv, l, r, ei, p, c2): Row<'_>| -> bool {
        let mut ok = true;
        if stages.geom {
            let c = mesh.corners(e);
            *v = quad_area(&c);
            *cv = corner_volumes(&c);
            *l = char_length(&c);
            ok = *v > 0.0;
        }
        if stages.rho {
            *r = mass[e] / *v;
            ok &= r.is_finite() && *r >= 0.0;
        }
        if stages.ein {
            let nd = mesh.elnd[e];
            let (rx, ry) = (&fx[e], &fy[e]);
            let mut work = 0.0;
            for c in 0..4 {
                let u = vel[nd[c] as usize];
                work += rx[c] * u.x + ry[c] * u.y;
            }
            let src = match ein_from {
                Some(s) => s[e],
                None => *ei,
            };
            *ei = src - dt * work / mass[e];
        }
        if stages.pc {
            let (pe, ce) = materials.spec(region[e]).pressure_cs2(*r, *ei);
            *p = pe;
            *c2 = ce;
        }
        ok
    };

    // The production configuration (every stage on) gets a dedicated
    // straight-line body: same expressions in the same order as `body`
    // with the four stage conditions constant-folded away, so the hot
    // sweep carries no per-element stage dispatch.
    let body_full = |e: usize, (v, cv, l, r, ei, p, c2): Row<'_>| -> bool {
        let c = mesh.corners(e);
        *v = quad_area(&c);
        *cv = corner_volumes(&c);
        *l = char_length(&c);
        let mut ok = *v > 0.0;
        *r = mass[e] / *v;
        ok &= r.is_finite() && *r >= 0.0;
        let nd = mesh.elnd[e];
        let (rx, ry) = (&fx[e], &fy[e]);
        let mut work = 0.0;
        for corner in 0..4 {
            let u = vel[nd[corner] as usize];
            work += rx[corner] * u.x + ry[corner] * u.y;
        }
        let src = match ein_from {
            Some(s) => s[e],
            None => *ei,
        };
        *ei = src - dt * work / mass[e];
        let (pe, ce) = materials.spec(region[e]).pressure_cs2(*r, *ei);
        *p = pe;
        *c2 = ce;
        ok
    };

    let outs = (
        &mut state.volume[..n],
        &mut state.cnvol[..n],
        &mut state.length[..n],
        &mut state.rho[..n],
        &mut state.ein[..n],
        &mut state.pressure[..n],
        &mut state.cs2[..n],
    );
    let both = |a, b| a && b;
    let ok = if stages == EosStages::all() {
        sweep_reduce(threading, Pass::All, outs, true, both, body_full)
    } else {
        sweep_reduce(threading, Pass::All, outs, true, both, body)
    };

    if !ok {
        // Locate the offender with the unfused chain's precedence:
        // tangling (getgeom) is reported before invalid density (getrho).
        if stages.geom {
            for e in 0..n {
                if state.volume[e] <= 0.0 {
                    return Err(BookLeafError::NegativeVolume {
                        element: e,
                        volume: state.volume[e],
                    });
                }
            }
        }
        if stages.rho {
            if let Some(e) = (0..n).find(|&e| !state.rho[e].is_finite() || state.rho[e] < 0.0) {
                return Err(BookLeafError::InvalidState {
                    element: e,
                    what: format!("density {} after getrho", state.rho[e]),
                });
            }
        }
    }
    Ok(())
}

/// One element's seven outputs, in chain order: volume, corner volumes,
/// length, density, energy, pressure, sound speed squared.
type Row<'a> = (
    &'a mut f64,
    &'a mut [f64; 4],
    &'a mut f64,
    &'a mut f64,
    &'a mut f64,
    &'a mut f64,
    &'a mut f64,
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getein::getein;
    use crate::getgeom::getgeom;
    use crate::getpc::getpc;
    use crate::getrho::getrho;
    use bookleaf_eos::EosSpec;
    use bookleaf_mesh::{generate_rect, RectSpec};

    fn setup(n: usize) -> (Mesh, MaterialTable, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |c| u32::from(c.x > 0.5)).unwrap();
        let mat = MaterialTable::new(vec![EosSpec::ideal_gas(1.4), EosSpec::ideal_gas(5.0 / 3.0)]);
        let nodes = mesh.nodes.clone();
        let mut st = HydroState::new(
            &mesh,
            &mat,
            |e| 1.0 + 0.01 * (e % 7) as f64,
            |_| 2.0,
            |i| {
                Vec2::new(
                    (3.0 * nodes[i].x).sin() * 0.2,
                    (5.0 * nodes[i].y).cos() * 0.1,
                )
            },
        )
        .unwrap();
        for e in 0..st.n_elements() {
            st.cnforce_x[e] = [0.1, -0.2, 0.15, -0.05];
            st.cnforce_y[e] = [-0.1, 0.25, -0.2, 0.05];
        }
        for i in 0..st.n_nodes() {
            st.ubar[i] = Vec2::new(0.01 * (i % 3) as f64, -0.02);
        }
        (mesh, mat, st)
    }

    fn run_unfused(
        mesh: &Mesh,
        mat: &MaterialTable,
        st: &mut HydroState,
        dt: f64,
        which: WorkVelocity,
        th: Threading,
    ) {
        let range = LocalRange::whole(mesh);
        getgeom(mesh, st, range, th).unwrap();
        getrho(st, range, th).unwrap();
        getein(mesh, st, range, dt, which, th);
        getpc(mesh, mat, st, range, th);
    }

    #[test]
    fn fused_matches_unfused_bitwise() {
        for th in [Threading::Serial, Threading::Rayon] {
            let (mesh, mat, st0) = setup(6);
            let mut a = st0.clone();
            let mut b = st0.clone();
            run_unfused(&mesh, &mat, &mut a, 1e-3, WorkVelocity::Current, th);
            eos_fused(
                &mesh,
                &mat,
                &mut b,
                LocalRange::whole(&mesh),
                FusedEos {
                    dt: 1e-3,
                    which: WorkVelocity::Current,
                    ein_from: None,
                    stages: EosStages::all(),
                },
                th,
            )
            .unwrap();
            assert_eq!(a.volume, b.volume, "{th:?}");
            assert_eq!(a.cnvol, b.cnvol, "{th:?}");
            assert_eq!(a.length, b.length, "{th:?}");
            assert_eq!(a.rho, b.rho, "{th:?}");
            assert_eq!(a.ein, b.ein, "{th:?}");
            assert_eq!(a.pressure, b.pressure, "{th:?}");
            assert_eq!(a.cs2, b.cs2, "{th:?}");
        }
    }

    #[test]
    fn ein_from_matches_restore_then_advance() {
        let (mesh, mat, st0) = setup(5);
        let range = LocalRange::whole(&mesh);
        let ein0: Vec<f64> = st0.ein.iter().map(|e| e * 1.25).collect();

        // Unfused corrector idiom: restore the saved energies, then run
        // the chain in place.
        let mut a = st0.clone();
        a.ein[..ein0.len()].copy_from_slice(&ein0);
        run_unfused(
            &mesh,
            &mat,
            &mut a,
            2e-3,
            WorkVelocity::TimeCentred,
            Threading::Serial,
        );

        // Fused corrector: integrate straight from the saved buffer.
        let mut b = st0.clone();
        eos_fused(
            &mesh,
            &mat,
            &mut b,
            range,
            FusedEos {
                dt: 2e-3,
                which: WorkVelocity::TimeCentred,
                ein_from: Some(&ein0),
                stages: EosStages::all(),
            },
            Threading::Serial,
        )
        .unwrap();
        assert_eq!(a.ein, b.ein);
        assert_eq!(a.pressure, b.pressure);
        assert_eq!(a.cs2, b.cs2);
    }

    #[test]
    fn stage_subsets_match_partial_chains() {
        let combos = [
            (true, false, false, false),
            (true, true, false, false),
            (false, false, true, true),
            (true, true, false, true),
            (false, true, true, false),
        ];
        for (geom, rho, ein, pc) in combos {
            let (mesh, mat, st0) = setup(4);
            let range = LocalRange::whole(&mesh);
            let th = Threading::Serial;
            let mut a = st0.clone();
            if geom {
                getgeom(&mesh, &mut a, range, th).unwrap();
            }
            if rho {
                getrho(&mut a, range, th).unwrap();
            }
            if ein {
                getein(&mesh, &mut a, range, 1e-3, WorkVelocity::Current, th);
            }
            if pc {
                getpc(&mesh, &mat, &mut a, range, th);
            }
            let mut b = st0.clone();
            eos_fused(
                &mesh,
                &mat,
                &mut b,
                range,
                FusedEos {
                    dt: 1e-3,
                    which: WorkVelocity::Current,
                    ein_from: None,
                    stages: EosStages { geom, rho, ein, pc },
                },
                th,
            )
            .unwrap();
            let tag = format!("stages geom={geom} rho={rho} ein={ein} pc={pc}");
            assert_eq!(a.volume, b.volume, "{tag}");
            assert_eq!(a.rho, b.rho, "{tag}");
            assert_eq!(a.ein, b.ein, "{tag}");
            assert_eq!(a.pressure, b.pressure, "{tag}");
            assert_eq!(a.cs2, b.cs2, "{tag}");
        }
    }

    #[test]
    fn tangled_mesh_reports_negative_volume_first() {
        let (mut mesh, mat, mut st) = setup(2);
        mesh.nodes[4] = Vec2::new(-5.0, -5.0); // invert cells around the centre
        let err = eos_fused(
            &mesh,
            &mat,
            &mut st,
            LocalRange::whole(&mesh),
            FusedEos {
                dt: 1e-3,
                which: WorkVelocity::Current,
                ein_from: None,
                stages: EosStages::all(),
            },
            Threading::Serial,
        )
        .unwrap_err();
        assert!(matches!(err, BookLeafError::NegativeVolume { .. }));
    }

    #[test]
    fn ghost_entries_untouched() {
        let (mesh, mat, mut st) = setup(3);
        let n = st.n_elements();
        let sentinel = -77.0;
        st.pressure[n - 1] = sentinel;
        st.volume[n - 1] = sentinel;
        let range = LocalRange {
            n_owned_el: n - 1,
            n_active_nd: mesh.n_nodes(),
        };
        eos_fused(
            &mesh,
            &mat,
            &mut st,
            range,
            FusedEos {
                dt: 1e-3,
                which: WorkVelocity::Current,
                ein_from: None,
                stages: EosStages::all(),
            },
            Threading::Serial,
        )
        .unwrap();
        assert_eq!(st.pressure[n - 1], sentinel);
        assert_eq!(st.volume[n - 1], sentinel);
    }
}
