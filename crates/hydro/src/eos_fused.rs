//! The fused `getgeom → getrho → getein → getpc` element sweep.
//!
//! All four kernels of the EOS chain are per-element independent: each
//! element's geometry, density, energy and pressure depend only on its
//! own corners, mass, corner forces and nodal velocities — never on
//! another element's output from the same chain. Running them as four
//! separate sweeps therefore streams the element arrays through the
//! cache four times for no algorithmic reason. This module performs the
//! whole chain in **one pass**: corner coordinates are gathered once,
//! and geometry, density, the compatible work term and the EOS
//! evaluation follow each other in the same loop iteration, with no
//! array written and read back between stages.
//!
//! ## One body, two elements per row
//!
//! The chain has one body (`Chain::sweep`'s closure), written over `N`
//! lanes ([`bookleaf_util::Lanes`]) and honouring the stage mask. The
//! owned range is swept two elements per row — each column viewed as
//! rows of `[_; 2]`, which is still a column of [`mod@crate::sweep`] —
//! and an odd last element goes through the same body at `N = 1`. An
//! element's chain is serial (area → `m/V` → `work/m` → `p/ρ²`, four
//! divides and a square root); a second element beside it gives the
//! core something to overlap, and the compiler pairs the lanes' divides
//! and roots. Wider rows were measured slower on the baseline x86-64
//! target (16 vector registers). Nothing the body calls per element is
//! out of line except `libm` for the Tait and JWL forms and the panic
//! paths of its bounds checks (`scripts/hot_loops.sh` holds the line).
//!
//! ## Bitwise contract
//!
//! Under any stage mask the sweep's state is *bitwise identical* to the
//! reference chain's, [`eos_chain_reference`](crate::reference::eos_chain_reference)
//! (one scalar loop per stage; `tests/eos_fusion_equivalence.rs` runs
//! all sixteen masks):
//!
//! - lane `l` of every intermediate is element `l`'s scalar expression,
//!   in the reference's evaluation order (`quad_area` and friends are
//!   the `N = 1` case of the lane functions called here), so an
//!   element's bits do not depend on which lane, or which row width, it
//!   went through;
//! - there are no floating-point reductions across elements — only the
//!   `&&` of "no element failed" — so any traversal
//!   [`mod@crate::sweep`] makes of the rows yields the same bits;
//! - the EoS is `spec(region).pressure_cs2(rho, ein)`, lane by lane;
//!   this sweep and the reference are the only code that evaluates it
//!   (`scripts/one_chain.sh`).
//!
//! The only observable difference is the **error path**: the reference
//! stops at the first failing stage (a tangled mesh aborts before
//! density is touched), while the fused sweep completes the pass and
//! *then* reports the first failure with the same error value and
//! precedence (tangling before invalid density), found by a scalar
//! rescan — so where in a row the offender sat does not matter. Since
//! both errors are fatal to the step, the partially-updated downstream
//! fields are never observed by a continuing simulation.
//!
//! ## Chain subsets
//!
//! [`EosStages`] turns any subset of the stages on; a disabled stage's
//! outputs are read from the state as they stand. A step runs all four;
//! [`getgeom`](crate::getgeom::getgeom) and [`getpc`](crate::getpc::getpc)
//! are this sweep with one stage on.

use bookleaf_eos::MaterialTable;
use bookleaf_mesh::geometry::{quad_area_lanes, CornerLanes};
use bookleaf_mesh::Mesh;
use bookleaf_util::{BookLeafError, Lanes, Result, Vec2};

use crate::getein::WorkVelocity;
use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep_reduce, Columns, Pass};
use crate::Threading;

/// Which stages of the `getgeom → getrho → getein → getpc` chain the
/// fused sweep executes. A disabled stage's outputs are left untouched
/// and its inputs are read from the current state arrays — the same
/// dataflow as skipping that stage's loop in the reference chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EosStages {
    /// Recompute the volume.
    pub geom: bool,
    /// Recompute density from mass and volume.
    pub rho: bool,
    /// Advance internal energy by the compatible work term.
    pub ein: bool,
    /// Evaluate the EOS for pressure and sound speed.
    pub pc: bool,
}

impl EosStages {
    /// No stage: the base of a one-stage mask, `{ pc: true, ..NONE }`.
    pub(crate) const NONE: EosStages = EosStages {
        geom: false,
        rho: false,
        ein: false,
        pc: false,
    };

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
    /// (corrector), in place of restoring the energies and then
    /// advancing them.
    pub ein_from: Option<&'a [f64]>,
    /// Which chain stages run.
    pub stages: EosStages,
}

/// Run the fused EOS chain over the owned range.
///
/// Errors mirror the reference chain: the first tangled element is
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
    if let Some(src) = sweep.ein_from {
        assert!(
            src.len() >= n,
            "ein_from holds {} entries for {} owned elements",
            src.len(),
            n
        );
    }

    let chain = Chain {
        stages,
        dt: sweep.dt,
        materials,
        nodes: &mesh.nodes,
        vel: match sweep.which {
            WorkVelocity::Current => &state.u,
            WorkVelocity::TimeCentred => &state.ubar,
        },
        elnd: &mesh.elnd[..n],
        region: &mesh.region[..n],
        mass: &state.mass[..n],
        fx: &state.cnforce_x[..n],
        fy: &state.cnforce_y[..n],
        ein_from: sweep.ein_from.map(|src| &src[..n]),
    };
    let outs = (
        &mut state.volume[..n],
        &mut state.rho[..n],
        &mut state.ein[..n],
        &mut state.pressure[..n],
        &mut state.cs2[..n],
    );
    // Two elements per row, so one element's divide → divide → root
    // chain overlaps its neighbour's; an odd last element goes through
    // the same body alone. Both always run: the pass completes before
    // anything is reported.
    let (pairs, last) = outs.split_at(n - n % 2);
    let pairs_ok = chain.sweep::<2>(0, pairs, threading);
    let last_ok = chain.sweep::<1>(n - n % 2, last, threading);

    if !(pairs_ok && last_ok) {
        // Locate the offender with the reference chain's precedence:
        // tangling (geom) is reported before invalid density (rho).
        if stages.geom {
            first_tangled(&state.volume[..n])?;
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

/// The five output columns of the chain, in chain order: volume,
/// density, energy, pressure, sound speed squared.
type Outs<'a> = (
    &'a mut [f64],
    &'a mut [f64],
    &'a mut [f64],
    &'a mut [f64],
    &'a mut [f64],
);

/// What one sweep of the chain reads. The element-indexed slices are
/// cut to the owned range; `nodes` and `vel` stay whole — they are
/// gathered through node ids.
struct Chain<'a> {
    stages: EosStages,
    dt: f64,
    materials: &'a MaterialTable,
    nodes: &'a [Vec2],
    vel: &'a [Vec2],
    elnd: &'a [[u32; 4]],
    region: &'a [u32],
    mass: &'a [f64],
    fx: &'a [[f64; 4]],
    fy: &'a [[f64; 4]],
    ein_from: Option<&'a [f64]>,
}

impl Chain<'_> {
    /// Run the chain over elements `first..first + outs.len()` (a whole
    /// number of rows), `N` elements per row of the sweep: every column,
    /// read or written, is viewed as rows of `[_; N]`, and row `i`, lane
    /// `l` is element `first + i * N + l`.
    ///
    /// The closure is the one body of the chain. Each stage is the
    /// per-element expression of its reference loop, in that loop's
    /// order, on `N` lanes; the EOS itself is evaluated lane by lane
    /// (regions differ). The written columns arrive zipped; each read
    /// column costs one bounds check per row, each gathered node one per
    /// lane. Returns "no element failed": every volume [`untangled`] and
    /// every density finite and non-negative, of the stages that ran.
    fn sweep<const N: usize>(&self, first: usize, outs: Outs<'_>, threading: Threading) -> bool {
        let (v, r, ei, p, c2) = outs;
        let els = first..first + v.len();
        assert!(v.len() % N == 0, "{} elements in rows of {N}", v.len());
        let columns = (
            v.as_chunks_mut::<N>().0,
            r.as_chunks_mut::<N>().0,
            ei.as_chunks_mut::<N>().0,
            p.as_chunks_mut::<N>().0,
            c2.as_chunks_mut::<N>().0,
        );
        let Chain { stages, dt, .. } = *self;
        let elnd = self.elnd[els.clone()].as_chunks::<N>().0;
        let region = self.region[els.clone()].as_chunks::<N>().0;
        let mass = self.mass[els.clone()].as_chunks::<N>().0;
        let fx = self.fx[els.clone()].as_chunks::<N>().0;
        let fy = self.fy[els.clone()].as_chunks::<N>().0;
        let ein_from = self.ein_from.map(|src| src[els].as_chunks::<N>().0);

        let both = |a, b| a && b;
        sweep_reduce(
            threading,
            Pass::All,
            columns,
            true,
            both,
            |i, (v, r, ei, p, c2)| {
                let mut ok = true;
                if stages.geom {
                    *v = quad_area_lanes(&CornerLanes::gather(self.nodes, &elnd[i])).0;
                    ok = v.iter().all(|&v| untangled(v));
                }
                if stages.rho {
                    *r = (Lanes(mass[i]) / Lanes(*v)).0;
                    ok &= r.iter().all(|&r| r.is_finite() && r >= 0.0);
                }
                if stages.ein {
                    let u = CornerLanes::gather(self.vel, &elnd[i]);
                    let mut work = Lanes::splat(0.0);
                    for corner in 0..4 {
                        let rx = Lanes::from_fn(|lane| fx[i][lane][corner]);
                        let ry = Lanes::from_fn(|lane| fy[i][lane][corner]);
                        work = work + (rx * u.x[corner] + ry * u.y[corner]);
                    }
                    let src = Lanes(ein_from.map_or(*ei, |src| src[i]));
                    *ei = (src - dt * work / Lanes(mass[i])).0;
                }
                if stages.pc {
                    for lane in 0..N {
                        (p[lane], c2[lane]) = self
                            .materials
                            .spec(region[i][lane])
                            .pressure_cs2(r[lane], ei[lane]);
                    }
                }
                ok
            },
        )
    }
}

/// The per-element test of the geometry stage: a positive volume. A
/// NaN volume — a NaN node coordinate — is neither `> 0` nor `<= 0`,
/// and is tangled.
#[inline(always)]
fn untangled(volume: f64) -> bool {
    volume > 0.0
}

/// The first element that fails [`untangled`], as the error that names
/// it (a serial rescan, off the hot path).
pub(crate) fn first_tangled(volume: &[f64]) -> Result<()> {
    match volume.iter().position(|&v| !untangled(v)) {
        Some(element) => Err(BookLeafError::NegativeVolume {
            element,
            volume: volume[element],
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::eos_chain_reference;
    use bookleaf_eos::EosSpec;
    use bookleaf_mesh::geometry::area_gradient;
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::approx_eq;

    fn setup(n: usize) -> (Mesh, MaterialTable, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |c| u32::from(c.x > 0.5)).unwrap();
        // Two forms, so that a row straddling the material boundary
        // evaluates a different one in each lane.
        let tait = EosSpec::Tait {
            p0: 2.0,
            rho0: 1.1,
            gamma: 7.15,
        };
        let mat = MaterialTable::new(vec![EosSpec::ideal_gas(1.4), tait]);
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

    /// A unit square of `n`² elements of one ideal gas at rest, unit
    /// density, energy 2.5.
    fn at_rest(n: usize) -> (Mesh, MaterialTable, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
        (mesh, mat, st)
    }

    /// The predictor's sweep: every stage, the live energies.
    fn full() -> FusedEos<'static> {
        FusedEos {
            dt: 1e-3,
            which: WorkVelocity::Current,
            ein_from: None,
            stages: EosStages::all(),
        }
    }

    /// The density stage alone.
    fn rho_only() -> FusedEos<'static> {
        let stages = EosStages {
            rho: true,
            ..EosStages::NONE
        };
        FusedEos { stages, ..full() }
    }

    /// The energy stage alone, over `dt` with velocity `which`.
    fn ein_only(dt: f64, which: WorkVelocity) -> FusedEos<'static> {
        let stages = EosStages {
            ein: true,
            ..EosStages::NONE
        };
        FusedEos {
            dt,
            which,
            stages,
            ..full()
        }
    }

    /// One fused sweep over the whole mesh, serially.
    fn run(
        mesh: &Mesh,
        mat: &MaterialTable,
        st: &mut HydroState,
        sweep: FusedEos<'_>,
    ) -> Result<()> {
        eos_fused(
            mesh,
            mat,
            st,
            LocalRange::whole(mesh),
            sweep,
            Threading::Serial,
        )
    }

    #[test]
    fn density_tracks_volume_change() {
        let (mesh, mat, mut st) = at_rest(2);
        // Halve every volume: density must double.
        for v in &mut st.volume {
            *v *= 0.5;
        }
        run(&mesh, &mat, &mut st, rho_only()).unwrap();
        assert!(st.rho.iter().all(|&r| approx_eq(r, 2.0, 1e-12)));
    }

    #[test]
    fn non_finite_density_rejected() {
        let (mesh, mat, mut st) = at_rest(2);
        st.volume[1] = 0.0;
        let err = run(&mesh, &mat, &mut st, rho_only()).unwrap_err();
        assert!(
            matches!(err, BookLeafError::InvalidState { element: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn expansion_reduces_internal_energy_as_pdv() {
        // Single unit element at pressure P with outward velocity u = x:
        // dV/dt = 2V, so m dε/dt = -P dV/dt.
        let (mesh, mat, mut st) = at_rest(1);
        let p = 1.0;
        let g = area_gradient(&mesh.corners(0));
        for c in 0..4 {
            let f = g[c] * p;
            (st.cnforce_x[0][c], st.cnforce_y[0][c]) = (f.x, f.y);
        }
        // u = position (pure expansion about the origin).
        st.u.copy_from_slice(&mesh.nodes);
        let dt = 1e-3;
        let e0 = st.ein[0];
        run(&mesh, &mat, &mut st, ein_only(dt, WorkVelocity::Current)).unwrap();
        // dV/dt = Σ g·u = 2A = 2 (unit square). m = 1.
        let expect = e0 - dt * p * 2.0;
        assert!(
            approx_eq(st.ein[0], expect, 1e-12),
            "{} vs {expect}",
            st.ein[0]
        );
    }

    #[test]
    fn compression_heats() {
        let (mesh, mat, mut st) = at_rest(1);
        let g = area_gradient(&mesh.corners(0));
        for c in 0..4 {
            (st.cnforce_x[0][c], st.cnforce_y[0][c]) = (g[c].x, g[c].y);
        }
        for n in 0..mesh.n_nodes() {
            st.u[n] = -mesh.nodes[n]; // converging flow
        }
        let e0 = st.ein[0];
        run(&mesh, &mat, &mut st, ein_only(1e-3, WorkVelocity::Current)).unwrap();
        assert!(st.ein[0] > e0);
    }

    #[test]
    fn time_centred_uses_ubar() {
        let (mesh, mat, mut st) = at_rest(1);
        st.cnforce_x[0] = [1.0; 4];
        st.cnforce_y[0] = [0.0; 4];
        // u says "no work", ubar says "work".
        st.ubar.fill(Vec2::new(1.0, 0.0));
        let e0 = st.ein[0];
        let mut st2 = st.clone();
        run(&mesh, &mat, &mut st, ein_only(0.1, WorkVelocity::Current)).unwrap();
        assert_eq!(st.ein[0], e0);
        run(
            &mesh,
            &mat,
            &mut st2,
            ein_only(0.1, WorkVelocity::TimeCentred),
        )
        .unwrap();
        // work = Σ F·ubar = 4 * 1 = 4; dε = -0.1 * 4 / m (m = 1).
        assert!(approx_eq(st2.ein[0], e0 - 0.4, 1e-12));
    }

    #[test]
    fn the_error_is_the_references_wherever_in_a_row_the_offender_sits() {
        // Nine elements: rows (0, 1) … (6, 7) and the odd last one, 8.
        let (mesh, mat, st0) = setup(3);
        let range = LocalRange::whole(&mesh);
        let sweep = full();
        let errors = |mesh: &Mesh, st: &HydroState| {
            let (mut a, mut b) = (st.clone(), st.clone());
            let chain = eos_chain_reference(mesh, &mat, &mut a, range, sweep).unwrap_err();
            let fused = run(mesh, &mat, &mut b, sweep).unwrap_err();
            assert_eq!(format!("{fused:?}"), format!("{chain:?}"));
            fused
        };
        for offender in [0, 1, 4, 5, 8] {
            // Clockwise corners: this element alone has negative area.
            let mut elnd = mesh.elnd.clone();
            elnd[offender].reverse();
            let (bc, region) = (mesh.node_bc.clone(), mesh.region.clone());
            let tangled = Mesh::from_raw(mesh.nodes.clone(), elnd, bc, region).unwrap();
            let err = errors(&tangled, &st0);
            assert!(
                matches!(err, BookLeafError::NegativeVolume { element, volume }
                    if element == offender && volume < 0.0),
                "{err:?}"
            );

            let mut heavy = st0.clone();
            heavy.mass[offender] = -1.0;
            let err = errors(&mesh, &heavy);
            assert!(
                matches!(err, BookLeafError::InvalidState { element, .. } if element == offender),
                "{err:?}"
            );

            // Tangling is reported before an invalid density — in the
            // first element, in the one before (the same row or the row
            // before) or in the tangled element itself.
            for dense in [0, offender.saturating_sub(1), offender] {
                let mut heavy = st0.clone();
                heavy.mass[dense] = -1.0;
                let err = errors(&tangled, &heavy);
                assert!(
                    matches!(err, BookLeafError::NegativeVolume { element, .. }
                        if element == offender),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn a_nan_node_is_a_tangle_not_a_pass() {
        let (mut mesh, mat, st0) = setup(3);
        mesh.nodes[10].x = f64::NAN;
        let first = (0..mesh.n_elements())
            .find(|&e| mesh.elnd[e].contains(&10))
            .unwrap();
        let geom_only = EosStages {
            geom: true,
            ..EosStages::NONE
        };
        // The full chain's density is NaN too: the tangle still comes first.
        for stages in [geom_only, EosStages::all()] {
            let sweep = FusedEos { stages, ..full() };
            let err = run(&mesh, &mat, &mut st0.clone(), sweep).unwrap_err();
            assert!(
                matches!(err, BookLeafError::NegativeVolume { element, volume }
                    if element == first && volume.is_nan()),
                "{stages:?}: {err:?}"
            );
        }
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
        eos_fused(&mesh, &mat, &mut st, range, full(), Threading::Serial).unwrap();
        assert_eq!(st.pressure[n - 1], sentinel);
        assert_eq!(st.volume[n - 1], sentinel);
    }
}
