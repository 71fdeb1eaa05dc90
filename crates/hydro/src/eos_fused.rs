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
//! The fused sweep produces *bitwise identical* state to the unfused
//! chain (which remains in the crate as the reference implementation):
//!
//! - lane `l` of every intermediate is element `l`'s scalar expression,
//!   in the same evaluation order as its unfused counterpart (the
//!   geometry functions *are* the unfused ones: `quad_area` and friends
//!   are the `N = 1` case of the lane functions called here), so an
//!   element's bits do not depend on which lane, or which row width, it
//!   went through;
//! - there are no floating-point reductions across elements — only the
//!   `&&` of "no element failed" — so any traversal
//!   [`mod@crate::sweep`] makes of the rows yields the same bits;
//! - `getpc`'s body is the per-element
//!   `spec(region).pressure_cs2(rho, ein)` — exactly the call made
//!   here, lane by lane.
//!
//! The only observable difference is the **error path**: the unfused
//! chain stops at the first failing kernel (a tangled mesh aborts before
//! density is touched), while the fused sweep completes the pass and
//! *then* reports the first failure with the same error value and
//! precedence (tangling before invalid density), found by a scalar
//! rescan — so where in a row the offender sat does not matter. Since
//! both errors are fatal to the step, the partially-updated downstream
//! fields are never observed by a continuing simulation.
//!
//! ## Chain subsets
//!
//! [`EosStages`] lets callers fuse any contiguous or non-contiguous
//! subset of the chain; a disabled stage reads whatever its state array
//! currently holds, exactly as the unfused kernel sequence would. The
//! equivalence suite exercises all sixteen masks against the unfused
//! kernels.

use bookleaf_eos::MaterialTable;
use bookleaf_mesh::geometry::{quad_area_lanes, CornerLanes};
use bookleaf_mesh::Mesh;
use bookleaf_util::{BookLeafError, Lanes, Result, Vec2};

use crate::getein::WorkVelocity;
use crate::getgeom::{first_tangled, untangled};
use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep_reduce, Columns, Pass};
use crate::Threading;

/// Which stages of the `getgeom → getrho → getein → getpc` chain the
/// fused sweep executes. A disabled stage's outputs are left untouched
/// and its inputs are read from the current state arrays — the same
/// dataflow as skipping that kernel in the unfused sequence.
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
        // Locate the offender with the unfused chain's precedence:
        // tangling (getgeom) is reported before invalid density (getrho).
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
    /// per-element expression of its unfused kernel, in that kernel's
    /// order, on `N` lanes; the EOS itself is evaluated lane by lane
    /// (regions differ). The written columns arrive zipped; each read
    /// column costs one bounds check per row, each gathered node one per
    /// lane. Returns "no element failed", as `getgeom`'s and `getrho`'s
    /// sweeps do.
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

    /// The unfused kernel subsequence `stages` selects; with a saved
    /// energy source, the restore-then-advance idiom of the unfused
    /// corrector.
    fn run_chain(
        mesh: &Mesh,
        mat: &MaterialTable,
        st: &mut HydroState,
        range: LocalRange,
        sweep: FusedEos<'_>,
        th: Threading,
    ) -> Result<()> {
        let stages = sweep.stages;
        if stages.geom {
            getgeom(mesh, st, range, th)?;
        }
        if stages.rho {
            getrho(st, range, th)?;
        }
        if stages.ein {
            if let Some(src) = sweep.ein_from {
                let n = range.n_owned_el;
                st.ein[..n].copy_from_slice(&src[..n]);
            }
            getein(mesh, st, range, sweep.dt, sweep.which, th);
        }
        if stages.pc {
            getpc(mesh, mat, st, range, th);
        }
        Ok(())
    }

    /// The chain's five output arrays, whole (ghost entries too), as
    /// bit patterns.
    fn output_bits(st: &HydroState) -> Vec<u64> {
        let scalars = [&st.volume, &st.rho, &st.ein, &st.pressure, &st.cs2];
        scalars.into_iter().flatten().map(|v| v.to_bits()).collect()
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

    #[test]
    fn every_range_mask_source_and_driver_matches_the_unfused_chain() {
        // 25 elements: an odd whole range, and owned ranges that end in
        // the first row, mid-row and on a row boundary of the pair sweep.
        let (mesh, mat, st0) = setup(5);
        let ein0: Vec<f64> = st0.ein.iter().map(|e| e * 1.25).collect();
        crate::sweep::tests::under_every_driver(|th, driver| {
            for n_owned_el in [0, 1, 2, 3, 24, 25] {
                let range = LocalRange {
                    n_owned_el,
                    n_active_nd: mesh.n_nodes(),
                };
                for bits in 0u8..16 {
                    for (ein_from, which) in [
                        (None, WorkVelocity::Current),
                        (Some(&ein0[..]), WorkVelocity::TimeCentred),
                    ] {
                        let sweep = FusedEos {
                            dt: 1e-3,
                            which,
                            ein_from,
                            stages: EosStages {
                                geom: bits & 1 != 0,
                                rho: bits & 2 != 0,
                                ein: bits & 4 != 0,
                                pc: bits & 8 != 0,
                            },
                        };
                        let mut a = st0.clone();
                        let mut b = st0.clone();
                        run_chain(&mesh, &mat, &mut a, range, sweep, th).unwrap();
                        eos_fused(&mesh, &mat, &mut b, range, sweep, th).unwrap();
                        assert_eq!(
                            output_bits(&a),
                            output_bits(&b),
                            "{driver}, {n_owned_el} owned, mask {bits:04b}, {which:?}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn the_error_is_the_unfused_chains_wherever_in_a_row_the_offender_sits() {
        // Nine elements: rows (0, 1) … (6, 7) and the odd last one, 8.
        let (mesh, mat, st0) = setup(3);
        let range = LocalRange::whole(&mesh);
        let th = Threading::Serial;
        let sweep = full();
        let errors = |mesh: &Mesh, st: &HydroState| {
            let (mut a, mut b) = (st.clone(), st.clone());
            let chain = run_chain(mesh, &mat, &mut a, range, sweep, th).unwrap_err();
            let fused = eos_fused(mesh, &mat, &mut b, range, sweep, th).unwrap_err();
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
        let range = LocalRange::whole(&mesh);
        mesh.nodes[10].x = f64::NAN;
        let first = (0..mesh.n_elements())
            .find(|&e| mesh.elnd[e].contains(&10))
            .unwrap();
        let geom_only = EosStages {
            geom: true,
            rho: false,
            ein: false,
            pc: false,
        };
        // The full chain's density is NaN too: the tangle still comes first.
        for stages in [geom_only, EosStages::all()] {
            let sweep = FusedEos { stages, ..full() };
            let err = eos_fused(
                &mesh,
                &mat,
                &mut st0.clone(),
                range,
                sweep,
                Threading::Serial,
            )
            .unwrap_err();
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
