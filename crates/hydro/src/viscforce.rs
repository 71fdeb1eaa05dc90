//! The fused viscosity–force element sweep.
//!
//! `getq` and `getforce` always run back to back on unchanged positions
//! and velocities, and both are per-element: `getq` reads its
//! neighbours only through the cell-velocity table precomputed *before*
//! the sweep, and `getforce` reads only its own element's `edge_q`. So
//! one pass gathers the element's corners, node velocities, centroid and
//! sound speed once, derives the face kinematics (`du`, `dx`, `du·dx`,
//! `|du|`) once, and produces `edge_q`, `q` and the corner forces in the
//! same iteration. [`viscforce`] is that pass — the only viscosity/force
//! code a production step runs. The public [`getq`](crate::getq::getq)
//! and [`getforce`](crate::getforce::getforce) kernels are thin drivers
//! over the same per-element pieces defined here.
//!
//! ## Four lanes, one exit
//!
//! The four faces of an element are four *lanes* of straight-line
//! arithmetic: every intermediate is a four-lane array, the square
//! roots and divides of all lanes are issued together, and the per-face
//! early-outs of the textbook loop (`continue` on expansion, on a zero
//! jump, on `edge_q == 0`) are selects on the finished lane. Junk
//! computed in a lane that is then deselected (a `0/0` limiter ratio on
//! a zero jump, say) is never observed. The one data-dependent branch
//! is per element: when no face is compressive the viscosity part is
//! skipped wholesale — the far field of a Sod or Sedov run leaves
//! there; behind a Noh shock every face stays.
//!
//! ## Bitwise contract
//!
//! Every lane's expression is the scalar kernel's expression in the
//! scalar kernel's order (`hydro::reference` keeps the original loop
//! shapes as the anchor), viscous pair forces are applied in face order
//! 0..3, and nothing is reduced across elements — so the result is
//! bitwise identical to `getq` then `getforce` under every traversal
//! [`mod@crate::sweep`] offers: serial, rayon, and split into a pass over
//! all but a list and a pass over the list. The force stencil (own
//! corners, own nodal masses) is contained in the viscosity stencil, so
//! the overlapped executor's viscosity-phase boundary set serves the
//! fused sweep.

use bookleaf_mesh::geometry::{area_gradient, quad_centroid};
use bookleaf_mesh::{Mesh, STENCIL_BOUNDARY};
use bookleaf_util::constants::ZERO_CUT;
use bookleaf_util::Vec2;
use std::array::from_fn;
use std::cell::RefCell;

use crate::getforce::HourglassControl;
use crate::getq::{monotonic_limiter, QCoeffs};
use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep, Pass};
use crate::Threading;

/// Reusable per-thread buffers of the Lagrangian step, so a step in
/// steady state allocates nothing. Reuse is invisible to results: every
/// entry read is written first on every use.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Cell-averaged velocities (the viscosity limiter's neighbour
    /// values); a megabyte-plus at production mesh sizes.
    cell_u: Vec<Vec2>,
    /// Start-of-step node positions (`lagstep`).
    pub(crate) x0: Vec<Vec2>,
    /// Start-of-step internal energies (`lagstep`).
    pub(crate) ein0: Vec<f64>,
    /// Nodal mass sums (`getacc`'s reference scatter).
    pub(crate) nd_mass: Vec<f64>,
    /// Nodal force sums (`getacc`'s reference scatter).
    pub(crate) nd_force: Vec<Vec2>,
}

thread_local! {
    pub(crate) static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The step's per-thread work arrays, lent out between steps (see
/// [`lend_scratch`]). Contents and lengths are unspecified: size each
/// array and write an entry before reading it.
#[derive(Debug, Default)]
pub struct LentScratch {
    /// Vector arrays (the step's saved positions, cell velocities and
    /// nodal force sums).
    pub vectors: [Vec<Vec2>; 3],
    /// Scalar arrays (the step's saved energies and nodal mass sums).
    pub scalars: [Vec<f64>; 2],
}

/// Run `work` with the calling thread's step scratch. Nothing in a
/// Lagrangian step is live between steps, so whatever runs there on the
/// same thread — the ALE remap — can work in these arrays instead of
/// allocating (and keeping resident) a set of its own. The arrays are
/// moved out for the call and handed back after it, so `work` may run
/// any kernel of this crate.
pub fn lend_scratch<R>(work: impl FnOnce(&mut LentScratch) -> R) -> R {
    let mut lent = SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        LentScratch {
            vectors: [&mut s.x0, &mut s.cell_u, &mut s.nd_force].map(std::mem::take),
            scalars: [&mut s.ein0, &mut s.nd_mass].map(std::mem::take),
        }
    });
    let result = work(&mut lent);
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        [s.x0, s.cell_u, s.nd_force] = lent.vectors;
        [s.ein0, s.nd_mass] = lent.scalars;
    });
    result
}

/// The hourglass mode sign pattern on a quad.
pub(crate) const GAMMA: [f64; 4] = [1.0, -1.0, 1.0, -1.0];

/// Cell-averaged velocity of element `e`. Always inlined — it is a
/// whole sweep's body (`scripts/hot_loops.sh` holds the line).
#[inline(always)]
fn cell_velocity(nd: [u32; 4], u: &[Vec2]) -> Vec2 {
    (u[nd[0] as usize] + u[nd[1] as usize] + u[nd[2] as usize] + u[nd[3] as usize]) * 0.25
}

/// Run `kernel` with the cell-averaged velocity table the viscosity
/// limiter gathers its face neighbours from (ghost layer included),
/// its `cells` entries freshly computed: every one for a whole or
/// interior pass (which never reads the entries that not-yet-exchanged
/// ghost velocities went into), or the listed handful a boundary pass
/// and its face neighbours read.
pub(crate) fn with_cell_velocities<R>(
    mesh: &Mesh,
    u: &[Vec2],
    threading: Threading,
    cells: Pass<'_>,
    kernel: impl FnOnce(&[Vec2]) -> R,
) -> R {
    let elnd = &mesh.elnd[..];
    SCRATCH.with(|scratch| {
        let cell_u = &mut scratch.borrow_mut().cell_u;
        cell_u.resize(elnd.len(), Vec2::ZERO);
        sweep(threading, cells, (&mut cell_u[..],), |e, (cu,)| {
            *cu = cell_velocity(elnd[e], u);
        });
        kernel(cell_u)
    })
}

/// What both halves of the sweep gather once per element: the corners
/// `nd` of the mesh's `elnd` row, at node positions `x` and velocities
/// `u`. A kernel takes the `elnd` and `x` slices once, at entry.
pub(crate) struct Gathered {
    /// Node ids of the four corners.
    pub(crate) nd: [usize; 4],
    /// Corner positions.
    pub(crate) x: [Vec2; 4],
    /// Corner velocities.
    pub(crate) u: [Vec2; 4],
}

impl Gathered {
    #[inline(always)]
    pub(crate) fn new(nd: [u32; 4], x: &[Vec2], u: &[Vec2]) -> Gathered {
        let nd = nd.map(|n| n as usize);
        Gathered {
            nd,
            x: nd.map(|n| x[n]),
            u: nd.map(|n| u[n]),
        }
    }
}

/// Kinematics of the four faces, lane `f` = the side from corner `f` to
/// corner `f + 1`. The edge-centred velocity jump (Caramana et al.): the
/// two corners of a side approaching each other is compression along
/// that edge, whatever the mode (radial crush, shear sliver, hourglass)
/// — this is what makes the edge form robust where a purely face-normal
/// measure is blind.
pub(crate) struct Faces {
    /// Velocity jump along the side.
    du: [Vec2; 4],
    /// The side itself.
    dx: [Vec2; 4],
    /// `du · dx`: negative in compression.
    du_dx: [f64; 4],
}

impl Faces {
    #[inline(always)]
    pub(crate) fn new(g: &Gathered) -> Faces {
        let du: [Vec2; 4] = from_fn(|f| g.u[(f + 1) % 4] - g.u[f]);
        let dx: [Vec2; 4] = from_fn(|f| g.x[(f + 1) % 4] - g.x[f]);
        Faces {
            du_dx: from_fn(|f| du[f].dot(dx[f])),
            du,
            dx,
        }
    }

    /// Is any face compressive by the viscosity's first test? `false`
    /// means every `edge_q` of the element is zero.
    #[inline(always)]
    pub(crate) fn any_compressive(&self) -> bool {
        // "Not all expanding", not "any `<`": a NaN jump counts as
        // compressive, as it does in the scalar kernel's
        // `if du·dx >= -ZERO_CUT { continue }`.
        !self.du_dx.iter().all(|&d| d >= -ZERO_CUT)
    }

    /// `|du|` of the four faces: four square roots issued together.
    #[inline(always)]
    pub(crate) fn du_mag(&self) -> [f64; 4] {
        self.du.map(Vec2::norm)
    }
}

/// Sound speed from its square (clamped: a tensile EOS state must not
/// produce a NaN viscosity).
#[inline(always)]
pub(crate) fn sound_speed(cs2: f64) -> f64 {
    cs2.max(0.0).sqrt()
}

/// Element-level scalars of the viscosity half.
pub(crate) struct QInputs<'a> {
    pub(crate) e: usize,
    pub(crate) rho: f64,
    pub(crate) cs: f64,
    /// Packed face-neighbour row of `e` (`Topology::face_stencil`).
    pub(crate) nbr: &'a [u32; 4],
    pub(crate) cell_u: &'a [Vec2],
    pub(crate) coeffs: QCoeffs,
}

/// Edge viscosities of the four faces and their maximum (the element
/// `q`), for an element with at least one compressive face.
///
/// Each side gets a viscous pressure with a linear (`cq1`, acoustic) and
/// quadratic (`cq2`) term, active only in compression, multiplied by
/// `(1 − ψ)` where `ψ` is the smaller of two monotonic limiters.
#[inline(always)]
pub(crate) fn edge_q_lanes(
    g: &Gathered,
    faces: &Faces,
    du_mag: &[f64; 4],
    centre: Vec2,
    q: &QInputs<'_>,
) -> ([f64; 4], f64) {
    let uc = q.cell_u[q.e];

    // Limiter 1: smoothness across the face, measured by the
    // continuation of the centre→face velocity difference into the
    // neighbour (the term that needs the halo exchange), reached through
    // the packed stencil row.
    let xf: [Vec2; 4] = from_fn(|f| g.x[f].midpoint(g.x[(f + 1) % 4]));
    let uf: [Vec2; 4] = from_fn(|f| g.u[f].midpoint(g.u[(f + 1) % 4]));
    let to_face: [Vec2; 4] = from_fn(|f| xf[f] - centre);
    let dist: [f64; 4] = to_face.map(Vec2::norm);
    // `normalized()`, its zero test a select on the finished quotient.
    let dir: [Vec2; 4] = from_fn(|f| {
        let unit = to_face[f] / dist[f];
        if dist[f] == 0.0 {
            Vec2::ZERO
        } else {
            unit
        }
    });
    let du_face: [f64; 4] = from_fn(|f| (uf[f] - uc).dot(dir[f]));
    let boundary: [bool; 4] = from_fn(|f| q.nbr[f] == STENCIL_BOUNDARY);
    // A boundary lane gathers its own element's (valid, discarded) entry.
    let u_nbr: [Vec2; 4] = from_fn(|f| q.cell_u[if boundary[f] { q.e } else { q.nbr[f] as usize }]);
    let du_nbr: [f64; 4] = from_fn(|f| (u_nbr[f] - uf[f]).dot(dir[f]));
    let ratio: [f64; 4] = from_fn(|f| du_nbr[f] / du_face[f]);
    let limited: [f64; 4] = ratio.map(monotonic_limiter);
    let psi_face: [f64; 4] = from_fn(|f| {
        if boundary[f] {
            // No smooth continuation exists; apply full viscosity so
            // wall shocks (Noh) stay stable.
            0.0
        } else if du_face[f].abs() > ZERO_CUT {
            limited[f]
        } else {
            1.0
        }
    });

    // Limiter 2: smoothness along the element, comparing this edge's
    // jump with the opposite edge traversed in the same sense (linear
    // fields give ratio 1; oscillatory modes give negative ratios and
    // full viscosity). The opposite edge's jump in this sense is lane
    // `f + 2`'s `du`.
    let r2: [f64; 4] =
        from_fn(|f| -faces.du[(f + 2) % 4].dot(faces.du[f]) / (du_mag[f] * du_mag[f]));
    let psi: [f64; 4] = from_fn(|f| psi_face[f].min(monotonic_limiter(r2[f])));

    let value: [f64; 4] = from_fn(|f| {
        (1.0 - psi[f]) * q.rho * du_mag[f] * (q.coeffs.cq2 * du_mag[f] + q.coeffs.cq1 * q.cs)
    });
    // The scalar kernel's two `continue`s: expansion, or no jump at all.
    let skip: [bool; 4] = from_fn(|f| faces.du_dx[f] >= -ZERO_CUT || du_mag[f] <= ZERO_CUT);
    let edge_q: [f64; 4] = from_fn(|f| if skip[f] { 0.0 } else { value[f] });
    let mut qmax = 0.0f64;
    for f in 0..4 {
        if !skip[f] {
            qmax = qmax.max(edge_q[f]);
        }
    }
    (edge_q, qmax)
}

/// Pressure force `P ∂V/∂x_c` on the four corners.
#[inline(always)]
pub(crate) fn pressure_force(x: &[Vec2; 4], p: f64) -> [Vec2; 4] {
    area_gradient(x).map(|g| g * p)
}

/// Add the edge-viscosity pair forces (Caramana et al.): an
/// antisymmetric force pair on each compressive edge, directed along
/// the corner velocity jump so it always opposes the relative approach —
/// per element the pair sums to zero (momentum preserved), and its work
/// `Σ F·u = −q L |Δu| < 0` heats the element through the compatible
/// energy update.
///
/// Each pair is momentum-limited against the *reduced mass* of its node
/// pair: an impulse of `μ|Δu|` is exactly what reverses the relative
/// velocity, so capping each element's share at half that keeps the two
/// elements sharing an interior edge jointly at or below reversal — the
/// linear q term's damping rate can otherwise exceed `1/dt` in dense,
/// quiet regions (the Noh plateau) and explode, while legitimate
/// shock-transit forces stay below this cap and dissipate fully.
#[inline(always)]
pub(crate) fn viscous_pairs(
    force: &mut [Vec2; 4],
    faces: &Faces,
    du_mag: &[f64; 4],
    edge_q: &[f64; 4],
    nd_mass: &[f64; 4],
    dt: f64,
) {
    let mu: [f64; 4] = from_fn(|f| {
        let (ma, mb) = (nd_mass[f], nd_mass[(f + 1) % 4]);
        let reduced = ma * mb / (ma + mb);
        if ma + mb > 0.0 {
            reduced
        } else {
            0.0
        }
    });
    let cap: [f64; 4] = from_fn(|f| {
        let limited = 0.25 * mu[f] * du_mag[f] / dt;
        if dt > 0.0 {
            limited
        } else {
            f64::INFINITY
        }
    });
    let length: [f64; 4] = faces.dx.map(Vec2::norm);
    let scale: [f64; 4] = from_fn(|f| (edge_q[f] * length[f]).min(cap[f]) / du_mag[f]);
    // A face takes no force when its viscosity is zero, when it is in
    // expansion by the time forces assemble, or when its jump is zero.
    let skip: [bool; 4] =
        from_fn(|f| edge_q[f] == 0.0 || faces.du_dx[f] >= 0.0 || du_mag[f] == 0.0);
    for f in 0..4 {
        if !skip[f] {
            let pair = faces.du[f] * scale[f];
            force[f] += pair;
            force[(f + 1) % 4] -= pair;
        }
    }
}

/// Element-level scalars of the hourglass control.
pub(crate) struct HourglassInputs<'a> {
    pub(crate) rho: f64,
    pub(crate) cs2: f64,
    pub(crate) cs: f64,
    pub(crate) volume: f64,
    pub(crate) cnmass: &'a [f64; 4],
    pub(crate) cnvol: &'a [f64; 4],
}

/// Add the hourglass-control forces: the Hancock filter and the
/// Caramana–Shashkov sub-zonal pressures, each optional per deck.
#[inline(always)]
pub(crate) fn hourglass(
    force: &mut [Vec2; 4],
    g: &Gathered,
    centre: Vec2,
    el: &HourglassInputs<'_>,
    hg: HourglassControl,
) {
    // Hancock hourglass filter: damp the Γ velocity mode.
    if hg.kappa_filter > 0.0 {
        let mut u_hg = Vec2::ZERO;
        for c in 0..4 {
            u_hg += g.u[c] * GAMMA[c];
        }
        u_hg *= 0.25;
        let scale = hg.kappa_filter * el.rho * el.cs * el.volume.max(0.0).sqrt();
        for c in 0..4 {
            force[c] -= u_hg * (scale * GAMMA[c]);
        }
    }

    // Sub-zonal pressures: each corner's sub-zone carries its own
    // Lagrangian mass; density deviations from the zone mean create
    // restoring forces that stiffen hourglass motion (hourglass modes
    // compress opposite sub-zones while leaving zone volume fixed). The
    // force is the *full* variational gradient `Σ_c Δp_c ∂A_sz(c)/∂x_i`
    // — the sub-zone quad's midpoints and centroid move with the
    // corners, and dropping those chain terms leaves an unbalanced force
    // field that pumps energy into skewed cells (it destabilised the
    // Saltzmann piston before this was fixed).
    if hg.zeta_subzonal > 0.0 {
        let corners = &g.x;
        for c in 0..4 {
            let cv = el.cnvol[c];
            if cv <= 0.0 {
                continue;
            }
            let rho_sub = el.cnmass[c] / cv;
            let dp = hg.zeta_subzonal * el.cs2 * (rho_sub - el.rho);
            if dp == 0.0 {
                continue;
            }
            // Sub-zone quad v = (x_c, m_next, centre, m_prev) and the
            // shoelace gradients g_k = ∂A/∂v_k = ½ R(v_{k+1} − v_{k−1})
            // with R(w) = (w.y, −w.x).
            let m_next = corners[c].midpoint(corners[(c + 1) % 4]);
            let m_prev = corners[(c + 3) % 4].midpoint(corners[c]);
            let v = [corners[c], m_next, centre, m_prev];
            let rot = |w: Vec2| Vec2::new(w.y, -w.x);
            let grad = [
                rot(v[1] - v[3]) * 0.5,
                rot(v[2] - v[0]) * 0.5,
                rot(v[3] - v[1]) * 0.5,
                rot(v[0] - v[2]) * 0.5,
            ];
            // Chain rule through v0 = x_c, v1 = ½(x_c + x_{c+1}),
            // v2 = ¼Σx, v3 = ½(x_{c−1} + x_c).
            let quarter_g2 = grad[2] * 0.25;
            force[c] += (grad[0] + (grad[1] + grad[3]) * 0.5 + quarter_g2) * dp;
            force[(c + 1) % 4] += (grad[1] * 0.5 + quarter_g2) * dp;
            force[(c + 2) % 4] += quarter_g2 * dp;
            force[(c + 3) % 4] += (grad[3] * 0.5 + quarter_g2) * dp;
        }
    }
}

/// Store assembled corner forces as SoA component rows (one dense
/// `[f64; 4]` row per element and component — the state layout contract
/// the energy update and halo pack rely on).
#[inline(always)]
pub(crate) fn store_force(force: &[Vec2; 4], fx: &mut [f64; 4], fy: &mut [f64; 4]) {
    *fx = force.map(|f| f.x);
    *fy = force.map(|f| f.y);
}

/// Coefficients and step of one fused sweep.
#[derive(Debug, Clone, Copy)]
pub struct ViscForce {
    /// Artificial viscosity coefficients.
    pub q: QCoeffs,
    /// Hourglass control coefficients.
    pub hourglass: HourglassControl,
    /// The step the forces will be integrated over (the viscous pair
    /// forces are momentum-limited against it).
    pub dt: f64,
}

/// Compute `edge_q`, `q` and the corner forces of the owned elements in
/// `elements` — bitwise identical to [`getq`](crate::getq::getq)
/// followed by [`getforce`](crate::getforce::getforce). Elements outside
/// the pass keep their previous values. `cells` names the cell-velocity
/// table entries (over all local elements, ghosts included) to compute
/// first: at least the swept elements and their face neighbours —
/// `Pass::All` for a whole or interior sweep,
/// `Pass::Only(OverlapSets::boundary_cells)` for the boundary pass.
///
/// Requires ghost node velocities and positions to be current (exchange
/// phase 1) for every element swept. The overlapped schedule's
/// *interior* pass (`Pass::Except` of the boundary elements) runs while
/// that exchange is in flight: it must not reach any halo-received node
/// through its own or its face neighbours' corners (see
/// `bookleaf_mesh::OverlapSets`).
pub fn viscforce(
    mesh: &Mesh,
    state: &mut HydroState,
    range: LocalRange,
    visc: ViscForce,
    threading: Threading,
    elements: Pass<'_>,
    cells: Pass<'_>,
) {
    let n = range.n_owned_el;
    // Element-indexed reads sliced to the owned range, so a state
    // shorter than the range panics here and not mid-sweep. The sweep
    // hands the body `e`, not a proof that `e < n`: each of these reads
    // keeps its (never taken) bounds check, as does every gather — two
    // dozen compare-and-branch pairs in the release body. Only the four
    // written columns arrive zipped. `x`, `u` and `nd_mass` stay
    // full-length — they are gathered through node ids. The topology
    // rows are taken here, once, not through the mesh per element.
    let (elnd, stencil, x) = (&mesh.elnd[..n], &mesh.face_stencil()[..n], &mesh.nodes);
    let u = &state.u;
    let rho = &state.rho[..n];
    let cs2 = &state.cs2[..n];
    let pressure = &state.pressure[..n];
    let nd_mass = &state.nd_mass;
    let cnmass = &state.cnmass[..n];
    let cnvol = &state.cnvol[..n];
    let volume = &state.volume[..n];
    let ViscForce {
        q: coeffs,
        hourglass: hg,
        dt,
    } = visc;
    let columns = (
        &mut state.edge_q[..n],
        &mut state.q[..n],
        &mut state.cnforce_x[..n],
        &mut state.cnforce_y[..n],
    );

    with_cell_velocities(mesh, u, threading, cells, |cell_u| {
        sweep(threading, elements, columns, |e, (edge_q, q, fx, fy)| {
            let g = Gathered::new(elnd[e], x, u);
            let centre = quad_centroid(&g.x);
            let cs = sound_speed(cs2[e]);
            let faces = Faces::new(&g);
            let mut force = pressure_force(&g.x, pressure[e]);
            if faces.any_compressive() {
                let du_mag = faces.du_mag();
                let inputs = QInputs {
                    e,
                    rho: rho[e],
                    cs,
                    nbr: &stencil[e],
                    cell_u,
                    coeffs,
                };
                (*edge_q, *q) = edge_q_lanes(&g, &faces, &du_mag, centre, &inputs);
                let masses = g.nd.map(|nd| nd_mass[nd]);
                viscous_pairs(&mut force, &faces, &du_mag, edge_q, &masses, dt);
            } else {
                *edge_q = [0.0; 4];
                *q = 0.0;
            }
            let el = HourglassInputs {
                rho: rho[e],
                cs2: cs2[e],
                cs,
                volume: volume[e],
                cnmass: &cnmass[e],
                cnvol: &cnvol[e],
            };
            hourglass(&mut force, &g, centre, &el, hg);
            store_force(&force, fx, fy);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getforce::getforce;
    use crate::getq::getq;
    use crate::reference::{getforce_reference, getq_reference};
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, RectSpec};

    /// The unsplit sweep.
    fn viscforce_all(mesh: &Mesh, st: &mut HydroState, visc: ViscForce, th: Threading) {
        let range = LocalRange::whole(mesh);
        viscforce(mesh, st, range, visc, th, Pass::All, Pass::All);
    }

    fn sweep_of(dt: f64, hg: HourglassControl) -> ViscForce {
        ViscForce {
            q: QCoeffs::default(),
            hourglass: hg,
            dt,
        }
    }

    /// A wavy velocity field over a non-uniform density: compressive,
    /// expanding and boundary faces all present.
    fn wavy(n: usize) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let nodes = mesh.nodes.clone();
        let st = HydroState::new(
            &mesh,
            &mat,
            |e| 1.0 + 0.02 * (e % 5) as f64,
            |_| 1.5,
            |i| {
                Vec2::new(
                    (7.0 * nodes[i].x).sin() * 0.3,
                    (5.0 * nodes[i].y).cos() * 0.2,
                )
            },
        )
        .unwrap();
        (mesh, st)
    }

    fn bits4(rows: &[[f64; 4]]) -> Vec<[u64; 4]> {
        rows.iter().map(|r| r.map(f64::to_bits)).collect()
    }

    /// `edge_q`, `q`, `cnforce_x`, `cnforce_y` as bit patterns.
    type Outputs = (Vec<[u64; 4]>, Vec<u64>, Vec<[u64; 4]>, Vec<[u64; 4]>);

    fn outputs(st: &HydroState) -> Outputs {
        (
            bits4(&st.edge_q),
            st.q.iter().map(|q| q.to_bits()).collect(),
            bits4(&st.cnforce_x),
            bits4(&st.cnforce_y),
        )
    }

    /// Fused sweep == `getq` then `getforce` == the reference shapes,
    /// bit for bit, serial and rayon.
    fn assert_all_shapes_agree(mesh: &Mesh, st0: &HydroState, dt: f64, hg: HourglassControl) {
        let range = LocalRange::whole(mesh);
        for th in [Threading::Serial, Threading::Rayon] {
            let mut fused = st0.clone();
            viscforce_all(mesh, &mut fused, sweep_of(dt, hg), th);

            let mut sequence = st0.clone();
            getq(mesh, &mut sequence, range, QCoeffs::default(), th);
            getforce(mesh, &mut sequence, range, hg, dt, th);
            assert_eq!(outputs(&fused), outputs(&sequence), "sequence, {th:?}");

            let mut reference = st0.clone();
            getq_reference(mesh, &mut reference, range, QCoeffs::default());
            let mut aos = Vec::new();
            getforce_reference(mesh, &reference, range, hg, dt, &mut aos);
            for (e, row) in aos.iter().enumerate() {
                reference.cnforce_x[e] = row.map(|f| f.x);
                reference.cnforce_y[e] = row.map(|f| f.y);
            }
            assert_eq!(outputs(&fused), outputs(&reference), "reference, {th:?}");
        }
    }

    #[test]
    fn fused_sweep_matches_sequence_and_reference_bitwise() {
        let (mesh, st) = wavy(9);
        for hg in [HourglassControl::default(), HourglassControl::none()] {
            assert_all_shapes_agree(&mesh, &st, 1e-2, hg);
        }
    }

    #[test]
    fn quiescent_and_expanding_elements_take_the_single_exit() {
        // At rest, and in pure expansion (u = x − ½): no face is
        // compressive anywhere, so every element leaves at the one exit.
        let mesh = generate_rect(&RectSpec::unit_square(5), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let nodes = mesh.nodes.clone();
        let velocities: [&dyn Fn(usize) -> Vec2; 2] =
            [&|_| Vec2::ZERO, &|i| nodes[i] - Vec2::new(0.5, 0.5)];
        for u_of in velocities {
            let mut st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, u_of).unwrap();
            // Poison the outputs: the exit must still write zeros.
            st.q.fill(3.5);
            st.edge_q.fill([3.5; 4]);
            assert_all_shapes_agree(&mesh, &st, 1e-2, HourglassControl::default());
            let sweep = sweep_of(1e-2, HourglassControl::default());
            viscforce_all(&mesh, &mut st, sweep, Threading::Serial);
            assert!(st.q.iter().all(|&q| q == 0.0));
            assert!(st.edge_q.iter().flatten().all(|&q| q == 0.0));
        }
    }

    #[test]
    fn all_compressive_element_and_boundary_faces_agree() {
        // Uniform convergence on the centre (u = ½ − x): every face of
        // every element is compressive (the interior of the 4×4 mesh is
        // then limited back to zero — smooth flow), and a single element
        // has four boundary faces (full viscosity, no neighbour to
        // gather).
        for n in [1, 4] {
            let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
            let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
            let nodes = mesh.nodes.clone();
            let st = HydroState::new(
                &mesh,
                &mat,
                |_| 1.0,
                |_| 2.5,
                |i| Vec2::new(0.5, 0.5) - nodes[i],
            )
            .unwrap();
            assert_all_shapes_agree(&mesh, &st, 1e-3, HourglassControl::default());
            let mut out = st.clone();
            let sweep = sweep_of(1e-3, HourglassControl::default());
            viscforce_all(&mesh, &mut out, sweep, Threading::Serial);
            if n == 1 {
                assert!(out.edge_q[0].iter().all(|&q| q > 0.0), "{:?}", out.edge_q);
            }
        }
    }

    #[test]
    fn zero_dt_and_zero_mass_pairs_agree() {
        // dt == 0 lifts the momentum cap (the `INFINITY` select); a pair
        // of massless nodes zeroes the reduced mass (the `μ = 0` select)
        // and with it the capped pair force.
        let (mesh, st) = wavy(6);
        assert_all_shapes_agree(&mesh, &st, 0.0, HourglassControl::default());

        let mut massless = st.clone();
        massless.nd_mass.fill(0.0);
        assert_all_shapes_agree(&mesh, &massless, 1e-2, HourglassControl::default());
        let mut half = st.clone();
        for (i, m) in half.nd_mass.iter_mut().enumerate() {
            if i % 2 == 0 {
                *m = 0.0;
            }
        }
        assert_all_shapes_agree(&mesh, &half, 1e-2, HourglassControl::default());
    }

    #[test]
    fn coincident_corner_velocities_hit_the_zero_jump_select() {
        // Faces whose two corners move identically have `|du| = 0`: the
        // deselected lanes hold 0/0 junk that must never surface.
        let mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let nodes = mesh.nodes.clone();
        let st = HydroState::new(
            &mesh,
            &mat,
            |_| 1.0,
            |_| 2.5,
            // A jump in x only: every horizontal side of the two middle
            // columns is compressive, every vertical side has du == 0.
            |i| Vec2::new(if nodes[i].x < 0.5 { 1.0 } else { -1.0 }, 0.0),
        )
        .unwrap();
        assert_all_shapes_agree(&mesh, &st, 1e-2, HourglassControl::default());
        let mut out = st.clone();
        let sweep = sweep_of(1e-2, HourglassControl::default());
        viscforce_all(&mesh, &mut out, sweep, Threading::Serial);
        assert!(out.q.iter().any(|&q| q > 0.0));
        assert!(out.edge_q.iter().flatten().all(|q| q.is_finite()));
        assert!(out.cnforce_x.iter().flatten().all(|f| f.is_finite()));
    }

    /// The `true` positions of an element mask, and with their face
    /// neighbours: what `OverlapSets` hands the boundary pass.
    fn lists_of(mesh: &Mesh, mask: &[bool]) -> (Vec<u32>, Vec<u32>) {
        let ids: Vec<u32> = (0..mask.len() as u32)
            .filter(|&e| mask[e as usize])
            .collect();
        let cells = mesh.with_face_neighbours(&ids);
        (ids, cells)
    }

    #[test]
    fn interior_pass_plus_listed_pass_is_the_full_sweep_bitwise() {
        let (mesh, st0) = wavy(7);
        let range = LocalRange::whole(&mesh);
        let sweep = sweep_of(1.0, HourglassControl::default());
        // Arbitrary split: the pass over all but the list and the pass
        // over the list must add up to the full sweep exactly
        // (per-element independence), in either order.
        let mask: Vec<bool> = (0..mesh.n_elements()).map(|e| e % 3 == 0).collect();
        let (ids, cells) = lists_of(&mesh, &mask);
        // A different velocity field, swept first on this thread: its
        // cell velocities are what the scratch table holds wherever a
        // listed pass does not refresh it.
        let mut stale = st0.clone();
        stale.u.iter_mut().for_each(|u| *u *= -3.0);
        for th in [Threading::Serial, Threading::Rayon] {
            let mut full = st0.clone();
            viscforce_all(&mesh, &mut full, sweep, th);
            let interior = |st: &mut HydroState| {
                viscforce(&mesh, st, range, sweep, th, Pass::Except(&ids), Pass::All);
            };
            for listed_first in [false, true] {
                let mut split = st0.clone();
                if !listed_first {
                    interior(&mut split);
                }
                viscforce_all(&mesh, &mut stale.clone(), sweep, th);
                let (only, cells) = (Pass::Only(&ids), Pass::Only(&cells));
                viscforce(&mesh, &mut split, range, sweep, th, only, cells);
                if listed_first {
                    interior(&mut split);
                }
                assert_eq!(outputs(&full), outputs(&split), "{th:?} {listed_first}");
            }
        }
    }

    #[test]
    fn each_pass_leaves_the_other_passes_elements_untouched() {
        let (mesh, st0) = wavy(4);
        let range = LocalRange::whole(&mesh);
        let sweep = sweep_of(1e-2, HourglassControl::default());
        let poison = 7.25;
        let mask: Vec<bool> = (0..mesh.n_elements()).map(|e| e < 8).collect();
        let (ids, cells) = lists_of(&mesh, &mask);
        for th in [Threading::Serial, Threading::Rayon] {
            for listed in [false, true] {
                let mut st = st0.clone();
                st.q.fill(poison);
                st.edge_q.fill([poison; 4]);
                st.cnforce_x.fill([poison; 4]);
                st.cnforce_y.fill([poison; 4]);
                let (elements, table) = if listed {
                    (Pass::Only(&ids), Pass::Only(&cells))
                } else {
                    (Pass::Except(&ids), Pass::All)
                };
                viscforce(&mesh, &mut st, range, sweep, th, elements, table);
                for e in 0..mesh.n_elements() {
                    let rows = [st.edge_q[e], st.cnforce_x[e], st.cnforce_y[e]];
                    if mask[e] == listed {
                        assert_ne!(st.q[e], poison, "{th:?}: element {e} was skipped");
                        assert!(rows.iter().flatten().all(|&v| v != poison), "element {e}");
                    } else {
                        assert_eq!(st.q[e], poison, "{th:?}: element {e} was written");
                        assert!(rows.iter().flatten().all(|&v| v == poison), "element {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_list_is_a_no_op() {
        let (mesh, st0) = wavy(3);
        let mut st = st0.clone();
        let sweep = sweep_of(1e-2, HourglassControl::default());
        let range = LocalRange::whole(&mesh);
        let none = Pass::Only(&[]);
        viscforce(&mesh, &mut st, range, sweep, Threading::Rayon, none, none);
        assert_eq!(outputs(&st), outputs(&st0));
    }
}
