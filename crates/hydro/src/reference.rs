//! Reference (pre-optimisation) kernel implementations.
//!
//! The hot kernels were reshaped for stride-1 inner loops: `getq` drives
//! its neighbour gathers through the packed index table
//! (`Topology::face_stencil`), `getforce` writes SoA component rows, and the
//! EOS chain runs fused (see [`fn@crate::eos_fused`]). This module keeps
//! the *original* loop shapes — in-loop neighbour gathers, interleaved
//! `Vec2` corner forces, one scalar loop per EOS stage — as the baseline
//! of the `kernels` bin's interleaved A/B and as the anchor of the
//! bitwise-equivalence suite. They are algorithmically identical to the
//! production kernels; only the memory-access structure differs.
//!
//! Nothing here runs in a production step. Do not "fix" these to match
//! future optimisations — their value is being the unoptimised shape.
//! They walk their elements serially: an anchor's value is its
//! arithmetic order, which no traversal changes.

use bookleaf_eos::MaterialTable;
use bookleaf_mesh::geometry::{area_gradient, corner_volumes, quad_area, quad_centroid};
use bookleaf_mesh::{Mesh, Neighbor};
use bookleaf_util::constants::ZERO_CUT;
use bookleaf_util::{BookLeafError, Result, Vec2};

use crate::eos_fused::{first_tangled, FusedEos};
use crate::getein::WorkVelocity;
use crate::getforce::HourglassControl;
use crate::getq::{monotonic_limiter, QCoeffs};
use crate::state::{HydroState, LocalRange};

/// The `getgeom → getrho → getein → getpc` chain as four scalar element
/// loops, one per stage `sweep.stages` selects: what
/// [`eos_fused`](fn@crate::eos_fused) computes, in the unfused order. A
/// stage that is off leaves its outputs alone, and the stages after it
/// read what the state holds. The energy update integrates from
/// `sweep.ein_from` when given, else from the live energies.
///
/// Stops at the first stage that fails, with its error: the first
/// tangled element, then the first non-finite or negative density.
pub fn eos_chain_reference(
    mesh: &Mesh,
    materials: &MaterialTable,
    state: &mut HydroState,
    range: LocalRange,
    sweep: FusedEos<'_>,
) -> Result<()> {
    let n = range.n_owned_el;
    let stages = sweep.stages;
    if stages.geom {
        for e in 0..n {
            state.volume[e] = quad_area(&mesh.corners(e));
        }
        first_tangled(&state.volume[..n])?;
    }
    if stages.rho {
        for e in 0..n {
            state.rho[e] = state.mass[e] / state.volume[e];
        }
        if let Some(e) = (0..n).find(|&e| !state.rho[e].is_finite() || state.rho[e] < 0.0) {
            return Err(BookLeafError::InvalidState {
                element: e,
                what: format!("density {} after getrho", state.rho[e]),
            });
        }
    }
    if stages.ein {
        let vel = match sweep.which {
            WorkVelocity::Current => &state.u,
            WorkVelocity::TimeCentred => &state.ubar,
        };
        for e in 0..n {
            let mut work = 0.0;
            for c in 0..4 {
                let v = vel[mesh.elnd[e][c] as usize];
                work += state.cnforce_x[e][c] * v.x + state.cnforce_y[e][c] * v.y;
            }
            let from = sweep.ein_from.map_or(state.ein[e], |src| src[e]);
            state.ein[e] = from - sweep.dt * work / state.mass[e];
        }
    }
    if stages.pc {
        for e in 0..n {
            let spec = materials.spec(mesh.region[e]);
            (state.pressure[e], state.cs2[e]) = spec.pressure_cs2(state.rho[e], state.ein[e]);
        }
    }
    Ok(())
}

/// Pre-hoist `getq`: the limiter reaches into `cell_u[neighbors(e)[f]]`
/// *inside* the face loop (one indirect gather per compressive face),
/// exactly as the kernel was shaped before the stencil hoist. Writes
/// `state.q`, and the edge viscosities into `state.edge_q` (sized here)
/// for [`getforce_reference`], like the standalone `getq`.
pub fn getq_reference(mesh: &Mesh, state: &mut HydroState, range: LocalRange, coeffs: QCoeffs) {
    let n = range.n_owned_el;
    state.edge_q.resize(state.n_elements(), [0.0; 4]);

    let cell_u: Vec<Vec2> = (0..mesh.n_elements())
        .map(|e| cell_velocity(mesh, &state.u, e))
        .collect();

    let u = &state.u;
    let rho = &state.rho;
    let cs2 = &state.cs2;
    let body = |e: usize, edge_q: &mut [f64; 4], q: &mut f64| {
        let corners = mesh.corners(e);
        let centre = quad_centroid(&corners);
        let uc = cell_u[e];
        let cs = cs2[e].max(0.0).sqrt();
        let nd = mesh.elnd[e];
        let mut qmax = 0.0f64;
        for f in 0..4 {
            let a = nd[f] as usize;
            let b = nd[(f + 1) % 4] as usize;
            let du = u[b] - u[a];
            let dx = corners[(f + 1) % 4] - corners[f];
            if du.dot(dx) >= -ZERO_CUT {
                edge_q[f] = 0.0;
                continue;
            }
            let du_mag = du.norm();
            if du_mag <= ZERO_CUT {
                edge_q[f] = 0.0;
                continue;
            }

            let xf = corners[f].midpoint(corners[(f + 1) % 4]);
            let uf = u[a].midpoint(u[b]);
            let dir = (xf - centre).normalized();
            let du_face = (uf - uc).dot(dir);
            // The gather the production kernel hoists: an indirect read
            // through the element-to-element table mid-loop.
            let psi_face = match mesh.neighbors(e)[f] {
                Neighbor::Element(en) if du_face.abs() > ZERO_CUT => {
                    let du_nbr = (cell_u[en as usize] - uf).dot(dir);
                    monotonic_limiter(du_nbr / du_face)
                }
                Neighbor::Element(_) => 1.0,
                Neighbor::Boundary => 0.0,
            };
            let du_opp = u[nd[(f + 3) % 4] as usize] - u[nd[(f + 2) % 4] as usize];
            let r2 = -du_opp.dot(du) / (du_mag * du_mag);
            let psi = psi_face.min(monotonic_limiter(r2));

            edge_q[f] = (1.0 - psi) * rho[e] * du_mag * (coeffs.cq2 * du_mag + coeffs.cq1 * cs);
            qmax = qmax.max(edge_q[f]);
        }
        *q = qmax;
    };

    for e in 0..n {
        body(e, &mut state.edge_q[e], &mut state.q[e]);
    }
}

/// The hourglass mode sign pattern on a quad (mirror of `getforce`).
const GAMMA: [f64; 4] = [1.0, -1.0, 1.0, -1.0];

/// Pre-SoA `getforce`: assembles the same corner forces from the edge
/// viscosities [`getq_reference`] stored, but stores them as interleaved
/// `[Vec2; 4]` rows in a caller-provided buffer — the layout
/// `HydroState` used before the component-row split. The buffer is
/// resized to the owned range. Each element's corner volumes are
/// computed in its own iteration, where the sub-zonal pressure reads
/// them.
pub fn getforce_reference(
    mesh: &Mesh,
    state: &HydroState,
    range: LocalRange,
    hg: HourglassControl,
    dt: f64,
    out: &mut Vec<[Vec2; 4]>,
) {
    let n = range.n_owned_el;
    out.clear();
    out.resize(n, [Vec2::ZERO; 4]);

    let u = &state.u;
    let rho = &state.rho;
    let cs2 = &state.cs2;
    let pressure = &state.pressure;
    let edge_q = &state.edge_q;
    let nd_mass = &state.nd_mass;
    let cnmass = &state.cnmass;
    let volume = &state.volume;

    let body = |e: usize, force: &mut [Vec2; 4]| {
        let corners = mesh.corners(e);
        let grad = area_gradient(&corners);
        let p = pressure[e];

        for c in 0..4 {
            force[c] = grad[c] * p;
        }

        {
            let nd = mesh.elnd[e];
            for f in 0..4 {
                let qf = edge_q[e][f];
                if qf == 0.0 {
                    continue;
                }
                let a = nd[f] as usize;
                let b = nd[(f + 1) % 4] as usize;
                let du = u[b] - u[a];
                let dx = corners[(f + 1) % 4] - corners[f];
                if du.dot(dx) >= 0.0 {
                    continue;
                }
                let du_mag = du.norm();
                if du_mag == 0.0 {
                    continue;
                }
                let (ma, mb) = (nd_mass[a], nd_mass[b]);
                let mu = if ma + mb > 0.0 {
                    ma * mb / (ma + mb)
                } else {
                    0.0
                };
                let cap = if dt > 0.0 {
                    0.25 * mu * du_mag / dt
                } else {
                    f64::INFINITY
                };
                let mag = (qf * dx.norm()).min(cap);
                let pair = du * (mag / du_mag);
                force[f] += pair;
                force[(f + 1) % 4] -= pair;
            }
        }

        if hg.kappa_filter > 0.0 {
            let nd = mesh.elnd[e];
            let mut u_hg = Vec2::ZERO;
            for c in 0..4 {
                u_hg += u[nd[c] as usize] * GAMMA[c];
            }
            u_hg *= 0.25;
            let cs = cs2[e].max(0.0).sqrt();
            let scale = hg.kappa_filter * rho[e] * cs * volume[e].max(0.0).sqrt();
            for c in 0..4 {
                force[c] -= u_hg * (scale * GAMMA[c]);
            }
        }

        if hg.zeta_subzonal > 0.0 {
            let centre = quad_centroid(&corners);
            let cnvol = corner_volumes(&corners);
            for c in 0..4 {
                let cv = cnvol[c];
                if cv <= 0.0 {
                    continue;
                }
                let rho_sub = cnmass[e][c] / cv;
                let dp = hg.zeta_subzonal * cs2[e] * (rho_sub - rho[e]);
                if dp == 0.0 {
                    continue;
                }
                let m_next = corners[c].midpoint(corners[(c + 1) % 4]);
                let m_prev = corners[(c + 3) % 4].midpoint(corners[c]);
                let v = [corners[c], m_next, centre, m_prev];
                let rot = |w: Vec2| Vec2::new(w.y, -w.x);
                let g = [
                    rot(v[1] - v[3]) * 0.5,
                    rot(v[2] - v[0]) * 0.5,
                    rot(v[3] - v[1]) * 0.5,
                    rot(v[0] - v[2]) * 0.5,
                ];
                let quarter_g2 = g[2] * 0.25;
                force[c] += (g[0] + (g[1] + g[3]) * 0.5 + quarter_g2) * dp;
                force[(c + 1) % 4] += (g[1] * 0.5 + quarter_g2) * dp;
                force[(c + 2) % 4] += quarter_g2 * dp;
                force[(c + 3) % 4] += (g[3] * 0.5 + quarter_g2) * dp;
            }
        }
    };

    for (e, row) in out.iter_mut().enumerate() {
        body(e, row);
    }
}

/// Cell-averaged velocity of element `e` (mirror of `getq`).
#[inline]
fn cell_velocity(mesh: &Mesh, u: &[Vec2], e: usize) -> Vec2 {
    let nd = mesh.elnd[e];
    (u[nd[0] as usize] + u[nd[1] as usize] + u[nd[2] as usize] + u[nd[3] as usize]) * 0.25
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::getforce::getforce;
    use crate::getq::getq;
    use crate::Threading;
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, RectSpec};

    fn setup(n: usize) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let nodes = mesh.nodes.clone();
        let mut st = HydroState::new(
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
        st.edge_q = vec![[0.1, 0.0, 0.3, 0.05]; st.n_elements()];
        (mesh, st)
    }

    #[test]
    fn hoisted_getq_matches_reference_bitwise() {
        let (mesh, st0) = setup(9);
        let range = LocalRange::whole(&mesh);
        let mut a = st0.clone();
        getq_reference(&mesh, &mut a, range, QCoeffs::default());
        for th in [Threading::Serial, Threading::Rayon] {
            let mut b = st0.clone();
            getq(&mesh, &mut b, range, QCoeffs::default(), th);
            assert_eq!(a.q, b.q, "{th:?}");
            assert_eq!(a.edge_q, b.edge_q, "{th:?}");
        }
    }

    #[test]
    fn soa_getforce_matches_reference_bitwise() {
        let (mesh, st0) = setup(8);
        let range = LocalRange::whole(&mesh);
        let hg = HourglassControl::default();
        let mut aos = Vec::new();
        getforce_reference(&mesh, &st0, range, hg, 1e-2, &mut aos);
        for th in [Threading::Serial, Threading::Rayon] {
            let mut st = st0.clone();
            getforce(&mesh, &mut st, range, hg, 1e-2, th);
            for e in 0..st.n_elements() {
                for c in 0..4 {
                    assert_eq!(
                        Vec2::new(st.cnforce_x[e][c], st.cnforce_y[e][c]),
                        aos[e][c],
                        "element {e} corner {c} {th:?}"
                    );
                }
            }
        }
    }
}
