//! `getgeom`: update element geometry after node motion.
//!
//! Recomputes, for every owned element: volume (signed area), corner
//! volumes, and the CFL characteristic length. A non-positive volume
//! means the mesh tangled — a fatal error in the reference code too.

use bookleaf_mesh::geometry::{char_length, corner_volumes, quad_area};
use bookleaf_mesh::Mesh;
use bookleaf_util::{BookLeafError, Result};

use crate::state::{HydroState, LocalRange};
use crate::sweep::{sweep_reduce, Pass};
use crate::Threading;

/// Recompute geometry for the owned range. Returns the first tangled
/// element as an error.
pub fn getgeom(
    mesh: &Mesh,
    state: &mut HydroState,
    range: LocalRange,
    threading: Threading,
) -> Result<()> {
    let n = range.n_owned_el;
    let (elnd, x) = (&mesh.elnd[..n], &mesh.nodes);
    let columns = (
        &mut state.volume[..n],
        &mut state.cnvol[..n],
        &mut state.length[..n],
    );
    let ok = sweep_reduce(
        threading,
        Pass::All,
        columns,
        true,
        |a, b| a && b,
        |e, (volume, cnvol, length)| {
            let c = elnd[e].map(|n| x[n as usize]);
            *volume = quad_area(&c);
            *cnvol = corner_volumes(&c);
            *length = char_length(&c);
            untangled(*volume)
        },
    );

    if !ok {
        first_tangled(&state.volume[..n])?;
    }
    Ok(())
}

/// The sweeps' per-element test: a positive volume. A NaN volume — a
/// NaN node coordinate — is neither `> 0` nor `<= 0`, and is tangled.
#[inline(always)]
pub(crate) fn untangled(volume: f64) -> bool {
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
    use bookleaf_eos::{EosSpec, MaterialTable};
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::{approx_eq, Vec2};

    fn setup(n: usize) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 1.0, |_| Vec2::ZERO).unwrap();
        (mesh, st)
    }

    #[test]
    fn recomputes_after_node_motion() {
        let (mut mesh, mut st) = setup(2);
        let range = LocalRange::whole(&mesh);
        // Stretch the whole mesh by 2x in x.
        for p in &mut mesh.nodes {
            p.x *= 2.0;
        }
        getgeom(&mesh, &mut st, range, Threading::Serial).unwrap();
        let v: f64 = st.volume.iter().sum();
        assert!(approx_eq(v, 2.0, 1e-12));
        for e in 0..st.n_elements() {
            let cv: f64 = st.cnvol[e].iter().sum();
            assert!(approx_eq(cv, st.volume[e], 1e-12));
        }
    }

    #[test]
    fn serial_and_rayon_agree() {
        let (mut mesh, mut st_a) = setup(6);
        for (i, p) in mesh.nodes.iter_mut().enumerate() {
            p.x += 0.001 * (i as f64).sin();
            p.y += 0.001 * (i as f64).cos();
        }
        let mut st_b = st_a.clone();
        let range = LocalRange::whole(&mesh);
        getgeom(&mesh, &mut st_a, range, Threading::Serial).unwrap();
        getgeom(&mesh, &mut st_b, range, Threading::Rayon).unwrap();
        assert_eq!(st_a.volume, st_b.volume);
        assert_eq!(st_a.cnvol, st_b.cnvol);
        assert_eq!(st_a.length, st_b.length);
    }

    #[test]
    fn tangled_mesh_is_fatal() {
        let (mut mesh, mut st) = setup(2);
        let range = LocalRange::whole(&mesh);
        // Collapse node 4 (centre) far past the boundary to invert cells.
        mesh.nodes[4] = Vec2::new(-5.0, -5.0);
        let err = getgeom(&mesh, &mut st, range, Threading::Serial).unwrap_err();
        assert!(matches!(err, BookLeafError::NegativeVolume { .. }));
    }

    #[test]
    fn a_nan_node_is_tangled_not_ok() {
        let (mut mesh, mut st) = setup(2);
        let range = LocalRange::whole(&mesh);
        mesh.nodes[4].y = f64::NAN; // the centre node: every element has it
        let err = getgeom(&mesh, &mut st, range, Threading::Serial).unwrap_err();
        assert!(
            matches!(err, BookLeafError::NegativeVolume { element: 0, volume } if volume.is_nan()),
            "{err:?}"
        );
    }

    #[test]
    fn respects_owned_range() {
        let (mut mesh, mut st) = setup(2);
        let range = LocalRange {
            n_owned_el: 2,
            n_active_nd: mesh.n_nodes(),
        };
        for p in &mut mesh.nodes {
            p.x *= 3.0;
        }
        let before = st.volume[3];
        getgeom(&mesh, &mut st, range, Threading::Serial).unwrap();
        assert!(approx_eq(st.volume[0], 3.0 * 0.25, 1e-12));
        assert_eq!(st.volume[3], before, "ghost element must be untouched");
    }
}
