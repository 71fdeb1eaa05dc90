//! `getgeom`: update element volumes after node motion — the geometry
//! stage of [`fn@eos_fused`], run alone. A non-positive volume means
//! the mesh tangled, a fatal error in the reference code too. (Corner
//! volumes and the CFL length are computed where they are read, by
//! `viscforce` and `getdt`.)

use bookleaf_eos::MaterialTable;
use bookleaf_mesh::Mesh;
use bookleaf_util::Result;

use crate::eos_fused::{eos_fused, EosStages, FusedEos};
use crate::getein::WorkVelocity;
use crate::state::{HydroState, LocalRange};
use crate::Threading;

/// Recompute the volumes of the owned range. Returns the first tangled
/// element as an error.
pub fn getgeom(
    mesh: &Mesh,
    state: &mut HydroState,
    range: LocalRange,
    threading: Threading,
) -> Result<()> {
    let geom = FusedEos {
        dt: 0.0,
        which: WorkVelocity::Current,
        ein_from: None,
        stages: EosStages {
            geom: true,
            ..EosStages::NONE
        },
    };
    // The pc stage is off, so no material is looked up; an empty table does not allocate.
    let no_materials = MaterialTable::new(Vec::new());
    eos_fused(mesh, &no_materials, state, range, geom, threading)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::EosSpec;
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::{approx_eq, BookLeafError, Vec2};

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
        assert!(st.volume.iter().all(|&v| approx_eq(v, 0.5, 1e-12)));
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
