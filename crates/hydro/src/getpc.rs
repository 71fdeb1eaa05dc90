//! `getpc`: pressure and sound speed from the EoS — the EoS stage of
//! [`fn@eos_fused`], run alone. The paper's Table II lists it as the
//! cheapest kernel (1–2 % of runtime on CPUs, more on GPUs where each
//! launch pays fixed overheads).

use bookleaf_eos::MaterialTable;
use bookleaf_mesh::Mesh;

use crate::eos_fused::{eos_fused, EosStages, FusedEos};
use crate::getein::WorkVelocity;
use crate::state::{HydroState, LocalRange};
use crate::Threading;

/// Evaluate pressure and cs² over the owned range.
pub fn getpc(
    mesh: &Mesh,
    materials: &MaterialTable,
    state: &mut HydroState,
    range: LocalRange,
    threading: Threading,
) {
    let pc = FusedEos {
        dt: 0.0,
        which: WorkVelocity::Current,
        ein_from: None,
        stages: EosStages {
            pc: true,
            ..EosStages::NONE
        },
    };
    eos_fused(mesh, materials, state, range, pc, threading)
        .expect("the EoS stage reports no error");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::EosSpec;
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::{approx_eq, Vec2};

    fn setup() -> (Mesh, MaterialTable, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(4), |c| u32::from(c.x > 0.5)).unwrap();
        let mat = MaterialTable::new(vec![EosSpec::ideal_gas(1.4), EosSpec::ideal_gas(5.0 / 3.0)]);
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 3.0, |_| Vec2::ZERO).unwrap();
        (mesh, mat, st)
    }

    #[test]
    fn multi_material_pressures() {
        let (mesh, mat, mut st) = setup();
        // Perturb energies then re-evaluate.
        for e in 0..st.n_elements() {
            st.ein[e] = 2.0;
        }
        getpc(
            &mesh,
            &mat,
            &mut st,
            LocalRange::whole(&mesh),
            Threading::Serial,
        );
        for e in 0..st.n_elements() {
            let expect = if mesh.region[e] == 0 {
                0.4 * 2.0
            } else {
                (2.0 / 3.0) * 2.0
            };
            assert!(approx_eq(st.pressure[e], expect, 1e-12));
        }
    }

    #[test]
    fn every_element_gets_its_own_regions_eos_and_void_has_no_pressure() {
        let (mesh, _, mut st) = setup();
        let mat = MaterialTable::new(vec![EosSpec::ideal_gas(1.4), EosSpec::Void]);
        for e in 0..st.n_elements() {
            st.rho[e] = 0.5 + 0.1 * e as f64;
            st.ein[e] = 1.0 + e as f64;
        }
        let range = LocalRange::whole(&mesh);
        getpc(&mesh, &mat, &mut st, range, Threading::Serial);
        for e in 0..st.n_elements() {
            let expect = mat.spec(mesh.region[e]).pressure_cs2(st.rho[e], st.ein[e]);
            assert_eq!((st.pressure[e], st.cs2[e]), expect, "element {e}");
            if mesh.region[e] == 1 {
                assert_eq!(st.pressure[e], 0.0, "void element {e}");
            }
        }
    }

    #[test]
    fn ghost_entries_untouched() {
        let (mesh, mat, mut st) = setup();
        let sentinel = -99.0;
        let n = st.n_elements();
        st.pressure[n - 1] = sentinel;
        let range = LocalRange {
            n_owned_el: n - 1,
            n_active_nd: mesh.n_nodes(),
        };
        getpc(&mesh, &mat, &mut st, range, Threading::Serial);
        assert_eq!(st.pressure[n - 1], sentinel);
    }
}
