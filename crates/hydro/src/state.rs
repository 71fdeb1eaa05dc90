//! The hydrodynamic state: structure-of-arrays storage for every field
//! the kernels touch.
//!
//! Element-centred fields are indexed by local element id, node-centred
//! by local node id, corner fields by `[element][corner]`. In distributed
//! runs the arrays cover owned *and* ghost entities; [`LocalRange`] says
//! which prefix is owned (serial runs own everything).
//!
//! ## Corner-data layout contract
//!
//! Corner fields are stored as **`[f64; 4]`-chunked rows** — one
//! contiguous 4-wide row of doubles per element — so the per-element
//! inner loops of `getforce` and the fused EOS sweep run stride-1 and
//! autovectorize. Corner *vector* data (the corner forces) is split
//! into separate x and y row arrays ([`HydroState::cnforce_x`] /
//! [`HydroState::cnforce_y`]) rather than stored as `[Vec2; 4]`: a
//! component sweep then touches one dense `[f64; 4]` row per element
//! with no interleaving. The halo layer packs
//! the pair in the same `x, y` per-corner wire order as an interleaved
//! `[Vec2; 4]` field, so the split is invisible on the wire, and the
//! checkpoint body never contains corner forces (they are re-derived),
//! so the layout is invisible to the checkpoint format too.
//!
//! ## What is a field
//!
//! A quantity is stored here iff a restart reads it or it crosses a
//! kernel boundary: one kernel writes it and another one reads it.
//! Whatever only the kernel that makes it reads is computed where it is
//! read, from the corners that kernel gathers anyway — the CFL length
//! and the velocity divergence inside `getdt`'s reduction, the corner
//! volumes inside `viscforce`'s sub-zonal pressure, each face's edge
//! viscosity inside `viscforce`'s element body — so a step streams, and
//! a run holds, only what is handed on.

use bookleaf_eos::MaterialTable;
use bookleaf_mesh::geometry::{corner_volumes, quad_area};
use bookleaf_mesh::Mesh;
use bookleaf_util::{BookLeafError, NeumaierSum, Result, Vec2};

use crate::{getpc::getpc, Threading};

/// Which prefix of the local arrays this rank owns and computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalRange {
    /// Elements `0..n_owned_el` are owned; the rest are ghosts.
    pub n_owned_el: usize,
    /// Nodes `0..n_active_nd` are computed here; the rest are halo.
    pub n_active_nd: usize,
}

impl LocalRange {
    /// A serial range covering the whole mesh.
    #[must_use]
    pub fn whole(mesh: &Mesh) -> Self {
        LocalRange {
            n_owned_el: mesh.n_elements(),
            n_active_nd: mesh.n_nodes(),
        }
    }
}

/// All per-entity field arrays of a hydro run.
#[derive(Debug, Clone, PartialEq)]
pub struct HydroState {
    // --- element-centred (length = n local elements) ---
    /// Lagrangian element mass (constant between remaps).
    pub mass: Vec<f64>,
    /// Density.
    pub rho: Vec<f64>,
    /// Specific internal energy.
    pub ein: Vec<f64>,
    /// Pressure.
    pub pressure: Vec<f64>,
    /// Adiabatic sound speed squared.
    pub cs2: Vec<f64>,
    /// Current element volume (area in 2-D): read by the density
    /// update, the hourglass filter and the sentinel.
    pub volume: Vec<f64>,
    /// Element-level artificial viscosity scalar (max of edge values):
    /// read by the next step's `getdt`, and a restart field.
    pub q: Vec<f64>,

    // --- corner fields (length = n local elements, 4 per element) ---
    /// Edge viscous pressures, one per element side — the hand-off
    /// between the standalone [`getq`](crate::getq::getq), which sizes
    /// and writes it, and [`getforce`](crate::getforce::getforce), which
    /// reads it. Empty otherwise: no production step stores edge
    /// viscosities ([`viscforce`](crate::viscforce::viscforce) keeps
    /// each element's row in a local).
    pub edge_q: Vec<[f64; 4]>,
    /// Corner (sub-zonal) masses, fixed in the Lagrangian frame.
    pub cnmass: Vec<[f64; 4]>,
    /// x component of the total corner force on each corner node from
    /// this element (SoA row; see the module-level layout contract).
    pub cnforce_x: Vec<[f64; 4]>,
    /// y component of the corner forces (SoA row, paired with
    /// [`HydroState::cnforce_x`]).
    pub cnforce_y: Vec<[f64; 4]>,

    // --- node-centred (length = n local nodes) ---
    /// Node velocity.
    pub u: Vec<Vec2>,
    /// Time-centred node velocity of the current step (set by `getacc`).
    pub ubar: Vec<Vec2>,
    /// Nodal masses (gathered corner masses; refreshed by `getacc`).
    /// Used by the viscous-force momentum limiter.
    pub nd_mass: Vec<f64>,
}

/// The physical admission checks of one element's initial data.
fn admit_element(e: usize, vol: f64, rho: f64, ein: f64) -> Result<()> {
    if vol <= 0.0 {
        return Err(BookLeafError::NegativeVolume {
            element: e,
            volume: vol,
        });
    }
    if rho < 0.0 || !rho.is_finite() {
        return Err(BookLeafError::InvalidState {
            element: e,
            what: format!("initial density {rho}"),
        });
    }
    if !ein.is_finite() {
        return Err(BookLeafError::InvalidState {
            element: e,
            what: format!("initial energy {ein}"),
        });
    }
    Ok(())
}

impl HydroState {
    /// Initialise from a mesh plus per-element density/energy and
    /// per-node velocity initialisers.
    ///
    /// Computes geometry, masses (element and corner) and the initial EoS
    /// evaluation, and validates positivity.
    pub fn new(
        mesh: &Mesh,
        materials: &MaterialTable,
        rho_of: impl Fn(usize) -> f64,
        ein_of: impl Fn(usize) -> f64,
        u_of: impl Fn(usize) -> Vec2,
    ) -> Result<HydroState> {
        materials.check_regions(&mesh.region)?;
        let ne = mesh.n_elements();
        let nn = mesh.n_nodes();

        let mut st = HydroState::zeroed(mesh);
        for (n, u) in st.u.iter_mut().enumerate() {
            *u = u_of(n);
        }
        for e in 0..ne {
            let c = mesh.corners(e);
            let vol = quad_area(&c);
            let rho = rho_of(e);
            let ein = ein_of(e);
            admit_element(e, vol, rho, ein)?;
            st.volume[e] = vol;
            st.rho[e] = rho;
            st.ein[e] = ein;
            st.mass[e] = rho * vol;
            let cv = corner_volumes(&c);
            for c in 0..4 {
                st.cnmass[e][c] = rho * cv[c];
            }
        }
        let whole = LocalRange::whole(mesh);
        getpc(mesh, materials, &mut st, whole, Threading::Serial);
        let cnmass = st.cnmass.as_flattened();
        for n in 0..nn {
            st.nd_mass[n] = mesh
                .elements_of_node(n)
                .iter()
                .map(|&id| cnmass[id as usize])
                .sum();
        }
        Ok(st)
    }

    /// A state sized for `mesh` with every field zero (and `edge_q`
    /// empty): what a restart state is installed into.
    #[must_use]
    pub fn zeroed(mesh: &Mesh) -> HydroState {
        let ne = mesh.n_elements();
        let nn = mesh.n_nodes();
        HydroState {
            mass: vec![0.0; ne],
            rho: vec![0.0; ne],
            ein: vec![0.0; ne],
            pressure: vec![0.0; ne],
            cs2: vec![0.0; ne],
            volume: vec![0.0; ne],
            q: vec![0.0; ne],
            edge_q: Vec::new(),
            cnmass: vec![[0.0; 4]; ne],
            cnforce_x: vec![[0.0; 4]; ne],
            cnforce_y: vec![[0.0; 4]; ne],
            u: vec![Vec2::ZERO; nn],
            ubar: vec![Vec2::ZERO; nn],
            nd_mass: vec![0.0; nn],
        }
    }

    /// Every reason [`HydroState::new`] would refuse these inputs, as
    /// one pass that builds nothing: same checks, same order, same
    /// typed error.
    pub fn check_initial(
        mesh: &Mesh,
        materials: &MaterialTable,
        rho_of: impl Fn(usize) -> f64,
        ein_of: impl Fn(usize) -> f64,
    ) -> Result<()> {
        materials.check_regions(&mesh.region)?;
        (0..mesh.n_elements())
            .try_for_each(|e| admit_element(e, quad_area(&mesh.corners(e)), rho_of(e), ein_of(e)))
    }

    /// Number of local elements.
    #[must_use]
    pub fn n_elements(&self) -> usize {
        self.rho.len()
    }

    /// Number of local nodes.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.u.len()
    }

    /// Total internal energy over owned elements: `Σ m ε`.
    #[must_use]
    pub fn internal_energy(&self, range: LocalRange) -> f64 {
        let mut s = NeumaierSum::new();
        for e in 0..range.n_owned_el {
            s.add(self.mass[e] * self.ein[e]);
        }
        s.value()
    }

    /// Kinetic energy `Σ ½ m_n |u|²`, with nodal mass gathered from
    /// adjacent corner masses, over the active nodes selected by `owns`. Serial
    /// drivers pass `|_| true`; distributed ranks pass their node
    /// ownership predicate so partition-boundary nodes (present on
    /// several ranks) are counted exactly once in a global sum.
    #[must_use]
    pub fn kinetic_energy_where(
        &self,
        mesh: &Mesh,
        range: LocalRange,
        owns: impl Fn(usize) -> bool,
    ) -> f64 {
        let mut s = NeumaierSum::new();
        let cnmass = self.cnmass.as_flattened();
        for n in 0..range.n_active_nd {
            if !owns(n) {
                continue;
            }
            let mut m = 0.0;
            for &id in mesh.elements_of_node(n) {
                m += cnmass[id as usize];
            }
            s.add(0.5 * m * self.u[n].norm2());
        }
        s.value()
    }

    /// Total energy (internal + kinetic) over the owned partition.
    #[must_use]
    pub fn total_energy(&self, mesh: &Mesh, range: LocalRange) -> f64 {
        self.internal_energy(range) + self.kinetic_energy_where(mesh, range, |_| true)
    }

    /// Total mass over owned elements.
    #[must_use]
    pub fn total_mass(&self, range: LocalRange) -> f64 {
        let mut s = NeumaierSum::new();
        s.add_slice(&self.mass[..range.n_owned_el]);
        s.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_eos::EosSpec;
    use bookleaf_mesh::{generate_rect, RectSpec};
    use bookleaf_util::approx_eq;

    fn setup(n: usize) -> (Mesh, HydroState) {
        let mesh = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
        (mesh, st)
    }

    #[test]
    fn initial_mass_and_volume() {
        let (mesh, st) = setup(4);
        let range = LocalRange::whole(&mesh);
        assert!(approx_eq(st.total_mass(range), 1.0, 1e-12));
        let v: f64 = st.volume.iter().sum();
        assert!(approx_eq(v, 1.0, 1e-12));
    }

    #[test]
    fn corner_masses_sum_to_element_mass() {
        let (_, st) = setup(3);
        for e in 0..st.n_elements() {
            let cm: f64 = st.cnmass[e].iter().sum();
            assert!(approx_eq(cm, st.mass[e], 1e-12));
        }
    }

    #[test]
    fn initial_pressure_from_eos() {
        let (_, st) = setup(2);
        // p = 0.4 * 1.0 * 2.5 = 1.0 everywhere.
        assert!(st.pressure.iter().all(|&p| approx_eq(p, 1.0, 1e-12)));
        assert!(st.cs2.iter().all(|&c| approx_eq(c, 1.4, 1e-12)));
    }

    #[test]
    fn energies() {
        let mesh = generate_rect(&RectSpec::unit_square(4), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let st = HydroState::new(&mesh, &mat, |_| 2.0, |_| 1.5, |_| Vec2::new(3.0, 4.0)).unwrap();
        let range = LocalRange::whole(&mesh);
        // IE = m*ein = 2*1.5 = 3 ; KE = ½ * 2 * 25 = 25.
        assert!(approx_eq(st.internal_energy(range), 3.0, 1e-12));
        assert!(approx_eq(
            st.kinetic_energy_where(&mesh, range, |_| true),
            25.0,
            1e-12
        ));
        assert!(approx_eq(st.total_energy(&mesh, range), 28.0, 1e-12));
    }

    #[test]
    fn negative_density_rejected() {
        let mesh = generate_rect(&RectSpec::unit_square(2), |_| 0).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
        let err = HydroState::new(&mesh, &mat, |_| -1.0, |_| 1.0, |_| Vec2::ZERO).unwrap_err();
        assert!(matches!(err, BookLeafError::InvalidState { .. }));
    }

    #[test]
    fn missing_material_rejected() {
        let mesh = generate_rect(&RectSpec::unit_square(2), |c| u32::from(c.x > 0.5)).unwrap();
        let mat = MaterialTable::single(EosSpec::ideal_gas(1.4)); // only region 0
        assert!(HydroState::new(&mesh, &mat, |_| 1.0, |_| 1.0, |_| Vec2::ZERO).is_err());
    }

    #[test]
    fn per_region_initialisation() {
        // Sod-like split: left rho 1, right rho 0.125.
        let mesh = generate_rect(&RectSpec::unit_square(4), |c| u32::from(c.x > 0.5)).unwrap();
        let mat = MaterialTable::new(vec![EosSpec::ideal_gas(1.4); 2]);
        let st = HydroState::new(
            &mesh,
            &mat,
            |e| if mesh.region[e] == 0 { 1.0 } else { 0.125 },
            |_| 1.0,
            |_| Vec2::ZERO,
        )
        .unwrap();
        let range = LocalRange::whole(&mesh);
        assert!(approx_eq(
            st.total_mass(range),
            0.5 * 1.0 + 0.5 * 0.125,
            1e-12
        ));
    }
}
