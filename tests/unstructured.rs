//! Genuinely unstructured meshes: "since the mesh is unstructured, the
//! number of cells surrounding a node is arbitrary" (paper §III-A).
//!
//! The generated rectangular decks all have valence-4 interiors, so this
//! suite hand-builds a *pinwheel* — five quadrilaterals meeting at one
//! central node (valence 5) — and pushes it through the full stack:
//! connectivity, geometry, state setup, and Lagrangian stepping.

use bookleaf::eos::{EosSpec, MaterialTable};
use bookleaf::hydro::{lagstep, HydroState, LagOptions, LocalRange, NoComm};
use bookleaf::mesh::{Mesh, NodeBc};
use bookleaf::util::{approx_eq, Vec2};

/// Five quads around a central node: node 0 at the origin (valence 5),
/// ring-1 nodes A_i at radius 1, ring-2 nodes B_i at radius 1.3 between
/// them. Quad i = (centre, A_i, B_i, A_{i+1}).
fn pinwheel() -> Mesh {
    let sector = std::f64::consts::TAU / 5.0;
    let mut nodes = vec![Vec2::ZERO];
    for i in 0..5 {
        let th = sector * i as f64;
        nodes.push(Vec2::new(th.cos(), th.sin()));
    }
    for i in 0..5 {
        let th = sector * (i as f64 + 0.5);
        nodes.push(Vec2::new(1.3 * th.cos(), 1.3 * th.sin()));
    }
    let a = |i: usize| 1 + (i % 5) as u32; // ring-1
    let b = |i: usize| 6 + (i % 5) as u32; // ring-2
    let elnd: Vec<[u32; 4]> = (0..5).map(|i| [0, a(i), b(i), a(i + 1)]).collect();
    // Outer nodes pinned (a closed "vessel"), centre free.
    let mut bc = vec![NodeBc::CORNER; 11];
    bc[0] = NodeBc::FREE;
    Mesh::from_raw(nodes, elnd, bc, vec![0; 5]).expect("valid pinwheel")
}

#[test]
fn pinwheel_connectivity() {
    let m = pinwheel();
    assert_eq!(m.n_elements(), 5);
    assert_eq!(m.n_nodes(), 11);
    // The central node has valence 5 — impossible on a logically
    // structured mesh.
    assert_eq!(m.elements_of_node(0).len(), 5);
    // Each ring-1 node joins two quads, ring-2 nodes one.
    for i in 1..=5 {
        assert_eq!(m.elements_of_node(i).len(), 2, "ring-1 node {i}");
    }
    for i in 6..=10 {
        assert_eq!(m.elements_of_node(i).len(), 1, "ring-2 node {i}");
    }
    // Faces: each quad borders its two neighbours through the spokes.
    assert_eq!(m.n_interior_faces(), 5);
    assert_eq!(m.n_boundary_faces(), 10);
}

#[test]
fn pinwheel_geometry_is_sound() {
    use bookleaf::mesh::geometry::{corner_volumes, quad_area};
    use bookleaf::validate::quality::is_untangled;
    let m = pinwheel();
    let mut total = 0.0;
    for e in 0..5 {
        let c = m.corners(e);
        let area = quad_area(&c);
        assert!(area > 0.0, "element {e} inverted");
        assert!(is_untangled(&c), "element {e} tangled");
        let cv: f64 = corner_volumes(&c).iter().sum();
        assert!(approx_eq(cv, area, 1e-12));
        total += area;
    }
    // Five-fold symmetry: all areas equal.
    let a0 = quad_area(&m.corners(0));
    for e in 1..5 {
        assert!(approx_eq(quad_area(&m.corners(e)), a0, 1e-12));
    }
    assert!(total > 0.0);
}

#[test]
fn uniform_state_is_steady_on_irregular_valence() {
    // The acceleration gather at the valence-5 node must cancel exactly
    // under uniform pressure, like any interior node.
    let mut mesh = pinwheel();
    let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
    let mut st = HydroState::new(&mesh, &mat, |_| 1.0, |_| 2.5, |_| Vec2::ZERO).unwrap();
    let range = LocalRange::whole(&mesh);
    let x0 = mesh.nodes[0];
    for _ in 0..10 {
        lagstep(
            &mut mesh,
            &mat,
            &mut st,
            range,
            1e-3,
            &LagOptions::default(),
            &mut NoComm,
        )
        .unwrap();
    }
    assert!(mesh.nodes[0].distance(x0) < 1e-13, "centre node drifted");
    assert!(st.u[0].norm() < 1e-13);
    for e in 0..5 {
        assert!(approx_eq(st.rho[e], 1.0, 1e-12));
    }
}

#[test]
fn pressure_imbalance_moves_the_valence5_node_correctly() {
    // Pressurise one sector: the centre node must accelerate away from
    // it, and total energy stays conserved through the irregular gather.
    let mut mesh = pinwheel();
    let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
    let mut st = HydroState::new(
        &mesh,
        &mat,
        |_| 1.0,
        |e| if e == 0 { 10.0 } else { 1.0 },
        |_| Vec2::ZERO,
    )
    .unwrap();
    let range = LocalRange::whole(&mesh);
    let e0 = st.total_energy(&mesh, range);
    // Element 0 spans angles [0, 72deg]; its centroid direction:
    let hot_dir = Vec2::new(36f64.to_radians().cos(), 36f64.to_radians().sin());
    for _ in 0..20 {
        lagstep(
            &mut mesh,
            &mat,
            &mut st,
            range,
            5e-4,
            &LagOptions::default(),
            &mut NoComm,
        )
        .unwrap();
    }
    let disp = mesh.nodes[0];
    assert!(disp.norm() > 1e-6, "centre node should move");
    assert!(
        disp.normalized().dot(hot_dir) < -0.5,
        "centre should be pushed away from the hot sector, moved {disp:?}"
    );
    let e1 = st.total_energy(&mesh, range);
    assert!(approx_eq(e0, e1, 1e-9), "energy drift on irregular mesh");
}

#[test]
fn pinwheel_survives_partitioning() {
    // The decomposition machinery must handle irregular valence too.
    use bookleaf::mesh::SubMeshPlan;
    let m = pinwheel();
    let owner = vec![0usize, 0, 1, 1, 1];
    let subs = SubMeshPlan::build(&m, &owner, 2).unwrap();
    assert_eq!(subs[0].n_owned_el, 2);
    assert_eq!(subs[1].n_owned_el, 3);
    for s in &subs {
        s.mesh.validate().unwrap();
        // The centre node is adjacent to elements of both ranks: it must
        // be active on both, owned by rank 0 (the minimum).
        let centre_local = s.nd_l2g.iter().position(|&g| g == 0).unwrap();
        assert!(centre_local < s.n_active_nd);
        assert_eq!(s.nd_owner[centre_local], 0);
    }
}
