//! `SubMeshPlan` against an oracle, and the `OverlapSets` id lists.
//!
//! The plan derives every child mesh by mapping the parent's adjacency
//! through dense global→local tables. The oracle here builds the same
//! children the slow, obvious way — ordered sets, `Mesh::from_raw` on
//! the renumbered connectivity, and the ordering rules of the
//! `bookleaf_mesh::submesh` module docs — and the two must agree on
//! every array a rank works from.

use std::collections::BTreeSet;

use bookleaf::mesh::submesh::ExchangeList;
use bookleaf::mesh::{
    generate_rect, saltzmann_distort, split_corner, Mesh, Neighbor, RectSpec, SubMesh, SubMeshPlan,
    STENCIL_BOUNDARY,
};
use bookleaf::partition::{partition, Strategy};
use bookleaf::util::Vec2;

fn rect(nx: usize, ny: usize) -> Mesh {
    let spec = RectSpec {
        nx,
        ny,
        origin: Vec2::ZERO,
        extent: Vec2::new(1.0, 1.0),
    };
    generate_rect(&spec, |c| u32::from(c.x > 0.5)).unwrap()
}

fn saltzmann(nx: usize, ny: usize) -> Mesh {
    let extent = Vec2::new(1.0, 0.1);
    let spec = RectSpec {
        nx,
        ny,
        origin: Vec2::ZERO,
        extent,
    };
    let mut mesh = generate_rect(&spec, |_| 0).unwrap();
    saltzmann_distort(&mut mesh, Vec2::ZERO, extent);
    mesh
}

/// Rank 0 owns an L (the left column block and the bottom row block),
/// rank 1 the square in its elbow: one rank wraps round the other, so
/// both seams meet at an inside corner.
fn l_shaped_owner(mesh: &Mesh, nx: usize, ny: usize) -> Vec<usize> {
    (0..mesh.n_elements())
        .map(|e| usize::from(e % nx >= nx / 2 && e / nx >= ny / 2))
        .collect()
}

/// Three ranks: the L above split again along its bottom arm.
fn l_shaped_owner3(mesh: &Mesh, nx: usize, ny: usize) -> Vec<usize> {
    (0..mesh.n_elements())
        .map(|e| {
            let (i, j) = (e % nx, e / nx);
            match (i >= nx / 2, j >= ny / 2) {
                (true, true) => 1,
                (true, false) => 2,
                _ => 0,
            }
        })
        .collect()
}

/// Every (mesh, owner, ranks) case both tests run over.
fn cases() -> Vec<(String, Mesh, Vec<usize>, usize)> {
    let mut out = Vec::new();
    for (name, mesh) in [
        ("rect 9x7", rect(9, 7)),
        ("saltzmann 12x5", saltzmann(12, 5)),
    ] {
        for ranks in 1..=5 {
            let owner = partition(&mesh, ranks, Strategy::Rcb).unwrap();
            out.push((format!("{name}, rcb {ranks}"), mesh.clone(), owner, ranks));
        }
    }
    let mesh = rect(8, 6);
    out.push((
        "L, 2 ranks".into(),
        mesh.clone(),
        l_shaped_owner(&mesh, 8, 6),
        2,
    ));
    out.push((
        "L, 3 ranks".into(),
        mesh.clone(),
        l_shaped_owner3(&mesh, 8, 6),
        3,
    ));
    out
}

/// What rank `r` holds, by the documented rules.
struct Expected {
    el_l2g: Vec<u32>,
    n_owned: usize,
    nd_l2g: Vec<u32>,
    n_active: usize,
}

fn expected_entities(global: &Mesh, owner: &[usize], r: usize) -> Expected {
    let owned: BTreeSet<u32> = (0..global.n_elements() as u32)
        .filter(|&e| owner[e as usize] == r)
        .collect();
    let active: BTreeSet<u32> = owned
        .iter()
        .flat_map(|&e| global.elnd[e as usize])
        .collect();
    let ghost: BTreeSet<u32> = active
        .iter()
        .flat_map(|&n| {
            global
                .elements_of_node(n as usize)
                .iter()
                .map(|&id| split_corner(id).0 as u32)
        })
        .filter(|e| !owned.contains(e))
        .collect();
    let outer: BTreeSet<u32> = ghost
        .iter()
        .flat_map(|&e| global.elnd[e as usize])
        .filter(|n| !active.contains(n))
        .collect();
    Expected {
        n_owned: owned.len(),
        n_active: active.len(),
        el_l2g: owned.into_iter().chain(ghost).collect(),
        nd_l2g: active.into_iter().chain(outer).collect(),
    }
}

/// The schedule of rank `r` towards every peer for one entity kind:
/// `held[p]` are the global ids rank `p` holds, `owner_of` who computes
/// each. The owner sends to every other holder; lists in global-id order.
fn expected_schedule(
    r: usize,
    held: &[Vec<u32>],
    owner_of: &dyn Fn(u32) -> usize,
) -> Vec<ExchangeList> {
    let local = |globals: BTreeSet<u32>| -> Vec<u32> {
        globals
            .iter()
            .map(|g| held[r].iter().position(|x| x == g).unwrap() as u32)
            .collect()
    };
    let mut lists = Vec::new();
    for peer in (0..held.len()).filter(|&p| p != r) {
        let send: BTreeSet<u32> = held[peer]
            .iter()
            .copied()
            .filter(|&g| owner_of(g) == r)
            .collect();
        let recv: BTreeSet<u32> = held[r]
            .iter()
            .copied()
            .filter(|&g| owner_of(g) == peer)
            .collect();
        if !(send.is_empty() && recv.is_empty()) {
            lists.push(ExchangeList {
                rank: peer,
                send: local(send),
                recv: local(recv),
            });
        }
    }
    lists
}

#[test]
fn every_child_matches_the_oracle() {
    for (name, global, owner, ranks) in cases() {
        let subs = SubMeshPlan::build(&global, &owner, ranks).unwrap();
        assert_eq!(subs.len(), ranks, "{name}");
        let expected: Vec<Expected> = (0..ranks)
            .map(|r| expected_entities(&global, &owner, r))
            .collect();
        let nd_owner_g = |n: u32| -> usize {
            global
                .elements_of_node(n as usize)
                .iter()
                .map(|&id| owner[split_corner(id).0])
                .min()
                .unwrap()
        };
        let held_el: Vec<Vec<u32>> = expected.iter().map(|x| x.el_l2g.clone()).collect();
        let held_nd: Vec<Vec<u32>> = expected.iter().map(|x| x.nd_l2g.clone()).collect();

        for (r, (sub, want)) in subs.iter().zip(&expected).enumerate() {
            let what = format!("{name}, rank {r}");
            assert_eq!(sub.rank, r, "{what}");
            assert_eq!(sub.el_l2g, want.el_l2g, "{what}: el_l2g");
            assert_eq!(sub.nd_l2g, want.nd_l2g, "{what}: nd_l2g");
            assert_eq!(sub.n_owned_el, want.n_owned, "{what}");
            assert_eq!(sub.n_active_nd, want.n_active, "{what}");
            let owners: Vec<u32> = want.nd_l2g.iter().map(|&n| nd_owner_g(n) as u32).collect();
            assert_eq!(sub.nd_owner, owners, "{what}: nd_owner");

            // The local mesh, rebuilt from renumbered connectivity alone.
            let nd_local = |g: u32| want.nd_l2g.iter().position(|&x| x == g).unwrap() as u32;
            let oracle = Mesh::from_raw(
                want.nd_l2g
                    .iter()
                    .map(|&n| global.nodes[n as usize])
                    .collect(),
                want.el_l2g
                    .iter()
                    .map(|&e| global.elnd[e as usize].map(nd_local))
                    .collect(),
                want.nd_l2g
                    .iter()
                    .map(|&n| global.node_bc[n as usize])
                    .collect(),
                want.el_l2g
                    .iter()
                    .map(|&e| global.region[e as usize])
                    .collect(),
            )
            .unwrap();
            sub.mesh.validate().unwrap();
            assert_eq!(sub.mesh.nodes, oracle.nodes, "{what}: nodes");
            assert_eq!(sub.mesh.elnd, oracle.elnd, "{what}: elnd");
            assert_eq!(sub.mesh.node_bc, oracle.node_bc, "{what}: node_bc");
            assert_eq!(sub.mesh.region, oracle.region, "{what}: region");
            assert_eq!(
                sub.mesh.face_stencil(),
                oracle.face_stencil(),
                "{what}: face rows"
            );
            assert_eq!(sub.mesh.ndel_off, oracle.ndel_off, "{what}: ndel_off");
            // Each node's corners in *global* element-id order.
            let mut ndel = oracle.ndel.clone();
            for n in 0..oracle.n_nodes() {
                let (lo, hi) = (oracle.ndel_off[n] as usize, oracle.ndel_off[n + 1] as usize);
                ndel[lo..hi].sort_by_key(|&id| want.el_l2g[split_corner(id).0]);
            }
            assert_eq!(sub.mesh.ndel, ndel, "{what}: ndel");

            let el = expected_schedule(r, &held_el, &|e| owner[e as usize]);
            let nd = expected_schedule(r, &held_nd, &nd_owner_g);
            assert_eq!(sub.el_exchange, el, "{what}: element schedule");
            assert_eq!(sub.nd_exchange, nd, "{what}: node schedule");
        }
    }
}

/// The `true` positions of `mask`.
fn true_positions(mask: &[bool]) -> Vec<u32> {
    (0..mask.len() as u32)
        .filter(|&i| mask[i as usize])
        .collect()
}

fn is_strictly_ascending(ids: &[u32]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// The boundary sets as masks, from their definitions and this file's
/// own reading of the exchange schedules: `(el_boundary, nd_boundary,
/// remap_pre_el, remap_pre_nd)`.
fn overlap_masks(sub: &SubMesh) -> [Vec<bool>; 4] {
    let mesh = &sub.mesh;
    let flag = |len: usize, lists: &mut dyn Iterator<Item = &Vec<u32>>| {
        let mut mask = vec![false; len];
        for &i in lists.flatten() {
            mask[i as usize] = true;
        }
        mask
    };
    let (ne, nn) = (mesh.n_elements(), mesh.n_nodes());
    let el_recv = flag(ne, &mut sub.el_exchange.iter().map(|x| &x.recv));
    let nd_recv = flag(nn, &mut sub.nd_exchange.iter().map(|x| &x.recv));
    let el_send = flag(ne, &mut sub.el_exchange.iter().map(|x| &x.send));
    let nd_send = flag(nn, &mut sub.nd_exchange.iter().map(|x| &x.send));

    // An owned element is boundary when the viscosity stencil — its
    // nodes, its face neighbours, their nodes — holds a received entity.
    let receives = |e: usize| mesh.elnd[e].iter().any(|&n| nd_recv[n as usize]);
    let el_boundary = (0..sub.n_owned_el)
        .map(|e| {
            receives(e)
                || mesh.neighbors(e).iter().any(|nb| match *nb {
                    Neighbor::Element(nb) => el_recv[nb as usize] || receives(nb as usize),
                    Neighbor::Boundary => false,
                })
        })
        .collect();
    // An active node is boundary when it touches a received element.
    let around = |n: usize| {
        mesh.elements_of_node(n)
            .iter()
            .map(|&id| split_corner(id).0)
    };
    let nd_boundary = (0..sub.n_active_nd)
        .map(|n| around(n).any(|e| el_recv[e]))
        .collect();
    // The remap runs first on what the exchange packs, and on every
    // element round a packed node.
    let remap_pre_el = (0..ne)
        .map(|e| el_send[e] || mesh.elnd[e].iter().any(|&n| nd_send[n as usize]))
        .collect();
    let packed_nodes = nd_send[..sub.n_active_nd].to_vec();
    [el_boundary, nd_boundary, remap_pre_el, packed_nodes]
}

fn check_overlap_lists(what: &str, sub: &SubMesh) {
    let o = sub.overlap_sets();
    // The lists are the oracle's masks: sorted, unique, nothing else.
    let [el_boundary, nd_boundary, remap_pre_el, remap_pre_nd] = overlap_masks(sub);
    assert_eq!(o.el_boundary_ids, true_positions(&el_boundary), "{what}");
    assert_eq!(o.nd_boundary_ids, true_positions(&nd_boundary), "{what}");
    assert_eq!(o.remap_pre_el_ids, true_positions(&remap_pre_el), "{what}");
    assert_eq!(o.remap_pre_nd_ids, true_positions(&remap_pre_nd), "{what}");
    assert!(is_strictly_ascending(&o.boundary_cells), "{what}");
    let interior = el_boundary.iter().filter(|&&b| !b).count();
    assert_eq!(o.n_interior_el(sub.n_owned_el), interior, "{what}");
    let interior = nd_boundary.iter().filter(|&&b| !b).count();
    assert_eq!(o.n_interior_nd(sub.n_active_nd), interior, "{what}");
    // Every table entry a boundary element's limiter gathers is listed:
    // the element itself and whatever its packed stencil row names.
    let stencil = sub.mesh.face_stencil();
    for &e in &o.el_boundary_ids {
        assert!(o.boundary_cells.binary_search(&e).is_ok(), "{what}: el {e}");
        for &nb in &stencil[e as usize] {
            if nb != STENCIL_BOUNDARY {
                assert!(
                    o.boundary_cells.binary_search(&nb).is_ok(),
                    "{what}: neighbour {nb} of boundary element {e} missing"
                );
            }
        }
    }
    // And nothing is listed without a reason.
    for &c in &o.boundary_cells {
        let wanted = el_boundary.get(c as usize).copied().unwrap_or(false)
            || o.el_boundary_ids
                .iter()
                .any(|&e| stencil[e as usize].contains(&c));
        assert!(wanted, "{what}: cell {c} listed for no boundary element");
    }
    if sub.neighbour_ranks().is_empty() {
        assert!(o.el_boundary_ids.is_empty(), "{what}");
        assert!(o.boundary_cells.is_empty(), "{what}");
        assert!(o.nd_boundary_ids.is_empty(), "{what}");
        assert!(o.remap_pre_el_ids.is_empty(), "{what}");
        assert!(o.remap_pre_nd_ids.is_empty(), "{what}");
    } else {
        assert!(!o.el_boundary_ids.is_empty(), "{what}");
        assert!(!o.nd_boundary_ids.is_empty(), "{what}");
    }
}

#[test]
fn overlap_lists_are_their_masks_and_cover_the_boundary_stencil() {
    for (name, global, owner, ranks) in cases() {
        for sub in SubMeshPlan::build(&global, &owner, ranks).unwrap() {
            check_overlap_lists(&format!("{name}, rank {}", sub.rank), &sub);
        }
    }
}
