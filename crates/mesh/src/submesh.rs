//! Per-rank local meshes with ghost layers.
//!
//! BookLeaf distributes the mesh across processes; data required from
//! neighbouring processes is stored in *ghost layers* and retrieved via
//! point-to-point communications. This module builds those local views.
//!
//! ## Layout of a [`SubMesh`]
//!
//! * Local elements are ordered **owned first, then ghost**, each group
//!   sorted by global id (so that reduction orders are identical on every
//!   rank that sees the same element).
//! * The ghost layer contains every non-owned element that shares *a node*
//!   with an owned element. This node-complete layer means each rank can
//!   evaluate the acceleration gather for every node of its owned elements
//!   without further communication, provided ghost corner data is current.
//! * Local nodes are ordered **active first** (nodes of owned elements,
//!   sorted by global id), **then outer** (remaining nodes of ghost
//!   elements).
//! * Node ownership: the smallest rank owning an adjacent element. Owned
//!   node values are computed locally; non-owned values arrive via the
//!   node exchange.
//!
//! The exchange *schedules* (who sends which locals to whom, in which
//! order) are precomputed here, centrally, from the global mesh — the
//! paper notes the reference partitioner is serial, and we mirror that.

use std::collections::BTreeMap;

use bookleaf_util::{BookLeafError, Result};

use crate::topology::{split_corner, Mesh, Topology, STENCIL_BOUNDARY};
use crate::NCORN;

/// One direction of a per-neighbour exchange schedule: the local indices
/// to pack (send) or unpack (receive), in an order agreed with the peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeList {
    /// Peer rank.
    pub rank: usize,
    /// Local indices to send to `rank`, sorted by global id.
    pub send: Vec<u32>,
    /// Local indices to receive from `rank`, sorted by global id.
    pub recv: Vec<u32>,
}

/// A rank-local mesh plus everything needed to exchange halo data.
#[derive(Debug, Clone)]
pub struct SubMesh {
    /// This rank's id.
    pub rank: usize,
    /// The local mesh: owned elements first, then ghosts.
    pub mesh: Mesh,
    /// Number of owned elements (prefix of the local ordering).
    pub n_owned_el: usize,
    /// Number of active nodes (nodes of owned elements, prefix).
    pub n_active_nd: usize,
    /// Local element → global element id.
    pub el_l2g: Vec<u32>,
    /// Local node → global node id.
    pub nd_l2g: Vec<u32>,
    /// Owner rank of each local node.
    pub nd_owner: Vec<u32>,
    /// Element-field exchange schedule, one entry per neighbouring rank.
    pub el_exchange: Vec<ExchangeList>,
    /// Node-field exchange schedule, one entry per neighbouring rank.
    pub nd_exchange: Vec<ExchangeList>,
}

impl SubMesh {
    /// True when local element `e` is owned by this rank.
    #[inline]
    #[must_use]
    pub fn owns_element(&self, e: usize) -> bool {
        e < self.n_owned_el
    }

    /// True when local node `n` is owned by this rank.
    #[inline]
    #[must_use]
    pub fn owns_node(&self, n: usize) -> bool {
        self.nd_owner[n] as usize == self.rank
    }

    /// Total halo (ghost element) count.
    #[must_use]
    pub fn n_ghost_el(&self) -> usize {
        self.mesh.n_elements() - self.n_owned_el
    }

    /// The ranks this submesh exchanges halo data with: the union of the
    /// element- and node-schedule peers, sorted ascending. One entry per
    /// *neighbour link* — a phase-aggregated exchange sends exactly one
    /// message per entry per phase.
    #[must_use]
    pub fn neighbour_ranks(&self) -> Vec<usize> {
        neighbour_union(&self.el_exchange, &self.nd_exchange)
    }

    /// Classify this rank's entities into **interior** (no halo
    /// dependency) and **boundary** sets, derived once per run from the
    /// exchange schedules. The overlapped executor sweeps the interior
    /// sets while a phase's messages are in flight and only completes
    /// the exchange before the boundary sweep — see [`OverlapSets`] for
    /// the exact guarantees each set provides.
    #[must_use]
    pub fn overlap_sets(&self) -> OverlapSets {
        let ne = self.mesh.n_elements();
        let nn = self.mesh.n_nodes();

        // Membership of the recv/send schedules, as O(1) lookups.
        let mut el_recv = vec![false; ne];
        let mut el_send = vec![false; ne];
        for ex in &self.el_exchange {
            for &e in &ex.recv {
                el_recv[e as usize] = true;
            }
            for &e in &ex.send {
                el_send[e as usize] = true;
            }
        }
        let mut nd_recv = vec![false; nn];
        for ex in &self.nd_exchange {
            for &n in &ex.recv {
                nd_recv[n as usize] = true;
            }
        }

        // Viscosity-phase element split: the getq limiter reaches from
        // an owned element into its own nodes, its face neighbours, and
        // those neighbours' nodes (cell-averaged velocities). If any of
        // them is refreshed by the exchange, the element is boundary.
        let stencil = self.mesh.face_stencil();
        let nodes_hit = |e: usize| self.mesh.elnd[e].iter().any(|&n| nd_recv[n as usize]);
        let el_boundary_ids: Vec<u32> = (0..self.n_owned_el as u32)
            .filter(|&e| {
                nodes_hit(e as usize)
                    || stencil[e as usize].iter().any(|&en| {
                        en != STENCIL_BOUNDARY && (el_recv[en as usize] || nodes_hit(en as usize))
                    })
            })
            .collect();

        // Acceleration-phase node split: the nodal gather reads corner
        // masses/forces of every adjacent element; ghost contributions
        // arrive in the exchange.
        let nd_boundary_ids: Vec<u32> = (0..self.n_active_nd as u32)
            .filter(|&n| {
                self.mesh
                    .elements_of_node(n as usize)
                    .iter()
                    .any(|&id| el_recv[split_corner(id).0])
            })
            .collect();

        // Post-remap pre-post sets: everything that must be remapped
        // *before* the exchange can pack — the send-list elements, the
        // send-list nodes, and (because a node's velocity update gathers
        // over its whole adjacency) every element adjacent to a
        // send-list node, ghosts included.
        let mut remap_pre_el = el_send;
        let mut remap_pre_nd = vec![false; self.n_active_nd];
        for ex in &self.nd_exchange {
            for &n in &ex.send {
                let n = n as usize;
                // Send nodes are owned, and owned nodes are active.
                remap_pre_nd[n] = true;
                for &id in self.mesh.elements_of_node(n) {
                    remap_pre_el[split_corner(id).0] = true;
                }
            }
        }

        // The sets leave as sorted id lists: a sweep over a set costs
        // what the halo costs, a sweep over the rest merge-walks the
        // list. The remap sets are marked out of order, so they leave
        // through their masks. A boundary element's viscosity limiter
        // gathers the cell-averaged velocity of the element itself and
        // of its face neighbours (ghosts included): those are the table
        // entries a boundary sweep needs.
        OverlapSets {
            boundary_cells: self.mesh.with_face_neighbours(&el_boundary_ids),
            el_boundary_ids,
            nd_boundary_ids,
            remap_pre_el_ids: true_positions(&remap_pre_el),
            remap_pre_nd_ids: true_positions(&remap_pre_nd),
        }
    }
}

/// The indices at which `mask` is `true`, ascending.
fn true_positions(mask: &[bool]) -> Vec<u32> {
    (0..mask.len() as u32)
        .filter(|&i| mask[i as usize])
        .collect()
}

/// Interior/boundary classification for communication/computation
/// overlap, derived once per run from a [`SubMesh`]'s exchange schedules
/// by [`SubMesh::overlap_sets`]: each boundary set as a strictly
/// ascending id list. A boundary sweep visits the list and nothing else;
/// the interior sweep is the full range minus the list.
/// [`OverlapSets::NONE`] — every list empty — says "nothing is
/// boundary": what a serial run, a rank without neighbours and a
/// blocking exchange use.
///
/// The guarantees, which make split (interior-first) kernel sweeps
/// bitwise identical to full sweeps after a completed exchange:
///
/// * An owned element outside `el_boundary_ids` reads **no** entity any
///   recv list touches through the viscosity/force stencil (its own
///   nodes, its face neighbours, and their nodes) — `getq`/`getforce`
///   may process it before the pre-viscosity exchange completes.
/// * An active node outside `nd_boundary_ids` is adjacent to owned
///   elements only — `getacc` may gather it before the pre-acceleration
///   exchange completes.
/// * `remap_pre_el_ids` / `remap_pre_nd_ids` are the entities (elements
///   owned *and* ghost; active nodes) whose remap update feeds the
///   post-remap send buffers: every send-list element, every send-list
///   node, and every element adjacent to a send-list node. Updating
///   exactly these first makes it safe to post the exchange, remap the
///   rest during flight, and complete at the end. By construction no
///   element *outside* `remap_pre_el_ids` is adjacent to a node in
///   `remap_pre_nd_ids`, so the deferred element sweep never reads a
///   velocity the early node sweep rewrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverlapSets {
    /// Owned elements whose viscosity-phase stencil reaches a
    /// halo-received entity.
    pub el_boundary_ids: Vec<u32>,
    /// Local elements (ghosts included) whose cell-averaged velocity a
    /// sweep over `el_boundary_ids` reads: the boundary elements and
    /// their face neighbours.
    pub boundary_cells: Vec<u32>,
    /// Active nodes adjacent to at least one ghost element.
    pub nd_boundary_ids: Vec<u32>,
    /// Local elements (ghosts included) that must be remapped before
    /// the post-remap exchange is posted.
    pub remap_pre_el_ids: Vec<u32>,
    /// Active nodes the post-remap exchange packs.
    pub remap_pre_nd_ids: Vec<u32>,
}

impl OverlapSets {
    /// Nothing is boundary: every list empty.
    pub const NONE: &'static OverlapSets = &OverlapSets {
        el_boundary_ids: Vec::new(),
        boundary_cells: Vec::new(),
        nd_boundary_ids: Vec::new(),
        remap_pre_el_ids: Vec::new(),
        remap_pre_nd_ids: Vec::new(),
    };

    /// Number of interior (overlappable) elements among `n_owned_el`.
    #[must_use]
    pub fn n_interior_el(&self, n_owned_el: usize) -> usize {
        n_owned_el - self.el_boundary_ids.len()
    }

    /// Number of interior (overlappable) nodes among `n_active_nd`.
    #[must_use]
    pub fn n_interior_nd(&self, n_active_nd: usize) -> usize {
        n_active_nd - self.nd_boundary_ids.len()
    }
}

/// Sorted, deduplicated union of the peer ranks of two exchange
/// schedules: the submesh's *neighbour links*. The single source of
/// truth for the link set — the typhon exchange plan derives its wire
/// format from this same function, so the message-count invariant
/// (`messages == phases × links`) cannot drift between layers.
#[must_use]
pub fn neighbour_union(el: &[ExchangeList], nd: &[ExchangeList]) -> Vec<usize> {
    let mut ranks: Vec<usize> = el.iter().chain(nd).map(|x| x.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
}

/// Builder for the set of [`SubMesh`]es of a run.
#[derive(Debug)]
pub struct SubMeshPlan;

impl SubMeshPlan {
    /// Decompose `global` according to `owner` (element → rank) into
    /// `n_ranks` local meshes with ghost layers and exchange schedules.
    pub fn build(global: &Mesh, owner: &[usize], n_ranks: usize) -> Result<Vec<SubMesh>> {
        if owner.len() != global.n_elements() {
            return Err(BookLeafError::Partition(format!(
                "owner array length {} != element count {}",
                owner.len(),
                global.n_elements()
            )));
        }
        if let Some(&bad) = owner.iter().find(|&&r| r >= n_ranks) {
            return Err(BookLeafError::Partition(format!(
                "element owner {bad} out of range for {n_ranks} ranks"
            )));
        }
        // Node owner = min rank among adjacent elements.
        let mut nd_owner_g = vec![u32::MAX; global.n_nodes()];
        for (n, o) in nd_owner_g.iter_mut().enumerate() {
            for &id in global.elements_of_node(n) {
                *o = (*o).min(owner[split_corner(id).0] as u32);
            }
        }

        // Global→local id tables, dense and shared by all ranks: a rank
        // fills the entries of its own entities, uses them, and clears
        // them again, so the work per rank is proportional to its local
        // mesh. `ABSENT` marks an entity the current rank does not hold.
        let mut el_g2l = vec![ABSENT; global.n_elements()];
        let mut nd_g2l = vec![ABSENT; global.n_nodes()];

        // Pass 1 — per rank: owned elements, then the ghost layer; active
        // nodes, then outer nodes (each group sorted by global id); and
        // what the rank receives from whom, as global ids.
        let mut drafts: Vec<Draft> = (0..n_ranks).map(|_| Draft::default()).collect();
        for (e, &r) in owner.iter().enumerate() {
            drafts[r].els.push(e as u32);
        }
        for (r, d) in drafts.iter_mut().enumerate() {
            d.n_owned = d.els.len();
            if d.n_owned == 0 {
                return Err(BookLeafError::Partition(format!(
                    "rank {r} owns no elements"
                )));
            }

            // Active nodes = nodes of owned elements.
            for &e in &d.els {
                for &n in &global.elnd[e as usize] {
                    if std::mem::replace(&mut nd_g2l[n as usize], 0) == ABSENT {
                        d.nds.push(n);
                    }
                }
            }
            d.nds.sort_unstable();
            d.n_active = d.nds.len();

            // Ghost layer: elements adjacent to an active node, not owned.
            for &e in &d.els {
                el_g2l[e as usize] = 0;
            }
            for &n in &d.nds {
                for &id in global.elements_of_node(n as usize) {
                    let e = split_corner(id).0;
                    if std::mem::replace(&mut el_g2l[e], 0) == ABSENT {
                        d.els.push(e as u32);
                    }
                }
            }
            d.els[d.n_owned..].sort_unstable();

            // Outer nodes = nodes of ghosts not already active.
            for &e in &d.els[d.n_owned..] {
                for &n in &global.elnd[e as usize] {
                    if std::mem::replace(&mut nd_g2l[n as usize], 0) == ABSENT {
                        d.nds.push(n);
                    }
                }
            }
            d.nds[d.n_active..].sort_unstable();

            // Every ghost element arrives from its owner, every non-owned
            // local node from its owner; both in global-id order.
            for &e in &d.els[d.n_owned..] {
                d.el_recv.entry(owner[e as usize]).or_default().push(e);
            }
            for &n in &d.nds {
                let o = nd_owner_g[n as usize] as usize;
                if o != r {
                    d.nd_recv.entry(o).or_default().push(n);
                }
            }
            for list in d.nd_recv.values_mut() {
                list.sort_unstable(); // active and outer interleave
            }

            for &e in &d.els {
                el_g2l[e as usize] = ABSENT;
            }
            for &n in &d.nds {
                nd_g2l[n as usize] = ABSENT;
            }
        }

        // Pass 2 — per rank: local ids, exchange schedules, local mesh.
        let mut subs = Vec::with_capacity(n_ranks);
        for (r, d) in drafts.iter().enumerate() {
            for (l, &e) in d.els.iter().enumerate() {
                el_g2l[e as usize] = l as u32;
            }
            for (l, &n) in d.nds.iter().enumerate() {
                nd_g2l[n as usize] = l as u32;
            }

            let el_exchange = schedule(r, &drafts, |d| &d.el_recv, &el_g2l);
            let nd_exchange = schedule(r, &drafts, |d| &d.nd_recv, &nd_g2l);

            // Local mesh arrays. Both adjacencies are the parent's,
            // restricted to local entities and renumbered: a face whose
            // far side is not local becomes a boundary, and every node's
            // element list keeps the parent's *global* element-id order —
            // nodal gathers (acceleration, remap momentum) then sum in
            // exactly the order the serial code uses, making distributed
            // Lagrangian runs bitwise-identical to serial.
            let elnd = d
                .els
                .iter()
                .map(|&e| global.elnd[e as usize].map(|n| nd_g2l[n as usize]))
                .collect();
            let stencil = d
                .els
                .iter()
                .map(|&e| {
                    global.face_stencil()[e as usize].map(|en| match en {
                        en if en != STENCIL_BOUNDARY && el_g2l[en as usize] != ABSENT => {
                            el_g2l[en as usize]
                        }
                        _ => STENCIL_BOUNDARY,
                    })
                })
                .collect();
            let mut ndel_off = Vec::with_capacity(d.nds.len() + 1);
            let mut ndel = Vec::with_capacity(d.els.len() * NCORN);
            ndel_off.push(0);
            for &n in &d.nds {
                for &id in global.elements_of_node(n as usize) {
                    let (e, c) = split_corner(id);
                    if el_g2l[e] != ABSENT {
                        ndel.push(el_g2l[e] * NCORN as u32 + c as u32);
                    }
                }
                ndel_off.push(ndel.len() as u32);
            }
            let topology = Topology {
                elnd,
                stencil,
                ndel_off,
                ndel,
                node_bc: d.nds.iter().map(|&n| global.node_bc[n as usize]).collect(),
                region: d.els.iter().map(|&e| global.region[e as usize]).collect(),
            };
            let nodes = d.nds.iter().map(|&n| global.nodes[n as usize]).collect();
            let mesh = Mesh::new(nodes, topology)?;
            debug_assert!(mesh.validate().is_ok(), "{:?}", mesh.validate());

            for &e in &d.els {
                el_g2l[e as usize] = ABSENT;
            }
            for &n in &d.nds {
                nd_g2l[n as usize] = ABSENT;
            }

            subs.push(SubMesh {
                rank: r,
                mesh,
                n_owned_el: d.n_owned,
                n_active_nd: d.n_active,
                el_l2g: d.els.clone(),
                nd_l2g: d.nds.clone(),
                nd_owner: d.nds.iter().map(|&n| nd_owner_g[n as usize]).collect(),
                el_exchange,
                nd_exchange,
            });
        }
        Ok(subs)
    }
}

/// Rank `r`'s exchange schedule for one entity kind, peers ascending.
/// What `r` sends to a peer is what the peer receives from it — the
/// same global ids in the same (global-id) order, so the two ends of a
/// channel agree on buffer layout by construction.
fn schedule(
    r: usize,
    drafts: &[Draft],
    recv_of: impl Fn(&Draft) -> &Transfers,
    g2l: &[u32],
) -> Vec<ExchangeList> {
    let local = |globals: Option<&Vec<u32>>| -> Vec<u32> {
        globals.map_or_else(Vec::new, |ids| {
            ids.iter().map(|&g| g2l[g as usize]).collect()
        })
    };
    let mut lists = Vec::new();
    for (rank, peer) in drafts.iter().enumerate() {
        let (send, recv) = (recv_of(peer).get(&r), recv_of(&drafts[r]).get(&rank));
        if send.is_some() || recv.is_some() {
            lists.push(ExchangeList {
                rank,
                send: local(send),
                recv: local(recv),
            });
        }
    }
    lists
}

/// "Not held by the current rank" in the global→local id tables.
const ABSENT: u32 = u32::MAX;

/// Global ids a rank receives, by sending rank.
type Transfers = BTreeMap<usize, Vec<u32>>;

/// One rank's entities in local order, as global ids.
#[derive(Default)]
struct Draft {
    /// Owned elements, then ghosts; each group sorted.
    els: Vec<u32>,
    n_owned: usize,
    /// Active nodes, then outer nodes; each group sorted.
    nds: Vec<u32>,
    n_active: usize,
    el_recv: Transfers,
    nd_recv: Transfers,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::{generate_rect, RectSpec};
    use crate::topology::Neighbor;

    fn grid(n: usize) -> Mesh {
        generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap()
    }

    /// Stripe owner: left half rank 0, right half rank 1.
    fn stripe_owner(m: &Mesh, n: usize) -> Vec<usize> {
        (0..m.n_elements())
            .map(|e| usize::from(e % n >= n / 2))
            .collect()
    }

    #[test]
    fn owned_elements_partition_globally() {
        let m = grid(4);
        let owner = stripe_owner(&m, 4);
        let subs = SubMeshPlan::build(&m, &owner, 2).unwrap();
        let total: usize = subs.iter().map(|s| s.n_owned_el).sum();
        assert_eq!(total, m.n_elements());
        // Each owned element appears exactly once across ranks.
        let mut seen = vec![false; m.n_elements()];
        for s in &subs {
            for &g in &s.el_l2g[..s.n_owned_el] {
                assert!(!seen[g as usize], "element {g} owned twice");
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn ghost_layer_is_node_complete() {
        // Every element adjacent to an active node must be local.
        let m = grid(6);
        let owner = stripe_owner(&m, 6);
        let subs = SubMeshPlan::build(&m, &owner, 2).unwrap();
        for s in &subs {
            let local_els: std::collections::HashSet<u32> = s.el_l2g.iter().copied().collect();
            for ln in 0..s.n_active_nd {
                let g = s.nd_l2g[ln] as usize;
                for &id in m.elements_of_node(g) {
                    let e = split_corner(id).0 as u32;
                    assert!(
                        local_els.contains(&e),
                        "rank {}: element {e} adjacent to active node {g} missing",
                        s.rank
                    );
                }
            }
        }
    }

    #[test]
    fn local_meshes_validate() {
        let m = grid(5);
        let owner = stripe_owner(&m, 5);
        for s in SubMeshPlan::build(&m, &owner, 2).unwrap() {
            s.mesh.validate().unwrap();
        }
    }

    #[test]
    fn schedules_pair_up() {
        let m = grid(6);
        // 4-way checkerboard-ish: quadrant decomposition.
        let owner: Vec<usize> = (0..m.n_elements())
            .map(|e| {
                let i = e % 6;
                let j = e / 6;
                usize::from(i >= 3) + 2 * usize::from(j >= 3)
            })
            .collect();
        let subs = SubMeshPlan::build(&m, &owner, 4).unwrap();
        for s in &subs {
            for ex in &s.el_exchange {
                let back = subs[ex.rank]
                    .el_exchange
                    .iter()
                    .find(|x| x.rank == s.rank)
                    .unwrap();
                assert_eq!(ex.send.len(), back.recv.len());
                // Global ids of sent elements match global ids of received.
                let sent: Vec<u32> = ex.send.iter().map(|&l| s.el_l2g[l as usize]).collect();
                let recvd: Vec<u32> = back
                    .recv
                    .iter()
                    .map(|&l| subs[ex.rank].el_l2g[l as usize])
                    .collect();
                assert_eq!(sent, recvd, "element exchange order mismatch");
            }
            for ex in &s.nd_exchange {
                let back = subs[ex.rank]
                    .nd_exchange
                    .iter()
                    .find(|x| x.rank == s.rank)
                    .unwrap();
                let sent: Vec<u32> = ex.send.iter().map(|&l| s.nd_l2g[l as usize]).collect();
                let recvd: Vec<u32> = back
                    .recv
                    .iter()
                    .map(|&l| subs[ex.rank].nd_l2g[l as usize])
                    .collect();
                assert_eq!(sent, recvd, "node exchange order mismatch");
            }
        }
    }

    #[test]
    fn node_owner_is_min_adjacent_rank() {
        let m = grid(4);
        let owner = stripe_owner(&m, 4);
        let subs = SubMeshPlan::build(&m, &owner, 2).unwrap();
        // Nodes on the partition seam (x = 0.5 column) must be owned by rank 0.
        let s1 = &subs[1];
        for (ln, &g) in s1.nd_l2g.iter().enumerate() {
            let x = m.nodes[g as usize].x;
            if (x - 0.5).abs() < 1e-12 {
                assert_eq!(s1.nd_owner[ln], 0, "seam node {g} should belong to rank 0");
            }
        }
    }

    #[test]
    fn neighbour_ranks_is_sorted_union_of_schedules() {
        let m = grid(6);
        let owner: Vec<usize> = (0..m.n_elements())
            .map(|e| {
                let i = e % 6;
                let j = e / 6;
                usize::from(i >= 3) + 2 * usize::from(j >= 3)
            })
            .collect();
        let subs = SubMeshPlan::build(&m, &owner, 4).unwrap();
        for s in &subs {
            let links = s.neighbour_ranks();
            assert!(links.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            assert!(!links.contains(&s.rank), "never a self-link");
            for ex in s.el_exchange.iter().chain(&s.nd_exchange) {
                assert!(links.contains(&ex.rank));
            }
        }
        // Quadrants: every rank neighbours the other three (corner
        // contact counts — node-complete ghost layers see it).
        assert_eq!(subs[0].neighbour_ranks(), vec![1, 2, 3]);
    }

    /// The overlap masks' defining properties, checked exhaustively on a
    /// 4-rank quadrant decomposition: interior entities are untouched by
    /// any recv list through their kernel stencils, and the remap
    /// pre-post sets cover everything the post-remap pack reads.
    #[test]
    fn overlap_sets_isolate_halo_dependencies() {
        let m = grid(6);
        let owner: Vec<usize> = (0..m.n_elements())
            .map(|e| {
                let i = e % 6;
                let j = e / 6;
                usize::from(i >= 3) + 2 * usize::from(j >= 3)
            })
            .collect();
        let subs = SubMeshPlan::build(&m, &owner, 4).unwrap();
        for s in &subs {
            let o = s.overlap_sets();
            // The lists as masks over their ranges (an id outside its
            // range fails the indexing).
            let mask = |ids: &[u32], n: usize| {
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "not ascending");
                let mut mask = vec![false; n];
                for &i in ids {
                    mask[i as usize] = true;
                }
                mask
            };
            let el_boundary = mask(&o.el_boundary_ids, s.n_owned_el);
            let nd_boundary = mask(&o.nd_boundary_ids, s.n_active_nd);
            let remap_pre_el = mask(&o.remap_pre_el_ids, s.mesh.n_elements());
            let remap_pre_nd = mask(&o.remap_pre_nd_ids, s.n_active_nd);
            // A distributed rank must have real boundary *and* real
            // interior on this mesh size.
            let interior = o.n_interior_el(s.n_owned_el);
            assert!(interior > 0, "rank {} all boundary", s.rank);
            assert_eq!(interior, el_boundary.iter().filter(|&&b| !b).count());
            assert!(!o.el_boundary_ids.is_empty());
            assert!(!o.nd_boundary_ids.is_empty());

            let mut nd_recv = vec![false; s.mesh.n_nodes()];
            for ex in &s.nd_exchange {
                for &n in &ex.recv {
                    nd_recv[n as usize] = true;
                }
            }
            let mut el_recv = vec![false; s.mesh.n_elements()];
            for ex in &s.el_exchange {
                for &e in &ex.recv {
                    el_recv[e as usize] = true;
                }
            }
            // Interior elements: stencil free of recv'd entities.
            for e in 0..s.n_owned_el {
                if el_boundary[e] {
                    continue;
                }
                assert!(s.mesh.elnd[e].iter().all(|&n| !nd_recv[n as usize]));
                for nb in s.mesh.neighbors(e) {
                    if let Neighbor::Element(en) = nb {
                        let en = en as usize;
                        assert!(!el_recv[en], "interior el {e} beside ghost {en}");
                        assert!(s.mesh.elnd[en].iter().all(|&n| !nd_recv[n as usize]));
                    }
                }
            }
            // Interior nodes: adjacency entirely owned.
            for n in 0..s.n_active_nd {
                if !nd_boundary[n] {
                    for &id in s.mesh.elements_of_node(n) {
                        assert!(s.owns_element(split_corner(id).0));
                    }
                }
            }
            // Remap pre-post sets cover the pack's reads: send elements,
            // send nodes, and the full adjacency of every send node.
            for ex in &s.el_exchange {
                for &e in &ex.send {
                    assert!(remap_pre_el[e as usize]);
                }
            }
            for ex in &s.nd_exchange {
                for &n in &ex.send {
                    assert!(remap_pre_nd[n as usize]);
                    for &id in s.mesh.elements_of_node(n as usize) {
                        assert!(remap_pre_el[split_corner(id).0]);
                    }
                }
            }
            // And the complement invariant the deferred element sweep
            // relies on: no element outside remap_pre_el touches a node
            // in remap_pre_nd.
            for e in 0..s.mesh.n_elements() {
                if !remap_pre_el[e] {
                    for &n in &s.mesh.elnd[e] {
                        let n = n as usize;
                        assert!(
                            n >= s.n_active_nd || !remap_pre_nd[n],
                            "deferred element {e} adjacent to early node {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_rank_overlap_sets_are_all_interior() {
        let m = grid(4);
        let subs = SubMeshPlan::build(&m, &vec![0; m.n_elements()], 1).unwrap();
        let o = subs[0].overlap_sets();
        assert_eq!(o.n_interior_el(m.n_elements()), m.n_elements());
        assert_eq!(o.n_interior_nd(m.n_nodes()), m.n_nodes());
        assert!(o.remap_pre_el_ids.is_empty());
        assert!(o.remap_pre_nd_ids.is_empty());
    }

    #[test]
    fn empty_rank_rejected() {
        let m = grid(3);
        let owner = vec![0; m.n_elements()];
        assert!(SubMeshPlan::build(&m, &owner, 2).is_err());
    }

    #[test]
    fn wrong_owner_length_rejected() {
        let m = grid(3);
        assert!(SubMeshPlan::build(&m, &[0, 1], 2).is_err());
    }

    #[test]
    fn out_of_range_owner_rejected() {
        let m = grid(3);
        let owner = vec![5; m.n_elements()];
        assert!(SubMeshPlan::build(&m, &owner, 2).is_err());
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let m = grid(4);
        let owner = vec![0; m.n_elements()];
        let subs = SubMeshPlan::build(&m, &owner, 1).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].n_ghost_el(), 0);
        assert!(subs[0].el_exchange.is_empty());
        assert!(subs[0].nd_exchange.is_empty());
        assert_eq!(subs[0].mesh.n_elements(), m.n_elements());
    }
}
