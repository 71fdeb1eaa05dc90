//! Phase-aggregated halo exchange: one message per neighbour per phase.
//!
//! The reference Typhon moves every quantity a communication *phase*
//! needs in a single packed buffer per neighbouring process — the
//! cluster cost model (see [`crate::stats`]) charges per message as well
//! as per byte, so message count is a first-order term. A [`HaloPlan`]
//! holds one rank's neighbour links and moves each phase as exactly
//! **one** send and **one** receive per link.
//!
//! ## Packed-buffer layout
//!
//! Nothing is registered: the [`Binding`]s a phase is posted and
//! completed with *are* its wire format. Each binding names the local
//! index space of its field ([`Entity`]) and the field ([`FieldMut`]):
//!
//! | [`FieldMut`]  | entity payload                   | doubles per entry |
//! |---------------|----------------------------------|-------------------|
//! | `Scalar`      | `f64`                            | 1                 |
//! | `Vec2`        | [`Vec2`]                         | 2 (`x`, `y`)      |
//! | `Corner4`     | `[f64; 4]`                       | 4 (corner order)  |
//! | `CornerPair`  | `[f64; 4]` of `x` and one of `y` | 8 (`x`,`y` × 4)   |
//!
//! The buffer for neighbour `r` is the bindings' entries concatenated
//! **in binding order**; within a binding, entries follow the link's
//! index list for its entity, which both ends keep sorted by global id.
//! Every rank describes a phase with the same bindings in the same order
//! (one function names them), so sender and receiver agree on the
//! layout without exchanging any metadata. A link's send size and each
//! binding's offset into a received payload are running sums over the
//! bindings, taken as the exchange runs: no layout table, no allocation.
//!
//! Ranks whose element or node lists are empty in one direction still
//! exchange one (possibly empty) message per phase — that keeps the
//! invariant `messages_sent == phase executions × neighbour links`
//! exact, which the accounting tests and the cost model rely on.
//!
//! Payload buffers come from the [`RankCtx`] recycle pool and are
//! returned to it after unpacking, so steady-state stepping performs no
//! allocation in the exchange path.
//!
//! ## Split-phase execution (communication/computation overlap)
//!
//! A phase moves in two steps:
//!
//! 1. [`HaloPlan::post`] packs every binding and sends one message per
//!    neighbour immediately, returning a [`PendingPhase`] ticket;
//! 2. [`HaloPlan::complete`] receives and unpacks one message per
//!    neighbour, consuming the ticket.
//!
//! Between the two calls the caller is free to compute anything that
//! does not *read* an entity in a recv list of the phase (interior
//! work) — the messages are in flight meanwhile, and any time the
//! peers' payloads are late shows up as `recv_wait_seconds` in the
//! phase's [`crate::PhaseStats`] instead of stalling useful work. The
//! wall time the ticket stayed open is recorded as
//! `overlap_window_seconds`. Each post consumes a tag, so every rank
//! must issue its posts in the same global order; completes may drain
//! in any order (a payload waits in its receiver's mailbox until taken).

use std::time::Instant;

use bookleaf_mesh::submesh::ExchangeList;
use bookleaf_util::{CommError, Vec2};

use crate::runtime::RankCtx;

/// Which local index space a binding's field lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    /// Element-indexed (uses the element exchange schedule).
    Element,
    /// Node-indexed (uses the node exchange schedule).
    Node,
}

/// A mutable field a phase moves; its variant fixes how many doubles
/// each entry takes on the wire.
pub enum FieldMut<'a> {
    /// One double per entry.
    Scalar(&'a mut [f64]),
    /// A [`Vec2`] per entry: `x`, `y`.
    Vec2(&'a mut [Vec2]),
    /// Four doubles per entry (per-corner element data), in corner order.
    Corner4(&'a mut [[f64; 4]]),
    /// Four vectors per entry held as a *pair* of component rows (x, y)
    /// — the corner-force layout `HydroState` uses — packed with no
    /// staging copies: per entry, `(x, y)` interleaved corner by corner.
    CornerPair(&'a mut [[f64; 4]], &'a mut [[f64; 4]]),
}

impl FieldMut<'_> {
    /// Entries in the bound slice.
    fn len(&self) -> usize {
        match self {
            FieldMut::Scalar(f) => f.len(),
            FieldMut::Vec2(f) => f.len(),
            FieldMut::Corner4(f) => f.len(),
            FieldMut::CornerPair(fx, fy) => fx.len().min(fy.len()),
        }
    }

    /// Doubles per entry on the wire.
    fn width(&self) -> usize {
        match self {
            FieldMut::Scalar(_) => 1,
            FieldMut::Vec2(_) => 2,
            FieldMut::Corner4(_) => 4,
            FieldMut::CornerPair(..) => 8,
        }
    }
}

/// One field of a phase and the index space it lives in. A phase is an
/// ordered list of bindings, and that list is its wire format.
pub type Binding<'a> = (Entity, FieldMut<'a>);

/// One neighbour link: the index lists agreed with one peer rank, each
/// pair indexed by `Entity as usize`.
#[derive(Debug)]
struct Link {
    rank: usize,
    send: [Vec<u32>; 2],
    recv: [Vec<u32>; 2],
}

/// Doubles `fields` take along `lists` (one link's send or recv lists).
fn doubles(lists: &[Vec<u32>; 2], fields: &[Binding<'_>]) -> usize {
    fields
        .iter()
        .map(|(entity, field)| lists[*entity as usize].len() * field.width())
        .sum()
}

/// The `(send, recv)` lists `lists` holds for `rank`, moved out; empty
/// when it has none.
fn take(lists: &mut Vec<ExchangeList>, rank: usize) -> (Vec<u32>, Vec<u32>) {
    match lists.iter().position(|x| x.rank == rank) {
        Some(i) => {
            let x = lists.swap_remove(i);
            (x.send, x.recv)
        }
        None => Default::default(),
    }
}

/// The exchange plan of one rank: its neighbour links. See the module
/// docs for the wire format.
#[derive(Debug)]
pub struct HaloPlan {
    links: Vec<Link>,
    /// Minimum length a field must have, by `Entity as usize`: the
    /// largest index any list of that entity touches, +1.
    min_len: [usize; 2],
}

impl HaloPlan {
    /// A plan over a submesh's element and node schedules, whose lists
    /// it keeps. The neighbour set is the union of both schedules' peer
    /// ranks, sorted ascending (identical on every rank by construction)
    /// — computed by [`bookleaf_mesh::neighbour_union`], the same helper
    /// `SubMesh::neighbour_ranks` uses, so the plan's link set cannot
    /// drift from the mesh layer's.
    #[must_use]
    pub fn new(el: Vec<ExchangeList>, nd: Vec<ExchangeList>) -> Self {
        let ranks = bookleaf_mesh::neighbour_union(&el, &nd);
        let mut lists = [el, nd];
        let links: Vec<Link> = ranks
            .into_iter()
            .map(|rank| {
                let [(el_send, el_recv), (nd_send, nd_recv)] =
                    lists.each_mut().map(|l| take(l, rank));
                Link {
                    rank,
                    send: [el_send, nd_send],
                    recv: [el_recv, nd_recv],
                }
            })
            .collect();
        let min_len = [0, 1].map(|k| {
            links
                .iter()
                .flat_map(|l| l.send[k].iter().chain(&l.recv[k]))
                .map(|&i| i as usize + 1)
                .max()
                .unwrap_or(0)
        });
        HaloPlan { links, min_len }
    }

    /// Number of neighbour links (= messages sent per phase).
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Refuse a field bound to the wrong index space (or simply too
    /// short) up front, instead of shipping garbage or panicking deep
    /// in `pack`.
    fn check(&self, phase: &str, fields: &[Binding<'_>]) {
        for (i, (entity, field)) in fields.iter().enumerate() {
            let need = self.min_len[*entity as usize];
            assert!(
                field.len() >= need,
                "phase {phase:?}: binding {i} ({entity:?}) is a field of length {} \
                 but the schedules index up to {need} — wrong index space?",
                field.len()
            );
        }
    }

    /// Pack `fields` and send one buffer per neighbour link under
    /// `phase`, without waiting for anything. The returned
    /// [`PendingPhase`] ticket must be handed to [`HaloPlan::complete`]
    /// (with the same bindings) before the next use of any recv-list
    /// entity.
    ///
    /// Consumes one tag; every rank must post its phases in the same
    /// global order, each with the same bindings.
    ///
    /// # Errors
    ///
    /// A [`CommError`] when a send cannot be delivered (dead peer, or
    /// this rank's own scheduled kill has fired).
    ///
    /// # Panics
    ///
    /// If a field is shorter than its entity's lists index.
    pub fn post(
        &self,
        ctx: &RankCtx,
        phase: &'static str,
        fields: &[Binding<'_>],
    ) -> std::result::Result<PendingPhase, CommError> {
        self.check(phase, fields);
        let tag = ctx.next_tag();
        for link in &self.links {
            let size = doubles(&link.send, fields);
            let mut buf = ctx.take_buffer(size);
            for (entity, field) in fields {
                pack(&mut buf, &link.send[*entity as usize], field);
            }
            debug_assert_eq!(buf.len(), size);
            ctx.send_in_phase(link.rank, tag, buf, phase)?;
        }
        Ok(PendingPhase {
            phase,
            tag,
            posted: Instant::now(),
        })
    }

    /// Receive and unpack one buffer per neighbour link for a phase
    /// posted earlier, consuming its ticket. Blocked time is attributed
    /// to the phase's `recv_wait_seconds`; the time the ticket stayed
    /// open is recorded as its `overlap_window_seconds`.
    ///
    /// # Errors
    ///
    /// A [`CommError`] when a receive times out, a payload fails its
    /// checksum, or a received payload is not the length `fields` take
    /// along the link's recv lists ([`CommError::Malformed`] — the peer
    /// packed other bindings; nothing of that payload is unpacked).
    ///
    /// # Panics
    ///
    /// If a field is shorter than its entity's lists index.
    pub fn complete(
        &self,
        ctx: &RankCtx,
        pending: PendingPhase,
        fields: &mut [Binding<'_>],
    ) -> std::result::Result<(), CommError> {
        let PendingPhase { phase, tag, posted } = pending;
        self.check(phase, fields);
        if !self.links.is_empty() {
            ctx.record_overlap_window(phase, posted.elapsed().as_secs_f64());
        }
        for link in &self.links {
            let payload = ctx.recv_in_phase(link.rank, tag, phase)?;
            let expected = doubles(&link.recv, fields);
            if payload.len() != expected {
                return Err(CommError::Malformed {
                    from: link.rank,
                    tag,
                    expected,
                    got: payload.len(),
                });
            }
            let mut rest = payload.as_slice();
            for (entity, field) in fields.iter_mut() {
                rest = unpack(rest, &link.recv[*entity as usize], field);
            }
            ctx.recycle_buffer(payload);
        }
        Ok(())
    }
}

/// Ticket for a posted-but-not-completed phase: proof that the sends are
/// in flight and a reminder that the receives still have to be drained.
/// Not `Clone` — each post is completed exactly once.
#[must_use = "a posted phase must be completed, or its receives are never drained"]
#[derive(Debug)]
pub struct PendingPhase {
    phase: &'static str,
    tag: u64,
    /// When the sends were posted (for the overlap-window attribution).
    posted: Instant,
}

/// Append `field`'s entries along `idx` to `buf`.
fn pack(buf: &mut Vec<f64>, idx: &[u32], field: &FieldMut<'_>) {
    match field {
        FieldMut::Scalar(f) => {
            buf.extend(idx.iter().map(|&l| f[l as usize]));
        }
        FieldMut::Vec2(f) => {
            for &l in idx {
                let v = f[l as usize];
                buf.push(v.x);
                buf.push(v.y);
            }
        }
        FieldMut::Corner4(f) => {
            for &l in idx {
                buf.extend_from_slice(&f[l as usize]);
            }
        }
        FieldMut::CornerPair(fx, fy) => {
            for &l in idx {
                let (rx, ry) = (&fx[l as usize], &fy[l as usize]);
                for c in 0..4 {
                    buf.push(rx[c]);
                    buf.push(ry[c]);
                }
            }
        }
    }
}

/// Scatter the head of `payload` into `field` along `idx`; returns the
/// rest, where the next binding's entries start.
fn unpack<'p>(payload: &'p [f64], idx: &[u32], field: &mut FieldMut<'_>) -> &'p [f64] {
    let (head, rest) = payload.split_at(idx.len() * field.width());
    match field {
        FieldMut::Scalar(f) => {
            for (&l, &v) in idx.iter().zip(head) {
                f[l as usize] = v;
            }
        }
        FieldMut::Vec2(f) => {
            for (&l, v) in idx.iter().zip(head.chunks_exact(2)) {
                f[l as usize] = Vec2::new(v[0], v[1]);
            }
        }
        FieldMut::Corner4(f) => {
            for (&l, v) in idx.iter().zip(head.chunks_exact(4)) {
                f[l as usize].copy_from_slice(v);
            }
        }
        FieldMut::CornerPair(fx, fy) => {
            for (&l, v) in idx.iter().zip(head.chunks_exact(8)) {
                for c in 0..4 {
                    fx[l as usize][c] = v[2 * c];
                    fy[l as usize][c] = v[2 * c + 1];
                }
            }
        }
    }
    rest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Typhon;
    use bookleaf_mesh::{generate_rect, RectSpec, SubMesh, SubMeshPlan};

    /// 6x6 grid, two vertical stripes.
    fn two_stripes() -> Vec<SubMesh> {
        let m = generate_rect(&RectSpec::unit_square(6), |_| 0).unwrap();
        let owner: Vec<usize> = (0..m.n_elements())
            .map(|e| usize::from(e % 6 >= 3))
            .collect();
        SubMeshPlan::build(&m, &owner, 2).unwrap()
    }

    fn plan_of(sub: &SubMesh) -> HaloPlan {
        HaloPlan::new(sub.el_exchange.clone(), sub.nd_exchange.clone())
    }

    /// Post `fields` under `phase` and complete them at once.
    fn exchange(
        plan: &HaloPlan,
        ctx: &RankCtx,
        phase: &'static str,
        fields: &mut [Binding<'_>],
    ) -> std::result::Result<(), CommError> {
        let pending = plan.post(ctx, phase, fields)?;
        plan.complete(ctx, pending, fields)
    }

    /// The four-binding "state" phase of these tests: one of each
    /// field shape, node- and element-indexed.
    struct StateFields {
        nd: Vec<Vec2>,
        sc: Vec<f64>,
        c4: Vec<[f64; 4]>,
        cx: Vec<[f64; 4]>,
        cy: Vec<[f64; 4]>,
    }

    impl StateFields {
        fn zeros(sub: &SubMesh) -> Self {
            let ne = sub.mesh.n_elements();
            StateFields {
                nd: vec![Vec2::ZERO; sub.mesh.n_nodes()],
                sc: vec![0.0; ne],
                c4: vec![[0.0; 4]; ne],
                cx: vec![[0.0; 4]; ne],
                cy: vec![[0.0; 4]; ne],
            }
        }

        /// The bindings of a phase whose fields take `widths` doubles
        /// per entry, in that order: width 2 is the node `Vec2` field,
        /// 1, 4 and 8 the element scalar, `Corner4` and `CornerPair`
        /// fields. Each width at most once.
        fn bindings(&mut self, widths: &[usize]) -> Vec<Binding<'_>> {
            let (mut nd, mut sc, mut c4) =
                (Some(&mut self.nd), Some(&mut self.sc), Some(&mut self.c4));
            let mut pair = Some((&mut self.cx, &mut self.cy));
            widths
                .iter()
                .map(|w| match w {
                    2 => (Entity::Node, FieldMut::Vec2(nd.take().unwrap())),
                    1 => (Entity::Element, FieldMut::Scalar(sc.take().unwrap())),
                    4 => (Entity::Element, FieldMut::Corner4(c4.take().unwrap())),
                    8 => {
                        let (cx, cy) = pair.take().unwrap();
                        (Entity::Element, FieldMut::CornerPair(cx, cy))
                    }
                    w => panic!("no field takes {w} doubles per entry"),
                })
                .collect()
        }

        fn is_zero(&self) -> bool {
            self.nd.iter().all(|v| *v == Vec2::ZERO)
                && self.sc.iter().all(|&v| v == 0.0)
                && [&self.c4, &self.cx, &self.cy]
                    .iter()
                    .all(|f| f.iter().flatten().all(|&v| v == 0.0))
        }

        fn exchange(&mut self, plan: &HaloPlan, ctx: &RankCtx) {
            exchange(plan, ctx, "state", &mut self.bindings(&[2, 1, 4, 8])).unwrap();
        }
    }

    #[test]
    fn aggregated_phase_moves_every_binding_in_one_message() {
        let subs = two_stripes();
        let out = Typhon::run(2, |ctx| {
            let sub = &subs[ctx.rank()];
            let plan = plan_of(sub);
            // Owned entries carry their global id; ghosts are poisoned.
            let mut f = StateFields::zeros(sub);
            for n in 0..sub.mesh.n_nodes() {
                let g = sub.nd_l2g[n] as f64;
                f.nd[n] = if sub.owns_node(n) {
                    Vec2::new(g, 2.0 * g)
                } else {
                    Vec2::new(-1.0, -1.0)
                };
            }
            for e in 0..sub.mesh.n_elements() {
                let g = if sub.owns_element(e) {
                    sub.el_l2g[e] as f64
                } else {
                    f64::NAN
                };
                f.sc[e] = g;
                f.c4[e] = [g, g + 0.25, g + 0.5, g + 0.75];
                f.cx[e] = std::array::from_fn(|c| g + c as f64);
                f.cy[e] = std::array::from_fn(|c| g - c as f64);
            }

            f.exchange(&plan, ctx);

            let nd_ok = f.nd.iter().enumerate().all(|(n, v)| {
                let g = sub.nd_l2g[n] as f64;
                *v == Vec2::new(g, 2.0 * g)
            });
            let el_ok = (0..sub.mesh.n_elements()).all(|e| {
                let g = sub.el_l2g[e] as f64;
                f.sc[e] == g
                    && f.c4[e] == [g, g + 0.25, g + 0.5, g + 0.75]
                    && (0..4).all(|c| f.cx[e][c] == g + c as f64 && f.cy[e][c] == g - c as f64)
            });
            (nd_ok && el_ok, ctx.stats(), plan.n_links())
        })
        .unwrap();
        for (ok, stats, n_links) in out {
            assert!(ok, "ghost data wrong after aggregated exchange");
            assert_eq!(n_links, 1, "two stripes share one link");
            // ONE message per neighbour for the whole four-binding phase.
            assert_eq!(stats.messages_sent, n_links as u64);
            let ph = stats.phase("state").unwrap();
            assert_eq!(ph.messages_sent, n_links as u64);
            assert_eq!(ph.doubles_sent, stats.doubles_sent);
        }
    }

    #[test]
    #[should_panic(expected = "wrong index space")]
    fn entity_misbinding_is_rejected() {
        let subs = two_stripes();
        let sub = &subs[0];
        let plan = plan_of(sub);
        // Bound node-indexed, but to an element-sized field: the node
        // schedules index past the element count on this decomposition,
        // so post must refuse up front.
        assert!(sub.mesh.n_elements() < sub.mesh.n_nodes());
        let wrong = vec![0.0; sub.mesh.n_elements()];
        Typhon::run(1, |ctx| {
            let mut wrong = wrong.clone();
            let _ = plan.post(ctx, "p", &[(Entity::Node, FieldMut::Scalar(&mut wrong))]);
        })
        .unwrap();
    }

    /// A peer payload of any length but the one the phase's bindings
    /// take along the link's recv lists — every length from empty to
    /// twice that, for each field width and for a two-binding phase —
    /// is a typed `Malformed` naming the peer, the tag and both lengths
    /// (never a panic), and nothing of it is unpacked. The right length
    /// unpacks as sent.
    #[test]
    fn payload_of_the_wrong_length_is_malformed() {
        let subs = two_stripes();
        for widths in [&[1][..], &[2], &[4], &[8], &[1, 2]] {
            let expected = doubles(
                &plan_of(&subs[0]).links[0].recv,
                &StateFields::zeros(&subs[0]).bindings(widths),
            );
            for len in 0..=2 * expected {
                let payload: Vec<f64> = (1..=len).map(|i| i as f64).collect();
                let out = Typhon::run(2, |ctx| {
                    let sub = &subs[ctx.rank()];
                    if ctx.rank() == 1 {
                        // The peer draws the phase's tag and sends on it
                        // `len` doubles.
                        let tag = ctx.next_tag();
                        ctx.send(0, tag, payload.clone()).unwrap();
                        ctx.barrier().unwrap(); // alive until rank 0 is done
                        return None;
                    }
                    let plan = plan_of(sub);
                    let mut f = StateFields::zeros(sub);
                    let mut fields = f.bindings(widths);
                    let pending = plan.post(ctx, "p", &fields).unwrap();
                    let result = plan.complete(ctx, pending, &mut fields);
                    let mut unpacked = Vec::new();
                    for (entity, field) in &fields {
                        pack(&mut unpacked, &plan.links[0].recv[*entity as usize], field);
                    }
                    drop(fields);
                    ctx.barrier().unwrap();
                    Some((result, unpacked, f.is_zero()))
                })
                .unwrap();
                let (result, unpacked, untouched) = out[0].clone().unwrap();
                if len == expected {
                    assert_eq!(result, Ok(()), "{widths:?}");
                    assert_eq!(unpacked, payload, "{widths:?}: unpacked other than sent");
                } else {
                    assert_eq!(
                        result,
                        Err(CommError::Malformed {
                            from: 1,
                            tag: 0, // the first tag either rank draws
                            expected,
                            got: len,
                        }),
                        "{widths:?}"
                    );
                    assert!(untouched, "{widths:?}: a payload of {len} was unpacked");
                }
            }
        }
    }

    /// Split post/complete moves exactly the same data even with two
    /// phases in flight at once and completes drained in reverse order.
    #[test]
    fn split_post_complete_with_two_phases_in_flight() {
        let subs = two_stripes();
        let out = Typhon::run(2, |ctx| {
            let sub = &subs[ctx.rank()];
            let plan = plan_of(sub);

            let mut sc: Vec<f64> = (0..sub.mesh.n_elements())
                .map(|e| {
                    if sub.owns_element(e) {
                        sub.el_l2g[e] as f64
                    } else {
                        -1.0
                    }
                })
                .collect();
            let mut nd: Vec<Vec2> = (0..sub.mesh.n_nodes())
                .map(|n| {
                    if sub.owns_node(n) {
                        Vec2::new(sub.nd_l2g[n] as f64, 0.5)
                    } else {
                        Vec2::new(-1.0, -1.0)
                    }
                })
                .collect();

            let mut fa = [(Entity::Element, FieldMut::Scalar(&mut sc))];
            let mut fb = [(Entity::Node, FieldMut::Vec2(&mut nd))];
            let ta = plan.post(ctx, "a", &fa).unwrap();
            let tb = plan.post(ctx, "b", &fb).unwrap();
            // Complete in reverse post order: the mailbox sorts it out.
            plan.complete(ctx, tb, &mut fb).unwrap();
            plan.complete(ctx, ta, &mut fa).unwrap();

            let sc_ok = sc
                .iter()
                .enumerate()
                .all(|(e, &v)| v == sub.el_l2g[e] as f64);
            let nd_ok = nd
                .iter()
                .enumerate()
                .all(|(n, v)| *v == Vec2::new(sub.nd_l2g[n] as f64, 0.5));
            (sc_ok && nd_ok, ctx.stats(), plan.n_links())
        })
        .unwrap();
        for (ok, stats, n_links) in out {
            assert!(ok, "split exchange corrupted ghost data");
            assert_eq!(stats.messages_sent, 2 * n_links as u64);
            // The tickets stayed open across real work: a window was
            // recorded for each phase.
            assert!(stats.overlap_window_seconds > 0.0);
            for name in ["a", "b"] {
                let p = stats.phase(name).unwrap();
                assert_eq!(p.messages_sent, n_links as u64);
                assert!(p.overlap_window_seconds >= 0.0);
            }
        }
    }

    /// Steady-state phase execution recycles payload buffers across
    /// phases instead of allocating: after a warm-up round the pool
    /// level is stable and non-empty.
    #[test]
    fn phases_reuse_pooled_buffers() {
        let subs = two_stripes();
        let out = Typhon::run(2, |ctx| {
            let sub = &subs[ctx.rank()];
            let plan = plan_of(sub);
            let mut f = StateFields::zeros(sub);
            f.exchange(&plan, ctx);
            ctx.barrier().unwrap(); // all first-round payloads delivered & recycled
            let after_warmup = ctx.pool_len();
            for _ in 0..5 {
                f.exchange(&plan, ctx);
                ctx.barrier().unwrap();
            }
            (after_warmup, ctx.pool_len())
        })
        .unwrap();
        for (warm, steady) in out {
            assert!(warm > 0, "nothing recycled after the first phase");
            assert!(
                steady <= warm + 1,
                "pool kept growing across phases: {warm} -> {steady}"
            );
        }
    }

    #[test]
    fn single_rank_plan_is_empty_and_silent() {
        let m = generate_rect(&RectSpec::unit_square(3), |_| 0).unwrap();
        let subs = SubMeshPlan::build(&m, &vec![0; m.n_elements()], 1).unwrap();
        let sub = &subs[0];
        let plan = plan_of(sub);
        assert_eq!(plan.n_links(), 0);
        let out = Typhon::run(1, |ctx| {
            StateFields::zeros(sub).exchange(&plan, ctx);
            ctx.stats().messages_sent
        })
        .unwrap();
        assert_eq!(out[0], 0);
    }
}
