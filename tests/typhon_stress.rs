//! Stress tests for the Typhon runtime: many ranks, dense traffic,
//! interleaved collectives, asymmetric topologies — the failure modes of
//! real message-passing layers (tag confusion, deadlock, lost messages)
//! must not exist.

use bookleaf::mesh::{generate_rect, RectSpec, SubMesh, SubMeshPlan};
use bookleaf::typhon::{Entity, FieldMut, HaloPlan, Typhon};
use bookleaf::util::Vec2;

#[test]
fn all_to_all_storm_with_interleaved_reductions() {
    // Every rank sends a distinct payload to every other rank each round,
    // with a reduction between rounds; receives happen in reverse rank
    // order to force the out-of-order mailbox path.
    let n = 8;
    let rounds = 25;
    let out = Typhon::run(n, |ctx| {
        let me = ctx.rank();
        let mut checksum = 0.0;
        for round in 0..rounds {
            let tag = ctx.next_tag();
            for to in 0..n {
                if to != me {
                    ctx.send(to, tag, vec![(me * 1000 + round) as f64]).unwrap();
                }
            }
            for from in (0..n).rev() {
                if from != me {
                    let got = ctx.recv(from, tag).unwrap();
                    assert_eq!(got[0], (from * 1000 + round) as f64);
                    checksum += got[0];
                }
            }
            // A reduction mid-storm must not cross wires with the p2p tags.
            let s = ctx.allreduce_sum(1.0).unwrap();
            assert_eq!(s, n as f64);
        }
        checksum
    })
    .unwrap();
    // Every rank received the same set of payloads, minus its own
    // contribution (for rank 0 that is `0 * 1000 + r`, i.e. just `r`).
    let expect: f64 = (0..8)
        .flat_map(|from| (0..rounds).map(move |r| (from * 1000 + r) as f64))
        .sum::<f64>()
        - (0..rounds).map(|r| r as f64).sum::<f64>();
    assert_eq!(out[0], expect);
    for w in out.windows(2) {
        // Checksums differ only by each rank's own excluded contribution.
        assert!(w[0] != w[1] || n == 1);
    }
}

#[test]
fn large_payloads_survive() {
    let out = Typhon::run(2, |ctx| {
        let tag = ctx.next_tag();
        if ctx.rank() == 0 {
            let big: Vec<f64> = (0..1_000_000).map(|i| i as f64).collect();
            ctx.send(1, tag, big).unwrap();
            0.0
        } else {
            let got = ctx.recv(0, tag).unwrap();
            assert_eq!(got.len(), 1_000_000);
            got[999_999]
        }
    })
    .unwrap();
    assert_eq!(out[1], 999_999.0);
}

#[test]
fn many_ranks_reduce_correctly() {
    let n = 16;
    let out = Typhon::run(n, |ctx| {
        let mut mins = Vec::new();
        for i in 0..50 {
            mins.push(
                ctx.allreduce_min((ctx.rank() as f64 - i as f64).abs())
                    .unwrap(),
            );
        }
        mins
    })
    .unwrap();
    for r in &out {
        for (i, &m) in r.iter().enumerate() {
            // min over ranks of |rank - i| is 0 while i < n, else i - (n-1).
            let expect = if i < n { 0.0 } else { (i + 1 - n) as f64 };
            assert_eq!(m, expect, "round {i}");
        }
    }
}

/// A 4-rank L-shaped/unequal partition of a 6x6 grid: the bottom half is
/// split evenly at i = 3, the top half unevenly at i = 1, so the rank
/// neighbour sets differ (ranks 0 and 3 have three links, 1 and 2 two).
///
/// ```text
///   2 | 3 3 3 3 3       (j >= 3)
///   --+-----------
///   0 0 0 | 1 1 1       (j <  3)
/// ```
fn l_shaped_submeshes() -> Vec<SubMesh> {
    let n = 6;
    let m = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
    let owner: Vec<usize> = (0..m.n_elements())
        .map(|e| {
            let i = e % n;
            let j = e / n;
            if j < 3 {
                usize::from(i >= 3)
            } else if i < 1 {
                2
            } else {
                3
            }
        })
        .collect();
    SubMeshPlan::build(&m, &owner, 4).unwrap()
}

#[test]
fn l_shaped_partition_has_unequal_neighbour_sets() {
    let subs = l_shaped_submeshes();
    let links: Vec<Vec<usize>> = subs.iter().map(SubMesh::neighbour_ranks).collect();
    // The asymmetry is the point of this topology.
    assert_eq!(links[0], vec![1, 2, 3]);
    assert_eq!(links[1], vec![0, 3]);
    assert_eq!(links[2], vec![0, 3]);
    assert_eq!(links[3], vec![0, 1, 2]);
}

/// How a round of [`l_shaped_rounds`] drains its two phases.
#[derive(Debug, Clone, Copy)]
enum Completion {
    /// Each phase completes before the next is posted.
    PhaseByPhase,
    /// Both phases are posted, then completed in reverse order: two
    /// exchanges in flight at once.
    BothPostedThenReversed,
}

/// Many rounds of two multi-binding phases through the aggregated plan
/// on the L-shaped topology, drained in `order`. Ghost data is verified
/// every round, and `messages_sent == phase executions × neighbour
/// links` holds exactly, per rank and per phase, despite the unequal
/// neighbour sets: how the receives drain never changes what flows.
fn l_shaped_rounds(order: Completion) {
    let subs = l_shaped_submeshes();
    let rounds = 25;
    let out = Typhon::run(4, |ctx| {
        let sub = &subs[ctx.rank()];
        let plan = HaloPlan::new(sub.el_exchange.clone(), sub.nd_exchange.clone());

        let ne = sub.mesh.n_elements();
        let nn = sub.mesh.n_nodes();
        let mut ok = true;
        for round in 0..rounds {
            let salt = 10_000.0 * round as f64;
            let mut sc: Vec<f64> = (0..ne)
                .map(|e| {
                    if sub.owns_element(e) {
                        sub.el_l2g[e] as f64 + salt
                    } else {
                        -1.0
                    }
                })
                .collect();
            let mut nd: Vec<Vec2> = (0..nn)
                .map(|n| {
                    if sub.owns_node(n) {
                        Vec2::new(sub.nd_l2g[n] as f64 + salt, round as f64)
                    } else {
                        Vec2::new(-1.0, -1.0)
                    }
                })
                .collect();
            // Owned: global id + salt, plus `step` per corner.
            let corner = |e: usize, step: f64| -> [f64; 4] {
                if sub.owns_element(e) {
                    let g = sub.el_l2g[e] as f64 + salt;
                    std::array::from_fn(|c| g + step * c as f64)
                } else {
                    [-1.0; 4]
                }
            };
            let mut c4: Vec<[f64; 4]> = (0..ne).map(|e| corner(e, 0.25)).collect();
            let mut cx: Vec<[f64; 4]> = (0..ne).map(|e| corner(e, 1.0)).collect();
            let mut cy: Vec<[f64; 4]> = (0..ne).map(|e| corner(e, -1.0)).collect();

            let mut f_state = [
                (Entity::Element, FieldMut::Scalar(&mut sc)),
                (Entity::Node, FieldMut::Vec2(&mut nd)),
            ];
            let mut f_corners = [
                (Entity::Element, FieldMut::Corner4(&mut c4)),
                (Entity::Element, FieldMut::CornerPair(&mut cx, &mut cy)),
            ];
            match order {
                Completion::PhaseByPhase => {
                    let t = plan.post(ctx, "state", &f_state).unwrap();
                    plan.complete(ctx, t, &mut f_state).unwrap();
                    let t = plan.post(ctx, "corners", &f_corners).unwrap();
                    plan.complete(ctx, t, &mut f_corners).unwrap();
                }
                Completion::BothPostedThenReversed => {
                    let t_state = plan.post(ctx, "state", &f_state).unwrap();
                    let t_corners = plan.post(ctx, "corners", &f_corners).unwrap();
                    plan.complete(ctx, t_corners, &mut f_corners).unwrap();
                    plan.complete(ctx, t_state, &mut f_state).unwrap();
                }
            }

            ok &= (0..ne).all(|e| sc[e] == sub.el_l2g[e] as f64 + salt);
            ok &= (0..nn).all(|n| nd[n] == Vec2::new(sub.nd_l2g[n] as f64 + salt, round as f64));
            ok &= (0..ne).all(|e| {
                let g = sub.el_l2g[e] as f64 + salt;
                c4[e] == [g, g + 0.25, g + 0.5, g + 0.75]
                    && (0..4).all(|c| cx[e][c] == g + c as f64 && cy[e][c] == g - c as f64)
            });
        }
        (ctx.stats(), ok)
    })
    .unwrap();

    for (rank, (stats, ok)) in out.into_iter().enumerate() {
        assert!(ok, "rank {rank}, {order:?}: ghost data corrupted");
        let n_links = subs[rank].neighbour_ranks().len();
        // Two phases per round, one message per link per phase.
        assert_eq!(
            stats.messages_sent,
            (2 * rounds * n_links) as u64,
            "rank {rank}, {order:?}: messages_sent != phases × neighbour links"
        );
        for name in ["state", "corners"] {
            let p = stats.phase(name).unwrap();
            assert_eq!(
                p.messages_sent,
                (rounds * n_links) as u64,
                "rank {rank}, {order:?}, phase {name}"
            );
            // Every ticket stayed open from its post to its complete.
            assert!(
                p.overlap_window_seconds > 0.0,
                "rank {rank}, {order:?}, phase {name}: no overlap window recorded"
            );
        }
    }
}

#[test]
fn l_shaped_halo_plan_tag_stress() {
    l_shaped_rounds(Completion::PhaseByPhase);
}

#[test]
fn l_shaped_split_post_complete_interleaved_phases() {
    l_shaped_rounds(Completion::BothPostedThenReversed);
}

#[test]
fn unbalanced_send_patterns_do_not_deadlock() {
    // Rank 0 sends a burst to rank 1 before rank 1 posts any receive;
    // rank 1 receives them interleaved with its own sends back.
    let out = Typhon::run(2, |ctx| {
        let base = ctx.next_tag();
        // Both ranks agree on 20 tags up front.
        let tags: Vec<u64> = (0..20).map(|i| base + i).collect();
        {
            let mut t = ctx.next_tag();
            while t < base + 19 {
                t = ctx.next_tag();
            }
        }
        if ctx.rank() == 0 {
            for &t in &tags {
                ctx.send(1, t, vec![t as f64]).unwrap();
            }
            let mut sum = 0.0;
            for &t in &tags {
                sum += ctx.recv(1, t).unwrap()[0];
            }
            sum
        } else {
            // Receive in reverse, replying as we go.
            let mut sum = 0.0;
            for &t in tags.iter().rev() {
                sum += ctx.recv(0, t).unwrap()[0];
                ctx.send(0, t, vec![t as f64 * 2.0]).unwrap();
            }
            sum
        }
    })
    .unwrap();
    let base_sum: f64 = out[1]; // Σ t
    assert_eq!(out[0], 2.0 * base_sum);
}
