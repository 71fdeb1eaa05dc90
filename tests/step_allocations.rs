//! A steady-state Lagrangian step allocates nothing, and neither does
//! the Eulerian remap after it.
//!
//! Every buffer a step needs beyond the state itself (start-of-step
//! positions and energies, the cell-velocity table, the scatter's nodal
//! sums) lives in the thread's scratch and is reused, so after one
//! warm-up step the allocator is not called again — with or without
//! boundary lists, gather or scatter. The remap works in that same
//! scratch (idle between steps) and targets the reference mesh it
//! already holds. A counting `#[global_allocator]` pins both — and that
//! rendering a deck's canonical text (to hash it or to write it) makes
//! no allocation either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use bookleaf::ale::{AleMode, AleOptions, Remapper};
use bookleaf::core::InputDeck;
use bookleaf::eos::{EosSpec, MaterialTable};
use bookleaf::hydro::{
    lagstep_timed, AccMode, HaloOps, HydroState, LagOptions, LocalRange, Phase, Threading,
};
use bookleaf::mesh::{generate_rect, Mesh, OverlapSets, RectSpec};
use bookleaf::serve::deck_cache_key;
use bookleaf::util::{Result, TimerRegistry, Vec2};

thread_local! {
    /// Heap allocations (and growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` (no lazy initialiser, no
// destructor), so touching it never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: arguments are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Any split is a valid split without a halo: two element columns and
/// their nodes play the boundary of the Lagrangian phases, and what an
/// exchange would pack of the remap (the pre nodes' whole adjacency is
/// pre, as `OverlapSets` guarantees).
fn some_boundary(mesh: &Mesh, n: usize) -> OverlapSets {
    let ids = |keep: &dyn Fn(usize) -> bool, len: usize| -> Vec<u32> {
        (0..len as u32).filter(|&i| keep(i as usize)).collect()
    };
    let el_boundary_ids = ids(&|e| e % n < 2, mesh.n_elements());
    OverlapSets {
        boundary_cells: mesh.with_face_neighbours(&el_boundary_ids),
        el_boundary_ids,
        nd_boundary_ids: ids(&|i| i % (n + 1) < 3, mesh.n_nodes()),
        remap_pre_el_ids: ids(&|e| e % n < 3, mesh.n_elements()),
        remap_pre_nd_ids: ids(&|i| i % (n + 1) < 3, mesh.n_nodes()),
    }
}

/// Hooks that count their calls, move nothing, and name `boundary` as
/// the lists of their schedule.
#[derive(Default)]
struct CountingHooks {
    boundary: OverlapSets,
    posts: [u32; 3],
    completes: [u32; 3],
}

impl HaloOps for CountingHooks {
    fn post(&mut self, phase: Phase, _: &mut Mesh, _: &mut HydroState) -> Result<()> {
        self.posts[phase as usize] += 1;
        Ok(())
    }
    fn complete(&mut self, phase: Phase, _: &mut Mesh, _: &mut HydroState) -> Result<()> {
        self.completes[phase as usize] += 1;
        Ok(())
    }
    fn boundary(&self) -> &OverlapSets {
        &self.boundary
    }
}

#[test]
fn a_warm_serial_step_performs_no_heap_allocation() {
    let n = 12;
    let mesh0 = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
    let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
    let range = LocalRange::whole(&mesh0);
    let timers = TimerRegistry::new();

    for acc_mode in [AccMode::GatherSerial, AccMode::ScatterSerial] {
        for boundary in [OverlapSets::default(), some_boundary(&mesh0, n)] {
            let split = !boundary.el_boundary_ids.is_empty();
            let mut hooks = CountingHooks {
                boundary,
                ..CountingHooks::default()
            };
            let mut mesh = mesh0.clone();
            let nodes = mesh.nodes.clone();
            // A converging flow: viscosity, forces and motion all live.
            let mut state = HydroState::new(
                &mesh,
                &mat,
                |e| 1.0 + 0.01 * (e % 7) as f64,
                |_| 2.5,
                |i| (Vec2::new(0.5, 0.5) - nodes[i]) * 0.1,
            )
            .unwrap();
            let opts = LagOptions {
                acc_mode,
                ..LagOptions::default()
            };
            let mut step = || {
                lagstep_timed(
                    &mut mesh, &mat, &mut state, range, 1e-3, &opts, &mut hooks, &timers,
                )
                .unwrap();
            };
            step(); // warm-up: sizes the scratch, builds the face stencil
            let before = ALLOCATIONS.with(Cell::get);
            assert!(before > 0, "the counter saw the set-up allocate");
            step();
            step();
            let made = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(
                made, 0,
                "{acc_mode:?}, split: {split}: {made} allocations in two warm steps"
            );
        }
    }
}

/// The canonical text is rendered as it is written: hashing it into a
/// deck-cache key, or writing it into a `String` that already has room,
/// never allocates.
#[test]
fn rendering_and_hashing_a_deck_performs_no_heap_allocation() {
    for text in [
        include_str!("fixtures/decks/kitchen_sink.deck"),
        include_str!("fixtures/decks/named_sod.deck"),
    ] {
        let input: InputDeck = text.parse().unwrap();
        let canon = input.to_string();
        let mut out = String::with_capacity(canon.len());
        let before = ALLOCATIONS.with(Cell::get);
        let key = deck_cache_key(&input);
        write!(out, "{input}").unwrap();
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(made, 0, "{made} allocations rendering\n{canon}");
        assert_eq!(out, canon);
        assert_eq!(key, deck_cache_key(&canon.parse().unwrap()));
    }
}

#[test]
fn a_warm_serial_eulerian_remap_performs_no_heap_allocation() {
    let n = 12;
    let mesh0 = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
    let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
    let range = LocalRange::whole(&mesh0);
    let nodes = mesh0.nodes.clone();
    let remapper = Remapper::new(
        &mesh0,
        AleOptions {
            mode: AleMode::Eulerian,
            frequency: 1,
        },
    );
    let opts = LagOptions::default();
    let timers = TimerRegistry::new();
    // One sweep, and split around the counted post of an exchange.
    for boundary in [OverlapSets::default(), some_boundary(&mesh0, n)] {
        let split = !boundary.remap_pre_el_ids.is_empty();
        let mut mesh = mesh0.clone();
        // A converging flow over a density pattern: every step moves
        // the mesh off the reference, every remap carries flux back.
        let mut state = HydroState::new(
            &mesh,
            &mat,
            |e| 1.0 + 0.01 * (e % 7) as f64,
            |_| 2.5,
            |i| (Vec2::new(0.5, 0.5) - nodes[i]) * 0.1,
        )
        .unwrap();
        let mut hooks = CountingHooks {
            boundary,
            ..CountingHooks::default()
        };
        // The first round is the warm-up that sizes the shared scratch.
        for warm in [false, true, true] {
            lagstep_timed(
                &mut mesh, &mat, &mut state, range, 1e-3, &opts, &mut hooks, &timers,
            )
            .unwrap();
            let before = ALLOCATIONS.with(Cell::get);
            let th = Threading::Serial;
            remapper
                .step_with(&mut mesh, &mut state, range, th, &mut hooks)
                .unwrap();
            let made = ALLOCATIONS.with(Cell::get) - before;
            assert!(
                !warm || made == 0,
                "split: {split}: {made} allocations in a warm remap"
            );
        }
        // Three rounds ran their whole schedule: two viscosity phases,
        // one acceleration phase and one remap phase each.
        assert_eq!(hooks.posts, [6, 3, 3]);
        assert_eq!(hooks.completes, hooks.posts);
        // The remaps ran: the moved mesh is back on the reference.
        assert_eq!(mesh.nodes, nodes);
    }
}
