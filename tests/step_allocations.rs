//! A steady-state Lagrangian step allocates nothing, and neither does
//! the Eulerian remap after it.
//!
//! Every buffer a step needs beyond the state itself (start-of-step
//! positions and energies, the cell-velocity table, the nodal sums, the
//! listed pass's rows) lives in the thread's scratch and is reused, so
//! after one warm-up step the allocator is not called again — split or
//! unsplit, gather or scatter. The remap works in that same scratch
//! (idle between steps) and targets the reference mesh it already
//! holds. A counting `#[global_allocator]` pins both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bookleaf::ale::{AleMode, AleOptions, Remapper};
use bookleaf::eos::{EosSpec, MaterialTable};
use bookleaf::hydro::{
    lagstep_timed, AccMode, HydroState, KernelSplit, LagOptions, LocalRange, NoComm,
};
use bookleaf::mesh::{generate_rect, RectSpec};
use bookleaf::util::{TimerRegistry, Vec2};

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

#[test]
fn a_warm_serial_step_performs_no_heap_allocation() {
    let n = 12;
    let mesh0 = generate_rect(&RectSpec::unit_square(n), |_| 0).unwrap();
    let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
    let range = LocalRange::whole(&mesh0);
    // Any split is a valid split without a halo: two element columns and
    // their nodes play the boundary.
    let el_boundary: Vec<bool> = (0..mesh0.n_elements()).map(|e| e % n < 2).collect();
    let nd_boundary: Vec<bool> = (0..mesh0.n_nodes()).map(|i| i % (n + 1) < 3).collect();
    let ids = |mask: &[bool]| -> Vec<u32> {
        (0..mask.len() as u32)
            .filter(|&i| mask[i as usize])
            .collect()
    };
    let el_boundary_ids = ids(&el_boundary);
    let boundary_cells = mesh0.with_face_neighbours(&el_boundary_ids);
    let nd_boundary_ids = ids(&nd_boundary);
    let split = KernelSplit {
        el_boundary: &el_boundary,
        nd_boundary: &nd_boundary,
        el_boundary_ids: &el_boundary_ids,
        boundary_cells: &boundary_cells,
        nd_boundary_ids: &nd_boundary_ids,
    };
    let timers = TimerRegistry::new();

    for acc_mode in [AccMode::GatherSerial, AccMode::ScatterSerial] {
        for split in [None, Some(split)] {
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
                    &mut mesh,
                    &mat,
                    &mut state,
                    range,
                    1e-3,
                    &opts,
                    &mut NoComm,
                    &timers,
                    split,
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
                made,
                0,
                "{acc_mode:?}, split: {}: {made} allocations in two warm steps",
                split.is_some()
            );
        }
    }
}

#[test]
fn a_warm_serial_eulerian_remap_performs_no_heap_allocation() {
    let mut mesh = generate_rect(&RectSpec::unit_square(12), |_| 0).unwrap();
    let mat = MaterialTable::single(EosSpec::ideal_gas(1.4));
    let range = LocalRange::whole(&mesh);
    let nodes = mesh.nodes.clone();
    // A converging flow over a density pattern: every step moves the
    // mesh off the reference, every remap carries flux back.
    let mut state = HydroState::new(
        &mesh,
        &mat,
        |e| 1.0 + 0.01 * (e % 7) as f64,
        |_| 2.5,
        |i| (Vec2::new(0.5, 0.5) - nodes[i]) * 0.1,
    )
    .unwrap();
    let remapper = Remapper::new(
        &mesh,
        AleOptions {
            mode: AleMode::Eulerian,
            frequency: 1,
        },
    );
    let opts = LagOptions::default();
    let timers = TimerRegistry::new();
    // The first round is the warm-up that sizes the shared scratch.
    for warm in [false, true, true] {
        lagstep_timed(
            &mut mesh,
            &mat,
            &mut state,
            range,
            1e-3,
            &opts,
            &mut NoComm,
            &timers,
            None,
        )
        .unwrap();
        let before = ALLOCATIONS.with(Cell::get);
        remapper.step(&mut mesh, &mut state, range).unwrap();
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert!(!warm || made == 0, "{made} allocations in a warm remap");
    }
    // The remaps ran: the moved mesh is back on the reference.
    assert_eq!(mesh.nodes, nodes);
}
