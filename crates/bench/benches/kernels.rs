//! Criterion micro-benchmarks for every Lagrangian kernel, serial vs
//! rayon, on a mid-shock Noh snapshot (the paper's profiling workload).
//!
//! Run with `cargo bench -p bookleaf-bench --bench kernels`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bookleaf_core::{decks, Simulation};
use bookleaf_eos::MaterialTable;
use bookleaf_hydro::getacc::{getacc, AccMode};
use bookleaf_hydro::getdt::{getdt, DtControls};
use bookleaf_hydro::getein::{getein, WorkVelocity};
use bookleaf_hydro::getforce::{getforce, HourglassControl};
use bookleaf_hydro::getgeom::getgeom;
use bookleaf_hydro::getpc::getpc;
use bookleaf_hydro::getq::{getq, QCoeffs};
use bookleaf_hydro::getrho::getrho;
use bookleaf_hydro::reference::{getforce_reference, getq_reference};
use bookleaf_hydro::{
    eos_fused, viscforce, EosStages, FusedEos, HydroState, LocalRange, Pass, Threading, ViscForce,
};
use bookleaf_mesh::Mesh;

const N: usize = 128;

/// A Noh state evolved to mid-shock, so the kernels see realistic data
/// (viscosity active, shocked plateau, moving mesh).
fn snapshot() -> (Mesh, MaterialTable, HydroState) {
    let mut driver = Simulation::builder()
        .deck(decks::noh(N))
        .final_time(0.1)
        .build()
        .expect("valid deck");
    driver.run().expect("noh warmup");
    let materials = driver.deck().materials.clone();
    (driver.mesh().clone(), materials, driver.state().clone())
}

fn bench_kernels(c: &mut Criterion) {
    let (mesh, materials, state) = snapshot();
    let range = LocalRange::whole(&mesh);
    let mut group = c.benchmark_group("kernels_128x128");

    for threading in [Threading::Serial, Threading::Rayon] {
        let tag = match threading {
            Threading::Serial => "serial",
            Threading::Rayon => "rayon",
        };
        group.bench_function(BenchmarkId::new("getq", tag), |b| {
            let mut st = state.clone();
            b.iter(|| getq(&mesh, &mut st, range, QCoeffs::default(), threading));
        });
        group.bench_function(BenchmarkId::new("getforce", tag), |b| {
            let mut st = state.clone();
            b.iter(|| {
                getforce(
                    &mesh,
                    &mut st,
                    range,
                    HourglassControl::default(),
                    1e-4,
                    threading,
                )
            });
        });
        // The fused sweep a step runs, against its two halves above.
        group.bench_function(BenchmarkId::new("viscforce", tag), |b| {
            let mut st = state.clone();
            let sweep = ViscForce {
                q: QCoeffs::default(),
                hourglass: HourglassControl::default(),
                dt: 1e-4,
            };
            b.iter(|| {
                viscforce(
                    &mesh,
                    &mut st,
                    range,
                    sweep,
                    threading,
                    Pass::All,
                    Pass::All,
                )
            });
        });
        group.bench_function(BenchmarkId::new("getgeom", tag), |b| {
            let mut st = state.clone();
            b.iter(|| getgeom(&mesh, &mut st, range, threading).unwrap());
        });
        group.bench_function(BenchmarkId::new("getrho", tag), |b| {
            let mut st = state.clone();
            b.iter(|| getrho(&mut st, range, threading).unwrap());
        });
        group.bench_function(BenchmarkId::new("getein", tag), |b| {
            let mut st = state.clone();
            b.iter(|| {
                getein(
                    &mesh,
                    &mut st,
                    range,
                    1e-6,
                    WorkVelocity::Current,
                    threading,
                );
            });
        });
        group.bench_function(BenchmarkId::new("getpc", tag), |b| {
            let mut st = state.clone();
            b.iter(|| getpc(&mesh, &materials, &mut st, range, threading));
        });
        // The fused EOS chain against its four-kernel baseline (the
        // getgeom/getrho/getein/getpc entries above time the parts).
        group.bench_function(BenchmarkId::new("eos_fused", tag), |b| {
            let mut st = state.clone();
            b.iter(|| {
                eos_fused(
                    &mesh,
                    &materials,
                    &mut st,
                    range,
                    FusedEos {
                        dt: 1e-6,
                        which: WorkVelocity::Current,
                        ein_from: None,
                        stages: EosStages::all(),
                    },
                    threading,
                )
                .unwrap();
            });
        });
        // The kept pre-optimisation shapes, for before/after ratios.
        group.bench_function(BenchmarkId::new("getq_reference", tag), |b| {
            let mut st = state.clone();
            b.iter(|| getq_reference(&mesh, &mut st, range, QCoeffs::default(), threading));
        });
        group.bench_function(BenchmarkId::new("getforce_reference", tag), |b| {
            let st = state.clone();
            let mut aos = Vec::new();
            b.iter(|| {
                getforce_reference(
                    &mesh,
                    &st,
                    range,
                    HourglassControl::default(),
                    1e-4,
                    threading,
                    &mut aos,
                );
            });
        });
        group.bench_function(BenchmarkId::new("getdt", tag), |b| {
            let mut st = state.clone();
            b.iter(|| {
                getdt(
                    &mesh,
                    &mut st,
                    range,
                    &DtControls::default(),
                    Some(1e-4),
                    threading,
                )
                .unwrap()
            });
        });
    }

    // The acceleration kernel's three formulations (§IV-B).
    for (tag, mode) in [
        ("scatter_serial", AccMode::ScatterSerial),
        ("gather_serial", AccMode::GatherSerial),
        ("gather_parallel", AccMode::GatherParallel),
    ] {
        group.bench_function(BenchmarkId::new("getacc", tag), |b| {
            let mut st = state.clone();
            b.iter(|| getacc(&mesh, &mut st, range, 1e-6, mode));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
