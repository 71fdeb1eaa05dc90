//! Per-kernel **roofline audit** on this host: times every Lagrangian
//! kernel over swept mesh sizes and reports achieved GFLOP/s and GB/s
//! next to the roofline bound implied by the `bookleaf-device` cost
//! tables and two measured host peaks (an FMA chain for compute, a
//! STREAM-style triad for bandwidth).
//!
//! Kernels with a raw audit in `bookleaf_device::RawCost` (the EOS
//! chain and its fused sweep) use those exact per-element counts; the
//! rest use the *effective* `KernelCost` counts the paper-platform
//! models are calibrated with — each entry records which table fed it
//! (`"counts": "raw"` / `"effective"`). All timings are serial: the
//! peaks are single-thread peaks, so achieved/bound ratios compare
//! like with like.
//!
//! The artifact also records the optimisation speedups this codebase
//! carries against its kept reference implementations, on the largest
//! swept mesh:
//!
//! * `eos_fused_vs_chain` — the fused `getgeom→getrho→getein→getpc`
//!   sweep against the four separate kernels;
//! * `getforce_soa_vs_reference` — the stride-1 SoA force assembly
//!   against the interleaved-layout reference;
//! * `getq_hoisted_vs_reference` — the viscosity kernel with the
//!   neighbour-stencil gathers hoisted out of the face loop against the
//!   in-loop-gather reference;
//! * `viscforce_fused_vs_sequence` — the fused viscosity–force sweep a
//!   step runs against `getq` then `getforce` in sequence, on a Noh
//!   state a few steps into the implosion (the shock has left the walls,
//!   so compressive and quiescent elements are both present).
//!
//! All pairs are bitwise-identical in output (the equivalence suite
//! pins that), so the ratios are pure layout/fusion wins.
//!
//! ```text
//! kernels [--meshes 64,128,256,512] [--repeats 5] [--out BENCH_kernels.json]
//! kernels --validate BENCH_kernels.json
//! kernels --check-speedups   # fail unless every speedup > 1.0
//! ```
//!
//! `--validate` checks an existing artifact against schema
//! `bookleaf-kernels-v1` and exits non-zero on the first violation. The
//! writer self-validates before touching the output file.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bookleaf_bench::schema::{validate_kernels_json, KERNELS_SCHEMA};
use bookleaf_core::{decks, Simulation};
use bookleaf_device::{KernelCost, RawCost};
use bookleaf_eos::MaterialTable;
use bookleaf_hydro::getacc::getacc;
use bookleaf_hydro::getdt::{getdt, DtControls};
use bookleaf_hydro::getein::{getein, WorkVelocity};
use bookleaf_hydro::getforce::{getforce, HourglassControl};
use bookleaf_hydro::getgeom::getgeom;
use bookleaf_hydro::getpc::getpc;
use bookleaf_hydro::getq::{getq, QCoeffs};
use bookleaf_hydro::getrho::getrho;
use bookleaf_hydro::reference::{getforce_reference, getq_reference};
use bookleaf_hydro::{
    eos_fused, viscforce, AccMode, EosStages, FusedEos, HydroState, LocalRange, Pass, Threading,
    ViscForce,
};
use bookleaf_mesh::Mesh;
use bookleaf_util::KernelId;

const DT: f64 = 1e-6;

/// The fused sweep with the coefficients `getq` + `getforce` are timed
/// with.
fn fused_sweep() -> ViscForce {
    ViscForce {
        q: QCoeffs::default(),
        hourglass: HourglassControl::default(),
        dt: DT,
    }
}

struct Args {
    meshes: Vec<usize>,
    repeats: usize,
    out_path: String,
    check_speedups: bool,
}

/// One mesh point of one kernel's sweep.
struct RunPoint {
    mesh: usize,
    elements: usize,
    seconds_per_call: f64,
    gflops: f64,
    gbs: f64,
    roofline_fraction: f64,
}

/// One kernel's roofline entry.
struct KernelEntry {
    kernel: KernelId,
    counts: &'static str,
    flops_per_element: f64,
    bytes_per_element: f64,
    roofline_gflops: f64,
    runs: Vec<RunPoint>,
}

struct Speedup {
    name: &'static str,
    mesh: usize,
    baseline_s: f64,
    optimised_s: f64,
}

impl Speedup {
    fn ratio(&self) -> f64 {
        if self.optimised_s > 0.0 {
            self.baseline_s / self.optimised_s
        } else {
            0.0
        }
    }
}

/// Per-element (flops, bytes, table name): the raw audit when one
/// exists, the calibrated effective counts otherwise.
fn counts_for(kernel: KernelId) -> (f64, f64, &'static str) {
    match RawCost::of(kernel) {
        Some(raw) => (raw.flops, raw.bytes, "raw"),
        None => {
            let c = KernelCost::of(kernel);
            (c.flops, c.bytes, "effective")
        }
    }
}

// ------------------------------------------------------- host peaks

/// Single-thread scalar flop peak in GFLOP/s: eight independent
/// multiply–add chains (enough ILP to fill the FP pipes), counted as 2
/// flops per `x*a + b`. Written as separate mul and add — `f64::mul_add`
/// lowers to a libm call when the target lacks guaranteed FMA, which is
/// ~50x slower than the hardware it is meant to measure.
fn probe_peak_gflops() -> f64 {
    const CHAINS: usize = 8;
    const ITERS: u64 = 4_000_000;
    let mut acc = [1.0f64; CHAINS];
    let a = black_box(1.000_000_1f64);
    let b = black_box(1e-9f64);
    // Warm up the clock governor.
    for _ in 0..ITERS / 4 {
        for x in &mut acc {
            *x = *x * a + b;
        }
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        for x in &mut acc {
            *x = *x * a + b;
        }
    }
    let dt = start.elapsed().as_secs_f64();
    black_box(acc);
    (ITERS * CHAINS as u64 * 2) as f64 / dt / 1e9
}

/// Single-thread STREAM-triad bandwidth in GB/s: `a[i] = b[i] + s*c[i]`
/// over arrays far beyond cache, 24 bytes per element (STREAM's
/// convention — one store, two loads, no write-allocate term).
fn probe_peak_gbs() -> f64 {
    const N: usize = 4 << 20; // 32 MiB per array
    const REPS: usize = 8;
    let mut a = vec![0.0f64; N];
    let b: Vec<f64> = (0..N).map(|i| i as f64 * 1e-6).collect();
    let c: Vec<f64> = (0..N).map(|i| (i % 17) as f64).collect();
    let s = black_box(3.0f64);
    let triad = |a: &mut [f64]| {
        for i in 0..N {
            a[i] = b[i] + s * c[i];
        }
    };
    triad(&mut a); // warm up page faults
    let start = Instant::now();
    for _ in 0..REPS {
        triad(&mut a);
    }
    let dt = start.elapsed().as_secs_f64();
    black_box(&a);
    (REPS * N * 24) as f64 / dt / 1e9
}

// -------------------------------------------------- kernel harness

/// A consistent mid-flow state on the Noh deck at mesh `n`: geometry,
/// density, pressure, viscosity and forces all populated so every
/// kernel sees realistic inputs.
fn prepared_state(n: usize) -> (Mesh, MaterialTable, HydroState) {
    let deck = decks::noh(n);
    let mesh = deck.mesh.clone();
    let mut st = HydroState::new(
        &mesh,
        &deck.materials,
        |e| deck.rho[e],
        |e| deck.ein[e],
        |nd| deck.u[nd],
    )
    .expect("state");
    let range = LocalRange::whole(&mesh);
    getgeom(&mesh, &mut st, range, Threading::Serial).expect("geom");
    getrho(&mut st, range, Threading::Serial).expect("rho");
    getpc(&mesh, &deck.materials, &mut st, range, Threading::Serial);
    getq(&mesh, &mut st, range, QCoeffs::default(), Threading::Serial);
    getforce(
        &mesh,
        &mut st,
        range,
        HourglassControl::default(),
        DT,
        Threading::Serial,
    );
    for i in 0..st.n_nodes() {
        st.ubar[i] = st.u[i];
    }
    (mesh, deck.materials, st)
}

/// The Noh deck at mesh `n` after [`STEPPED_STEPS`] real steps: the
/// state the benchmark's Noh workloads spend their time in.
fn stepped_state(n: usize) -> (Mesh, HydroState) {
    let mut sim = Simulation::builder()
        .deck(decks::noh(n))
        .max_steps(STEPPED_STEPS)
        .build()
        .expect("valid deck");
    sim.run().expect("noh steps");
    (sim.mesh().clone(), sim.state().clone())
}

/// Steps [`stepped_state`] advances (the benchmark's Noh step count).
const STEPPED_STEPS: usize = 20;

/// Best-of-`repeats` seconds per call of `f`, with one warm-up call and
/// enough calls per sample to dodge timer granularity on small meshes.
fn time_best(elements: usize, repeats: usize, mut f: impl FnMut()) -> f64 {
    let calls = (200_000 / elements).clamp(1, 40);
    f(); // warm up
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / calls as f64);
    }
    best
}

/// Seconds per call for one kernel at one mesh size (serial).
#[allow(clippy::too_many_lines)]
fn kernel_seconds(
    kernel: KernelId,
    mesh: &Mesh,
    materials: &MaterialTable,
    st: &mut HydroState,
    repeats: usize,
) -> f64 {
    let range = LocalRange::whole(mesh);
    let n = mesh.n_elements();
    let th = Threading::Serial;
    match kernel {
        KernelId::GetGeom => time_best(n, repeats, || {
            getgeom(mesh, st, range, th).expect("geom");
        }),
        KernelId::GetRho => time_best(n, repeats, || {
            getrho(st, range, th).expect("rho");
        }),
        KernelId::GetEin => time_best(n, repeats, || {
            getein(mesh, st, range, DT, WorkVelocity::Current, th);
        }),
        KernelId::GetPc => time_best(n, repeats, || {
            getpc(mesh, materials, st, range, th);
        }),
        KernelId::EosFused => time_best(n, repeats, || {
            eos_fused(
                mesh,
                materials,
                st,
                range,
                FusedEos {
                    dt: DT,
                    which: WorkVelocity::Current,
                    ein_from: None,
                    stages: EosStages::all(),
                },
                th,
            )
            .expect("fused");
        }),
        KernelId::GetQ => time_best(n, repeats, || {
            getq(mesh, st, range, QCoeffs::default(), th);
        }),
        KernelId::GetForce => time_best(n, repeats, || {
            getforce(mesh, st, range, HourglassControl::default(), DT, th);
        }),
        KernelId::ViscForce => time_best(n, repeats, || {
            viscforce(mesh, st, range, fused_sweep(), th, Pass::All, Pass::All);
        }),
        KernelId::GetAcc => time_best(n, repeats, || {
            getacc(mesh, st, range, DT, AccMode::GatherSerial);
        }),
        KernelId::GetDt => time_best(n, repeats, || {
            getdt(mesh, st, range, &DtControls::default(), Some(1e-4), th).expect("dt");
        }),
        KernelId::Ale | KernelId::Comms | KernelId::Other => unreachable!("not swept"),
    }
}

/// The kernels the sweep times, EOS chain first (raw counts), then the
/// effective-count kernels.
const SWEPT: [KernelId; 10] = [
    KernelId::GetGeom,
    KernelId::GetRho,
    KernelId::GetEin,
    KernelId::GetPc,
    KernelId::EosFused,
    KernelId::GetQ,
    KernelId::GetForce,
    KernelId::ViscForce,
    KernelId::GetAcc,
    KernelId::GetDt,
];

fn sweep(meshes: &[usize], repeats: usize, peak_gflops: f64, peak_gbs: f64) -> Vec<KernelEntry> {
    let mut entries: Vec<KernelEntry> = SWEPT
        .iter()
        .map(|&kernel| {
            let (flops_per_element, bytes_per_element, counts) = counts_for(kernel);
            let ai = flops_per_element / bytes_per_element;
            KernelEntry {
                kernel,
                counts,
                flops_per_element,
                bytes_per_element,
                roofline_gflops: peak_gflops.min(ai * peak_gbs),
                runs: Vec::new(),
            }
        })
        .collect();
    for &m in meshes {
        let (mesh, materials, mut st) = prepared_state(m);
        let elements = mesh.n_elements();
        for entry in &mut entries {
            let s = kernel_seconds(entry.kernel, &mesh, &materials, &mut st, repeats);
            let gflops = entry.flops_per_element * elements as f64 / s / 1e9;
            let gbs = entry.bytes_per_element * elements as f64 / s / 1e9;
            entry.runs.push(RunPoint {
                mesh: m,
                elements,
                seconds_per_call: s,
                gflops,
                gbs,
                roofline_fraction: gflops / entry.roofline_gflops,
            });
        }
    }
    entries
}

/// Best-of-`repeats` seconds per call for a baseline/optimised pair, with
/// the samples interleaved (A, B, A, B, ...) so that slow clock drift —
/// turbo decay, a neighbour stealing the socket — biases both sides
/// equally instead of penalising whichever ran second.
fn time_pair_best(
    elements: usize,
    repeats: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let calls = (200_000 / elements).clamp(1, 40);
    a(); // warm up both paths (page in code + scratch)
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        for _ in 0..calls {
            a();
        }
        best_a = best_a.min(start.elapsed().as_secs_f64() / calls as f64);
        let start = Instant::now();
        for _ in 0..calls {
            b();
        }
        best_b = best_b.min(start.elapsed().as_secs_f64() / calls as f64);
    }
    (best_a, best_b)
}

/// The optimised-vs-reference ratios on the largest mesh of the sweep.
fn measure_speedups(mesh_n: usize, repeats: usize) -> Vec<Speedup> {
    let (mesh, materials, st) = prepared_state(mesh_n);
    // Both sides of each pair need the state; the closures are only ever
    // called one at a time, so a RefCell resolves the double borrow.
    let st = std::cell::RefCell::new(st);
    let range = LocalRange::whole(&mesh);
    let n = mesh.n_elements();
    let th = Threading::Serial;
    // The ratios are the acceptance gate of this artifact, so spend more
    // samples on them than on the per-kernel sweep points.
    let repeats = 2 * repeats;

    // Fused EOS sweep vs the four-kernel chain (same state, same bits).
    let (chain_s, fused_s) = time_pair_best(
        n,
        repeats,
        || {
            let st = &mut *st.borrow_mut();
            getgeom(&mesh, st, range, th).expect("geom");
            getrho(st, range, th).expect("rho");
            getein(&mesh, st, range, DT, WorkVelocity::Current, th);
            getpc(&mesh, &materials, st, range, th);
        },
        || {
            eos_fused(
                &mesh,
                &materials,
                &mut st.borrow_mut(),
                range,
                FusedEos {
                    dt: DT,
                    which: WorkVelocity::Current,
                    ein_from: None,
                    stages: EosStages::all(),
                },
                th,
            )
            .expect("fused");
        },
    );

    // SoA force assembly vs the interleaved-row reference.
    let mut aos = Vec::new();
    let (force_ref_s, force_s) = time_pair_best(
        n,
        repeats,
        || {
            getforce_reference(
                &mesh,
                &st.borrow(),
                range,
                HourglassControl::default(),
                DT,
                th,
                &mut aos,
            );
        },
        || {
            getforce(
                &mesh,
                &mut st.borrow_mut(),
                range,
                HourglassControl::default(),
                DT,
                th,
            );
        },
    );

    // Hoisted viscosity stencil vs the in-loop-gather reference.
    let (q_ref_s, q_s) = time_pair_best(
        n,
        repeats,
        || {
            getq_reference(&mesh, &mut st.borrow_mut(), range, QCoeffs::default(), th);
        },
        || {
            getq(&mesh, &mut st.borrow_mut(), range, QCoeffs::default(), th);
        },
    );

    // Fused viscosity–force sweep vs getq then getforce, on a state a
    // few real steps into the run.
    let (mesh, st) = stepped_state(mesh_n);
    let st = std::cell::RefCell::new(st);
    let range = LocalRange::whole(&mesh);
    let (sequence_s, viscforce_s) = time_pair_best(
        n,
        repeats,
        || {
            let st = &mut *st.borrow_mut();
            getq(&mesh, st, range, QCoeffs::default(), th);
            getforce(&mesh, st, range, HourglassControl::default(), DT, th);
        },
        || {
            viscforce(
                &mesh,
                &mut st.borrow_mut(),
                range,
                fused_sweep(),
                th,
                Pass::All,
                Pass::All,
            );
        },
    );

    vec![
        Speedup {
            name: "eos_fused_vs_chain",
            mesh: mesh_n,
            baseline_s: chain_s,
            optimised_s: fused_s,
        },
        Speedup {
            name: "getforce_soa_vs_reference",
            mesh: mesh_n,
            baseline_s: force_ref_s,
            optimised_s: force_s,
        },
        Speedup {
            name: "getq_hoisted_vs_reference",
            mesh: mesh_n,
            baseline_s: q_ref_s,
            optimised_s: q_s,
        },
        Speedup {
            name: "viscforce_fused_vs_sequence",
            mesh: mesh_n,
            baseline_s: sequence_s,
            optimised_s: viscforce_s,
        },
    ]
}

// ------------------------------------------------------------ output

fn kernel_name(k: KernelId) -> String {
    format!("{k:?}").to_lowercase()
}

fn emit_json(
    out_path: &str,
    host_cores: usize,
    repeats: usize,
    peak_gflops: f64,
    peak_gbs: f64,
    entries: &[KernelEntry],
    speedups: &[Speedup],
) -> std::io::Result<()> {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"{KERNELS_SCHEMA}\",");
    let _ = writeln!(j, "  \"host_cores\": {host_cores},");
    let _ = writeln!(j, "  \"threading\": \"serial\",");
    let _ = writeln!(j, "  \"peak_gflops\": {peak_gflops:.3},");
    let _ = writeln!(j, "  \"peak_gbs\": {peak_gbs:.3},");
    let _ = writeln!(j, "  \"repeats\": {repeats},");
    let _ = writeln!(j, "  \"kernels\": [");
    for (ei, e) in entries.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"kernel\": \"{}\",", kernel_name(e.kernel));
        let _ = writeln!(j, "      \"counts\": \"{}\",", e.counts);
        let _ = writeln!(j, "      \"flops_per_element\": {},", e.flops_per_element);
        let _ = writeln!(j, "      \"bytes_per_element\": {},", e.bytes_per_element);
        let _ = writeln!(
            j,
            "      \"arithmetic_intensity\": {:.4},",
            e.flops_per_element / e.bytes_per_element
        );
        let _ = writeln!(j, "      \"roofline_gflops\": {:.3},", e.roofline_gflops);
        let _ = writeln!(j, "      \"runs\": [");
        for (ri, r) in e.runs.iter().enumerate() {
            let comma = if ri + 1 < e.runs.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "        {{ \"mesh\": {}, \"elements\": {}, \"seconds_per_call\": {:.9}, \
                 \"gflops\": {:.3}, \"gbs\": {:.3}, \"roofline_fraction\": {:.4} }}{comma}",
                r.mesh, r.elements, r.seconds_per_call, r.gflops, r.gbs, r.roofline_fraction
            );
        }
        let _ = writeln!(j, "      ]");
        let comma = if ei + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(j, "    }}{comma}");
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"speedups\": [");
    for (si, s) in speedups.iter().enumerate() {
        let comma = if si + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{ \"name\": \"{}\", \"mesh\": {}, \"baseline_s\": {:.9}, \
             \"optimised_s\": {:.9}, \"speedup\": {:.3} }}{comma}",
            s.name,
            s.mesh,
            s.baseline_s,
            s.optimised_s,
            s.ratio()
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    if let Err(message) = validate_kernels_json(&j) {
        panic!("emitted JSON violates {KERNELS_SCHEMA}: {message}");
    }
    std::fs::write(out_path, j)
}

fn parse_args() -> Args {
    let mut args = Args {
        meshes: vec![64, 128, 256, 512],
        repeats: 5,
        out_path: "BENCH_kernels.json".to_string(),
        check_speedups: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        if key == "--check-speedups" {
            args.check_speedups = true;
            i += 1;
            continue;
        }
        let val = argv.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {key}");
            std::process::exit(2);
        });
        match key {
            "--meshes" => {
                args.meshes = val
                    .split(',')
                    .map(|m| m.trim().parse().expect("--meshes csv of ints"))
                    .collect();
                assert!(!args.meshes.is_empty(), "--meshes must name a mesh");
            }
            "--repeats" => args.repeats = val.parse().expect("--repeats N"),
            "--out" => args.out_path = val.clone(),
            "--validate" => {
                let text = std::fs::read_to_string(val).unwrap_or_else(|e| {
                    eprintln!("cannot read {val}: {e}");
                    std::process::exit(2);
                });
                match validate_kernels_json(&text) {
                    Ok(()) => {
                        println!("{val}: valid {KERNELS_SCHEMA}");
                        std::process::exit(0);
                    }
                    Err(message) => {
                        eprintln!("{val}: schema violation: {message}");
                        std::process::exit(1);
                    }
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    args
}

fn main() {
    let args = parse_args();
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("Per-kernel roofline audit (serial sweeps, Noh deck)");
    let peak_gflops = probe_peak_gflops();
    let peak_gbs = probe_peak_gbs();
    println!(
        "host cores: {host_cores} | single-thread peaks: {peak_gflops:.1} GFLOP/s (mul+add), \
         {peak_gbs:.1} GB/s (triad) | best of {}",
        args.repeats
    );
    println!("{}", "=".repeat(76));

    let entries = sweep(&args.meshes, args.repeats, peak_gflops, peak_gbs);
    println!(
        "{:<10} {:>6} {:>8} {:>12} {:>9} {:>9} {:>10} {:>8}",
        "kernel", "counts", "AI", "bound GF/s", "mesh", "GFLOP/s", "GB/s", "of peak"
    );
    for e in &entries {
        for r in &e.runs {
            println!(
                "{:<10} {:>6} {:>8.3} {:>12.2} {:>6}^2 {:>9.3} {:>10.3} {:>7.1}%",
                kernel_name(e.kernel),
                e.counts,
                e.flops_per_element / e.bytes_per_element,
                e.roofline_gflops,
                r.mesh,
                r.gflops,
                r.gbs,
                100.0 * r.roofline_fraction
            );
        }
    }

    let largest = args.meshes.iter().copied().max().expect("non-empty sweep");
    let speedups = measure_speedups(largest, args.repeats);
    println!();
    println!("optimised vs reference (mesh {largest}^2, bitwise-identical outputs):");
    for s in &speedups {
        println!(
            "  {:<28} {:>9.4}ms -> {:>9.4}ms  {:>6.2}x",
            s.name,
            1e3 * s.baseline_s,
            1e3 * s.optimised_s,
            s.ratio()
        );
    }

    emit_json(
        &args.out_path,
        host_cores,
        args.repeats,
        peak_gflops,
        peak_gbs,
        &entries,
        &speedups,
    )
    .expect("write BENCH json");
    println!("{}", "=".repeat(76));
    println!("wrote {}", args.out_path);

    if args.check_speedups {
        let slow: Vec<&Speedup> = speedups.iter().filter(|s| s.ratio() <= 1.0).collect();
        if !slow.is_empty() {
            eprintln!("speedup check FAILED:");
            for s in &slow {
                eprintln!("  - {} = {:.3}x", s.name, s.ratio());
            }
            std::process::exit(1);
        }
        println!("speedup check passed (all ratios > 1)");
    }
}
