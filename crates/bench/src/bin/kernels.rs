//! Interleaved A/B of the production kernels against the reference
//! shapes this codebase keeps (`bookleaf_hydro::reference`, and the EOS
//! chain's stages one sweep at a time), serial, on the Noh deck at the
//! largest mesh `--meshes` lists:
//!
//! * `eos_fused_vs_chain` — the fused `getgeom→getrho→getein→getpc`
//!   sweep against the same sweep run four times, one stage on each
//!   time (the unfused chain's four passes over the mesh);
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
//! pins that), so the ratios are pure layout/fusion wins. Every other
//! timing — per-kernel ns per element, shares, scaling, comms — is the
//! harness's (`benchmark/`, the measurement of record).
//!
//! ```text
//! kernels [--meshes 64,128,256,512] [--repeats 5] [--out BENCH_kernels.json]
//! kernels --validate BENCH_kernels.json
//! kernels --check-speedups   # fail unless every speedup > 1.0
//! ```
//!
//! `--validate` checks an existing artifact against schema
//! `bookleaf-kernels-v2` and exits non-zero on the first violation. The
//! writer self-validates before touching the output file.

use std::fmt::Write as _;
use std::time::Instant;

use bookleaf_bench::schema::{validate_kernels_json, KERNELS_SCHEMA};
use bookleaf_core::{decks, Simulation};
use bookleaf_eos::MaterialTable;
use bookleaf_hydro::getein::WorkVelocity;
use bookleaf_hydro::getforce::{getforce, HourglassControl};
use bookleaf_hydro::getq::{getq, QCoeffs};
use bookleaf_hydro::reference::{getforce_reference, getq_reference};
use bookleaf_hydro::{
    eos_fused, viscforce, EosStages, FusedEos, HydroState, LocalRange, Pass, Threading, ViscForce,
};
use bookleaf_mesh::Mesh;

const DT: f64 = 1e-6;

/// The EOS sweep of `stages`: the predictor's energy update over `DT`.
fn eos_sweep(stages: EosStages) -> FusedEos<'static> {
    FusedEos {
        dt: DT,
        which: WorkVelocity::Current,
        ein_from: None,
        stages,
    }
}

/// The chain's stage `i` alone (0 geometry, 1 density, 2 energy, 3 EoS).
fn one_stage(i: usize) -> EosStages {
    EosStages {
        geom: i == 0,
        rho: i == 1,
        ein: i == 2,
        pc: i == 3,
    }
}

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
    /// The largest entry of `--meshes`: the mesh the pairs are timed on.
    mesh: usize,
    repeats: usize,
    out_path: String,
    check_speedups: bool,
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
    // `HydroState::new` computed the volumes, densities and EoS.
    let range = LocalRange::whole(&mesh);
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

/// The optimised-vs-reference ratios on the Noh deck at mesh `mesh_n`,
/// each the best of `samples` alternating samples per side.
fn measure_speedups(mesh_n: usize, samples: usize) -> Vec<Speedup> {
    let (mesh, materials, st) = prepared_state(mesh_n);
    // Both sides of each pair need the state; the closures are only ever
    // called one at a time, so a RefCell resolves the double borrow.
    let st = std::cell::RefCell::new(st);
    let range = LocalRange::whole(&mesh);
    let n = mesh.n_elements();
    let th = Threading::Serial;

    // Fused EOS sweep vs its four one-stage sweeps (same state, same
    // bits).
    let (chain_s, fused_s) = time_pair_best(
        n,
        samples,
        || {
            let st = &mut *st.borrow_mut();
            for i in 0..4 {
                let stage = eos_sweep(one_stage(i));
                eos_fused(&mesh, &materials, st, range, stage, th).expect("stage");
            }
        },
        || {
            let all = eos_sweep(EosStages::all());
            eos_fused(&mesh, &materials, &mut st.borrow_mut(), range, all, th).expect("fused");
        },
    );

    // SoA force assembly vs the interleaved-row reference.
    let mut aos = Vec::new();
    let (force_ref_s, force_s) = time_pair_best(
        n,
        samples,
        || {
            getforce_reference(
                &mesh,
                &st.borrow(),
                range,
                HourglassControl::default(),
                DT,
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
        samples,
        || {
            getq_reference(&mesh, &mut st.borrow_mut(), range, QCoeffs::default());
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
        samples,
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

fn emit_json(
    out_path: &str,
    host_cores: usize,
    repeats: usize,
    speedups: &[Speedup],
) -> std::io::Result<()> {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"{KERNELS_SCHEMA}\",");
    let _ = writeln!(j, "  \"host_cores\": {host_cores},");
    let _ = writeln!(j, "  \"repeats\": {repeats},");
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
        mesh: 512,
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
                args.mesh = val
                    .split(',')
                    .map(|m| m.trim().parse().expect("--meshes csv of ints"))
                    .max()
                    .expect("--meshes must name a mesh");
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

    // The ratios are this artifact's acceptance gate: two samples of
    // each side per `--repeats`.
    let samples = 2 * args.repeats;
    let speedups = measure_speedups(args.mesh, samples);
    println!(
        "optimised vs reference (serial, Noh {}^2, host cores: {host_cores}, \
         best of {samples} interleaved samples, bitwise-identical outputs):",
        args.mesh
    );
    for s in &speedups {
        println!(
            "  {:<28} {:>9.4}ms -> {:>9.4}ms  {:>6.2}x",
            s.name,
            1e3 * s.baseline_s,
            1e3 * s.optimised_s,
            s.ratio()
        );
    }

    emit_json(&args.out_path, host_cores, args.repeats, &speedups).expect("write BENCH json");
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
