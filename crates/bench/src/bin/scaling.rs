//! Measured **hybrid-vs-flat intra-rank strong scaling** on this host:
//! the first real (non-modeled) BENCH baseline of the repository.
//!
//! Runs Noh and Sod under the hybrid executor at a fixed rank count
//! while sweeping `threads_per_rank` (default 1/2/4 — the paper's §V
//! hybrid axis, with `threads_per_rank = 1` degenerating to flat-MPI
//! kernels), plus a flat-MPI reference at the matching total core
//! count. Reports wall-clock and the **parallelized kernel section**
//! (the sum of the eight hydro kernel timers — the code region the
//! rayon pool actually fans out), and emits everything as
//! `BENCH_scaling.json` for trend tracking and the CI artifact.
//!
//! The speedup that matters (the acceptance bar for the pool rewrite)
//! is `kernel_section(threads=1) / kernel_section(threads=4)` at equal
//! rank count: on a multi-core host it should approach the thread
//! count; on a single-core host (some CI sandboxes) it stays ≈ 1 and
//! the JSON records `host_cores` so readers can tell the difference.
//!
//! Each run also records the team-wide communication counters with the
//! per-phase breakdown of the aggregated halo exchange (`comm.per_phase`
//! — messages, doubles, **recv-wait seconds** and **overlap-window
//! seconds** for `pre_viscosity` / `pre_acceleration` / `post_remap`),
//! the message, byte and latency terms of the cluster cost model.
//!
//! The whole sweep runs once with the overlapped halo exchange and once
//! with the blocking one (`--overlap both`, the default), so the JSON
//! carries an on/off comparison: identical message counts (the overlap
//! changes *when* messages are drained, never how many flow) with the
//! recv-wait attribution showing how much blocking the overlap removed.
//! `--check-overlap on` turns the invariants into hard failures: per
//! configuration, message counts must match between modes and the
//! per-link-per-step count must sit exactly on the PR 3 baseline
//! (3 Lagrangian; a dedicated small ALE pair pins 4).
//!
//! ```text
//! scaling [--problems noh,sod] [--mesh 96] [--final-time 0.02]
//!         [--ranks 1] [--threads 1,2,4] [--repeats 3]
//!         [--overlap on|off|both] [--check-overlap on|off]
//!         [--out BENCH_scaling.json]
//! scaling --validate BENCH_scaling.json
//! ```
//!
//! `--validate` runs no benchmarks: it checks an existing artifact
//! against schema `bookleaf-scaling-v3` (required header keys, the
//! eight per-kernel columns, comm totals and the per-phase breakdown)
//! and exits non-zero on the first violation, naming its JSON path. CI
//! applies it to both the freshly measured file and the committed
//! baseline. The writer also self-validates before touching the output
//! file, so an emitted artifact can never violate its own schema.

use std::fmt::Write as _;

use bookleaf_ale::{AleMode, AleOptions};
use bookleaf_bench::schema::SCALING_SCHEMA;
use bookleaf_core::{decks, Deck, ExecutorKind, RunConfig, Simulation};
use bookleaf_hydro::AccMode;
use bookleaf_mesh::SubMeshPlan;
use bookleaf_partition::{partition, Strategy};
use bookleaf_typhon::CommStats;
use bookleaf_util::{KernelId, TimerReport};

/// The kernels the pool parallelizes — the "kernel section" of the
/// acceptance criterion. (Comms, ALE setup and I/O are excluded; ALE is
/// also parallel now but the default decks run pure Lagrangian.) The
/// EOS chain runs as one fused sweep, so its time lands in the
/// `EosFused` timer instead of its four constituents, so the section
/// must sum all nine buckets to stay comparable with older baselines;
/// likewise viscosity and force now land in the fused `ViscForce`
/// bucket (`GetQ`/`GetForce` read zero in a run).
const PARALLEL_KERNELS: [KernelId; 10] = [
    KernelId::GetDt,
    KernelId::GetQ,
    KernelId::GetForce,
    KernelId::GetAcc,
    KernelId::GetGeom,
    KernelId::GetRho,
    KernelId::GetEin,
    KernelId::GetPc,
    KernelId::EosFused,
    KernelId::ViscForce,
];

fn kernel_section_seconds(rep: &TimerReport) -> f64 {
    PARALLEL_KERNELS.iter().map(|&k| rep.seconds(k)).sum()
}

#[derive(Clone, Copy)]
struct Args {
    mesh: usize,
    final_time: f64,
    ranks: usize,
    repeats: usize,
    run_noh: bool,
    run_sod: bool,
    overlap_on: bool,
    overlap_off: bool,
    check_overlap: bool,
}

struct RunResult {
    label: String,
    executor: &'static str,
    threads_per_rank: usize,
    total_threads: usize,
    /// Was the halo exchange overlapped (split post/complete)?
    overlap: bool,
    wall_s: f64,
    kernel_s: f64,
    per_kernel: Vec<(KernelId, f64)>,
    steps: usize,
    /// Directed neighbour links of this run's partition (Σ over ranks).
    links: usize,
    /// Team-wide communication totals, with the per-phase breakdown of
    /// the aggregated halo exchange (messages, doubles, recv-wait and
    /// overlap-window seconds per phase).
    comm: CommStats,
}

impl RunResult {
    /// Point-to-point messages per directed neighbour link per step —
    /// the PR 3 contract (3 Lagrangian / 4 with an every-step remap).
    fn msgs_per_link_per_step(&self) -> f64 {
        let denom = (self.links * self.steps) as f64;
        if denom > 0.0 {
            self.comm.messages_sent as f64 / denom
        } else {
            0.0
        }
    }
}

/// Total directed neighbour links of a deck's partition at `ranks`,
/// reproduced with the same deterministic RCB decomposition the
/// executor uses.
fn directed_links(deck: &Deck, ranks: usize) -> usize {
    let owner = partition(&deck.mesh, ranks, Strategy::Rcb).expect("partition");
    let subs = SubMeshPlan::build(&deck.mesh, &owner, ranks).expect("submesh");
    subs.iter().map(|s| s.neighbour_ranks().len()).sum()
}

fn deck_for(problem: &str, mesh: usize) -> Deck {
    match problem {
        "noh" => decks::noh(mesh),
        "sod" => decks::sod(mesh, (mesh / 8).max(2)),
        other => panic!("unknown problem {other:?} (expected noh or sod)"),
    }
}

/// Run one configuration `repeats` times; keep the fastest run (the
/// usual strong-scaling convention — least perturbed by the OS).
fn measure(
    problem: &str,
    args: Args,
    executor: ExecutorKind,
    label: String,
    exec_name: &'static str,
    overlap: bool,
) -> RunResult {
    let deck = deck_for(problem, args.mesh);
    let mut config = RunConfig {
        final_time: args.final_time,
        executor,
        overlap,
        ..RunConfig::default()
    };
    let (threads_per_rank, total_threads) = match executor {
        ExecutorKind::Hybrid {
            ranks,
            threads_per_rank,
        } => (threads_per_rank, ranks * threads_per_rank),
        ExecutorKind::FlatMpi { ranks } => (1, ranks),
        ExecutorKind::Serial => (1, 1),
    };
    // The conflict-free gather rewrite is what makes the acceleration
    // kernel threadable (§IV-B); enable it whenever a pool exists. The
    // arithmetic is identical to the serial gather, so baselines stay
    // comparable.
    config.lag.acc_mode = if threads_per_rank > 1 {
        AccMode::GatherParallel
    } else {
        AccMode::GatherSerial
    };

    let ranks = match executor {
        ExecutorKind::Hybrid { ranks, .. } | ExecutorKind::FlatMpi { ranks } => ranks,
        ExecutorKind::Serial => 1,
    };
    let links = directed_links(&deck, ranks);

    let mut best: Option<RunResult> = None;
    for _ in 0..args.repeats.max(1) {
        let out = Simulation::builder()
            .deck(deck.clone())
            .config(config)
            .build()
            .expect("valid deck")
            .run()
            .expect("scaling run failed");
        let kernel_s = kernel_section_seconds(&out.timers);
        let candidate = RunResult {
            label: label.clone(),
            executor: exec_name,
            threads_per_rank,
            total_threads,
            overlap,
            wall_s: out.wall_seconds,
            kernel_s,
            per_kernel: PARALLEL_KERNELS
                .iter()
                .map(|&k| (k, out.timers.seconds(k)))
                .collect(),
            steps: out.steps,
            links,
            comm: out.comm,
        };
        let better = best
            .as_ref()
            .is_none_or(|b| candidate.kernel_s < b.kernel_s);
        if better {
            best = Some(candidate);
        }
    }
    best.expect("at least one repeat")
}

fn json_escape_kernel(k: KernelId) -> String {
    format!("{k:?}").to_lowercase()
}

/// The speedup reference: the *narrowest* hybrid run measured (the
/// overlapped one when both modes ran), so a sweep that omits
/// `--threads 1` still gets meaningful ratios instead of zeros.
fn baseline(runs: &[RunResult]) -> Option<&RunResult> {
    runs.iter()
        .filter(|r| r.executor == "hybrid")
        .min_by_key(|r| (r.threads_per_rank, !r.overlap))
}

fn speedup_vs(base: Option<&RunResult>, r: &RunResult) -> f64 {
    match base {
        Some(b) if r.kernel_s > 0.0 => b.kernel_s / r.kernel_s,
        _ => 0.0,
    }
}

fn emit_json(
    out_path: &str,
    args: Args,
    host_cores: usize,
    problems: &[(String, Vec<RunResult>)],
) -> std::io::Result<()> {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"bookleaf-scaling-v3\",");
    let _ = writeln!(j, "  \"host_cores\": {host_cores},");
    let _ = writeln!(j, "  \"mesh\": {},", args.mesh);
    let _ = writeln!(j, "  \"final_time\": {},", args.final_time);
    let _ = writeln!(j, "  \"ranks\": {},", args.ranks);
    let _ = writeln!(j, "  \"repeats\": {},", args.repeats);
    let _ = writeln!(j, "  \"problems\": [");
    for (pi, (problem, runs)) in problems.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"problem\": \"{problem}\",");
        let _ = writeln!(j, "      \"runs\": [");
        for (ri, r) in runs.iter().enumerate() {
            let _ = writeln!(j, "        {{");
            let _ = writeln!(j, "          \"label\": \"{}\",", r.label);
            let _ = writeln!(j, "          \"executor\": \"{}\",", r.executor);
            let _ = writeln!(j, "          \"threads_per_rank\": {},", r.threads_per_rank);
            let _ = writeln!(j, "          \"total_threads\": {},", r.total_threads);
            let _ = writeln!(j, "          \"overlap\": {},", r.overlap);
            let _ = writeln!(j, "          \"steps\": {},", r.steps);
            let _ = writeln!(j, "          \"links\": {},", r.links);
            let _ = writeln!(j, "          \"wall_s\": {:.6},", r.wall_s);
            let _ = writeln!(j, "          \"kernel_section_s\": {:.6},", r.kernel_s);
            let _ = writeln!(j, "          \"kernels\": {{");
            for (ki, (k, s)) in r.per_kernel.iter().enumerate() {
                let comma = if ki + 1 < r.per_kernel.len() { "," } else { "" };
                let _ = writeln!(
                    j,
                    "            \"{}\": {:.6}{comma}",
                    json_escape_kernel(*k),
                    s
                );
            }
            let _ = writeln!(j, "          }},");
            // Team-wide wire traffic of the kept run, broken down per
            // aggregated exchange phase (the cost model's message and
            // byte terms).
            let _ = writeln!(j, "          \"comm\": {{");
            let _ = writeln!(
                j,
                "            \"messages_sent\": {},",
                r.comm.messages_sent
            );
            let _ = writeln!(j, "            \"doubles_sent\": {},", r.comm.doubles_sent);
            let _ = writeln!(j, "            \"collectives\": {},", r.comm.collectives);
            let _ = writeln!(
                j,
                "            \"msgs_per_link_per_step\": {:.3},",
                r.msgs_per_link_per_step()
            );
            let _ = writeln!(
                j,
                "            \"recv_wait_s\": {:.6},",
                r.comm.recv_wait_seconds
            );
            let _ = writeln!(
                j,
                "            \"overlap_window_s\": {:.6},",
                r.comm.overlap_window_seconds
            );
            let _ = writeln!(j, "            \"per_phase\": {{");
            for (fi, p) in r.comm.phases.iter().enumerate() {
                let comma = if fi + 1 < r.comm.phases.len() {
                    ","
                } else {
                    ""
                };
                let _ = writeln!(
                    j,
                    "              \"{}\": {{ \"messages\": {}, \"doubles\": {}, \
                     \"recv_wait_s\": {:.6}, \"overlap_window_s\": {:.6} }}{comma}",
                    p.name,
                    p.messages_sent,
                    p.doubles_sent,
                    p.recv_wait_seconds,
                    p.overlap_window_seconds
                );
            }
            let _ = writeln!(j, "            }}");
            let _ = writeln!(j, "          }}");
            let comma = if ri + 1 < runs.len() { "," } else { "" };
            let _ = writeln!(j, "        }}{comma}");
        }
        let _ = writeln!(j, "      ],");
        // Speedups of the kernel section relative to the narrowest
        // hybrid configuration measured (threads_per_rank = 1 in the
        // default sweep).
        let base = baseline(runs);
        let _ = writeln!(
            j,
            "      \"speedup_baseline_threads_per_rank\": {},",
            base.map_or(0, |b| b.threads_per_rank)
        );
        let _ = writeln!(j, "      \"kernel_section_speedup_vs_baseline\": {{");
        // Speedups track the baseline's own overlap mode so the map has
        // one entry per thread count even when both modes were swept.
        let hybrid: Vec<&RunResult> = runs
            .iter()
            .filter(|r| r.executor == "hybrid" && base.is_none_or(|b| r.overlap == b.overlap))
            .collect();
        for (hi, r) in hybrid.iter().enumerate() {
            let comma = if hi + 1 < hybrid.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "        \"{}\": {:.3}{comma}",
                r.threads_per_rank,
                speedup_vs(base, r)
            );
        }
        let _ = writeln!(j, "      }}");
        let comma = if pi + 1 < problems.len() { "," } else { "" };
        let _ = writeln!(j, "    }}{comma}");
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    // The writer can never emit an artifact that violates its own
    // schema contract.
    if let Err(message) = bookleaf_bench::schema::validate_scaling_json(&j) {
        panic!("emitted JSON violates {SCALING_SCHEMA}: {message}");
    }
    std::fs::write(out_path, j)
}

fn parse_args() -> (Args, Vec<usize>, String) {
    let mut args = Args {
        mesh: 96,
        final_time: 0.02,
        ranks: 1,
        repeats: 3,
        run_noh: true,
        run_sod: true,
        overlap_on: true,
        overlap_off: true,
        check_overlap: false,
    };
    let mut threads = vec![1, 2, 4];
    let mut out_path = "BENCH_scaling.json".to_string();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        let val = argv.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {key}");
            std::process::exit(2);
        });
        match key {
            "--mesh" => args.mesh = val.parse().expect("--mesh N"),
            "--final-time" => args.final_time = val.parse().expect("--final-time T"),
            "--ranks" => args.ranks = val.parse().expect("--ranks N"),
            "--repeats" => args.repeats = val.parse().expect("--repeats N"),
            "--threads" => {
                threads = val
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads csv of ints"))
                    .collect();
            }
            "--problems" => {
                args.run_noh = false;
                args.run_sod = false;
                for p in val.split(',').map(str::trim) {
                    match p {
                        "noh" => args.run_noh = true,
                        "sod" => args.run_sod = true,
                        other => {
                            eprintln!("unknown problem {other:?} (expected noh and/or sod)");
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--overlap" => match val.as_str() {
                "on" => {
                    args.overlap_on = true;
                    args.overlap_off = false;
                }
                "off" => {
                    args.overlap_on = false;
                    args.overlap_off = true;
                }
                "both" => {
                    args.overlap_on = true;
                    args.overlap_off = true;
                }
                other => {
                    eprintln!("--overlap must be on, off or both (got {other:?})");
                    std::process::exit(2);
                }
            },
            "--check-overlap" => match val.as_str() {
                "on" => args.check_overlap = true,
                "off" => args.check_overlap = false,
                other => {
                    eprintln!("--check-overlap must be on or off (got {other:?})");
                    std::process::exit(2);
                }
            },
            "--out" => out_path = val.clone(),
            "--validate" => {
                let text = std::fs::read_to_string(val).unwrap_or_else(|e| {
                    eprintln!("cannot read {val}: {e}");
                    std::process::exit(2);
                });
                match bookleaf_bench::schema::validate_scaling_json(&text) {
                    Ok(()) => {
                        println!("{val}: valid {} ", bookleaf_bench::schema::SCALING_SCHEMA);
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
    (args, threads, out_path)
}

fn main() {
    let (args, threads, out_path) = parse_args();
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("Intra-rank strong scaling (work-stealing rayon shim)");
    println!(
        "host cores: {host_cores} | mesh {0}x{0}-ish | t_final {1} | ranks {2} | best of {3}",
        args.mesh, args.final_time, args.ranks, args.repeats
    );
    println!("{}", "=".repeat(76));

    let mut problems: Vec<(String, Vec<RunResult>)> = Vec::new();
    let selected: Vec<&str> = [("noh", args.run_noh), ("sod", args.run_sod)]
        .into_iter()
        .filter_map(|(p, on)| on.then_some(p))
        .collect();

    let modes: Vec<bool> = [(true, args.overlap_on), (false, args.overlap_off)]
        .into_iter()
        .filter_map(|(mode, on)| on.then_some(mode))
        .collect();
    if modes.is_empty() {
        eprintln!("nothing to run: both overlap modes disabled");
        std::process::exit(2);
    }

    for problem in selected {
        println!("--- {problem} ---");
        println!(
            "{:<28} {:>8} {:>11} {:>11} {:>10} {:>8}",
            "configuration", "steps", "wall (s)", "kernels (s)", "wait (s)", "speedup"
        );
        let mut runs: Vec<RunResult> = Vec::new();
        for &overlap in &modes {
            let suffix = if overlap { "" } else { " (no-overlap)" };
            for &t in &threads {
                let label = format!("hybrid {}x{t}{suffix}", args.ranks);
                let r = measure(
                    problem,
                    args,
                    ExecutorKind::Hybrid {
                        ranks: args.ranks,
                        threads_per_rank: t,
                    },
                    label,
                    "hybrid",
                    overlap,
                );
                runs.push(r);
            }
            // Flat-MPI at the same total core count as the widest hybrid,
            // the paper's §V comparison axis.
            let max_threads = threads.iter().copied().max().unwrap_or(1);
            let flat_ranks = args.ranks * max_threads;
            runs.push(measure(
                problem,
                args,
                ExecutorKind::FlatMpi { ranks: flat_ranks },
                format!("flat-mpi x{flat_ranks}{suffix}"),
                "flat_mpi",
                overlap,
            ));
        }

        let base = baseline(&runs).map(|b| (b.label.clone(), b.kernel_s));
        for r in &runs {
            let speedup = match &base {
                Some((_, b)) if r.kernel_s > 0.0 => b / r.kernel_s,
                _ => 0.0,
            };
            println!(
                "{:<28} {:>8} {:>11.4} {:>11.4} {:>10.4} {:>7.2}x",
                r.label, r.steps, r.wall_s, r.kernel_s, r.comm.recv_wait_seconds, speedup
            );
        }
        if let Some((label, _)) = &base {
            println!("(speedup baseline: {label})");
        }
        if let Some(r) = runs.last() {
            let phases: Vec<String> = r
                .comm
                .phases
                .iter()
                .map(|p| {
                    format!(
                        "{} {} msg / {} dbl / {:.4}s wait",
                        p.name, p.messages_sent, p.doubles_sent, p.recv_wait_seconds
                    )
                })
                .collect();
            println!(
                "comm ({}): {} messages ({:.1}/link/step), {} doubles, \
                 {:.4}s recv-wait, {:.4}s overlap window [{}]",
                r.label,
                r.comm.messages_sent,
                r.msgs_per_link_per_step(),
                r.comm.doubles_sent,
                r.comm.recv_wait_seconds,
                r.comm.overlap_window_seconds,
                phases.join("; ")
            );
        }
        problems.push((problem.to_string(), runs));
    }

    emit_json(&out_path, args, host_cores, &problems).expect("write BENCH json");
    println!("{}", "=".repeat(76));
    println!("wrote {out_path}");

    if args.check_overlap {
        let failures = check_overlap_invariants(args, &problems);
        if !failures.is_empty() {
            eprintln!("overlap invariant check FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        println!("overlap invariant check passed");
    }
}

/// The hard invariants of the overlapped exchange, as CI gates:
///
/// 1. for every configuration measured in both modes, the message and
///    double counts are identical — overlap changes *when* receives
///    drain, never what flows;
/// 2. every Lagrangian run sits exactly on the PR 3 baseline of
///    3 messages per directed link per step;
/// 3. a dedicated small ALE pair (remap every step) sits exactly on 4,
///    again identically in both modes.
fn check_overlap_invariants(args: Args, problems: &[(String, Vec<RunResult>)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (problem, runs) in problems {
        for r in runs {
            if r.links > 0 && (r.msgs_per_link_per_step() - 3.0).abs() > 1e-9 {
                failures.push(format!(
                    "{problem} / {}: {:.3} messages per link per step (expected exactly 3)",
                    r.label,
                    r.msgs_per_link_per_step()
                ));
            }
        }
        for a in runs.iter().filter(|r| r.overlap) {
            let base_label = a.label.clone();
            if let Some(b) = runs
                .iter()
                .find(|r| !r.overlap && r.label == format!("{base_label} (no-overlap)"))
            {
                if a.comm.messages_sent != b.comm.messages_sent
                    || a.comm.doubles_sent != b.comm.doubles_sent
                {
                    failures.push(format!(
                        "{problem} / {}: overlap on/off traffic differs \
                         ({} vs {} msgs, {} vs {} dbls)",
                        a.label,
                        a.comm.messages_sent,
                        b.comm.messages_sent,
                        a.comm.doubles_sent,
                        b.comm.doubles_sent
                    ));
                }
            }
        }
    }

    // ALE pair: remap every step at a deliberately small size — the
    // point is the message accounting (4 per link per step), not time.
    if args.ranks >= 2 {
        let deck = decks::sod(24, 3);
        let links = directed_links(&deck, args.ranks);
        let mut counts = Vec::new();
        for overlap in [true, false] {
            let config = RunConfig {
                final_time: 0.005,
                ale: Some(AleOptions {
                    mode: AleMode::Eulerian,
                    frequency: 1,
                }),
                executor: ExecutorKind::FlatMpi { ranks: args.ranks },
                overlap,
                ..RunConfig::default()
            };
            let out = Simulation::builder()
                .deck(deck.clone())
                .config(config)
                .build()
                .expect("valid deck")
                .run()
                .expect("ALE check run failed");
            let per_link_step = out.comm.messages_sent as f64 / (links * out.steps) as f64;
            if (per_link_step - 4.0).abs() > 1e-9 {
                failures.push(format!(
                    "ALE (overlap={overlap}): {per_link_step:.3} messages per link \
                     per step (expected exactly 4)"
                ));
            }
            counts.push(out.comm.messages_sent);
        }
        if counts[0] != counts[1] {
            failures.push(format!(
                "ALE: overlap on/off message counts differ ({} vs {})",
                counts[0], counts[1]
            ));
        }
    } else {
        println!("(ALE link check skipped: needs --ranks >= 2)");
    }
    failures
}
