//! The four `bookleaf run` workloads: the untraced pass through the
//! real CLI, and the traced in-process pass with its layer probes.

use std::time::Instant;

use crate::decks::{self, RunDeck, Scale};
use crate::inproc::{self, InProc, Stepping};
use crate::probes::{self, Effort, KernelBench};
use crate::proc::{run_cli, CliRun, Digest, Env, OneCpu};
use crate::results::WorkloadResult;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;

/// What one invocation was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long the measured part of a pass runs.
    pub seconds: f64,
    /// 32^2 meshes, 10 steps, 200 requests, 1 repeat.
    pub smoke: bool,
}

impl Options {
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }

    pub fn effort(&self) -> Effort {
        if self.smoke {
            Effort::SMOKE
        } else {
            Effort::FULL
        }
    }

    /// Timed repeats a pass makes at the least.
    pub fn min_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Tally one CLI invocation: attempted, and failed unless it exited 0
/// with a digest reporting `want_steps`.
fn tally<'a>(
    out: &mut WorkloadResult,
    run: &'a CliRun,
    want_steps: usize,
    problems: &mut Vec<String>,
) -> Option<&'a Digest> {
    out.attempted += 1;
    match &run.digest {
        Ok(d) if d.steps == want_steps => Some(d),
        Ok(d) => {
            out.failed += 1;
            problems.push(format!(
                "digest reports {} steps, expected {want_steps}",
                d.steps
            ));
            None
        }
        Err(e) => {
            out.failed += 1;
            problems.push(e.clone());
            None
        }
    }
}

/// End-to-end numbers through the CLI, tracing off.
pub fn untraced(workload: &str, opts: Options, env: &Env) -> Result<WorkloadResult, String> {
    let mut out = WorkloadResult::new(workload);
    let deck = decks::run_deck(workload, opts.seed, opts.scale());
    let deck_path = env.work.join(format!("{workload}.deck"));
    std::fs::write(&deck_path, &deck.text).map_err(|e| format!("{}: {e}", deck_path.display()))?;
    let deck_arg = deck_path.to_str().ok_or("work directory is not UTF-8")?;
    let ckpt_path = env.work.join(format!("{workload}.ckpt"));
    let ckpt_arg = ckpt_path.to_str().ok_or("work directory is not UTF-8")?;
    let every = spec::CHECKPOINT_EVERY.to_string();
    let checkpointed = workload == spec::SEDOV_ALE_CKPT;
    let lagrangian = !checkpointed;
    let mut problems = Vec::new();

    let first_leg: Vec<&str> = if checkpointed {
        vec![
            "run",
            deck_arg,
            "--checkpoint-every",
            &every,
            "--checkpoint-to",
            ckpt_arg,
        ]
    } else {
        vec!["run", deck_arg]
    };
    let mut digests: Vec<Digest> = Vec::new();
    let mut resumed: Vec<Digest> = Vec::new();
    let mut max_drift = 0.0f64;
    // Every child started from here to the end of the loop runs on one
    // CPU (see `OneCpu`); the in-process runs behind the checks below
    // have both again.
    let one_cpu = OneCpu::pin();
    let mut started = Instant::now();
    let mut repeat = 0;
    loop {
        // Repeat 0 is the warm-up: checked like the rest, never timed.
        let warm_up = repeat == 0;
        // Set-up alone: exec, parse, mesh, partition, plan, state init,
        // team spin-up, digest — everything but a step. One sample per
        // repeat, so that a stretch in which the host is slow takes the
        // same share of these samples as of the others.
        let run = run_cli(&env.cli, &["run", deck_arg, "--max-steps", "0"], false);
        if tally(&mut out, &run, 0, &mut problems).is_some() && !warm_up {
            out.e2e("setup_s", run.wall_s);
        }
        let run = run_cli(&env.cli, &first_leg, true);
        if let Some(d) = tally(&mut out, &run, deck.steps, &mut problems) {
            max_drift = max_drift.max(d.energy_drift);
            if !warm_up {
                out.e2e("wall_s", run.wall_s);
                out.e2e(
                    "grind_ns",
                    d.wall_ms * 1e6 / (deck.elements * deck.steps) as f64,
                );
                if let Some(mb) = run.peak_rss_mb {
                    out.e2e("peak_rss_mb", mb);
                }
                out.counts
                    .entry("steps".into())
                    .or_default()
                    .push(d.steps as f64);
            }
            digests.push(d.clone());
        }
        if checkpointed {
            let run = run_cli(&env.cli, &["run", deck_arg, "--resume", ckpt_arg], false);
            if let Some(d) = tally(&mut out, &run, deck.steps, &mut problems) {
                if !warm_up {
                    out.e2e("resume_s", run.wall_s);
                }
                resumed.push(d.clone());
            }
        }
        if warm_up {
            started = Instant::now();
        }
        repeat += 1;
        if repeat > opts.min_repeats() && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    drop(one_cpu);

    out.check(
        "exit_status_and_steps",
        problems.is_empty(),
        if problems.is_empty() {
            format!(
                "{} CLI runs exited 0 with the expected step count",
                out.attempted
            )
        } else {
            problems.join("; ")
        },
    );
    let Some(first) = digests.first().cloned() else {
        out.check("state_crc_repeatable", false, "no run produced a digest");
        return Ok(out);
    };
    if lagrangian {
        out.check(
            "energy_drift",
            max_drift <= 1e-12,
            format!("max |energy drift| {max_drift:.3e} (limit 1e-12)"),
        );
    }
    out.check(
        "state_crc_repeatable",
        digests
            .iter()
            .all(|d| d.state_crc == first.state_crc && d.time_bits == first.time_bits),
        format!(
            "state_crc {} time_bits {} on all {} runs",
            first.state_crc,
            first.time_bits,
            digests.len()
        ),
    );

    let reference = inproc::reference(&deck.text)?;
    out.check(
        "cli_matches_inprocess",
        reference.crc == first.state_crc,
        format!(
            "CLI state_crc {} vs serve::state_crc of the in-process run {}",
            first.state_crc, reference.crc
        ),
    );
    if workload.starts_with("noh_") {
        noh_checks(workload, opts, &reference, &mut out)?;
    }
    if checkpointed {
        let bitwise = !resumed.is_empty()
            && resumed
                .iter()
                .all(|d| d.state_crc == first.state_crc && d.time_bits == first.time_bits);
        let seen = resumed
            .first()
            .map_or("no resume leg finished".to_string(), |d| {
                format!("resumed crc {} time_bits {}", d.state_crc, d.time_bits)
            });
        // Known to fail on the seed for ALE decks (the same deck
        // without [ale] resumes bitwise): recorded, not gating, so the
        // fix is a later, measurable change.
        out.known_failing(
            "resume_bitwise",
            bitwise,
            format!(
                "{seen} vs uninterrupted crc {} time_bits {}",
                first.state_crc, first.time_bits
            ),
        );
    }
    Ok(out)
}

/// The Noh-only checks: error against the exact solution, and (for the
/// distributed rows) agreement with the serial run of the same mesh.
fn noh_checks(
    workload: &str,
    opts: Options,
    reference: &InProc,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let err = inproc::noh_l1_rho_err(reference);
    out.e2e("l1_rho_err", err);
    let ceiling = if opts.smoke {
        spec::NOH_L1_CEILING_SMOKE
    } else {
        spec::NOH_L1_CEILING
    };
    out.check(
        "l1_rho_err",
        err.is_finite() && err <= ceiling,
        format!("L1 density error {err:.6e} (ceiling {ceiling:.3e})"),
    );
    if workload != spec::NOH_SERIAL {
        let serial =
            inproc::reference(&decks::run_deck(spec::NOH_SERIAL, opts.seed, opts.scale()).text)?;
        let (a, b) = (reference.report.energy_end, serial.report.energy_end);
        let rel = ((a - b) / b).abs();
        out.check(
            "matches_serial",
            reference.report.time.to_bits() == serial.report.time.to_bits() && rel <= 1e-12,
            format!(
                "time_bits 0x{:016x} vs serial 0x{:016x}; energy_end differs by {rel:.3e} relative",
                reference.report.time.to_bits(),
                serial.report.time.to_bits()
            ),
        );
    }
    Ok(())
}

/// Per-layer numbers: traced in-process runs of the same deck (each
/// paired with an untraced twin), then the layer probes.
pub fn traced(
    workload: &str,
    opts: Options,
    env: &Env,
    tracer: &mut Tracer,
) -> Result<WorkloadResult, String> {
    let mut out = WorkloadResult::new(workload);
    let deck = decks::run_deck(workload, opts.seed, opts.scale());
    let ckpt_path = env.work.join(format!("{workload}.traced.ckpt"));
    let serial_engine = deck.ranks == 0;
    let stepping = match workload {
        spec::SEDOV_ALE_CKPT => Stepping::PerStep {
            checkpoint: Some((spec::CHECKPOINT_EVERY, &ckpt_path)),
        },
        _ if serial_engine => Stepping::PerStep { checkpoint: None },
        _ => Stepping::Whole,
    };

    let started = Instant::now();
    let (min_pairs, max_pairs) = if opts.smoke { (1, 1) } else { (2, 12) };
    let mut last: Option<InProc> = None;
    let mut loop_seconds = Vec::new();
    let mut invisible = true;
    let mut pair = 0;
    while pair < min_pairs
        || (pair < max_pairs && started.elapsed().as_secs_f64() < 0.4 * opts.seconds)
    {
        // Alternate which twin runs first, so drift favours neither.
        let mut plain = None;
        if pair % 2 == 0 {
            plain = Some(inproc::run_deck(
                &deck.text,
                stepping,
                &mut Tracer::new(false),
            )?);
        }
        let with_spans = inproc::run_deck(&deck.text, stepping, tracer)?;
        let plain = match plain {
            Some(plain) => plain,
            None => inproc::run_deck(&deck.text, stepping, &mut Tracer::new(false))?,
        };
        out.attempted += 2;
        out.layer(
            "bench.trace_overhead_frac",
            (with_spans.wall_s - plain.wall_s) / plain.wall_s,
        );
        invisible &= with_spans.crc == plain.crc && with_spans.report.steps == deck.steps;
        out.counts
            .entry("steps".into())
            .or_default()
            .push(with_spans.report.steps as f64);
        inproc::report_metrics(&with_spans.report, &mut out);
        loop_seconds.push(with_spans.report.wall_seconds);
        last = Some(with_spans);
        pair += 1;
    }
    let run = last.expect("at least one pair ran");
    out.check(
        "tracing_bitwise_invisible",
        invisible,
        format!(
            "{pair} traced runs and their untraced twins: state_crc {} after {} steps",
            run.crc, run.report.steps
        ),
    );
    if serial_engine {
        let (p50, p99) = inproc::step_percentiles_ms(tracer);
        out.layer("core.sim.step_ms_p50", p50);
        out.layer("core.sim.step_ms_p99", p99);
    }
    if matches!(workload, spec::NOH_FLAT2 | spec::NOH_HYBRID2) {
        let serial =
            inproc::reference(&decks::run_deck(spec::NOH_SERIAL, opts.seed, opts.scale()).text)?;
        let speedup = serial.report.wall_seconds / stats::median(&loop_seconds);
        out.layer("bench.speedup", speedup);
        // Both distributed rows put two hardware threads to work.
        out.layer("bench.parallel_efficiency", speedup / 2.0);
    }

    let effort = opts.effort();
    probes::util(effort, tracer, &mut out);
    probes::core_setup(&deck.text, effort, tracer, &mut out)?;
    probes::mesh_and_partition(&deck.text, deck.ranks, effort, tracer, &mut out)?;
    let bench = KernelBench::from_run(&run)?;
    probes::hydro_kernels(&bench, effort, tracer, &mut out);
    layer_probes_of(
        workload, &deck, &run, &bench, &ckpt_path, effort, tracer, &mut out,
    )?;
    Ok(out)
}

/// The probes only one workload exercises; everywhere else the layer
/// reads its exact zero.
#[allow(clippy::too_many_arguments)]
fn layer_probes_of(
    workload: &str,
    deck: &RunDeck,
    run: &InProc,
    bench: &KernelBench,
    ckpt_path: &std::path::Path,
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    match workload {
        spec::NOH_SERIAL => probes::core_observation(&deck.text, effort, tracer, out),
        spec::NOH_FLAT2 => {
            probes::core_overlap(&deck.text, effort, tracer, out)?;
            probes::typhon(effort, tracer, out)
        }
        spec::NOH_HYBRID2 => probes::hydro_fork_join(effort, tracer, out),
        spec::SEDOV_ALE_CKPT => {
            probes::ale_remap(bench, run, effort, tracer, out)?;
            probes::core_checkpoint(run, ckpt_path, effort, tracer, out)
        }
        other => Err(format!("{other} is not a run workload")),
    }
}
