//! In-process runs of a deck through the public `Simulation` API, with
//! the harness's spans around each call: the traced pass, its untraced
//! twin (the difference is the tracing overhead), and the reference
//! runs the output checks compare the CLI and the server against.

use std::path::Path;

use bookleaf::serve::state_crc;
use bookleaf::util::KernelId;
use bookleaf::validate::{noh, norms};
use bookleaf::{InputDeck, RunReport, Simulation};

use crate::results::WorkloadResult;
use crate::stats;
use crate::trace::Tracer;

/// How the run loop is driven.
#[derive(Debug, Clone, Copy)]
pub enum Stepping<'a> {
    /// One `run_segment` to completion.
    Whole,
    /// A `run_segment(1)` loop, one span per step (serial decks only:
    /// a distributed engine re-launches its team on every call), with
    /// a `checkpoint_to(path)` after every `every`-th step but the
    /// last — where `bookleaf run --checkpoint-every` writes them.
    PerStep {
        checkpoint: Option<(usize, &'a Path)>,
    },
}

#[derive(Debug)]
pub struct InProc {
    pub sim: Simulation,
    pub report: RunReport,
    pub crc: u32,
    /// Duration of the root `run` span.
    pub wall_s: f64,
}

/// Parse, build and run `text` to completion under `tracer`:
/// `run` → `core.input.parse` → `core.scenario.build` → `core.sim.build`
/// → `core.sim.run_segment`×N (→ `core.sim.checkpoint_to`) →
/// `serve.state_crc`.
pub fn run_deck(text: &str, stepping: Stepping<'_>, tracer: &mut Tracer) -> Result<InProc, String> {
    let root = tracer.begin("run");
    let span = tracer.begin("core.input.parse");
    let input = text.parse::<InputDeck>();
    tracer.end(span);
    let input = input.map_err(|e| format!("deck does not parse: {e}"))?;

    let span = tracer.begin("core.scenario.build");
    let deck = input.build_deck();
    tracer.end(span);
    let deck = deck.map_err(|e| format!("deck does not build: {e}"))?;

    let span = tracer.begin("core.sim.build");
    let sim = Simulation::builder()
        .deck(deck)
        .config(input.run_config())
        .build();
    tracer.end(span);
    let mut sim = sim.map_err(|e| format!("simulation does not build: {e}"))?;

    let segment = match stepping {
        Stepping::Whole => usize::MAX,
        Stepping::PerStep { .. } => 1,
    };
    let report = loop {
        let span = tracer.begin("core.sim.run_segment");
        let report = sim.run_segment(segment);
        tracer.end(span);
        let report = report.map_err(|e| format!("run failed: {e}"))?;
        if sim.complete() {
            break report;
        }
        if let Stepping::PerStep {
            checkpoint: Some((every, path)),
        } = stepping
        {
            if report.steps % every.max(1) == 0 {
                let span = tracer.begin("core.sim.checkpoint_to");
                let written = sim.checkpoint_to(path);
                tracer.end(span);
                written.map_err(|e| format!("checkpoint failed: {e}"))?;
            }
        }
    };

    let span = tracer.begin("serve.state_crc");
    let crc = state_crc(&sim);
    tracer.end(span);
    let wall_s = tracer.end(root) * 1e-6;
    Ok(InProc {
        sim,
        report,
        crc,
        wall_s,
    })
}

/// An untraced reference run: what the CLI and the server must match.
pub fn reference(text: &str) -> Result<InProc, String> {
    run_deck(text, Stepping::Whole, &mut Tracer::new(false))
}

/// Volume-weighted L1 density error of a finished Noh run against the
/// exact solution, over elements whose centroid lies within r < 0.45
/// (outside it the reflecting walls of the unit square contaminate the
/// converging flow). Volumes come from the node positions: the
/// assembled view of a distributed run does not carry `state.volume`.
pub fn noh_l1_rho_err(run: &InProc) -> f64 {
    let (mesh, state) = (run.sim.mesh(), run.sim.state());
    let (mut computed, mut exact, mut weights) = (Vec::new(), Vec::new(), Vec::new());
    for e in 0..mesh.n_elements() {
        let c = mesh.corners(e);
        let centroid = (c[0] + c[1] + c[2] + c[3]) * 0.25;
        let r = centroid.x.hypot(centroid.y);
        if r < 0.45 {
            // Shoelace area of the quadrilateral from its diagonals.
            let (d1, d2) = (c[2] - c[0], c[3] - c[1]);
            computed.push(state.rho[e]);
            exact.push(noh::exact(r, run.report.time).rho);
            weights.push(0.5 * (d1.x * d2.y - d1.y * d2.x).abs());
        }
    }
    norms::l1_error(&computed, &exact, &weights)
}

/// The five hydro kernels the per-layer table names, as timer buckets.
const KERNEL_SHARES: [(&str, KernelId); 5] = [
    ("hydro.getdt.share", KernelId::GetDt),
    ("hydro.getq.share", KernelId::GetQ),
    ("hydro.getforce.share", KernelId::GetForce),
    ("hydro.getacc.share", KernelId::GetAcc),
    ("hydro.eos_fused.share", KernelId::EosFused),
];

/// Per-layer metrics that come straight from fields `RunReport`
/// already has: timer shares and the comm counters.
pub fn report_metrics(report: &RunReport, out: &mut WorkloadResult) {
    let wall = report.wall_seconds.max(f64::MIN_POSITIVE);
    let timers = &report.timers;
    for (name, id) in KERNEL_SHARES {
        out.layer(name, timers.seconds(id) / wall);
    }
    let kernel_section: f64 = KernelId::ALL
        .iter()
        .filter(|id| !matches!(id, KernelId::Ale | KernelId::Comms | KernelId::Other))
        .map(|&id| timers.seconds(id))
        .sum();
    out.layer("hydro.kernel_section.share", kernel_section / wall);
    out.layer("ale.share", timers.seconds(KernelId::Ale) / wall);
    out.layer(
        "core.sim.unattributed_frac",
        1.0 - timers.total_seconds() / wall,
    );

    let comm = &report.comm;
    // Without typhon traffic the Comms bucket holds nothing but the
    // timer's own cost around the serial no-op hooks.
    let typhon_ran = comm.messages_sent + comm.collectives > 0;
    out.layer(
        "typhon.comms.share",
        if typhon_ran {
            timers.seconds(KernelId::Comms) / wall
        } else {
            0.0
        },
    );
    let steps = report.steps.max(1) as f64;
    // Directed links: each of `ranks` parts talks to the other
    // `ranks - 1`. (The workloads have at most two ranks, where every
    // part neighbours every other.)
    let links = (report.ranks * report.ranks.saturating_sub(1)) as f64;
    out.layer(
        "typhon.msgs_per_link_step",
        if links > 0.0 {
            comm.messages_sent as f64 / links / steps
        } else {
            0.0
        },
    );
    out.layer("typhon.doubles_per_step", comm.doubles_sent as f64 / steps);
    out.layer(
        "typhon.collectives_per_step",
        comm.collectives as f64 / steps,
    );
    out.layer("typhon.recv_wait_s", comm.recv_wait_seconds);
    out.layer("typhon.overlap_window_s", comm.overlap_window_seconds);
    for (metric, phase) in [
        ("typhon.pre_viscosity.recv_wait_s", "pre_viscosity"),
        ("typhon.pre_acceleration.recv_wait_s", "pre_acceleration"),
    ] {
        out.layer(
            metric,
            comm.phase(phase).map_or(0.0, |p| p.recv_wait_seconds),
        );
    }
}

/// p50/p99 of the per-step spans of [`Stepping::PerStep`] runs, ms.
pub fn step_percentiles_ms(tracer: &Tracer) -> (f64, f64) {
    let steps_ms: Vec<f64> = tracer
        .durations_us("core.sim.run_segment")
        .iter()
        .map(|us| us * 1e-3)
        .collect();
    let sorted = stats::sorted(&steps_ms);
    (
        stats::percentile(&sorted, 0.50),
        stats::percentile(&sorted, 0.99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decks::{run_deck as render, Scale};
    use crate::spec;
    use crate::trace::self_times_us;

    #[test]
    fn traced_run_has_the_documented_span_tree_and_matches_untraced_bits() {
        let deck = render(spec::NOH_SERIAL, 1, Scale::SMOKE);
        let mut tracer = Tracer::new(true);
        let stepping = Stepping::PerStep { checkpoint: None };
        let traced = run_deck(&deck.text, stepping, &mut tracer).unwrap();
        let plain = reference(&deck.text).unwrap();
        assert_eq!(traced.crc, plain.crc, "observation is bitwise invisible");
        assert_eq!(traced.report.time.to_bits(), plain.report.time.to_bits());
        assert_eq!(traced.report.steps, deck.steps);

        let spans = tracer.spans();
        assert_eq!(spans[0].name, "run");
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            &names[..4],
            [
                "run",
                "core.input.parse",
                "core.scenario.build",
                "core.sim.build"
            ]
        );
        assert_eq!(
            tracer.durations_us("core.sim.run_segment").len(),
            deck.steps
        );
        assert_eq!(names.last(), Some(&"serve.state_crc"));
        let self_us = self_times_us(spans);
        let total: f64 = self_us.values().sum();
        assert!((total - spans[0].duration_us()).abs() < 1e-6 * total);
        let (p50, p99) = step_percentiles_ms(&tracer);
        assert!(p50 > 0.0 && p99 >= p50);
    }

    #[test]
    fn serial_noh_reports_zero_comms_and_ale_and_a_small_l1_error() {
        let deck = render(spec::NOH_SERIAL, 2, Scale::SMOKE);
        let run = reference(&deck.text).unwrap();
        let mut out = WorkloadResult::new(spec::NOH_SERIAL);
        report_metrics(&run.report, &mut out);
        for (name, values) in &out.per_layer {
            if name.starts_with("typhon.") || name.starts_with("ale.") {
                assert_eq!(values, &[0.0], "{name}");
            }
        }
        assert!(out.per_layer["hydro.kernel_section.share"][0] > 0.5);
        let err = noh_l1_rho_err(&run);
        assert!(err > 0.0 && err < spec::NOH_L1_CEILING_SMOKE, "{err}");
    }

    #[test]
    fn flat_mpi_sends_exactly_three_messages_per_link_per_step() {
        let deck = render(spec::NOH_FLAT2, 3, Scale::SMOKE);
        let run = reference(&deck.text).unwrap();
        let mut out = WorkloadResult::new(spec::NOH_FLAT2);
        report_metrics(&run.report, &mut out);
        assert_eq!(out.per_layer["typhon.msgs_per_link_step"], [3.0]);
        assert!(out.per_layer["typhon.doubles_per_step"][0] > 0.0);
        let serial = reference(&render(spec::NOH_SERIAL, 3, Scale::SMOKE).text).unwrap();
        assert_eq!(run.report.time.to_bits(), serial.report.time.to_bits());
    }

    #[test]
    fn checkpointed_stepping_writes_a_resumable_file() {
        let deck = render(spec::SEDOV_ALE_CKPT, 1, Scale::SMOKE);
        let dir =
            std::env::temp_dir().join(format!("bookleaf-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sedov.ckpt");
        let mut tracer = Tracer::new(true);
        let stepping = Stepping::PerStep {
            checkpoint: Some((spec::CHECKPOINT_EVERY, &path)),
        };
        let run = run_deck(&deck.text, stepping, &mut tracer).unwrap();
        assert_eq!(run.report.steps, deck.steps);
        assert_eq!(
            tracer.durations_us("core.sim.run_segment").len(),
            deck.steps
        );
        assert_eq!(tracer.durations_us("core.sim.checkpoint_to").len(), 1);
        let ckpt = bookleaf::Checkpoint::read_from(&path).unwrap();
        assert_eq!(ckpt.snap.n_elements(), deck.elements);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
