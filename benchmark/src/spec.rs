//! The benchmark's catalogue: workloads, metrics, units, bounds and the
//! reason each exists. `benchmark list` prints it, `BENCHMARK.json`
//! repeats it, and a unit test keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `bookleaf run <deck>` through the real CLI binary.
    Run,
    /// An in-process `serve::Server` driven over real TCP.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One line; the same text as `BENCHMARK.json`'s `why`.
    pub why: &'static str,
}

pub const NOH_SERIAL: &str = "noh_serial";
pub const NOH_FLAT2: &str = "noh_flat2";
pub const NOH_HYBRID2: &str = "noh_hybrid2";
pub const SEDOV_ALE_CKPT: &str = "sedov_ale_ckpt";
pub const SERVE_MIX: &str = "serve_mix";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: NOH_SERIAL,
        kind: Kind::Run,
        why: "Noh ~256^2 Lagrangian, model=serial, 20 steps via the CLI: the single-threaded baseline (paper Table II); kernels >90% of wall, comms and ALE exactly zero.",
    },
    Workload {
        name: NOH_FLAT2,
        kind: Kind::Run,
        why: "Same deck, model=flat_mpi ranks=2, default overlap: typhon halo exchange, collectives, partition/SubMeshPlan/HaloPlan setup and the _subset overlap kernels only work here.",
    },
    Workload {
        name: NOH_HYBRID2,
        kind: Kind::Run,
        why: "Same deck, model=hybrid ranks=1 threads_per_rank=2: the same kernels through Threading::Rayon and the fork-join pool; shows a change that helps serial loops but hurts the split.",
    },
    Workload {
        name: SEDOV_ALE_CKPT,
        kind: Kind::Run,
        why: "Sedov ~192^2 Eulerian ALE every step, serial, 30 steps, --checkpoint-every 10, then --resume of the last checkpoint: the only workload where ale and checkpoint write/read do work.",
    },
    Workload {
        name: SERVE_MIX,
        kind: Kind::Serve,
        why: "In-process Server (2 workers), closed loop, 2 clients, blocks of 1000 POST /run of 64..144-element decks x 12 steps, 70% from 8 hot decks, 30% seed-unique: setup-heavy, deck cache hit vs miss.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Nominal step counts, cut from the issue's 200 / 300 to fit the
/// driver's wall-clock cap; meshes were left alone.
pub const NOH_STEPS: usize = 20;
pub const SEDOV_STEPS: usize = 30;
pub const CHECKPOINT_EVERY: usize = 10;
pub const SERVE_BLOCK: usize = 1000;
pub const SERVE_STEPS: usize = 12;
pub const SERVE_HOT_SHARE: f64 = 0.70;
pub const SERVE_HOT_DECKS: usize = 8;
pub const SERVE_CLIENTS: usize = 2;

/// Ceiling for the Noh L1 density error over r < 0.45 at the end of
/// the 20-step run (t = 2.43e-4): the largest value over the eight
/// seed meshes on the seed commit (3.2505e-6 to 3.2541e-6 at ~256^2,
/// the same under all three executors) plus the metric's 1 % bound.
/// The `--smoke` meshes (~32^2, 10 steps) read up to 1.2136e-5.
pub const NOH_L1_CEILING: f64 = 3.287e-6;
pub const NOH_L1_CEILING_SMOKE: f64 = 1.226e-5;

/// Which order statistic of a metric's samples is the metric's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimate {
    Median,
    /// The decile on the metric's better side (the first for a time,
    /// the ninth for a rate): the value the program reaches when the
    /// shared host leaves it alone. A neighbour on the host only ever
    /// takes time away, in stretches of seconds, so the median of a
    /// 2-thread workload's repeats flips between an undisturbed and a
    /// disturbed mode 50 % apart from one run to the next, while the
    /// undisturbed decile stays put (`noh_flat2` wall, 20 s runs of one
    /// commit beside a process busy half of the time in stretches of 2
    /// to 12 s: medians spread by 22 %, first deciles by 5 %). Nine
    /// tenths of the samples are discarded, but not the extreme: the
    /// minimum is one lucky sample, the decile needs a tenth of them.
    BestDecile,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub estimate: Estimate,
    /// Share of the baseline value by which the metric may worsen
    /// (`failed_frac`: absolute, any increase is a regression). The
    /// timings carry the contract's ceiling of 25 %, not the issue's
    /// 10-15 %: the 2-vCPU shared host this runs on slows 2-thread
    /// work by a third for seconds at a time, and a bound has to clear
    /// what is left of that in the estimate by a wide margin to mean
    /// anything.
    pub bound: f64,
    /// Reported by every workload, and therefore gated by the driver
    /// through `BENCHMARK.json`; the others are gated by `benchmark
    /// compare` on the workloads that have them.
    pub universal: bool,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        estimate: Estimate::BestDecile,
        bound: 0.25,
        universal: true,
        definition: "run workloads: process wall of `bookleaf run`, spawn to exit (sedov_ale_ckpt: first leg incl. checkpoints); serve_mix: wall of one 1000-request block; like every timing below, taken with the program held to one CPU",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        estimate: Estimate::BestDecile,
        bound: 0.25,
        universal: true,
        definition: "run workloads: process wall of `bookleaf run <deck> --max-steps 0`, one sample before each timed repeat; serve_mix: Server::start until all 8 hot decks have been served once",
    },
    EndToEnd {
        name: "grind_ns",
        unit: "ns",
        better: Better::Lower,
        estimate: Estimate::BestDecile,
        bound: 0.25,
        universal: true,
        definition: "ns per zone-step: digest (serve_mix: response) wall_ms / (elements x steps)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        estimate: Estimate::Median,
        bound: 0.15,
        universal: true,
        definition: "VmHWM of the child polled from /proc/<pid>/status (serve_mix: of the harness itself, after its first 1000-request block)",
    },
    EndToEnd {
        name: "resume_s",
        unit: "s",
        better: Better::Lower,
        estimate: Estimate::BestDecile,
        bound: 0.25,
        universal: false,
        definition: "sedov_ale_ckpt: process wall of the --resume leg",
    },
    EndToEnd {
        name: "l1_rho_err",
        unit: "1",
        better: Better::Lower,
        estimate: Estimate::Median,
        bound: 0.01,
        universal: false,
        definition: "noh_*: volume-weighted L1 density error vs the exact Noh solution over r < 0.45, one in-process run of the same deck",
    },
    EndToEnd {
        name: "serve_rps",
        unit: "1/s",
        better: Better::Higher,
        estimate: Estimate::BestDecile,
        bound: 0.25,
        universal: false,
        definition: "serve_mix: completed 200s / block wall",
    },
    EndToEnd {
        name: "serve_p50_ms",
        unit: "ms",
        better: Better::Lower,
        estimate: Estimate::BestDecile,
        bound: 0.25,
        universal: false,
        definition: "serve_mix: latency send to full response, per-block median",
    },
    EndToEnd {
        name: "serve_p99_ms",
        unit: "ms",
        better: Better::Lower,
        estimate: Estimate::BestDecile,
        bound: 0.25,
        universal: false,
        definition: "serve_mix: per-block p99 (10 samples beyond it)",
    },
    EndToEnd {
        name: "failed_frac",
        unit: "1",
        better: Better::Lower,
        estimate: Estimate::Median,
        bound: 0.0,
        universal: false,
        definition: "failed or check-failing operations / attempted (CLI runs; HTTP non-200); absolute bound",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric, on which workload, this number should
    /// move — written down before anything was measured.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const SETUP: &str =
    "setup_s everywhere; serve_p50_ms/serve_rps on serve_mix; no change to grind_ns";
const GRIND: &str = "grind_ns/wall_s: noh_serial in full, noh_flat2/noh_hybrid2 in proportion, sedov_ale_ckpt ~55%, serve_mix none";
const CKPT: &str = "wall_s/resume_s on sedov_ale_ckpt only";
const COMM: &str = "wall_s on noh_flat2; exactly zero on noh_serial";
const SERVE: &str = "serve_* on serve_mix only; a cache change must show in hot and cold";
const INFO: &str = "derived, informational, never gated";

/// Every per-layer metric, layer = crate. A metric a workload does not
/// exercise reads exactly 0 there.
pub const PER_LAYER: [Layer; 62] = [
    layer("core.input.parse_us", "us", Lower, SETUP),
    layer("core.input.render_us", "us", Lower, SETUP),
    layer("core.scenario.build_ms", "ms", Lower, SETUP),
    layer("core.sim.build_ms", "ms", Lower, SETUP),
    layer(
        "core.sim.step_ms_p50",
        "ms",
        Lower,
        "grind_ns on the serial workloads",
    ),
    layer(
        "core.sim.step_ms_p99",
        "ms",
        Lower,
        "grind_ns on the serial workloads",
    ),
    layer(
        "core.sim.unattributed_frac",
        "1",
        Lower,
        "grind_ns; reported, not bounded yet",
    ),
    layer(
        "core.sentinel.cost_frac",
        "1",
        Lower,
        "grind_ns on noh_serial",
    ),
    layer(
        "core.observer.cost_frac",
        "1",
        Lower,
        "grind_ns on noh_serial",
    ),
    layer(
        "core.overlap.gain_frac",
        "1",
        Higher,
        "wall_s on noh_flat2 only",
    ),
    layer("core.output.ckpt_write_ms", "ms", Lower, CKPT),
    layer("core.output.ckpt_read_ms", "ms", Lower, CKPT),
    layer("core.output.ckpt_bytes", "count", Lower, CKPT),
    layer("core.output.ckpt_write_mb_per_s", "MB/s", Higher, CKPT),
    layer("hydro.getdt.ns_per_el", "ns", Lower, GRIND),
    layer("hydro.getq.ns_per_el", "ns", Lower, GRIND),
    layer("hydro.getforce.ns_per_el", "ns", Lower, GRIND),
    layer("hydro.getacc.ns_per_el", "ns", Lower, GRIND),
    layer("hydro.eos_fused.ns_per_el", "ns", Lower, GRIND),
    layer("hydro.lagstep.ns_per_el", "ns", Lower, GRIND),
    layer("hydro.getdt.share", "1", Lower, GRIND),
    layer("hydro.getq.share", "1", Lower, GRIND),
    layer("hydro.getforce.share", "1", Lower, GRIND),
    layer("hydro.getacc.share", "1", Lower, GRIND),
    layer("hydro.eos_fused.share", "1", Lower, GRIND),
    layer("hydro.kernel_section.share", "1", Higher, GRIND),
    layer(
        "hydro.fork_join_us",
        "us",
        Lower,
        "wall_s on noh_hybrid2 only",
    ),
    layer(
        "eos.getpc.ns_per_el",
        "ns",
        Lower,
        "grind_ns, Noh and Sedov alike",
    ),
    layer(
        "ale.remap.ns_per_el",
        "ns",
        Lower,
        "wall_s/grind_ns on sedov_ale_ckpt; exactly zero elsewhere",
    ),
    layer(
        "ale.share",
        "1",
        Lower,
        "wall_s/grind_ns on sedov_ale_ckpt; exactly zero elsewhere",
    ),
    layer("mesh.generate_ms", "ms", Lower, "setup_s; serve_p50_ms"),
    layer(
        "mesh.submesh_plan_ms",
        "ms",
        Lower,
        "setup_s on noh_flat2/noh_hybrid2",
    ),
    layer(
        "mesh.ghost_el_frac",
        "1",
        Lower,
        "setup_s and halo volume on noh_flat2",
    ),
    layer(
        "partition.rcb_ms",
        "ms",
        Lower,
        "setup_s on noh_flat2/noh_hybrid2",
    ),
    layer(
        "partition.edge_cut",
        "count",
        Lower,
        "halo volume, so wall_s on noh_flat2",
    ),
    layer(
        "partition.imbalance",
        "1",
        Lower,
        "load balance, so wall_s on noh_flat2",
    ),
    layer(
        "typhon.msgs_per_link_step",
        "count",
        Lower,
        "exact: 3 Lagrangian, 4 with remap",
    ),
    layer("typhon.doubles_per_step", "count", Lower, COMM),
    layer("typhon.collectives_per_step", "count", Lower, COMM),
    layer("typhon.recv_wait_s", "s", Lower, COMM),
    layer("typhon.overlap_window_s", "s", Higher, COMM),
    layer("typhon.pre_viscosity.recv_wait_s", "s", Lower, COMM),
    layer("typhon.pre_acceleration.recv_wait_s", "s", Lower, COMM),
    layer("typhon.comms.share", "1", Lower, COMM),
    layer("typhon.p2p_rtt_us", "us", Lower, COMM),
    layer("typhon.allreduce_us", "us", Lower, COMM),
    layer("typhon.barrier_us", "us", Lower, COMM),
    layer("serve.hot.p50_ms", "ms", Lower, SERVE),
    layer("serve.cold.p50_ms", "ms", Lower, SERVE),
    layer("serve.latency.p999_ms", "ms", Lower, SERVE),
    layer("serve.cache.hit_ratio", "1", Higher, SERVE),
    layer("serve.compute_frac", "1", Higher, SERVE),
    layer("serve.shed_count", "count", Lower, SERVE),
    layer("serve.parse_request_us", "us", Lower, SERVE),
    layer("serve.admit_deck_us", "us", Lower, SERVE),
    layer("serve.cache.hit_us", "us", Lower, SERVE),
    layer("serve.cache.miss_us", "us", Lower, SERVE),
    layer(
        "util.crc32_mb_per_s",
        "MB/s",
        Higher,
        "ckpt_write and the state_crc inside setup_s",
    ),
    layer(
        "util.timer_overhead_ns",
        "ns",
        Lower,
        "grind_ns (12 timed kernel calls per step)",
    ),
    layer("bench.speedup", "1", Higher, INFO),
    layer("bench.parallel_efficiency", "1", Higher, INFO),
    layer("bench.trace_overhead_frac", "1", Lower, INFO),
];

/// Counts that must repeat exactly across repeats of one workload.
pub const EXACT_COUNTS: [&str; 3] = [
    "steps",
    "typhon.msgs_per_link_step",
    "core.output.ckpt_bytes",
];

/// The `benchmark list` text.
pub fn listing() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "workloads:");
    for w in &WORKLOADS {
        let _ = writeln!(out, "  {:<15} {}", w.name, w.why);
    }
    let _ = writeln!(
        out,
        "\nend-to-end metrics (>=5 timed repeats after 1 warm-up; value = their median,\nor the decile on the better side: what the program does on an undisturbed host):"
    );
    for m in &END_TO_END {
        let gate = if m.universal {
            "driver+compare"
        } else {
            "compare"
        };
        let value = match m.estimate {
            Estimate::Median => "median",
            Estimate::BestDecile => "decile",
        };
        let _ = writeln!(
            out,
            "  {:<13} {:<4} better={:<6} value={:<6} bound={:<5} gate={:<14} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            value,
            m.bound,
            gate,
            m.definition
        );
    }
    let _ = writeln!(out, "\nper-layer metrics (traced pass; no bound):");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<36} {:<6} better={:<6} -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bookleaf_bench::schema::Json;

    fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
        match obj.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("{key}: expected a string, found {other:?}"),
        }
    }

    fn arr_of<'a>(obj: &'a Json, key: &str) -> &'a [Json] {
        match obj.get(key) {
            Some(Json::Arr(a)) => a,
            other => panic!("{key}: expected an array, found {other:?}"),
        }
    }

    /// `BENCHMARK.json` says what the catalogue says, in the contract's
    /// shape: exact key sets, name/unit alphabets, bound ceiling.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };

        let workloads = arr_of(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(j, "name"), w.name);
            assert_eq!(str_of(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(name_ok(w.name));
        }

        let universal: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.universal).collect();
        let e2e = arr_of(&doc, "end_to_end");
        assert_eq!(e2e.len(), universal.len());
        for (j, m) in e2e.iter().zip(&universal) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound"), Some(&Json::Num(m.bound)));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(name_ok(m.name) && unit_ok(m.unit));
        }
        assert!(universal.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound == 0.25));

        let layers = arr_of(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        }

        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(universal.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }

    #[test]
    fn listing_names_every_workload_and_metric() {
        let text = listing();
        for w in &WORKLOADS {
            assert!(text.contains(w.name) && text.contains(w.why));
        }
        for m in &END_TO_END {
            assert!(text.contains(m.name));
        }
        for m in &PER_LAYER {
            assert!(text.contains(m.name));
        }
    }
}
