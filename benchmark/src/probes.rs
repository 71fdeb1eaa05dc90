//! Standalone layer probes: one public function of one crate, called
//! on its own, recorded as a root span tagged `probe`. Every figure is
//! the median of its samples (the samples themselves are kept).

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use bookleaf::ale::Remapper;
use bookleaf::core::decks::to_string;
use bookleaf::core::{ConservationTracer, DtHistory, SentinelConfig, Shared};
use bookleaf::eos::MaterialTable;
use bookleaf::hydro::getacc::getacc;
use bookleaf::hydro::getdt::{getdt, DtControls};
use bookleaf::hydro::getein::WorkVelocity;
use bookleaf::hydro::getforce::{getforce, HourglassControl};
use bookleaf::hydro::getgeom::getgeom;
use bookleaf::hydro::getpc::getpc;
use bookleaf::hydro::getq::{getq, QCoeffs};
use bookleaf::hydro::{
    eos_fused, lagstep, AccMode, EosStages, FusedEos, HydroState, LagOptions, LocalRange, NoComm,
    Threading,
};
use bookleaf::mesh::{generate_rect, Mesh, RectSpec, SubMeshPlan};
use bookleaf::partition::metrics::assess_partition;
use bookleaf::partition::{partition, Strategy};
use bookleaf::serve::protocol::parse_request;
use bookleaf::serve::{admit_deck, DeckCache, ResourceLimits};
use bookleaf::typhon::Typhon;
use bookleaf::util::hash::crc32;
use bookleaf::util::{KernelId, TimerRegistry};
use bookleaf::{Checkpoint, InputDeck, ProblemSpec, RunConfig, Simulation, SimulationBuilder};

use crate::decks;
use crate::inproc::InProc;
use crate::results::WorkloadResult;
use crate::trace::Tracer;

/// How many samples a probe takes, full or `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Samples per standalone probe (the issue asks for at least 9).
    pub samples: usize,
    /// Interleaved A/B pairs and steps per side. The issue's 5 x 60
    /// steps does not fit the driver's wall-clock cap next to
    /// everything else; pairs were kept, steps were cut.
    pub ab_pairs: usize,
    pub ab_steps: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        samples: 9,
        ab_pairs: 5,
        ab_steps: 12,
    };
    pub const SMOKE: Effort = Effort {
        samples: 3,
        ab_pairs: 1,
        ab_steps: 4,
    };
}

/// One warm-up call, then `samples` timed calls of `f`, each a probe
/// span; returns the durations in µs.
fn sample_us(
    tracer: &mut Tracer,
    name: &'static str,
    samples: usize,
    mut f: impl FnMut(),
) -> Vec<f64> {
    f();
    (0..samples)
        .map(|_| {
            let span = tracer.begin_probe(name);
            f();
            tracer.end(span)
        })
        .collect()
}

fn scaled(samples: &[f64], factor: f64) -> Vec<f64> {
    samples.iter().map(|s| s * factor).collect()
}

// ------------------------------------------------------------ util

pub fn util(effort: Effort, tracer: &mut Tracer, out: &mut WorkloadResult) {
    const BYTES: usize = 8 << 20;
    let buffer: Vec<u8> = (0..BYTES).map(|i| (i * 31 + 7) as u8).collect();
    let us = sample_us(tracer, "util.crc32", effort.samples, || {
        black_box(crc32(black_box(&buffer)));
    });
    let mb = BYTES as f64 / 1e6;
    out.layer_samples(
        "util.crc32_mb_per_s",
        &us.iter().map(|us| mb / (us * 1e-6)).collect::<Vec<_>>(),
    );

    const CALLS: usize = 200_000;
    let timers = TimerRegistry::new();
    let us = sample_us(tracer, "util.timer_overhead", effort.samples, || {
        for _ in 0..CALLS {
            timers.time(KernelId::Other, || black_box(()));
        }
    });
    out.layer_samples("util.timer_overhead_ns", &scaled(&us, 1e3 / CALLS as f64));
}

// ------------------------------------------------------------ core

/// Parse, render, scenario build and simulation build of `text`.
pub fn core_setup(
    text: &str,
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    const BATCH: usize = 20;
    let input: InputDeck = text.parse().map_err(|e| format!("probe deck: {e}"))?;
    let us = sample_us(tracer, "core.input.parse", effort.samples, || {
        for _ in 0..BATCH {
            black_box(black_box(text).parse::<InputDeck>().expect("parsed above"));
        }
    });
    out.layer_samples("core.input.parse_us", &scaled(&us, 1.0 / BATCH as f64));
    let us = sample_us(tracer, "core.input.render", effort.samples, || {
        for _ in 0..BATCH {
            black_box(to_string(black_box(&input)));
        }
    });
    out.layer_samples("core.input.render_us", &scaled(&us, 1.0 / BATCH as f64));

    let us = sample_us(tracer, "core.scenario.build", effort.samples, || {
        black_box(input.build_deck().expect("deck builds"));
    });
    out.layer_samples("core.scenario.build_ms", &scaled(&us, 1e-3));

    // `build` consumes the deck: clone outside the span.
    let deck = input.build_deck().map_err(|e| format!("probe deck: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..=effort.samples {
        let builder = Simulation::builder()
            .deck(deck.clone())
            .config(input.run_config());
        let span = tracer.begin_probe("core.sim.build");
        let sim = builder.build();
        samples.push(tracer.end(span) * 1e-3);
        black_box(sim.map_err(|e| format!("probe deck: {e}"))?);
    }
    out.layer_samples("core.sim.build_ms", &samples[1..]);
    Ok(())
}

/// Loop seconds of `input` capped at `steps`, configured by `tweak`.
fn loop_seconds(
    input: &InputDeck,
    steps: usize,
    tweak: impl FnOnce(SimulationBuilder, RunConfig) -> SimulationBuilder,
) -> Result<f64, String> {
    let mut input = input.clone();
    input.max_steps = steps;
    let config = input.run_config();
    let mut sim = tweak(Simulation::builder().deck_input(input), config)
        .build()
        .map_err(|e| format!("A/B deck: {e}"))?;
    let report = sim.run().map_err(|e| format!("A/B run: {e}"))?;
    Ok(report.wall_seconds)
}

/// `pairs` interleaved (A, B) runs; returns `(A - B) / B` per pair —
/// what A costs over B as a share of B.
fn ab_cost(
    tracer: &mut Tracer,
    name: &'static str,
    pairs: usize,
    mut a: impl FnMut() -> Result<f64, String>,
    mut b: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut costs = Vec::new();
    for pair in 0..pairs {
        let span = tracer.begin_probe(name);
        // Alternate which side goes first, so drift favours neither.
        let (sa, sb) = if pair % 2 == 0 {
            let sa = a()?;
            (sa, b()?)
        } else {
            let sb = b()?;
            (a()?, sb)
        };
        tracer.end(span);
        costs.push((sa - sb) / sb);
    }
    Ok(costs)
}

/// What the health sentinel and a pair of observers cost a serial run.
pub fn core_observation(
    text: &str,
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let input: InputDeck = text.parse().map_err(|e| format!("probe deck: {e}"))?;
    let steps = effort.ab_steps;
    let plain = |b: SimulationBuilder, _: RunConfig| b;
    let costs = ab_cost(
        tracer,
        "core.sentinel.ab",
        effort.ab_pairs,
        || loop_seconds(&input, steps, plain),
        || {
            loop_seconds(&input, steps, |b, config| {
                b.config(RunConfig {
                    sentinel: SentinelConfig::disabled(),
                    ..config
                })
            })
        },
    )?;
    out.layer_samples("core.sentinel.cost_frac", &costs);
    let costs = ab_cost(
        tracer,
        "core.observer.ab",
        effort.ab_pairs,
        || {
            loop_seconds(&input, steps, |b, _| {
                b.observer(Shared::new(ConservationTracer::new()))
                    .observer(Shared::new(DtHistory::new()))
            })
        },
        || loop_seconds(&input, steps, plain),
    )?;
    out.layer_samples("core.observer.cost_frac", &costs);
    Ok(())
}

/// `(off - on) / off` of the `[control] overlap` toggle on a
/// distributed deck.
pub fn core_overlap(
    text: &str,
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let input: InputDeck = text.parse().map_err(|e| format!("probe deck: {e}"))?;
    let steps = effort.ab_steps;
    // ab_cost gives (A - B) / B; with A = on and B = off the gain is
    // its negative.
    let costs = ab_cost(
        tracer,
        "core.overlap.ab",
        effort.ab_pairs,
        || loop_seconds(&input, steps, |b, _| b.overlap(true)),
        || loop_seconds(&input, steps, |b, _| b.overlap(false)),
    )?;
    out.layer_samples(
        "core.overlap.gain_frac",
        &costs.iter().map(|c| -c).collect::<Vec<_>>(),
    );
    Ok(())
}

/// Per-step cost of driving the kernels through the fork-join pool
/// where there is nothing to gain from it: hybrid 1x2 minus serial on
/// an 8x8 mesh.
pub fn hydro_fork_join(
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let steps = 20 * effort.ab_steps;
    let deck = |executor| {
        decks::noh_deck(8, 8, steps, executor)
            .parse::<InputDeck>()
            .map_err(|e| format!("fork-join deck: {e}"))
    };
    let serial = deck("model = serial")?;
    let hybrid = deck("model = hybrid\nranks = 1\nthreads_per_rank = 2")?;
    let plain = |b: SimulationBuilder, _: RunConfig| b;
    let mut samples = Vec::new();
    for _ in 0..effort.ab_pairs {
        let span = tracer.begin_probe("hydro.fork_join.ab");
        let s = loop_seconds(&serial, steps, plain)?;
        let h = loop_seconds(&hybrid, steps, plain)?;
        tracer.end(span);
        samples.push((h - s) / steps as f64 * 1e6);
    }
    out.layer_samples("hydro.fork_join_us", &samples);
    Ok(())
}

/// Checkpoint write and read of a finished run's state.
pub fn core_checkpoint(
    run: &InProc,
    path: &std::path::Path,
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let mut write_ms = Vec::new();
    for _ in 0..=effort.samples {
        let span = tracer.begin_probe("core.output.ckpt_write");
        let written = run.sim.checkpoint_to(path);
        write_ms.push(tracer.end(span) * 1e-3);
        written.map_err(|e| format!("checkpoint probe: {e}"))?;
        let bytes = std::fs::metadata(path)
            .map_err(|e| format!("checkpoint probe: {e}"))?
            .len();
        out.layer("core.output.ckpt_bytes", bytes as f64);
    }
    let write_ms = &write_ms[1..];
    out.layer_samples("core.output.ckpt_write_ms", write_ms);
    let mb = out.per_layer["core.output.ckpt_bytes"][0] / 1e6;
    out.layer_samples(
        "core.output.ckpt_write_mb_per_s",
        &write_ms
            .iter()
            .map(|ms| mb / (ms * 1e-3))
            .collect::<Vec<_>>(),
    );
    let us = sample_us(tracer, "core.output.ckpt_read", effort.samples, || {
        black_box(Checkpoint::read_from(path).expect("reads back what was just written"));
    });
    out.layer_samples("core.output.ckpt_read_ms", &scaled(&us, 1e-3));
    Ok(())
}

// ------------------------------------------------- hydro, eos, ale

const DT: f64 = 1e-6;

/// A mid-run state at the workload's mesh size, with every derived
/// array (geometry, viscosity, forces) populated the way a step leaves
/// them — the assembled view of a distributed run carries only the
/// primary fields.
pub struct KernelBench {
    mesh: Mesh,
    materials: MaterialTable,
    state: HydroState,
}

impl KernelBench {
    pub fn from_run(run: &InProc) -> Result<KernelBench, String> {
        let mesh = run.sim.mesh().clone();
        let materials = run.sim.deck().materials.clone();
        let mut state = run.sim.state().clone();
        let range = LocalRange::whole(&mesh);
        let th = Threading::Serial;
        getgeom(&mesh, &mut state, range, th).map_err(|e| format!("kernel bench: {e}"))?;
        getpc(&mesh, &materials, &mut state, range, th);
        getq(&mesh, &mut state, range, QCoeffs::default(), th);
        getforce(
            &mesh,
            &mut state,
            range,
            HourglassControl::default(),
            DT,
            th,
        );
        state.ubar.clone_from(&state.u);
        Ok(KernelBench {
            mesh,
            materials,
            state,
        })
    }

    /// ns per element of `kernel`, which gets its own copy of the state.
    fn ns_per_el(
        &self,
        tracer: &mut Tracer,
        name: &'static str,
        effort: Effort,
        mut kernel: impl FnMut(&Mesh, &MaterialTable, &mut HydroState, LocalRange),
    ) -> Vec<f64> {
        let elements = self.mesh.n_elements();
        // Enough calls per sample to clear timer granularity on the
        // small meshes (serve decks, --smoke).
        let calls = (200_000 / elements).clamp(1, 40);
        let range = LocalRange::whole(&self.mesh);
        let mut state = self.state.clone();
        let us = sample_us(tracer, name, effort.samples, || {
            for _ in 0..calls {
                kernel(&self.mesh, &self.materials, &mut state, range);
            }
        });
        scaled(&us, 1e3 / (calls * elements) as f64)
    }
}

pub fn hydro_kernels(
    bench: &KernelBench,
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) {
    let th = Threading::Serial;
    let ns = bench.ns_per_el(tracer, "hydro.getdt", effort, |mesh, _, st, range| {
        black_box(getdt(mesh, st, range, &DtControls::default(), Some(1e-4), th).expect("dt"));
    });
    out.layer_samples("hydro.getdt.ns_per_el", &ns);
    let ns = bench.ns_per_el(tracer, "hydro.getq", effort, |mesh, _, st, range| {
        getq(mesh, st, range, QCoeffs::default(), th);
    });
    out.layer_samples("hydro.getq.ns_per_el", &ns);
    let ns = bench.ns_per_el(tracer, "hydro.getforce", effort, |mesh, _, st, range| {
        getforce(mesh, st, range, HourglassControl::default(), DT, th);
    });
    out.layer_samples("hydro.getforce.ns_per_el", &ns);
    let ns = bench.ns_per_el(tracer, "hydro.getacc", effort, |mesh, _, st, range| {
        getacc(mesh, st, range, DT, AccMode::GatherSerial);
    });
    out.layer_samples("hydro.getacc.ns_per_el", &ns);
    let ns = bench.ns_per_el(
        tracer,
        "hydro.eos_fused",
        effort,
        |mesh, materials, st, range| {
            let fused = FusedEos {
                dt: DT,
                which: WorkVelocity::Current,
                ein_from: None,
                stages: EosStages::all(),
            };
            eos_fused(mesh, materials, st, range, fused, th).expect("fused eos");
        },
    );
    out.layer_samples("hydro.eos_fused.ns_per_el", &ns);
    let ns = bench.ns_per_el(tracer, "eos.getpc", effort, |mesh, materials, st, range| {
        getpc(mesh, materials, st, range, th);
    });
    out.layer_samples("eos.getpc.ns_per_el", &ns);

    // lagstep moves the mesh, so it owns a copy of that too.
    let mut mesh = bench.mesh.clone();
    let ns = bench.ns_per_el(
        tracer,
        "hydro.lagstep",
        effort,
        |_, materials, st, range| {
            lagstep(
                &mut mesh,
                materials,
                st,
                range,
                DT,
                &LagOptions::default(),
                &mut NoComm,
            )
            .expect("lagstep");
        },
    );
    out.layer_samples("hydro.lagstep.ns_per_el", &ns);
}

/// `Remapper::step` after one real Lagrangian step, so there is mesh
/// motion to remap (an already-Eulerian mesh has zero flux volumes).
pub fn ale_remap(
    bench: &KernelBench,
    run: &InProc,
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let Some(options) = run.sim.config().ale else {
        return Ok(());
    };
    let elements = bench.mesh.n_elements();
    let range = LocalRange::whole(&bench.mesh);
    let remapper = Remapper::new(&bench.mesh, options);
    let mut samples = Vec::new();
    for _ in 0..=effort.samples {
        let (mut mesh, mut state) = (bench.mesh.clone(), bench.state.clone());
        let dt = getdt(
            &mesh,
            &mut state,
            range,
            &run.sim.config().dt,
            Some(1e-3),
            Threading::Serial,
        )
        .map_err(|e| format!("remap probe: {e}"))?
        .dt;
        lagstep(
            &mut mesh,
            &bench.materials,
            &mut state,
            range,
            dt,
            &LagOptions::default(),
            &mut NoComm,
        )
        .map_err(|e| format!("remap probe: {e}"))?;
        let span = tracer.begin_probe("ale.remap");
        let stepped = remapper.step(&mut mesh, &mut state, range);
        samples.push(tracer.end(span) * 1e3 / elements as f64);
        stepped.map_err(|e| format!("remap probe: {e}"))?;
    }
    out.layer_samples("ale.remap.ns_per_el", &samples[1..]);
    Ok(())
}

// -------------------------------------------- mesh, partition, typhon

/// Mesh generation at the deck's size; partition and sub-mesh plan when
/// the deck's executor partitions at all (`ranks` > 0).
pub fn mesh_and_partition(
    text: &str,
    ranks: usize,
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    let input: InputDeck = text.parse().map_err(|e| format!("probe deck: {e}"))?;
    let spec = match &input.problem {
        ProblemSpec::Generic(g) => RectSpec {
            nx: g.mesh.nx,
            ny: g.mesh.ny,
            origin: g.mesh.origin,
            extent: g.mesh.extent,
        },
        named => RectSpec::unit_square((named.cells() as f64).sqrt().round() as usize),
    };
    let us = sample_us(tracer, "mesh.generate", effort.samples, || {
        black_box(generate_rect(&spec, |_| 0).expect("rect mesh"));
    });
    out.layer_samples("mesh.generate_ms", &scaled(&us, 1e-3));
    if ranks == 0 {
        return Ok(());
    }
    let mesh = generate_rect(&spec, |_| 0).map_err(|e| format!("mesh probe: {e}"))?;
    let us = sample_us(tracer, "partition.rcb", effort.samples, || {
        black_box(partition(&mesh, ranks, Strategy::Rcb).expect("rcb"));
    });
    out.layer_samples("partition.rcb_ms", &scaled(&us, 1e-3));
    let owner = partition(&mesh, ranks, Strategy::Rcb).map_err(|e| format!("rcb: {e}"))?;
    let report = assess_partition(&mesh, &owner, ranks).map_err(|e| format!("assess: {e}"))?;
    out.layer("partition.edge_cut", report.edge_cut as f64);
    out.layer("partition.imbalance", report.imbalance);
    let us = sample_us(tracer, "mesh.submesh_plan", effort.samples, || {
        black_box(SubMeshPlan::build(&mesh, &owner, ranks).expect("plan"));
    });
    out.layer_samples("mesh.submesh_plan_ms", &scaled(&us, 1e-3));
    let subs = SubMeshPlan::build(&mesh, &owner, ranks).map_err(|e| format!("plan: {e}"))?;
    let ghosts: usize = subs.iter().map(bookleaf::mesh::SubMesh::n_ghost_el).sum();
    out.layer(
        "mesh.ghost_el_frac",
        ghosts as f64 / mesh.n_elements() as f64,
    );
    Ok(())
}

/// Two-rank message-layer primitives: ping-pong round trip, allreduce,
/// barrier. µs per operation, timed on rank 0.
pub fn typhon(effort: Effort, tracer: &mut Tracer, out: &mut WorkloadResult) -> Result<(), String> {
    const ROUNDS: usize = 500;
    let mut team = |name: &'static str,
                    op: &(dyn Fn(&bookleaf::typhon::RankCtx) + Sync)|
     -> Result<Vec<f64>, String> {
        let mut samples = Vec::new();
        for _ in 0..effort.samples {
            let span = tracer.begin_probe(name);
            let per_rank = Typhon::run(2, |ctx| {
                op(ctx); // warm-up, and lines the ranks up
                let start = Instant::now();
                for _ in 0..ROUNDS {
                    op(ctx);
                }
                start.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
            });
            tracer.end(span);
            samples.push(per_rank.map_err(|e| format!("{name}: {e}"))?[0]);
        }
        Ok(samples)
    };
    let us = team("typhon.p2p_rtt", &|ctx| {
        let tag = ctx.next_tag();
        let peer = 1 - ctx.rank();
        if ctx.rank() == 0 {
            ctx.send(peer, tag, vec![1.0]).expect("send");
            black_box(ctx.recv(peer, tag).expect("recv"));
        } else {
            let ping = ctx.recv(peer, tag).expect("recv");
            ctx.send(peer, tag, ping).expect("send");
        }
    })?;
    out.layer_samples("typhon.p2p_rtt_us", &us);
    let us = team("typhon.allreduce", &|ctx| {
        black_box(ctx.allreduce_min(ctx.rank() as f64).expect("allreduce"));
    })?;
    out.layer_samples("typhon.allreduce_us", &us);
    let us = team("typhon.barrier", &|ctx| ctx.barrier().expect("barrier"))?;
    out.layer_samples("typhon.barrier_us", &us);
    Ok(())
}

// ------------------------------------------------------------ serve

/// Request framing, admission and the deck cache's two paths, each on
/// its own — the per-request work that is not the simulation.
pub fn serve(
    hot: &decks::ServeDeck,
    seed: u64,
    effort: Effort,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) -> Result<(), String> {
    const BATCH: usize = 50;
    let frame = format!(
        "POST /run HTTP/1.1\r\nHost: bookleaf\r\nX-Tenant: bench\r\nContent-Length: {}\r\n\r\n{}",
        hot.text.len(),
        hot.text
    );
    let limits = ResourceLimits::default();
    let us = sample_us(tracer, "serve.parse_request", effort.samples, || {
        for _ in 0..BATCH {
            let mut reader = Cursor::new(frame.as_bytes());
            black_box(parse_request(&mut reader, 8 * 1024, limits.max_deck_bytes).expect("frame"));
        }
    });
    out.layer_samples("serve.parse_request_us", &scaled(&us, 1.0 / BATCH as f64));
    let us = sample_us(tracer, "serve.admit_deck", effort.samples, || {
        for _ in 0..BATCH {
            black_box(admit_deck(black_box(&hot.text), &limits).expect("admitted"));
        }
    });
    out.layer_samples("serve.admit_deck_us", &scaled(&us, 1.0 / BATCH as f64));

    let cache = DeckCache::new(4096);
    let input = admit_deck(&hot.text, &limits).map_err(|e| format!("serve probe: {e}"))?;
    let us = sample_us(tracer, "serve.cache.hit", effort.samples, || {
        for _ in 0..BATCH {
            black_box(cache.get_or_build(&input).expect("cached deck"));
        }
    });
    out.layer_samples("serve.cache.hit_us", &scaled(&us, 1.0 / BATCH as f64));

    // Misses need decks the cache has never seen: parse them up front.
    let mut serial = 1 << 40;
    let mut samples = Vec::new();
    for _ in 0..=effort.samples {
        let cold: Vec<InputDeck> = (0..BATCH)
            .map(|_| {
                serial += 1;
                admit_deck(&decks::serve_cold_deck(seed, serial).text, &limits)
                    .map_err(|e| format!("serve probe: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let span = tracer.begin_probe("serve.cache.miss");
        for input in &cold {
            let (_, hit) = cache.get_or_build(input).expect("cold deck builds");
            debug_assert!(!hit);
        }
        samples.push(tracer.end(span) / BATCH as f64);
    }
    out.layer_samples("serve.cache.miss_us", &samples[1..]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decks::{run_deck as render, Scale};
    use crate::inproc::reference;
    use crate::spec;

    fn positive(out: &WorkloadResult, names: &[&str]) {
        for name in names {
            let v = out
                .per_layer
                .get(*name)
                .unwrap_or_else(|| panic!("{name} not recorded"));
            assert!(
                !v.is_empty() && v.iter().all(|x| x.is_finite() && *x > 0.0),
                "{name}: {v:?}"
            );
        }
    }

    #[test]
    fn standalone_probes_record_positive_samples_and_probe_spans() {
        let mut tracer = Tracer::new(true);
        let mut out = WorkloadResult::new(spec::SEDOV_ALE_CKPT);
        let deck = render(spec::SEDOV_ALE_CKPT, 1, Scale::SMOKE);
        let run = reference(&deck.text).unwrap();
        let bench = KernelBench::from_run(&run).unwrap();
        util(Effort::SMOKE, &mut tracer, &mut out);
        core_setup(&deck.text, Effort::SMOKE, &mut tracer, &mut out).unwrap();
        hydro_kernels(&bench, Effort::SMOKE, &mut tracer, &mut out);
        ale_remap(&bench, &run, Effort::SMOKE, &mut tracer, &mut out).unwrap();
        mesh_and_partition(&deck.text, 2, Effort::SMOKE, &mut tracer, &mut out).unwrap();
        typhon(Effort::SMOKE, &mut tracer, &mut out).unwrap();
        positive(
            &out,
            &[
                "util.crc32_mb_per_s",
                "util.timer_overhead_ns",
                "core.input.parse_us",
                "core.input.render_us",
                "core.scenario.build_ms",
                "core.sim.build_ms",
                "hydro.getdt.ns_per_el",
                "hydro.getq.ns_per_el",
                "hydro.getforce.ns_per_el",
                "hydro.getacc.ns_per_el",
                "hydro.eos_fused.ns_per_el",
                "hydro.lagstep.ns_per_el",
                "eos.getpc.ns_per_el",
                "ale.remap.ns_per_el",
                "mesh.generate_ms",
                "mesh.submesh_plan_ms",
                "mesh.ghost_el_frac",
                "partition.rcb_ms",
                "partition.edge_cut",
                "typhon.p2p_rtt_us",
                "typhon.allreduce_us",
                "typhon.barrier_us",
            ],
        );
        assert_eq!(
            out.per_layer["hydro.getq.ns_per_el"].len(),
            Effort::SMOKE.samples
        );
        assert!(tracer.spans().iter().all(|s| s.probe && s.parent.is_none()));
    }

    #[test]
    fn ab_probes_and_checkpoint_probe_run_on_smoke_decks() {
        let mut tracer = Tracer::new(true);
        let mut out = WorkloadResult::new(spec::NOH_FLAT2);
        let serial = render(spec::NOH_SERIAL, 1, Scale::SMOKE);
        core_observation(&serial.text, Effort::SMOKE, &mut tracer, &mut out).unwrap();
        core_overlap(
            &render(spec::NOH_FLAT2, 1, Scale::SMOKE).text,
            Effort::SMOKE,
            &mut tracer,
            &mut out,
        )
        .unwrap();
        hydro_fork_join(Effort::SMOKE, &mut tracer, &mut out).unwrap();
        for name in [
            "core.sentinel.cost_frac",
            "core.observer.cost_frac",
            "core.overlap.gain_frac",
            "hydro.fork_join_us",
        ] {
            assert_eq!(out.per_layer[name].len(), Effort::SMOKE.ab_pairs, "{name}");
            assert!(out.per_layer[name].iter().all(|x| x.is_finite()), "{name}");
        }

        let run = reference(&render(spec::SEDOV_ALE_CKPT, 1, Scale::SMOKE).text).unwrap();
        let dir =
            std::env::temp_dir().join(format!("bookleaf-benchmark-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        core_checkpoint(
            &run,
            &dir.join("probe.ckpt"),
            Effort::SMOKE,
            &mut tracer,
            &mut out,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let bytes = &out.per_layer["core.output.ckpt_bytes"];
        assert!(bytes[0] > 1000.0 && bytes.iter().all(|b| *b == bytes[0]));
        positive(
            &out,
            &[
                "core.output.ckpt_write_ms",
                "core.output.ckpt_read_ms",
                "core.output.ckpt_write_mb_per_s",
            ],
        );
    }

    #[test]
    fn serve_probes_separate_the_cache_s_two_paths() {
        let mut tracer = Tracer::new(true);
        let mut out = WorkloadResult::new(spec::SERVE_MIX);
        let hot = &decks::serve_hot_decks()[7];
        serve(hot, 1, Effort::SMOKE, &mut tracer, &mut out).unwrap();
        positive(
            &out,
            &[
                "serve.parse_request_us",
                "serve.admit_deck_us",
                "serve.cache.hit_us",
                "serve.cache.miss_us",
            ],
        );
    }
}
