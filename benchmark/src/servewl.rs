//! The `serve_mix` workload: an in-process `serve::Server` with two
//! workers, driven closed-loop by two client threads over real TCP.
//!
//! A closed loop, because each caller of `POST /run` waits for its
//! digest before it has anything else to ask. Work comes in blocks of
//! 1000 requests, each block against a fresh server whose cache has
//! been filled with the eight hot decks first (users pay the cold
//! start once per server, not per request; it is `setup_s`).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bookleaf::serve::{client, ServeConfig, Server};
use bookleaf_bench::schema::Json;

use crate::decks::{self, ServeDeck, SplitMix64};
use crate::inproc::{self, Stepping};
use crate::probes::{self, KernelBench};
use crate::proc::{self_peak_rss_mb, Env, OneCpu};
use crate::results::WorkloadResult;
use crate::runwl::Options;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;

const TIMEOUT: Duration = Duration::from_secs(30);
/// One request in this many gets a `serve.request` span.
const SPAN_SAMPLE: usize = 50;
/// One cold deck in this many is re-run in process and compared.
const COLD_VERIFY: u64 = 100;

/// Which deck a request carries.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Draw {
    /// Index into the hot decks.
    Hot(usize),
    /// Serial number of a deck no one has sent before.
    Cold(u64),
}

/// One scheduled request.
struct Planned {
    deck: ServeDeck,
    draw: Draw,
}

/// The seeded request stream: 70 % drawn uniformly from the hot decks,
/// 30 % cold decks no one has sent before.
struct Schedule {
    seed: u64,
    rng: SplitMix64,
    hot: Vec<ServeDeck>,
    next_cold: u64,
}

impl Schedule {
    fn new(seed: u64) -> Schedule {
        Schedule {
            seed,
            rng: SplitMix64::new(seed),
            hot: decks::serve_hot_decks(),
            next_cold: 0,
        }
    }

    fn block(&mut self, requests: usize) -> Vec<Planned> {
        (0..requests)
            .map(|_| {
                if self.rng.unit() < spec::SERVE_HOT_SHARE {
                    let i = (self.rng.next() % self.hot.len() as u64) as usize;
                    Planned {
                        deck: self.hot[i].clone(),
                        draw: Draw::Hot(i),
                    }
                } else {
                    self.next_cold += 1;
                    Planned {
                        deck: decks::serve_cold_deck(self.seed, self.next_cold),
                        draw: Draw::Cold(self.next_cold),
                    }
                }
            })
            .collect()
    }
}

/// What came back for one request.
struct Answer {
    index: usize,
    start: Instant,
    end: Instant,
    /// `(state_crc, cached_deck, wall_ms, steps)` of a 200, else why not.
    body: Result<(u32, bool, f64, usize), String>,
}

impl Answer {
    fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

fn post(addr: SocketAddr, deck: &str) -> Result<(u32, bool, f64, usize), String> {
    let response = client::post_run(addr, deck, &[("X-Tenant", "bench")], TIMEOUT)
        .map_err(|e| format!("transport: {e}"))?;
    if response.status != 200 {
        return Err(format!("HTTP {}: {}", response.status, response.text()));
    }
    let doc = Json::parse(&response.text()).map_err(|e| format!("response is not JSON: {e}"))?;
    let num = |key: &str| match doc.get(key) {
        Some(Json::Num(x)) => Ok(*x),
        other => Err(format!("response key {key:?}: {other:?}")),
    };
    let Some(Json::Bool(cached)) = doc.get("cached_deck") else {
        return Err("response has no cached_deck flag".into());
    };
    Ok((
        num("state_crc")? as u32,
        *cached,
        num("wall_ms")?,
        num("steps")? as usize,
    ))
}

/// One block's raw outcome.
struct Block {
    setup_s: f64,
    wall_s: f64,
    plan: Vec<Planned>,
    answers: Vec<Answer>,
    shed: usize,
}

fn serve_config(env: &Env) -> ServeConfig {
    ServeConfig {
        workers: 2,
        // The default cache is FIFO with 32 entries: under 30 % cold
        // traffic every hot deck is evicted and rebuilt about once per
        // hundred requests (hit ratio 0.63, not the 0.70 hot share).
        // Room for a whole block keeps "hot" meaning "cache hit".
        cache_entries: 1024,
        drain_dir: env.work.join("drain"),
        ..ServeConfig::default()
    }
}

/// Start a server, fill its cache with the hot decks, drive `plan`
/// through it with two closed-loop clients, shut it down.
fn run_block(
    env: &Env,
    hot: &[ServeDeck],
    hot_crcs: &[u32],
    plan: Vec<Planned>,
) -> Result<Block, String> {
    let boot = Instant::now();
    let server = Server::start(serve_config(env)).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    for (deck, want) in hot.iter().zip(hot_crcs) {
        let (crc, ..) = post(addr, &deck.text).map_err(|e| format!("warming the cache: {e}"))?;
        if crc != *want {
            return Err(format!(
                "hot deck served crc {crc}, in-process run gives {want}"
            ));
        }
    }
    let setup_s = boot.elapsed().as_secs_f64();

    let issued = AtomicUsize::new(0);
    let started = Instant::now();
    let mut answers: Vec<Answer> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..spec::SERVE_CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = issued.fetch_add(1, Ordering::Relaxed);
                        let Some(planned) = plan.get(index) else {
                            break;
                        };
                        let start = Instant::now();
                        let body = post(addr, &planned.deck.text);
                        mine.push(Answer {
                            index,
                            start,
                            end: Instant::now(),
                            body,
                        });
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    answers.sort_by_key(|a| a.index);
    let shed = server.shed_count();
    server.shutdown();
    Ok(Block {
        setup_s,
        wall_s,
        plan,
        answers,
        shed,
    })
}

/// Running totals over the blocks of one pass.
#[derive(Default)]
struct Tally {
    hot_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    cached: usize,
    ok: usize,
    compute_ms: f64,
    latency_ms: f64,
    shed: usize,
    problems: Vec<String>,
}

impl Tally {
    /// Fold a block in: count failures, check every hot answer and one
    /// cold answer in a hundred against the in-process run, and return
    /// the block's ok latencies and its served ns per zone-step.
    fn absorb(
        &mut self,
        block: &Block,
        hot_crcs: &[u32],
        out: &mut WorkloadResult,
    ) -> (Vec<f64>, f64) {
        let mut latencies = Vec::new();
        let (mut compute_ms, mut zone_steps) = (0.0, 0.0);
        self.shed += block.shed;
        for (planned, answer) in block.plan.iter().zip(&block.answers) {
            out.attempted += 1;
            let verdict = answer.body.as_ref().map_err(Clone::clone).and_then(
                |&(crc, cached, wall_ms, steps)| {
                    let want = match planned.draw {
                        Draw::Hot(i) => Some(hot_crcs[i]),
                        Draw::Cold(serial) if serial % COLD_VERIFY == 0 => {
                            Some(inproc::reference(&planned.deck.text)?.crc)
                        }
                        Draw::Cold(_) => None,
                    };
                    match want {
                        Some(want) if want != crc => {
                            Err(format!("served crc {crc}, in-process run gives {want}"))
                        }
                        _ if steps != spec::SERVE_STEPS => Err(format!("served {steps} steps")),
                        _ => Ok((cached, wall_ms, steps)),
                    }
                },
            );
            match verdict {
                Err(e) => {
                    out.failed += 1;
                    if self.problems.len() < 5 {
                        self.problems.push(e);
                    }
                }
                Ok((cached, wall_ms, steps)) => {
                    let ms = answer.latency_ms();
                    latencies.push(ms);
                    match planned.draw {
                        Draw::Hot(_) => self.hot_ms.push(ms),
                        Draw::Cold(_) => self.cold_ms.push(ms),
                    }
                    self.ok += 1;
                    self.cached += usize::from(cached);
                    self.latency_ms += ms;
                    compute_ms += wall_ms;
                    zone_steps += (planned.deck.elements * steps) as f64;
                }
            }
        }
        self.compute_ms += compute_ms;
        (latencies, compute_ms * 1e6 / zone_steps.max(1.0))
    }

    fn check(&self, out: &mut WorkloadResult) {
        out.check(
            "served_matches_inprocess",
            self.problems.is_empty(),
            if self.problems.is_empty() {
                format!("{} answers: 200, 12 steps; every hot and 1% of cold state_crc equal the in-process run", self.ok)
            } else {
                self.problems.join("; ")
            },
        );
    }
}

fn hot_references(hot: &[ServeDeck]) -> Result<Vec<u32>, String> {
    hot.iter()
        .map(|d| Ok(inproc::reference(&d.text)?.crc))
        .collect()
}

fn block_size(opts: Options) -> usize {
    if opts.smoke {
        200
    } else {
        spec::SERVE_BLOCK
    }
}

/// End-to-end numbers, tracing off.
pub fn untraced(opts: Options, env: &Env) -> Result<WorkloadResult, String> {
    let mut out = WorkloadResult::new(spec::SERVE_MIX);
    let mut schedule = Schedule::new(opts.seed);
    let hot = schedule.hot.clone();
    let hot_crcs = hot_references(&hot)?;
    let mut tally = Tally::default();

    // Server, clients and the runs behind the answers share one CPU
    // (see `OneCpu`): threads inherit the pin of the one that starts
    // them.
    let one_cpu = OneCpu::pin();
    // Block 0 is the warm-up: checked like the rest, never timed.
    let mut started = Instant::now();
    let mut blocks = 0;
    loop {
        let block = run_block(env, &hot, &hot_crcs, schedule.block(block_size(opts)))?;
        // A high-water mark only ever rises, by a few MB of allocator
        // arenas and thread stacks per further server, at moments
        // thread timing picks (12 to 15 MB after the second block): read
        // it once, after the first block of a fresh process and before
        // the in-process runs that check its answers.
        if blocks == 0 {
            if let Some(mb) = self_peak_rss_mb() {
                out.e2e("peak_rss_mb", mb);
            }
        }
        let (latencies, grind_ns) = tally.absorb(&block, &hot_crcs, &mut out);
        if blocks == 0 {
            started = Instant::now();
        } else {
            let sorted = stats::sorted(&latencies);
            out.e2e("wall_s", block.wall_s);
            out.e2e("setup_s", block.setup_s);
            out.e2e("grind_ns", grind_ns);
            out.e2e("serve_rps", latencies.len() as f64 / block.wall_s);
            out.e2e("serve_p50_ms", stats::percentile(&sorted, 0.50));
            out.e2e("serve_p99_ms", stats::percentile(&sorted, 0.99));
            out.counts
                .entry("steps".into())
                .or_default()
                .push(spec::SERVE_STEPS as f64);
        }
        blocks += 1;
        if blocks > opts.min_repeats() && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    drop(one_cpu);
    tally.check(&mut out);
    Ok(out)
}

/// Per-layer numbers: block pairs with and without `serve.request`
/// spans, one traced in-process run of a hot deck, the layer probes.
pub fn traced(opts: Options, env: &Env, tracer: &mut Tracer) -> Result<WorkloadResult, String> {
    let mut out = WorkloadResult::new(spec::SERVE_MIX);
    let mut schedule = Schedule::new(opts.seed);
    let hot = schedule.hot.clone();
    let hot_crcs = hot_references(&hot)?;
    let mut tally = Tally::default();
    let mut all_ms = Vec::new();

    let started = Instant::now();
    let (min_pairs, max_pairs) = if opts.smoke { (1, 1) } else { (6, 12) };
    let mut pair = 0;
    while pair < min_pairs
        || (pair < max_pairs && started.elapsed().as_secs_f64() < 0.6 * opts.seconds)
    {
        let mut walls = BTreeMap::new();
        // Alternate which twin goes first, so drift favours neither.
        for with_spans in [pair % 2 == 1, pair % 2 == 0] {
            let span = with_spans.then(|| tracer.begin("serve.block"));
            let block = run_block(env, &hot, &hot_crcs, schedule.block(block_size(opts)))?;
            if let Some(span) = span {
                for answer in block.answers.iter().step_by(SPAN_SAMPLE) {
                    tracer.record("serve.request", answer.start, answer.end);
                }
                tracer.end(span);
            }
            let (latencies, _) = tally.absorb(&block, &hot_crcs, &mut out);
            all_ms.extend(latencies);
            walls.insert(with_spans, block.wall_s);
        }
        out.layer(
            "bench.trace_overhead_frac",
            (walls[&true] - walls[&false]) / walls[&false],
        );
        pair += 1;
    }
    tally.check(&mut out);
    let ok = tally.ok.max(1) as f64;
    out.layer("serve.hot.p50_ms", stats::median(&tally.hot_ms));
    out.layer("serve.cold.p50_ms", stats::median(&tally.cold_ms));
    out.layer(
        "serve.latency.p999_ms",
        stats::percentile(&stats::sorted(&all_ms), 0.999),
    );
    out.layer("serve.cache.hit_ratio", tally.cached as f64 / ok);
    out.layer(
        "serve.compute_frac",
        tally.compute_ms / tally.latency_ms.max(f64::MIN_POSITIVE),
    );
    out.layer("serve.shed_count", tally.shed as f64);

    // What one request's simulation is made of: a hot deck in process.
    let representative = &hot[spec::SERVE_HOT_DECKS - 1];
    let stepping = Stepping::PerStep { checkpoint: None };
    let run = inproc::run_deck(&representative.text, stepping, tracer)?;
    out.attempted += 1;
    out.counts
        .entry("steps".into())
        .or_default()
        .push(run.report.steps as f64);
    inproc::report_metrics(&run.report, &mut out);
    let (p50, p99) = inproc::step_percentiles_ms(tracer);
    out.layer("core.sim.step_ms_p50", p50);
    out.layer("core.sim.step_ms_p99", p99);

    let effort = opts.effort();
    probes::util(effort, tracer, &mut out);
    probes::core_setup(&representative.text, effort, tracer, &mut out)?;
    probes::mesh_and_partition(&representative.text, 0, effort, tracer, &mut out)?;
    probes::hydro_kernels(&KernelBench::from_run(&run)?, effort, tracer, &mut out);
    probes::serve(representative, opts.seed, effort, tracer, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_keeps_the_hot_share() {
        let plan = Schedule::new(5).block(4000);
        let again = Schedule::new(5).block(4000);
        assert!(plan
            .iter()
            .zip(&again)
            .all(|(a, b)| a.deck.text == b.deck.text));
        let other = Schedule::new(6).block(4000);
        assert!(plan
            .iter()
            .zip(&other)
            .any(|(a, b)| a.deck.text != b.deck.text));
        let hot = plan
            .iter()
            .filter(|p| matches!(p.draw, Draw::Hot(_)))
            .count() as f64
            / 4000.0;
        assert!((hot - spec::SERVE_HOT_SHARE).abs() < 0.02, "{hot}");
        let serials: Vec<u64> = plan
            .iter()
            .filter_map(|p| match p.draw {
                Draw::Cold(serial) => Some(serial),
                Draw::Hot(_) => None,
            })
            .collect();
        assert!(
            serials.windows(2).all(|w| w[1] == w[0] + 1),
            "cold decks are never repeated"
        );
        for i in 0..spec::SERVE_HOT_DECKS {
            assert!(
                plan.iter().any(|p| p.draw == Draw::Hot(i)),
                "hot deck {i} is drawn"
            );
        }
    }
}
