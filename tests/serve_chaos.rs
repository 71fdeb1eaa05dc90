//! Deterministic chaos suite for `bookleaf serve`, driven through live
//! TCP requests: injected comm faults, poisoned physics, blown
//! deadlines, overload and drain — every failure must surface as a
//! *typed* response under bounded time, workers must never hang, and
//! concurrent healthy tenants must stay bitwise identical to unloaded
//! runs.

use std::time::{Duration, Instant};

use bookleaf::serve::quarantine::QuarantinePolicy;
use bookleaf::serve::{client, state_crc, ResourceLimits, ServeConfig, Server};
use bookleaf::Simulation;
use bookleaf_bench::schema::Json;

/// Small healthy decks (serial executor, bounded steps).
const HEALTHY_NOH: &str = "problem = noh\nn = 10\n[control]\nmax_steps = 12\n";
const HEALTHY_SOD: &str = "problem = sod\nnx = 24\nny = 3\n[control]\nmax_steps = 12\n";

/// A deck the health sentinel kills deterministically: the dt floor is
/// forced above the stable step, so `getdt` collapses in a typed way.
const POISON: &str = "problem = noh\nn = 8\n[control]\nmax_steps = 40\n[dt]\ndt_initial = 0.1\ndt_min = 0.09\ndt_max = 0.5\n";

/// A distributed healthy deck the chaos tenant injects faults into.
const DIST_NOH: &str =
    "problem = noh\nn = 10\n[control]\nmax_steps = 12\n[executor]\nmodel = flat_mpi\nranks = 2\n";

/// A long run (tiny mesh, huge budgets) for deadline/in-flight
/// tests: cheap per step, far too long to finish before the test acts.
/// `dt_max` is pinned low so the step count (and hence the run's
/// duration) is deterministic — CFL never gets a say on this mesh.
const LONG_RUN: &str =
    "problem = noh\nn = 4\n[control]\nfinal_time = 10\nmax_steps = 50000\n[dt]\ndt_max = 2e-4\n";

/// `LONG_RUN` cut to 10 000 steps for the drain test: still far too
/// long to finish between its admission and the drain, while running it
/// to the end (once directly, once resumed) stays well inside `T` on a
/// loaded one-core box.
const DRAIN_RUN: &str =
    "problem = noh\nn = 4\n[control]\nfinal_time = 2\nmax_steps = 50000\n[dt]\ndt_max = 2e-4\n";

/// A second, smaller drain deck (3² elements, ~5 000 steps), posted by
/// another tenant so two runs drain at once.
const DRAIN_RUN_SMALL: &str =
    "problem = noh\nn = 3\n[control]\nfinal_time = 1\nmax_steps = 50000\n[dt]\ndt_max = 2e-4\n";

const T: Duration = Duration::from_secs(30);

fn chaos_server(mutate: impl FnOnce(&mut ServeConfig)) -> Server {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let unique = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let mut config = ServeConfig {
        allow_fault_injection: true,
        drain_dir: std::env::temp_dir().join(format!(
            "bookleaf_serve_chaos_{}_{unique}",
            std::process::id()
        )),
        ..ServeConfig::default()
    };
    mutate(&mut config);
    Server::start(config).expect("server start")
}

fn body_json(resp: &client::HttpResponse) -> Json {
    Json::parse(&resp.text()).unwrap_or_else(|e| panic!("unparsable body {:?}: {e}", resp.text()))
}

fn str_field(doc: &Json, key: &str) -> String {
    match doc.get(key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("field {key} missing or not a string: {other:?}"),
    }
}

fn num_field(doc: &Json, key: &str) -> f64 {
    match doc.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("field {key} missing or not a number: {other:?}"),
    }
}

/// The bit-exact digest of an unloaded direct run of `deck`.
fn direct_crc(deck: &str) -> u32 {
    let mut sim = Simulation::builder()
        .deck_str(deck)
        .build()
        .expect("valid deck");
    sim.run().expect("direct run");
    state_crc(&sim)
}

/// Wait (bounded by `T`) until the server's deck cache holds `decks`
/// decks: a request whose deck is cached has been admitted and is
/// running.
fn wait_until_admitted(addr: std::net::SocketAddr, decks: usize) {
    let start = std::time::Instant::now();
    loop {
        let health = client::get_health(addr, T).unwrap();
        if num_field(&body_json(&health), "cached_decks") >= decks as f64 {
            return;
        }
        assert!(
            start.elapsed() < T,
            "{decks} runs were not admitted within {T:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn health_endpoint_answers_and_unknown_routes_are_typed() {
    let server = chaos_server(|_| {});
    let addr = server.addr();
    let health = client::get_health(addr, T).unwrap();
    assert_eq!(health.status, 200);
    let doc = body_json(&health);
    assert_eq!(str_field(&doc, "status"), "ok");

    let missing = client::request(addr, "GET", "/nope", &[], &[], T).unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = client::request(addr, "GET", "/run", &[], &[], T).unwrap();
    assert_eq!(wrong_method.status, 405);
    server.shutdown();
}

/// The headline chaos invariant: while an adversarial tenant hammers
/// the server with injected comm faults and poisoned decks, healthy
/// tenants' results stay **bitwise identical** to unloaded runs, every
/// adversarial request draws a typed error, and nothing hangs.
#[test]
fn healthy_tenants_bitwise_identical_under_concurrent_chaos() {
    let crc_noh = direct_crc(HEALTHY_NOH);
    let crc_sod = direct_crc(HEALTHY_SOD);

    let server = chaos_server(|c| {
        c.workers = 4;
        // Keep the adversary talking for the whole test.
        c.quarantine = QuarantinePolicy {
            threshold: u32::MAX,
            ..QuarantinePolicy::default()
        };
    });
    let addr = server.addr();

    let chaos = std::thread::spawn(move || {
        let mut typed = 0usize;
        for i in 0..9 {
            let (deck, headers): (&str, Vec<(&str, &str)>) = match i % 3 {
                0 => (POISON, vec![("X-Tenant", "mallory")]),
                1 => (
                    DIST_NOH,
                    vec![("X-Tenant", "mallory"), ("X-Fault-Inject", "corrupt:2:0")],
                ),
                _ => (
                    DIST_NOH,
                    vec![("X-Tenant", "mallory"), ("X-Fault-Inject", "kill:3:1")],
                ),
            };
            let resp = client::post_run(addr, deck, &headers, T).expect("bounded response");
            assert_ne!(
                resp.status,
                200,
                "faulted request must not succeed: {}",
                resp.text()
            );
            let doc = body_json(&resp);
            assert_eq!(str_field(&doc, "status"), "error");
            let kind = str_field(&doc, "kind");
            assert!(
                ["unhealthy", "comm_fault", "rank_panic", "deadline"].contains(&kind.as_str()),
                "unexpected error kind {kind}"
            );
            typed += 1;
        }
        typed
    });

    let mut healthy = 0usize;
    for round in 0..6 {
        let (deck, want) = if round % 2 == 0 {
            (HEALTHY_NOH, crc_noh)
        } else {
            (HEALTHY_SOD, crc_sod)
        };
        let resp = client::post_run(addr, deck, &[("X-Tenant", "alice")], T).unwrap();
        assert_eq!(resp.status, 200, "healthy run failed: {}", resp.text());
        let doc = body_json(&resp);
        let crc = num_field(&doc, "state_crc") as u32;
        assert_eq!(
            crc, want,
            "healthy tenant's state diverged from the unloaded run under chaos"
        );
        healthy += 1;
    }

    let typed = chaos.join().expect("chaos thread");
    assert_eq!(typed, 9);
    assert_eq!(healthy, 6);
    server.shutdown();
}

#[test]
fn repeated_health_failures_quarantine_with_exponential_backoff() {
    let server = chaos_server(|c| {
        c.quarantine = QuarantinePolicy {
            threshold: 2,
            base: Duration::from_millis(300),
            cap: Duration::from_secs(5),
        };
    });
    let addr = server.addr();
    for _ in 0..2 {
        let resp = client::post_run(addr, POISON, &[("X-Tenant", "mallory")], T).unwrap();
        assert_eq!(resp.status, 422, "{}", resp.text());
        assert_eq!(str_field(&body_json(&resp), "kind"), "unhealthy");
    }
    // The streak tripped: the tenant is quarantined with a typed
    // retry-after.
    let resp = client::post_run(addr, POISON, &[("X-Tenant", "mallory")], T).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.text());
    let doc = body_json(&resp);
    assert_eq!(str_field(&doc, "kind"), "quarantined");
    let retry_ms = num_field(&doc, "retry_after_ms");
    assert!(
        retry_ms > 0.0 && retry_ms <= 300.0,
        "retry_after_ms {retry_ms}"
    );
    assert!(resp.header("retry-after").is_some());

    // Healthy tenants are untouched while mallory is out.
    let resp = client::post_run(addr, HEALTHY_NOH, &[("X-Tenant", "alice")], T).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    // The window expires and mallory is admitted again.
    std::thread::sleep(Duration::from_millis(retry_ms as u64 + 100));
    let resp = client::post_run(addr, POISON, &[("X-Tenant", "mallory")], T).unwrap();
    assert_eq!(resp.status, 422, "quarantine must lift: {}", resp.text());
    server.shutdown();
}

#[test]
fn deadlines_surface_as_typed_504() {
    let server = chaos_server(|_| {});
    let addr = server.addr();
    let resp = client::post_run(
        addr,
        LONG_RUN,
        &[("X-Tenant", "alice"), ("X-Deadline-Ms", "50")],
        T,
    )
    .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert_eq!(str_field(&body_json(&resp), "kind"), "deadline");
    server.shutdown();
}

#[test]
fn admission_rejections_are_line_anchored_and_typed() {
    let server = chaos_server(|c| {
        c.limits = ResourceLimits {
            max_mesh_cells: 100,
            ..ResourceLimits::default()
        };
    });
    let addr = server.addr();
    // Mesh over budget: rejected at the `n = 64` line (line 3).
    let resp = client::post_run(
        addr,
        "problem = noh\n# chunky\nn = 64\n",
        &[("X-Tenant", "alice")],
        T,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    let doc = body_json(&resp);
    assert_eq!(str_field(&doc, "kind"), "deck");
    let error = str_field(&doc, "error");
    assert!(error.contains("line 3"), "not line-anchored: {error}");
    assert!(error.contains("4096"), "should name the size: {error}");

    // The generic vocabulary is admitted through the same budget: a
    // [mesh] section over the cell ceiling is rejected at its `nx`
    // line, not at run time.
    let generic = "name = big\n\
                   [mesh]\n\
                   nx = 64\n\
                   ny = 64\n\
                   [material.gas]\n\
                   eos = ideal_gas\n\
                   gamma = 1.4\n\
                   [region.all]\n\
                   shape = rect\n\
                   x0 = 0\n\
                   y0 = 0\n\
                   x1 = 1\n\
                   y1 = 1\n\
                   material = gas\n\
                   rho = 1\n\
                   ein = 1\n\
                   [control]\n\
                   final_time = 0.01\n";
    let resp = client::post_run(addr, generic, &[("X-Tenant", "alice")], T).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    let doc = body_json(&resp);
    assert_eq!(str_field(&doc, "kind"), "deck");
    let error = str_field(&doc, "error");
    assert!(error.contains("line 3"), "not line-anchored: {error}");
    assert!(error.contains("4096"), "should name the size: {error}");

    // So is a value the grammar itself refuses: the parser's own
    // rejections travel the same way, line and all.
    let zero_steps = "problem = noh\nn = 8\n\n[control]\nmax_steps = 0\n";
    let resp = client::post_run(addr, zero_steps, &[("X-Tenant", "alice")], T).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    let doc = body_json(&resp);
    assert_eq!(str_field(&doc, "kind"), "deck");
    let error = str_field(&doc, "error");
    assert!(error.contains("line 5"), "not line-anchored: {error}");
    assert!(error.contains("max_steps"), "should name the key: {error}");

    // A deck typo never counts against the tenant's health.
    for _ in 0..5 {
        let resp = client::post_run(addr, "problem = nope\n", &[("X-Tenant", "alice")], T).unwrap();
        assert_eq!(resp.status, 400);
    }
    let resp = client::post_run(addr, HEALTHY_NOH, &[("X-Tenant", "alice")], T).unwrap();
    assert_eq!(
        resp.status,
        200,
        "typos must not quarantine: {}",
        resp.text()
    );
    server.shutdown();
}

#[test]
fn overload_sheds_with_typed_503_instead_of_queueing() {
    let read_timeout = Duration::from_secs(10);
    let server = chaos_server(|c| {
        c.workers = 1;
        c.queue_depth = 1;
        c.read_timeout = read_timeout;
    });
    let addr = server.addr();
    // Silent connections pin the one worker (blocked reading until the
    // read deadline) and fill the one queue slot. Which of them the
    // worker holds and which are shed depends on scheduling, so probe
    // after each: a probe that is queued instead of shed times out on
    // the client and keeps the slot, and the next probe finds it full.
    let mut idle = Vec::new();
    let (resp, waited) = loop {
        assert!(idle.len() < 8, "no probe was shed");
        idle.push(std::net::TcpStream::connect(addr).unwrap());
        let sent = Instant::now();
        if let Ok(resp) = client::get_health(addr, Duration::from_millis(500)) {
            if resp.status == 503 {
                break (resp, sent.elapsed());
            }
        }
    };
    assert_eq!(str_field(&body_json(&resp), "kind"), "overloaded");
    assert!(
        waited < read_timeout / 4,
        "the shed answer took {waited:?}: it queued behind the pinned worker"
    );
    assert!(server.shed_count() >= 1);
    // Release the worker before shutting down.
    drop(idle);
    server.shutdown();
}

#[test]
fn per_tenant_inflight_ceiling_draws_429() {
    let server = chaos_server(|c| {
        c.workers = 3;
        c.limits = ResourceLimits {
            max_inflight_per_tenant: 1,
            ..ResourceLimits::default()
        };
    });
    let addr = server.addr();
    let slow = std::thread::spawn(move || {
        client::post_run(
            addr,
            LONG_RUN,
            &[("X-Tenant", "alice"), ("X-Deadline-Ms", "3000")],
            T,
        )
        .unwrap()
    });
    wait_until_admitted(addr, 1);
    let resp = client::post_run(addr, HEALTHY_NOH, &[("X-Tenant", "alice")], T).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.text());
    assert_eq!(str_field(&body_json(&resp), "kind"), "too_many_in_flight");
    // A different tenant is not throttled by alice's backlog.
    let resp = client::post_run(addr, HEALTHY_NOH, &[("X-Tenant", "bob")], T).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    // The long run either finishes cleanly or hits its deadline; both
    // are bounded, typed ends — the point here is the 429 above.
    let first = slow.join().unwrap();
    assert!(
        first.status == 200 || first.status == 504,
        "unexpected end: {} {}",
        first.status,
        first.text()
    );
    server.shutdown();
}

/// Graceful drain: in-flight runs checkpoint out with a resumable
/// handle each, and resuming elsewhere completes **bitwise identically**
/// to a run that was never interrupted. Two tenants' runs drain at once,
/// each through a store of its own: two handles, two files.
#[test]
fn drain_checkpoints_inflight_and_resume_is_bitwise() {
    let runs = [("alice", DRAIN_RUN), ("carol", DRAIN_RUN_SMALL)];
    let crc_full = runs.map(|(_, deck)| direct_crc(deck));
    let drain_dir =
        std::env::temp_dir().join(format!("bookleaf_serve_drain_test_{}", std::process::id()));

    let dir = drain_dir.clone();
    let server = chaos_server(move |c| {
        c.drain_dir = dir;
    });
    let addr = server.addr();
    let inflight = runs.map(|(tenant, deck)| {
        std::thread::spawn(move || {
            client::post_run(addr, deck, &[("X-Tenant", tenant)], T).unwrap()
        })
    });
    // Drain once both runs are in flight.
    wait_until_admitted(addr, runs.len());
    let drained = server.drain(Duration::from_secs(20));
    assert_eq!(drained, 2, "both in-flight runs must drain to a checkpoint");

    let handles = inflight.map(|run| {
        let resp = run.join().unwrap();
        assert_eq!(resp.status, 202, "{}", resp.text());
        let doc = body_json(&resp);
        assert_eq!(str_field(&doc, "status"), "checkpointed");
        let handle = str_field(&doc, "handle");
        assert!(handle.ends_with(".ckpt"), "handle {handle}");
        assert!(drain_dir.join(&handle).is_file(), "no file for {handle}");
        handle
    });
    assert_ne!(handles[0], handles[1], "two drains must leave two files");

    // A draining server refuses new admissions, typed.
    let refused = client::post_run(addr, HEALTHY_NOH, &[("X-Tenant", "bob")], T).unwrap();
    assert_eq!(refused.status, 503);
    assert_eq!(str_field(&body_json(&refused), "kind"), "draining");
    server.shutdown();

    // A fresh server sharing the drain directory resumes each handle to
    // completion — bitwise identical to its uninterrupted run.
    let dir = drain_dir.clone();
    let server = chaos_server(move |c| c.drain_dir = dir);
    let addr = server.addr();
    for (((tenant, _), handle), crc_full) in runs.iter().zip(&handles).zip(crc_full) {
        let resp = client::request(
            addr,
            "POST",
            "/run",
            &[("X-Tenant", tenant), ("X-Resume", handle.as_str())],
            &[],
            T,
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let crc = num_field(&body_json(&resp), "state_crc") as u32;
        assert_eq!(
            crc, crc_full,
            "{tenant}'s resumed run diverged from the uninterrupted one"
        );
    }

    // Unknown and malicious handles are typed, never path traversal.
    let resp = client::request(
        addr,
        "POST",
        "/run",
        &[("X-Resume", "no_such_000000_step0000000099.ckpt")],
        &[],
        T,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert_eq!(str_field(&body_json(&resp), "kind"), "checkpoint");
    let resp = client::request(
        addr,
        "POST",
        "/run",
        &[("X-Resume", "../../etc/passwd.ckpt")],
        &[],
        T,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&drain_dir);
}

#[test]
fn streamed_runs_deliver_per_step_lines_and_a_final_verdict() {
    let server = chaos_server(|_| {});
    let addr = server.addr();
    let resp = client::post_run(
        addr,
        HEALTHY_NOH,
        &[("X-Tenant", "alice"), ("X-Stream", "1")],
        T,
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    let text = resp.text();
    let steps = text.lines().filter(|l| l.starts_with("step ")).count();
    assert_eq!(steps, 12, "one line per step:\n{text}");
    let last = text.lines().last().expect("verdict line");
    let doc = Json::parse(last).expect("final chunk is the JSON verdict");
    assert_eq!(str_field(&doc, "status"), "ok");
    let crc = num_field(&doc, "state_crc") as u32;
    assert_eq!(
        crc,
        direct_crc(HEALTHY_NOH),
        "streaming must be bitwise invisible"
    );
    server.shutdown();
}

#[test]
fn fault_injection_is_forbidden_unless_enabled() {
    let server = chaos_server(|c| c.allow_fault_injection = false);
    let addr = server.addr();
    let resp = client::post_run(addr, HEALTHY_NOH, &[("X-Fault-Inject", "kill:1:0")], T).unwrap();
    assert_eq!(resp.status, 403, "{}", resp.text());
    assert_eq!(
        str_field(&body_json(&resp), "kind"),
        "fault_injection_disabled"
    );
    // Garbage fault specs are typed 400s even when injection is on.
    server.shutdown();
    let server = chaos_server(|_| {});
    let resp = client::post_run(
        server.addr(),
        HEALTHY_NOH,
        &[("X-Fault-Inject", "Kill:1:0")],
        T,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    server.shutdown();
}
