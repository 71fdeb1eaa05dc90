//! The server: bounded queue, worker pool, per-request supervision,
//! graceful drain.
//!
//! One accept thread feeds a **bounded** connection queue (load
//! shedding: a full queue answers `503 overloaded` immediately, never
//! buffers without bound). A fixed set of worker threads pulls
//! connections, parses frames under a socket read deadline, runs
//! admission control, and executes simulations in bounded segments so
//! every in-flight run observes the drain flag within
//! `DRAIN_CHECK_STEPS` (ten) steps. Data-parallel kernels of concurrent
//! requests share one work-stealing pool ([`rayon::ThreadPool`]).
//!
//! Defense in depth, per request: typed [`ResourceLimits`] at deck
//! validation, a wall-clock deadline enforced symmetrically inside the
//! hydro loop, the health sentinel on every step, comm faults surfacing
//! as typed errors as soon as a team is stuck, panics caught at the request
//! boundary, and repeated health failures quarantining the tenant.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bookleaf_core::{
    CheckpointStore, ExecutorKind, Observer, RunReport, SaveOutcome, Simulation, StepView,
};
use bookleaf_typhon::{FaultKind, FaultPlan};
use bookleaf_util::{BookLeafError, CheckpointError, Crc32F64s, DeckError};

use crate::cache::DeckCache;
use crate::limits::{admit_deck, ResourceLimits};
use crate::protocol::{json_escape, parse_request, write_response, ProtocolError, Request};
use crate::quarantine::{AdmitError, QuarantinePolicy, RunOutcome, TenantLedger};

/// Steps a run executes between two looks at the drain flag.
const DRAIN_CHECK_STEPS: usize = 10;

// ---------------------------------------------------------------------------
// Bounded queue (a std channel has one consumer; the workers are many).

/// A fixed-capacity MPMC queue that also counts the items its consumers
/// hold, behind one lock: `try_push` never blocks (shedding is the
/// caller's job), `pop` blocks until it hands out an item or the queue
/// closes, and `wait_idle` until nothing is queued or held. Nothing
/// polls. Each wait has its own condition variable, so a push wakes one
/// worker and only the last `done` wakes a drain.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    ready: Condvar,
    idle: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    /// Items popped and not yet marked [`BoundedQueue::done`].
    active: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                active: 0,
                closed: false,
            }),
            capacity: capacity.max(1),
            ready: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().expect("queue poisoned")
    }

    /// Push unless full; a full queue hands the item back for shedding.
    fn try_push(&self, item: T) -> Result<(), T> {
        let mut st = self.lock();
        if st.items.len() >= self.capacity {
            return Err(item);
        }
        st.items.push_back(item);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// The oldest item, counted active until its [`BoundedQueue::done`];
    /// `None` once the queue is closed.
    fn pop(&self) -> Option<T> {
        let waiting = |st: &mut QueueState<T>| st.items.is_empty() && !st.closed;
        let st = self.ready.wait_while(self.lock(), waiting);
        let mut st = st.expect("queue poisoned");
        if st.closed {
            return None;
        }
        st.active += 1;
        st.items.pop_front()
    }

    /// A popped item is finished with.
    fn done(&self) {
        let mut st = self.lock();
        st.active -= 1;
        if st.active == 0 && st.items.is_empty() {
            self.idle.notify_all();
        }
    }

    /// Wait, at most `timeout`, until nothing is queued or active.
    fn wait_idle(&self, timeout: Duration) {
        let busy = |st: &mut QueueState<T>| !st.items.is_empty() || st.active > 0;
        let idle = self.idle.wait_timeout_while(self.lock(), timeout, busy);
        drop(idle.expect("queue poisoned"));
    }

    /// Stop handing out items: every `pop`, blocked or later, returns
    /// `None`.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

// ---------------------------------------------------------------------------
// Configuration.

/// Everything a [`Server`] is configured with.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads handling requests concurrently.
    pub workers: usize,
    /// Bounded connection-queue depth; beyond it, `503 overloaded`.
    pub queue_depth: usize,
    /// Admission-control ceilings.
    pub limits: ResourceLimits,
    /// Default per-request wall-clock deadline (a tenant's
    /// `X-Deadline-Ms` can only shorten it). `None` = no default.
    pub default_deadline: Option<Duration>,
    /// Honour `X-Fault-Inject` headers (chaos testing); when `false`
    /// the header earns a typed `403`.
    pub allow_fault_injection: bool,
    /// Tenant quarantine policy.
    pub quarantine: QuarantinePolicy,
    /// Where drain checkpoints are written and resume handles resolved.
    pub drain_dir: PathBuf,
    /// Parsed-deck cache capacity (decks, FIFO eviction).
    pub cache_entries: usize,
    /// Threads in the shared work-stealing kernel pool.
    pub pool_threads: usize,
    /// Socket read deadline: no request frame may wedge a worker.
    pub read_timeout: Duration,
    /// Byte budget for a request's header block.
    pub max_header_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 32,
            limits: ResourceLimits::default(),
            default_deadline: Some(Duration::from_secs(60)),
            allow_fault_injection: false,
            quarantine: QuarantinePolicy::default(),
            drain_dir: std::env::temp_dir().join("bookleaf_serve_drain"),
            cache_entries: 32,
            pool_threads: 2,
            read_timeout: Duration::from_secs(5),
            max_header_bytes: 8 * 1024,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared server state.

struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<TcpStream>,
    draining: AtomicBool,
    ledger: TenantLedger,
    cache: DeckCache,
    pool: rayon::ThreadPool,
    drained: AtomicUsize,
    shed: AtomicUsize,
    seq: AtomicU64,
}

/// A running server. Dropping it shuts it down (drain-free); call
/// [`Server::drain`] first for the graceful path.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept thread and workers, and start serving.
    ///
    /// # Errors
    ///
    /// Binding or thread/pool construction failures as `io::Error`.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(config.pool_threads.max(1))
            .build()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let shared = Arc::new(Shared {
            ledger: TenantLedger::new(config.quarantine, config.limits.max_inflight_per_tenant),
            cache: DeckCache::new(config.cache_entries),
            queue: BoundedQueue::new(config.queue_depth),
            draining: AtomicBool::new(false),
            pool,
            drained: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            config,
        });

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || accept_loop(&listener, &shared))?,
            );
        }
        for i in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop admitting and wait (bounded by `timeout`) for in-flight
    /// work to finish or checkpoint. Running requests observe the
    /// drain flag at their next segment boundary, checkpoint through a
    /// [`CheckpointStore`] of their own (one file, named for the tenant
    /// and a server-wide sequence number), and answer
    /// `202 {"status":"checkpointed","handle":...}`. Returns the
    /// number of requests that drained to checkpoints.
    pub fn drain(&self, timeout: Duration) -> usize {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.wait_idle(timeout);
        self.shared.drained.load(Ordering::SeqCst)
    }

    /// Requests shed so far (`503 overloaded` answers).
    #[must_use]
    pub fn shed_count(&self) -> usize {
        self.shared.shed.load(Ordering::SeqCst)
    }

    /// Stop the server: close the accept loop, wake the workers, join
    /// every thread. Also runs on [`Drop`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Accept + worker loops.

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.queue.is_closed() {
            break;
        }
        let Ok(stream) = conn else { continue };
        if shared.draining.load(Ordering::SeqCst) {
            respond_error(
                &stream,
                503,
                "Service Unavailable",
                "draining",
                "server is draining; not admitting new work",
                &[],
            );
            continue;
        }
        if let Err(stream) = shared.queue.try_push(stream) {
            shared.shed.fetch_add(1, Ordering::SeqCst);
            respond_error(
                &stream,
                503,
                "Service Unavailable",
                "overloaded",
                "connection queue full; shedding load",
                &[("Retry-After", "1")],
            );
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(stream) = shared.queue.pop() {
        handle_connection(shared, &stream);
        shared.queue.done();
    }
}

fn respond_error(
    mut stream: &TcpStream,
    status: u16,
    reason: &str,
    kind: &str,
    message: &str,
    extra: &[(&str, &str)],
) {
    let body = format!(
        "{{\"status\":\"error\",\"kind\":\"{}\",\"error\":\"{}\"}}",
        json_escape(kind),
        json_escape(message)
    );
    let _ = write_response(&mut stream, status, reason, extra, &body);
}

fn protocol_status(err: &ProtocolError) -> (u16, &'static str) {
    match err {
        ProtocolError::UnsupportedMethod(_) => (405, "Method Not Allowed"),
        ProtocolError::HeadersTooLarge { .. } => (431, "Request Header Fields Too Large"),
        ProtocolError::BodyTooLarge { .. } => (413, "Content Too Large"),
        ProtocolError::Timeout => (408, "Request Timeout"),
        _ => (400, "Bad Request"),
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let req = match parse_request(
        &mut reader,
        shared.config.max_header_bytes,
        shared.config.limits.max_deck_bytes,
    ) {
        Ok(req) => req,
        Err(err) => {
            let (status, reason) = protocol_status(&err);
            respond_error(stream, status, reason, "protocol", &err.to_string(), &[]);
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let body = format!(
                "{{\"status\":\"ok\",\"draining\":{},\"cached_decks\":{}}}",
                shared.draining.load(Ordering::SeqCst),
                shared.cache.len()
            );
            let mut w = stream;
            let _ = write_response(&mut w, 200, "OK", &[], &body);
        }
        ("POST", "/run") => handle_run(shared, stream, &req),
        ("GET", "/run") | ("POST", "/health") => {
            respond_error(
                stream,
                405,
                "Method Not Allowed",
                "protocol",
                "method not allowed on this path",
                &[],
            );
        }
        (_, path) => {
            respond_error(
                stream,
                404,
                "Not Found",
                "protocol",
                &format!("unknown path {path}"),
                &[],
            );
        }
    }
}

// ---------------------------------------------------------------------------
// /run: supervision parameters, execution, typed responses.

struct RunParams {
    tenant: String,
    deadline: Option<Instant>,
    fault: Option<(FaultKind, usize, usize)>,
    stream_steps: bool,
    resume_handle: Option<String>,
}

fn bad_header(name: &str, reason: &str) -> ProtocolError {
    ProtocolError::BadHeaderValue {
        name: name.into(),
        reason: reason.into(),
    }
}

fn parse_params(req: &Request, config: &ServeConfig) -> Result<RunParams, ProtocolError> {
    let tenant = req.header("x-tenant").unwrap_or("anon").to_string();
    if tenant.is_empty() || tenant.len() > 64 {
        return Err(bad_header("x-tenant", "must be 1..=64 characters"));
    }
    let mut deadline_in = config.default_deadline;
    if let Some(v) = req.header("x-deadline-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| bad_header("x-deadline-ms", "must be an integer millisecond count"))?;
        let requested = Duration::from_millis(ms);
        deadline_in = Some(deadline_in.map_or(requested, |d| d.min(requested)));
    }
    let fault = match req.header("x-fault-inject") {
        None => None,
        Some(v) => {
            let mut parts = v.split(':');
            let (Some(kind), Some(step), Some(rank), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(bad_header("x-fault-inject", "want `<kind>:<step>:<rank>`"));
            };
            let kind: FaultKind = kind
                .parse()
                .map_err(|e: String| bad_header("x-fault-inject", &e))?;
            let step: usize = step
                .parse()
                .map_err(|_| bad_header("x-fault-inject", "step must be an integer"))?;
            let rank: usize = rank
                .parse()
                .map_err(|_| bad_header("x-fault-inject", "rank must be an integer"))?;
            Some((kind, step, rank))
        }
    };
    let stream_steps = matches!(req.header("x-stream"), Some("1" | "true"));
    let resume_handle = req.header("x-resume").map(str::to_string);
    if let Some(handle) = &resume_handle {
        let valid = !handle.is_empty()
            && handle.ends_with(".ckpt")
            && handle
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && !handle.contains("..");
        if !valid {
            return Err(bad_header("x-resume", "not a valid checkpoint handle"));
        }
        if !req.body.is_empty() {
            return Err(bad_header("x-resume", "resume requests take no body"));
        }
        if stream_steps {
            return Err(bad_header(
                "x-stream",
                "streaming is not available on resumed runs",
            ));
        }
    }
    Ok(RunParams {
        tenant,
        deadline: deadline_in.map(|d| Instant::now() + d),
        fault,
        stream_steps,
        resume_handle,
    })
}

/// CRC-32 of the solution state (ρ, ε, node velocities, node
/// positions), bit-exact: two runs agree on this iff they agree
/// bitwise on the physics. The serve response carries it so clients —
/// and the chaos suite — can compare against unloaded runs.
#[must_use]
pub fn state_crc(sim: &Simulation) -> u32 {
    // Borrowed from whichever side holds the solution, and streamed
    // through the CRC as it lies: digesting a run copies nothing, and a
    // distributed one does not build its global view.
    let solution = sim.solution();
    let mut crc = Crc32F64s::new();
    crc.update(solution.rho);
    crc.update(solution.ein);
    for v in solution.u.iter().chain(solution.nodes) {
        crc.update(&[v.x, v.y]);
    }
    crc.finish()
}

fn executor_name(executor: ExecutorKind) -> String {
    match executor {
        ExecutorKind::Serial => "serial".into(),
        ExecutorKind::FlatMpi { ranks } => format!("flat_mpi[{ranks}]"),
        ExecutorKind::Hybrid {
            ranks,
            threads_per_rank,
        } => format!("hybrid[{ranks}x{threads_per_rank}]"),
    }
}

/// Map a run failure to (HTTP status, reason, error kind, tenant
/// outcome). Health-class failures feed the quarantine ledger; deck
/// and checkpoint mistakes never do.
fn classify_run_error(err: &BookLeafError) -> (u16, &'static str, &'static str, RunOutcome) {
    match err {
        BookLeafError::Deck(_)
        | BookLeafError::MeshTopology(_)
        | BookLeafError::MeshTooLarge { .. }
        | BookLeafError::Partition(_)
        | BookLeafError::EmptyExecutor { .. } => {
            (400, "Bad Request", "deck", RunOutcome::Unrelated)
        }
        BookLeafError::Checkpoint(_) => (400, "Bad Request", "checkpoint", RunOutcome::Unrelated),
        BookLeafError::NegativeVolume { .. }
        | BookLeafError::TimestepCollapse { .. }
        | BookLeafError::InvalidState { .. }
        | BookLeafError::Unhealthy { .. } => (
            422,
            "Unprocessable Content",
            "unhealthy",
            RunOutcome::HealthFailure,
        ),
        BookLeafError::CommFault(_) => (
            500,
            "Internal Server Error",
            "comm_fault",
            RunOutcome::HealthFailure,
        ),
        BookLeafError::RankPanic { .. } => (
            500,
            "Internal Server Error",
            "rank_panic",
            RunOutcome::HealthFailure,
        ),
        BookLeafError::ThreadSpawn { .. } => (
            500,
            "Internal Server Error",
            "thread_spawn",
            RunOutcome::Unrelated,
        ),
        BookLeafError::DeadlineExceeded { .. } => (
            504,
            "Gateway Timeout",
            "deadline",
            RunOutcome::HealthFailure,
        ),
    }
}

/// What one supervised execution ended as.
enum RunEnd {
    Done(Box<Simulation>, Box<RunReport>),
    Drained {
        handle: String,
        steps: u64,
        time: f64,
    },
    Failed(BookLeafError),
}

fn handle_run(shared: &Arc<Shared>, stream: &TcpStream, req: &Request) {
    if shared.draining.load(Ordering::SeqCst) {
        respond_error(
            stream,
            503,
            "Service Unavailable",
            "draining",
            "server is draining; not admitting new work",
            &[],
        );
        return;
    }
    let params = match parse_params(req, &shared.config) {
        Ok(p) => p,
        Err(err) => {
            let (status, reason) = protocol_status(&err);
            respond_error(stream, status, reason, "protocol", &err.to_string(), &[]);
            return;
        }
    };
    if params.fault.is_some() && !shared.config.allow_fault_injection {
        respond_error(
            stream,
            403,
            "Forbidden",
            "fault_injection_disabled",
            "this server does not honour X-Fault-Inject",
            &[],
        );
        return;
    }
    match shared.ledger.admit(&params.tenant) {
        Ok(()) => {}
        Err(err @ AdmitError::Quarantined { retry_after }) => {
            let ms = retry_after.as_millis();
            let secs = retry_after.as_secs().max(1).to_string();
            let body = format!(
                "{{\"status\":\"error\",\"kind\":\"quarantined\",\"error\":\"{}\",\"retry_after_ms\":{ms}}}",
                json_escape(&err.to_string())
            );
            let mut w = stream;
            let _ = write_response(
                &mut w,
                429,
                "Too Many Requests",
                &[("Retry-After", secs.as_str())],
                &body,
            );
            return;
        }
        Err(err @ AdmitError::TooManyInFlight { .. }) => {
            respond_error(
                stream,
                429,
                "Too Many Requests",
                "too_many_in_flight",
                &err.to_string(),
                &[("Retry-After", "1")],
            );
            return;
        }
    }
    // Admitted: exactly one `finish` below, whatever happens.
    let started = Instant::now();
    let (end, cached, responded) = execute(shared, stream, req, &params);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let outcome = match &end {
        RunEnd::Done(..) => RunOutcome::Healthy,
        // Being drained is the server's doing, not the tenant's.
        RunEnd::Drained { .. } => RunOutcome::Unrelated,
        RunEnd::Failed(err) => classify_run_error(err).3,
    };
    shared.ledger.finish(&params.tenant, outcome);
    if let RunEnd::Drained { .. } = &end {
        shared.drained.fetch_add(1, Ordering::SeqCst);
    }
    if responded {
        return;
    }
    match end {
        RunEnd::Done(sim, report) => {
            let crc = state_crc(&sim);
            let body = format!(
                "{{\"status\":\"ok\",\"name\":\"{}\",\"executor\":\"{}\",\"ranks\":{},\"steps\":{},\"time\":{:.17e},\"time_bits\":\"0x{:016x}\",\"energy_end_bits\":\"0x{:016x}\",\"state_crc\":{},\"cached_deck\":{},\"wall_ms\":{:.3}}}",
                json_escape(&report.name),
                executor_name(report.executor),
                report.ranks,
                report.steps,
                report.time,
                report.time.to_bits(),
                report.energy_end.to_bits(),
                crc,
                cached,
                wall_ms
            );
            let mut w = stream;
            let _ = write_response(&mut w, 200, "OK", &[], &body);
        }
        RunEnd::Drained {
            handle,
            steps,
            time,
        } => {
            let body = format!(
                "{{\"status\":\"checkpointed\",\"handle\":\"{}\",\"steps\":{steps},\"time\":{time:.17e}}}",
                json_escape(&handle)
            );
            let mut w = stream;
            let _ = write_response(&mut w, 202, "Accepted", &[], &body);
        }
        RunEnd::Failed(err) => {
            let (status, reason, kind, _) = classify_run_error(&err);
            respond_error(stream, status, reason, kind, &err.to_string(), &[]);
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming.

/// Streams one `step <n> t=<t> dt=<dt>` line per step as an HTTP chunk.
/// Write failures are remembered and silence the stream; they never
/// perturb the run (observers are read-only by contract).
struct StepStreamer {
    sink: Arc<Mutex<ChunkSink>>,
}

struct ChunkSink {
    stream: TcpStream,
    dead: bool,
}

impl ChunkSink {
    fn head(&mut self) {
        let head = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
        if self.stream.write_all(head.as_bytes()).is_err() {
            self.dead = true;
        }
    }

    fn chunk(&mut self, text: &str) {
        if self.dead {
            return;
        }
        let frame = format!("{:x}\r\n{text}\r\n", text.len());
        if self.stream.write_all(frame.as_bytes()).is_err() {
            self.dead = true;
        }
    }

    fn finish(&mut self) {
        if !self.dead {
            let _ = self.stream.write_all(b"0\r\n\r\n");
            let _ = self.stream.flush();
        }
    }
}

impl Observer for StepStreamer {
    fn step_end(&mut self, view: &StepView<'_>) {
        if view.rank == 0 {
            let line = format!(
                "step {} t={:.9e} dt={:.9e}\n",
                view.step + 1,
                view.time,
                view.dt
            );
            self.sink.lock().expect("stream sink poisoned").chunk(&line);
        }
    }
}

// ---------------------------------------------------------------------------
// Supervised execution.

/// Build and run one request under full supervision. Returns the end
/// state, whether the deck came from cache, and whether the response
/// has already been written (streamed runs answer inline).
fn execute(
    shared: &Arc<Shared>,
    stream: &TcpStream,
    req: &Request,
    params: &RunParams,
) -> (RunEnd, bool, bool) {
    let config = &shared.config;
    let mut cached = false;
    let mut sink: Option<Arc<Mutex<ChunkSink>>> = None;

    let built: Result<Simulation, BookLeafError> = (|| {
        let mut builder = Simulation::builder();
        if let Some(handle) = &params.resume_handle {
            let path = config.drain_dir.join(handle);
            if !path.is_file() {
                return Err(BookLeafError::Checkpoint(CheckpointError::Io {
                    path: handle.clone(),
                    message: "no such checkpoint handle".into(),
                }));
            }
            builder = builder.resume(path);
        } else {
            let text = std::str::from_utf8(&req.body).map_err(|_| {
                BookLeafError::Deck(DeckError::Config {
                    message: "deck text is not valid UTF-8".into(),
                })
            })?;
            let input = admit_deck(text, &config.limits).map_err(BookLeafError::Deck)?;
            if params.stream_steps && input.executor != ExecutorKind::Serial {
                return Err(BookLeafError::Deck(DeckError::Config {
                    message: "X-Stream requires the serial executor".into(),
                }));
            }
            let (deck, hit) = shared
                .cache
                .get_or_build(&input)
                .map_err(BookLeafError::Deck)?;
            cached = hit;
            builder = builder.deck(deck).config(input.run_config());
        }
        if let Some(at) = params.deadline {
            builder = builder.deadline(at);
        }
        if let Some((kind, step, rank)) = params.fault {
            builder = builder.fault_plan(FaultPlan::new().with(kind, step, rank));
        }
        if params.stream_steps {
            if let Ok(clone) = stream.try_clone() {
                let sink_arc = Arc::new(Mutex::new(ChunkSink {
                    stream: clone,
                    dead: false,
                }));
                builder = builder.observer(StepStreamer {
                    sink: Arc::clone(&sink_arc),
                });
                sink = Some(sink_arc);
            }
        }
        builder.build()
    })();
    let sim = match built {
        Ok(sim) => sim,
        Err(err) => return (RunEnd::Failed(err), cached, false),
    };

    // If streaming, commit the chunked response head before the run.
    if let Some(sink) = &sink {
        sink.lock().expect("stream sink poisoned").head();
    }

    // Segmented supervised execution on the shared kernel pool.
    let end = at_request_boundary(|| run_supervised(shared, &params.tenant, sim));

    // Streaming: the final chunk carries the JSON verdict, then the
    // terminator; the fixed-length responder must not also fire.
    if let Some(sink) = sink {
        let mut s = sink.lock().expect("stream sink poisoned");
        let verdict = match &end {
            RunEnd::Done(sim, report) => format!(
                "{{\"status\":\"ok\",\"steps\":{},\"time_bits\":\"0x{:016x}\",\"state_crc\":{}}}\n",
                report.steps,
                report.time.to_bits(),
                state_crc(sim)
            ),
            RunEnd::Drained { handle, .. } => format!(
                "{{\"status\":\"checkpointed\",\"handle\":\"{}\"}}\n",
                json_escape(handle)
            ),
            RunEnd::Failed(err) => {
                let (_, _, kind, _) = classify_run_error(err);
                format!(
                    "{{\"status\":\"error\",\"kind\":\"{kind}\",\"error\":\"{}\"}}\n",
                    json_escape(&err.to_string())
                )
            }
        };
        s.chunk(&verdict);
        s.finish();
        return (end, cached, true);
    }
    (end, cached, false)
}

/// Run `op`, catching a panic at the request boundary as a typed
/// `RankPanic` of rank 0. A team's rank panics already arrive typed;
/// a run of one rank has no team, so its panics — an observer's, say —
/// unwind to here, as a serial run's always did.
fn at_request_boundary(op: impl FnOnce() -> RunEnd) -> RunEnd {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        RunEnd::Failed(BookLeafError::RankPanic { rank: 0, message })
    })
}

/// The segment loop: run `DRAIN_CHECK_STEPS` at a time, checkpointing
/// out with a resumable handle the moment the server starts draining.
fn run_supervised(shared: &Arc<Shared>, tenant: &str, mut sim: Simulation) -> RunEnd {
    shared.pool.install(|| loop {
        if shared.draining.load(Ordering::SeqCst) {
            let seq = shared.seq.fetch_add(1, Ordering::SeqCst);
            let prefix = format!("{}_{seq:06}", sanitize(tenant));
            let mut store = CheckpointStore::new(&shared.config.drain_dir, &prefix);
            let path = match store.save(&sim) {
                Ok(SaveOutcome::Written(path)) => path,
                Ok(SaveOutcome::Rejected { reason, .. }) => {
                    return RunEnd::Failed(BookLeafError::Checkpoint(CheckpointError::Corrupt {
                        what: reason,
                    }))
                }
                Err(err) => return RunEnd::Failed(err),
            };
            let handle = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let cursor = sim.cursor();
            return RunEnd::Drained {
                handle,
                steps: cursor.steps as u64,
                time: cursor.t,
            };
        }
        match sim.run_segment(DRAIN_CHECK_STEPS) {
            Err(err) => return RunEnd::Failed(err),
            Ok(report) => {
                if sim.complete() {
                    return RunEnd::Done(Box::new(sim), Box::new(report));
                }
            }
        }
    })
}

fn sanitize(tenant: &str) -> String {
    tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_classification_separates_health_from_deck_mistakes() {
        let deck = BookLeafError::Deck(DeckError::Config {
            message: "X-Stream requires the serial executor".into(),
        });
        let (status, _, kind, outcome) = classify_run_error(&deck);
        assert_eq!((status, kind), (400, "deck"));
        assert_eq!(outcome, RunOutcome::Unrelated);
        let sentinel = BookLeafError::Unhealthy {
            step: 3,
            diagnosis: bookleaf_util::HealthDiagnosis::NonFinite {
                rank: 0,
                field: bookleaf_util::HealthField::Rho,
                index: 7,
            },
        };
        let (status, _, kind, outcome) = classify_run_error(&sentinel);
        assert_eq!((status, kind), (422, "unhealthy"));
        assert_eq!(outcome, RunOutcome::HealthFailure);
        let deadline = BookLeafError::DeadlineExceeded { step: 9 };
        let (status, _, kind, outcome) = classify_run_error(&deadline);
        assert_eq!((status, kind), (504, "deadline"));
        assert_eq!(outcome, RunOutcome::HealthFailure);
    }

    #[test]
    fn bounded_queue_sheds_when_full_and_pops_fifo() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        q.close();
        assert_eq!(q.pop(), None);
    }

    /// The digest of a distributed run reads the restart state its team
    /// left; it neither builds the global view nor depends on whether
    /// someone else did.
    #[test]
    fn state_crc_of_a_distributed_run_builds_no_global_state() {
        let mut sim = Simulation::builder()
            .deck(bookleaf_core::decks::noh(10))
            .max_steps(4)
            .executor(ExecutorKind::FlatMpi { ranks: 2 })
            .build()
            .unwrap();
        let before = state_crc(&sim);
        sim.run().unwrap();
        let crc = state_crc(&sim);
        assert_ne!(crc, before);
        // `Engine`'s `Debug` names what the executor holds.
        assert!(format!("{sim:?}").contains("team, no view"), "{sim:?}");
        let _ = sim.state();
        assert!(format!("{sim:?}").contains("team, view built"), "{sim:?}");
        assert_eq!(state_crc(&sim), crc);
    }

    /// A run of one rank has no team to type its panics: an observer's
    /// unwinds the run, and the request boundary turns it into the same
    /// typed answer a team's rank panic gets.
    #[test]
    fn a_panic_in_a_run_of_one_rank_is_caught_at_the_request_boundary() {
        struct PanicAtStep(usize);
        impl Observer for PanicAtStep {
            fn step_end(&mut self, view: &StepView<'_>) {
                assert!(view.step + 1 != self.0, "injected observer panic");
            }
        }
        let executor = ExecutorKind::Hybrid {
            ranks: 1,
            threads_per_rank: 2,
        };
        let mut sim = Simulation::builder()
            .deck(bookleaf_core::decks::noh(8))
            .max_steps(5)
            .executor(executor)
            .observer(PanicAtStep(3))
            .build()
            .unwrap();
        let end = at_request_boundary(move || match sim.run() {
            Ok(report) => RunEnd::Done(Box::new(sim), Box::new(report)),
            Err(err) => RunEnd::Failed(err),
        });
        let RunEnd::Failed(BookLeafError::RankPanic { rank: 0, message }) = end else {
            panic!("the panic did not arrive as a typed RankPanic");
        };
        assert!(message.contains("injected observer panic"), "{message}");
    }

    #[test]
    fn tenant_names_sanitize_to_filesystem_safe_prefixes() {
        assert_eq!(sanitize("alice"), "alice");
        assert_eq!(sanitize("../../etc"), "______etc");
        assert_eq!(sanitize("team a/b"), "team_a_b");
    }
}
