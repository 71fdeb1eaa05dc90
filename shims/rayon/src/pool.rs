//! The fork-join work-stealing thread pool behind the shim.
//!
//! Architecture (a deliberately simple rendition of rayon's registry,
//! built on `std` primitives only):
//!
//! * A `Registry` owns one FIFO **injector** queue for work arriving
//!   from outside the pool and one deque **per worker**. Workers push and
//!   pop their own deque LIFO (newest first, for cache locality); thieves
//!   and the injector drain FIFO (oldest first — the biggest pieces of a
//!   recursively split range).
//! * [`join`] is the only fork primitive: it publishes the second closure
//!   as a `StackJob` on the worker's own deque, runs the first closure
//!   inline, then either pops the second back (not stolen — run it
//!   inline) or **helps** by stealing other work until the thief's latch
//!   fires. Blocking never idles a worker while work exists.
//! * `install` on a non-worker thread injects the closure as a job with a
//!   blocking `LockLatch` and parks until a worker completes it; on a
//!   worker of the same pool it simply runs the closure in place (nested
//!   `install`).
//! * Panics inside jobs are caught at the job boundary, carried through
//!   the latch as a payload, and re-raised on the thread that joins on
//!   the result — a panic in any worker propagates to the caller, never
//!   aborts the pool. Pool-internal mutexes recover from poisoning
//!   (`lock_recover`) rather than propagating it, so even a panic that
//!   somehow unwinds across pool internals leaves the pool usable: the
//!   process-wide contract is *poison-and-recover* — one panicked
//!   parallel sweep must never wedge later runs on the same pool.
//!
//! Everything here is `unsafe`-light: the only raw-pointer trick is the
//! classic stack-job one (a `JobRef` type-erases a pointer to a
//! `StackJob` living on the forking thread's stack; the fork never
//! returns before the job completed, so the pointer outlives every use).

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Lock a pool-internal mutex, recovering the guard from a poisoned
/// lock instead of propagating. Every value guarded here (job deques,
/// latch flags, the sleep event counter) is valid at each intermediate
/// point of its critical sections — there is no in-flight invariant a
/// mid-section unwind could break — so recovery is always sound. This
/// is what keeps the pool usable for later `Simulation` runs after a
/// kernel sweep panicked: the panic propagates to the caller (poison),
/// and the next run simply locks on through (recover), rather than
/// hitting a `PoisonError` panic cascade on every subsequent job.
fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison-recovery policy as
/// [`lock_recover`].
fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Latches

/// Latch used by `join`: the waiter helps (steals work) between probes
/// and, when the pool is fully drained, parks on the registry's sleep
/// condvar — `set` tickles that condvar, so waiting burns no CPU while
/// the thief computes (see [`Registry::wait_on_latch`]).
pub(crate) struct SpinLatch {
    set: AtomicBool,
    /// The registry whose sleep machinery to tickle on `set`. Raw
    /// pointer: the registry strictly outlives the join frame the latch
    /// lives in (the frame runs on one of the registry's own workers).
    registry: *const Registry,
}

impl SpinLatch {
    fn new(registry: &Registry) -> Self {
        SpinLatch {
            set: AtomicBool::new(false),
            registry: std::ptr::from_ref(registry),
        }
    }

    fn probe(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }

    /// `SeqCst` probe for the pre-sleep handshake (pairs with the
    /// `SeqCst` store + sleeper check in [`SpinLatch::set`] so either
    /// the setter sees the sleeper or the sleeper sees the latch).
    fn probe_strong(&self) -> bool {
        self.set.load(Ordering::SeqCst)
    }
}

/// Blocking latch used by `install` from non-worker threads (they have
/// no queue to help from, so they park on a condvar).
pub(crate) struct LockLatch {
    done: Mutex<bool>,
    cv: Condvar,
}

impl LockLatch {
    fn new() -> Self {
        LockLatch {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = lock_recover(&self.done);
        while !*done {
            done = wait_recover(&self.cv, done);
        }
    }
}

/// What a job does once finished: flip its latch. The store must be the
/// job's final touch of the `StackJob` memory — the owner may pop its
/// stack frame immediately after observing the latch.
pub(crate) trait Latch {
    fn set(&self);
}

impl Latch for SpinLatch {
    fn set(&self) {
        // Copy the registry pointer out *before* flipping the flag: the
        // instant the store is visible, the waiter may return from
        // `join` and pop the stack frame holding this latch, so the
        // store must be our last touch of `self`.
        let registry = self.registry;
        self.set.store(true, Ordering::SeqCst);
        // SAFETY: the registry outlives every join frame on its own
        // workers (the frame runs on one of the registry's worker
        // threads, which hold the `Arc`).
        unsafe { (*registry).sleep.notify() };
    }
}

impl Latch for LockLatch {
    fn set(&self) {
        let mut done = lock_recover(&self.done);
        *done = true;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Jobs

/// Type-erased pointer to a job awaiting execution. The pointee is a
/// `StackJob` on the stack of the thread that forked it; that thread
/// does not return until the job's latch fires, so the pointer is valid
/// for as long as any queue or thief holds this ref.
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only ever executed once, and the closure it points
// to is `Send` (enforced by `StackJob::new`'s bounds).
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    /// Must be called at most once per underlying job, while the
    /// `StackJob` it points to is still alive.
    unsafe fn execute(self) {
        (self.execute_fn)(self.data);
    }
}

enum JobResult<R> {
    NotRun,
    Ok(R),
    Panicked(Box<dyn Any + Send>),
}

/// A closure pinned on the forking thread's stack, executable exactly
/// once from any thread via its `JobRef`.
pub(crate) struct StackJob<L: Latch, F, R> {
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
    latch: L,
}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch,
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(latch: L, f: F) -> Self {
        StackJob {
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(JobResult::NotRun),
            latch,
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: std::ptr::from_ref(self).cast(),
            execute_fn: Self::execute_erased,
        }
    }

    /// # Safety
    /// `ptr` must come from `as_job_ref` of a live `StackJob`, and be
    /// executed at most once.
    unsafe fn execute_erased(ptr: *const ()) {
        let job = &*ptr.cast::<Self>();
        let f = (*job.f.get()).take().expect("job executed twice");
        let out = match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => JobResult::Ok(v),
            Err(payload) => JobResult::Panicked(payload),
        };
        *job.result.get() = out;
        job.latch.set();
    }

    /// Run the closure on the owning thread (the job was popped back
    /// before any thief saw it). Panics propagate directly.
    fn run_inline(self) -> R {
        let f = self.f.into_inner().expect("job executed twice");
        f()
    }

    /// Consume the completed job, re-raising a captured panic.
    fn into_result(self) -> R {
        match self.result.into_inner() {
            JobResult::Ok(v) => v,
            JobResult::Panicked(payload) => panic::resume_unwind(payload),
            JobResult::NotRun => unreachable!("latch set but job never ran"),
        }
    }
}

// ---------------------------------------------------------------------------
// Sleep machinery

/// Wakeup channel for idle workers, tuned so the hot path (pushing a job
/// while every worker is busy) is a single relaxed-ish atomic load.
struct Sleep {
    /// Event counter; bumping it (under the lock) is what "wake up"
    /// means. Prevents lost wakeups between a worker's last scan and its
    /// `wait`.
    events: Mutex<u64>,
    cv: Condvar,
    /// Number of workers past their pre-sleep declaration. Pushers skip
    /// the mutex entirely while this is zero.
    sleepers: AtomicUsize,
}

impl Sleep {
    fn new() -> Self {
        Sleep {
            events: Mutex::new(0),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let mut events = lock_recover(&self.events);
            *events += 1;
            self.cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Registry

/// Shared state of one thread pool: queues + sleep + termination flag.
pub(crate) struct Registry {
    injector: Mutex<VecDeque<JobRef>>,
    queues: Vec<Mutex<VecDeque<JobRef>>>,
    sleep: Sleep,
    terminate: AtomicBool,
}

// The TLS identity of a worker thread: which registry it belongs to and
// its index there. The raw pointer is valid for the worker's lifetime
// because the worker itself keeps an `Arc<Registry>` alive.
thread_local! {
    static CURRENT_WORKER: Cell<Option<(*const Registry, usize)>> = const { Cell::new(None) };
}

#[derive(Clone, Copy)]
struct WorkerCtx {
    registry: *const Registry,
    index: usize,
}

fn current_worker() -> Option<WorkerCtx> {
    CURRENT_WORKER
        .with(|c| c.get())
        .map(|(registry, index)| WorkerCtx { registry, index })
}

/// Spawn a registry with `n` workers. Handles are returned so owned
/// pools can join them on drop; the global pool leaks them. On spawn
/// failure (thread/resource exhaustion) the workers already started are
/// shut down and the error is propagated, so
/// `ThreadPoolBuilder::build`'s `Result` is honest.
pub(crate) fn spawn_registry(n: usize) -> std::io::Result<(Arc<Registry>, Vec<JoinHandle<()>>)> {
    let registry = Arc::new(Registry {
        injector: Mutex::new(VecDeque::new()),
        queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
        sleep: Sleep::new(),
        terminate: AtomicBool::new(false),
    });
    let mut handles = Vec::with_capacity(n);
    for index in 0..n {
        let worker_registry = Arc::clone(&registry);
        let spawned = std::thread::Builder::new()
            .name(format!("rayon-shim-{index}"))
            .spawn(move || worker_loop(&worker_registry, index));
        match spawned {
            Ok(handle) => handles.push(handle),
            Err(err) => {
                registry.terminate_and_wake();
                for handle in handles {
                    let _ = handle.join();
                }
                return Err(err);
            }
        }
    }
    Ok((registry, handles))
}

fn worker_loop(registry: &Arc<Registry>, index: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((Arc::as_ptr(registry), index))));
    loop {
        // Hot path: drain work with no sleep bookkeeping at all.
        if let Some(job) = registry.find_work(index) {
            // SAFETY: each JobRef is executed exactly once (queues hand
            // them out once), and its StackJob is alive until its latch.
            unsafe { job.execute() };
            continue;
        }
        if registry.terminate.load(Ordering::SeqCst) {
            break;
        }
        // Idle: declare intent to sleep *before* a final scan, so a
        // pusher that misses that scan is guaranteed to see
        // `sleepers > 0` and bump the event counter we captured first.
        let seen = *lock_recover(&registry.sleep.events);
        registry.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
        if let Some(job) = registry.find_work(index) {
            registry.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
            // SAFETY: as above.
            unsafe { job.execute() };
            continue;
        }
        if registry.terminate.load(Ordering::SeqCst) {
            registry.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
            break;
        }
        let mut events = lock_recover(&registry.sleep.events);
        while *events == seen && !registry.terminate.load(Ordering::SeqCst) {
            events = wait_recover(&registry.sleep.cv, events);
        }
        drop(events);
        registry.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Registry {
    pub(crate) fn num_threads(&self) -> usize {
        self.queues.len()
    }

    fn push_local(&self, index: usize, job: JobRef) {
        lock_recover(&self.queues[index]).push_back(job);
        self.sleep.notify();
    }

    fn inject(&self, job: JobRef) {
        lock_recover(&self.injector).push_back(job);
        self.sleep.notify();
    }

    /// Pop `job` back off our own deque if no thief took it. LIFO
    /// discipline means the back of the deque is exactly the job this
    /// stack frame pushed (inner joins have already popped theirs).
    fn pop_local_if(&self, index: usize, job: JobRef) -> bool {
        let mut q = lock_recover(&self.queues[index]);
        if q.back().is_some_and(|j| std::ptr::eq(j.data, job.data)) {
            q.pop_back();
            true
        } else {
            false
        }
    }

    /// Newest local work, else injected work, else steal oldest-first
    /// from the other workers.
    fn find_work(&self, index: usize) -> Option<JobRef> {
        if let Some(job) = lock_recover(&self.queues[index]).pop_back() {
            return Some(job);
        }
        if let Some(job) = lock_recover(&self.injector).pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for k in 1..n {
            let victim = (index + k) % n;
            if let Some(job) = lock_recover(&self.queues[victim]).pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Wait for a stolen job's latch, helping with other work while any
    /// exists and parking on the sleep condvar when the pool is drained
    /// (the thief's [`SpinLatch::set`] tickles that condvar). A short
    /// yield-spin bridges the common case where the thief finishes
    /// within a timeslice, avoiding the lock traffic of the full
    /// pre-sleep handshake.
    fn wait_on_latch(&self, index: usize, latch: &SpinLatch) {
        let mut spins = 0u32;
        loop {
            if latch.probe() {
                return;
            }
            if let Some(job) = self.find_work(index) {
                spins = 0;
                // SAFETY: executed exactly once; see worker_loop.
                unsafe { job.execute() };
                continue;
            }
            spins += 1;
            if spins < 32 {
                std::thread::yield_now();
                continue;
            }
            // Pre-sleep handshake, as in `worker_loop`: declare the
            // sleeper first, then re-probe with SeqCst so either the
            // setter sees `sleepers > 0` (and bumps the event counter)
            // or we see the latch already set.
            let seen = *lock_recover(&self.sleep.events);
            self.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
            if latch.probe_strong() {
                self.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            if let Some(job) = self.find_work(index) {
                // Retract the declaration before running the job.
                self.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
                spins = 0;
                // SAFETY: executed exactly once; see worker_loop.
                unsafe { job.execute() };
                continue;
            }
            let mut events = lock_recover(&self.sleep.events);
            while *events == seen && !latch.probe() {
                events = wait_recover(&self.sleep.cv, events);
            }
            drop(events);
            self.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
            spins = 0;
        }
    }

    /// Run `op` inside this pool: directly when already on one of its
    /// workers, otherwise injected + blocked on a `LockLatch`.
    pub(crate) fn install<R, OP>(self: &Arc<Self>, op: OP) -> R
    where
        R: Send,
        OP: FnOnce() -> R + Send,
    {
        if let Some(w) = current_worker() {
            if std::ptr::eq(w.registry, Arc::as_ptr(self)) {
                return op();
            }
        }
        let job = StackJob::new(LockLatch::new(), op);
        self.inject(job.as_job_ref());
        job.latch.wait();
        job.into_result()
    }

    pub(crate) fn terminate_and_wake(&self) {
        self.terminate.store(true, Ordering::SeqCst);
        let mut events = lock_recover(&self.sleep.events);
        *events += 1;
        self.sleep.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The global (lazily spawned) pool

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

fn default_num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The pool a `join` outside any `install` runs on: spawned on
/// first use with one worker per available core, never torn down
/// (workers are daemon threads, like real rayon's global pool).
pub(crate) fn global_registry() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| {
        let (registry, _handles) =
            spawn_registry(default_num_threads()).expect("failed to spawn the global rayon pool");
        registry
    })
}

/// Width of the pool the calling thread executes in: the installed
/// pool's width on a worker, else the width the global pool has/would
/// have. This is the `rayon::current_num_threads` fix — the sequential
/// shim hardwired 1.
#[must_use]
pub fn current_num_threads() -> usize {
    match current_worker() {
        // SAFETY: the registry outlives its workers; we *are* one.
        Some(w) => unsafe { (*w.registry).num_threads() },
        None => default_num_threads(),
    }
}

// ---------------------------------------------------------------------------
// join

/// Run both closures, potentially in parallel, returning both results.
/// Mirror of `rayon::join` (fork-join semantics, panic propagation, and
/// all): `oper_b` is made stealable while the caller runs `oper_a`.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match current_worker() {
        Some(w) => join_on_worker(w, oper_a, oper_b),
        // Not inside any pool: bounce through the global pool, as rayon
        // does.
        None => global_registry().install(|| join(oper_a, oper_b)),
    }
}

fn join_on_worker<A, B, RA, RB>(w: WorkerCtx, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // SAFETY: `w.registry` points at the registry keeping this worker
    // thread alive.
    let registry = unsafe { &*w.registry };
    let job_b = StackJob::new(SpinLatch::new(registry), oper_b);
    let ref_b = job_b.as_job_ref();
    registry.push_local(w.index, ref_b);

    // Run A, containing its panic until B is accounted for — B may
    // borrow from this stack frame, so we must not unwind past it while
    // a thief is still running it.
    let result_a = panic::catch_unwind(AssertUnwindSafe(oper_a));

    if registry.pop_local_if(w.index, ref_b) {
        // B was never stolen.
        match result_a {
            Ok(ra) => (ra, job_b.run_inline()),
            // B never ran; dropping it un-run is fine.
            Err(payload) => panic::resume_unwind(payload),
        }
    } else {
        // B was stolen: help with other work until its latch fires,
        // parking when the pool is drained (no busy-spin — on an
        // oversubscribed host that would steal cycles from the very
        // thief we are waiting on).
        registry.wait_on_latch(w.index, &job_b.latch);
        match result_a {
            Ok(ra) => (ra, job_b.into_result()),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPoolBuilder;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn pool(n: usize) -> crate::ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    /// Sum of `f(i)` over `lo..hi`, halved with [`join`] down to `leaf`
    /// items — the way `hydro::sweep` forks a range.
    fn fork_sum(lo: usize, hi: usize, leaf: usize, f: &(impl Fn(usize) -> usize + Sync)) -> usize {
        if hi - lo <= leaf {
            return (lo..hi).map(f).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = join(|| fork_sum(lo, mid, leaf, f), || fork_sum(mid, hi, leaf, f));
        a + b
    }

    #[test]
    fn install_establishes_pool_context() {
        let p = pool(4);
        assert_eq!(p.current_num_threads(), 4);
        // The satellite fix: current_num_threads() must report the
        // *installed* pool's width, not 1.
        assert_eq!(p.install(current_num_threads), 4);
        let q = pool(2);
        assert_eq!(q.install(current_num_threads), 2);
    }

    #[test]
    fn install_returns_closure_result() {
        let p = pool(2);
        let data = [1u64, 2, 3];
        // Non-'static borrow across install: the blocking contract
        // makes this sound, like real rayon.
        let sum = p.install(|| data.iter().sum::<u64>());
        assert_eq!(sum, 6);
    }

    #[test]
    fn nested_install_same_pool_runs_in_place() {
        let p = pool(3);
        let n = p.install(|| p.install(|| p.install(current_num_threads)));
        assert_eq!(n, 3);
    }

    #[test]
    fn nested_install_across_pools_switches_context() {
        let a = pool(2);
        let b = pool(5);
        let (na, nb, na_again) = a.install(|| {
            let na = current_num_threads();
            let nb = b.install(current_num_threads);
            (na, nb, current_num_threads())
        });
        assert_eq!(na, 2);
        assert_eq!(nb, 5);
        assert_eq!(na_again, 2);
    }

    #[test]
    fn forked_reduce_over_large_range_matches_sequential() {
        let p = pool(4);
        let n = 100_000usize;
        let par = p.install(|| fork_sum(0, n, n / 64, &|i| i * i));
        let seq: usize = (0..n).map(|i| i * i).sum();
        assert_eq!(par, seq);
        let par_sum = p.install(|| fork_sum(0, n, 1, &|i| i));
        assert_eq!(par_sum, n * (n - 1) / 2);
    }

    #[test]
    fn panic_in_worker_propagates_to_caller() {
        let p = pool(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.install(|| panic!("boom from a worker"));
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("boom from a worker"), "payload lost: {msg:?}");
        // The pool survives and stays usable.
        assert_eq!(p.install(|| 21 * 2), 42);
    }

    #[test]
    fn panic_inside_forked_work_propagates() {
        let p = pool(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.install(|| {
                fork_sum(0, 10_000, 16, &|i| {
                    assert!(i != 7_777, "found the poison element");
                    i
                })
            });
        }));
        assert!(caught.is_err());
        assert_eq!(p.install(|| 1 + 1), 2);
    }

    #[test]
    fn work_actually_distributes_across_workers() {
        let p = pool(4);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        p.install(|| {
            fork_sum(0, 64, 1, &|i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                // Give other workers a chance to steal even on a
                // single-core host.
                std::thread::sleep(Duration::from_millis(1));
                i
            })
        });
        let seen = seen.into_inner().unwrap();
        assert!(
            seen.len() >= 2,
            "64 sleepy items stayed on {} worker(s)",
            seen.len()
        );
    }

    #[test]
    fn join_outside_any_pool_is_sequential_and_correct() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
    }

    #[test]
    fn join_inside_pool_handles_nesting() {
        let p = pool(2);
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(p.install(|| fib(16)), 987);
    }

    #[test]
    fn dropping_pool_joins_workers() {
        let p = pool(3);
        assert_eq!(p.install(|| 7), 7);
        drop(p); // must not hang or leak panics
    }
}
