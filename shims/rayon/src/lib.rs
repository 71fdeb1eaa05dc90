//! Offline stand-in for the `rayon` crate: a **real fork-join
//! work-stealing thread pool**, not a sequential mirror.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the exact API subset the workspace uses — [`join`],
//! [`ThreadPoolBuilder`] / [`ThreadPool`] and [`current_num_threads`] —
//! implemented over `std` threads and sync primitives only. (The
//! workspace forks with `join` alone, from `hydro::sweep`; the shim
//! carries no parallel iterators.) Call sites compile unchanged;
//! swapping in the real rayon remains a one-line change in the
//! workspace manifest.
//!
//! How it executes (see [`pool`] for details):
//!
//! * each [`ThreadPool`] owns persistent worker threads with per-worker
//!   deques plus a shared injector; idle workers steal oldest-first;
//! * [`ThreadPool::install`] moves the closure onto a worker, making
//!   that pool the thread-local *current pool* for every nested `join`
//!   (and for [`current_num_threads`]);
//! * a `join` outside any `install` hops onto a lazily spawned global
//!   pool sized to the host, exactly like real rayon;
//! * panics in workers are captured and re-raised on the calling
//!   thread.
//!
//! Stealing decides only *where* a forked closure runs, never what it
//! computes or in which order its caller combines the two results — so
//! a split tree that is a pure function of length and pool width (as
//! `hydro::sweep`'s is) gives bitwise reproducible reductions.

pub mod pool;

pub use pool::{current_num_threads, join};

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Error returned by [`ThreadPoolBuilder::build`]. Produced when worker
/// threads cannot be spawned.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build failed")
    }
}

impl Error for ThreadPoolBuildError {}

/// Mirror of `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker count; `0` (the default) means one per available core.
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Spawn the pool's persistent worker threads.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.num_threads
        };
        let (registry, handles) = pool::spawn_registry(n).map_err(|_| ThreadPoolBuildError(()))?;
        Ok(ThreadPool { registry, handles })
    }
}

/// Mirror of `rayon::ThreadPool`: persistent workers; `install` runs a
/// closure *inside* the pool and blocks until it finishes.
pub struct ThreadPool {
    registry: Arc<pool::Registry>,
    handles: Vec<JoinHandle<()>>,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.registry.num_threads())
            .finish()
    }
}

impl ThreadPool {
    /// The width the pool was built with.
    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads()
    }

    /// Execute `op` on a worker of this pool, establishing the pool as
    /// the current one for every `join` / [`current_num_threads`]
    /// reached from inside it. Blocks until the
    /// closure returns; panics inside it propagate to the caller. When
    /// called from one of this pool's own workers the closure runs in
    /// place (nested `install`).
    pub fn install<R, OP>(&self, op: OP) -> R
    where
        R: Send,
        OP: FnOnce() -> R + Send,
    {
        self.registry.install(op)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate_and_wake();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
