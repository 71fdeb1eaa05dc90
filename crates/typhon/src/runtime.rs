//! The rank team: threads, point-to-point messaging, collectives.
//!
//! [`Typhon::run`] spawns one thread per rank, hands each a [`RankCtx`],
//! and joins them, propagating panics as typed errors. Everything a rank
//! can wait for is one team state behind one lock: per rank, the
//! messages sent to it and not yet received (in send order, matched by
//! source and tag, as an MPI implementation matches them); the
//! generation-counted collective, so collectives can be called any
//! number of times; and per rank, a *failed* and an *exited* mark and
//! what it is blocked on, if anything. Every blocking operation waits on
//! that lock's one condition variable.
//!
//! ## Resilience contract
//!
//! No blocking operation hangs. A team is **stuck** when every rank has
//! exited or waits for what its mailbox or the collective cannot give:
//! no rank is left running to send or to arrive. Every waiter then
//! returns at once with a typed [`CommError`] chosen by rule, not by a
//! clock: a receive from a failed or exited rank gets
//! [`CommError::RankUnreachable`], any other receive
//! [`CommError::RecvTimeout`], a collective
//! [`CommError::CollectiveTimeout`]. A computing rank is running, so the
//! team never calls a slow peer stuck. A private 60 s backstop on each
//! wait is a safety net should the team miss a transition to stuck; it
//! would also fail the waiters of a peer computing that long between two
//! communication calls, and it cannot bound a rank that never returns
//! ([`Typhon::run_with`] joins every rank). Every payload carries a
//! CRC-32 checksum, verified by the receive that takes it, so in-flight
//! corruption — injected by a [`FaultPlan`] or real — surfaces there as
//! [`CommError::Corrupt`]. A rank killed by its fault schedule returns
//! [`CommError::Killed`] from its next operation and exits. Error
//! payloads are ranks, tags and steps, never durations, so two runs of
//! the same fault schedule fail identically.
//!
//! A rank that has been handed an error is **failed**; one whose
//! closure has returned or unwound is **exited**. A send to either is
//! `RankUnreachable` at once, so what a survivor reports does not depend
//! on whether the failed rank's thread had exited yet.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bookleaf_util::{crc32_f64s, BookLeafError, CommError, Result};

use crate::fault::{FaultKind, FaultPlan};
use crate::stats::CommStats;

/// A point-to-point message: sender rank, tag, checksummed payload.
struct Message {
    from: usize,
    tag: u64,
    payload: Vec<f64>,
    /// CRC-32 of the payload's bit pattern, computed at send time and
    /// verified by the receive that takes the message.
    checksum: u32,
    /// Sent under a `Delay` fault: a non-blocking receive leaves it
    /// (and what follows it under the same source and tag) where it is,
    /// so only a blocking receive takes it.
    held: bool,
}

/// Everything a team's ranks wait for, behind [`Team`]'s one lock.
struct TeamState {
    /// Per destination rank: the messages sent to it that no receive has
    /// taken yet, in send order.
    pending: Vec<VecDeque<Message>>,
    /// Collective generation, advanced by each one's last arrival.
    generation: u64,
    arrived: usize,
    /// Each rank's contribution to the current generation, by rank: the
    /// last arrival combines them in rank order, so the result does not
    /// depend on the order the ranks arrived in.
    partials: Vec<f64>,
    /// Result of the most recently completed generation. A rank cannot be
    /// more than one generation ahead of any other (the wait blocks it),
    /// so a single slot is enough.
    last_result: (f64, f64),
    /// Per rank: set the moment any of its operations returns an error.
    failed: Vec<bool>,
    /// Per rank: set when its closure has returned or unwound.
    exited: Vec<bool>,
    /// Per rank: what it waits for in [`Team::wait`]; `None` while it runs.
    blocked: Vec<Option<Wait>>,
    /// Once no rank can progress (never cleared): per rank, whether it
    /// had failed or exited then — a receive reads this, not the live marks.
    stuck: Option<Vec<bool>>,
}

/// What a rank blocked in [`Team::wait`] waits for: a message from
/// `from` under `tag`, held or not, or the end of generation `gen`.
#[derive(Clone, Copy)]
enum Wait {
    Recv { from: usize, tag: u64 },
    Collective { gen: u64 },
}

impl TeamState {
    /// Remove and return the first message to `to` from `from` under
    /// `tag`; a held one only if `blocking`.
    fn take(&mut self, to: usize, from: usize, tag: u64, blocking: bool) -> Option<Message> {
        let list = &mut self.pending[to];
        let i = list.iter().position(|m| m.from == from && m.tag == tag)?;
        if list[i].held && !blocking {
            return None;
        }
        list.remove(i)
    }

    /// Whether a send to `rank` can be delivered: it has neither failed
    /// nor exited.
    fn reachable(&self, rank: usize) -> bool {
        !self.failed[rank] && !self.exited[rank]
    }

    /// Whether `rank`'s `wait` can end now; a held message counts.
    fn satisfiable(&self, rank: usize, wait: Wait) -> bool {
        match wait {
            Wait::Recv { from, tag } => self.pending[rank]
                .iter()
                .any(|m| m.from == from && m.tag == tag),
            Wait::Collective { gen } => self.generation != gen,
        }
    }
}

/// The longest one wait lasts: a safety net should the team miss a
/// transition to stuck (see the module docs for what it does not bound).
const BACKSTOP: Duration = Duration::from_secs(60);

/// The state one team shares: [`TeamState`], its lock, and the one
/// condition variable every blocking operation waits on.
struct Team {
    state: Mutex<TeamState>,
    cv: Condvar,
}

impl Team {
    fn new(n_ranks: usize) -> Self {
        Team {
            state: Mutex::new(TeamState {
                pending: (0..n_ranks).map(|_| VecDeque::new()).collect(),
                generation: 0,
                arrived: 0,
                partials: vec![0.0; n_ranks],
                last_result: (0.0, 0.0),
                failed: vec![false; n_ranks],
                exited: vec![false; n_ranks],
                blocked: vec![None; n_ranks],
                stuck: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TeamState> {
        self.state.lock().expect("team state poisoned")
    }

    /// Mark the team stuck, and wake every waiter, if no rank is left
    /// running to send or arrive: each has exited or waits in vain.
    fn settle(&self, st: &mut TeamState) {
        let n = st.exited.len();
        let stuck =
            (0..n).all(|r| st.exited[r] || st.blocked[r].is_some_and(|w| !st.satisfiable(r, w)));
        if stuck && st.stuck.is_none() {
            st.stuck = Some((0..n).map(|r| !st.reachable(r)).collect());
            self.cv.notify_all();
        }
    }

    /// Wait, registered as `rank` blocked on `on`, until `on` can end,
    /// the team is stuck, or [`BACKSTOP`] has passed — `on` first, so a
    /// wait that can end does even in a stuck team.
    fn wait<'a>(
        &self,
        mut st: MutexGuard<'a, TeamState>,
        rank: usize,
        on: Wait,
    ) -> MutexGuard<'a, TeamState> {
        st.blocked[rank] = Some(on);
        self.settle(&mut st);
        let blocked = |s: &mut TeamState| !s.satisfiable(rank, on) && s.stuck.is_none();
        let (mut st, _) = self
            .cv
            .wait_timeout_while(st, BACKSTOP, blocked)
            .expect("team state poisoned");
        st.blocked[rank] = None;
        st
    }

    /// Combined barrier + reduction: every rank contributes `value`; all
    /// receive `(min, sum)` of the contributions, combined in rank order
    /// (the sum from `0.0`), whatever order the ranks arrive in — or
    /// [`CommError::CollectiveTimeout`], and `rank` is failed, if some
    /// rank can never arrive (the team is stuck).
    fn reduce(&self, rank: usize, value: f64) -> std::result::Result<(f64, f64), CommError> {
        let mut st = self.lock();
        let gen = st.generation;
        st.partials[rank] = value;
        st.arrived += 1;
        if st.arrived == st.partials.len() {
            // Last arrival: publish and reset for the next generation
            // (every slot is written again before the next one ends).
            let out = st
                .partials
                .iter()
                .fold((f64::INFINITY, 0.0), |(min, sum), &v| (min.min(v), sum + v));
            st.generation += 1;
            st.arrived = 0;
            st.last_result = out;
            drop(st);
            self.cv.notify_all();
            return Ok(out);
        }
        let mut st = self.wait(st, rank, Wait::Collective { gen });
        if st.generation == gen {
            st.failed[rank] = true;
            return Err(CommError::CollectiveTimeout { rank });
        }
        Ok(st.last_result)
    }
}

/// Cap on pooled payload buffers per rank: enough for every in-flight
/// neighbour message of a phase plus slack, small enough that a burst
/// (e.g. the all-to-all stress tests) cannot pin unbounded memory.
const BUFFER_POOL_CAP: usize = 64;

/// Largest buffer capacity (in doubles) worth pooling: 64 Ki doubles =
/// 512 KB, comfortably above any halo payload. One-off giant messages
/// (restart gathers, stress tests) are freed rather than recycled, so
/// the pool's worst-case footprint is bounded in bytes
/// (`BUFFER_POOL_CAP × 512 KB = 32 MB` per rank), not just in count.
const BUFFER_POOL_MAX_DOUBLES: usize = 64 * 1024;

/// Team-wide execution options: the fault schedule.
#[derive(Clone, Debug, Default)]
pub struct TyphonOptions {
    /// Deterministic fault schedule shared by every rank; `None`
    /// injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Recovery attempt index the schedule is evaluated against (a
    /// supervised re-run after rewind increments this, so attempt-0
    /// faults do not re-fire forever).
    pub attempt: usize,
}

/// Per-rank handle used inside the rank closure.
///
/// One thread drives a rank's context at a time: the rank's own thread,
/// or — for a hybrid rank, which steps inside `pool.install` — whichever
/// pool thread runs that step. The context is `Sync` only so it can
/// cross into the pool; its own locks are never contended, and its
/// phase counter is a `Relaxed` atomic that publishes nothing.
/// A blocking receive or collective waits on the team's lock, never on
/// one of the context's own.
pub struct RankCtx {
    rank: usize,
    n_ranks: usize,
    team: Arc<Team>,
    /// Next phase tag, drawn by [`RankCtx::next_tag`].
    phase: AtomicU64,
    stats: Mutex<CommStats>,
    /// Recycled payload buffers. Buffers circulate through the team:
    /// a send moves its buffer to the receiving rank, which recycles it
    /// into *its* pool after unpacking; symmetric exchange patterns keep
    /// the pools balanced, so steady-state halo traffic allocates
    /// nothing.
    pool: Mutex<Vec<Vec<f64>>>,
    /// The fault schedule and the attempt it is evaluated against.
    options: TyphonOptions,
    /// One-shot point fault armed for this rank's next send.
    armed: Mutex<Option<FaultKind>>,
    /// `Some(step)` once this rank's kill fired: every subsequent
    /// communication attempt returns [`CommError::Killed`].
    killed_at: Mutex<Option<usize>>,
}

impl RankCtx {
    /// This rank's id.
    #[inline]
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Team size.
    #[inline]
    #[must_use]
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Announce the top of simulation step `step`: advances the fault
    /// schedule. A scheduled kill fires here (and poisons every later
    /// communication attempt); a scheduled point fault is armed for this
    /// rank's next send. Ranks not running a stepped simulation never
    /// need to call this.
    pub fn begin_step(&self, step: usize) -> std::result::Result<(), CommError> {
        self.check_killed()?;
        if let Some(plan) = &self.options.fault_plan {
            match plan.action(self.options.attempt, step, self.rank) {
                Some(FaultKind::Kill) => {
                    *self.killed_at.lock().expect("kill state poisoned") = Some(step);
                    return Err(self.fail(CommError::Killed {
                        rank: self.rank,
                        step,
                    }));
                }
                Some(point) => *self.armed.lock().expect("armed fault poisoned") = Some(point),
                None => {}
            }
        }
        Ok(())
    }

    /// Mark this rank failed — it is about to be handed `error`.
    fn fail(&self, error: CommError) -> CommError {
        self.team.lock().failed[self.rank] = true;
        error
    }

    /// `Err(Killed)` once this rank's scheduled death has fired.
    fn check_killed(&self) -> std::result::Result<(), CommError> {
        if let Some(step) = *self.killed_at.lock().expect("kill state poisoned") {
            return Err(CommError::Killed {
                rank: self.rank,
                step,
            });
        }
        Ok(())
    }

    /// Next phase tag. Every rank must call the tag-consuming collective
    /// operations in the same order, so matching calls draw matching tags
    /// — exactly the discipline an MPI code with per-phase tags follows.
    pub fn next_tag(&self) -> u64 {
        self.phase.fetch_add(1, Ordering::Relaxed)
    }

    /// Non-blocking send of `payload` to `to` under `tag`.
    pub fn send(
        &self,
        to: usize,
        tag: u64,
        payload: Vec<f64>,
    ) -> std::result::Result<(), CommError> {
        self.send_impl(to, tag, payload, None)
    }

    /// [`RankCtx::send`], additionally attributing the traffic to a named
    /// exchange phase in this rank's [`CommStats`] breakdown.
    pub fn send_in_phase(
        &self,
        to: usize,
        tag: u64,
        payload: Vec<f64>,
        phase: &'static str,
    ) -> std::result::Result<(), CommError> {
        self.send_impl(to, tag, payload, Some(phase))
    }

    fn send_impl(
        &self,
        to: usize,
        tag: u64,
        mut payload: Vec<f64>,
        phase: Option<&'static str>,
    ) -> std::result::Result<(), CommError> {
        self.check_killed()?;
        if !self.team.lock().reachable(to) {
            return Err(self.fail(CommError::RankUnreachable { to }));
        }
        {
            let mut s = self.stats.lock().expect("comm stats poisoned");
            s.messages_sent += 1;
            s.doubles_sent += payload.len() as u64;
            if let Some(name) = phase {
                let p = s.phase_mut(name);
                p.messages_sent += 1;
                p.doubles_sent += payload.len() as u64;
            }
        }
        // Checksum the *true* payload; injected corruption mutates it
        // afterwards so the receiver's verification must fail.
        let mut checksum = crc32_f64s(&payload);
        let mut held = false;
        match self.armed.lock().expect("armed fault poisoned").take() {
            Some(FaultKind::Corrupt) => {
                if let Some(first) = payload.first_mut() {
                    *first = f64::from_bits(first.to_bits() ^ 1);
                } else {
                    // Nothing to flip in an empty payload: lie about the
                    // checksum instead.
                    checksum ^= 1;
                }
            }
            Some(FaultKind::Drop) => return Ok(()), // lost in flight
            Some(FaultKind::Delay) => held = true,
            Some(FaultKind::Kill) | None => {}
        }
        let msg = Message {
            from: self.rank,
            tag,
            payload,
            checksum,
            held,
        };
        let mut st = self.team.lock();
        if !st.reachable(to) {
            drop(st);
            return Err(self.fail(CommError::RankUnreachable { to }));
        }
        st.pending[to].push_back(msg);
        drop(st);
        self.team.cv.notify_all();
        Ok(())
    }

    /// A cleared payload buffer with at least `capacity` reserved, drawn
    /// from this rank's recycle pool when possible. Pair with
    /// [`RankCtx::recycle_buffer`] after unpacking a received payload to
    /// keep steady-state exchange traffic allocation-free.
    ///
    /// Selection is **best-fit**: the smallest pooled buffer whose
    /// capacity already covers the request, so a large recycled payload
    /// is not burned on a tiny request. When no pooled buffer is big
    /// enough, the largest one is grown instead (the cheapest
    /// reallocation available).
    #[must_use]
    pub fn take_buffer(&self, capacity: usize) -> Vec<f64> {
        let recycled = {
            let mut pool = self.pool.lock().expect("buffer pool poisoned");
            let mut best: Option<(usize, usize)> = None; // (index, capacity)
            for (i, buf) in pool.iter().enumerate() {
                let c = buf.capacity();
                let better = match best {
                    None => true,
                    // Once a sufficient buffer is known, only a *smaller*
                    // sufficient one improves; before that, bigger is
                    // closer to sufficient.
                    Some((_, bc)) if bc >= capacity => c >= capacity && c < bc,
                    Some((_, bc)) => c > bc,
                };
                if better {
                    best = Some((i, c));
                }
            }
            best.map(|(i, _)| pool.swap_remove(i))
        };
        match recycled {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Return a finished payload buffer (typically one produced by
    /// [`RankCtx::recv`]) to this rank's recycle pool. Empty and
    /// oversized buffers are dropped instead, keeping the pool's
    /// footprint bounded in bytes as well as count.
    pub fn recycle_buffer(&self, buf: Vec<f64>) {
        if buf.capacity() == 0 || buf.capacity() > BUFFER_POOL_MAX_DOUBLES {
            return;
        }
        let mut pool = self.pool.lock().expect("buffer pool poisoned");
        if pool.len() < BUFFER_POOL_CAP {
            pool.push(buf);
        }
    }

    /// Verify a taken message's checksum — a mismatch is in-flight
    /// corruption — and hand back its payload.
    fn open(&self, msg: Message) -> std::result::Result<Vec<f64>, CommError> {
        if crc32_f64s(&msg.payload) != msg.checksum {
            return Err(self.fail(CommError::Corrupt {
                from: msg.from,
                tag: msg.tag,
            }));
        }
        Ok(msg.payload)
    }

    /// Non-blocking receive from `from` under `tag`: the first matching
    /// payload already delivered, `None` if there is none or it is held
    /// (a `Delay` fault). Messages for other `(source, tag)` pairs stay
    /// where they are. A corrupt message surfaces as
    /// [`CommError::Corrupt`] from the receive that takes it, this one
    /// included.
    fn try_recv(&self, from: usize, tag: u64) -> std::result::Result<Option<Vec<f64>>, CommError> {
        self.check_killed()?;
        let msg = self.team.lock().take(self.rank, from, tag, false);
        msg.map(|m| self.open(m)).transpose()
    }

    /// Blocking receive from `from` under `tag`: the first matching
    /// payload, in send order, held or not. If the team is stuck with
    /// none delivered, [`CommError::RankUnreachable`] when `from` has
    /// failed or exited, else [`CommError::RecvTimeout`].
    pub fn recv(&self, from: usize, tag: u64) -> std::result::Result<Vec<f64>, CommError> {
        self.recv_tracked(from, tag, None)
    }

    /// [`RankCtx::recv`], attributing any time spent *blocked* (payload
    /// not yet delivered) to `phase` in this rank's [`CommStats`]. A
    /// receive that finds its payload already here records exactly zero
    /// and never reads a clock.
    pub fn recv_in_phase(
        &self,
        from: usize,
        tag: u64,
        phase: &'static str,
    ) -> std::result::Result<Vec<f64>, CommError> {
        self.recv_tracked(from, tag, Some(phase))
    }

    fn recv_tracked(
        &self,
        from: usize,
        tag: u64,
        phase: Option<&'static str>,
    ) -> std::result::Result<Vec<f64>, CommError> {
        // Fast path: already delivered — no clock, no stats.
        if let Some(payload) = self.try_recv(from, tag)? {
            return Ok(payload);
        }
        let start = Instant::now();
        let on = Wait::Recv { from, tag };
        let mut st = self.team.wait(self.team.lock(), self.rank, on);
        let msg = st.take(self.rank, from, tag, true);
        let gone = st
            .stuck
            .as_ref()
            .map_or(!st.reachable(from), |gone| gone[from]);
        drop(st);
        let Some(msg) = msg else {
            // A sender that has failed or exited is gone, not late.
            return Err(self.fail(if gone {
                CommError::RankUnreachable { to: from }
            } else {
                CommError::RecvTimeout { from, tag }
            }));
        };
        let payload = self.open(msg)?;
        let waited = start.elapsed().as_secs_f64();
        let mut s = self.stats.lock().expect("comm stats poisoned");
        s.recv_wait_seconds += waited;
        if let Some(name) = phase {
            s.phase_mut(name).recv_wait_seconds += waited;
        }
        Ok(payload)
    }

    /// Record a completed post→complete overlap window for `phase` (used
    /// by the split-phase exchange plan).
    pub(crate) fn record_overlap_window(&self, phase: &'static str, seconds: f64) {
        let mut s = self.stats.lock().expect("comm stats poisoned");
        s.overlap_window_seconds += seconds;
        s.phase_mut(phase).overlap_window_seconds += seconds;
    }

    /// Global minimum across all ranks (BookLeaf's single per-step
    /// reduction, used for the time step). A peer that can never
    /// contribute surfaces as [`CommError::CollectiveTimeout`].
    pub fn allreduce_min(&self, value: f64) -> std::result::Result<f64, CommError> {
        self.check_killed()?;
        self.stats.lock().expect("comm stats poisoned").collectives += 1;
        Ok(self.team.reduce(self.rank, value)?.0)
    }

    /// Global sum across all ranks (used by diagnostics and tests).
    pub fn allreduce_sum(&self, value: f64) -> std::result::Result<f64, CommError> {
        self.check_killed()?;
        self.stats.lock().expect("comm stats poisoned").collectives += 1;
        Ok(self.team.reduce(self.rank, value)?.1)
    }

    /// Barrier.
    pub fn barrier(&self) -> std::result::Result<(), CommError> {
        self.check_killed()?;
        self.stats.lock().expect("comm stats poisoned").collectives += 1;
        self.team.reduce(self.rank, 0.0)?;
        Ok(())
    }

    /// Snapshot of this rank's communication counters.
    #[must_use]
    pub fn stats(&self) -> CommStats {
        self.stats.lock().expect("comm stats poisoned").clone()
    }
}

/// The team factory.
pub struct Typhon;

impl Typhon {
    /// Run `f` on `n_ranks` rank threads and collect the per-rank results
    /// in rank order. Panics inside a rank are converted into
    /// [`BookLeafError::RankPanic`]. Default [`TyphonOptions`]: no fault
    /// injection.
    pub fn run<R, F>(n_ranks: usize, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&RankCtx) -> R + Sync,
    {
        Self::run_with(n_ranks, TyphonOptions::default(), f)
    }

    /// [`Typhon::run`] with explicit [`TyphonOptions`] — a deterministic
    /// fault schedule.
    pub fn run_with<R, F>(n_ranks: usize, options: TyphonOptions, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&RankCtx) -> R + Sync,
    {
        if n_ranks == 0 {
            return Err(BookLeafError::EmptyExecutor { field: "ranks" });
        }
        let team = Arc::new(Team::new(n_ranks));

        let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_ranks)
                .map(|rank| {
                    let ctx = RankCtx {
                        rank,
                        n_ranks,
                        team: Arc::clone(&team),
                        phase: AtomicU64::new(0),
                        stats: Mutex::new(CommStats::default()),
                        pool: Mutex::new(Vec::new()),
                        options: options.clone(),
                        armed: Mutex::new(None),
                        killed_at: Mutex::new(None),
                    };
                    let f = &f;
                    scope.spawn(move || {
                        let out = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
                        let mut st = ctx.team.lock();
                        st.exited[rank] = true;
                        ctx.team.settle(&mut st);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().and_then(|out| out))
                .collect()
        });

        let mut out = Vec::with_capacity(n_ranks);
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Ok(v) => out.push(v),
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic".into());
                    return Err(BookLeafError::RankPanic { rank, message });
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn team_runs_and_orders_results() {
        let out = Typhon::run(4, |ctx| ctx.rank() * 10).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn zero_ranks_rejected() {
        assert_eq!(
            Typhon::run(0, |_| ()).unwrap_err(),
            BookLeafError::EmptyExecutor { field: "ranks" }
        );
    }

    #[test]
    fn ring_send_recv() {
        let out = Typhon::run(3, |ctx| {
            let to = (ctx.rank() + 1) % 3;
            let from = (ctx.rank() + 2) % 3;
            let tag = ctx.next_tag();
            ctx.send(to, tag, vec![ctx.rank() as f64]).unwrap();
            let got = ctx.recv(from, tag).unwrap();
            got[0] as usize
        })
        .unwrap();
        assert_eq!(out, vec![2, 0, 1]);
    }

    #[test]
    fn out_of_order_tags_are_parked() {
        // Rank 0 sends two messages with different tags; rank 1 receives
        // them in the opposite order.
        let out = Typhon::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![7.0]).unwrap();
                ctx.send(1, 8, vec![8.0]).unwrap();
                0.0
            } else {
                let b = ctx.recv(0, 8).unwrap();
                let a = ctx.recv(0, 7).unwrap();
                a[0] * 10.0 + b[0]
            }
        })
        .unwrap();
        assert_eq!(out[1], 78.0);
    }

    #[test]
    fn allreduce_min_and_sum() {
        let out = Typhon::run(5, |ctx| {
            let v = (ctx.rank() + 1) as f64;
            let mn = ctx.allreduce_min(v).unwrap();
            let sm = ctx.allreduce_sum(v).unwrap();
            (mn, sm)
        })
        .unwrap();
        for (mn, sm) in out {
            assert_eq!(mn, 1.0);
            assert_eq!(sm, 15.0);
        }
    }

    #[test]
    fn a_sum_is_combined_in_rank_order_whatever_the_arrival_order() {
        // Summed as they arrive, reversed, these give 0.0: 1 - 1e16
        // rounds to -1e16. In rank order they give 1.0.
        let values = [1e16, 1.0, -1e16, 1.0];
        for order in [[0, 1, 2, 3], [3, 2, 1, 0]] {
            let team = Arc::new(Team::new(values.len()));
            let mut threads = Vec::new();
            for (admitted, &rank) in order.iter().enumerate() {
                let t = Arc::clone(&team);
                threads.push(std::thread::spawn(move || {
                    t.reduce(rank, values[rank]).unwrap().1
                }));
                // Admit the next rank only once this one has arrived
                // (the last arrival completes the generation instead).
                if admitted + 1 < order.len() {
                    while team.lock().arrived <= admitted {
                        std::thread::yield_now();
                    }
                }
            }
            for t in threads {
                let sum = t.join().unwrap();
                assert_eq!(sum.to_bits(), 1.0f64.to_bits(), "arrival order {order:?}");
            }
        }
    }

    #[test]
    fn repeated_collectives() {
        let out = Typhon::run(3, |ctx| {
            let mut acc = 0.0;
            for i in 0..100 {
                acc += ctx.allreduce_min((ctx.rank() + i) as f64).unwrap();
            }
            acc
        })
        .unwrap();
        // min over ranks of (rank + i) = i; sum over i of i = 4950.
        for v in out {
            assert_eq!(v, 4950.0);
        }
    }

    #[test]
    fn rank_panic_is_reported() {
        let err = Typhon::run(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("injected failure");
            }
            ctx.barrier_free_work()
        })
        .unwrap_err();
        match err {
            BookLeafError::RankPanic { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("injected failure"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn stats_count_traffic() {
        let out = Typhon::run(2, |ctx| {
            let tag = ctx.next_tag();
            if ctx.rank() == 0 {
                ctx.send(1, tag, vec![1.0, 2.0, 3.0]).unwrap();
            } else {
                ctx.recv(0, tag).unwrap();
            }
            ctx.stats()
        })
        .unwrap();
        assert_eq!(out[0].messages_sent, 1);
        assert_eq!(out[0].doubles_sent, 3);
        assert_eq!(out[1].messages_sent, 0);
    }

    #[test]
    fn phase_attributed_sends_feed_the_breakdown() {
        let out = Typhon::run(2, |ctx| {
            let t0 = ctx.next_tag();
            let t1 = ctx.next_tag();
            let t2 = ctx.next_tag();
            if ctx.rank() == 0 {
                ctx.send_in_phase(1, t0, vec![1.0, 2.0], "alpha").unwrap();
                ctx.send_in_phase(1, t1, vec![3.0], "beta").unwrap();
                ctx.send(1, t2, vec![4.0]).unwrap();
            } else {
                ctx.recv(0, t0).unwrap();
                ctx.recv(0, t1).unwrap();
                ctx.recv(0, t2).unwrap();
            }
            ctx.stats()
        })
        .unwrap();
        let s = &out[0];
        // Totals cover attributed and unattributed sends alike.
        assert_eq!(s.messages_sent, 3);
        assert_eq!(s.doubles_sent, 4);
        let alpha = s.phase("alpha").unwrap();
        assert_eq!((alpha.messages_sent, alpha.doubles_sent), (1, 2));
        let beta = s.phase("beta").unwrap();
        assert_eq!((beta.messages_sent, beta.doubles_sent), (1, 1));
    }

    #[test]
    fn collectives_are_counted() {
        let out = Typhon::run(3, |ctx| {
            ctx.allreduce_min(1.0).unwrap();
            ctx.allreduce_sum(1.0).unwrap();
            ctx.barrier().unwrap();
            ctx.stats()
        })
        .unwrap();
        for s in out {
            assert_eq!(s.collectives, 3);
        }
    }

    #[test]
    fn buffer_pool_recycles_capacity() {
        let out = Typhon::run(1, |ctx| {
            let mut b = ctx.take_buffer(100);
            b.resize(100, 0.0);
            let cap = b.capacity();
            ctx.recycle_buffer(b);
            let again = ctx.take_buffer(10);
            (cap, again.capacity(), again.len())
        })
        .unwrap();
        let (cap, cap_again, len) = out[0];
        assert!(cap >= 100);
        assert_eq!(cap_again, cap, "recycled buffer should be reused");
        assert_eq!(len, 0, "recycled buffer must come back cleared");
    }

    #[test]
    fn take_buffer_is_best_fit() {
        Typhon::run(1, |ctx| {
            // Pool two buffers: a small one and a big one.
            let mut small = ctx.take_buffer(100);
            small.resize(100, 0.0);
            let small_cap = small.capacity();
            let mut big = ctx.take_buffer(10_000);
            big.resize(10_000, 0.0);
            let big_cap = big.capacity();
            assert!(big_cap > small_cap);
            ctx.recycle_buffer(small);
            ctx.recycle_buffer(big);
            assert_eq!(ctx.pool_len(), 2);
            // A tiny request must take the *smallest sufficient* buffer,
            // not burn the big one.
            let got = ctx.take_buffer(50);
            assert_eq!(
                got.capacity(),
                small_cap,
                "best fit picked the wrong buffer"
            );
            // The big buffer is still pooled for the next big request.
            let got_big = ctx.take_buffer(10_000);
            assert_eq!(got_big.capacity(), big_cap);
        })
        .unwrap();
    }

    #[test]
    fn take_buffer_grows_the_largest_when_none_suffices() {
        Typhon::run(1, |ctx| {
            let mut small = ctx.take_buffer(16);
            small.resize(16, 0.0);
            let mut mid = ctx.take_buffer(64);
            mid.resize(64, 0.0);
            ctx.recycle_buffer(small);
            ctx.recycle_buffer(mid);
            assert_eq!(ctx.pool_len(), 2);
            // Nothing pooled covers 1000 doubles: the largest pooled
            // buffer is taken (and grown), leaving the small one.
            let got = ctx.take_buffer(1000);
            assert!(got.capacity() >= 1000);
            assert_eq!(ctx.pool_len(), 1);
            let leftover = ctx.take_buffer(1);
            assert!(leftover.capacity() <= 16 * 2, "small buffer should remain");
        })
        .unwrap();
    }

    #[test]
    fn pool_count_is_capped() {
        Typhon::run(1, |ctx| {
            for _ in 0..(2 * BUFFER_POOL_CAP) {
                ctx.recycle_buffer(vec![1.0]);
            }
            assert_eq!(ctx.pool_len(), BUFFER_POOL_CAP);
        })
        .unwrap();
    }

    #[test]
    fn recv_recycle_take_round_trip_does_not_allocate() {
        let out = Typhon::run(2, |ctx| {
            if ctx.rank() == 0 {
                // Two rounds: the second send reuses the buffer that came
                // back from the first round's receive on rank 0's side.
                let tag = ctx.next_tag();
                let mut payload = ctx.take_buffer(256);
                payload.resize(256, 1.0);
                ctx.send(1, tag, payload).unwrap();
                ctx.barrier().unwrap();
                true
            } else {
                let tag = ctx.next_tag();
                let payload = ctx.recv(0, tag).unwrap();
                let ptr = payload.as_ptr();
                let cap = payload.capacity();
                ctx.recycle_buffer(payload);
                // Taking a buffer of the same size must hand back the
                // very same allocation — pointer-identical, no alloc.
                let again = ctx.take_buffer(256);
                let same = again.as_ptr() == ptr && again.capacity() == cap;
                ctx.barrier().unwrap();
                same
            }
        })
        .unwrap();
        assert!(out[1], "recv → recycle → take did not reuse the allocation");
    }

    #[test]
    fn blocked_recv_records_wait_seconds() {
        let out = Typhon::run(2, |ctx| {
            let tag = ctx.next_tag();
            if ctx.rank() == 0 {
                ctx.barrier().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(20));
                ctx.send(1, tag, vec![1.0]).unwrap();
                ctx.stats()
            } else {
                ctx.barrier().unwrap();
                // The sender is still sleeping: this receive must block
                // and the blocked time must be attributed.
                ctx.recv_in_phase(0, tag, "late").unwrap();
                ctx.stats()
            }
        })
        .unwrap();
        assert_eq!(out[0].recv_wait_seconds, 0.0, "sender never waited");
        assert!(
            out[1].recv_wait_seconds > 0.0,
            "blocked receive recorded no wait"
        );
        let late = out[1].phase("late").unwrap();
        assert!(late.recv_wait_seconds > 0.0);
        assert!((late.recv_wait_seconds - out[1].recv_wait_seconds).abs() < 1e-9);
    }

    #[test]
    fn delivered_recv_records_zero_wait() {
        let out = Typhon::run(2, |ctx| {
            let tag = ctx.next_tag();
            if ctx.rank() == 0 {
                ctx.send(1, tag, vec![1.0]).unwrap();
                ctx.barrier().unwrap();
                0.0
            } else {
                // The barrier guarantees the message arrived before the
                // receive is posted: the fast path must record *exactly*
                // zero wait (it never reads a clock).
                ctx.barrier().unwrap();
                ctx.recv_in_phase(0, tag, "early").unwrap();
                let s = ctx.stats();
                assert!(
                    s.phase("early").is_none()
                        || s.phase("early").unwrap().recv_wait_seconds == 0.0
                );
                s.recv_wait_seconds
            }
        })
        .unwrap();
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn try_recv_is_non_blocking_and_parks_strangers() {
        let out = Typhon::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, vec![5.0]).unwrap();
                ctx.send(1, 9, vec![9.0]).unwrap();
                ctx.barrier().unwrap();
                0.0
            } else {
                assert!(
                    ctx.try_recv(0, 99).unwrap().is_none(),
                    "no such message yet"
                );
                ctx.barrier().unwrap();
                // Both messages are in; asking for tag 9 first leaves
                // tag 5 in the mailbox.
                let nine = ctx.try_recv(0, 9).unwrap().expect("tag 9 delivered");
                let five = ctx
                    .try_recv(0, 5)
                    .unwrap()
                    .expect("tag 5 left in the mailbox");
                nine[0] * 10.0 + five[0]
            }
        })
        .unwrap();
        assert_eq!(out[1], 95.0);
    }

    #[test]
    fn a_mailbox_keeps_nothing_it_has_handed_out() {
        // All to all, received in a fixed rank order, so a later
        // neighbour's message often arrives before an earlier one's.
        let out = Typhon::run(4, |ctx| {
            let peers = || (0..4).filter(|&r| r != ctx.rank());
            for _ in 0..300 {
                let tag = ctx.next_tag();
                for to in peers() {
                    ctx.send(to, tag, vec![ctx.rank() as f64]).unwrap();
                }
                for from in peers() {
                    assert_eq!(ctx.recv(from, tag).unwrap(), [from as f64]);
                }
            }
            ctx.barrier().unwrap();
            ctx.pending_len()
        })
        .unwrap();
        assert_eq!(out, [0; 4]);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let out = Typhon::run(1, |ctx| {
            let big = ctx.take_buffer(BUFFER_POOL_MAX_DOUBLES + 1);
            let big_cap = big.capacity();
            ctx.recycle_buffer(big);
            // The oversized buffer must have been dropped, not recycled.
            ctx.take_buffer(1).capacity() < big_cap
        })
        .unwrap();
        assert!(out[0]);
    }

    // ---- fault injection ------------------------------------------------

    use crate::fault::FaultPlan;
    use crate::plan::{Entity, FieldMut, HaloPlan};
    use bookleaf_mesh::submesh::ExchangeList;
    use proptest::prelude::*;

    /// Options that run `plan`.
    fn planned(plan: FaultPlan) -> TyphonOptions {
        TyphonOptions {
            fault_plan: Some(Arc::new(plan)),
            ..TyphonOptions::default()
        }
    }

    #[test]
    fn ranks_that_each_receive_first_are_stuck_at_once() {
        // Each rank receives from the other before it would send:
        // nothing can ever arrive, and the team sees that without a
        // clock, long before the backstop.
        let start = Instant::now();
        let out = Typhon::run(2, |ctx| ctx.recv(1 - ctx.rank(), 0)).unwrap();
        assert_eq!(
            out,
            [
                Err(CommError::RecvTimeout { from: 1, tag: 0 }),
                Err(CommError::RecvTimeout { from: 0, tag: 0 }),
            ]
        );
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn corrupt_fault_surfaces_at_the_receiver() {
        let plan = FaultPlan::new().corrupt(0, 0);
        let out = Typhon::run_with(2, planned(plan), |ctx| {
            ctx.begin_step(0)?;
            let tag = ctx.next_tag();
            if ctx.rank() == 0 {
                ctx.send(1, tag, vec![1.0, 2.0, 3.0])?;
                Ok(0.0)
            } else {
                ctx.recv(0, tag).map(|p| p[0])
            }
        })
        .unwrap();
        assert_eq!(out[0], Ok(0.0), "sender proceeds normally");
        assert_eq!(
            out[1],
            Err(CommError::Corrupt { from: 0, tag: 0 }),
            "receiver must detect the bit flip"
        );
    }

    #[test]
    fn corrupt_fault_on_empty_payload_still_detected() {
        let plan = FaultPlan::new().corrupt(0, 0);
        let out = Typhon::run_with(2, planned(plan), |ctx| {
            ctx.begin_step(0)?;
            let tag = ctx.next_tag();
            if ctx.rank() == 0 {
                ctx.send(1, tag, Vec::new())?;
                Ok(0)
            } else {
                ctx.recv(0, tag).map(|p| p.len())
            }
        })
        .unwrap();
        assert_eq!(out[1], Err(CommError::Corrupt { from: 0, tag: 0 }));
    }

    /// Put a frame from rank 1 under `tag` into rank 0's mailbox, as
    /// rank 1's send would, with whatever checksum it is given.
    fn deliver(ctx: &RankCtx, tag: u64, payload: Vec<f64>, checksum: u32) {
        let msg = Message {
            from: 1,
            tag,
            payload,
            checksum,
            held: false,
        };
        ctx.team.lock().pending[0].push_back(msg);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Every single-bit flip of a frame — any bit of any payload
        /// double, or of its checksum — comes out of `recv` and out of
        /// `HaloPlan::complete` as `Corrupt` naming the sender and the
        /// tag, and unpacks nothing. The frame unflipped unpacks exactly.
        #[test]
        fn every_single_bit_flip_of_a_frame_is_corrupt(len in 0usize..64, scale in -1e6f64..1e6) {
            let sent: Vec<f64> = (0..len).map(|i| scale * (i + 1) as f64 / 7.0).collect();
            let crc = crc32_f64s(&sent);
            // (payload bit flipped, checksum): each payload bit, each
            // checksum bit, then the frame as sent.
            let frames: Vec<(Option<usize>, u32)> = (0..64 * len)
                .map(|b| (Some(b), crc))
                .chain((0..32).map(|b| (None, crc ^ (1 << b))))
                .chain([(None, crc)])
                .collect();
            let link = ExchangeList {
                rank: 1,
                send: Vec::new(),
                recv: (0..len as u32).collect(),
            };
            let plan = HaloPlan::new(vec![link], Vec::new());
            Typhon::run(2, |ctx| {
                for &(flip, checksum) in frames.iter().filter(|_| ctx.rank() == 0) {
                    let mut payload = sent.clone();
                    if let Some(b) = flip {
                        let x = &mut payload[b / 64];
                        *x = f64::from_bits(x.to_bits() ^ (1 << (b % 64)));
                    }
                    // Once through `recv`, under a tag of its own...
                    let tag = ctx.next_tag();
                    deliver(ctx, tag, payload.clone(), checksum);
                    let received = ctx.recv(1, tag);
                    // ...and once through `complete`, under the tag its
                    // `post` draws next.
                    deliver(ctx, tag + 1, payload, checksum);
                    let mut field = vec![0.0; len];
                    let mut fields = [(Entity::Element, FieldMut::Scalar(&mut field))];
                    let pending = plan.post(ctx, "p", &fields).unwrap();
                    let completed = plan.complete(ctx, pending, &mut fields);
                    if flip.is_none() && checksum == crc {
                        assert_eq!(received, Ok(sent.clone()));
                        assert_eq!(completed, Ok(()));
                        assert_eq!(field, sent);
                    } else {
                        let at = format!("flip {flip:?}, checksum {checksum:#x} of {crc:#x}");
                        assert_eq!(received, Err(CommError::Corrupt { from: 1, tag }), "{at}");
                        let corrupt = CommError::Corrupt { from: 1, tag: tag + 1 };
                        assert_eq!(completed, Err(corrupt), "{at}");
                        assert!(field.iter().all(|&v| v == 0.0), "{at}: unpacked");
                    }
                }
                ctx.barrier().unwrap();
            })
            .unwrap();
        }
    }

    #[test]
    fn dropped_message_times_out_typed() {
        // Rank 1 waits for a message that was lost. If its sender then
        // waits in a barrier, nobody is gone: the receive times out, and
        // so does the barrier. If the sender exits instead, the receive
        // finds it gone.
        for sender_waits in [true, false] {
            let plan = FaultPlan::new().with(FaultKind::Drop, 0, 0);
            let out = Typhon::run_with(2, planned(plan), |ctx| {
                ctx.begin_step(0)?;
                let tag = ctx.next_tag();
                if ctx.rank() == 1 {
                    return ctx.recv(0, tag).map(|p| p[0]);
                }
                ctx.send(1, tag, vec![42.0])?;
                if sender_waits {
                    ctx.barrier()?;
                }
                Ok(0.0)
            })
            .unwrap();
            if sender_waits {
                assert_eq!(
                    out,
                    [
                        Err(CommError::CollectiveTimeout { rank: 0 }),
                        Err(CommError::RecvTimeout { from: 0, tag: 0 }),
                    ]
                );
            } else {
                assert_eq!(out, [Ok(0.0), Err(CommError::RankUnreachable { to: 0 })]);
            }
        }
    }

    #[test]
    fn delayed_message_still_arrives() {
        let plan = FaultPlan::new().delay(0, 0);
        let out = Typhon::run_with(2, planned(plan), |ctx| {
            ctx.begin_step(0)?;
            let tag = ctx.next_tag();
            if ctx.rank() == 0 {
                ctx.send(1, tag, vec![42.0])?;
                Ok(0.0)
            } else {
                ctx.recv(0, tag).map(|p| p[0])
            }
        })
        .unwrap();
        assert_eq!(out[1], Ok(42.0), "a delay alone must not fail the run");
    }

    #[test]
    fn a_delayed_message_is_held_for_the_first_blocking_receive() {
        let options = planned(FaultPlan::new().delay(0, 0));
        type Seen = (Option<Vec<f64>>, Vec<f64>, Option<Vec<f64>>);
        let out = Typhon::run_with(2, options, |ctx| -> std::result::Result<Seen, CommError> {
            ctx.begin_step(0)?;
            if ctx.rank() == 0 {
                // The delay is armed for the first send only; the second
                // shares its source and tag.
                ctx.send(1, 7, vec![1.0])?;
                ctx.send(1, 7, vec![2.0])?;
                ctx.barrier()?;
                return Ok((None, Vec::new(), None));
            }
            // After the barrier both messages are in the mailbox, yet a
            // poll sees neither: the held one is first in send order.
            ctx.barrier()?;
            let polled = ctx.try_recv(0, 7)?;
            let first = ctx.recv(0, 7)?;
            let second = ctx.try_recv(0, 7)?;
            Ok((polled, first, second))
        })
        .unwrap();
        assert_eq!(out[1], Ok((None, vec![1.0], Some(vec![2.0]))));
    }

    #[test]
    fn killed_rank_and_peers_all_fail_typed() {
        let plan = FaultPlan::new().kill(1, 1);
        let out = Typhon::run_with(
            2,
            planned(plan),
            |ctx| -> std::result::Result<(), CommError> {
                for step in 0..3 {
                    ctx.begin_step(step)?;
                    let tag = ctx.next_tag();
                    let peer = 1 - ctx.rank();
                    ctx.send(peer, tag, vec![step as f64])?;
                    ctx.recv(peer, tag)?;
                    ctx.allreduce_min(step as f64)?;
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(
            out[1],
            Err(CommError::Killed { rank: 1, step: 1 }),
            "the killed rank learns of its own death at the step top"
        );
        // The survivor finds rank 1 gone: at its send if rank 1 has
        // already failed, else at the receive after it, once rank 1 has
        // exited and the team is stuck.
        assert_eq!(out[0], Err(CommError::RankUnreachable { to: 1 }));
    }

    #[test]
    fn send_to_dead_rank_is_unreachable() {
        // Rank 1 exits at once. Nothing can satisfy rank 0's receive from
        // it, so the receive ends as soon as rank 1 has exited, finding it
        // gone; the send after it does too.
        let out = Typhon::run(2, |ctx| {
            if ctx.rank() == 1 {
                return None;
            }
            let received = ctx.recv(1, 1).map(drop);
            Some((received, ctx.send(1, 1, vec![1.0])))
        })
        .unwrap();
        let gone = Err(CommError::RankUnreachable { to: 1 });
        assert_eq!(out[0], Some((gone.clone(), gone)));
    }

    #[test]
    fn fault_errors_are_identical_across_runs() {
        // Two pairs, 0-1 and 2-3, swap a message per step. Rank 0's
        // step-1 message is dropped, so both of the first pair end up
        // waiting for what never comes; rank 2 corrupts its step-1
        // message and is killed at step 2.
        let run = || {
            let plan = FaultPlan::new()
                .with(FaultKind::Drop, 1, 0)
                .corrupt(1, 2)
                .kill(2, 2);
            Typhon::run_with(
                4,
                planned(plan),
                |ctx| -> std::result::Result<f64, CommError> {
                    let mut acc = 0.0;
                    for step in 0..4 {
                        ctx.begin_step(step)?;
                        let tag = ctx.next_tag();
                        let peer = ctx.rank() ^ 1;
                        ctx.send(peer, tag, vec![step as f64])?;
                        acc += ctx.recv(peer, tag)?[0];
                    }
                    Ok(acc)
                },
            )
            .unwrap()
        };
        let first = run();
        assert_eq!(
            first,
            [
                Err(CommError::RecvTimeout { from: 1, tag: 2 }),
                Err(CommError::RecvTimeout { from: 0, tag: 1 }),
                Err(CommError::Killed { rank: 2, step: 2 }),
                Err(CommError::Corrupt { from: 2, tag: 1 }),
            ]
        );
        for repeat in 1..20 {
            assert_eq!(run(), first, "repeat {repeat}");
        }
    }

    #[test]
    fn survivor_learns_of_a_failed_peer_whoever_gets_there_first() {
        // Rank 0's first message is corrupt, so rank 1 fails at its first
        // receive. Either rank 0 sends again before that happens (and
        // its next receive finds a failed peer once the team is stuck),
        // or after (and the send itself is refused): a signal forces each
        // order in turn.
        for send_before_failure in [true, false] {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let rx = std::sync::Mutex::new(rx);
            let wait = || rx.lock().unwrap().recv().unwrap();
            let plan = FaultPlan::new().corrupt(0, 0);
            let out = Typhon::run_with(2, planned(plan), |ctx| {
                ctx.begin_step(0)?;
                if ctx.rank() == 1 {
                    ctx.send(0, 0, vec![1.0])?;
                    if send_before_failure {
                        wait();
                    }
                    let failed = ctx.recv(0, 0);
                    if !send_before_failure {
                        tx.send(()).unwrap();
                    }
                    return failed;
                }
                ctx.send(1, 0, vec![1.0])?;
                ctx.recv(1, 0)?;
                if !send_before_failure {
                    wait();
                }
                let second = ctx.send(1, 1, vec![2.0]);
                if send_before_failure {
                    tx.send(()).unwrap();
                }
                second?;
                ctx.recv(1, 1)
            })
            .unwrap();
            assert_eq!(out[1], Err(CommError::Corrupt { from: 0, tag: 0 }));
            assert_eq!(
                out[0],
                Err(CommError::RankUnreachable { to: 1 }),
                "send before failure: {send_before_failure}"
            );
        }
    }

    #[test]
    fn attempt_scoped_fault_does_not_refire() {
        let plan = FaultPlan::new().with(FaultKind::Drop, 0, 0);
        let round = |attempt: usize| {
            Typhon::run_with(
                2,
                TyphonOptions {
                    attempt,
                    ..planned(plan.clone())
                },
                |ctx| -> std::result::Result<f64, CommError> {
                    ctx.begin_step(0)?;
                    let tag = ctx.next_tag();
                    let peer = 1 - ctx.rank();
                    ctx.send(peer, tag, vec![1.0])?;
                    ctx.recv(peer, tag).map(|p| p[0])
                },
            )
            .unwrap()
        };
        // Rank 0's message is lost and rank 0 exits: rank 1 finds it gone.
        assert_eq!(round(0)[1], Err(CommError::RankUnreachable { to: 0 }));
        assert_eq!(round(1)[1], Ok(1.0), "attempt 1 must run clean");
    }

    #[test]
    fn operations_after_kill_keep_failing() {
        let plan = FaultPlan::new().kill(0, 0);
        let out = Typhon::run_with(1, planned(plan), |ctx| {
            let first = ctx.begin_step(0);
            let second = ctx.send(0, 0, vec![1.0]);
            let third = ctx.allreduce_min(1.0).map(|_| ());
            let fourth = ctx.try_recv(0, 0).map(|_| ());
            (first, second, third, fourth)
        })
        .unwrap();
        let killed = Err(CommError::Killed { rank: 0, step: 0 });
        assert_eq!(out[0].0, killed);
        assert_eq!(out[0].1, killed);
        assert_eq!(out[0].2, killed);
        assert_eq!(out[0].3, killed);
    }

    impl RankCtx {
        /// Number of buffers currently pooled.
        pub(crate) fn pool_len(&self) -> usize {
            self.pool.lock().expect("buffer pool poisoned").len()
        }

        /// Number of messages sent to this rank and not yet received.
        pub(crate) fn pending_len(&self) -> usize {
            self.team.lock().pending[self.rank].len()
        }

        /// Helper for the panic test: something innocuous that does not
        /// block on the panicking peer.
        fn barrier_free_work(&self) -> f64 {
            42.0
        }
    }
}
