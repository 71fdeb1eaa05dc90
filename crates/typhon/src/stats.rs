//! Communication counters.
//!
//! The cluster performance model (Figs 3 and 4) charges wire time per
//! message and per byte; these counters, recorded by the real in-process
//! exchanges, supply the message/volume terms. Besides the per-rank
//! totals, traffic sent through a named exchange phase (see
//! [`crate::plan`]) is broken down per phase, so the models — and the
//! scaling bench — can attribute wire cost to the algorithmic step that
//! incurred it.
//!
//! Two wall-clock attributions ride along with the byte counters:
//!
//! * **`recv_wait_seconds`** — time a rank spent *blocked* in a receive
//!   because the matching message had not arrived yet. Receives that
//!   find their payload already in their mailbox record exactly `0.0`
//!   and never touch a clock, so the measurement is free when nobody
//!   waits. This is the latency the overlapped exchange exists to hide.
//! * **`overlap_window_seconds`** — for split-phase executions (see
//!   [`crate::plan::HaloPlan::post`]), the wall time between posting a
//!   phase's sends and starting to complete its receives: the window in
//!   which computation ran while messages were in flight. A non-split
//!   `execute` completes immediately after posting, so its window is
//!   ≈ 0 — the two columns together show how much latency the overlap
//!   actually covered.

/// Traffic attributed to one named exchange phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase name (as registered with the exchange plan).
    pub name: &'static str,
    /// Point-to-point messages sent during this phase.
    pub messages_sent: u64,
    /// Total `f64` values sent during this phase.
    pub doubles_sent: u64,
    /// Seconds spent blocked in receives for this phase (0 when every
    /// payload had already arrived).
    pub recv_wait_seconds: f64,
    /// Seconds between posting this phase's sends and completing its
    /// receives (the communication/computation overlap window).
    pub overlap_window_seconds: f64,
}

/// Per-rank communication totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub messages_sent: u64,
    /// Total `f64` values sent.
    pub doubles_sent: u64,
    /// Collective operations participated in.
    pub collectives: u64,
    /// Seconds spent blocked in receives (all phases and ad-hoc traffic).
    pub recv_wait_seconds: f64,
    /// Seconds of open post→complete windows (all phases).
    pub overlap_window_seconds: f64,
    /// Per-phase breakdown of the point-to-point traffic. Only sends
    /// attributed to a phase (via [`crate::RankCtx::send_in_phase`])
    /// appear here; the totals above always cover everything.
    pub phases: Vec<PhaseStats>,
}

impl CommStats {
    /// Bytes on the wire (8 bytes per double, headers ignored).
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.doubles_sent * 8
    }

    /// The breakdown entry for `name`, if any traffic was attributed.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The breakdown entry for `name`, created on first use.
    pub fn phase_mut(&mut self, name: &'static str) -> &mut PhaseStats {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            return &mut self.phases[i];
        }
        self.phases.push(PhaseStats {
            name,
            messages_sent: 0,
            doubles_sent: 0,
            recv_wait_seconds: 0.0,
            overlap_window_seconds: 0.0,
        });
        self.phases.last_mut().expect("just pushed")
    }

    /// Merge another rank's counters (for team-wide totals). Phase
    /// entries merge by name; `other`'s unseen phases are appended.
    /// Wait and window seconds add up — the team-wide figures are
    /// cumulative rank-seconds, the convention MPI profilers use.
    #[must_use]
    pub fn merged(&self, other: &CommStats) -> CommStats {
        let mut out = self.clone();
        out.messages_sent += other.messages_sent;
        out.doubles_sent += other.doubles_sent;
        out.collectives += other.collectives;
        out.recv_wait_seconds += other.recv_wait_seconds;
        out.overlap_window_seconds += other.overlap_window_seconds;
        for p in &other.phases {
            let mine = out.phase_mut(p.name);
            mine.messages_sent += p.messages_sent;
            mine.doubles_sent += p.doubles_sent;
            mine.recv_wait_seconds += p.recv_wait_seconds;
            mine.overlap_window_seconds += p.overlap_window_seconds;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_are_eight_per_double() {
        let s = CommStats {
            messages_sent: 1,
            doubles_sent: 10,
            ..CommStats::default()
        };
        assert_eq!(s.bytes_sent(), 80);
    }

    #[test]
    fn merge_adds() {
        let a = CommStats {
            messages_sent: 1,
            doubles_sent: 2,
            collectives: 3,
            recv_wait_seconds: 0.5,
            overlap_window_seconds: 0.25,
            phases: Vec::new(),
        };
        let b = CommStats {
            messages_sent: 10,
            doubles_sent: 20,
            collectives: 30,
            recv_wait_seconds: 1.5,
            overlap_window_seconds: 0.75,
            phases: Vec::new(),
        };
        let m = a.merged(&b);
        assert_eq!(m.messages_sent, 11);
        assert_eq!(m.doubles_sent, 22);
        assert_eq!(m.collectives, 33);
        assert!((m.recv_wait_seconds - 2.0).abs() < 1e-12);
        assert!((m.overlap_window_seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phases_merge_by_name() {
        let mut a = CommStats::default();
        {
            let p = a.phase_mut("pre_viscosity");
            p.messages_sent = 2;
            p.doubles_sent = 100;
            p.recv_wait_seconds = 0.25;
        }
        let mut b = CommStats::default();
        {
            let p = b.phase_mut("pre_viscosity");
            p.messages_sent = 3;
            p.doubles_sent = 50;
            p.recv_wait_seconds = 0.75;
            p.overlap_window_seconds = 2.0;
        }
        {
            let p = b.phase_mut("post_remap");
            p.messages_sent = 1;
            p.doubles_sent = 7;
        }
        let m = a.merged(&b);
        let visc = m.phase("pre_viscosity").unwrap();
        assert_eq!(visc.messages_sent, 5);
        assert_eq!(visc.doubles_sent, 150);
        assert!((visc.recv_wait_seconds - 1.0).abs() < 1e-12);
        assert!((visc.overlap_window_seconds - 2.0).abs() < 1e-12);
        let remap = m.phase("post_remap").unwrap();
        assert_eq!(remap.messages_sent, 1);
        assert!(m.phase("never_ran").is_none());
    }

    #[test]
    fn phase_mut_is_idempotent_per_name() {
        let mut s = CommStats::default();
        s.phase_mut("a").messages_sent += 1;
        s.phase_mut("a").messages_sent += 1;
        s.phase_mut("b").messages_sent += 1;
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phase("a").unwrap().messages_sent, 2);
    }

    #[test]
    fn fresh_stats_report_zero_wait() {
        let s = CommStats::default();
        assert_eq!(s.recv_wait_seconds, 0.0);
        assert_eq!(s.overlap_window_seconds, 0.0);
    }
}
