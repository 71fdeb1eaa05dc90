//! Tenant quarantine: trim the adversarial fraction, keep the healthy
//! majority fast.
//!
//! The policy mirrors trimmed robust clustering: a tenant whose decks
//! repeatedly fail *health* checks (sentinel aborts, NaN-poisoned
//! physics, comm faults, blown deadlines) is quarantined — admissions
//! rejected with a typed retry-after — for an exponentially growing
//! window. Deck syntax errors and protocol mistakes are **not** health
//! failures: a typo must never quarantine anyone. A single healthy
//! completion resets both the failure streak and the backoff level.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When quarantine starts and how it backs off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Consecutive health failures that trigger quarantine.
    pub threshold: u32,
    /// First quarantine window; doubles each re-quarantine.
    pub base: Duration,
    /// Ceiling on the quarantine window.
    pub cap: Duration,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            threshold: 3,
            base: Duration::from_millis(250),
            cap: Duration::from_secs(30),
        }
    }
}

impl QuarantinePolicy {
    /// The quarantine window at backoff `level` (how many quarantines
    /// the tenant has had since its last healthy run): `base · 2^level`,
    /// capped.
    #[must_use]
    fn window(&self, level: u32) -> Duration {
        self.base
            .checked_mul(1u32 << level.min(16))
            .unwrap_or(self.cap)
            .min(self.cap)
    }
}

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant is quarantined; retry after this long.
    Quarantined {
        /// Time remaining in the quarantine window.
        retry_after: Duration,
    },
    /// The tenant already has its full in-flight allowance running.
    TooManyInFlight {
        /// Currently running requests for this tenant.
        in_flight: usize,
        /// The per-tenant ceiling.
        limit: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Quarantined { retry_after } => write!(
                f,
                "tenant quarantined after repeated health failures; retry in {} ms",
                retry_after.as_millis()
            ),
            AdmitError::TooManyInFlight { in_flight, limit } => write!(
                f,
                "tenant has {in_flight} requests in flight (limit {limit})"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// How a finished request bears on its tenant's health standing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Completed cleanly: resets the failure streak and backoff level.
    Healthy,
    /// Failed a health check (sentinel abort, comm fault, deadline):
    /// extends the streak and may quarantine.
    HealthFailure,
    /// Failed for a non-health reason (deck typo, protocol error):
    /// leaves the streak untouched.
    Unrelated,
}

/// A tenant's standing; the ledger drops a tenant back at the default.
#[derive(Debug, Default, PartialEq)]
struct TenantState {
    in_flight: usize,
    consecutive_failures: u32,
    quarantined_until: Option<Instant>,
    /// How many times this tenant has been quarantined without an
    /// intervening healthy run; drives the exponential window.
    quarantine_level: u32,
}

/// The per-tenant admission ledger: in-flight counts, failure streaks
/// and quarantine state, shared across server workers.
#[derive(Debug)]
pub struct TenantLedger {
    policy: QuarantinePolicy,
    max_inflight: usize,
    tenants: Mutex<HashMap<String, TenantState>>,
}

impl TenantLedger {
    /// A ledger enforcing `policy` and `max_inflight` per tenant.
    #[must_use]
    pub fn new(policy: QuarantinePolicy, max_inflight: usize) -> Self {
        TenantLedger {
            policy,
            max_inflight: max_inflight.max(1),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Try to admit one request for `tenant`; on success the tenant's
    /// in-flight count is incremented and the caller **must** pair this
    /// with exactly one [`TenantLedger::finish`].
    ///
    /// # Errors
    ///
    /// [`AdmitError::Quarantined`] while the tenant's window is open,
    /// [`AdmitError::TooManyInFlight`] at the in-flight ceiling.
    pub fn admit(&self, tenant: &str) -> Result<(), AdmitError> {
        let mut tenants = self.tenants.lock().expect("tenant ledger poisoned");
        let state = tenants.entry(tenant.to_string()).or_default();
        if let Some(until) = state.quarantined_until {
            let now = Instant::now();
            if now < until {
                return Err(AdmitError::Quarantined {
                    retry_after: until - now,
                });
            }
            state.quarantined_until = None;
        }
        if state.in_flight >= self.max_inflight {
            return Err(AdmitError::TooManyInFlight {
                in_flight: state.in_flight,
                limit: self.max_inflight,
            });
        }
        state.in_flight += 1;
        Ok(())
    }

    /// Record the outcome of an admitted request, releasing its
    /// in-flight slot and updating the tenant's health standing. A
    /// tenant left at default standing leaves the ledger.
    pub fn finish(&self, tenant: &str, outcome: RunOutcome) {
        let mut tenants = self.tenants.lock().expect("tenant ledger poisoned");
        let Some(state) = tenants.get_mut(tenant) else {
            return;
        };
        state.in_flight = state.in_flight.saturating_sub(1);
        match outcome {
            RunOutcome::Healthy => {
                state.consecutive_failures = 0;
                state.quarantine_level = 0;
            }
            RunOutcome::Unrelated => {}
            RunOutcome::HealthFailure => {
                state.consecutive_failures += 1;
                if state.consecutive_failures >= self.policy.threshold {
                    let window = self.policy.window(state.quarantine_level);
                    state.quarantined_until = Some(Instant::now() + window);
                    state.quarantine_level += 1;
                    // The streak restarts inside quarantine: the next
                    // `threshold` failures after release re-quarantine
                    // at the doubled window.
                    state.consecutive_failures = 0;
                }
            }
        }
        if *state == TenantState::default() {
            tenants.remove(tenant);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the ledger holds a quarantine window for `tenant`, open
    /// or not yet cleared by an admission.
    fn quarantined(ledger: &TenantLedger, tenant: &str) -> bool {
        let tenants = ledger.tenants.lock().unwrap();
        tenants
            .get(tenant)
            .is_some_and(|s| s.quarantined_until.is_some())
    }

    fn fast_policy() -> QuarantinePolicy {
        QuarantinePolicy {
            threshold: 2,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(100),
        }
    }

    #[test]
    fn health_failures_quarantine_at_the_threshold() {
        let ledger = TenantLedger::new(fast_policy(), 4);
        ledger.admit("mallory").unwrap();
        ledger.finish("mallory", RunOutcome::HealthFailure);
        assert!(
            !quarantined(&ledger, "mallory"),
            "one failure is not a streak"
        );
        ledger.admit("mallory").unwrap();
        ledger.finish("mallory", RunOutcome::HealthFailure);
        assert!(quarantined(&ledger, "mallory"));
        let err = ledger.admit("mallory").unwrap_err();
        assert!(matches!(err, AdmitError::Quarantined { .. }), "{err}");
        // An unrelated tenant is untouched.
        ledger.admit("alice").unwrap();
        ledger.finish("alice", RunOutcome::Healthy);
    }

    #[test]
    fn windows_double_per_level_up_to_the_cap() {
        let policy = fast_policy();
        assert_eq!(policy.window(0), policy.base);
        assert_eq!(policy.window(1), 2 * policy.base);
        assert_eq!(policy.window(2), 4 * policy.base);
        assert_eq!(policy.window(3), policy.cap);
        assert_eq!(policy.window(u32::MAX), policy.cap);
    }

    #[test]
    fn quarantine_windows_double_and_heal_on_success() {
        // Asserts on the backoff level and the stored deadline, never on
        // a remaining duration: how long the test thread was descheduled
        // between two calls must not matter.
        let ledger = TenantLedger::new(fast_policy(), 4);
        let standing = |ledger: &TenantLedger| {
            let tenants = ledger.tenants.lock().unwrap();
            let state = tenants.get("m");
            state.map_or((0, None), |s| (s.quarantine_level, s.quarantined_until))
        };
        // Fail a full streak, return the level it left and wait the
        // quarantine out.
        let trip = |ledger: &TenantLedger| {
            for _ in 0..2 {
                ledger.admit("m").unwrap();
                ledger.finish("m", RunOutcome::HealthFailure);
            }
            let (level, until) = standing(ledger);
            let until = until.expect("a full streak quarantines");
            while let Some(left) = until.checked_duration_since(Instant::now()) {
                std::thread::sleep(left + Duration::from_millis(1));
            }
            level
        };
        assert_eq!(trip(&ledger), 1);
        // Released — and the next streak quarantines one level up, i.e.
        // with the doubled window.
        assert_eq!(trip(&ledger), 2);
        // A healthy completion resets the level: the next streak gets
        // the base window again.
        ledger.admit("m").unwrap();
        ledger.finish("m", RunOutcome::Healthy);
        assert_eq!(standing(&ledger).0, 0);
        assert_eq!(trip(&ledger), 1);
    }

    #[test]
    fn unrelated_failures_never_quarantine() {
        let ledger = TenantLedger::new(fast_policy(), 4);
        for _ in 0..10 {
            ledger.admit("typo").unwrap();
            ledger.finish("typo", RunOutcome::Unrelated);
        }
        assert!(!quarantined(&ledger, "typo"));
    }

    #[test]
    fn tenants_at_default_standing_leave_the_ledger() {
        let ledger = TenantLedger::new(fast_policy(), 4);
        for i in 0..1000 {
            let tenant = format!("typo-{i}");
            ledger.admit(&tenant).unwrap();
            let outcome = if i % 2 == 0 {
                RunOutcome::Unrelated
            } else {
                RunOutcome::Healthy
            };
            ledger.finish(&tenant, outcome);
        }
        assert!(ledger.tenants.lock().unwrap().is_empty());
        // A streak, or a quarantine, is standing worth keeping.
        ledger.admit("streak").unwrap();
        ledger.finish("streak", RunOutcome::HealthFailure);
        for _ in 0..2 {
            ledger.admit("mallory").unwrap();
            ledger.finish("mallory", RunOutcome::HealthFailure);
        }
        assert!(quarantined(&ledger, "mallory"));
        let tenants = ledger.tenants.lock().unwrap();
        assert_eq!(tenants["streak"].consecutive_failures, 1);
        assert_eq!(tenants.len(), 2);
    }

    #[test]
    fn in_flight_ceiling_is_enforced_per_tenant() {
        let ledger = TenantLedger::new(QuarantinePolicy::default(), 2);
        ledger.admit("a").unwrap();
        ledger.admit("a").unwrap();
        assert!(matches!(
            ledger.admit("a").unwrap_err(),
            AdmitError::TooManyInFlight {
                in_flight: 2,
                limit: 2
            }
        ));
        ledger.admit("b").unwrap();
        ledger.finish("a", RunOutcome::Healthy);
        ledger.admit("a").unwrap();
    }
}
