//! Per-backend health tracking with exponential probe backoff.
//!
//! Health is observational, not gating: names are placed by the ring, and
//! a request for a name whose backend is marked unhealthy is still
//! attempted (marks can be stale). What health buys is cheap reporting
//! (`health` on the router answers without touching any backend), the
//! `route.healthy_backends` gauge, read-failover *ordering* (replicas
//! believed healthy are tried first), probe scheduling that backs off
//! exponentially instead of hammering a dead host once a second forever,
//! and the recovery signal that triggers write-repair replay.
//!
//! Both paths feed it: the router sends `{"op":"health"}` probes on a
//! schedule, and marks success/failure passively on every routed
//! exchange — a backend that comes back is observed as healthy by the
//! first request that reaches it, not only by the next probe.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Consecutive failures after which backoff stops growing (2^6 = 64x the
/// base interval).
const MAX_BACKOFF_EXP: u32 = 6;

/// One backend's health record.
pub struct HealthState {
    healthy: AtomicBool,
    /// Consecutive failures (probe or routed) since the last success.
    failures: AtomicU32,
    last_error: Mutex<Option<String>>,
    next_probe_at: Mutex<Instant>,
}

impl HealthState {
    /// A new backend starts healthy (it is probed immediately; starting
    /// pessimistic would mark a perfectly good tier degraded at boot).
    pub fn new() -> Self {
        HealthState {
            healthy: AtomicBool::new(true),
            failures: AtomicU32::new(0),
            last_error: Mutex::new(None),
            next_probe_at: Mutex::new(Instant::now()),
        }
    }

    /// Is the backend believed reachable?
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Consecutive failures since the last success.
    pub fn failures(&self) -> u32 {
        self.failures.load(Ordering::SeqCst)
    }

    /// The most recent failure's message, if currently unhealthy.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Record a successful exchange (probe or routed request).
    pub fn mark_success(&self, probe_interval: Duration) {
        self.healthy.store(true, Ordering::SeqCst);
        self.failures.store(0, Ordering::SeqCst);
        *self.last_error.lock() = None;
        *self.next_probe_at.lock() = Instant::now() + probe_interval;
    }

    /// Record a failed exchange; the next probe is pushed out by
    /// `probe_interval * 2^min(failures-1, 6)`. The failure counter
    /// saturates at `u32::MAX` — a backend that stays dead for a very
    /// long streak must not wrap back to zero (which would both misreport
    /// and restart the backoff ramp).
    pub fn mark_failure(&self, error: &str, probe_interval: Duration) {
        self.healthy.store(false, Ordering::SeqCst);
        let previous = self
            .failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| {
                Some(f.saturating_add(1))
            })
            .expect("the update closure never rejects");
        let failures = previous.saturating_add(1);
        *self.last_error.lock() = Some(error.to_string());
        let delay = Self::backoff_for(failures, probe_interval);
        let now = Instant::now();
        // `Instant + Duration` panics on overflow; an absurd configured
        // interval degrades to "retry in ~a day" instead.
        *self.next_probe_at.lock() = now
            .checked_add(delay)
            .unwrap_or_else(|| now + Duration::from_secs(86_400));
    }

    /// The clamped backoff delay after `failures` consecutive failures.
    /// Saturating: neither the shift nor the multiplication can overflow,
    /// however long the failure streak or large the configured interval.
    fn backoff_for(failures: u32, probe_interval: Duration) -> Duration {
        if failures == 0 {
            return probe_interval;
        }
        let exp = (failures - 1).min(MAX_BACKOFF_EXP);
        probe_interval.saturating_mul(1u32 << exp)
    }

    /// Is a probe of this backend due? Healthy backends are
    /// probed every interval; unhealthy ones on the backoff schedule.
    pub fn probe_due(&self, now: Instant) -> bool {
        now >= *self.next_probe_at.lock()
    }

    /// Current backoff delay, for reporting.
    pub fn backoff(&self, probe_interval: Duration) -> Duration {
        Self::backoff_for(self.failures(), probe_interval)
    }
}

impl Default for HealthState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(100);

    #[test]
    fn starts_healthy_and_immediately_probeable() {
        let h = HealthState::new();
        assert!(h.is_healthy());
        assert!(h.probe_due(Instant::now()));
        assert_eq!(h.last_error(), None);
    }

    #[test]
    fn failures_back_off_exponentially_and_cap() {
        let h = HealthState::new();
        h.mark_failure("refused", TICK);
        assert!(!h.is_healthy());
        assert_eq!(h.backoff(TICK), TICK);
        h.mark_failure("refused", TICK);
        assert_eq!(h.backoff(TICK), TICK * 2);
        for _ in 0..20 {
            h.mark_failure("refused", TICK);
        }
        assert_eq!(h.backoff(TICK), TICK * 64, "backoff caps at 2^6");
        assert_eq!(h.last_error().as_deref(), Some("refused"));
        // Deep in backoff, the probe is not due right now.
        assert!(!h.probe_due(Instant::now()));
    }

    #[test]
    fn sustained_failure_streaks_saturate_instead_of_overflowing() {
        let h = HealthState::new();
        // Jump to the end of a very long streak: the counter must pin at
        // u32::MAX (not wrap to 0 and restart the backoff ramp) and the
        // backoff math must stay clamped at 2^6.
        h.failures.store(u32::MAX - 1, Ordering::SeqCst);
        h.mark_failure("refused", TICK);
        assert_eq!(h.failures(), u32::MAX);
        h.mark_failure("refused", TICK);
        assert_eq!(h.failures(), u32::MAX, "counter saturates");
        assert_eq!(h.backoff(TICK), TICK * 64, "backoff stays clamped");
        assert!(!h.is_healthy());
    }

    #[test]
    fn huge_probe_intervals_do_not_overflow_the_backoff() {
        let h = HealthState::new();
        for _ in 0..10 {
            // 2^6 × (Duration::MAX / 2) overflows a checked multiply;
            // the saturating path must neither panic nor wrap.
            h.mark_failure("refused", Duration::MAX / 2);
        }
        assert_eq!(h.backoff(Duration::MAX / 2), Duration::MAX);
        assert!(!h.probe_due(Instant::now()));
    }

    #[test]
    fn success_resets_everything() {
        let h = HealthState::new();
        h.mark_failure("refused", TICK);
        h.mark_failure("refused", TICK);
        h.mark_success(TICK);
        assert!(h.is_healthy());
        assert_eq!(h.failures(), 0);
        assert_eq!(h.backoff(TICK), TICK);
        assert_eq!(h.last_error(), None);
    }
}
