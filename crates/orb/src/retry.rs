//! Per-request retry policies: bounded attempts, exponential backoff with
//! deterministic jitter, and an optional absolute deadline.
//!
//! The paper's Signal delivery is *at-least-once* (§3.4); this module is the
//! runtime half of that contract. Every [`crate::Orb::invoke`] runs under a
//! [`RetryPolicy`]; [`RetryPolicy::none`] is the plain single call. A policy
//! re-issues a request after retryable transport failures
//! ([`OrbError::is_retryable`]), waiting an exponentially growing backoff
//! between attempts. Three properties keep the simulation harness sound:
//!
//! 1. **Determinism** — backoff jitter is *derived*, not drawn: an FNV-1a
//!    hash of the request's delivery id and the attempt number. Two runs of
//!    the same schedule wait the same nanoseconds, so harness runs stay
//!    bit-reproducible.
//! 2. **Virtual time** — waits advance the shared [`SimClock`] instead of
//!    sleeping, so a thousand-attempt storm simulates instantly.
//! 3. **Invisibility when healthy** — a first-attempt success performs no
//!    clock advance and no extra network traffic, so a fault-free trace with
//!    the retry layer enabled is byte-identical to one without it.
//!
//! Deadlines compose with `Activity::set_timeout` in the activity service:
//! the activity's absolute virtual-time deadline is set on the policy
//! ([`RetryPolicy::with_deadline`]), so a retry loop can never outlive the
//! activity. A deadline that passes *mid-backoff* yields
//! [`OrbError::DeadlineExceeded`] without starting another attempt.

use std::time::Duration;

use crate::clock::SimClock;
use crate::error::OrbError;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How a single logical request is retried across transport failures.
///
/// Construction is builder-style; [`RetryPolicy::default`] gives 4 attempts
/// with a 1 ms base backoff doubling up to 1 s, and no deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
    jitter: bool,
    deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_secs(1),
            jitter: true,
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing up to `max_attempts` attempts (at least 1) with the
    /// default backoff curve.
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), ..Self::default() }
    }

    /// No retries at all: one attempt, the transport error surfaces as-is.
    /// This is the "retry layer compiled out" configuration benchmarks and
    /// ablation runs pin.
    pub fn none() -> Self {
        Self::new(1)
    }

    /// `max_attempts` back-to-back attempts with **zero** backoff. Performs
    /// no clock advances at all, so virtual time moves only with the
    /// network's own latency.
    pub fn immediate(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: false,
            deadline: None,
        }
    }

    /// Set the first backoff interval (doubles each further attempt).
    #[must_use]
    pub fn with_base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Cap the exponential growth.
    #[must_use]
    pub fn with_max_backoff(mut self, max: Duration) -> Self {
        self.max_backoff = max;
        self
    }

    /// Disable jitter: backoffs are the raw exponential series.
    #[must_use]
    pub fn without_jitter(mut self) -> Self {
        self.jitter = false;
        self
    }

    /// Bound the whole call, backoff waits included, by an **absolute**
    /// virtual time (same epoch as the ORB's clock) — typically the owning
    /// activity's `Activity::deadline`, so retry can never outlive the
    /// activity's own timeout.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Maximum number of attempts (including the first).
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The wait before attempt `attempt` (1-based: attempt 0 is the initial
    /// try and never waits). Deterministic: the jitter is an FNV-1a hash of
    /// `delivery_id` and the attempt number, folded into the upper half of
    /// the exponential interval ("equal jitter"), so the same logical request
    /// backs off identically in every run.
    pub fn backoff_before(&self, attempt: u32, delivery_id: &str) -> Duration {
        if attempt == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(20))
            .min(self.max_backoff)
            .max(self.base_backoff.min(self.max_backoff));
        if !self.jitter {
            return exp;
        }
        let half = exp / 2;
        let span = u64::try_from(half.as_nanos()).unwrap_or(u64::MAX);
        if span == 0 {
            return exp;
        }
        let hash = fnv1a(FNV_OFFSET ^ u64::from(attempt), delivery_id.as_bytes());
        half + Duration::from_nanos(hash % (span + 1))
    }

    /// Drive `attempt` under this policy: retryable errors are retried with
    /// backoff on the virtual clock; non-retryable errors return immediately.
    /// Once the policy's deadline passes — including mid-backoff — no further
    /// attempt starts and [`OrbError::DeadlineExceeded`] is returned.
    ///
    /// # Errors
    ///
    /// The first non-retryable error, [`OrbError::DeadlineExceeded`] when the
    /// deadline cuts the loop short, or the last retryable error once the
    /// attempt budget is spent.
    pub fn run<T>(
        &self,
        clock: &SimClock,
        operation: &str,
        delivery_id: &str,
        mut attempt: impl FnMut(u32) -> Result<T, OrbError>,
    ) -> Result<T, OrbError> {
        let deadline = self.deadline;
        let expired = |d: Duration| clock.now() > d;
        let mut last_err: Option<OrbError> = None;
        for n in 0..self.max_attempts {
            if deadline.is_some_and(expired) {
                return Err(OrbError::DeadlineExceeded { operation: operation.to_owned() });
            }
            match attempt(n) {
                Ok(value) => return Ok(value),
                Err(e) if e.is_retryable() => last_err = Some(e),
                Err(e) => return Err(e),
            }
            if n + 1 < self.max_attempts {
                let backoff = self.backoff_before(n + 1, delivery_id);
                if let Some(d) = deadline {
                    // Would the wait outlive the deadline? Then the next
                    // attempt could never be answered in time: report the
                    // timeout now instead of burning another attempt.
                    if clock.now() + backoff > d {
                        return Err(OrbError::DeadlineExceeded {
                            operation: operation.to_owned(),
                        });
                    }
                }
                if !backoff.is_zero() {
                    clock.advance(backoff);
                }
            }
        }
        Err(last_err.unwrap_or(OrbError::Timeout { operation: operation.to_owned() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeout() -> OrbError {
        OrbError::Timeout { operation: "op".into() }
    }

    #[test]
    fn first_attempt_success_leaves_the_clock_untouched() {
        let clock = SimClock::new();
        let policy = RetryPolicy::default();
        let result = policy.run(&clock, "op", "id-1", |_n| Ok(7u32));
        assert_eq!(result.unwrap(), 7);
        assert_eq!(clock.now(), Duration::ZERO, "retry layer must be invisible when healthy");
    }

    #[test]
    fn retryable_errors_are_retried_with_growing_backoff() {
        let clock = SimClock::new();
        let policy = RetryPolicy::new(4).without_jitter();
        let mut attempts = 0;
        let result = policy.run(&clock, "op", "id", |n| {
            attempts += 1;
            if n < 2 {
                Err(timeout())
            } else {
                Ok(n)
            }
        });
        assert_eq!(result.unwrap(), 2);
        assert_eq!(attempts, 3);
        // 1ms + 2ms waited before attempts 1 and 2.
        assert_eq!(clock.now(), Duration::from_millis(3));
    }

    #[test]
    fn non_retryable_errors_surface_immediately() {
        let clock = SimClock::new();
        let policy = RetryPolicy::new(5);
        let mut attempts = 0;
        let err = policy
            .run::<()>(&clock, "op", "id", |_n| {
                attempts += 1;
                Err(OrbError::Application("boom".into()))
            })
            .unwrap_err();
        assert!(matches!(err, OrbError::Application(_)));
        assert_eq!(attempts, 1);
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn budget_exhaustion_returns_the_last_transport_error() {
        let clock = SimClock::new();
        let policy = RetryPolicy::immediate(3);
        let mut attempts = 0;
        let err = policy
            .run::<()>(&clock, "op", "id", |_n| {
                attempts += 1;
                Err(OrbError::Partitioned { from: "a".into(), to: "b".into() })
            })
            .unwrap_err();
        assert!(matches!(err, OrbError::Partitioned { .. }));
        assert_eq!(attempts, 3);
        assert_eq!(clock.now(), Duration::ZERO, "immediate policy never advances time");
    }

    #[test]
    fn jitter_is_deterministic_per_delivery_id_and_attempt() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_before(1, "req-a"), policy.backoff_before(1, "req-a"));
        assert_eq!(policy.backoff_before(3, "req-b"), policy.backoff_before(3, "req-b"));
        // Different ids (and different attempts) decorrelate.
        assert_ne!(policy.backoff_before(1, "req-a"), policy.backoff_before(1, "req-b"));
        assert_ne!(policy.backoff_before(2, "req-a"), policy.backoff_before(3, "req-a"));
        // Jitter stays inside the exponential envelope: [exp/2, exp].
        for attempt in 1..10 {
            for id in ["x", "y", "z"] {
                let raw = RetryPolicy::default().without_jitter().backoff_before(attempt, id);
                let jittered = policy.backoff_before(attempt, id);
                assert!(jittered >= raw / 2 && jittered <= raw, "{attempt} {id}");
            }
        }
    }

    #[test]
    fn backoff_is_capped_at_max() {
        let policy = RetryPolicy::new(40)
            .with_base_backoff(Duration::from_millis(10))
            .with_max_backoff(Duration::from_millis(80))
            .without_jitter();
        assert_eq!(policy.backoff_before(1, "id"), Duration::from_millis(10));
        assert_eq!(policy.backoff_before(4, "id"), Duration::from_millis(80));
        assert_eq!(policy.backoff_before(30, "id"), Duration::from_millis(80));
    }

    // Satellite: retry × deadline interaction. The deadline here is the
    // absolute virtual-time deadline `Activity::set_timeout` computes; the
    // integration test in `tests/` drives it through a real activity.

    #[test]
    fn deadline_mid_backoff_yields_deadline_exceeded_not_another_attempt() {
        let clock = SimClock::new();
        // Backoff (100ms) overshoots the 50ms deadline after one failure.
        let policy = RetryPolicy::new(5)
            .with_base_backoff(Duration::from_millis(100))
            .without_jitter()
            .with_deadline(Duration::from_millis(50));
        let mut attempts = 0;
        let err = policy
            .run::<()>(&clock, "op", "id", |_n| {
                attempts += 1;
                Err(timeout())
            })
            .unwrap_err();
        assert!(matches!(err, OrbError::DeadlineExceeded { .. }), "{err:?}");
        assert_eq!(attempts, 1, "the wait would outlive the deadline: no second attempt");
        assert_eq!(clock.now(), Duration::ZERO, "no point advancing into a dead wait");
    }

    #[test]
    fn expired_deadline_prevents_even_the_first_attempt() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(10));
        let policy = RetryPolicy::default().with_deadline(Duration::from_secs(1));
        let mut attempts = 0;
        let err = policy
            .run::<()>(&clock, "op", "id", |_n| {
                attempts += 1;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, OrbError::DeadlineExceeded { .. }));
        assert_eq!(attempts, 0);
    }

    #[test]
    fn retry_loop_never_extends_past_the_deadline() {
        let clock = SimClock::new();
        let policy = RetryPolicy::new(64)
            .with_base_backoff(Duration::from_millis(3))
            .with_max_backoff(Duration::from_millis(3))
            .without_jitter();
        let deadline = Duration::from_millis(10);
        let err = policy
            .with_deadline(deadline)
            .run::<()>(&clock, "op", "id", |_n| Err(timeout()))
            .unwrap_err();
        assert!(matches!(err, OrbError::DeadlineExceeded { .. }));
        assert!(
            clock.now() <= deadline,
            "virtual time {:?} must not pass the deadline {deadline:?}",
            clock.now()
        );
    }

    #[test]
    fn deadline_inside_the_budget_is_invisible() {
        let clock = SimClock::new();
        let policy = RetryPolicy::new(3)
            .with_base_backoff(Duration::from_millis(1))
            .without_jitter()
            .with_deadline(Duration::from_secs(1));
        let mut attempts = 0;
        let result = policy.run(&clock, "op", "id", |n| {
            attempts += 1;
            if n == 0 {
                Err(timeout())
            } else {
                Ok("done")
            }
        });
        assert_eq!(result.unwrap(), "done");
        assert_eq!(attempts, 2);
    }
}
