//! A per-participant failure detector: suspicion counting, quarantine, and
//! half-open probing.
//!
//! Long-running activities (§2 of the paper) outlive transient participant
//! failures, but a coordinator that keeps soliciting a dead participant burns
//! its whole deadline discovering what it already observed. The detector
//! accumulates *consecutive* failure evidence per participant:
//!
//! ```text
//!            suspect_after             quarantine_after
//! Healthy ──────────────────▶ Suspect ──────────────────▶ Quarantined
//!    ▲                                                        │
//!    └────────────── any recorded success ◀── half-open probe ┘
//! ```
//!
//! * **Healthy → Suspect** after `suspect_after` consecutive failures
//!   (timeouts / NACKs); suspicion is advisory — calls still go through.
//! * **Suspect → Quarantined** after `quarantine_after` consecutive
//!   failures. Coordinators consult [`FailureDetector::should_skip`]:
//!   quarantined read-only participants are skipped outright, quarantined
//!   voters force an early presumed abort.
//! * **Half-open probing**: while quarantined, one call per
//!   `probe_interval` of virtual time is let through
//!   ([`FailureDetector::should_skip`] returns `false` for it). A recorded
//!   success — probe or otherwise — **fully rehabilitates** the participant
//!   to `Healthy` with zero suspicion; a failed probe re-arms the quarantine.
//!
//! The detector is deterministic: its state is a pure function of the
//! recorded event sequence and the [`SimClock`] times at which events and
//! probes occur. Two detectors fed the same sequence agree — a property the
//! workspace pins with vendored-proptest state-machine tests.
//!
//! Higher layers (workflow engines, sagas) that must *reroute or compensate*
//! when a participant is condemned subscribe with
//! [`FailureDetector::on_quarantine`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::SimClock;

/// A participant's current standing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthStatus {
    /// No outstanding evidence against the participant.
    Healthy,
    /// Consecutive failures at or past `suspect_after`; advisory only.
    Suspect,
    /// Consecutive failures at or past `quarantine_after`; coordinators
    /// route around it except for rate-limited half-open probes.
    Quarantined,
}

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Suspect => "suspect",
            HealthStatus::Quarantined => "quarantined",
        })
    }
}

/// Thresholds and probe pacing for a [`FailureDetector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Consecutive failures before a participant becomes [`HealthStatus::Suspect`].
    pub suspect_after: u32,
    /// Consecutive failures before quarantine (must be ≥ `suspect_after`).
    pub quarantine_after: u32,
    /// Minimum virtual time between half-open probes of a quarantined
    /// participant.
    pub probe_interval: Duration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            suspect_after: 2,
            quarantine_after: 4,
            probe_interval: Duration::from_millis(100),
        }
    }
}

#[derive(Debug, Clone)]
struct Participant {
    consecutive_failures: u32,
    status: HealthStatus,
    /// While quarantined: earliest virtual time the next half-open probe may
    /// pass.
    next_probe_at: Duration,
}

impl Participant {
    fn new() -> Self {
        Participant {
            consecutive_failures: 0,
            status: HealthStatus::Healthy,
            next_probe_at: Duration::ZERO,
        }
    }
}

type QuarantineHook = Arc<dyn Fn(&str) + Send + Sync>;

struct DetectorInner {
    clock: SimClock,
    config: DetectorConfig,
    participants: Mutex<HashMap<String, Participant>>,
    /// Set by the first recorded failure. Until then every participant is
    /// healthy, and successes and skip checks return without the lock.
    any_failure: AtomicBool,
    hooks: Mutex<Vec<QuarantineHook>>,
    telemetry: Mutex<Option<telemetry::Telemetry>>,
    recorder: OnceLock<telemetry::FlightRecorder>,
}

/// The failure detector. Cheap to clone; clones share state, so the ORB,
/// the OTS coordinator and the activity coordinator can all consult (and
/// feed) one detector.
#[derive(Clone)]
pub struct FailureDetector {
    inner: Arc<DetectorInner>,
}

impl std::fmt::Debug for FailureDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let participants = self.inner.participants.lock();
        f.debug_struct("FailureDetector")
            .field("config", &self.inner.config)
            .field("participants", &participants.len())
            .finish()
    }
}

impl FailureDetector {
    /// A detector with default thresholds, timing probes on `clock`.
    pub fn new(clock: SimClock) -> Self {
        Self::with_config(clock, DetectorConfig::default())
    }

    /// A detector with explicit thresholds.
    pub fn with_config(clock: SimClock, config: DetectorConfig) -> Self {
        let config = DetectorConfig {
            quarantine_after: config.quarantine_after.max(config.suspect_after).max(1),
            suspect_after: config.suspect_after.max(1),
            probe_interval: config.probe_interval,
        };
        FailureDetector {
            inner: Arc::new(DetectorInner {
                clock,
                config,
                participants: Mutex::new(HashMap::new()),
                any_failure: AtomicBool::new(false),
                hooks: Mutex::new(Vec::new()),
                telemetry: Mutex::new(None),
                recorder: OnceLock::new(),
            }),
        }
    }

    /// Count status transitions in the given recorder's metrics registry
    /// as `detector_transitions_total{from=...,to=...}` series.
    pub fn set_telemetry(&self, telemetry: telemetry::Telemetry) {
        *self.inner.telemetry.lock() = Some(telemetry);
    }

    /// Mirror every status transition into `recorder` (kind `detector`).
    /// Write-once so the hot path reads it with a single atomic load
    /// (no lock even when attached-but-disabled); later calls are ignored.
    pub fn set_recorder(&self, recorder: telemetry::FlightRecorder) {
        let _ = self.inner.recorder.set(recorder);
    }

    fn count_transition(&self, who: &str, was: HealthStatus, now: HealthStatus) {
        if was == now {
            return;
        }
        let telemetry = self.inner.telemetry.lock();
        if let Some(telemetry) = telemetry.as_ref().filter(|t| t.is_enabled()) {
            telemetry.metrics().incr(&format!(
                "detector_transitions_total{{from=\"{was}\",to=\"{now}\"}}"
            ));
        }
        drop(telemetry);
        if let Some(recorder) = self.inner.recorder.get() {
            recorder.record(telemetry::RecordKind::Detector, || {
                format!("{who}: {was} -> {now}")
            });
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.inner.config
    }

    /// Record a successful interaction: `who` is fully rehabilitated —
    /// suspicion resets to zero and the status returns to
    /// [`HealthStatus::Healthy`], whether the success was a routine call or
    /// a half-open probe.
    ///
    /// Successes against participants with no failure evidence are no-ops
    /// (an absent entry already means healthy with zero suspicion), so the
    /// fault-free fast path allocates nothing.
    pub fn record_success(&self, who: &str) {
        if !self.inner.any_failure.load(Ordering::Acquire) {
            return;
        }
        let was = {
            let mut participants = self.inner.participants.lock();
            match participants.get_mut(who) {
                Some(entry) => {
                    let was = entry.status;
                    *entry = Participant::new();
                    was
                }
                None => return,
            }
        };
        self.count_transition(who, was, HealthStatus::Healthy);
    }

    /// Record a failed interaction (timeout, partition, NACK). Consecutive
    /// failures climb monotonically; crossing `suspect_after` marks the
    /// participant suspect, crossing `quarantine_after` quarantines it and
    /// fires every [`FailureDetector::on_quarantine`] hook (outside the
    /// detector's lock). A failure while quarantined — a failed probe —
    /// pushes the next probe a full `probe_interval` out.
    pub fn record_failure(&self, who: &str) {
        let (was, now) = {
            let mut participants = self.inner.participants.lock();
            self.inner.any_failure.store(true, Ordering::Release);
            let entry = participants.entry(who.to_owned()).or_insert_with(Participant::new);
            entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
            let was = entry.status;
            entry.status = if entry.consecutive_failures >= self.inner.config.quarantine_after {
                HealthStatus::Quarantined
            } else if entry.consecutive_failures >= self.inner.config.suspect_after {
                HealthStatus::Suspect
            } else {
                HealthStatus::Healthy
            };
            if entry.status == HealthStatus::Quarantined {
                entry.next_probe_at = self.inner.clock.now() + self.inner.config.probe_interval;
            }
            (was, entry.status)
        };
        self.count_transition(who, was, now);
        let newly_quarantined = was != HealthStatus::Quarantined && now == HealthStatus::Quarantined;
        if newly_quarantined {
            let hooks: Vec<QuarantineHook> = self.inner.hooks.lock().clone();
            for hook in hooks {
                hook(who);
            }
        }
    }

    /// `who`'s current standing (unknown participants are healthy).
    pub fn status(&self, who: &str) -> HealthStatus {
        self.inner
            .participants
            .lock()
            .get(who)
            .map_or(HealthStatus::Healthy, |p| p.status)
    }

    /// `who`'s consecutive-failure count.
    pub fn suspicion(&self, who: &str) -> u32 {
        self.inner
            .participants
            .lock()
            .get(who)
            .map_or(0, |p| p.consecutive_failures)
    }

    /// Should a coordinator route around `who` right now?
    ///
    /// `false` for healthy and suspect participants. For a quarantined
    /// participant: `false` once per `probe_interval` of virtual time (the
    /// half-open probe — this call *claims* the probe slot and re-arms the
    /// timer), `true` otherwise.
    pub fn should_skip(&self, who: &str) -> bool {
        if !self.inner.any_failure.load(Ordering::Acquire) {
            return false;
        }
        let mut participants = self.inner.participants.lock();
        let Some(entry) = participants.get_mut(who) else { return false };
        if entry.status != HealthStatus::Quarantined {
            return false;
        }
        let now = self.inner.clock.now();
        if now >= entry.next_probe_at {
            // Half-open: let exactly this call through as a probe.
            entry.next_probe_at = now + self.inner.config.probe_interval;
            false
        } else {
            true
        }
    }

    /// Register a hook fired (synchronously, outside the detector lock) the
    /// moment a participant *enters* quarantine. Workflow and saga layers
    /// use this to reroute pending steps or schedule compensation instead of
    /// waiting out the activity deadline.
    pub fn on_quarantine(&self, hook: impl Fn(&str) + Send + Sync + 'static) {
        self.inner.hooks.lock().push(Arc::new(hook));
    }

    /// Every participant the detector has evidence about, sorted by name —
    /// a deterministic snapshot for diagnostics and property tests.
    pub fn known_participants(&self) -> Vec<(String, HealthStatus, u32)> {
        let participants = self.inner.participants.lock();
        let mut all: Vec<(String, HealthStatus, u32)> = participants
            .iter()
            .map(|(name, p)| (name.clone(), p.status, p.consecutive_failures))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Render the detector's standings for the introspection plane, one
    /// participant per line in name order.
    #[must_use]
    pub fn introspect(&self) -> String {
        let mut out = String::new();
        for (who, status, failures) in self.known_participants() {
            out.push_str(&format!("{who}: {status} (consecutive failures {failures})\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn detector(clock: &SimClock) -> FailureDetector {
        FailureDetector::with_config(
            clock.clone(),
            DetectorConfig {
                suspect_after: 2,
                quarantine_after: 3,
                probe_interval: Duration::from_millis(100),
            },
        )
    }

    #[test]
    fn failures_escalate_healthy_suspect_quarantined() {
        let clock = SimClock::new();
        let d = detector(&clock);
        assert_eq!(d.status("r1"), HealthStatus::Healthy);
        d.record_failure("r1");
        assert_eq!(d.status("r1"), HealthStatus::Healthy);
        d.record_failure("r1");
        assert_eq!(d.status("r1"), HealthStatus::Suspect);
        assert!(!d.should_skip("r1"), "suspicion is advisory");
        d.record_failure("r1");
        assert_eq!(d.status("r1"), HealthStatus::Quarantined);
        assert_eq!(d.suspicion("r1"), 3);
    }

    #[test]
    fn success_fully_rehabilitates() {
        let clock = SimClock::new();
        let d = detector(&clock);
        for _ in 0..5 {
            d.record_failure("r");
        }
        assert_eq!(d.status("r"), HealthStatus::Quarantined);
        d.record_success("r");
        assert_eq!(d.status("r"), HealthStatus::Healthy);
        assert_eq!(d.suspicion("r"), 0, "rehabilitation is total, not partial");
    }

    #[test]
    fn quarantine_skips_until_the_probe_window_opens() {
        let clock = SimClock::new();
        let d = detector(&clock);
        for _ in 0..3 {
            d.record_failure("r");
        }
        // Freshly quarantined: the first probe slot is one interval out.
        assert!(d.should_skip("r"));
        clock.advance(Duration::from_millis(100));
        assert!(!d.should_skip("r"), "probe window open: let one call through");
        assert!(d.should_skip("r"), "the probe slot was claimed; next call waits");
        clock.advance(Duration::from_millis(100));
        assert!(!d.should_skip("r"));
    }

    #[test]
    fn failed_probe_rearms_quarantine_successful_probe_clears_it() {
        let clock = SimClock::new();
        let d = detector(&clock);
        for _ in 0..3 {
            d.record_failure("r");
        }
        clock.advance(Duration::from_millis(100));
        assert!(!d.should_skip("r"));
        d.record_failure("r"); // the probe itself failed
        assert!(d.should_skip("r"), "failed probe re-arms the quarantine");
        clock.advance(Duration::from_millis(100));
        assert!(!d.should_skip("r"));
        d.record_success("r"); // probe answered
        assert_eq!(d.status("r"), HealthStatus::Healthy);
        assert!(!d.should_skip("r"));
    }

    #[test]
    fn quarantine_hook_fires_once_per_transition() {
        let clock = SimClock::new();
        let d = detector(&clock);
        let fired = Arc::new(AtomicU32::new(0));
        let fired2 = Arc::clone(&fired);
        d.on_quarantine(move |who| {
            assert_eq!(who, "flaky");
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        for _ in 0..5 {
            d.record_failure("flaky");
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1, "only the entering transition fires");
        d.record_success("flaky");
        for _ in 0..3 {
            d.record_failure("flaky");
        }
        assert_eq!(fired.load(Ordering::SeqCst), 2, "re-quarantine fires again");
    }

    #[test]
    fn participants_are_tracked_independently() {
        let clock = SimClock::new();
        let d = detector(&clock);
        for _ in 0..3 {
            d.record_failure("bad");
        }
        d.record_failure("wobbly");
        d.record_success("wobbly");
        d.record_success("good"); // no evidence: stays untracked (and healthy)
        assert_eq!(d.status("bad"), HealthStatus::Quarantined);
        assert_eq!(d.status("wobbly"), HealthStatus::Healthy);
        assert_eq!(d.status("good"), HealthStatus::Healthy);
        assert_eq!(d.status("unknown"), HealthStatus::Healthy);
        let known = d.known_participants();
        assert_eq!(known.len(), 2, "only participants with failure evidence are tracked");
        assert_eq!(known[0].0, "bad");
        assert_eq!(known[1], ("wobbly".to_owned(), HealthStatus::Healthy, 0));
    }

    #[test]
    fn clones_share_state() {
        let clock = SimClock::new();
        let d = detector(&clock);
        let d2 = d.clone();
        for _ in 0..3 {
            d.record_failure("r");
        }
        assert_eq!(d2.status("r"), HealthStatus::Quarantined);
    }
}
