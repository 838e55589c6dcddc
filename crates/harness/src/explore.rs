//! Exhaustive bounded-schedule exploration with dynamic partial-order
//! reduction (DPOR).
//!
//! Where [`crate::explorer`] *samples* the schedule space (seeded random
//! fault schedules), this module *enumerates* it: every interleaving of
//! ORB deliveries the coordinator can choose between, crossed with every
//! single-crash fault plan, up to a configurable execution/wall-clock
//! budget. Coverage claims ("no reachable execution at this depth
//! violates the spec") need enumeration, not sampling.
//!
//! # How an execution is named
//!
//! A scenario exposes its nondeterminism through the
//! [`orb::choice::DeliverySequencer`] hook: wherever the implementation
//! has more than one pending delivery to pick from, it asks the sequencer
//! which to deliver next. An execution is therefore named by a
//! **prescription** — a vector of choice indices, one per decision point,
//! with `0` (registration order) assumed past the prescribed prefix. The
//! explorer runs the empty prescription first, reads back which choice
//! points the run actually hit ([`ChoiceDriver::taken`]), and pushes one
//! child prescription per untaken alternative — a depth-first search that
//! visits each distinct schedule exactly once.
//!
//! # The reduction
//!
//! Most alternatives commute: delivering `prepare` to `a` before `b` or
//! `b` before `a` reaches the same state when both vote yes, because
//! clean deliveries to distinct participants in the same round are
//! independent. The scenario reports each delivery's disruptiveness
//! through [`orb::choice::DeliverySequencer::report`] (`clean = false`
//! for a veto, an error, a crashed call); the driver counts dirty
//! reports, and each choice point remembers the count at its creation.
//! After a run, a choice point whose suffix saw **no** dirty delivery had
//! only commuting alternatives — the whole subtree is pruned (sleep-set
//! style). A veto keeps every earlier choice point hot (who vetoes first
//! is order-dependent), while crash fault plans arm failpoints *between*
//! rounds and leave clean rounds prunable: recovery resolves every
//! in-doubt participant uniformly from the durable decision, so
//! intra-round order cannot matter. The honesty check on the reduction is
//! measured, not assumed: [`ExploreReport::distinct_fingerprints`] must
//! match between a reduced and an unreduced enumeration (see
//! `tests/model_check.rs`).
//!
//! Every enumerated execution is checked by all nine oracles — including
//! the refinement oracle replaying the run's journal through
//! [`crate::model`] — and any divergence is shrunk to a 1-minimal
//! [`ExploreSchedule`] by [`shrink_explored`].

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orb::choice::{clamp_choice, DeliverySequencer};
use parking_lot::Mutex;
use telemetry::{fnv_fold, FNV_OFFSET};

use crate::oracle::{self, Observation, Violation};
use crate::schedule::{FaultEvent, FaultSchedule};

/// A scenario the explorer can enumerate: runs hermetically under a fault
/// schedule and routes every delivery-order decision through the driver.
pub trait Explorable {
    /// Stable name for reports.
    fn name(&self) -> &str;
    /// One hermetic run. The scenario must install `driver` as the
    /// [`DeliverySequencer`] of every component with delivery choices and
    /// should journal model events into the observation so the refinement
    /// oracle binds.
    fn run_exploration(&self, faults: &FaultSchedule, driver: &Arc<ChoiceDriver>) -> Observation;
}

/// One decision point a run passed through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Protocol stage the choice arose in (`"prepare"`, `"phase2"`, ...).
    pub stage: String,
    /// Labels of the deliveries that were pending, registration order.
    pub pending: Vec<String>,
    /// How many alternatives existed (`pending.len()`).
    pub options: usize,
    /// The index actually taken.
    pub chosen: usize,
    /// The driver's dirty-delivery count when this point was created;
    /// compared against the final count for the DPOR pruning rule.
    pub dirty_at_creation: u64,
}

/// A [`DeliverySequencer`] that replays a prescription and records the
/// choice points it steers — the explorer's steering wheel and odometer
/// in one.
#[derive(Debug, Default)]
pub struct ChoiceDriver {
    prescribed: Vec<usize>,
    taken: Mutex<Vec<ChoicePoint>>,
    dirty: Mutex<u64>,
}

impl ChoiceDriver {
    /// A driver replaying `prescribed`, choosing index 0 (registration
    /// order) past its end.
    #[must_use]
    pub fn new(prescribed: Vec<usize>) -> Arc<Self> {
        Arc::new(ChoiceDriver { prescribed, taken: Mutex::new(Vec::new()), dirty: Mutex::new(0) })
    }

    /// The choice points the run hit, in order.
    #[must_use]
    pub fn taken(&self) -> Vec<ChoicePoint> {
        self.taken.lock().clone()
    }

    /// Total disruptive (non-clean) deliveries reported.
    #[must_use]
    pub fn total_dirty(&self) -> u64 {
        *self.dirty.lock()
    }
}

impl DeliverySequencer for ChoiceDriver {
    fn next_delivery(&self, stage: &str, pending: &[&str]) -> usize {
        let mut taken = self.taken.lock();
        let chosen =
            clamp_choice(self.prescribed.get(taken.len()).copied().unwrap_or(0), pending.len());
        taken.push(ChoicePoint {
            stage: stage.to_owned(),
            pending: pending.iter().map(|p| (*p).to_owned()).collect(),
            options: pending.len(),
            chosen,
            dirty_at_creation: *self.dirty.lock(),
        });
        chosen
    }

    fn report(&self, _stage: &str, _peer: &str, clean: bool) {
        if !clean {
            *self.dirty.lock() += 1;
        }
    }
}

/// One fully-named execution: the fault plan plus the delivery-order
/// prescription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreSchedule {
    /// Faults armed for the run.
    pub faults: FaultSchedule,
    /// Delivery-choice prescription (index 0 past its end).
    pub choices: Vec<usize>,
}

impl std::fmt::Display for ExploreSchedule {
    /// Copy-pasteable: the fault constructor plus the choice vector.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExploreSchedule {{ faults: {}, choices: vec!{:?} }}", self.faults, self.choices)
    }
}

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Crash failpoints armed per fault plan (0 = fault-free only,
    /// 1 = one plan per discovered site).
    pub max_crashes: u32,
    /// Whether the partial-order reduction prunes commuting subtrees.
    pub dpor: bool,
    /// Hard ceiling on enumerated executions; exceeding it sets
    /// [`ExploreReport::truncated`].
    pub max_executions: u64,
    /// Wall-clock budget; exceeding it sets [`ExploreReport::truncated`].
    pub budget: Option<Duration>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { max_crashes: 1, dpor: true, max_executions: 20_000, budget: None }
    }
}

/// One oracle divergence with its minimized reproducer.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Scenario that diverged.
    pub scenario: String,
    /// The execution as enumerated.
    pub schedule: ExploreSchedule,
    /// The 1-minimal execution still reproducing a violation.
    pub minimized: ExploreSchedule,
    /// Violations the original execution produced.
    pub violations: Vec<Violation>,
    /// The flight recorder's dump from a run of the minimized execution
    /// (`None` when the scenario attaches no recorder).
    pub recorder_dump: Option<String>,
}

impl Divergence {
    /// A copy-pasteable reproducer, with the minimized execution's flight
    /// recorder appended as comment lines when one was attached.
    #[must_use]
    pub fn repro(&self) -> String {
        let oracles: Vec<&str> = self.violations.iter().map(|v| v.oracle).collect();
        let mut out = format!(
            "// scenario: {} | violated: {:?}\n\
             // minimal execution ({} fault event(s), {} prescribed choice(s)):\n\
             let schedule = {};\n\
             let driver = harness::explore::ChoiceDriver::new(schedule.choices.clone());\n\
             let violations = harness::oracle::check_all(&scenario.run_exploration(&schedule.faults, &driver));\n\
             assert!(violations.is_empty(), \"{{violations:?}}\");\n",
            self.scenario,
            oracles,
            self.minimized.faults.len(),
            self.minimized.choices.len(),
            self.minimized,
        );
        if let Some(dump) = &self.recorder_dump {
            out.push_str("//\n// flight recorder at failure:\n");
            for line in dump.lines() {
                out.push_str("//   ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// What an exploration covered and found.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Scenario explored.
    pub scenario: String,
    /// Executions actually run.
    pub executions: u64,
    /// Subtrees the reduction pruned (choice points whose alternatives
    /// all commuted).
    pub pruned_subtrees: u64,
    /// Distinct observation fingerprints across all executions — the
    /// state-coverage measure a reduced run must preserve.
    pub distinct_fingerprints: usize,
    /// Most choice points any single execution hit (the depth bound
    /// actually reached).
    pub max_choice_points: usize,
    /// Fault plans enumerated (fault-free probe plan included).
    pub fault_plans: usize,
    /// Oracle divergences, each with a minimized reproducer.
    pub divergences: Vec<Divergence>,
    /// Whether a budget cut enumeration short — coverage claims are void.
    pub truncated: bool,
}

fn fingerprint(obs: &Observation) -> u64 {
    let mut hash = FNV_OFFSET;
    hash = fnv_fold(hash, obs.trace.as_bytes());
    hash = fnv_fold(hash, &[obs.outcome as u8]);
    for (name, committed) in &obs.participant_commits {
        hash = fnv_fold(hash, name.as_bytes());
        hash = fnv_fold(hash, &[u8::from(*committed)]);
    }
    if let Some(events) = &obs.model_events {
        hash = fnv_fold(hash, format!("{events:?}").as_bytes());
    }
    hash
}

/// Enumerate every execution of `scenario` within `config`'s bounds,
/// oracle-checking each one.
pub fn explore(scenario: &dyn Explorable, config: &ExploreConfig) -> ExploreReport {
    let started = Instant::now();
    let mut report = ExploreReport { scenario: scenario.name().to_owned(), ..Default::default() };

    // Probe: discover the failpoint sites the fault plans enumerate over.
    let probe_driver = ChoiceDriver::new(Vec::new());
    let probe = scenario.run_exploration(&FaultSchedule::empty(), &probe_driver);
    let mut sites = probe.observed_sites.clone();
    sites.sort();
    sites.dedup();

    let mut plans = vec![FaultSchedule::empty()];
    if config.max_crashes >= 1 {
        for site in &sites {
            plans.push(FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
                site: site.clone(),
                after: 0,
            }]));
        }
    }
    report.fault_plans = plans.len();

    let mut fingerprints = BTreeSet::new();
    'plans: for faults in &plans {
        // Depth-first over prescriptions, starting from the default path.
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(prescription) = stack.pop() {
            let over_budget =
                config.budget.is_some_and(|budget| started.elapsed() >= budget);
            if report.executions >= config.max_executions || over_budget {
                report.truncated = true;
                break 'plans;
            }

            let driver = ChoiceDriver::new(prescription.clone());
            let obs = scenario.run_exploration(faults, &driver);
            report.executions += 1;
            fingerprints.insert(fingerprint(&obs));

            let violations = oracle::check_all(&obs);
            if !violations.is_empty() {
                let schedule =
                    ExploreSchedule { faults: faults.clone(), choices: prescription.clone() };
                let minimized = shrink_explored(scenario, &schedule);
                // One more run of the minimized execution captures the
                // black box that matches the shipped reproducer.
                let minimized_driver = ChoiceDriver::new(minimized.choices.clone());
                let recorder_dump =
                    scenario.run_exploration(&minimized.faults, &minimized_driver).recorder_dump;
                report.divergences.push(Divergence {
                    scenario: scenario.name().to_owned(),
                    schedule,
                    minimized,
                    violations,
                    recorder_dump,
                });
            }

            let taken = driver.taken();
            let total_dirty = driver.total_dirty();
            report.max_choice_points = report.max_choice_points.max(taken.len());

            // Branch on every choice point past the prescribed prefix: the
            // prefix was fixed by an ancestor, so re-branching it would
            // enumerate paths twice.
            for (index, point) in taken.iter().enumerate().skip(prescription.len()) {
                if point.options <= 1 {
                    continue;
                }
                if config.dpor && total_dirty == point.dirty_at_creation {
                    // No disruptive delivery at or after this point: every
                    // alternative commutes with the chosen order.
                    report.pruned_subtrees += 1;
                    continue;
                }
                for alt in 1..point.options {
                    let mut child: Vec<usize> =
                        taken[..index].iter().map(|p| p.chosen).collect();
                    child.push(alt);
                    stack.push(child);
                }
            }
        }
    }
    report.distinct_fingerprints = fingerprints.len();
    report
}

fn still_diverges(scenario: &dyn Explorable, candidate: &ExploreSchedule) -> bool {
    let driver = ChoiceDriver::new(candidate.choices.clone());
    let obs = scenario.run_exploration(&candidate.faults, &driver);
    !oracle::check_all(&obs).is_empty()
}

/// Greedy delta-debugging over an explored execution: drop fault events,
/// truncate trailing choices and decrement individual choices while a
/// violation still reproduces. The result is 1-minimal — no single
/// remaining step can be removed or lowered.
pub fn shrink_explored(scenario: &dyn Explorable, schedule: &ExploreSchedule) -> ExploreSchedule {
    let mut current = schedule.clone();
    'outer: loop {
        for index in 0..current.faults.len() {
            let candidate = ExploreSchedule {
                faults: current.faults.without_event(index),
                choices: current.choices.clone(),
            };
            if still_diverges(scenario, &candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        if !current.choices.is_empty() {
            let candidate = ExploreSchedule {
                faults: current.faults.clone(),
                choices: current.choices[..current.choices.len() - 1].to_vec(),
            };
            if still_diverges(scenario, &candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        for index in 0..current.choices.len() {
            if current.choices[index] == 0 {
                continue;
            }
            let mut choices = current.choices.clone();
            choices[index] -= 1;
            let candidate = ExploreSchedule { faults: current.faults.clone(), choices };
            if still_diverges(scenario, &candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::RunOutcome;

    /// A synthetic scenario with two rounds of three pending deliveries.
    /// It journals nothing and violates an oracle only when the first
    /// round delivers "c" first — a planted order-dependence the explorer
    /// must find and the shrinker must reduce to `choices: [2]`.
    struct OrderSensitive;

    impl Explorable for OrderSensitive {
        fn name(&self) -> &str {
            "order-sensitive"
        }

        fn run_exploration(
            &self,
            _faults: &FaultSchedule,
            driver: &Arc<ChoiceDriver>,
        ) -> Observation {
            let mut first_delivered = None;
            for round in ["prepare", "phase2"] {
                let mut pending = vec!["a", "b", "c"];
                while !pending.is_empty() {
                    let pick = if pending.len() > 1 {
                        driver.next_delivery(round, &pending)
                    } else {
                        0
                    };
                    let peer = pending.remove(pick);
                    // "c" is the disruptive peer: its delivery is dirty,
                    // so orders around it stay hot under DPOR.
                    driver.report(round, peer, peer != "c");
                    if round == "prepare" && first_delivered.is_none() {
                        first_delivered = Some(peer);
                    }
                }
            }
            let mut obs = Observation::new(RunOutcome::Committed);
            obs.trace = format!("first={first_delivered:?}");
            if first_delivered == Some("c") {
                // Planted: delivering c first loses a participant.
                obs.participant_commits = vec![("a".into(), false)];
            }
            obs
        }
    }

    #[test]
    fn exhaustive_enumeration_visits_every_interleaving() {
        // Two rounds of 3 pending deliveries: 6 orders each, but DFS
        // branches only where choices exist (3 * 2 per round) = 36 paths.
        let config = ExploreConfig { max_crashes: 0, dpor: false, ..Default::default() };
        let report = explore(&OrderSensitive, &config);
        assert_eq!(report.executions, 36);
        assert!(!report.truncated);
        assert_eq!(report.max_choice_points, 4);
    }

    #[test]
    fn the_planted_order_dependence_is_found_and_shrunk_to_one_choice() {
        let config = ExploreConfig { max_crashes: 0, dpor: false, ..Default::default() };
        let report = explore(&OrderSensitive, &config);
        // 12 of 36 paths deliver c first (choices starting [2] or [1,1]).
        assert_eq!(report.divergences.len(), 12);
        for divergence in &report.divergences {
            assert!(divergence.minimized.faults.is_empty());
            assert_eq!(divergence.minimized.choices, vec![2], "{divergence:?}");
        }
    }

    #[test]
    fn dpor_reduces_without_losing_states_or_the_divergence() {
        // Once "c" (the only dirty delivery of a round) is out, the
        // remaining a/b orders commute — DPOR prunes those suffixes but
        // must preserve every distinct state and still hit the planted
        // divergence.
        let full = explore(&OrderSensitive, &ExploreConfig {
            max_crashes: 0,
            dpor: false,
            ..Default::default()
        });
        let reduced = explore(&OrderSensitive, &ExploreConfig {
            max_crashes: 0,
            dpor: true,
            ..Default::default()
        });
        assert!(reduced.executions < full.executions, "{reduced:?}");
        assert!(reduced.pruned_subtrees > 0);
        assert_eq!(reduced.distinct_fingerprints, full.distinct_fingerprints);
        assert!(!reduced.divergences.is_empty());
        assert_eq!(reduced.divergences[0].minimized.choices, vec![2]);
    }

    /// All-clean variant: every delivery commutes, so DPOR collapses the
    /// whole space to the default path.
    struct AllClean;

    impl Explorable for AllClean {
        fn name(&self) -> &str {
            "all-clean"
        }

        fn run_exploration(
            &self,
            _faults: &FaultSchedule,
            driver: &Arc<ChoiceDriver>,
        ) -> Observation {
            let mut pending = vec!["a", "b", "c"];
            while !pending.is_empty() {
                let pick = if pending.len() > 1 {
                    driver.next_delivery("prepare", &pending)
                } else {
                    0
                };
                let peer = pending.remove(pick);
                driver.report("prepare", peer, true);
            }
            Observation::new(RunOutcome::Committed)
        }
    }

    #[test]
    fn a_fully_commuting_round_collapses_to_one_execution_under_dpor() {
        let reduced = explore(&AllClean, &ExploreConfig {
            max_crashes: 0,
            dpor: true,
            ..Default::default()
        });
        assert_eq!(reduced.executions, 1);
        assert_eq!(reduced.pruned_subtrees, 2);
        let full = explore(&AllClean, &ExploreConfig {
            max_crashes: 0,
            dpor: false,
            ..Default::default()
        });
        assert_eq!(full.executions, 6);
        // The reduction must not lose states: one distinct fingerprint
        // either way.
        assert_eq!(reduced.distinct_fingerprints, full.distinct_fingerprints);
    }

    #[test]
    fn the_execution_ceiling_truncates_and_says_so() {
        let config =
            ExploreConfig { max_crashes: 0, dpor: false, max_executions: 5, budget: None };
        let report = explore(&OrderSensitive, &config);
        assert!(report.truncated);
        assert_eq!(report.executions, 5);
    }

    #[test]
    fn a_zero_wall_clock_budget_truncates_immediately() {
        let config = ExploreConfig {
            max_crashes: 0,
            dpor: false,
            max_executions: u64::MAX,
            budget: Some(Duration::from_secs(0)),
        };
        let report = explore(&OrderSensitive, &config);
        assert!(report.truncated);
    }
}
