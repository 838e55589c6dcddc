//! The chaos explorer: sweep seeds into fault schedules, run every
//! schedule twice (the determinism oracle compares the runs), check the
//! invariant oracles, and shrink any violating schedule to a minimal
//! reproducer.

use telemetry::{fnv_fold, FNV_OFFSET};

use crate::oracle::{self, Observation, Violation};
use crate::scenario::Scenario;
use crate::schedule::{self, FaultSchedule, ScheduleSpace};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// First seed; schedules use `seed_start..seed_start + schedules`.
    pub seed_start: u64,
    /// Number of seeded schedules to run.
    pub schedules: u64,
    /// Largest number of fault events per schedule.
    pub max_events: usize,
    /// Whether violating schedules are shrunk to minimal reproducers.
    pub shrink: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { seed_start: 0x5eed, schedules: 40, max_events: 4, shrink: true }
    }
}

/// One oracle violation with its (minimized) reproducer.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Scenario that failed.
    pub scenario: String,
    /// Seed whose schedule violated an oracle (`None` for the fault-free
    /// probe run).
    pub seed: Option<u64>,
    /// The schedule as generated.
    pub schedule: FaultSchedule,
    /// The schedule after shrinking (equals `schedule` when shrinking is
    /// disabled).
    pub minimized: FaultSchedule,
    /// Violations the original schedule produced.
    pub violations: Vec<Violation>,
    /// The flight recorder's dump from a run of the *minimized* schedule
    /// (`None` when the scenario attaches no recorder) — the black box
    /// that ships with the reproducer.
    pub recorder_dump: Option<String>,
    /// The merged happens-before DAG of the *minimized* schedule exported
    /// as Perfetto/Chrome-trace JSON (`None` when the scenario builds no
    /// causal merge) — load it in `ui.perfetto.dev` to see the failing
    /// interleaving, one track per node, flow arrows per message.
    pub causal_trace: Option<String>,
}

impl FailureReport {
    /// A copy-pasteable reproducer: seed, minimized schedule and the
    /// violated oracles, formatted as a Rust test body. When the scenario
    /// attaches a flight recorder, its dump from the minimized schedule is
    /// appended as comment lines.
    pub fn repro(&self) -> String {
        let oracles: Vec<&str> = self.violations.iter().map(|v| v.oracle).collect();
        let seed = self
            .seed
            .map_or_else(|| "probe (fault-free)".to_owned(), |s| format!("{s}"));
        let mut out = format!(
            "// scenario: {} | seed: {} | violated: {:?}\n\
             // minimal reproducer ({} fault events):\n\
             let schedule = {};\n\
             let violations = harness::oracle::check_all(&scenario.run(&schedule));\n\
             assert!(violations.is_empty(), \"{{violations:?}}\");\n",
            self.scenario,
            seed,
            oracles,
            self.minimized.len(),
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
        if let Some(trace) = &self.causal_trace {
            out.push_str(&format!(
                "//\n// causal Perfetto trace attached ({} bytes) — write it to a\n\
                 // .json file and open in ui.perfetto.dev\n",
                trace.len()
            ));
        }
        out
    }

    /// Write the attached Perfetto trace to
    /// `{dir}/{scenario}-{seed}.perfetto.json` and return the path, or
    /// `None` when no causal trace was captured.
    pub fn write_causal_trace(&self, dir: &std::path::Path) -> Option<std::path::PathBuf> {
        let trace = self.causal_trace.as_ref()?;
        let seed = self.seed.map_or_else(|| "probe".to_owned(), |s| format!("{s}"));
        let path = dir.join(format!("{}-{seed}.perfetto.json", self.scenario));
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, trace).ok()?;
        Some(path)
    }
}

/// Everything one sweep produced.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Scenario swept.
    pub scenario: String,
    /// Schedules executed (excluding the probe and shrink re-runs).
    pub schedules_run: u64,
    /// Order-sensitive digest of every run's observable facts; two sweeps
    /// of the same scenario and config must produce identical
    /// fingerprints.
    pub fingerprint: u64,
    /// Oracle violations found, with minimal reproducers.
    pub failures: Vec<FailureReport>,
}

fn fingerprint_run(hash: u64, seed: u64, obs: &Observation, violations: usize) -> u64 {
    let mut hash = fnv_fold(hash, &seed.to_le_bytes());
    hash = fnv_fold(hash, &[obs.outcome as u8, violations as u8]);
    hash = fnv_fold(hash, obs.trace.as_bytes());
    for (name, committed) in &obs.participant_commits {
        hash = fnv_fold(hash, name.as_bytes());
        hash = fnv_fold(hash, &[u8::from(*committed)]);
    }
    for effect in &obs.effects {
        hash = fnv_fold(hash, effect.action.as_bytes());
        hash = fnv_fold(hash, &effect.observed.to_le_bytes());
    }
    if let Some(recorder) = obs.recorder_fingerprint {
        hash = fnv_fold(hash, &recorder.to_le_bytes());
    }
    if let Some(causal) = obs.causal_fingerprint {
        hash = fnv_fold(hash, &causal.to_le_bytes());
    }
    hash
}

fn violations_for(scenario: &dyn Scenario, schedule: &FaultSchedule) -> Vec<Violation> {
    let first = scenario.run(schedule);
    let second = scenario.run(schedule);
    let mut violations = oracle::check_all(&first);
    violations.extend(oracle::check_determinism(&first, &second));
    violations
}

/// Greedy delta-debugging: repeatedly drop single events while the
/// schedule still violates an oracle. The result is 1-minimal — removing
/// any one remaining event makes the failure vanish.
pub fn shrink(scenario: &dyn Scenario, schedule: &FaultSchedule) -> FaultSchedule {
    let mut current = schedule.clone();
    'outer: loop {
        for index in 0..current.len() {
            let candidate = current.without_event(index);
            if !violations_for(scenario, &candidate).is_empty() {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// Sweep `scenario` under `config`: probe the schedule space, then run
/// every seeded schedule twice and oracle-check it.
pub fn sweep(scenario: &dyn Scenario, config: &SweepConfig) -> SweepReport {
    let probe = scenario.run(&FaultSchedule::empty());
    let mut fingerprint = FNV_OFFSET;
    let mut failures = Vec::new();

    let probe_violations = oracle::check_all(&probe);
    fingerprint = fingerprint_run(fingerprint, u64::MAX, &probe, probe_violations.len());
    if !probe_violations.is_empty() {
        failures.push(FailureReport {
            scenario: scenario.name().to_owned(),
            seed: None,
            schedule: FaultSchedule::empty(),
            minimized: FaultSchedule::empty(),
            violations: probe_violations,
            recorder_dump: probe.recorder_dump.clone(),
            causal_trace: probe.causal_perfetto.clone(),
        });
    }

    let space = ScheduleSpace {
        sites: probe.observed_sites.clone(),
        remote_messages: probe.remote_messages,
        max_events: config.max_events,
        partition_nodes: probe.partition_nodes.clone(),
        restart_sites: probe.restart_sites.clone(),
    };
    for offset in 0..config.schedules {
        let seed = config.seed_start + offset;
        let sched = schedule::generate(seed, &space);
        let first = scenario.run(&sched);
        let second = scenario.run(&sched);
        let mut violations = oracle::check_all(&first);
        violations.extend(oracle::check_determinism(&first, &second));
        fingerprint = fingerprint_run(fingerprint, seed, &first, violations.len());
        if !violations.is_empty() {
            let minimized =
                if config.shrink { shrink(scenario, &sched) } else { sched.clone() };
            // One extra run of the minimized schedule captures the black
            // box and the causal trace that match the reproducer the
            // report ships.
            let rerun = scenario.run(&minimized);
            failures.push(FailureReport {
                scenario: scenario.name().to_owned(),
                seed: Some(seed),
                schedule: sched,
                minimized,
                violations,
                recorder_dump: rerun.recorder_dump,
                causal_trace: rerun.causal_perfetto,
            });
        }
    }

    // When HARNESS_TRACE_DIR is set (CI does this), every failure's causal
    // Perfetto trace is written out as an artifact next to the repro.
    if let Ok(dir) = std::env::var("HARNESS_TRACE_DIR") {
        for failure in &failures {
            failure.write_causal_trace(std::path::Path::new(&dir));
        }
    }

    SweepReport {
        scenario: scenario.name().to_owned(),
        schedules_run: config.schedules,
        fingerprint,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{EffectCount, RunOutcome};
    use crate::schedule::FaultEvent;

    /// A synthetic scenario violating exactly-once whenever the schedule
    /// contains `DuplicateMessage { nth: 1 }` — any other event is noise
    /// the shrinker must strip.
    struct Synthetic;

    impl Scenario for Synthetic {
        fn name(&self) -> &'static str {
            "synthetic"
        }

        fn run(&self, schedule: &FaultSchedule) -> Observation {
            let buggy = schedule
                .events()
                .iter()
                .any(|e| matches!(e, FaultEvent::DuplicateMessage { nth: 1 }));
            let mut obs = Observation::new(RunOutcome::Committed);
            obs.effects = vec![EffectCount {
                action: "effect".into(),
                observed: if buggy { 2 } else { 1 },
                min: 1,
                max: 1,
            }];
            obs.trace = format!("buggy={buggy}\n");
            obs.observed_sites = vec!["syn.site".into()];
            obs.remote_messages = 2;
            obs
        }
    }

    #[test]
    fn shrink_strips_noise_events() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent::DropMessage { nth: 0 },
            FaultEvent::ArmFailpoint { site: "syn.site".into(), after: 1 },
            FaultEvent::DuplicateMessage { nth: 1 },
            FaultEvent::DropMessage { nth: 3 },
        ]);
        let minimal = shrink(&Synthetic, &schedule);
        assert_eq!(minimal.events(), &[FaultEvent::DuplicateMessage { nth: 1 }]);
    }

    #[test]
    fn sweep_finds_and_minimizes_the_planted_bug() {
        let config = SweepConfig { seed_start: 0, schedules: 60, ..SweepConfig::default() };
        let report = sweep(&Synthetic, &config);
        assert_eq!(report.schedules_run, 60);
        assert!(!report.failures.is_empty(), "some seed must draw the buggy event");
        for failure in &report.failures {
            assert_eq!(failure.minimized.len(), 1);
            assert!(failure.repro().contains("seed"));
            assert!(failure.repro().contains("DuplicateMessage { nth: 1 }"));
        }
    }

    #[test]
    fn sweeps_are_reproducible() {
        let config = SweepConfig::default();
        let a = sweep(&Synthetic, &config);
        let b = sweep(&Synthetic, &config);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
