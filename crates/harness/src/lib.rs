//! Deterministic simulation harness for the CORBA Activity Service
//! reproduction — a FoundationDB-style chaos explorer over the repo's
//! extended-transaction workloads.
//!
//! The paper's §3.4 makes hard guarantees — at-least-once Signal delivery,
//! exactly-once via the transaction service, presumed-abort recovery,
//! compensation on failure. This crate *hunts* for executions that break
//! them:
//!
//! * [`schedule`] — seeds map deterministically to small, discrete
//!   [`schedule::FaultSchedule`]s: arm a named failpoint
//!   ([`recovery_log::FailpointSet`]), drop or duplicate the n-th remote
//!   message ([`orb::FaultScript`]), partition a node over a virtual-time
//!   window, or crash-and-restart a site through its recovery path.
//!   Discrete events (not fault *rates*) make every run replayable and
//!   every schedule shrinkable.
//! * [`scenario`] + [`scenarios`] — hermetic end-to-end adapters, one per
//!   figure-test: 2PC with WAL replay, fig. 9 open nesting, Sagas, the
//!   fig. 10 workflow over the simulated ORB, BTP atoms, plus an
//!   intentionally broken fixture the sweep must catch.
//! * [`oracle`] — twelve invariants checked after every run: atomicity,
//!   exactly-once effect counts, reverse-order compensation completeness,
//!   WAL-replay equivalence, trace determinism (same seed ⇒ byte-identical
//!   trace), liveness under bounded transient faults (drops within the
//!   retry budget must not prevent commit), telemetry conformance (the
//!   span tree is well-formed), durability (acked LSNs survive crashes),
//!   refinement (the run's journal replays cleanly through the
//!   executable reference models), and eventual resolution (once faults
//!   cease and partitions heal no participant stays in-doubt, and
//!   heuristics are recorded only for genuinely hazarded histories), and
//!   recorder consistency (fingerprints replay bit-identically and
//!   critical-path attribution partitions the commit span exactly), and
//!   causal consistency (the merged
//!   happens-before DAG over every node's Lamport-stamped log is acyclic,
//!   receive-after-send on every wire edge, and protocol-ordered — no
//!   outcome before its decision, no vote after it, no completion before
//!   phase two landed).
//! * [`model`] — executable reference models transcribed from the paper:
//!   presumed-abort 2PC, fig. 4 nesting, fig. 5 checked signal sets, §5.1
//!   saga compensation. Pure `step(state, event)` machines the refinement
//!   oracle replays observed journals through.
//! * [`explorer`] — the sweep loop: probe the schedule space (failpoint
//!   sites are *discovered* from the run, not hardcoded), generate seeded
//!   schedules, run each twice, oracle-check, and greedily shrink any
//!   violation to a 1-minimal reproducer printed as a copy-pasteable test.
//! * [`explore`] — the exhaustive counterpart: enumerate *every* delivery
//!   interleaving × single-crash fault plan up to a bounded depth, with
//!   dynamic partial-order reduction pruning commuting subtrees, and
//!   shrink any divergence to a 1-minimal execution.
//! * [`registry`] — the workspace failpoint-site audit: probe runs must
//!   observe exactly the sites each crate's `failpoints` constants
//!   declare.

pub mod explore;
pub mod explorer;
pub mod model;
pub mod oracle;
pub mod registry;
pub mod scenario;
pub mod scenarios;
pub mod schedule;

pub use explore::{
    explore, shrink_explored, ChoiceDriver, ChoicePoint, Divergence, Explorable, ExploreConfig,
    ExploreReport, ExploreSchedule,
};
pub use explorer::{shrink, sweep, FailureReport, SweepConfig, SweepReport};
pub use model::{replay_all, Event as ModelEvent, SpecViolation};
pub use oracle::{check_all, check_determinism, EffectCount, Observation, RunOutcome, Violation};
pub use scenario::Scenario;
pub use schedule::{generate, FaultEvent, FaultSchedule, ScheduleSpace};
