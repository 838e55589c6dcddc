//! Span-tree reconstruction, well-formedness checking, canonical
//! fingerprinting and critical-path attribution.
//!
//! Oracle #7 in the harness asserts per seed that the tree is well-formed
//! (single root per trace, no orphans, parents open-before/close-after
//! children, no span left open), and the determinism oracle compares its
//! fingerprint across double runs.

use crate::span::{SpanId, SpanRecord, TraceId};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Duration;

/// One phase of an attributed critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseAttribution {
    pub phase: String,
    pub duration: Duration,
}

/// End-to-end commit latency attributed to protocol phases.
///
/// The phases form an **exact partition** of the root span's interval on
/// the virtual clock: gaps between consecutive direct children are named
/// phases too (decision forcing lives in the gap between `prepare` and
/// `phase2`), and child intervals are clamped to the cursor so overlap
/// can never double-count. [`CriticalPath::is_exact`] therefore holds by
/// construction for any well-formed tree — the sweep asserts it across
/// every seed.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Name of the root span the walk attributed.
    pub root: String,
    /// Root span duration (the end-to-end latency being explained).
    pub total: Duration,
    /// The exact partition, in virtual-time order.
    pub phases: Vec<PhaseAttribution>,
    /// Slowest child of the `prepare` span (participant vote), if any —
    /// an annotation outside the partition.
    pub slowest_vote: Option<(String, Duration)>,
    /// Number of retry-attempt spans anywhere under the root.
    pub retries: u64,
    /// Total duration of those retry-attempt spans.
    pub retry_time: Duration,
}

impl CriticalPath {
    /// Whether the phase durations sum exactly to the root duration.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.phases.iter().map(|p| p.duration).sum::<Duration>() == self.total
    }

    /// JSON rendering for the latency-attribution report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"root\": \"{}\", \"total_us\": {}, \"exact\": {}, \"phases\": [",
            self.root.replace('"', "\\\""),
            self.total.as_micros(),
            self.is_exact()
        );
        for (i, phase) in self.phases.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"phase\": \"{}\", \"us\": {}}}",
                phase.phase.replace('"', "\\\""),
                phase.duration.as_micros()
            );
        }
        out.push(']');
        if let Some((name, duration)) = &self.slowest_vote {
            let _ = write!(
                out,
                ", \"slowest_vote\": {{\"span\": \"{}\", \"us\": {}}}",
                name.replace('"', "\\\""),
                duration.as_micros()
            );
        }
        let _ = write!(
            out,
            ", \"retries\": {}, \"retry_us\": {}}}",
            self.retries,
            self.retry_time.as_micros()
        );
        out
    }
}

/// An immutable snapshot of every span a recorder has seen, in
/// allocation order.
#[derive(Debug, Clone)]
pub struct SpanTree {
    spans: Vec<SpanRecord>,
}

impl SpanTree {
    pub(crate) fn new(spans: Vec<SpanRecord>) -> SpanTree {
        SpanTree { spans }
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Distinct trace ids, in first-appearance order.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for span in &self.spans {
            if seen.insert(span.context.trace_id) {
                out.push(span.context.trace_id);
            }
        }
        out
    }

    /// Spans with no parent, in allocation order.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.context.parent.is_none())
            .collect()
    }

    /// Children of `parent`, in allocation order.
    pub fn children(&self, parent: SpanId) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.context.parent == Some(parent))
            .collect()
    }

    /// First span whose name matches, in allocation order.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Well-formedness check; an empty vector means the tree is sound.
    ///
    /// Invariants (oracle #7, tentpole §3): per trace id exactly one
    /// root; every parent id resolves within the same trace (no
    /// orphans); every span was closed; parents open before and close
    /// after each of their children.
    pub fn verify(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let by_id: HashMap<SpanId, &SpanRecord> =
            self.spans.iter().map(|s| (s.context.span_id, s)).collect();
        let mut roots_per_trace: HashMap<TraceId, Vec<&str>> = HashMap::new();
        for span in &self.spans {
            if span.end.is_none() {
                errors.push(format!("span '{}' was never closed", span.name));
            }
            match span.context.parent {
                None => roots_per_trace
                    .entry(span.context.trace_id)
                    .or_default()
                    .push(&span.name),
                Some(parent_id) => match by_id.get(&parent_id) {
                    None => errors.push(format!(
                        "span '{}' is an orphan: parent {} not in tree",
                        span.name, parent_id
                    )),
                    Some(parent) => {
                        if parent.context.trace_id != span.context.trace_id {
                            errors.push(format!(
                                "span '{}' crosses traces: parent '{}' has a different trace id",
                                span.name, parent.name
                            ));
                        }
                        if span.start < parent.start {
                            errors.push(format!(
                                "span '{}' opens before its parent '{}'",
                                span.name, parent.name
                            ));
                        }
                        if let (Some(child_end), Some(parent_end)) = (span.end, parent.end) {
                            if child_end > parent_end {
                                errors.push(format!(
                                    "span '{}' closes after its parent '{}'",
                                    span.name, parent.name
                                ));
                            }
                        }
                    }
                },
            }
        }
        for (trace, roots) in roots_per_trace {
            if roots.len() != 1 {
                errors.push(format!(
                    "trace {trace} has {} roots ({}), expected exactly one",
                    roots.len(),
                    roots.join(", ")
                ));
            }
        }
        errors.sort();
        errors
    }

    /// Canonical structural fingerprint: FNV-1a over a rendering that
    /// ignores raw id allocation order (children are sorted by their
    /// canonical form), so the same causal structure hashes identically
    /// even if ids were handed out in a different interleaving.
    pub fn fingerprint(&self) -> u64 {
        let mut children: HashMap<Option<SpanId>, Vec<&SpanRecord>> = HashMap::new();
        for span in &self.spans {
            children.entry(span.context.parent).or_default().push(span);
        }
        let mut roots: Vec<String> = children
            .get(&None)
            .map(|roots| roots.iter().map(|r| canonical(r, &children)).collect())
            .unwrap_or_default();
        roots.sort();
        roots.iter().fold(crate::FNV_OFFSET, |hash, canon| crate::fnv_fold(hash, canon.as_bytes()))
    }

    /// Fig. 8/10-style ASCII message-sequence chart; see
    /// [`crate::sequence::render_sequence`].
    pub fn render_sequence(&self) -> String {
        crate::sequence::render_sequence(self)
    }

    /// Attribute the root commit span's duration to protocol phases.
    ///
    /// The walk picks the first root named `commit:*` (falling back to
    /// the first root), orders its direct children by virtual start time,
    /// and sweeps a cursor across the root interval: time inside a child
    /// is that child's phase (`prepare` → `solicitation`, `phase2` →
    /// `phase2-fanout`, anything else keeps its span name), time between
    /// children is a named gap — before the first child `demarcation`
    /// (registration/before_completion work), between `prepare` and the
    /// next child `decision-force` (the forced decision write), after the
    /// last child `completion`. Child intervals are clamped to the cursor
    /// and the root end, so the phases partition the root exactly —
    /// [`CriticalPath::is_exact`] holds for every well-formed tree.
    ///
    /// Returns `None` when the tree has no roots.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        let roots = self.roots();
        let root = roots
            .iter()
            .find(|r| r.name.starts_with("commit:"))
            .or_else(|| roots.first())?;
        let root_start = root.start;
        let root_end = root.end.unwrap_or(root.start).max(root.start);
        let total = root_end - root_start;

        let mut kids = self.children(root.context.span_id);
        kids.sort_by_key(|k| k.start);

        let phase_name = |span: &SpanRecord| -> String {
            match span.name.as_str() {
                "prepare" => "solicitation".to_string(),
                "phase2" => "phase2-fanout".to_string(),
                other => other.to_string(),
            }
        };

        let mut phases = Vec::new();
        let mut cursor = root_start;
        let mut previous: Option<&SpanRecord> = None;
        for kid in &kids {
            let open = kid.start.clamp(cursor, root_end);
            let close = kid.end.unwrap_or(kid.start).clamp(open, root_end);
            let gap_name = match previous {
                None => "demarcation".to_string(),
                Some(prev) if prev.name == "prepare" => "decision-force".to_string(),
                Some(prev) => format!("after:{}", prev.name),
            };
            phases.push(PhaseAttribution { phase: gap_name, duration: open - cursor });
            phases.push(PhaseAttribution { phase: phase_name(kid), duration: close - open });
            cursor = close;
            previous = Some(kid);
        }
        phases.push(PhaseAttribution {
            phase: if previous.is_some() { "completion".to_string() } else { "self".to_string() },
            duration: root_end - cursor,
        });

        // Slowest vote: the longest child of the `prepare` span (ties go
        // to the earliest in allocation order, for determinism).
        let slowest_vote = kids
            .iter()
            .find(|k| k.name == "prepare")
            .map(|prepare| self.children(prepare.context.span_id))
            .and_then(|votes| {
                votes.iter().fold(None::<(String, Duration)>, |best, vote| {
                    let duration =
                        vote.end.unwrap_or(vote.start).saturating_sub(vote.start);
                    match best {
                        Some((_, d)) if d >= duration => best,
                        _ => Some((vote.name.clone(), duration)),
                    }
                })
            });

        // Retry accounting: every `attempt:*` span in the root's trace.
        let mut retries = 0u64;
        let mut retry_time = Duration::ZERO;
        for span in &self.spans {
            if span.context.trace_id == root.context.trace_id
                && span.name.starts_with("attempt:")
            {
                retries += 1;
                retry_time += span.end.unwrap_or(span.start).saturating_sub(span.start);
            }
        }

        Some(CriticalPath {
            root: root.name.clone(),
            total,
            phases,
            slowest_vote,
            retries,
            retry_time,
        })
    }
}

fn canonical(span: &SpanRecord, children: &HashMap<Option<SpanId>, Vec<&SpanRecord>>) -> String {
    let mut kids: Vec<String> = children
        .get(&Some(span.context.span_id))
        .map(|kids| kids.iter().map(|k| canonical(k, children)).collect())
        .unwrap_or_default();
    kids.sort();
    let attrs = span
        .attrs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",");
    let end = span.end.map(|e| e.as_nanos() as u64).unwrap_or(u64::MAX);
    format!(
        "{}[{attrs}]@{}..{end}({})",
        span.name,
        span.start.as_nanos() as u64,
        kids.join(";")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanContext;
    use std::time::Duration;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: u64,
        end: Option<u64>,
    ) -> SpanRecord {
        SpanRecord {
            context: SpanContext {
                trace_id: TraceId(1),
                span_id: SpanId(id),
                parent: parent.map(SpanId),
            },
            name: name.to_string(),
            start: Duration::from_nanos(start),
            end: end.map(Duration::from_nanos),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn sound_tree_verifies_clean() {
        let tree = SpanTree::new(vec![
            span(1, None, "root", 0, Some(10)),
            span(2, Some(1), "child", 1, Some(5)),
            span(3, Some(1), "child2", 5, Some(9)),
        ]);
        assert!(tree.verify().is_empty(), "{:?}", tree.verify());
    }

    #[test]
    fn violations_are_reported() {
        let tree = SpanTree::new(vec![
            span(1, None, "root", 5, Some(10)),
            span(2, Some(1), "early", 1, Some(6)),
            span(3, Some(1), "late", 6, Some(12)),
            span(4, Some(99), "orphan", 6, Some(7)),
            span(5, Some(1), "open", 6, None),
            span(6, None, "second-root", 0, Some(1)),
        ]);
        let errors = tree.verify();
        assert!(errors.iter().any(|e| e.contains("opens before")));
        assert!(errors.iter().any(|e| e.contains("closes after")));
        assert!(errors.iter().any(|e| e.contains("orphan")));
        assert!(errors.iter().any(|e| e.contains("never closed")));
        assert!(errors.iter().any(|e| e.contains("expected exactly one")));
    }

    #[test]
    fn fingerprint_ignores_id_allocation_order() {
        // Same structure, ids handed out in a different order: spans 2/3
        // swap ids but keep identical (name, start, end) shape.
        let a = SpanTree::new(vec![
            span(1, None, "root", 0, Some(10)),
            span(2, Some(1), "left", 1, Some(4)),
            span(3, Some(1), "right", 5, Some(9)),
        ]);
        let b = SpanTree::new(vec![
            span(7, None, "root", 0, Some(10)),
            span(9, Some(7), "right", 5, Some(9)),
            span(8, Some(7), "left", 1, Some(4)),
        ]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = SpanTree::new(vec![
            span(1, None, "root", 0, Some(10)),
            span(2, Some(1), "left", 1, Some(4)),
        ]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn critical_path_partitions_the_root_exactly() {
        // commit: 0..100; prepare 10..40 (votes 10..25, 25..40);
        // phase2 55..90. Gaps: demarcation 10, decision-force 15,
        // completion 10.
        let tree = SpanTree::new(vec![
            span(1, None, "commit:tx-1", 0, Some(100)),
            span(2, Some(1), "prepare", 10, Some(40)),
            span(3, Some(2), "vote:store", 10, Some(20)),
            span(4, Some(2), "vote:ledger", 25, Some(40)),
            span(5, Some(1), "phase2", 55, Some(90)),
        ]);
        let path = tree.critical_path().expect("has a root");
        assert_eq!(path.root, "commit:tx-1");
        assert_eq!(path.total, Duration::from_nanos(100));
        assert!(path.is_exact(), "{path:?}");
        let named: Vec<(&str, u64)> =
            path.phases.iter().map(|p| (p.phase.as_str(), p.duration.as_nanos() as u64)).collect();
        assert_eq!(
            named,
            vec![
                ("demarcation", 10),
                ("solicitation", 30),
                ("decision-force", 15),
                ("phase2-fanout", 35),
                ("completion", 10),
            ]
        );
        assert_eq!(
            path.slowest_vote,
            Some(("vote:ledger".to_string(), Duration::from_nanos(15)))
        );
        assert_eq!(path.retries, 0);
        let json = path.to_json();
        assert!(json.contains("\"exact\": true"), "{json}");
        assert!(json.contains("\"phase\": \"solicitation\""), "{json}");
    }

    #[test]
    fn critical_path_clamps_overlapping_children() {
        // Children overlap (phase2 opens before prepare closes): the
        // cursor clamp keeps the partition exact, no double counting.
        let tree = SpanTree::new(vec![
            span(1, None, "commit:tx-2", 0, Some(50)),
            span(2, Some(1), "prepare", 0, Some(30)),
            span(3, Some(1), "phase2", 20, Some(45)),
        ]);
        let path = tree.critical_path().expect("has a root");
        assert!(path.is_exact(), "{path:?}");
        let sum: Duration = path.phases.iter().map(|p| p.duration).sum();
        assert_eq!(sum, Duration::from_nanos(50));
    }

    #[test]
    fn critical_path_zero_duration_tree_is_exact() {
        // Scenario trees run on a never-advancing clock: everything is
        // zero-width and the partition is trivially exact.
        let tree = SpanTree::new(vec![
            span(1, None, "commit:tx-3", 0, Some(0)),
            span(2, Some(1), "prepare", 0, Some(0)),
            span(3, Some(1), "phase2", 0, Some(0)),
        ]);
        let path = tree.critical_path().expect("has a root");
        assert!(path.is_exact());
        assert_eq!(path.total, Duration::ZERO);
    }

    #[test]
    fn critical_path_counts_retry_attempts() {
        let tree = SpanTree::new(vec![
            span(1, None, "commit:tx-4", 0, Some(40)),
            span(2, Some(1), "prepare", 0, Some(20)),
            span(3, Some(2), "attempt:prepare", 0, Some(5)),
            span(4, Some(2), "attempt:prepare", 5, Some(20)),
        ]);
        let path = tree.critical_path().expect("has a root");
        assert_eq!(path.retries, 2);
        assert_eq!(path.retry_time, Duration::from_nanos(20));
    }

    #[test]
    fn critical_path_without_children_or_commit_root() {
        let tree = SpanTree::new(vec![span(1, None, "activity:billing", 3, Some(9))]);
        let path = tree.critical_path().expect("falls back to the first root");
        assert_eq!(path.root, "activity:billing");
        assert!(path.is_exact());
        assert_eq!(path.phases.len(), 1);
        assert_eq!(path.phases[0].phase, "self");
        assert_eq!(path.phases[0].duration, Duration::from_nanos(6));
        assert!(SpanTree::new(Vec::new()).critical_path().is_none());
    }
}
