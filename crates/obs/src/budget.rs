//! A self-time budget of a parsed trace: where the time inside the root
//! spans went, per span name.
//!
//! A span's *self time* is its duration less the durations of its direct
//! children, so the self times of every span under the roots add up to the
//! roots' time, and each name's share of it says which layer or phase is
//! slow. `trace_dump` prints the budget after its default listing.

use crate::export::ParsedEvent;
use crate::trace::EventKind;
use std::collections::BTreeMap;

/// One span name's line of a [`Budget`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetRow {
    /// The span name.
    pub name: String,
    /// Spans of this name that closed.
    pub count: u64,
    /// Their durations, summed, in microseconds.
    pub total_us: u64,
    /// Their self times, summed, in microseconds.
    pub self_us: u64,
}

/// The self-time budget of a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// One row per span name, largest self time first.
    pub rows: Vec<BudgetRow>,
    /// The summed duration of the closed root spans, in microseconds.
    pub root_us: u64,
}

impl Budget {
    /// The self-time budget of `events`. A span that never closed counts
    /// nowhere, nor in its parent's children.
    pub fn of(events: &[ParsedEvent]) -> Budget {
        // Per span id: name, parent, open time, duration once closed, and
        // the summed durations of its closed children.
        struct Seen<'a> {
            name: &'a str,
            parent: u64,
            open_us: u64,
            duration: Option<u64>,
            children_us: u64,
        }
        let mut spans: BTreeMap<u64, Seen<'_>> = BTreeMap::new();
        for e in events {
            match e.kind {
                EventKind::Open => {
                    let seen = Seen {
                        name: &e.name,
                        parent: e.parent,
                        open_us: e.at_us,
                        duration: None,
                        children_us: 0,
                    };
                    spans.insert(e.span, seen);
                }
                EventKind::Close => {
                    let Some(seen) = spans.get_mut(&e.span) else { continue };
                    let duration = e.at_us.saturating_sub(seen.open_us);
                    seen.duration = Some(duration);
                    let parent = seen.parent;
                    if let Some(parent) = spans.get_mut(&parent) {
                        parent.children_us += duration;
                    }
                }
                EventKind::Instant => {}
            }
        }
        let mut budget = Budget::default();
        let mut rows: BTreeMap<&str, BudgetRow> = BTreeMap::new();
        for seen in spans.values() {
            let Some(duration) = seen.duration else { continue };
            if seen.parent == 0 {
                budget.root_us += duration;
            }
            let row = rows.entry(seen.name).or_insert_with(|| BudgetRow {
                name: seen.name.to_string(),
                count: 0,
                total_us: 0,
                self_us: 0,
            });
            row.count += 1;
            row.total_us += duration;
            row.self_us += duration.saturating_sub(seen.children_us);
        }
        budget.rows = rows.into_values().collect();
        budget.rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
        budget
    }

    /// A row's self time as a share of the root spans' time (0 when no root
    /// span closed).
    pub fn share(&self, row: &BudgetRow) -> f64 {
        if self.root_us == 0 {
            0.0
        } else {
            row.self_us as f64 / self.root_us as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::parse_text;

    #[test]
    fn self_time_is_duration_less_direct_children() {
        // A root of 10 us with children of 3 us and 4 us, the second holding
        // a grandchild of 1 us, then a second root of 5 us.
        let trace = "orchestra-obs-trace v1\n\
            open\t0\t1\t0\troot\n\
            open\t1\t2\t1\tphase\n\
            close\t4\t2\t1\tphase\n\
            open\t5\t3\t1\tphase\n\
            open\t6\t4\t3\tinner\n\
            close\t7\t4\t3\tinner\n\
            event\t8\t3\t3\ttick\n\
            close\t9\t3\t1\tphase\n\
            close\t10\t1\t0\troot\n\
            open\t20\t5\t0\troot\n\
            close\t25\t5\t0\troot\n\
            open\t30\t6\t0\tunclosed\n";
        let events = parse_text(trace).unwrap();
        let first_root = Budget::of(&events[..9]);
        assert_eq!(first_root.root_us, 10);
        assert_eq!(first_root.rows.iter().find(|r| r.name == "root").unwrap().self_us, 3);

        let budget = Budget::of(&events);
        assert_eq!(budget.root_us, 15);
        let row = |name: &str| budget.rows.iter().find(|r| r.name == name).unwrap().clone();
        let root = row("root");
        assert_eq!((root.count, root.total_us, root.self_us), (2, 15, 3 + 5));
        let phase = row("phase");
        assert_eq!((phase.count, phase.total_us, phase.self_us), (2, 7, 3 + 3));
        let inner = row("inner");
        assert_eq!((inner.count, inner.total_us, inner.self_us), (1, 1, 1));
        assert!(budget.rows.iter().all(|r| r.name != "unclosed"));
        // The self times partition the roots' time, largest first.
        assert_eq!(budget.rows.iter().map(|r| r.self_us).sum::<u64>(), budget.root_us);
        assert_eq!(budget.rows[0].name, "root");
        assert!((budget.share(&root) - 8.0 / 15.0).abs() < 1e-12);
        assert_eq!(Budget::default().share(&root), 0.0);
    }
}
