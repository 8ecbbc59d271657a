//! Two captures side by side: the analysis behind `codb-demo trace diff`.
//!
//! A change that is *meant* to move message counts regenerates a golden
//! trace, and "the diff explained" should be a tool's output, not prose.
//! [`TraceDiff`] says where two captures part — the index and rendering of
//! the first event at which they disagree — and by how much: the count of
//! every event kind in each. `NetSend` / `NetDeliver` / `NetDrop` carry
//! `(from, to, bytes)` and no message kind, so they are also counted per
//! payload size, which is as close to a message kind as a trace gets (a
//! bare transport ack is the 32-byte one). Nothing is replayed.

use crate::event::TraceEvent;
use crate::reader::{render_event, TraceFile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How often something occurs in capture A and in capture B.
pub type Counts = (u64, u64);

/// What [`TraceDiff::between`] found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceDiff {
    /// Events in each capture.
    pub events: Counts,
    /// Events per variant name.
    pub kinds: BTreeMap<&'static str, Counts>,
    /// Net events per variant name and payload size.
    pub net_by_bytes: BTreeMap<(&'static str, u64), Counts>,
    /// The first index at which the captures disagree — in timestamp or in
    /// event — with the event each holds there (`None`: that capture had
    /// ended). `None` when one capture is the other.
    pub first_divergence: Option<(usize, Option<String>, Option<String>)>,
}

impl TraceDiff {
    /// Compares two decoded traces, event by event and in bulk.
    pub fn between(a: &TraceFile, b: &TraceFile) -> TraceDiff {
        let mut diff =
            TraceDiff { events: (a.events.len() as u64, b.events.len() as u64), ..Self::default() };
        let bump = |counts: &mut Counts, in_b: bool| {
            *(if in_b { &mut counts.1 } else { &mut counts.0 }) += 1;
        };
        for (trace, in_b) in [(a, false), (b, true)] {
            for (_, ev) in &trace.events {
                bump(diff.kinds.entry(ev.kind()).or_default(), in_b);
                if let TraceEvent::NetSend { bytes, .. }
                | TraceEvent::NetDeliver { bytes, .. }
                | TraceEvent::NetDrop { bytes, .. } = ev
                {
                    bump(diff.net_by_bytes.entry((ev.kind(), *bytes)).or_default(), in_b);
                }
            }
        }
        let same = a.events.iter().zip(&b.events).take_while(|(x, y)| x == y).count();
        if same < a.events.len().max(b.events.len()) {
            let at = |trace: &TraceFile| {
                let (nanos, ev) = trace.events.get(same)?;
                Some(format!("{nanos}ns  {}", render_event(ev, &trace.strings())))
            };
            diff.first_divergence = Some((same, at(a), at(b)));
        }
        diff
    }

    /// True iff the two captures hold the same events at the same times.
    pub fn is_empty(&self) -> bool {
        self.first_divergence.is_none()
    }

    /// Renders the diff for `trace diff`: the first divergence, the count
    /// of every event kind (those that stood still too — that they did is
    /// half the explanation), and the net payload sizes whose counts moved.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let Some((index, a, b)) = &self.first_divergence else {
            let _ = writeln!(out, "identical: {} events", self.events.0);
            return out;
        };
        let ended = || "(the capture has ended)".to_owned();
        let _ = writeln!(out, "first divergence at event {index}:");
        let _ = writeln!(out, "  A: {}", a.clone().unwrap_or_else(ended));
        let _ = writeln!(out, "  B: {}", b.clone().unwrap_or_else(ended));
        let delta = |(a, b): Counts| b as i128 - a as i128;
        let _ = writeln!(
            out,
            "\nevents: {} -> {} ({:+})",
            self.events.0,
            self.events.1,
            delta(self.events)
        );
        let _ = writeln!(out, "\nper event kind:");
        for (kind, counts) in &self.kinds {
            let _ = writeln!(
                out,
                "  {kind:<16} {:>8} -> {:>8}  {:+}",
                counts.0,
                counts.1,
                delta(*counts)
            );
        }
        let _ = writeln!(out, "\nnet events per payload size (sizes that differ):");
        let moved = self.net_by_bytes.iter().filter(|(_, (a, b))| a != b);
        for ((kind, bytes), counts) in moved {
            let size = format!("{bytes}B");
            let _ = writeln!(
                out,
                "  {kind:<12} {size:>8}  {:>8} -> {:>8}  {:+}",
                counts.0,
                counts.1,
                delta(*counts)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(events: Vec<(u64, TraceEvent)>) -> TraceFile {
        TraceFile { events, torn: false }
    }

    fn send(bytes: u64) -> TraceEvent {
        TraceEvent::NetSend { from: 1, to: 2, bytes }
    }

    #[test]
    fn a_capture_does_not_differ_from_itself() {
        let a = trace(vec![(0, send(32)), (5, TraceEvent::NetTimer { peer: 1, timer: 1 })]);
        let diff = TraceDiff::between(&a, &a);
        assert!(diff.is_empty());
        assert_eq!(diff.kinds["NetSend"], (1, 1));
        assert_eq!(diff.render(), "identical: 2 events\n");
    }

    #[test]
    fn the_first_divergence_and_the_counts_are_reported() {
        let rule = TraceEvent::Intern { id: 1, text: "r1".into() };
        let apply = TraceEvent::UpdateApply { peer: 2, rule: 1, tuples: 3 };
        let a = trace(vec![
            (0, rule.clone()),
            (0, send(56)),
            (1, send(32)),
            (1, send(32)),
            (2, apply.clone()),
        ]);
        let b = trace(vec![(0, rule), (0, send(56)), (1, send(72)), (2, apply)]);
        let diff = TraceDiff::between(&a, &b);
        assert_eq!(diff.events, (5, 4));
        assert_eq!(diff.kinds["NetSend"], (3, 2));
        assert_eq!(diff.kinds["UpdateApply"], (1, 1));
        assert_eq!(diff.net_by_bytes[&("NetSend", 32)], (2, 0));
        assert_eq!(diff.net_by_bytes[&("NetSend", 72)], (0, 1));
        let (index, at_a, at_b) = diff.first_divergence.clone().unwrap();
        assert_eq!(index, 2);
        assert_eq!(at_a.unwrap(), "1ns  send    1 -> 2  32B");
        assert_eq!(at_b.unwrap(), "1ns  send    1 -> 2  72B");
        let rendered = diff.render();
        assert!(rendered.contains("NetSend                 3 ->        2  -1"), "{rendered}");
        assert!(rendered.contains("UpdateApply             1 ->        1  +0"), "{rendered}");
        assert!(rendered.contains("32B         2 ->        0  -2"), "{rendered}");
        assert!(!rendered.contains("56B"), "a size that did not move is not listed:\n{rendered}");
    }

    #[test]
    fn a_capture_that_merely_ends_early_diverges_where_it_ends() {
        let a = trace(vec![(0, send(32)), (1, send(32))]);
        let b = trace(vec![(0, send(32))]);
        let diff = TraceDiff::between(&a, &b);
        let (index, at_a, at_b) = diff.first_divergence.clone().unwrap();
        assert_eq!((index, at_b), (1, None));
        assert!(at_a.is_some());
        assert!(diff.render().contains("B: (the capture has ended)"));
        // The same timestamp but another event, or the same event at
        // another time: both are disagreements.
        let later = trace(vec![(0, send(32)), (2, send(32))]);
        assert_eq!(TraceDiff::between(&a, &later).first_divergence.unwrap().0, 1);
    }
}
