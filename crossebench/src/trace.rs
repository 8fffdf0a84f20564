//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, written out as JSON when the run ends.
//!
//! A span is `{name, op_id, parent, start_ns, end_ns}`; the spans of one
//! operation share its `op_id`. A layer's self time is its span minus the
//! part of that interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans, on a clock shared through `epoch`.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its index (a parent for others).
    pub fn add(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Time a call as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.add(name, op_id, parent, start, end))
    }

    /// Lay `stages` out back to back from `start_ns` as children of
    /// `parent`: the engine reports stage durations, not offsets.
    pub fn add_stages(
        &mut self,
        op_id: u64,
        parent: usize,
        mut start_ns: u64,
        stages: &[(&'static str, u64)],
    ) {
        for &(name, dur) in stages {
            if dur > 0 {
                self.add(name, op_id, Some(parent), start_ns, start_ns + dur);
                start_ns += dur;
            }
        }
    }

    /// Widen a span's end (a root closes after its children were added).
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span: duration minus the union of the children's
    /// intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Total self time by span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"op_id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.op_id,
                parent,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(Instant::now());
        let root = t.add("op", 1, None, 0, 100);
        let call = t.add("call", 1, Some(root), 10, 70);
        t.add("a", 1, Some(call), 10, 30);
        t.add("b", 1, Some(call), 25, 50); // overlaps a by 5
        t.add("c", 1, Some(call), 60, 90); // sticks out of its parent by 20
        t.add("probe", 1, Some(root), 80, 95);
        let selfs = t.self_times();
        assert_eq!(selfs[root], 100 - 60 - 15);
        assert_eq!(selfs[call], 60 - (40 + 10)); // [10,50) ∪ [60,70)
        assert_eq!(selfs[2], 20);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["c"], 30);
        assert_eq!(by_name.values().sum::<u64>(), 25 + 10 + 20 + 25 + 30 + 15);
    }

    #[test]
    fn stages_are_laid_back_to_back_and_merge_keeps_parents() {
        let mut t = Trace::new(Instant::now());
        let call = t.add("call", 7, None, 100, 200);
        t.add_stages(7, call, 100, &[("parse", 10), ("skipped", 0), ("sql", 50)]);
        assert_eq!(t.spans.len(), 3);
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (110, 160));
        assert_eq!(t.self_times()[call], 40);

        let mut other = Trace::new(Instant::now());
        let r = other.add("call", 8, None, 0, 10);
        other.add("parse", 8, Some(r), 0, 4);
        t.merge(other);
        assert_eq!(t.spans[4].parent, Some(3));
        assert_eq!(t.self_times()[3], 6);
        assert!(t.to_json("w").contains("\"op_id\": 8, \"parent\": 3"));
    }
}
