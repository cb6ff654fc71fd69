//! Host-time spans recorded from the benchmark's own code around each call
//! into a layer's public API.
//!
//! Spans nest by call order: a span entered while another is open becomes
//! its child. A layer's self time is its span's duration minus the part of
//! that interval its children cover. Everything outside every root span is
//! harness time nobody claimed (`bench.unattributed`).

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpanRec {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder; times are ns since this call.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.push(name, start, start);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = end;
        }
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(SpanRec {
            name,
            start,
            end,
            parent,
        });
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Self time and count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += self_time((s.start, s.end), kids);
        }
        out
    }

    /// Summed duration of the root spans (those with no parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end.saturating_sub(s.start))
            .sum()
    }
}

/// A span's duration minus the part of it covered by the union of its
/// children's intervals (children are clipped to the span).
pub fn self_time((start, end): (u64, u64), mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in kids {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Harness time no span claimed: `wall` minus the root spans it contains.
pub fn unattributed_ns(wall_ns: u64, spans: &Spans) -> u64 {
    wall_ns.saturating_sub(spans.root_ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(recs: &[(&'static str, u64, u64, Option<usize>)]) -> Spans {
        let mut s = Spans::new();
        for &(name, start, end, parent) in recs {
            s.spans.push(SpanRec {
                name,
                start,
                end,
                parent,
            });
        }
        s
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        assert_eq!(self_time((0, 100), vec![]), 100);
        assert_eq!(self_time((0, 100), vec![(10, 20), (30, 60)]), 60);
        // Overlapping children count their union once.
        assert_eq!(self_time((0, 100), vec![(10, 50), (40, 70)]), 40);
        // A child hanging past the parent's end is clipped.
        assert_eq!(self_time((0, 100), vec![(90, 130)]), 90);
        // Nested coverage (a child fully inside another) adds nothing.
        assert_eq!(self_time((0, 100), vec![(0, 100), (20, 30)]), 0);
    }

    #[test]
    fn totals_group_by_name() {
        let s = recorder(&[
            ("batch", 0, 100, None),
            ("driver.submit", 0, 30, Some(0)),
            ("ssd.process", 30, 80, Some(0)),
            ("batch", 200, 260, None),
            ("ssd.process", 200, 250, Some(3)),
        ]);
        let t = s.totals();
        assert_eq!(
            t["batch"],
            NameTotal {
                count: 2,
                self_ns: 20 + 10
            }
        );
        assert_eq!(
            t["ssd.process"],
            NameTotal {
                count: 2,
                self_ns: 100
            }
        );
        assert_eq!(t["driver.submit"].self_ns, 30);
    }

    #[test]
    fn unattributed_reconciles_with_wall_time() {
        // A 400 ns traced window with two roots and nested children: every
        // ns is either some span's self time or unattributed, exactly once.
        let s = recorder(&[
            ("batch", 10, 110, None),
            ("driver.submit", 10, 40, Some(0)),
            ("driver.poll", 60, 100, Some(0)),
            ("read", 150, 300, None),
            ("ssd.process", 160, 290, Some(3)),
        ]);
        let wall = 400;
        let self_sum: u64 = s.totals().values().map(|t| t.self_ns).sum();
        let unattributed = unattributed_ns(wall, &s);
        assert_eq!(unattributed, 400 - 100 - 150);
        assert_eq!(self_sum + unattributed, wall);
    }

    #[test]
    fn live_recorder_nests_and_closes() {
        let mut s = Spans::new();
        s.time("outer", || ());
        s.enter("outer");
        s.time("inner", || std::hint::black_box(1 + 1));
        s.exit();
        let t = s.totals();
        assert_eq!(t["outer"].count, 2);
        assert_eq!(t["inner"].count, 1);
        assert!(s.open.is_empty());
        assert_eq!(s.spans[2].parent, Some(1));
    }
}
