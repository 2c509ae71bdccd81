//! The benchmark's own span recorder: spans around the calls the benchmark
//! makes into the system, held in memory and written out at exit.
//!
//! The engine returns phase *durations*, not timestamps, so the children of
//! a `request` span are laid end to end from the request's start; what the
//! request span does not cover with children is the facade's own time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Spans of one statement execution share `stmt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub stmt: u64,
}

/// In-memory span store; a span's id is its index.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span and return its id.
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        stmt: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt,
        });
        self.spans.len() - 1
    }

    /// Append another recorder's spans (a second client thread's), shifting
    /// their parent links and times onto this recorder's clock.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and a
/// child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(span.name).or_insert(0) += own;
    }
    by_name
}

/// The trace file: one JSON object holding every span.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if id + 1 == spans.len() { "" } else { "," };
        // Span names are identifiers chosen in this crate: no escaping needed.
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"stmt\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.stmt, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span("request", 0, 100, None),
            span("plan", 10, 30, Some(0)),
            span("execute", 30, 90, Some(0)),
            span("scan", 40, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("request", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 45, 48, Some(0)),
        ];
        // Children cover [10, 70): 60 of the parent's 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("request", 10, 20, None),
            span("late", 15, 40, Some(0)),
            span("outside", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn self_time_sums_by_name() {
        let spans = [
            span("request", 0, 10, None),
            span("execute", 2, 8, Some(0)),
            span("request", 10, 30, None),
            span("execute", 12, 20, Some(2)),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["request"], 4 + 12);
        assert_eq!(by_name["execute"], 6 + 8);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = Recorder::new();
        a.add("request", 0, 10, None, 1);
        let mut b = Recorder::new();
        let root = b.add("request", 0, 10, None, 2);
        b.add("execute", 2, 8, Some(root), 2);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].stmt, 2);
    }
}
