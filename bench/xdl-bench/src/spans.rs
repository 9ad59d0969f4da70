//! Spans recorded by the benchmark's own files around calls into each
//! layer: `{name, start_ns, end_ns, parent, op_id}`, kept in memory and
//! written out when the run ends.

use std::time::Instant;

/// Index of a span within its recorder.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share an identifier.
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span and return its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Time `f` under a child span of `parent`; returns `f`'s result and
    /// the span's duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, op_id);
        let out = f();
        (out, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        ));
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_sibling_spans() {
        let spans = vec![
            span(0, 100, None),    // root
            span(10, 40, Some(0)), // child a
            span(50, 90, Some(0)), // child b (sibling of a)
            span(55, 70, Some(2)), // grandchild under b
            span(200, 250, None),  // a second root without children
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 30 - 40, 30, 40 - 15, 15, 50]
        );
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),  // overlaps the first child
            span(90, 130, Some(0)), // runs past the parent's end
        ];
        // Covered: 10..80 and 90..100.
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut r = Recorder::new();
        let root = r.open("handle", None, 7);
        let ((), inner) = r.time("parse", Some(root), 7, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let outer = r.close(root);
        assert!(outer >= inner);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(root));
        let json = to_json(r.spans());
        assert!(json.starts_with("[\n{\"id\":0,\"name\":\"handle\""));
        assert!(json.contains("\"parent\":0,\"op_id\":7}"));
        assert!(json.ends_with("\n]"));
    }
}
