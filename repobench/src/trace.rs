//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once when the run ends.
//!
//! A span has a name, start, end, parent span and op id. A layer's self
//! time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

/// Records spans; disabled tracers record nothing and cost one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns `None` when
    /// tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Closes a span under a name only known once its call returned
    /// (a handler span is named after the reply's answer source).
    pub fn end_as(&mut self, id: Option<SpanId>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
        self.end(id);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in microseconds, grouped by span name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (name, ns) in self_times(&self.spans) {
            out.entry(name).or_default().push(ns as f64 / 1e3);
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Each span's self time in nanoseconds: its duration minus the union
/// of its children's intervals (clipped to the span), in span order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.name, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 120, Some(0)), // overruns the parent: clipped
            span("a.inner", 12, 20, Some(1)),
        ];
        let got = self_times(&spans);
        assert_eq!(
            got,
            vec![
                ("op", 100 - 40 - 10),
                ("a", 20 - 8),
                ("b", 25),
                ("c", 30),
                ("a.inner", 8),
            ]
        );
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let spans = vec![
            span("op", 0, 100, None),
            span("mid", 0, 60, Some(0)),
            span("leaf", 0, 60, Some(1)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![("op", 40), ("mid", 0), ("leaf", 60)]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
        t.set_enabled(true);
        let root = t.begin("op", None, 7);
        t.span("child", root, 7, || ());
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.op == 7));
    }
}
