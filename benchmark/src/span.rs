//! Span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public function in
//! [`Tracer::span`]. Spans are kept in memory and written as JSON lines
//! when the run ends; with the tracer disabled (every end-to-end run)
//! `span` is a plain call. Spans inside the program under test are a
//! later change — these sit at the layer boundaries only.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.function`, e.g. `sfgraph.read_edge_list`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time covered.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on the calling thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`true`) or only forwards calls (`false`).
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span called `name`; the closure receives the
    /// tracer so nested calls can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Write one JSON object per span: name, start, end, parent, self
    /// time, and the workload id shared by every span of the run.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"workload":"{workload}","name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"self_ns":{own}}}"#,
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover. Children on one thread never overlap, so the
/// covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
            span("lone", 200, 230, None),
        ];
        // root: 100 − (30 + 40); a: 30 − 10; the grandchild is not
        // subtracted from root a second time.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40, 30]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        assert_eq!(t.spans().len(), 2);
        assert_eq!((t.spans()[0].name, t.spans()[0].parent), ("outer", None));
        assert_eq!((t.spans()[1].name, t.spans()[1].parent), ("inner", Some(0)));
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        assert_eq!(t.durations_ms("inner").len(), 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| t.span("inner", |_| ()));
        let path =
            std::env::temp_dir().join(format!("hopbench-span-test-{}.jsonl", std::process::id()));
        t.write_jsonl(&path, "w").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"id":0,"workload":"w","name":"outer""#));
        assert!(lines[0].contains(r#""parent":null"#) && lines[1].contains(r#""parent":0"#));
        assert!(lines.iter().all(|l| l.contains(r#""self_ns":"#)));
    }
}
