//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! A span holds its name, start and end (nanoseconds since the tracer was
//! created), its parent span and a run id. Spans stay in memory and are
//! written out once, as JSON lines, when the benchmark ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `ansor.propose`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Which run (tuning session, client loop, replay) the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder with one epoch shared by every span it holds.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Recorded spans, in open order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer::with_epoch(Instant::now())
    }

    /// An empty tracer with an explicit epoch, so spans recorded by several
    /// threads into their own tracers can be merged on one time axis.
    pub fn with_epoch(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span from two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Appends another tracer's spans (same epoch), re-basing their ids.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover. Children of one parent never overlap (each parent's
    /// children are recorded by one thread, one after another).
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.secs();
            }
        }
        out
    }

    /// Share of the wall time of the root spans called `root` that lies
    /// inside layer spans: `1 − Σ self(root and glue spans) / Σ dur(root)`,
    /// where glue spans (e.g. `round`) only group layer spans.
    pub fn coverage(&self, root: &str, glue: &[&str]) -> f64 {
        let selfs = self.self_times();
        let (mut wall, mut uncovered) = (0.0, 0.0);
        for (s, own) in self.spans.iter().zip(&selfs) {
            if s.name == root && s.parent.is_none() {
                wall += s.secs();
                uncovered += own;
            } else if glue.contains(&s.name) {
                uncovered += own;
            }
        }
        if wall > 0.0 {
            1.0 - uncovered / wall
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times();
        for (id, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"self_s\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        w.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_coverage_follows() {
        let t0 = Instant::now();
        let mut tr = Tracer::with_epoch(t0);
        let root = tr.record("root", None, 0, t0, t0 + Duration::from_millis(100));
        tr.record("a", Some(root), 0, t0, t0 + Duration::from_millis(30));
        tr.record(
            "b",
            Some(root),
            0,
            t0 + Duration::from_millis(30),
            t0 + Duration::from_millis(90),
        );
        let selfs = tr.self_times();
        assert!((selfs[root] - 0.010).abs() < 1e-9);
        assert!((tr.coverage("root", &[]) - 0.9).abs() < 1e-9);
        assert!((tr.total("b") - 0.060).abs() < 1e-9);
    }

    #[test]
    fn merge_rebases_parent_ids() {
        let t0 = Instant::now();
        let mut a = Tracer::with_epoch(t0);
        a.record("x", None, 0, t0, t0);
        let mut b = Tracer::with_epoch(t0);
        let r = b.record("root", None, 1, t0, t0 + Duration::from_millis(2));
        b.record("child", Some(r), 1, t0, t0 + Duration::from_millis(1));
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
