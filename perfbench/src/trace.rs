//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out when the run ends.
//!
//! A span has a name (`<layer>.<call>`), a start and an end on the
//! run's monotonic clock, the span that caused it, and the cell it
//! belongs to. A layer's self time is the time its spans cover minus the
//! part their child spans cover. With tracing off nothing is recorded:
//! `begin` returns `None` and `end(None)` is a no-op.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// `<layer>.<call>`, or a root name (`setup`, `cell`).
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell (or set-up round) the span belongs to.
    pub cell: u32,
}

/// Span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    cell: u32,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    #[must_use]
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (used to interleave untraced rounds
    /// in a traced run). Must not be called with a span open.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled with open spans");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a root span for cell `cell`; later spans until its end
    /// belong to that cell.
    pub fn begin_root(&mut self, name: &'static str, cell: u32) -> Option<usize> {
        self.cell = cell;
        self.begin(name)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            cell: self.cell,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes span `id` (and, after a caught panic, any span left open
    /// inside it); returns its duration in ns.
    pub fn end(&mut self, id: Option<usize>) -> Option<u64> {
        let id = id?;
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        Some(now.saturating_sub(self.spans[id].start_ns))
    }

    /// Renames an open or closed span (a batch is classified idle or
    /// revoking only once it returns).
    pub fn rename(&mut self, id: Option<usize>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time in seconds per layer (the span name up to its first
    /// `.`), over the spans of cells numbered `min_cell` and above.
    #[must_use]
    pub fn self_seconds(&self, min_cell: u32) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self
            .spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.cell >= min_cell)
        {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(kids);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Share of the time covered by root spans named `root` that no child
    /// span covers: the part of a cell the layer spans leave unexplained.
    #[must_use]
    pub fn uncovered_share(&self, root: &str) -> f64 {
        let is_root = |s: &SpanRec| s.name == root && s.parent.is_none();
        let dur = |s: &SpanRec| s.end_ns.saturating_sub(s.start_ns);
        let total: u64 = self.spans.iter().filter(|s| is_root(s)).map(dur).sum();
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| is_root(&self.spans[p])))
            .map(dur)
            .sum();
        crate::metrics::ratio(total.saturating_sub(covered) as f64, total as f64)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cell
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("sim.x");
        t.end(id);
        assert!(t.spans().is_empty());

        t.set_enabled(true);
        let root = t.begin_root("cell", 3);
        let child = t.begin("sim.exec");
        t.end(child);
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].cell, 3);
        let st = t.self_seconds(0);
        let root_dur = (t.spans()[0].end_ns - t.spans()[0].start_ns) as f64 / 1e9;
        let total: f64 = st.values().sum();
        assert!(
            (total - root_dur).abs() < 1e-9,
            "self times partition the root"
        );
        assert!((0.0..=1.0).contains(&t.uncovered_share("cell")));
    }
}
