//! The benchmark's own span recorder.
//!
//! Spans are recorded in the benchmark's code around each call into a
//! layer crate: a name (`<layer>.<call>`), start, end, the parent span
//! and an operation id shared by the spans of one operation. They stay
//! in memory until the run ends, when [`Tracer::write_chrome_trace`]
//! writes them out. A disabled tracer records nothing, so the untraced
//! run pays one branch per span.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Operation id shared by one operation's spans.
    pub op: u64,
    /// `<layer>.<call>`, e.g. `core.store`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Small per-thread number, for the exported timeline.
    pub tid: u64,
}

impl SpanRecord {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A recorder; `on = false` makes every span inert.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is this tracer recording?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str, parent: Option<&Span<'_>>, op: u64) -> Span<'_> {
        if !self.on {
            return Span {
                tracer: self,
                id: 0,
                parent: 0,
                op,
                name,
                start: None,
            };
        }
        Span {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map_or(0, |p| p.id),
            op,
            name,
            start: Some(Instant::now()),
        }
    }

    /// A fresh operation id.
    pub fn next_op(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span buffer").clone()
    }

    fn finish(&self, span: &Span<'_>, start: Instant) {
        let end = Instant::now();
        let record = SpanRecord {
            id: span.id,
            parent: span.parent,
            op: span.op,
            name: span.name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            tid: TID.with(|t| *t),
        };
        self.spans.lock().expect("span buffer").push(record);
    }

    /// Write the spans as a Chrome trace (`X` slices, ids in `args`).
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}{sep}",
                s.name,
                s.layer(),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.tracer.finish(self, start);
        }
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_times(spans: &[SpanRecord]) -> Vec<(&SpanRecord, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer, in ns.
pub fn self_ns_by_layer(spans: &[SpanRecord]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in self_times(spans) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// Durations (ms) of every span with this exact name.
pub fn durations_ms(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            rec(1, 0, "op.speedup", 0, 100),
            rec(2, 1, "core.load_trial", 10, 40),
            rec(3, 1, "core.load_trial", 30, 50), // overlaps the first
            rec(4, 1, "analysis.speedup", 90, 130), // runs past the parent
        ];
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["op"], 100 - 40 - 10);
        assert_eq!(by_layer["core"], 30 + 20);
        assert_eq!(by_layer["analysis"], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let root = t.span("op.x", None, 1);
            let _child = t.span("core.y", Some(&root), 1);
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_carry_parent_and_operation() {
        let t = Tracer::new(true);
        let op = t.next_op();
        {
            let root = t.span("op.x", None, op);
            let _child = t.span("core.y", Some(&root), op);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "core.y").unwrap();
        let root = spans.iter().find(|s| s.name == "op.x").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!((child.op, root.op), (op, op));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(durations_ms(&spans, "core.y").len(), 1);
    }
}
