//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions: name, start, end, parent span and op id. They stay
//! in memory until the run ends and are then written out as JSON lines.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open span `name` of op `op` under `parent`.
    pub fn open(&self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            op,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(spans.len() - 1)
    }

    pub fn close(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer lock poisoned")[id.0].end_ns = end_ns;
    }

    /// Run `f` inside span `name`.
    pub fn span<R>(&self, name: &'static str, op: u64, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Per-name totals: (spans, total ms, self ms). Self time is a span's
    /// duration minus the part of it its children cover.
    pub fn layer_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// Share of the wall of every span named `op_name` that its child
    /// spans cover.
    pub fn coverage(&self, op_name: &str) -> Option<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut covered = 0u64;
        let mut wall = 0u64;
        for (i, s) in spans.iter().enumerate() {
            if s.name != op_name {
                continue;
            }
            wall += s.end_ns - s.start_ns;
            covered += spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end_ns - c.start_ns)
                .sum::<u64>();
        }
        (wall > 0).then(|| covered as f64 / wall as f64)
    }

    /// Durations in ms of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_them() {
        let t = Tracer::new(true);
        let op = t.open("op", 1, SpanId::NONE);
        t.span("child", 1, op, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(op);
        let times = t.layer_times();
        let (n, total, self_ms) = times["op"];
        assert_eq!(n, 1);
        assert!(self_ms < total);
        let cov = t.coverage("op").unwrap();
        assert!(cov > 0.5 && cov <= 1.0, "{cov}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.open("op", 1, SpanId::NONE);
        t.close(id);
        assert!(t.layer_times().is_empty());
        assert!(t.coverage("op").is_none());
    }
}
