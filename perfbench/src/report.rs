//! The result line and the end-to-end metric set every workload reports.

use crate::stats::{self, Tail};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run hands back to `main`: its metrics and op tallies.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The last stdout line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which would be a benchmark bug) print as `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (the inputs are benchmark-made labels).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Raw end-to-end measurements of one untraced run.
#[derive(Debug)]
pub struct EndToEnd {
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Per-op latency, issue to completion.
    pub latencies_ms: Vec<f64>,
    /// Per-op completion time in s since the timed phase began, ascending.
    pub done_s: Vec<f64>,
    /// Ops per throughput block: one whole request cycle of the workload,
    /// so every block carries the same mix.
    pub block: usize,
    /// Wall seconds of the timed phase.
    pub timed_wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Peak RSS of the timed phase: for one client, the median over ops of
    /// each op's `VmHWM`; for several concurrent clients, `VmHWM` over the
    /// whole phase.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn tail(&self) -> Tail {
        stats::tail(&self.latencies_ms)
            .expect("the timed loop runs until the tail has enough samples")
    }

    /// The six end-to-end metrics. `failed_frac` is reported as its
    /// complement, `success_frac`, so that no metric's healthy value is 0;
    /// the raw failure count is the result line's `failed`.
    pub fn into_report(self) -> Report {
        let tail = self.tail();
        let mut r = Report {
            attempted: self.attempted,
            failed: self.failed,
            ..Report::default()
        };
        r.push("setup_s", stats::median(&self.setup_s), "s");
        r.push("latency_p50_ms", stats::median(&self.latencies_ms), "ms");
        r.push("latency_tail_ms", tail.value, "ms");
        r.push(
            "throughput_ops_s",
            stats::block_rate(&self.done_s, self.block),
            "ops/s",
        );
        r.push(
            "success_frac",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
        r.push("peak_rss_mb", self.peak_rss_mb, "MB");
        r
    }

    /// One human-readable summary line (printed before the result line).
    pub fn summary(&self) -> String {
        let tail = self.tail();
        format!(
            "end-to-end: ops {} in {:.2} s ({:.3} ops/s overall, median of {}-op blocks {:.3}), \
             p50 {:.2} ms, tail p{:.2} {:.2} ms ({} samples, {} beyond), \
             failed_frac {}, setup runs {:?} s, peak_rss {:.1} MB",
            self.latencies_ms.len(),
            self.timed_wall_s,
            self.latencies_ms.len() as f64 / self.timed_wall_s,
            self.block,
            stats::block_rate(&self.done_s, self.block),
            stats::median(&self.latencies_ms),
            tail.percentile,
            tail.value,
            tail.samples,
            stats::TAIL_BEYOND,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.setup_s
                .iter()
                .map(|s| (s * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>(),
            self.peak_rss_mb
        )
    }
}
