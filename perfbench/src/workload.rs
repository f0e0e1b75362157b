//! The traced run's report, shared by every workload: the isolated layer
//! figures, the shard and serve figures (from the workload's own ops
//! where it exercises them, from an isolated probe where it does not),
//! and the tracing overhead and coverage.

use crate::harness::{Alternating, RunArgs};
use crate::layers::{self, CaseLayers};
use crate::report::{self, Report};
use crate::serve_mixed;
use crate::trace::Tracer;

/// Out-of-core shard figures.
#[derive(Debug, Clone)]
pub struct ShardFigures {
    /// Median wall ms of one out-of-core multiply.
    pub ooc_ms: f64,
    /// Bands spilled per multiply.
    pub spilled_bands: f64,
    /// `hhcpu.warm_ms` of the same operands: the base of `shard.vs_monolithic`.
    pub base_warm_ms: f64,
}

/// Serve-layer figures.
#[derive(Debug, Clone)]
pub struct ServeFigures {
    pub hit_rtt_ms: f64,
    pub miss_rtt_ms: f64,
    pub batch_rtt_ms: f64,
    pub wire_overhead_ms: f64,
    pub service_overhead_ms: f64,
    pub json_parse_us: f64,
    pub reply_encode_us: f64,
    pub artifact_hit_ratio: f64,
    pub admission_rejected: f64,
    pub registry_evictions: f64,
}

/// Assemble every per-layer metric of a traced run. `warm_ms` overrides
/// the isolated `hhcpu.warm_ms` where the workload's own op spans measure
/// it; `serve` is `None` for workloads that do not serve, which then run
/// the serve probe.
#[allow(clippy::too_many_arguments)]
pub fn traced_report(
    args: &RunArgs,
    tracer: &Tracer,
    alt: &Alternating,
    probes: &[CaseLayers],
    warm_ms: Option<f64>,
    shard: ShardFigures,
    serve: Option<ServeFigures>,
    mut notes: Vec<String>,
) -> Result<Report, String> {
    let serve = match serve {
        Some(s) => s,
        None => serve_mixed::probe(args, tracer)?,
    };
    let mut r = Report {
        attempted: alt.attempted,
        failed: alt.failed,
        ..Report::default()
    };
    layers::push_metrics(&mut r, probes, alt.plain_mean_ms(), warm_ms);
    r.push("shard.ooc_ms", shard.ooc_ms, "ms");
    r.push(
        "shard.vs_monolithic",
        shard.ooc_ms / shard.base_warm_ms,
        "ratio",
    );
    r.push("shard.spilled_bands", shard.spilled_bands, "count");
    r.push("serve.hit_rtt_ms", serve.hit_rtt_ms, "ms");
    r.push("serve.miss_rtt_ms", serve.miss_rtt_ms, "ms");
    r.push("serve.batch_rtt_ms", serve.batch_rtt_ms, "ms");
    r.push("serve.wire_overhead_ms", serve.wire_overhead_ms, "ms");
    r.push("serve.service_overhead_ms", serve.service_overhead_ms, "ms");
    r.push("serve.json_parse_us", serve.json_parse_us, "us");
    r.push("serve.reply_encode_us", serve.reply_encode_us, "us");
    r.push(
        "serve.artifact_hit_ratio",
        serve.artifact_hit_ratio,
        "ratio",
    );
    r.push(
        "serve.admission_rejected",
        serve.admission_rejected,
        "count",
    );
    r.push(
        "serve.registry_evictions",
        serve.registry_evictions,
        "count",
    );
    r.push("trace.overhead_frac", alt.overhead_frac(), "ratio");
    let coverage = tracer
        .coverage("op")
        .ok_or("the traced run recorded no op span")?;
    r.push("trace.coverage", coverage, "ratio");

    for (name, (n, total, self_ms)) in tracer.layer_times() {
        notes.push(format!(
            "span {name}: {n} spans, total {total:.3} ms, self {self_ms:.3} ms"
        ));
    }
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    notes.push(format!(
        "spans written to {}",
        report::string(&path.display().to_string())
    ));
    r.notes = notes;
    Ok(r)
}
