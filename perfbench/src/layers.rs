//! Isolated per-layer calls for the traced run.
//!
//! Each call is made by the benchmark on a workload's own operands,
//! outside any op span, through the layer's public entry point: Phase-I
//! search (`threshold::identify_plan`), device costing (`hetsim`), the
//! warm engine (`hh_cpu_with_artifacts`), the numeric executor
//! (`schedule::execute`), the serial reference, the shard stitch and the
//! `SPMMCSR1` chunk codec, and operand generation (`scalefree`). Every
//! result that has an expected value is checked against it.

use std::fs::File;
use std::path::Path;
use std::time::Instant;

use hetero_spmm::core::schedule::{self, ClaimSchedule, ExecConfig, ScheduledClaim};
use hetero_spmm::core::{
    concat_row_bands, hh_cpu_with_artifacts, threshold, HeteroContext, HhCpuConfig, ShardPlan,
    SpmmArtifacts, ThresholdPolicy,
};
use hetero_spmm::hetsim::gpu::masked_output_widths_pooled;
use hetero_spmm::hetsim::DeviceKind;
use hetero_spmm::scalefree::scale_free_matrix;
use hetero_spmm::sparse::io::{read_csr_chunk, write_csr_chunk};
use hetero_spmm::sparse::{reference, CsrMatrix};

use crate::gate::{self, Case};
use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Repetitions of each isolated call; the median is kept.
const REPS: usize = 3;
/// Row bands C is cut into for the stitch and codec probes.
pub const BANDS: usize = 8;

/// Op id of spans recorded outside any op.
pub const ISOLATED: u64 = 0;

/// Median wall ms of `REPS` calls of `f`, each recorded as span `name`.
fn timed<R>(tracer: &Tracer, name: &'static str, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut ms = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let id = tracer.open(name, ISOLATED, SpanId::NONE);
        let t = Instant::now();
        let r = std::hint::black_box(f());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(id);
        last = Some(r);
    }
    (last.expect("REPS > 0"), stats::median(&ms))
}

/// One case's isolated layer timings.
#[derive(Debug, Clone)]
pub struct CaseLayers {
    pub generate_ms: f64,
    pub identify_plan_ms: f64,
    pub output_widths_ms: f64,
    pub cpu_cost_ms: f64,
    pub gpu_cost_ms: f64,
    pub warm_ms: f64,
    pub execute_ms: f64,
    pub reference_ms: f64,
    pub concat_ms: f64,
    pub chunk_bytes: usize,
    pub chunk_write_ms: f64,
    pub chunk_read_ms: f64,
    pub flops: u64,
    pub nnz_c: usize,
    pub tuples: usize,
    pub bytes_computed: f64,
}

/// Bytes the numeric kernel moves by count, not by measurement: every A
/// entry read once, one B entry read per multiply-add, every C entry
/// written once (12 bytes per entry: a `u32` column and an `f64` value).
fn computed_bytes(case: &Case) -> f64 {
    12.0 * (case.a.nnz() as f64 + case.flops as f64 + case.expected.c.nnz() as f64)
}

/// Cut `c` into [`BANDS`] nnz-balanced row bands.
pub fn row_bands(c: &CsrMatrix<f64>) -> Vec<CsrMatrix<f64>> {
    let plan = ShardPlan::nnz_balanced(c, BANDS);
    (0..plan.shards())
        .map(|i| c.row_band(plan.band(i)))
        .collect()
}

/// Run every isolated layer call on `case`.
pub fn probe(case: &Case, tracer: &Tracer, tmp: &Path) -> Result<CaseLayers, String> {
    let (a, b) = (&*case.a.matrix, &*case.b.matrix);
    let label = case.label();
    let fail = |what: &str| {
        Err(format!(
            "{label}: isolated {what} disagrees with the expected output"
        ))
    };
    let policy = ThresholdPolicy::default();
    let mut ctx = HeteroContext::scaled(case.scale());

    let (generated, generate_ms) = timed(tracer, "scalefree.generate", || {
        scale_free_matrix::<f64>(&case.a.config)
    });
    if generated != *a {
        return fail("generation");
    }

    let (plan, identify_plan_ms) = timed(tracer, "threshold.identify_plan", || {
        threshold::identify_plan(&ctx, a, b, policy)
    });
    if plan.thresholds.t_a != case.expected.threshold_a
        || plan.thresholds.t_b != case.expected.threshold_b
    {
        return fail("threshold::identify_plan");
    }
    let b_high = &plan.thresholds.b_high;
    let b_low: Vec<bool> = b_high.iter().map(|&h| !h).collect();
    let (w_low, output_widths_ms) = timed(tracer, "hetsim.output_widths", || {
        masked_output_widths_pooled(a, b, Some(&b_low), &ctx.pool, &ctx.workspaces)
    });
    let rows_ah: Vec<usize> = (0..a.nrows())
        .filter(|&i| plan.thresholds.a_high[i])
        .collect();
    let rows_al: Vec<usize> = (0..a.nrows())
        .filter(|&i| !plan.thresholds.a_high[i])
        .collect();
    let (_, cpu_cost_ms) = timed(tracer, "hetsim.cpu_cost", || {
        ctx.reset();
        ctx.cpu
            .spmm_cost_blocked(a, b, rows_ah.iter().copied(), Some(b_high))
    });
    let (_, gpu_cost_ms) = timed(tracer, "hetsim.gpu_cost", || {
        ctx.reset();
        ctx.gpu
            .spmm_cost_planned(a, b, rows_al.iter().copied(), Some(&b_low), &w_low)
    });

    let artifacts = SpmmArtifacts::build(&ctx, a, b, policy);
    let config = HhCpuConfig::default();
    let (warm, warm_ms) = timed(tracer, "hhcpu.warm", || {
        hh_cpu_with_artifacts(&mut ctx, a, b, &config, &artifacts)
    });
    if !gate::same_output(&warm, &case.expected) {
        return fail("hh_cpu_with_artifacts");
    }

    let all_rows: Vec<usize> = (0..a.nrows()).collect();
    let single = ClaimSchedule {
        claims: vec![ScheduledClaim {
            device: DeviceKind::Cpu,
            rows: &all_rows,
            b_mask: None,
            sim_ns: 0.0,
        }],
    };
    let ((executed, _), execute_ms) = timed(tracer, "schedule.execute", || {
        schedule::execute(
            a,
            b,
            &single,
            (a.nrows(), b.ncols()),
            &ctx.pool,
            &ctx.workspaces,
            ExecConfig::default(),
        )
    });
    if gate::check_against_reference(&executed, a, b).is_err() {
        return fail("schedule::execute");
    }

    let (_, reference_ms) = timed(tracer, "reference.gustavson", || {
        reference::spmm_rowrow(a, b)
    });

    let c = &case.expected.c;
    let bands = row_bands(c);
    let (stitched, concat_ms) = timed(tracer, "shard.concat", || {
        concat_row_bands(&bands, c.ncols())
    });
    if stitched != *c {
        return fail("concat_row_bands");
    }
    let (chunk_bytes, chunk_write_ms, chunk_read_ms) =
        chunk_io(&bands, tracer, tmp).map_err(|e| format!("{label}: chunk codec: {e}"))?;

    Ok(CaseLayers {
        generate_ms,
        identify_plan_ms,
        output_widths_ms,
        cpu_cost_ms,
        gpu_cost_ms,
        warm_ms,
        execute_ms,
        reference_ms,
        concat_ms,
        chunk_bytes,
        chunk_write_ms,
        chunk_read_ms,
        flops: case.flops,
        nnz_c: c.nnz(),
        tuples: case.expected.tuples_merged,
        bytes_computed: computed_bytes(case),
    })
}

/// Write every band with `write_csr_chunk` to its own file and read it
/// back with `read_csr_chunk`: (bytes, median write ms, median read ms)
/// per full pass over the bands.
fn chunk_io(
    bands: &[CsrMatrix<f64>],
    tracer: &Tracer,
    tmp: &Path,
) -> Result<(usize, f64, f64), String> {
    let paths: Vec<_> = (0..bands.len())
        .map(|i| tmp.join(format!("chunk-{i}.csr")))
        .collect();
    let (written, write_ms) = timed(tracer, "io.chunk_write", || -> Result<(), String> {
        for (band, path) in bands.iter().zip(&paths) {
            let mut f = File::create(path).map_err(|e| e.to_string())?;
            write_csr_chunk(band, &mut f).map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    written?;
    let bytes: usize = paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len() as usize).unwrap_or(0))
        .sum();
    let (read, read_ms) = timed(
        tracer,
        "io.chunk_read",
        || -> Result<Vec<CsrMatrix<f64>>, String> {
            paths
                .iter()
                .map(|p| {
                    let mut f = File::open(p).map_err(|e| e.to_string())?;
                    read_csr_chunk::<f64, _>(&mut f).map_err(|e| e.to_string())
                })
                .collect()
        },
    );
    let read = read?;
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    if read.as_slice() != bands {
        return Err("a chunk read back differs from the band written".into());
    }
    Ok((bytes, write_ms, read_ms))
}

/// Append the layer metrics aggregated over `layers` (one entry per case,
/// equally weighted). `op_ms` is the workload's mean untraced op latency,
/// the base of `threshold.share`; `warm_ms` replaces the isolated
/// `hhcpu.warm_ms` where op spans measured it.
pub fn push_metrics(r: &mut Report, layers: &[CaseLayers], op_ms: f64, warm_ms: Option<f64>) {
    let mean = |f: fn(&CaseLayers) -> f64| stats::mean(&layers.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&CaseLayers) -> f64| layers.iter().map(f).sum::<f64>();
    let identify = mean(|l| l.identify_plan_ms);
    r.push("threshold.identify_plan_ms", identify, "ms");
    r.push("threshold.share", identify / op_ms, "ratio");
    r.push(
        "hetsim.output_widths_ms",
        mean(|l| l.output_widths_ms),
        "ms",
    );
    r.push("hetsim.cpu_cost_ms", mean(|l| l.cpu_cost_ms), "ms");
    r.push("hetsim.gpu_cost_ms", mean(|l| l.gpu_cost_ms), "ms");
    r.push(
        "hhcpu.warm_ms",
        warm_ms.unwrap_or_else(|| mean(|l| l.warm_ms)),
        "ms",
    );
    r.push(
        "hhcpu.tuples_per_nnz_c",
        sum(|l| l.tuples as f64) / sum(|l| l.nnz_c as f64),
        "ratio",
    );
    r.push("schedule.execute_ms", mean(|l| l.execute_ms), "ms");
    r.push(
        "schedule.mflops_s",
        2.0 * sum(|l| l.flops as f64) / (sum(|l| l.execute_ms) * 1e3),
        "Mflop/s",
    );
    r.push("schedule.flops", mean(|l| l.flops as f64), "count");
    r.push("schedule.nnz_c", mean(|l| l.nnz_c as f64), "count");
    r.push("schedule.bytes_computed", mean(|l| l.bytes_computed), "B");
    r.push("reference.gustavson_ms", mean(|l| l.reference_ms), "ms");
    r.push(
        "schedule.speedup_vs_reference",
        sum(|l| l.reference_ms) / sum(|l| l.execute_ms),
        "ratio",
    );
    r.push("shard.concat_ms", mean(|l| l.concat_ms), "ms");
    r.push(
        "io.chunk_write_mb_s",
        sum(|l| l.chunk_bytes as f64) / (sum(|l| l.chunk_write_ms) * 1e3),
        "MB/s",
    );
    r.push(
        "io.chunk_read_mb_s",
        sum(|l| l.chunk_bytes as f64) / (sum(|l| l.chunk_read_ms) * 1e3),
        "MB/s",
    );
    r.push("scalefree.generate_ms", mean(|l| l.generate_ms), "ms");
}
