//! Workload `out_of_core`: one client runs the sharded multiply in
//! out-of-core mode on a clone whose C is tens of MB, against artifacts
//! built at set-up, with a byte cap of half the measured bytes(C) so that
//! bands really spill. Phase I is absent; shard admission, spill, stitch
//! and the `SPMMCSR1` codec run here and nowhere else.

use hetero_spmm::core::{
    hh_cpu_sharded_with_artifacts, HeteroContext, HhCpuConfig, ShardConfig, ShardedOutput,
    SpmmArtifacts, ThresholdPolicy,
};

use crate::gate::{self, Case};
use crate::harness::{self, RunArgs};
use crate::inputs;
use crate::layers::{self, ISOLATED};
use crate::report::{EndToEnd, Report};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workload::{self, ShardFigures};

const CLASS: &str = "web-Google";
const SCALE: usize = 8;
/// Row bands per op.
pub const SHARDS: usize = 8;
/// Ops per throughput block.
const BLOCK: usize = 10;

/// The resident-byte cap: half of the measured bytes(C).
pub fn byte_cap(case: &Case) -> usize {
    case.expected.c.byte_size() / 2
}

struct State {
    case: Case,
    artifacts: SpmmArtifacts,
    ctx: HeteroContext,
}

fn setup(seed: u64) -> Result<State, String> {
    let case = gate::expect_square(inputs::clone_of(CLASS, SCALE, seed, 0))?;
    let ctx = HeteroContext::scaled(case.scale());
    let artifacts = SpmmArtifacts::build(
        &ctx,
        &case.a.matrix,
        &case.b.matrix,
        ThresholdPolicy::default(),
    );
    Ok(State {
        case,
        artifacts,
        ctx,
    })
}

/// One out-of-core multiply of `case` under `cap`.
fn sharded(
    ctx: &mut HeteroContext,
    case: &Case,
    artifacts: &SpmmArtifacts,
    cap: usize,
) -> ShardedOutput<f64> {
    hh_cpu_sharded_with_artifacts(
        ctx,
        &case.a.matrix,
        &case.b.matrix,
        &HhCpuConfig::default(),
        &ShardConfig::out_of_core(SHARDS, cap),
        artifacts,
    )
}

/// Check one sharded op: C must equal the monolithic expected C bit for
/// bit, and at least one band must have spilled (else the workload does
/// not exercise its mechanism and the run is misconfigured).
fn check(out: &ShardedOutput<f64>, case: &Case) -> Result<bool, String> {
    if out.spilled_shards == 0 {
        return Err(format!(
            "misconfigured: no band spilled under cap {} B (bytes(C) = {} B)",
            byte_cap(case),
            case.expected.c.byte_size()
        ));
    }
    let want = &case.expected.c;
    Ok(out.output.c == *want
        && out
            .output
            .c
            .values()
            .iter()
            .map(|v| v.to_bits())
            .eq(want.values().iter().map(|v| v.to_bits())))
}

/// Isolated out-of-core multiplies of `case` for the traced runs of the
/// other workloads: median ms and spilled bands per multiply.
pub fn shard_probe(
    case: &Case,
    tracer: &Tracer,
    base_warm_ms: f64,
) -> Result<ShardFigures, String> {
    let mut ctx = HeteroContext::scaled(case.scale());
    let artifacts = SpmmArtifacts::build(
        &ctx,
        &case.a.matrix,
        &case.b.matrix,
        ThresholdPolicy::default(),
    );
    let cap = byte_cap(case);
    let mut ms = Vec::new();
    let mut spilled = Vec::new();
    for _ in 0..3 {
        let (out, t) = harness::time_ms(|| {
            tracer.span("shard.ooc", ISOLATED, SpanId::NONE, || {
                sharded(&mut ctx, case, &artifacts, cap)
            })
        });
        if !check(&out, case)? {
            return Err(format!(
                "{}: isolated out-of-core C differs from the monolithic C",
                case.label()
            ));
        }
        ms.push(t);
        spilled.push(out.spilled_shards as f64);
    }
    Ok(ShardFigures {
        ooc_ms: stats::median(&ms),
        spilled_bands: stats::mean(&spilled),
        base_warm_ms,
    })
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let (mut state, setup_s) = harness::repeated_setup(|| setup(args.seed))?;
    let cap = byte_cap(&state.case);
    let State {
        case,
        artifacts,
        ctx,
    } = &mut state;
    let mut notes = vec![
        format!("operands: [{}]", case.describe()),
        format!("byte_cap: {cap} B (bytes(C)/2), shards: {SHARDS}"),
    ];

    if !args.trace {
        let mut spilled = 0usize;
        let t = harness::closed_loop(args.seconds, |_| {
            let (out, ms) = harness::time_ms(|| sharded(ctx, case, artifacts, cap));
            spilled += out.spilled_shards;
            Ok((ms, check(&out, case)?))
        })?;
        notes.push(format!(
            "spilled bands per op: {:.2}",
            spilled as f64 / t.latencies_ms.len() as f64
        ));
        let e2e = EndToEnd {
            setup_s,
            attempted: t.latencies_ms.len() as u64,
            peak_rss_mb: stats::median(&t.peaks_mb),
            latencies_ms: t.latencies_ms,
            done_s: t.done_s,
            block: BLOCK,
            timed_wall_s: t.wall_s,
            failed: t.failed,
        };
        notes.push(e2e.summary());
        let mut r = e2e.into_report();
        r.notes = notes;
        return Ok(r);
    }

    let tracer = Tracer::new(true);
    let mut spilled = Vec::new();
    let alt = harness::alternating_loop(args.seconds, 1, |i, _, traced| {
        let (out, ms) = if traced {
            let op = tracer.open("op", i + 1, SpanId::NONE);
            let r = harness::time_ms(|| {
                tracer.span("shard.ooc", i + 1, op, || {
                    sharded(ctx, case, artifacts, cap)
                })
            });
            tracer.close(op);
            r
        } else {
            harness::time_ms(|| sharded(ctx, case, artifacts, cap))
        };
        spilled.push(out.spilled_shards as f64);
        Ok((ms, check(&out, case)?))
    })?;
    let probe = layers::probe(case, &tracer, &args.tmp)?;
    let shard = ShardFigures {
        ooc_ms: stats::median(&alt.plain[0]),
        spilled_bands: stats::mean(&spilled),
        base_warm_ms: probe.warm_ms,
    };
    workload::traced_report(args, &tracer, &alt, &[probe], None, shard, None, notes)
}
