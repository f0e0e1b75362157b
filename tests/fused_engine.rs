//! The fused single-pass numeric tier is a perf knob only.
//!
//! Rows whose structural upper bound (Σ over k∈A(i,:) of |B(k,:)|) fits the
//! staging budget skip the symbolic pass: they scatter once through the
//! accumulator their *bound* selects, drain into pooled staging buffers, and
//! a compaction pass stitches them next to the exactly-sized heavy rows.
//! Every row is still produced by the same scatter order (first touch sets,
//! later touches `+=`) and the same ascending drain, staged runs are copied
//! verbatim, and the indptr scan runs over exact integer sizes — so the
//! floating-point bits of the result must be *identical* to the fixed
//! dense-SPA reference (`AccumStrategy::FixedSpa`). Not approximately equal:
//! identical. The fused tier is what `AccumStrategy::Adaptive` runs, so
//! these tests pin that contract across all four algorithm paths, both
//! executors, several host thread counts, `A = B` and `A ≠ B`, all 12
//! Table I clones, and the sharded driver, by pairing each Adaptive run
//! with a `FixedSpa` run of the same product. `tests/adaptive_engine.rs`
//! holds the same check on other inputs.

use hetero_spmm::prelude::*;

fn matrix(n: usize, nnz: usize, seed: u64) -> CsrMatrix<f64> {
    scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, 2.2, seed))
}

/// Assert two runs of the same algorithm agree on everything an
/// `SpmmOutput` records, bit for bit.
fn assert_identical(got: &SpmmOutput<f64>, want: &SpmmOutput<f64>, what: &str) {
    assert_eq!(got.c, want.c, "{what}: output matrix diverged");
    assert_eq!(got.profile, want.profile, "{what}: PhaseBreakdown diverged");
    assert_eq!(
        (got.threshold_a, got.threshold_b),
        (want.threshold_a, want.threshold_b),
        "{what}: thresholds diverged"
    );
    assert_eq!(
        got.tuples_merged, want.tuples_merged,
        "{what}: tuples_merged diverged"
    );
}

/// Run `run` once with the `FixedSpa` reference and once with the fused
/// (Adaptive) engine, and require bit-identical outputs.
fn fused_vs_reference(mut run: impl FnMut(AccumStrategy) -> SpmmOutput<f64>, what: &str) {
    let reference = run(AccumStrategy::FixedSpa);
    let fused_out = run(AccumStrategy::Adaptive);
    assert_identical(&fused_out, &reference, what);
}

fn check_all_paths(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, label: &str, threads: &[usize]) {
    let units = WorkUnitConfig::auto(a.nrows());
    for &threads in threads {
        let what = format!("{label}, {threads} host threads");
        let mut ctx = HeteroContext::scaled(32).with_host_threads(threads);
        for policy in [ExecPolicy::PerClaim, ExecPolicy::Batched] {
            let cfg = |accum| ExecConfig { policy, accum };

            fused_vs_reference(
                |accum| {
                    let hh_cfg = HhCpuConfig {
                        exec: policy,
                        accum,
                        ..HhCpuConfig::default()
                    };
                    hh_cpu(&mut ctx, a, b, &hh_cfg)
                },
                &format!("hh_cpu ({what}, {policy:?})"),
            );
            fused_vs_reference(
                |accum| hipc2012_with(&mut ctx, a, b, cfg(accum)),
                &format!("hipc2012 ({what}, {policy:?})"),
            );
            fused_vs_reference(
                |accum| unsorted_workqueue_with(&mut ctx, a, b, units, cfg(accum)),
                &format!("unsorted_workqueue ({what}, {policy:?})"),
            );
            fused_vs_reference(
                |accum| sorted_workqueue_with(&mut ctx, a, b, units, cfg(accum)),
                &format!("sorted_workqueue ({what}, {policy:?})"),
            );
        }
    }
}

#[test]
fn fused_engine_is_bit_equal_on_self_product() {
    let a = matrix(3_000, 21_000, 61);
    check_all_paths(&a, &a, "A = A", &[1, 2, 8]);
}

#[test]
fn fused_engine_is_bit_equal_on_distinct_inputs() {
    // different row-size profiles on the two sides exercise the dual
    // threshold pair and the A_H × B_L / A_L × B_H cross products: copy
    // rows from single-source masks, bounded list/hash/dense rows, and
    // heavy hub rows that must keep the exact symbolic pass
    let a = matrix(2_000, 10_000, 62);
    let b = matrix(2_000, 28_000, 63);
    check_all_paths(&a, &b, "A != B", &[1, 2, 8]);
    check_all_paths(&b, &a, "B != A", &[1, 2, 8]);
}

#[test]
fn fused_engine_is_bit_equal_on_all_table1_clones() {
    // every Table I clone self-product plus a distinct-B product per clone,
    // so each published row-size distribution routes rows through the fused
    // tier at least once; debug-build runtime keeps the clones at a deeper
    // shrink than the release benches (bit-identity is scale-independent)
    for d in Dataset::all() {
        let a = d.load::<f64>(256);
        check_all_paths(&a, &a, d.entry().name, &[1, 2, 8]);
        let b = matrix(a.nrows(), a.nnz(), 64);
        check_all_paths(&a, &b, &format!("{} != B", d.entry().name), &[2]);
    }
}

#[test]
fn fused_engine_is_bit_equal_under_sharding() {
    // the sharded driver re-enters the same engines per row band; an
    // explicit 4-band pooled plan forces real multi-shard stitching even
    // at test sizes
    let a = matrix(4_000, 28_000, 65);
    let reference_cfg = HhCpuConfig {
        accum: AccumStrategy::FixedSpa,
        ..HhCpuConfig::default()
    };
    for threads in [1usize, 4] {
        let mut ctx = HeteroContext::scaled(32).with_host_threads(threads);
        let shard = ShardConfig::pooled(4);
        let reference = hh_cpu_sharded(&mut ctx, &a, &a, &reference_cfg, &shard);
        let fused_out = hh_cpu_sharded(&mut ctx, &a, &a, &HhCpuConfig::default(), &shard);
        assert_eq!(
            fused_out.output.c, reference.output.c,
            "sharded fused output diverged ({threads} threads)"
        );
        assert_eq!(
            fused_out.plan.shards(),
            reference.plan.shards(),
            "shard plan diverged ({threads} threads)"
        );
    }
}
