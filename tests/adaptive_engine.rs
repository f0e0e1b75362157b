//! The adaptive engine is a perf knob only.
//!
//! The default engine routes rows by their structural upper bound: rows
//! whose bound fits the staging budget skip the symbolic pass and scatter
//! once through the accumulator the bound selects (verbatim copy / sorted
//! list / open-addressing hash / dense SPA), drain into pooled staging and
//! are stitched into place by a compaction pass; heavier rows are sized
//! exactly first. Every variant scatters in the same A-row visit order
//! (first touch sets, later touches `+=`) and drains ascending by column,
//! and the indptr scan runs over exact integer sizes, so the
//! floating-point bits of the result must be *identical* to the fixed
//! dense-SPA reference — not approximately equal, identical. These tests
//! pin that contract across all four algorithm paths, both executors,
//! several host thread counts, and both the `A = B` self-product and the
//! `A ≠ B` case: identical output matrix, identical simulated
//! `PhaseBreakdown`, identical thresholds, identical `tuples_merged`.
//! `tests/fused_engine.rs` holds the same check on other inputs, all 12
//! Table I clones and the sharded driver.

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

fn check_all_paths(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, label: &str) {
    let units = WorkUnitConfig::auto(a.nrows());
    for threads in [1usize, 2, 8] {
        let what = format!("{label}, {threads} host threads");
        let mut ctx = HeteroContext::scaled(32).with_host_threads(threads);
        for policy in [ExecPolicy::PerClaim, ExecPolicy::Batched] {
            let fixed = ExecConfig {
                policy,
                accum: AccumStrategy::FixedSpa,
            };
            let adaptive = ExecConfig {
                policy,
                accum: AccumStrategy::Adaptive,
            };

            let hh_fix = hh_cpu(
                &mut ctx,
                a,
                b,
                &HhCpuConfig {
                    exec: policy,
                    accum: AccumStrategy::FixedSpa,
                    ..HhCpuConfig::default()
                },
            );
            let hh_ada = hh_cpu(
                &mut ctx,
                a,
                b,
                &HhCpuConfig {
                    exec: policy,
                    accum: AccumStrategy::Adaptive,
                    ..HhCpuConfig::default()
                },
            );
            assert_identical(&hh_ada, &hh_fix, &format!("hh_cpu ({what}, {policy:?})"));

            let hipc_fix = hipc2012_with(&mut ctx, a, b, fixed);
            let hipc_ada = hipc2012_with(&mut ctx, a, b, adaptive);
            assert_identical(
                &hipc_ada,
                &hipc_fix,
                &format!("hipc2012 ({what}, {policy:?})"),
            );

            let uns_fix = unsorted_workqueue_with(&mut ctx, a, b, units, fixed);
            let uns_ada = unsorted_workqueue_with(&mut ctx, a, b, units, adaptive);
            assert_identical(
                &uns_ada,
                &uns_fix,
                &format!("unsorted_workqueue ({what}, {policy:?})"),
            );

            let srt_fix = sorted_workqueue_with(&mut ctx, a, b, units, fixed);
            let srt_ada = sorted_workqueue_with(&mut ctx, a, b, units, adaptive);
            assert_identical(
                &srt_ada,
                &srt_fix,
                &format!("sorted_workqueue ({what}, {policy:?})"),
            );
        }
    }
}

#[test]
fn adaptive_engine_is_bit_equal_on_self_product() {
    let a = matrix(3_000, 21_000, 51);
    check_all_paths(&a, &a, "A = A");
}

#[test]
fn adaptive_engine_is_bit_equal_on_distinct_inputs() {
    // different row-size profiles on the two sides exercise the dual
    // threshold pair and the A_H × B_L / A_L × B_H cross products, which
    // land rows in every bin (copy rows from single-source masks, tiny
    // list rows, hash mid-rows, dense SPA rows)
    let a = matrix(2_000, 10_000, 52);
    let b = matrix(2_000, 28_000, 53);
    check_all_paths(&a, &b, "A != B");
    check_all_paths(&b, &a, "B != A");
}

#[test]
fn adaptive_engine_is_bit_equal_on_catalog_clone() {
    let a = Dataset::by_name("wiki-Vote").unwrap().load::<f64>(32);
    check_all_paths(&a, &a, "wiki-Vote");
}

#[test]
fn workspace_pool_survives_products_of_different_widths() {
    // One context (one workspace pool) multiplying matrices of different
    // column counts back and forth: pooled workspaces are width-agnostic
    // (`ensure_ncols` grows, generations invalidate), so results must stay
    // exactly what a fresh context produces.
    let wide = matrix(1_500, 12_000, 54);
    let narrow = matrix(400, 2_400, 55);
    let mut shared = HeteroContext::scaled(32).with_host_threads(4);
    for _ in 0..2 {
        for m in [&wide, &narrow, &wide] {
            let reused = hh_cpu(&mut shared, m, m, &HhCpuConfig::default());
            let mut fresh_ctx = HeteroContext::scaled(32).with_host_threads(4);
            let fresh = hh_cpu(&mut fresh_ctx, m, m, &HhCpuConfig::default());
            assert_identical(&reused, &fresh, "pooled workspaces across widths");
        }
    }
}
