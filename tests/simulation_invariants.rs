//! Invariants of the simulation substrate itself: determinism, platform
//! scaling, and profile self-consistency across every algorithm.

use hetero_spmm::prelude::*;

fn matrix(seed: u64) -> CsrMatrix<f64> {
    scale_free_matrix(&GeneratorConfig::square_power_law(4_000, 24_000, 2.3, seed))
}

#[test]
fn simulated_times_are_deterministic_across_contexts() {
    let a = matrix(1);
    let mut c1 = HeteroContext::paper();
    let mut c2 = HeteroContext::paper();
    let o1 = hh_cpu(&mut c1, &a, &a, &HhCpuConfig::default());
    let o2 = hh_cpu(&mut c2, &a, &a, &HhCpuConfig::default());
    assert_eq!(o1.total_ns(), o2.total_ns());
    assert_eq!(o1.profile.walls(), o2.profile.walls());
    assert_eq!(o1.c, o2.c);
}

#[test]
fn profiles_are_self_consistent_for_every_algorithm() {
    let a = matrix(2);
    let mut ctx = HeteroContext::paper();
    let units = WorkUnitConfig::auto(a.nrows());
    let outs = [
        hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default()),
        hipc2012(&mut ctx, &a, &a),
        mkl_like(&mut ctx, &a, &a),
        cusparse_like(&mut ctx, &a, &a),
        unsorted_workqueue(&mut ctx, &a, &a, units),
        sorted_workqueue(&mut ctx, &a, &a, units),
    ];
    for out in &outs {
        let p = out.profile;
        // total = Σ phase walls + transfer, and every component is finite
        let sum: f64 = p.walls().iter().sum::<f64>() + p.transfer_ns;
        assert!((p.total() - sum).abs() < 1e-6);
        for w in p.walls() {
            assert!(w.is_finite() && w >= 0.0);
        }
        assert!(p.transfer_ns >= 0.0);
        // the product is the same across all algorithms
        assert_eq!(out.c.nnz(), outs[0].c.nnz());
    }
}

#[test]
fn platform_scaling_preserves_device_specs_shape() {
    for scale in [1usize, 2, 8, 32, 100] {
        let p = Platform::scaled(scale);
        // invariant knobs
        assert_eq!(p.cpu.cores, 6);
        assert_eq!(p.gpu.sms, 13);
        assert_eq!(p.gpu.warp_width, 32);
        // monotone knobs
        assert!(p.cpu.hierarchy.l3.size_bytes <= Platform::paper().cpu.hierarchy.l3.size_bytes);
        assert!(p.link.bandwidth_gbps >= Platform::paper().link.bandwidth_gbps);
        // geometry stays legal (constructing the devices validates it)
        let _ = HeteroContext::new(p);
    }
}

#[test]
fn warm_caches_never_slow_a_device_down() {
    // running the same product twice on one context must not be slower the
    // second time (cache state only helps)
    let a = matrix(3);
    let mut ctx = HeteroContext::paper();
    let rows: Vec<usize> = (0..a.nrows()).collect();
    let first = ctx.cpu.spmm_cost(&a, &a, rows.iter().copied(), None);
    let second = ctx.cpu.spmm_cost(&a, &a, rows.iter().copied(), None);
    assert!(second <= first * 1.0001, "warm {second} vs cold {first}");
}

#[test]
fn bigger_inputs_cost_more_simulated_time() {
    let mut ctx = HeteroContext::paper();
    let small = matrix(4);
    let big = scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(8_000, 48_000, 2.3, 4));
    let t_small = hh_cpu(&mut ctx, &small, &small, &HhCpuConfig::default()).total_ns();
    let t_big = hh_cpu(&mut ctx, &big, &big, &HhCpuConfig::default()).total_ns();
    assert!(t_big > t_small, "big {t_big} vs small {t_small}");
}

#[test]
fn transfer_grows_with_matrix_bytes() {
    let ctx = HeteroContext::paper();
    let small = ctx.link.transfer_ns(1 << 16);
    let large = ctx.link.transfer_ns(1 << 24);
    assert!(large > small * 10.0);
}

#[test]
fn spmv_and_csrmm_extensions_share_the_substrate() {
    use hetero_spmm::core::{csrmm, spmv};
    let a = matrix(5);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 5) as f64).collect();
    let b = DenseMatrix::from_row_major(
        a.ncols(),
        8,
        (0..a.ncols() * 8).map(|i| (i % 3) as f64 - 1.0).collect(),
    );
    let mut ctx = HeteroContext::paper();
    let sv = spmv::hh_spmv(&mut ctx, &a, &x, ThresholdPolicy::default());
    let sm = csrmm::hh_csrmm(&mut ctx, &a, &b, ThresholdPolicy::default());
    assert!(sv.total_ns() > 0.0 && sv.total_ns().is_finite());
    assert!(sm.total_ns() > 0.0 && sm.total_ns().is_finite());
    // spmv of ones == row sums of A
    let ones = vec![1.0; a.ncols()];
    let out = spmv::hh_spmv(&mut ctx, &a, &ones, ThresholdPolicy::default());
    for (i, y) in out.y.iter().enumerate() {
        let want: f64 = a.row(i).1.iter().sum();
        assert!((y - want).abs() < 1e-9);
    }
}
