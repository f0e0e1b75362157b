//! The drain, copy and csrmm kernels must reproduce the serial reference.
//!
//! The numeric hot loops — SoA accumulator drains, the scaled verbatim
//! copy, branchless list inserts, packed hash drains, the two-run merge,
//! and the register-tiled csrmm sweep (AVX2 on hosts that have it, a
//! portable tile elsewhere) — reorder no floating-point reduction. So the
//! production engine's product is pinned bit for bit to
//! `reference::spmm_rowrow` on inputs built to hit every remainder-lane
//! row size (`nnz ≡ 0..7 mod 8`) and empty rows, across all four
//! algorithm paths, both executors and several host thread counts; the
//! tiled csrmm is pinned bit for bit to `reference::csrmm`. The one
//! FP-reordering variant — the tree-reduced csrmm tile — is opt-in and is
//! pinned here to a tolerance, never to bits.

use hetero_spmm::prelude::*;

fn matrix(n: usize, nnz: usize, seed: u64) -> CsrMatrix<f64> {
    scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, 2.2, seed))
}

/// Bitwise equality of two CSR matrices: same structure, and every value
/// the same `f64` bit pattern (so `-0.0` and `0.0` differ).
fn assert_bits(got: &CsrMatrix<f64>, want: &CsrMatrix<f64>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(got.indptr(), want.indptr(), "{what}: row offsets");
    assert_eq!(got.indices(), want.indices(), "{what}: columns");
    let bits = |m: &CsrMatrix<f64>| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: value bits");
}

/// A matrix pair built so output rows cover every drain remainder class:
/// `nnz(C[i,:]) ≡ 0..7 (mod 8)`, rows drained through the copy path, rows
/// merged from two B-rows, fully empty rows, and rows fed by empty B rows.
fn remainder_lane_inputs() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
    let n = 48usize;
    // B: row j holds j % 17 entries (0..=16 spans every residue mod 8,
    // including empty rows) starting at column j, values a fixed pattern.
    let mut b = CooMatrix::new(n, n);
    for j in 0..n {
        for k in 0..(j % 17).min(n - j) {
            let c = j + k;
            b.push(j, c, ((j * 31 + c) % 23) as f64 * 0.5 - 3.0);
        }
    }
    // A: even rows are single-entry (copy path ⇒ C row = scaled B row,
    // every width of B appears verbatim); odd rows sum two adjacent B rows
    // (overlapping column ranges ⇒ genuine accumulation, union sizes
    // spread across residues). Row n-1 is left fully empty.
    let mut a = CooMatrix::new(n, n);
    for i in 0..n - 1 {
        if i % 2 == 0 {
            a.push(i, i, 1.5);
        } else {
            a.push(i, i - 1, -0.75);
            a.push(i, i, 2.0);
        }
    }
    (a.to_csr().unwrap(), b.to_csr().unwrap())
}

#[test]
fn remainder_lanes_and_empty_rows_are_bit_equal() {
    let (a, b) = remainder_lane_inputs();
    let expected = reference::spmm_rowrow(&a, &b).unwrap();
    // sanity: the construction really covers every residue class mod 8
    let mut residues = [false; 8];
    let mut empties = 0;
    for i in 0..expected.nrows() {
        let nnz = expected.row_nnz(i);
        residues[nnz % 8] = true;
        empties += usize::from(nnz == 0);
    }
    assert!(
        residues.iter().all(|&r| r) && empties > 0,
        "construction must cover nnz ≡ 0..7 (mod 8) and empty rows: {residues:?}, {empties}"
    );
    let units = WorkUnitConfig::auto(a.nrows());
    for threads in [1usize, 2, 8] {
        let mut ctx = HeteroContext::scaled(32).with_host_threads(threads);
        for policy in [ExecPolicy::PerClaim, ExecPolicy::Batched] {
            let what = format!("{threads} threads, {policy:?}");
            let exec = ExecConfig::from(policy);
            let hh_cfg = HhCpuConfig {
                exec: policy,
                ..HhCpuConfig::default()
            };
            let hh = hh_cpu(&mut ctx, &a, &b, &hh_cfg);
            assert_bits(&hh.c, &expected, &format!("hh_cpu ({what})"));
            let hipc = hipc2012_with(&mut ctx, &a, &b, exec);
            assert_bits(&hipc.c, &expected, &format!("hipc2012 ({what})"));
            let uns = unsorted_workqueue_with(&mut ctx, &a, &b, units, exec);
            assert_bits(&uns.c, &expected, &format!("unsorted_workqueue ({what})"));
            let srt = sorted_workqueue_with(&mut ctx, &a, &b, units, exec);
            assert_bits(&srt.c, &expected, &format!("sorted_workqueue ({what})"));
        }
    }
}

#[test]
fn tiled_csrmm_is_bit_equal_to_reference() {
    // widths straddle the 8-wide tile: full tiles, ragged tails, sub-tile
    let a = matrix(600, 4_200, 74);
    for k in [5usize, 8, 13, 24] {
        let data: Vec<f64> = (0..a.ncols() * k)
            .map(|i| (i % 29) as f64 * 0.125 - 1.0)
            .collect();
        let b = DenseMatrix::from_row_major(a.ncols(), k, data);
        let expected = reference::csrmm(&a, &b).unwrap();
        let mut ctx = HeteroContext::paper();
        let c = hh_csrmm(&mut ctx, &a, &b, ThresholdPolicy::Fixed { t_a: 6, t_b: 6 }).c;
        assert!(
            c.data()
                .iter()
                .zip(expected.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "tiled csrmm (width {k}) drifted from reference bits"
        );
    }
}

#[test]
fn tree_reduced_csrmm_is_tolerance_gated_only() {
    // The opt-in kernel reorders the FP sum: pin it to a tolerance and
    // *document* (not require) that its bits may differ from the oracle.
    let a = matrix(600, 4_200, 75);
    let k = 16;
    let data: Vec<f64> = (0..a.ncols() * k)
        .map(|i| ((i * 7) % 31) as f64 * 0.25 - 2.0)
        .collect();
    let b = DenseMatrix::from_row_major(a.ncols(), k, data);
    let expected = reference::csrmm(&a, &b).unwrap();
    let mut ctx = HeteroContext::paper();
    let out = hetero_spmm::core::csrmm::hh_csrmm_with_kernel(
        &mut ctx,
        &a,
        &b,
        ThresholdPolicy::Fixed { t_a: 6, t_b: 6 },
        CsrmmKernel::TreeReduced,
    );
    assert!(
        out.c.approx_eq(&expected, 1e-9, 1e-12),
        "tree-reduced csrmm outside tolerance"
    );
}
