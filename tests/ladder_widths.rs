//! The one-pass ladder width tables against the per-candidate oracle.
//!
//! `LadderWidths::build` answers every Phase-I ladder candidate's masked
//! GPU output widths from one min/max-source-bucket scatter. For every
//! candidate `t` its tables must be byte-equal to the retained per-mask
//! reference passes:
//!
//! * `low(j)` equals `masked_output_widths` under the `B_L(t)` mask;
//! * `high(j)` equals `masked_output_widths_for` under the `B_H(t)` mask
//!   on the `A_L(t)` rows.
//!
//! Checked on all 12 Table-I clones for `A = B` and for an `A ≠ B` pair
//! whose B has the longer tail, at 1, 2 and 8 host threads, plus the edge
//! cases the scatter has fast paths or guards for: empty rows, rows whose
//! sources are all masked, single-source rows, one-entry ladders, and a
//! stamp generation forced through its `u32` wrap.

use hetero_spmm::core::threshold::{classify, empirical_ladder, LadderWidths};
use hetero_spmm::hetsim::gpu::{masked_output_widths, masked_output_widths_for};
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::scalefree::{scale_free_matrix, Dataset, GeneratorConfig};
use hetero_spmm::sparse::{CooMatrix, CsrMatrix};

const THREADS: [usize; 3] = [1, 2, 8];

/// The oracle tables of candidate `(t_a, t_b)`.
fn oracle(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, t_a: usize, t_b: usize) -> (Vec<u32>, Vec<u32>) {
    let pool = ThreadPool::new(2);
    let b_high = classify(b, t_b);
    let b_low: Vec<bool> = b_high.iter().map(|&h| !h).collect();
    let rows_al: Vec<usize> = classify(a, t_a)
        .iter()
        .enumerate()
        .filter(|&(_, &h)| !h)
        .map(|(i, _)| i)
        .collect();
    let low = masked_output_widths(a, b, Some(&b_low), &pool);
    let high = masked_output_widths_for(a, b, Some(&b_high), &rows_al, &pool);
    (low, high)
}

/// Every candidate of `(t_a, t_b)` matches the oracle at every thread count.
fn assert_ladder(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, t_a: &[usize], t_b: &[usize], what: &str) {
    let expected: Vec<_> = t_a
        .iter()
        .zip(t_b)
        .map(|(&ta, &tb)| oracle(a, b, ta, tb))
        .collect();
    for threads in THREADS {
        let widths = LadderWidths::build(a, b, t_a, t_b, &ThreadPool::new(threads));
        for (j, (low, high)) in expected.iter().enumerate() {
            let t = (t_a[j], t_b[j]);
            assert_eq!(
                widths.low(j),
                &low[..],
                "{what}: low table, t = {t:?}, {threads} threads"
            );
            assert_eq!(
                widths.high(j),
                &high[..],
                "{what}: high table, t = {t:?}, {threads} threads"
            );
        }
    }
}

/// The production ladder for `a × b`.
fn ladder(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>) -> Vec<usize> {
    empirical_ladder(a.max_row_nnz().max(b.max_row_nnz()), 10)
}

fn csr(nrows: usize, ncols: usize, entries: &[(usize, usize)]) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::with_capacity(nrows, ncols, entries.len());
    for &(r, c) in entries {
        coo.push(r, c, 1.0);
    }
    coo.to_csr().unwrap()
}

#[test]
fn ladder_tables_match_the_oracle_on_every_clone_self_product() {
    for dataset in Dataset::all() {
        let a = dataset.load::<f64>(256);
        let ladder = ladder(&a, &a);
        assert_ladder(&a, &a, &ladder, &ladder, dataset.entry().name);
    }
}

#[test]
fn ladder_tables_match_the_oracle_when_b_has_the_longer_tail() {
    for dataset in Dataset::all() {
        let a = dataset.load::<f64>(256);
        // more entries and a smaller exponent: B's hub rows outgrow A's,
        // so the ladder spans thresholds A alone would never reach
        let n = a.nrows();
        let b = scale_free_matrix(&GeneratorConfig::square_power_law(n, 3 * a.nnz(), 2.0, 17));
        assert!(
            b.max_row_nnz() > a.max_row_nnz(),
            "{}",
            dataset.entry().name
        );
        let ladder = ladder(&a, &b);
        assert_ladder(&a, &b, &ladder, &ladder, dataset.entry().name);
    }
}

#[test]
fn one_entry_ladder_matches_the_oracle_for_split_thresholds() {
    // the Fixed / Balanced policies: one candidate, t_a ≠ t_b, including
    // the clamped t = 0 and t = 1 ends and a t past every row
    let a = scale_free_matrix(&GeneratorConfig::square_power_law(3_000, 18_000, 2.2, 5));
    for (t_a, t_b) in [(0, 0), (1, 1), (4, 9), (9, 4), (1, 10_000), (10_000, 1)] {
        assert_ladder(&a, &a, &[t_a], &[t_b], "one-entry ladder");
    }
}

#[test]
fn edge_rows_match_the_oracle() {
    // B's rows hold 0, 1, 2, 4 and 8 entries (rows 5..8 empty). A's
    // rows: 0 empty; 1 only empty sources; 2 and 5 a single non-empty
    // source next to an empty one; 3 sources of every size overlapping on
    // column 0; 4 only the hub source
    let b = csr(
        8,
        8,
        &[
            (1, 0),
            (2, 0),
            (2, 1),
            (3, 0),
            (3, 1),
            (3, 2),
            (3, 3),
            (4, 0),
            (4, 1),
            (4, 2),
            (4, 3),
            (4, 4),
            (4, 5),
            (4, 6),
            (4, 7),
        ],
    );
    let a = csr(
        6,
        8,
        &[
            (1, 0),
            (1, 5),
            (2, 0),
            (2, 2),
            (3, 1),
            (3, 2),
            (3, 3),
            (3, 4),
            (4, 4),
            (5, 0),
            (5, 1),
        ],
    );
    for t_b in [vec![1], vec![2], vec![1, 2, 3, 5, 9], vec![2, 2, 4, 4]] {
        assert_ladder(&a, &b, &t_b, &t_b, "edge rows");
    }
    // every source masked off under B_H (nothing reaches the threshold)
    assert_ladder(&a, &b, &[100], &[100], "all sources low");
    // an A with no rows at all
    let empty = csr(0, 8, &[]);
    let widths = LadderWidths::build(&empty, &b, &[2, 4], &[2, 4], &ThreadPool::new(2));
    assert_eq!(widths.low(1), &[] as &[u32]);
    assert_eq!(widths.high(0), &[] as &[u32]);
}

#[test]
fn stamp_generation_wrap_cannot_alias_stale_columns() {
    // every worker starts two rows short of the u32 wrap, its stamps
    // holding a generation the counter reaches again after it: the wrap
    // guard must keep those stale slots from reading as touched
    let a = scale_free_matrix(&GeneratorConfig::square_power_law(600, 4_000, 2.1, 42));
    let ladder = ladder(&a, &a);
    for threads in THREADS {
        let pool = ThreadPool::new(threads);
        let plain = LadderWidths::build(&a, &a, &ladder, &ladder, &pool);
        let wrapped = LadderWidths::build_near_wrap(&a, &a, &ladder, &ladder, &pool);
        for j in 0..ladder.len() {
            assert_eq!(wrapped.low(j), plain.low(j), "{threads} threads");
            assert_eq!(wrapped.high(j), plain.high(j), "{threads} threads");
        }
    }
}
