//! `CsrMatrix::content_hash` is the identity of the serve registry and the
//! wire proof of bit equality (`c_hash`), so a change to any stored word
//! must change it. These tests flip single bits in every word of every
//! field, at every array length from 0 to 9 (all lane remainders of the
//! four-lane hash), and check the representation details a bit-identity
//! contract cares about: signed zeros, NaN payloads and the shape.

use hetero_spmm::sparse::CsrMatrix;

const NCOLS: usize = 40;

/// `nrows × NCOLS` with `nnz` entries spread over the rows (the last row
/// takes the remainder; with no rows there are no entries).
fn matrix(nrows: usize, nnz: usize) -> CsrMatrix<f64> {
    let nnz = if nrows == 0 { 0 } else { nnz };
    let indptr = (0..=nrows)
        .map(|r| {
            if r == nrows {
                nnz
            } else {
                r * nnz / nrows.max(1)
            }
        })
        .collect();
    let indices = (0..nnz).map(|k| (k * 7 % NCOLS) as u32).collect();
    let values = (0..nnz).map(|k| 0.5 + k as f64).collect();
    CsrMatrix::from_parts_unchecked(nrows, NCOLS, indptr, indices, values)
}

fn parts(m: &CsrMatrix<f64>) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    (
        m.indptr().to_vec(),
        m.indices().to_vec(),
        m.values().to_vec(),
    )
}

fn rebuild(m: &CsrMatrix<f64>, (indptr, indices, values): (Vec<usize>, Vec<u32>, Vec<f64>)) -> u64 {
    CsrMatrix::from_parts_unchecked(m.nrows(), m.ncols(), indptr, indices, values).content_hash()
}

#[test]
fn a_single_bit_flip_in_any_word_changes_the_hash() {
    for nrows in 0..=8 {
        for nnz in 0..=9 {
            let m = matrix(nrows, nnz);
            let base = m.content_hash();
            for i in 0..m.indptr().len() {
                for bit in [0, 17, 31, 32, 63] {
                    let mut p = parts(&m);
                    p.0[i] ^= 1 << bit;
                    assert_ne!(rebuild(&m, p), base, "{nrows}x{nnz}: indptr[{i}] bit {bit}");
                }
            }
            for i in 0..m.nnz() {
                for bit in [0, 15, 16, 31] {
                    let mut p = parts(&m);
                    p.1[i] ^= 1 << bit;
                    assert_ne!(
                        rebuild(&m, p),
                        base,
                        "{nrows}x{nnz}: indices[{i}] bit {bit}"
                    );
                }
                for bit in [0, 31, 32, 52, 63] {
                    let mut p = parts(&m);
                    p.2[i] = f64::from_bits(p.2[i].to_bits() ^ (1 << bit));
                    assert_ne!(rebuild(&m, p), base, "{nrows}x{nnz}: values[{i}] bit {bit}");
                }
            }
        }
    }
}

#[test]
fn lengths_are_part_of_the_identity() {
    // every (rows, nnz) pair of the sweep hashes to its own value, so an
    // empty tail word can never stand in for a missing entry
    let mut seen = std::collections::HashSet::new();
    for nrows in 0..=8 {
        for nnz in 0..=9 {
            if nrows == 0 && nnz > 0 {
                continue;
            }
            assert!(
                seen.insert(matrix(nrows, nnz).content_hash()),
                "{nrows}x{nnz} collided"
            );
        }
    }
}

#[test]
fn signed_zeros_and_nan_payloads_hash_apart() {
    let with =
        |v: f64| CsrMatrix::from_parts_unchecked(1, 2, vec![0, 1], vec![1], vec![v]).content_hash();
    assert_ne!(with(0.0), with(-0.0));
    assert_ne!(
        with(f64::from_bits(0x7ff8_0000_0000_0001)),
        with(f64::from_bits(0x7ff8_0000_0000_0002))
    );
    assert_ne!(with(f64::NAN), with(-f64::NAN));
    assert_eq!(with(f64::NAN), with(f64::NAN));
}

#[test]
fn shape_changes_the_hash_with_identical_arrays() {
    let m = matrix(3, 5);
    let (indptr, indices, values) = parts(&m);
    let wider = CsrMatrix::from_parts_unchecked(3, NCOLS + 1, indptr, indices, values);
    assert_ne!(wider.content_hash(), m.content_hash());
}

#[test]
fn equal_matrices_hash_equal_and_one_value_is_pinned() {
    // the paper's Figure 2 matrix; a change to this value is a deliberate
    // change of the hash (every `c_hash` and registry key moves with it)
    let a = CsrMatrix::try_new(
        4,
        4,
        vec![0, 2, 4, 6, 8],
        vec![1, 2, 2, 3, 0, 2, 0, 3],
        vec![2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 4.0],
    )
    .unwrap();
    assert_eq!(a.content_hash(), a.clone().content_hash());
    assert_eq!(a.content_hash(), 0xfcba_5217_92e7_be94);
}
