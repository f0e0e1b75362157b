//! Hostile Matrix Market headers are parse errors, never panics, aborts or
//! huge allocations.
//!
//! A `.mtx` size line is client input (`spmm_serve`'s `load_path` reads
//! any file it names), so the reader checks it before sizing anything:
//! each dimension must fit the `ColIndex` range the coordinates are stored
//! in, the declared entry count may not exceed `nrows·ncols` (checked
//! multiply), and the up-front reservation is capped whatever the count.

use hetero_spmm::sparse::io::{read_matrix_market, read_matrix_market_from};
use hetero_spmm::sparse::{CsrMatrix, SparseError};

/// Files whose size lines used to crash the reader: a huge
/// declared nnz (capacity overflow in the reservation), a row count whose
/// `nrows + 1` wraps (out-of-bounds offset write), and a row count past
/// the `u32` index range (a 34 GB offset array, and a truncated
/// coordinate).
const CRASHERS: [(&str, &str); 3] = [
    ("huge_nnz", "1 1 18446744073709551615\n"),
    ("wrapping_rows", "18446744073709551615 1 0\n"),
    (
        "rows_past_index_range",
        "4294967297 1 1\n4294967297 1 1.0\n",
    ),
];

fn mtx(size_and_entries: &str) -> String {
    format!("%%MatrixMarket matrix coordinate real general\n{size_and_entries}")
}

fn assert_parse_error(result: Result<CsrMatrix<f64>, SparseError>, name: &str) {
    match result {
        Err(SparseError::Parse { .. }) => {}
        other => panic!("{name}: expected a parse error, got {other:?}"),
    }
}

#[test]
fn crafted_files_on_disk_are_parse_errors() {
    let dir = std::env::temp_dir().join(format!("spmm-mtx-hardening-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, body) in CRASHERS {
        let path = dir.join(format!("{name}.mtx"));
        std::fs::write(&path, mtx(body)).unwrap();
        assert_parse_error(read_matrix_market(&path), name);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn declared_nnz_is_bounded_by_the_shape_and_dense_files_still_load() {
    // one more entry than a 2x2 matrix has cells
    assert_parse_error(
        read_matrix_market_from(mtx("2 2 5\n").as_bytes()),
        "nnz above nrows*ncols",
    );
    // exactly nrows*ncols entries is a dense matrix, and loads
    let dense = mtx("2 2 4\n1 1 1.0\n1 2 2.0\n2 1 3.0\n2 2 4.0\n");
    let m: CsrMatrix<f64> = read_matrix_market_from(dense.as_bytes()).unwrap();
    assert_eq!(m.shape(), (2, 2));
    assert_eq!(m.values(), &[1.0, 2.0, 3.0, 4.0]);
    // a declared count the body falls short of is still an error, after a
    // capped reservation rather than one sized from the header
    assert_parse_error(
        read_matrix_market_from(mtx("4294967295 4294967295 4294967296\n1 1 1.0\n").as_bytes()),
        "short body",
    );
}
