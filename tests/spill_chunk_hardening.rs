//! Hostile `SPMMCSR1` spill chunks are errors, never panics, aborts or
//! huge allocations.
//!
//! Both decoders — the full read (`read_csr_chunk`) and the direct read
//! into caller-owned ranges (`read_csr_chunk_into`, the shard stitch's
//! path) — compute the
//! sizes a header implies with checked arithmetic, and the stitch checks
//! every spilled band's row offsets before it rebases them. A crafted
//! header that overflows, promises more bytes than the chunk holds, or
//! names another value type, and a body whose row offsets start off zero,
//! decrease or miss nnz, each come back as a `SparseError`.

use hetero_spmm::core::shard::SpillStore;
use hetero_spmm::sparse::io::{read_csr_chunk, read_csr_chunk_into, write_csr_chunk};
use hetero_spmm::sparse::{CsrMatrix, SparseError};

/// A chunk with the given header words and raw body bytes.
fn crafted_chunk(dtype: u64, nrows: u64, ncols: u64, nnz: u64, body: &[u8]) -> Vec<u8> {
    let mut buf = b"SPMMCSR1".to_vec();
    for word in [dtype, nrows, ncols, nnz] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    buf.extend_from_slice(body);
    buf
}

/// Both decoders on `chunk`: the full read and the direct read into
/// `nrows`/`nnz`-sized destinations of a 4-column matrix. Reaching the
/// end without a panic or abort is half of the contract; the errors are
/// returned for the caller to classify.
fn all_decoders_reject(chunk: &[u8], nrows: usize, nnz: usize) -> [SparseError; 2] {
    let full = read_csr_chunk::<f64, _>(&mut &chunk[..]).unwrap_err();
    let (mut rows, mut idx, mut vals) = (vec![0usize; nrows], vec![0u32; nnz], vec![0f64; nnz]);
    let into = read_csr_chunk_into(&mut &chunk[..], 4, &mut rows, &mut idx, &mut vals).unwrap_err();
    [full, into]
}

fn is_parse(err: &SparseError) -> bool {
    matches!(err, SparseError::Parse { .. })
}

#[test]
fn header_with_max_nrows_is_an_error() {
    // (nrows + 1) * 8 overflows
    let chunk = crafted_chunk(8, u64::MAX, 4, 0, &[0; 16]);
    for err in all_decoders_reject(&chunk, 1, 0) {
        assert!(is_parse(&err), "{err:?}");
    }
}

#[test]
fn header_whose_value_bytes_overflow_is_an_error() {
    // nnz * 4 fits, nnz * dtype (8) does not
    let chunk = crafted_chunk(8, 1, 4, (1 << 61) + 1, &[0; 16]);
    for err in all_decoders_reject(&chunk, 1, 0) {
        assert!(is_parse(&err), "{err:?}");
    }
    // every array fits on its own, their sum does not
    let chunk = crafted_chunk(8, (1 << 60) - 2, 4, 1 << 60, &[0; 16]);
    for err in all_decoders_reject(&chunk, 1, 0) {
        assert!(is_parse(&err), "{err:?}");
    }
}

#[test]
fn dtype_mismatch_is_an_error_on_every_decoder() {
    let m32 = CsrMatrix::try_new(1, 4, vec![0, 1], vec![0], vec![1.0f32]).unwrap();
    let mut chunk = Vec::new();
    write_csr_chunk(&m32, &mut chunk).unwrap();
    for err in all_decoders_reject(&chunk, 1, 1) {
        assert!(is_parse(&err), "{err:?}");
    }
}

#[test]
fn truncated_body_is_an_error_without_a_huge_allocation() {
    // the header promises a 2 EiB indptr over a 16-byte body: sizing a
    // buffer from the header would abort the process
    let chunk = crafted_chunk(8, 1 << 58, 4, 0, &[0; 16]);
    let [full, into] = all_decoders_reject(&chunk, 1, 0);
    assert!(matches!(full, SparseError::Io(_)), "{full:?}");
    assert!(is_parse(&into), "{into:?}");
    // a real chunk cut short, read into destinations of its own size
    let m = CsrMatrix::try_new(2, 4, vec![0, 1, 2], vec![0, 3], vec![1.0f64, 2.0]).unwrap();
    let mut chunk = Vec::new();
    write_csr_chunk(&m, &mut chunk).unwrap();
    chunk.truncate(chunk.len() - 3);
    let [full, into] = all_decoders_reject(&chunk, 2, 2);
    assert!(matches!(full, SparseError::Io(_)), "{full:?}");
    assert!(matches!(into, SparseError::Io(_)), "{into:?}");
}

#[test]
fn non_monotone_row_offsets_are_an_error() {
    let mut body = Vec::new();
    for p in [0u64, 2, 1] {
        body.extend_from_slice(&p.to_le_bytes());
    }
    for c in [0u32, 1] {
        body.extend_from_slice(&c.to_le_bytes());
    }
    for v in [1.0f64, 2.0] {
        body.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let chunk = crafted_chunk(8, 2, 4, 2, &body);
    let err = read_csr_chunk::<f64, _>(&mut &chunk[..]).unwrap_err();
    assert!(matches!(err, SparseError::MalformedIndptr(_)), "{err:?}");
    // the direct read hands the offsets back as stored, for its caller to
    // check — the stitch test below covers that caller
    let (mut rows, mut idx, mut vals) = (vec![0usize; 2], vec![0u32; 2], vec![0f64; 2]);
    let first = read_csr_chunk_into(&mut &chunk[..], 4, &mut rows, &mut idx, &mut vals).unwrap();
    assert_eq!((first, rows), (0, vec![2, 1]));
}

#[test]
fn direct_read_fills_destinations_bit_exactly() {
    let m = CsrMatrix::try_new(
        3,
        4,
        vec![0, 2, 2, 3],
        vec![0, 3, 1],
        vec![-0.0f64, f64::from_bits(0x7ff8_dead_beef_cafe), 2.5],
    )
    .unwrap();
    let mut chunk = Vec::new();
    write_csr_chunk(&m, &mut chunk).unwrap();
    let (mut rows, mut idx, mut vals) = (vec![0usize; 3], vec![0u32; 3], vec![0f64; 3]);
    let mut reader = &chunk[..];
    let first = read_csr_chunk_into(&mut reader, 4, &mut rows, &mut idx, &mut vals).unwrap();
    assert!(
        reader.is_empty(),
        "the direct read consumes the chunk exactly"
    );
    assert_eq!(first, 0);
    assert_eq!(rows, m.indptr()[1..]);
    assert_eq!(idx, m.indices());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&vals), bits(m.values()));
    // destinations of another shape are refused before any body read
    let mut short = vec![0usize; 2];
    let err = read_csr_chunk_into(&mut &chunk[..], 4, &mut short, &mut idx, &mut vals);
    assert!(matches!(err, Err(SparseError::Parse { .. })));
    let err = read_csr_chunk_into(&mut &chunk[..], 5, &mut rows, &mut idx, &mut vals);
    assert!(matches!(err, Err(SparseError::Parse { .. })));
}

#[test]
fn stitch_rejects_corrupt_spilled_row_offsets() {
    // three bands of three rows, one entry each: offsets [0, 1, 2, 3]
    let band = CsrMatrix::try_new(3, 4, vec![0, 1, 2, 3], vec![0, 2, 3], vec![1.0f64; 3]).unwrap();
    // (what, chunk word to overwrite, new value); words 0-4 are the magic
    // and the header, word 5 is row offset 0
    let corruptions = [
        ("leading offset not 0", 5, 1),
        ("offsets decrease", 7, 0),
        ("offset past nnz", 6, u64::MAX),
        ("last offset not nnz", 8, 2),
        ("header nnz disagrees with the band", 4, 2),
    ];
    for (what, word, value) in corruptions {
        // a cap of 0 spills every band
        let mut store = SpillStore::new(0);
        for i in 0..3 {
            store.push(i, band.clone()).unwrap();
        }
        let dir = store.dir_path().expect("cap 0 spills").to_path_buf();
        let path = dir.join("shard-1.csr");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[word * 8..word * 8 + 8].copy_from_slice(&u64::to_le_bytes(value));
        std::fs::write(&path, &bytes).unwrap();
        let err = store.into_stitched(4).unwrap_err();
        assert!(
            matches!(
                err,
                SparseError::MalformedIndptr(_) | SparseError::Parse { .. }
            ),
            "{what}: {err:?}"
        );
        assert!(
            !dir.exists(),
            "{what}: a failed stitch must remove the spill dir"
        );
    }
}
