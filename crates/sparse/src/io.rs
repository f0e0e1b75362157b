//! Matrix Market (`.mtx`) reader/writer.
//!
//! The paper's dataset (Table I) comes from the SuiteSparse/SNAP collection,
//! which distributes Matrix Market files. The offline reproduction generates
//! synthetic clones instead, but this module lets the real files be dropped
//! in (`SPMM_DATA_DIR`) for a faithful rerun.
//!
//! Supported: `matrix coordinate real|integer|pattern general|symmetric`.
//! Pattern entries get value 1.0; symmetric files are expanded to general.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::{ColIndex, CooMatrix, CsrMatrix, Scalar, SparseError};

/// Kind of value field in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    Real,
    Integer,
    Pattern,
}

/// Symmetry declared in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Read a Matrix Market file from disk into CSR.
pub fn read_matrix_market<T: Scalar, P: AsRef<Path>>(path: P) -> Result<CsrMatrix<T>, SparseError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(file))
}

/// Read Matrix Market data from any reader into CSR.
pub fn read_matrix_market_from<T: Scalar, R: Read>(reader: R) -> Result<CsrMatrix<T>, SparseError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // --- header ---
    let (lineno, header) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (n + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    msg: "empty file".into(),
                });
            }
        }
    };
    let tokens: Vec<&str> = header.split_whitespace().collect();
    if tokens.len() < 5 || tokens[0] != "%%MatrixMarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("bad header: {header:?}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("unsupported format {:?} (only coordinate)", tokens[2]),
        });
    }
    let kind = match tokens[3] {
        "real" => ValueKind::Real,
        "integer" => ValueKind::Integer,
        "pattern" => ValueKind::Pattern,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("unsupported value kind {other:?}"),
            })
        }
    };
    let symmetry = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("unsupported symmetry {other:?}"),
            })
        }
    };

    // --- size line (first non-comment, non-empty line after header) ---
    let (lineno, size_line) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (n + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    msg: "missing size line".into(),
                });
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|s| s.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| SparseError::Parse {
            line: lineno,
            msg: e.to_string(),
        })?;
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("size line needs 3 fields, got {}", dims.len()),
        });
    }
    let (nrows, ncols, declared_nnz) = (dims[0], dims[1], dims[2]);
    // Coordinates are stored as `ColIndex`, so a larger dimension cannot
    // be represented (and `nrows + 1` row offsets must not wrap).
    let max_dim = ColIndex::MAX as usize;
    if nrows > max_dim || ncols > max_dim {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("shape {nrows}x{ncols} exceeds the index range {max_dim}"),
        });
    }
    if nrows
        .checked_mul(ncols)
        .is_none_or(|cells| declared_nnz > cells)
    {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("declared {declared_nnz} entries exceed a {nrows}x{ncols} matrix"),
        });
    }

    // --- entries ---
    // The reservation is capped: the declared count only sizes the
    // buffer, so a file that promises more entries than it holds grows as
    // entries arrive instead of allocating up front.
    const PREALLOC_ENTRIES: usize = 1 << 20;
    let mut coo = CooMatrix::with_capacity(nrows, ncols, declared_nnz.min(PREALLOC_ENTRIES));
    let mut seen = 0usize;
    for (n, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse_idx = |s: Option<&str>, what: &str| -> Result<usize, SparseError> {
            s.ok_or_else(|| SparseError::Parse {
                line: n + 1,
                msg: format!("missing {what}"),
            })?
            .parse::<usize>()
            .map_err(|e| SparseError::Parse {
                line: n + 1,
                msg: e.to_string(),
            })
        };
        let r = parse_idx(it.next(), "row")?;
        let c = parse_idx(it.next(), "col")?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(SparseError::Parse {
                line: n + 1,
                msg: format!("1-based coordinate ({r}, {c}) out of range {nrows}x{ncols}"),
            });
        }
        let v = match kind {
            ValueKind::Pattern => T::ONE,
            _ => {
                let s = it.next().ok_or_else(|| SparseError::Parse {
                    line: n + 1,
                    msg: "missing value".into(),
                })?;
                let f: f64 =
                    s.parse()
                        .map_err(|e: std::num::ParseFloatError| SparseError::Parse {
                            line: n + 1,
                            msg: e.to_string(),
                        })?;
                T::from_f64(f)
            }
        };
        coo.push(r - 1, c - 1, v);
        if symmetry == Symmetry::Symmetric && r != c {
            coo.push(c - 1, r - 1, v);
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(SparseError::Parse {
            line: 0,
            msg: format!("declared {declared_nnz} entries, found {seen}"),
        });
    }
    coo.to_csr()
}

/// Magic prefix of the binary CSR spill chunk format (see
/// [`write_csr_chunk`]). Version-suffixed so a layout change can bump it.
pub const CSR_CHUNK_MAGIC: &[u8; 8] = b"SPMMCSR1";

/// The raw bytes of a numeric slice. On little-endian targets those bytes
/// are exactly the chunk wire layout, so the encoder writes them as they
/// are instead of converting element by element.
#[inline]
fn bytes_of<E: Copy>(slice: &[E]) -> &[u8] {
    // SAFETY: `E` is one of the plain numeric types this module encodes
    // (u32/usize/f32/f64) — no padding bytes, so viewing the initialized
    // elements as raw bytes is always valid.
    unsafe { std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), std::mem::size_of_val(slice)) }
}

/// The raw bytes of a numeric slice, writable: the direct-read decoder
/// fills them from a little-endian chunk on little-endian targets.
#[inline]
fn bytes_of_mut<E: Copy>(slice: &mut [E]) -> &mut [u8] {
    // SAFETY: as in `bytes_of`, and `E` is a plain numeric type for which
    // every bit pattern is a valid value, so any bytes written through
    // the view leave valid elements behind.
    unsafe {
        std::slice::from_raw_parts_mut(
            slice.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(slice),
        )
    }
}

/// Append elements decoded from a little-endian byte stream to `dst` by
/// bulk copy. Callers gate on `cfg!(target_endian = "little")` (and, for
/// `usize`, a 64-bit target) so the reinterpretation matches the wire
/// layout; big-endian targets take the per-element fallback instead.
#[inline]
fn extend_pod_from_le_bytes<E: Copy>(dst: &mut Vec<E>, bytes: &[u8]) {
    let size = std::mem::size_of::<E>();
    debug_assert_eq!(bytes.len() % size, 0);
    let n = bytes.len() / size;
    dst.reserve(n);
    let old = dst.len();
    // SAFETY: `E` is a plain numeric type for which every bit pattern is
    // a valid value; `reserve` guaranteed capacity for `n` more elements,
    // and the copy fills exactly those `n * size` bytes before `set_len`
    // exposes them.
    unsafe {
        std::ptr::copy_nonoverlapping(
            bytes.as_ptr(),
            dst.as_mut_ptr().add(old).cast::<u8>(),
            bytes.len(),
        );
        dst.set_len(old + n);
    }
}

/// Whether `usize` can be bulk-copied as the wire's `u64` row offsets.
#[inline]
fn usize_is_le_u64() -> bool {
    cfg!(target_endian = "little") && std::mem::size_of::<usize>() == 8
}

fn extend_indptr_from_le(dst: &mut Vec<usize>, bytes: &[u8]) {
    if usize_is_le_u64() {
        extend_pod_from_le_bytes(dst, bytes);
    } else {
        dst.extend(
            bytes
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")) as usize),
        );
    }
}

fn extend_indices_from_le(dst: &mut Vec<u32>, bytes: &[u8]) {
    if cfg!(target_endian = "little") {
        extend_pod_from_le_bytes(dst, bytes);
    } else {
        dst.extend(
            bytes
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk"))),
        );
    }
}

fn extend_values_from_le<T: Scalar>(dst: &mut Vec<T>, bytes: &[u8], dtype: usize) {
    debug_assert_eq!(dtype, std::mem::size_of::<T>());
    if cfg!(target_endian = "little") {
        extend_pod_from_le_bytes(dst, bytes);
    } else {
        dst.extend(bytes.chunks_exact(dtype).map(|w| {
            let mut bits = [0u8; 8];
            bits[..dtype].copy_from_slice(w);
            T::from_value_bits(u64::from_le_bytes(bits))
        }));
    }
}

/// Write a CSR matrix as a binary spill chunk.
///
/// This is the out-of-core shard format: a fixed little-endian layout that
/// round-trips *bit patterns*, not decimal renderings, so a spilled shard
/// output reloads bit-identical (NaN payloads and `-0.0` included) — the
/// text Matrix Market path cannot promise that. Layout, all little-endian:
///
/// ```text
/// magic    8 bytes  "SPMMCSR1"
/// dtype    u64      size_of::<T>() (4 = f32, 8 = f64)
/// nrows    u64
/// ncols    u64
/// nnz      u64
/// indptr   (nrows+1) × u64
/// indices  nnz × u32
/// values   nnz × dtype bytes (IEEE bit patterns)
/// ```
///
/// Arrays are laid out contiguously and aligned only to their element size,
/// which keeps the format mmap-friendly for a future reader that maps the
/// chunk instead of copying it.
///
/// On little-endian 64-bit targets the encoder writes the 40-byte header
/// and then each array's own bytes, with no staging copy of the chunk;
/// other targets assemble the little-endian body in one buffer first.
/// Either way the bytes are identical. Callers hand in the raw sink (a
/// `File` on the spill path): four large writes, no per-element I/O.
pub fn write_csr_chunk<T: Scalar, W: Write>(
    matrix: &CsrMatrix<T>,
    writer: &mut W,
) -> Result<(), SparseError> {
    let dtype = std::mem::size_of::<T>();
    let mut header = [0u8; CSR_CHUNK_HEADER_BYTES];
    header[..8].copy_from_slice(CSR_CHUNK_MAGIC);
    for (slot, word) in header[8..].chunks_exact_mut(8).zip([
        dtype as u64,
        matrix.nrows() as u64,
        matrix.ncols() as u64,
        matrix.nnz() as u64,
    ]) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    writer.write_all(&header)?;
    if usize_is_le_u64() {
        writer.write_all(bytes_of(matrix.indptr()))?;
        writer.write_all(bytes_of(matrix.indices()))?;
        writer.write_all(bytes_of(matrix.values()))?;
    } else {
        let body = (matrix.nrows() + 1) * 8 + matrix.nnz() * (4 + dtype);
        let mut buf = Vec::with_capacity(body);
        for &p in matrix.indptr() {
            buf.extend_from_slice(&(p as u64).to_le_bytes());
        }
        for &c in matrix.indices() {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        for &v in matrix.values() {
            let bits = v.value_bits();
            buf.extend_from_slice(&bits.to_le_bytes()[..dtype]);
        }
        debug_assert_eq!(buf.len(), body);
        writer.write_all(&buf)?;
    }
    writer.flush()?;
    Ok(())
}

/// Bytes of a chunk's magic and header words.
const CSR_CHUNK_HEADER_BYTES: usize = 40;

/// Fixed-size header of a CSR spill chunk (40 bytes): everything a reader
/// needs to size the arrays before decoding them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrChunkHeader {
    /// `size_of::<T>()` of the stored value type (4 = f32, 8 = f64).
    pub dtype_bytes: usize,
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored entries.
    pub nnz: usize,
}

/// Read and validate the magic + header of a CSR spill chunk, leaving the
/// reader positioned at the start of the `indptr` array.
pub fn read_csr_chunk_header<R: Read>(reader: &mut R) -> Result<CsrChunkHeader, SparseError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != CSR_CHUNK_MAGIC {
        return Err(chunk_error(format!("bad CSR chunk magic {magic:?}")));
    }
    let mut word = [0u8; 8];
    let mut read_usize = |reader: &mut R, what: &str| -> Result<usize, SparseError> {
        reader.read_exact(&mut word)?;
        let value = u64::from_le_bytes(word);
        usize::try_from(value)
            .map_err(|_| chunk_error(format!("CSR chunk {what} {value} exceeds usize")))
    };
    Ok(CsrChunkHeader {
        dtype_bytes: read_usize(reader, "dtype")?,
        nrows: read_usize(reader, "nrows")?,
        ncols: read_usize(reader, "ncols")?,
        nnz: read_usize(reader, "nnz")?,
    })
}

fn chunk_error(msg: String) -> SparseError {
    SparseError::Parse { line: 0, msg }
}

impl CsrChunkHeader {
    /// Reject a chunk whose stored value type is not `T`.
    fn check_dtype<T: Scalar>(&self) -> Result<(), SparseError> {
        let want = std::mem::size_of::<T>();
        if self.dtype_bytes == want {
            return Ok(());
        }
        Err(chunk_error(format!(
            "CSR chunk dtype is {} bytes, expected {want} for {}",
            self.dtype_bytes,
            std::any::type_name::<T>()
        )))
    }

    /// Byte lengths of the body's `indptr`, `indices` and `values`
    /// arrays, computed with checked arithmetic: a header whose counts
    /// overflow (a crafted or corrupt chunk) is an error, never a wrapped
    /// length.
    fn body_lens(&self) -> Result<[usize; 3], SparseError> {
        let lens = (|| {
            let indptr = self.nrows.checked_add(1)?.checked_mul(8)?;
            let indices = self.nnz.checked_mul(4)?;
            let values = self.nnz.checked_mul(self.dtype_bytes)?;
            indptr.checked_add(indices)?.checked_add(values)?;
            Some([indptr, indices, values])
        })();
        lens.ok_or_else(|| {
            chunk_error(format!(
                "CSR chunk header overflows: nrows {}, nnz {}, dtype {}",
                self.nrows, self.nnz, self.dtype_bytes
            ))
        })
    }
}

/// Read exactly `len` bytes. The buffer grows with the bytes that arrive
/// rather than being sized up front from `len`, so a header that promises
/// a huge body over a short reader fails with an I/O error instead of
/// attempting a huge allocation.
fn read_len<R: Read>(reader: &mut R, len: usize) -> Result<Vec<u8>, SparseError> {
    /// Largest up-front reservation; longer bodies grow as they arrive.
    const PREALLOC: usize = 1 << 24;
    let mut buf = Vec::with_capacity(len.min(PREALLOC));
    reader.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(SparseError::Io(format!(
            "CSR chunk body truncated: {} of {len} bytes",
            buf.len()
        )));
    }
    Ok(buf)
}

/// Decode the array body of a CSR spill chunk whose header was already
/// consumed by [`read_csr_chunk_header`]. Validates the header's dtype
/// against `T`, its sizes with checked arithmetic, and the structural
/// invariants via [`CsrMatrix::try_new`].
pub fn read_csr_chunk_body<T: Scalar, R: Read>(
    header: &CsrChunkHeader,
    reader: &mut R,
) -> Result<CsrMatrix<T>, SparseError> {
    header.check_dtype::<T>()?;
    let [indptr_len, indices_len, values_len] = header.body_lens()?;
    // Bulk decode: one sized read per array, then a tight in-memory
    // conversion loop — no per-element I/O calls.
    let mut indptr: Vec<usize> = Vec::new();
    extend_indptr_from_le(&mut indptr, &read_len(reader, indptr_len)?);
    let mut indices: Vec<u32> = Vec::new();
    extend_indices_from_le(&mut indices, &read_len(reader, indices_len)?);
    let mut values: Vec<T> = Vec::new();
    extend_values_from_le(
        &mut values,
        &read_len(reader, values_len)?,
        header.dtype_bytes,
    );
    CsrMatrix::try_new(header.nrows, header.ncols, indptr, indices, values)
}

/// Read one chunk straight into caller-owned destination arrays — the
/// shard stitch's path, which has already sized the final matrix and
/// carved it into per-band ranges, so no per-chunk buffer exists.
///
/// `indptr_tail` receives row offsets 1..=nrows (the leading offset, which
/// a well-formed chunk stores as 0, is returned instead, so adjacent bands'
/// ranges stay disjoint); `indices` and `values` receive the body's `nnz`
/// entries. The header must describe exactly those lengths, `ncols`
/// columns and value type `T`. The row offsets are returned as stored:
/// the caller validates them (or builds a matrix that does).
pub fn read_csr_chunk_into<T: Scalar, R: Read>(
    reader: &mut R,
    ncols: usize,
    indptr_tail: &mut [usize],
    indices: &mut [u32],
    values: &mut [T],
) -> Result<usize, SparseError> {
    let header = read_csr_chunk_header(reader)?;
    header.check_dtype::<T>()?;
    let [indptr_len, indices_len, values_len] = header.body_lens()?;
    let want = (indptr_tail.len(), ncols, indices.len(), values.len());
    let got = (header.nrows, header.ncols, header.nnz, header.nnz);
    if got != want {
        return Err(chunk_error(format!(
            "CSR chunk holds nrows/ncols/nnz {:?}, destination expects {:?}",
            (header.nrows, header.ncols, header.nnz),
            (want.0, want.1, want.2)
        )));
    }
    let mut word = [0u8; 8];
    reader.read_exact(&mut word)?;
    let first = u64::from_le_bytes(word);
    let first = usize::try_from(first)
        .map_err(|_| chunk_error(format!("CSR chunk row offset {first} exceeds usize")))?;
    if usize_is_le_u64() {
        reader.read_exact(bytes_of_mut(indptr_tail))?;
        reader.read_exact(bytes_of_mut(indices))?;
        reader.read_exact(bytes_of_mut(values))?;
    } else {
        let offsets = read_len(reader, indptr_len - 8)?;
        for (dst, w) in indptr_tail.iter_mut().zip(offsets.chunks_exact(8)) {
            *dst = u64::from_le_bytes(w.try_into().expect("8-byte chunk")) as usize;
        }
        let bytes = read_len(reader, indices_len)?;
        for (dst, w) in indices.iter_mut().zip(bytes.chunks_exact(4)) {
            *dst = u32::from_le_bytes(w.try_into().expect("4-byte chunk"));
        }
        let dtype = header.dtype_bytes;
        let bytes = read_len(reader, values_len)?;
        for (dst, w) in values.iter_mut().zip(bytes.chunks_exact(dtype)) {
            let mut bits = [0u8; 8];
            bits[..dtype].copy_from_slice(w);
            *dst = T::from_value_bits(u64::from_le_bytes(bits));
        }
    }
    Ok(first)
}

/// Read a binary CSR spill chunk written by [`write_csr_chunk`].
///
/// Validates the magic, the dtype tag against `T`, and (via
/// [`CsrMatrix::try_new`]) the structural invariants of the arrays, so a
/// truncated or cross-typed chunk fails loudly instead of producing a
/// corrupt matrix. The reader is wrapped in a [`BufReader`] internally
/// (the header reads are small; the bulk array reads pass through it) —
/// note this may read ahead past the chunk's last byte, which is fine for
/// the chunk-per-file spill layout this format serves.
pub fn read_csr_chunk<T: Scalar, R: Read>(reader: &mut R) -> Result<CsrMatrix<T>, SparseError> {
    let mut reader = BufReader::new(reader);
    let header = read_csr_chunk_header(&mut reader)?;
    read_csr_chunk_body(&header, &mut reader)
}

/// Write a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market<T: Scalar, W: Write>(
    matrix: &CsrMatrix<T>,
    writer: &mut W,
) -> Result<(), SparseError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% generated by hetero-spmm")?;
    writeln!(
        writer,
        "{} {} {}",
        matrix.nrows(),
        matrix.ncols(),
        matrix.nnz()
    )?;
    for (r, c, v) in matrix.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 3 4\n\
        1 1 2.5\n\
        1 3 1.0\n\
        2 2 -3.0\n\
        3 1 4.0\n";

    #[test]
    fn reads_general_real() {
        let m: CsrMatrix<f64> = read_matrix_market_from(SIMPLE.as_bytes()).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.get(1, 1), -3.0);
        assert_eq!(m.get(2, 0), 4.0);
    }

    #[test]
    fn reads_pattern() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m: CsrMatrix<f64> = read_matrix_market_from(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn expands_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let m: CsrMatrix<f64> = read_matrix_market_from(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(2, 2), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        let src = "%%NotMatrixMarket\n1 1 0\n";
        assert!(read_matrix_market_from::<f64, _>(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_coordinate() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read_matrix_market_from::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { .. }));
    }

    #[test]
    fn rejects_entry_count_mismatch() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market_from::<f64, _>(src.as_bytes()).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let m: CsrMatrix<f64> = read_matrix_market_from(SIMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back: CsrMatrix<f64> = read_matrix_market_from(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn duplicate_entries_sum() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n";
        let m: CsrMatrix<f64> = read_matrix_market_from(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    fn chunk_roundtrip<T: Scalar>(m: &CsrMatrix<T>) -> CsrMatrix<T> {
        let mut buf = Vec::new();
        write_csr_chunk(m, &mut buf).unwrap();
        read_csr_chunk(&mut &buf[..]).unwrap()
    }

    #[test]
    fn chunk_roundtrip_with_empty_rows() {
        // leading, interior, and trailing empty rows all survive
        let m = CsrMatrix::try_new(
            5,
            3,
            vec![0, 0, 2, 2, 3, 3],
            vec![0, 2, 1],
            vec![1.5f64, -2.5, 0.25],
        )
        .unwrap();
        assert_eq!(chunk_roundtrip(&m), m);
    }

    #[test]
    fn chunk_roundtrip_rectangular() {
        let wide =
            CsrMatrix::try_new(2, 7, vec![0, 1, 3], vec![6, 0, 4], vec![1.0f64, 2.0, 3.0]).unwrap();
        let tall = CsrMatrix::try_new(
            7,
            2,
            vec![0, 1, 1, 1, 2, 2, 2, 2],
            vec![1, 0],
            vec![4.0f64, 5.0],
        )
        .unwrap();
        assert_eq!(chunk_roundtrip(&wide), wide);
        assert_eq!(chunk_roundtrip(&tall), tall);
    }

    #[test]
    fn chunk_roundtrip_zero_nnz_band() {
        // the shape an all-empty shard band produces: rows but no entries
        let empty = CsrMatrix::<f64>::zeros(4, 9);
        assert_eq!(chunk_roundtrip(&empty), empty);
        // degenerate zero-row chunk (indptr = [0])
        let none = CsrMatrix::try_new(0, 5, vec![0], Vec::new(), Vec::<f64>::new()).unwrap();
        assert_eq!(chunk_roundtrip(&none), none);
    }

    #[test]
    fn chunk_roundtrip_is_bit_exact_f32_and_f64() {
        // values chosen so any decimal round-trip would corrupt them:
        // signed zero, subnormal, and a non-default NaN payload
        let f64_vals = vec![
            -0.0f64,
            f64::from_bits(0x0000_0000_0000_0001),
            f64::from_bits(0x7ff8_dead_beef_cafe),
        ];
        let m64 = CsrMatrix::try_new(1, 3, vec![0, 3], vec![0, 1, 2], f64_vals.clone()).unwrap();
        let back64 = chunk_roundtrip(&m64);
        for (a, b) in back64.values().iter().zip(&f64_vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let f32_vals = vec![
            -0.0f32,
            f32::from_bits(0x0000_0001),
            f32::from_bits(0x7fc0_1234),
        ];
        let m32 =
            CsrMatrix::try_new(3, 1, vec![0, 1, 2, 3], vec![0, 0, 0], f32_vals.clone()).unwrap();
        let back32 = chunk_roundtrip(&m32);
        for (a, b) in back32.values().iter().zip(&f32_vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back64.content_hash(), m64.content_hash());
        assert_eq!(back32.content_hash(), m32.content_hash());
    }

    #[test]
    fn chunk_byte_layout_is_pinned() {
        // the exact SPMMCSR1 byte stream is a format contract: buffering
        // the writer must not change a single byte
        let m = CsrMatrix::try_new(1, 2, vec![0, 1], vec![1], vec![1.0f64]).unwrap();
        let mut buf = Vec::new();
        write_csr_chunk(&m, &mut buf).unwrap();
        let mut expect = Vec::new();
        expect.extend_from_slice(b"SPMMCSR1");
        for word in [8u64, 1, 2, 1] {
            expect.extend_from_slice(&word.to_le_bytes());
        }
        for p in [0u64, 1] {
            expect.extend_from_slice(&p.to_le_bytes());
        }
        expect.extend_from_slice(&1u32.to_le_bytes());
        expect.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert_eq!(buf, expect);
    }

    #[test]
    fn chunk_header_then_body_matches_full_read() {
        let m = CsrMatrix::try_new(
            5,
            3,
            vec![0, 0, 2, 2, 3, 3],
            vec![0, 2, 1],
            vec![1.5f64, -2.5, 0.25],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csr_chunk(&m, &mut buf).unwrap();
        let mut cursor = &buf[..];
        let header = read_csr_chunk_header(&mut cursor).unwrap();
        assert_eq!(
            header,
            CsrChunkHeader {
                dtype_bytes: 8,
                nrows: 5,
                ncols: 3,
                nnz: 3
            }
        );
        let body: CsrMatrix<f64> = read_csr_chunk_body(&header, &mut cursor).unwrap();
        assert_eq!(body, m);
        assert!(cursor.is_empty(), "body must consume the chunk exactly");
        assert_eq!(chunk_roundtrip(&m), body);
    }

    #[test]
    fn chunk_header_rejects_truncation() {
        let m = CsrMatrix::try_new(1, 1, vec![0, 1], vec![0], vec![1.0f64]).unwrap();
        let mut buf = Vec::new();
        write_csr_chunk(&m, &mut buf).unwrap();
        let short = &buf[..20];
        assert!(matches!(
            read_csr_chunk_header(&mut &short[..]).unwrap_err(),
            SparseError::Io(_)
        ));
    }

    #[test]
    fn chunk_rejects_dtype_mismatch() {
        let m32 = CsrMatrix::try_new(1, 1, vec![0, 1], vec![0], vec![1.0f32]).unwrap();
        let mut buf = Vec::new();
        write_csr_chunk(&m32, &mut buf).unwrap();
        let err = read_csr_chunk::<f64, _>(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SparseError::Parse { .. }));
    }

    #[test]
    fn chunk_rejects_bad_magic_and_truncation() {
        let m = CsrMatrix::try_new(1, 1, vec![0, 1], vec![0], vec![1.0f64]).unwrap();
        let mut buf = Vec::new();
        write_csr_chunk(&m, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(read_csr_chunk::<f64, _>(&mut &bad[..]).is_err());
        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(
            read_csr_chunk::<f64, _>(&mut &truncated[..]).unwrap_err(),
            SparseError::Io(_)
        ));
    }
}
