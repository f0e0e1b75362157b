//! Vector-friendly kernels for the numeric hot loops.
//!
//! The SpGEMM-side primitives — the SPA and hash drains ([`gather_into`],
//! [`gather_packed_into`]), the single-source scaled copy
//! ([`scaled_copy`]) and the list accumulator's [`lower_bound`] — are
//! portable loops shaped so the compiler can unroll and vectorize them.
//! None of them reorders a floating-point operation, so their output is
//! the same on every platform.
//!
//! The register-tiled `csrmm` row kernel ([`csrmm_row_into`]) also has an
//! explicit AVX2 variant for `f64` on `x86_64`, selected from the platform
//! alone (`is_x86_feature_detected!("avx2")`, whose probe std caches),
//! with the portable tile as the fallback everywhere else. Both tiles keep
//! each output element's additions in the exact `j`-order of the serial
//! reference, starting from `T::ZERO`, so both are **bit-identical** to
//! [`crate::reference::csrmm`]. The one FP-reordering variant — the
//! tree-reduced tile ([`csrmm_row_tree_into`]) — is never selected
//! implicitly; callers opt in and gate it with a tolerance, never with bit
//! equality.

use crate::{ColIndex, DenseMatrix, Scalar};

// ---------------------------------------------------------------------------
// Type-dispatch plumbing: the engine is generic over `Scalar`, the AVX2
// csrmm tile is not. `Scalar: 'static` lets us down-cast slices by `TypeId`
// with no runtime cost beyond one comparison that the optimizer folds per
// monomorphization.

#[cfg(target_arch = "x86_64")]
mod cast {
    use std::any::TypeId;

    #[inline]
    pub fn slice<T: 'static, U: 'static>(s: &[T]) -> Option<&[U]> {
        if TypeId::of::<T>() == TypeId::of::<U>() {
            // SAFETY: T and U are the same type, so layout and validity match.
            Some(unsafe { std::slice::from_raw_parts(s.as_ptr() as *const U, s.len()) })
        } else {
            None
        }
    }

    #[inline]
    pub fn slice_mut<T: 'static, U: 'static>(s: &mut [T]) -> Option<&mut [U]> {
        if TypeId::of::<T>() == TypeId::of::<U>() {
            // SAFETY: T and U are the same type, so layout and validity match.
            Some(unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut U, s.len()) })
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// SpGEMM drain and copy primitives.

/// SoA gather: `out_cols[i] = idx[i]; out_vals[i] = table[idx[i]]`.
///
/// This is the SPA drain after the touched list is sorted — a memcpy of the
/// column keys plus a value gather, instead of the old interleaved
/// `(col, value)` walk. All three output-producing slices must have
/// `idx.len()` elements; every index must be in bounds for `table`.
#[inline]
pub fn gather_into<T: Scalar>(
    idx: &[ColIndex],
    table: &[T],
    out_cols: &mut [ColIndex],
    out_vals: &mut [T],
) {
    assert_eq!(idx.len(), out_cols.len(), "gather_into: cols length");
    assert_eq!(idx.len(), out_vals.len(), "gather_into: vals length");
    out_cols.copy_from_slice(idx);
    // Chunked by 4 for ILP; the tail runs per element. The loads are
    // data-dependent (a true gather) so scalar code can't fuse them, but
    // splitting the chains lets the core overlap the four cache misses.
    let n = idx.len();
    let whole = n & !3;
    let mut i = 0;
    while i < whole {
        let v0 = table[idx[i] as usize];
        let v1 = table[idx[i + 1] as usize];
        let v2 = table[idx[i + 2] as usize];
        let v3 = table[idx[i + 3] as usize];
        out_vals[i] = v0;
        out_vals[i + 1] = v1;
        out_vals[i + 2] = v2;
        out_vals[i + 3] = v3;
        i += 4;
    }
    while i < n {
        out_vals[i] = table[idx[i] as usize];
        i += 1;
    }
}

/// Drain for packed `(col << 32) | slot` keys (the hash accumulator's
/// touched list): `out_cols[i] = packed[i] >> 32; out_vals[i] =
/// table[packed[i] as u32]`. Sorting the packed words sorts by column
/// (slots only break ties that cannot occur — columns are unique), so the
/// drain needs no re-probe of the hash table.
#[inline]
pub fn gather_packed_into<T: Scalar>(
    packed: &[u64],
    table: &[T],
    out_cols: &mut [ColIndex],
    out_vals: &mut [T],
) {
    assert_eq!(packed.len(), out_cols.len(), "gather_packed_into: cols");
    assert_eq!(packed.len(), out_vals.len(), "gather_packed_into: vals");
    for i in 0..packed.len() {
        out_cols[i] = (packed[i] >> 32) as ColIndex;
        out_vals[i] = table[packed[i] as u32 as usize];
    }
}

/// Scaled copy: `dst[i] = scale * src[i]`. The single-source fast path —
/// elementwise, so any lane width the compiler picks is bit-identical.
#[inline]
pub fn scaled_copy<T: Scalar>(scale: T, src: &[T], dst: &mut [T]) {
    assert_eq!(src.len(), dst.len(), "scaled_copy: length mismatch");
    // `scale * s` (scale on the left) mirrors the engine's `aij * bjc`.
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = scale * s;
    }
}

/// Branchless Lemire-style lower bound: the first index `i` with
/// `cols[i] >= col`, i.e. `cols.partition_point(|&c| c < col)`.
///
/// The classic binary search branches on every probe and mispredicts half
/// the time on random keys; this form turns the probe into a conditional
/// add the compiler lowers to `cmov`/`setb`, so short sorted runs (the list
/// accumulator's ≤ 8 entries) probe in a handful of straight-line cycles.
#[inline]
pub fn lower_bound(cols: &[ColIndex], col: ColIndex) -> usize {
    let mut base = 0usize;
    let mut len = cols.len();
    while len > 1 {
        let half = len / 2;
        // Branchless: advance past the left half iff its last key < col.
        base += usize::from(cols[base + half - 1] < col) * half;
        len -= half;
    }
    base + usize::from(len == 1 && cols[base] < col)
}

// ---------------------------------------------------------------------------
// Register-tiled sparse × dense (csrmm) row kernels.

/// Dense B-columns processed per A-row sweep by the tiled kernels. Eight
/// f64 lanes = two 256-bit registers live across the whole sparse row.
pub const CSRMM_TILE: usize = 8;

/// Register-tiled `C[row] = Σ_j a_j * B[j]` over one sparse A-row.
///
/// Loop-interchanged: for each tile of [`CSRMM_TILE`] output columns the
/// sparse row is swept once with the tile's partial sums held in registers,
/// so B traffic is sequential within a tile and C is written exactly once.
/// Each output element still accumulates in ascending-`j` order starting
/// from `T::ZERO` — **bit-identical** to [`crate::reference::csrmm`].
/// `f64` rows run the AVX2 tile where the CPU has it.
///
/// `out` must be `b.ncols()` long; its prior contents are overwritten.
#[inline]
pub fn csrmm_row_into<T: Scalar>(
    acols: &[ColIndex],
    avals: &[T],
    b: &DenseMatrix<T>,
    out: &mut [T],
) {
    let ncols = b.ncols();
    assert_eq!(out.len(), ncols, "csrmm_row_into: output width");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        if let (Some(avals), Some(bdata), Some(out)) = (
            cast::slice::<T, f64>(avals),
            cast::slice(b.data()),
            cast::slice_mut(out),
        ) {
            // SAFETY: AVX2 detected just above; acols index valid B rows.
            unsafe { avx2::csrmm_row_f64(acols, avals, bdata, ncols, out) };
            return;
        }
    }
    csrmm_row_scalar(acols, avals, b.data(), ncols, out);
}

/// The portable tile behind [`csrmm_row_into`]: what non-`f64` scalars
/// and hosts without AVX2 run. Same per-element `j`-order, same bits.
fn csrmm_row_scalar<T: Scalar>(
    acols: &[ColIndex],
    avals: &[T],
    bdata: &[T],
    ncols: usize,
    out: &mut [T],
) {
    let mut c0 = 0;
    while c0 + CSRMM_TILE <= ncols {
        let mut acc = [T::ZERO; CSRMM_TILE];
        for (&j, &aij) in acols.iter().zip(avals) {
            let brow = &bdata[j as usize * ncols + c0..][..CSRMM_TILE];
            for (a, &bv) in acc.iter_mut().zip(brow) {
                *a += aij * bv;
            }
        }
        out[c0..c0 + CSRMM_TILE].copy_from_slice(&acc);
        c0 += CSRMM_TILE;
    }
    // Remainder columns: same per-element j-order accumulation.
    for (c, o) in out.iter_mut().enumerate().skip(c0) {
        let mut acc = T::ZERO;
        for (&j, &aij) in acols.iter().zip(avals) {
            acc += aij * bdata[j as usize * ncols + c];
        }
        *o = acc;
    }
}

/// Tree-reduced variant of [`csrmm_row_into`]: the sparse row is split into
/// even/odd entry streams accumulated independently and summed at the end,
/// halving the loop-carried dependence. This **reorders the FP reduction**,
/// so it is never selected implicitly — callers opt in (e.g.
/// `CsrmmKernel::TreeReduced`) and must gate results with a tolerance, not
/// bit equality.
pub fn csrmm_row_tree_into<T: Scalar>(
    acols: &[ColIndex],
    avals: &[T],
    b: &DenseMatrix<T>,
    out: &mut [T],
) {
    let ncols = b.ncols();
    let bdata = b.data();
    assert_eq!(out.len(), ncols, "csrmm_row_tree_into: output width");
    let mut c0 = 0;
    while c0 + CSRMM_TILE <= ncols {
        let mut even = [T::ZERO; CSRMM_TILE];
        let mut odd = [T::ZERO; CSRMM_TILE];
        let mut k = 0;
        while k + 1 < acols.len() {
            let (j0, a0) = (acols[k] as usize, avals[k]);
            let (j1, a1) = (acols[k + 1] as usize, avals[k + 1]);
            let b0 = &bdata[j0 * ncols + c0..][..CSRMM_TILE];
            let b1 = &bdata[j1 * ncols + c0..][..CSRMM_TILE];
            for t in 0..CSRMM_TILE {
                even[t] += a0 * b0[t];
                odd[t] += a1 * b1[t];
            }
            k += 2;
        }
        if k < acols.len() {
            let (j, a) = (acols[k] as usize, avals[k]);
            let brow = &bdata[j * ncols + c0..][..CSRMM_TILE];
            for t in 0..CSRMM_TILE {
                even[t] += a * brow[t];
            }
        }
        for t in 0..CSRMM_TILE {
            out[c0 + t] = even[t] + odd[t];
        }
        c0 += CSRMM_TILE;
    }
    for (c, o) in out.iter_mut().enumerate().skip(c0) {
        let mut acc = T::ZERO;
        for (&j, &aij) in acols.iter().zip(avals) {
            acc += aij * bdata[j as usize * ncols + c];
        }
        *o = acc;
    }
}

// ---------------------------------------------------------------------------
// AVX2 csrmm tile (f64), compiled on x86_64 and reached only after
// `is_x86_feature_detected!("avx2")` succeeded.
//
// No FMA: `_mm256_fmadd_pd` rounds once where `mul` + `add` round twice,
// which would break bit-identity with the reference.

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    use crate::ColIndex;

    /// Register-tiled csrmm row: two `__m256d` accumulators live across the
    /// whole sparse row per 8-column tile. mul + add (not fmadd) keeps each
    /// element's rounding identical to the scalar reference.
    ///
    /// # Safety
    /// AVX2 must be available; every `acols` entry must be a valid row of
    /// the `ncols`-wide row-major `bdata`; `out.len() == ncols` (checked by
    /// the dispatching wrapper).
    #[target_feature(enable = "avx2")]
    pub unsafe fn csrmm_row_f64(
        acols: &[ColIndex],
        avals: &[f64],
        bdata: &[f64],
        ncols: usize,
        out: &mut [f64],
    ) {
        let mut c0 = 0;
        while c0 + 8 <= ncols {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for (k, &j) in acols.iter().enumerate() {
                let s = _mm256_set1_pd(*avals.get_unchecked(k));
                let bp = bdata.as_ptr().add(j as usize * ncols + c0);
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(s, _mm256_loadu_pd(bp)));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(s, _mm256_loadu_pd(bp.add(4))));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(c0), acc0);
            _mm256_storeu_pd(out.as_mut_ptr().add(c0 + 4), acc1);
            c0 += 8;
        }
        for c in c0..ncols {
            let mut acc = 0.0f64;
            for (k, &j) in acols.iter().enumerate() {
                acc += *avals.get_unchecked(k) * *bdata.get_unchecked(j as usize * ncols + c);
            }
            *out.get_unchecked_mut(c) = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                (x % 2000) as f64 / 7.0 - 140.0
            })
            .collect()
    }

    #[test]
    fn lower_bound_matches_partition_point() {
        let cases: Vec<Vec<ColIndex>> = vec![
            vec![],
            vec![5],
            vec![1, 3, 5, 7, 9],
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            (0..33).map(|i| i * 3).collect(),
        ];
        for cols in &cases {
            for probe in 0..110u32 {
                assert_eq!(
                    lower_bound(cols, probe),
                    cols.partition_point(|&c| c < probe),
                    "cols={cols:?} probe={probe}"
                );
            }
        }
    }

    #[test]
    fn csrmm_row_matches_reference_bitwise() {
        // Widths straddling the 8-column tile, rows with nnz 0..=9 to cover
        // every remainder-lane count. Both tiles are called directly, so the
        // portable one stays checked on AVX2 hosts too.
        type Tile = fn(&[ColIndex], &[f64], &[f64], usize, &mut [f64]);
        let scalar: Tile = csrmm_row_scalar::<f64>;
        #[allow(unused_mut)]
        let mut tiles = vec![("scalar", scalar)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 detected just above.
            let avx: Tile = |ac, av, bd, n, out| unsafe { avx2::csrmm_row_f64(ac, av, bd, n, out) };
            tiles.push(("avx2", avx));
        }
        for ncols in [1usize, 4, 7, 8, 9, 15, 16, 19] {
            let b = DenseMatrix::from_row_major(10, ncols, vals(10 * ncols, 4));
            for nnz in 0..=9usize {
                let acols: Vec<ColIndex> =
                    (0..nnz).map(|k| ((k * 3 + 1) % 10) as ColIndex).collect();
                let avals = vals(nnz, 5);
                let reference: Vec<f64> = (0..ncols)
                    .map(|c| {
                        let mut acc = 0.0f64;
                        for (&j, &aij) in acols.iter().zip(&avals) {
                            acc += aij * b.get(j as usize, c);
                        }
                        acc
                    })
                    .collect();
                for (name, tile) in &tiles {
                    let mut out = vec![f64::NAN; ncols];
                    tile(&acols, &avals, b.data(), ncols, &mut out);
                    assert_eq!(
                        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "ncols={ncols} nnz={nnz} tile={name}"
                    );
                }
            }
        }
    }

    #[test]
    fn csrmm_tree_variant_is_close_not_necessarily_identical() {
        let ncols = 16;
        let b = DenseMatrix::from_row_major(12, ncols, vals(12 * ncols, 6));
        let acols: Vec<ColIndex> = (0..12).map(|k| k as ColIndex).collect();
        let avals = vals(12, 7);
        let mut exact = vec![0.0f64; ncols];
        csrmm_row_into(&acols, &avals, &b, &mut exact);
        let mut tree = vec![0.0f64; ncols];
        csrmm_row_tree_into(&acols, &avals, &b, &mut tree);
        for (t, e) in tree.iter().zip(&exact) {
            assert!(t.approx_eq(*e, 1e-12, 1e-9), "tree={t} exact={e}");
        }
    }
}
