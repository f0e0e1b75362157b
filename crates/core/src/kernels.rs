//! Numeric kernels for the partial products of Phases II/III.
//!
//! These compute the *real* arithmetic (the simulated devices only charge
//! time). Following the paper's kernel of [13], each output row is
//! accumulated *within* the kernel (the GPU uses its `PartialOutput` array,
//! the CPU a sparse accumulator) and only "the nonzero values of C(i,:) are
//! copied to the output" (§II-A-b) — so one stored entry is produced per
//! distinct `(row, col)` of the partial product, not per elementary
//! multiplication. Output is deterministic in row order regardless of host
//! thread count.
//!
//! Two backends coexist:
//!
//! * [`row_products`] — the two-pass Gustavson engine. A symbolic pass
//!   sizes every output row exactly, an exclusive scan turns the sizes
//!   into offsets, and a numeric pass writes each row into its pre-offset
//!   slot of one shared [`RowBlock`]. No intermediate tuple stream exists,
//!   so Phase IV degrades from a global sort to a per-row combine
//!   (`merge::concat_row_blocks`). The engine is *adaptive* by default
//!   ([`AccumStrategy::Adaptive`]): rows whose structural upper bound fits
//!   the staging budget skip the symbolic pass and scatter once (the fused
//!   tier), and every row is routed to the cheapest accumulator variant —
//!   single-source rows to a verbatim scaled copy, tiny rows to a sorted
//!   list, mid-size rows to a hash table, hubs to the dense SPA — with
//!   bin-aware guided chunk sizes. Every variant shares the dense SPA's
//!   observable semantics, so the adaptive output is bit-identical to the
//!   [`AccumStrategy::FixedSpa`] reference by construction.
//! * [`product_tuples`] — the legacy expansion path that materialises a
//!   `Vec<Triplet>` per partial product for the global Phase IV sort. Kept
//!   as a reference and for the wall-clock comparison in the benches.

use std::sync::Mutex;

use spmm_parallel::{DisjointSlice, ThreadPool};
use spmm_sparse::binning::stats as bin_stats;
use spmm_sparse::coo::Triplet;
use spmm_sparse::{
    chunk_for, fused_chunk_for, simd, upper_bound, AccumStrategy, BinThresholds, ColIndex,
    CsrMatrix, EngineWorkspace, PooledWorkspace, RowAccumulator, RowBin, RowBins, Scalar,
    SparseAccumulator, StagingBuffer, WorkspacePool, FUSED_UB_MAX, GUIDED_CHUNK,
    TINY_PRODUCT_FLOPS,
};

/// A partial product over a masked row set, stored as packed CSR rows.
///
/// `rows[k]` is the output-row index of stored row `k`; its entries live at
/// `indices[indptr[k]..indptr[k + 1]]` (columns ascending) and the matching
/// `values` range. Blocks from the four masked products are combined
/// per-row by `merge::concat_row_blocks`.
#[derive(Debug, Clone)]
pub struct RowBlock<T> {
    /// Output-row index of each stored row, in the order requested.
    pub rows: Vec<u32>,
    /// Offsets into `indices`/`values`; length `rows.len() + 1`.
    pub indptr: Vec<usize>,
    /// Column indices, ascending within each stored row.
    pub indices: Vec<ColIndex>,
    /// Values matching `indices`.
    pub values: Vec<T>,
}

impl<T> Default for RowBlock<T> {
    /// Delegates to [`RowBlock::empty`]. The derived impl would yield
    /// `indptr: vec![]`, an invalid block whose accessors disagree with
    /// every constructed block (`indptr` must always hold `rows + 1`
    /// offsets).
    fn default() -> Self {
        Self::empty()
    }
}

impl<T> RowBlock<T> {
    /// Empty block (no rows, no entries).
    pub fn empty() -> Self {
        Self {
            rows: Vec::new(),
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of stored rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Stored entries across all rows. Equals the number of accumulator
    /// insertions the kernel performed, which is what the simulated Phase
    /// IV merge cost is charged on (one tuple per stored entry).
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The `k`-th stored row: `(output row, columns, values)`.
    pub fn row(&self, k: usize) -> (u32, &[ColIndex], &[T]) {
        let (lo, hi) = (self.indptr[k], self.indptr[k + 1]);
        (self.rows[k], &self.indices[lo..hi], &self.values[lo..hi])
    }
}

/// Two-pass Gustavson product of the listed rows of `a` against `b`,
/// restricted to B rows allowed by `b_mask` (None ⇒ all).
///
/// Pass one sizes every output row with a [`RowSizer`]; an exclusive scan
/// converts the sizes to offsets; pass two re-runs the products through a
/// [`SparseAccumulator`] and drains each row, sorted, into its pre-offset
/// slot. Both passes run under guided self-scheduling with per-thread
/// scratch — row costs on scale-free inputs vary by orders of magnitude,
/// so static chunking would serialise on whichever thread drew the hubs.
/// Offsets are fixed by the symbolic pass, so the result is byte-identical
/// across thread counts.
pub fn row_products<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
) -> RowBlock<T> {
    row_products_pooled(
        a,
        b,
        rows,
        b_mask,
        pool,
        &WorkspacePool::new(),
        AccumStrategy::default(),
    )
}

/// [`row_products`] drawing per-thread scratch from a [`WorkspacePool`]
/// and running an explicit [`AccumStrategy`]. The pooled form is what the
/// algorithm paths call (via `HeteroContext::workspaces`), so the O(ncols)
/// stamp/value arrays are allocated once and generation-reused across all
/// four masked products and repeated multiplies.
pub fn row_products_pooled<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
    strategy: AccumStrategy,
) -> RowBlock<T> {
    assert_eq!(a.ncols(), b.nrows(), "incompatible shapes for product");
    if rows.is_empty() {
        return RowBlock::empty();
    }
    match strategy {
        AccumStrategy::FixedSpa => row_products_fixed(a, b, rows, b_mask, pool, workspaces),
        AccumStrategy::Adaptive => row_products_adaptive(a, b, rows, b_mask, pool, workspaces),
    }
}

/// Scatter one output row's partial products into `acc`: every masked
/// `a[row, j] × B[j, :]` contribution, in A-row visit order. All numeric
/// paths funnel through this, so the accumulation order — and therefore
/// every output bit — is defined in exactly one place.
#[inline]
pub(crate) fn scatter_row<T: Scalar, A: RowAccumulator<T>>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    row: usize,
    b_mask: Option<&[bool]>,
    acc: &mut A,
) {
    let (acols, avals) = a.row(row);
    for (&j, &aij) in acols.iter().zip(avals) {
        if let Some(mask) = b_mask {
            if !mask[j as usize] {
                continue;
            }
        }
        let (bcols, bvals) = b.row(j as usize);
        for (&c, &bjc) in bcols.iter().zip(bvals) {
            acc.scatter(c, aij * bjc);
        }
    }
}

/// Symbolic companion of [`scatter_row`]: mark the row's masked columns.
#[inline]
fn mark_row<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    row: usize,
    b_mask: Option<&[bool]>,
    sizer: &mut spmm_sparse::RowSizer,
) {
    let (acols, _) = a.row(row);
    for &j in acols {
        if let Some(mask) = b_mask {
            if !mask[j as usize] {
                continue;
            }
        }
        for &c in b.row(j as usize).0 {
            sizer.mark(c);
        }
    }
}

/// The fixed-SPA reference engine: one dense accumulator for every row,
/// uniform chunk size. This is PR 1's two-pass engine verbatim, kept as
/// the bit-identity oracle and the A/B timing baseline for the adaptive
/// path (scratch now pooled, which changes no bits — the arrays are
/// generation-cleared either way).
fn row_products_fixed<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> RowBlock<T> {
    let ncols = b.ncols();

    // Pass 1 (symbolic): distinct-column count of every requested row.
    let mut sizes = vec![0u64; rows.len()];
    {
        let out = DisjointSlice::new(&mut sizes);
        pool.for_each_guided_with(
            rows.len(),
            GUIDED_CHUNK,
            || workspaces.acquire_sizer(ncols),
            |sizer, range| {
                for k in range {
                    mark_row(a, b, rows[k], b_mask, sizer);
                    // each k written by exactly one claimant
                    unsafe { out.write(k, sizer.finish_row() as u64) };
                }
            },
        );
    }

    let (indptr, total) = offsets_from_sizes(sizes, pool);

    // Pass 2 (numeric): accumulate each row and write it into its slot.
    let mut indices = vec![0 as ColIndex; total];
    let mut values = vec![T::ZERO; total];
    {
        let out_idx = DisjointSlice::new(&mut indices);
        let out_val = DisjointSlice::new(&mut values);
        let indptr = &indptr;
        pool.for_each_guided_with(
            rows.len(),
            GUIDED_CHUNK,
            || workspaces.acquire::<T>(ncols),
            |ws, range| {
                for k in range {
                    let spa = &mut ws.spa;
                    scatter_row(a, b, rows[k], b_mask, spa);
                    let mut at = indptr[k];
                    debug_assert_eq!(indptr[k + 1] - at, spa.nnz());
                    spa.drain_sorted(|c, v| {
                        // rows own disjoint indptr ranges
                        unsafe {
                            out_idx.write(at, c);
                            out_val.write(at, v);
                        }
                        at += 1;
                    });
                }
            },
        );
    }

    pack_block(rows, indptr, indices, values)
}

/// The adaptive engine: the fused single-pass tier (Liu & Vinter's
/// upper-bound binning, specialised to our bit-identical contract). A
/// bounds pass gives every row its structural upper bound
/// `ub = Σ masked |B(k,:)|` and its masked source count; rows then route
/// three ways:
///
/// * **copy** (`nsrc ≤ 1`): the bound *is* the exact size — no symbolic
///   work, no accumulator, a verbatim scaled copy of the B row.
/// * **fused** (`nsrc ≥ 2`, `ub ≤ FUSED_UB_MAX`): scatter once through the
///   accumulator the bound selects, drain into an exact-size staging
///   carve-out, and record the now-exact size. The symbolic pass for these
///   rows never runs; a compaction memcpy stitches each staged run into
///   its final slot once the exclusive scan has fixed the offsets
///   (the same offset fix-up discipline as `shard::concat_row_bands`).
/// * **heavy** (`ub > FUSED_UB_MAX`): the bound is loose on hub rows with
///   many colliding sources, so they keep the exact two-pass treatment —
///   dense symbolic sizer, then numeric binned by exact nnz.
///
/// Bit-identity with the fixed-SPA reference holds by construction: every
/// row is still produced by [`scatter_row`]'s accumulation order and an
/// ascending drain (all accumulator variants share the dense SPA's
/// observable semantics), staged runs are copied verbatim, and the scan
/// runs over integer sizes that are exact in every bin.
fn row_products_adaptive<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> RowBlock<T> {
    let ncols = b.ncols();
    let thresholds = BinThresholds::for_ncols(ncols);

    // Bounds pass: masked source stats per requested row — the structural
    // upper bound (sum of masked B-row sizes, exact when no column
    // collides) and the masked source count saturated at 2 ("exactly one"
    // is the only distinction that matters).
    let mut ub = vec![0u64; rows.len()];
    let mut nsrc = vec![0u8; rows.len()];
    {
        let out_u = DisjointSlice::new(&mut ub);
        let out_n = DisjointSlice::new(&mut nsrc);
        pool.for_each_guided(rows.len(), 8 * GUIDED_CHUNK, |range| {
            for k in range {
                let bound = upper_bound::row_bound(a, b, rows[k], b_mask);
                unsafe {
                    out_u.write(k, bound.ub);
                    out_n.write(k, bound.nsrc);
                }
            }
        });
    }

    // Tiny products can't amortise the extra bin dispatches — run the
    // single dense pass instead (same bits, fewer parallel loops).
    if ub.iter().sum::<u64>() < TINY_PRODUCT_FLOPS {
        return row_products_fixed(a, b, rows, b_mask, pool, workspaces);
    }

    let mut sizes = vec![0u64; rows.len()];
    let mut copy: Vec<u32> = Vec::new();
    let mut fused_bins = RowBins::default();
    let mut heavy: Vec<u32> = Vec::new();
    for k in 0..rows.len() {
        if nsrc[k] <= 1 {
            sizes[k] = ub[k];
            copy.push(k as u32);
        } else if ub[k] <= FUSED_UB_MAX {
            match thresholds.classify(ub[k] as usize) {
                RowBin::List => fused_bins.list.push(k as u32),
                RowBin::Hash => fused_bins.hash.push(k as u32),
                _ => fused_bins.dense.push(k as u32),
            }
        } else {
            heavy.push(k as u32);
        }
    }

    // Fused passes: one scatter/drain per bounded row, staged. Buffers
    // that received rows are captured for compaction; empty ones return to
    // the pool straight from the worker's drop.
    let staged: Mutex<Vec<StagingBuffer<T>>> = Mutex::new(Vec::new());
    #[rustfmt::skip]
    {
        fused_bin(a, b, rows, b_mask, pool, workspaces, ncols, &fused_bins.list,
            RowBin::List, &ub, &mut sizes, &staged, sel_list);
        fused_bin(a, b, rows, b_mask, pool, workspaces, ncols, &fused_bins.hash,
            RowBin::Hash, &ub, &mut sizes, &staged, sel_hash);
        fused_bin(a, b, rows, b_mask, pool, workspaces, ncols, &fused_bins.dense,
            RowBin::Dense, &ub, &mut sizes, &staged, sel_spa);
    };

    // Exact symbolic sizing survives only for the heavy tail.
    if !heavy.is_empty() {
        let out = DisjointSlice::new(&mut sizes);
        pool.for_each_guided_items(
            &heavy,
            chunk_for(RowBin::Dense),
            || workspaces.acquire_sizer(ncols),
            |sizer, ks| {
                for &k in ks {
                    let k = k as usize;
                    mark_row(a, b, rows[k], b_mask, sizer);
                    // each k written by exactly one claimant
                    unsafe { out.write(k, sizer.finish_row() as u64) };
                }
            },
        );
    }

    let (indptr, total) = offsets_from_sizes(sizes, pool);

    let mut indices = vec![0 as ColIndex; total];
    let mut values = vec![T::ZERO; total];
    {
        let out_idx = DisjointSlice::new(&mut indices);
        let out_val = DisjointSlice::new(&mut values);

        copy_bin(a, b, rows, b_mask, pool, &copy, &indptr, &out_idx, &out_val);

        // Heavy rows re-bin by their now-exact nnz — a hub's bound can be
        // arbitrarily loose, so its exact size may land it anywhere.
        let mut heavy_bins = RowBins::default();
        for &k in &heavy {
            let k = k as usize;
            match thresholds.classify(indptr[k + 1] - indptr[k]) {
                RowBin::List => heavy_bins.list.push(k as u32),
                RowBin::Hash => heavy_bins.hash.push(k as u32),
                _ => heavy_bins.dense.push(k as u32),
            }
        }
        #[rustfmt::skip]
        {
            numeric_bin(a, b, rows, b_mask, pool, workspaces, ncols, &heavy_bins.list,
                RowBin::List, &indptr, &out_idx, &out_val, sel_list);
            numeric_bin(a, b, rows, b_mask, pool, workspaces, ncols, &heavy_bins.hash,
                RowBin::Hash, &indptr, &out_idx, &out_val, sel_hash);
            numeric_bin(a, b, rows, b_mask, pool, workspaces, ncols, &heavy_bins.dense,
                RowBin::Dense, &indptr, &out_idx, &out_val, sel_spa);
        };

        compact_staged(
            pool,
            staged.into_inner().unwrap(),
            workspaces,
            &indptr,
            &out_idx,
            &out_val,
        );
    }

    pack_block(rows, indptr, indices, values)
}

/// Per-worker scratch for one fused bin pass: a pooled workspace (the
/// accumulators) plus an owned staging arena. On worker exit the arena
/// either returns to the pool (nothing staged) or is captured into the
/// pass's sink so the compaction stage can read it — staged data must
/// outlive the worker that produced it.
pub(crate) struct FusedStager<'p, T: Scalar> {
    pub(crate) ws: PooledWorkspace<'p, T>,
    pool: &'p WorkspacePool,
    pub(crate) buf: Option<StagingBuffer<T>>,
    sink: &'p Mutex<Vec<StagingBuffer<T>>>,
}

impl<'p, T: Scalar> FusedStager<'p, T> {
    pub(crate) fn new(
        pool: &'p WorkspacePool,
        ncols: usize,
        sink: &'p Mutex<Vec<StagingBuffer<T>>>,
    ) -> Self {
        Self {
            ws: pool.acquire::<T>(ncols),
            pool,
            buf: Some(pool.take_staging()),
            sink,
        }
    }
}

impl<T: Scalar> Drop for FusedStager<'_, T> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            if buf.is_empty() {
                self.pool.release_staging(buf);
            } else {
                self.sink.lock().unwrap().push(buf);
            }
        }
    }
}

/// One fused bin: scatter every row through the accumulator `sel` chooses
/// (sized by the row's *bound* — an over-estimate never aliases, it only
/// rounds a table up), drain it once into the worker's staging arena, and
/// record the now-exact size for the scan.
#[allow(clippy::too_many_arguments)]
fn fused_bin<T, A, Sel>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
    ncols: usize,
    bin_rows: &[u32],
    bin: RowBin,
    ub: &[u64],
    sizes: &mut [u64],
    staged: &Mutex<Vec<StagingBuffer<T>>>,
    sel: Sel,
) where
    T: Scalar,
    A: RowAccumulator<T>,
    Sel: for<'w> Fn(&'w mut EngineWorkspace<T>, usize) -> &'w mut A + Sync,
{
    if bin_rows.is_empty() {
        return;
    }
    let t0 = bin_pass_start();
    {
        let out = DisjointSlice::new(sizes);
        pool.for_each_guided_items(
            bin_rows,
            fused_chunk_for(bin),
            || FusedStager::new(workspaces, ncols, staged),
            |stager, ks| {
                // disjoint field borrows: the accumulator lives in `ws`,
                // the staging arena next to it
                let buf = stager.buf.as_mut().expect("present until drop");
                for &k in ks {
                    let k = k as usize;
                    let acc = sel(&mut stager.ws, ub[k] as usize);
                    scatter_row(a, b, rows[k], b_mask, acc);
                    let n = buf.stage(k as u32, acc);
                    // each k written by exactly one claimant
                    unsafe { out.write(k, n as u64) };
                }
            },
        );
    }
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        let entries: u64 = bin_rows.iter().map(|&k| sizes[k as usize]).sum();
        bin_stats::record(bin, bin_rows.len() as u64, entries, ns);
    }
}

/// Compaction: memcpy every staged run into its final pre-offset slot and
/// return the drained arenas to the pool. Run lengths come off the final
/// indptr (the staged exact sizes fed the scan), so the copy is a pure
/// offset fix-up — the same discipline `shard::concat_row_bands` uses to
/// stitch row bands.
pub(crate) fn compact_staged<T: Scalar>(
    pool: &ThreadPool,
    staged: Vec<StagingBuffer<T>>,
    workspaces: &WorkspacePool,
    indptr: &[usize],
    out_idx: &DisjointSlice<'_, ColIndex>,
    out_val: &DisjointSlice<'_, T>,
) {
    for arena in &staged {
        pool.for_each_guided_items(
            &arena.rows,
            chunk_for(RowBin::Copy),
            || (),
            |(), items| {
                for &(key, start) in items {
                    let k = key as usize;
                    let at = indptr[k];
                    let n = indptr[k + 1] - at;
                    // rows own disjoint indptr ranges
                    unsafe {
                        out_idx.write_slice(at, &arena.cols[start..start + n]);
                        out_val
                            .slice_mut(at, n)
                            .copy_from_slice(&arena.vals[start..start + n]);
                    }
                }
            },
        );
    }
    for arena in staged {
        workspaces.release_staging(arena);
    }
}

/// The copy bin: the output row
/// is `a_ij × B[j, :]` verbatim — each column is touched exactly once and
/// B columns already ascend, so the copy is bit-identical to any
/// accumulator run and needs no accumulator state at all. SoA form: one
/// memcpy of B's columns plus one scaled copy of its values per source
/// row.
#[allow(clippy::too_many_arguments)]
fn copy_bin<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
    bin_rows: &[u32],
    indptr: &[usize],
    out_idx: &DisjointSlice<'_, ColIndex>,
    out_val: &DisjointSlice<'_, T>,
) {
    if bin_rows.is_empty() {
        return;
    }
    let t0 = bin_pass_start();
    pool.for_each_guided_items(
        bin_rows,
        chunk_for(RowBin::Copy),
        || (),
        |(), ks| {
            for &k in ks {
                let k = k as usize;
                let (acols, avals) = a.row(rows[k]);
                let mut at = indptr[k];
                for (&j, &aij) in acols.iter().zip(avals) {
                    if let Some(mask) = b_mask {
                        if !mask[j as usize] {
                            continue;
                        }
                    }
                    let (bcols, bvals) = b.row(j as usize);
                    // rows own disjoint indptr ranges
                    unsafe {
                        out_idx.write_slice(at, bcols);
                        simd::scaled_copy(aij, bvals, out_val.slice_mut(at, bvals.len()));
                    }
                    at += bcols.len();
                }
                debug_assert_eq!(at, indptr[k + 1]);
            }
        },
    );
    bin_pass_record(RowBin::Copy, bin_rows, indptr, t0);
}

/// Accumulator selectors for [`numeric_bin`] — free functions rather than
/// closures so the higher-ranked `for<'w>` bound infers cleanly.
pub(crate) fn sel_list<T: Scalar>(
    ws: &mut EngineWorkspace<T>,
    _size: usize,
) -> &mut spmm_sparse::ListAccumulator<T> {
    &mut ws.list
}

pub(crate) fn sel_hash<T: Scalar>(
    ws: &mut EngineWorkspace<T>,
    size: usize,
) -> &mut spmm_sparse::HashAccumulator<T> {
    // the exact nnz is known, so the table is sized once per row and the
    // mid-row grow path stays cold
    ws.hash.ensure_capacity(size);
    &mut ws.hash
}

pub(crate) fn sel_spa<T: Scalar>(
    ws: &mut EngineWorkspace<T>,
    _size: usize,
) -> &mut SparseAccumulator<T> {
    &mut ws.spa
}

/// One numeric bin (the heavy rows, sized exactly): scatter every row
/// through the accumulator `sel` chooses and drain it — SoA bulk drain
/// straight into its pre-offset column/value slots.
#[allow(clippy::too_many_arguments)]
fn numeric_bin<T, A, Sel>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
    ncols: usize,
    bin_rows: &[u32],
    bin: RowBin,
    indptr: &[usize],
    out_idx: &DisjointSlice<'_, ColIndex>,
    out_val: &DisjointSlice<'_, T>,
    sel: Sel,
) where
    T: Scalar,
    A: RowAccumulator<T>,
    Sel: for<'w> Fn(&'w mut EngineWorkspace<T>, usize) -> &'w mut A + Sync,
{
    if bin_rows.is_empty() {
        return;
    }
    let t0 = bin_pass_start();
    pool.for_each_guided_items(
        bin_rows,
        chunk_for(bin),
        || workspaces.acquire::<T>(ncols),
        |ws, ks| {
            for &k in ks {
                let k = k as usize;
                let at = indptr[k];
                let size = indptr[k + 1] - at;
                let acc = sel(ws, size);
                scatter_row(a, b, rows[k], b_mask, acc);
                debug_assert_eq!(size, acc.nnz());
                // rows own disjoint indptr ranges
                unsafe {
                    acc.drain_sorted_into(out_idx.slice_mut(at, size), out_val.slice_mut(at, size));
                }
            }
        },
    );
    bin_pass_record(bin, bin_rows, indptr, t0);
}

/// Start a bin-pass timing when the opt-in tallies are enabled.
#[inline]
pub(crate) fn bin_pass_start() -> Option<std::time::Instant> {
    bin_stats::enabled().then(std::time::Instant::now)
}

/// Record one bin pass (rows routed, entries drained, wall ns) into the
/// process-global tallies. No-op unless [`bin_pass_start`] armed.
pub(crate) fn bin_pass_record(
    bin: RowBin,
    bin_rows: &[u32],
    indptr: &[usize],
    t0: Option<std::time::Instant>,
) {
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        let entries: u64 = bin_rows
            .iter()
            .map(|&k| (indptr[k as usize + 1] - indptr[k as usize]) as u64)
            .sum();
        bin_stats::record(bin, bin_rows.len() as u64, entries, ns);
    }
}

/// Exclusive-scan `sizes` into a CSR `indptr`, returning it with the
/// entry total.
fn offsets_from_sizes(mut sizes: Vec<u64>, pool: &ThreadPool) -> (Vec<usize>, usize) {
    let total = spmm_parallel::exclusive_scan(&mut sizes, pool) as usize;
    let mut indptr = Vec::with_capacity(sizes.len() + 1);
    indptr.extend(sizes.iter().map(|&s| s as usize));
    indptr.push(total);
    (indptr, total)
}

fn pack_block<T>(
    rows: &[usize],
    indptr: Vec<usize>,
    indices: Vec<ColIndex>,
    values: Vec<T>,
) -> RowBlock<T> {
    RowBlock {
        rows: rows.iter().map(|&r| r as u32).collect(),
        indptr,
        indices,
        values,
    }
}

/// Multiply the listed rows of `a` against `b`, restricted to B rows
/// allowed by `b_mask` (None ⇒ all). Returns one tuple per stored entry of
/// the partial product, rows in `rows` order, columns sorted within a row.
pub fn product_tuples<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
) -> Vec<Triplet<T>> {
    assert_eq!(a.ncols(), b.nrows(), "incompatible shapes for product");
    if rows.is_empty() {
        return Vec::new();
    }
    // Chunk rows across threads; each chunk yields an ordered Vec and the
    // chunks concatenate in order, keeping the stream deterministic.
    let threads = pool.num_threads().min(rows.len());
    let chunk = rows.len().div_ceil(threads);
    let chunks: Vec<&[usize]> = rows.chunks(chunk).collect();
    let ncols = b.ncols();
    let parts: Vec<Vec<Triplet<T>>> = pool.map(chunks.len(), |ci| {
        // per-thread sparse accumulator (the kernel's PartialOutput) —
        // the shared SPA, same first-touch/accumulate/sorted-drain
        // semantics the hand-rolled stamp/acc/touched arrays used to
        // reimplement here
        let mut spa = SparseAccumulator::new(ncols);
        let mut out = Vec::new();
        for &i in chunks[ci] {
            scatter_row(a, b, i, b_mask, &mut spa);
            spa.drain_sorted(|col, val| {
                out.push(Triplet {
                    row: i as u32,
                    col,
                    val,
                });
            });
        }
        out
    });
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut tuples = Vec::with_capacity(total);
    for p in parts {
        tuples.extend(p);
    }
    tuples
}

/// Row indices selected (`true`) by a mask.
pub fn rows_where(mask: &[bool], want: bool) -> Vec<usize> {
    mask.iter()
        .enumerate()
        .filter_map(|(i, &h)| (h == want).then_some(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_sparse::reference;
    use spmm_sparse::CooMatrix;

    fn fig2_a() -> CsrMatrix<f64> {
        CsrMatrix::try_new(
            4,
            4,
            vec![0, 2, 4, 6, 8],
            vec![1, 2, 2, 3, 0, 2, 0, 3],
            vec![2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn all_rows_unmasked_matches_reference_product() {
        let a = fig2_a();
        let pool = ThreadPool::new(2);
        let rows: Vec<usize> = (0..4).collect();
        let tuples = product_tuples(&a, &a, &rows, None, &pool);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        // in-kernel accumulation ⇒ one tuple per output nonzero
        assert_eq!(tuples.len(), expected.nnz());
        let mut coo = CooMatrix::new(4, 4);
        for t in &tuples {
            coo.push_triplet(*t);
        }
        assert!(coo.to_csr().unwrap().approx_eq(&expected, 1e-12, 1e-12));
    }

    #[test]
    fn four_masked_products_cover_everything_exactly_once() {
        let a = fig2_a();
        let pool = ThreadPool::new(1);
        // threshold 2 on rows of a: all rows have exactly 2 nnz → vary mask
        let mask = vec![true, false, true, false];
        let high = rows_where(&mask, true);
        let low = rows_where(&mask, false);
        assert_eq!(high, vec![0, 2]);
        assert_eq!(low, vec![1, 3]);

        let mut all = Vec::new();
        for rows in [&high, &low] {
            for bmask in [&mask, &mask.iter().map(|&x| !x).collect::<Vec<_>>()] {
                all.extend(product_tuples(&a, &a, rows, Some(bmask), &pool));
            }
        }
        let mut coo = CooMatrix::new(4, 4);
        for t in &all {
            coo.push_triplet(*t);
        }
        let reference_c = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(coo.to_csr().unwrap().approx_eq(&reference_c, 1e-12, 1e-12));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let a = fig2_a();
        let rows: Vec<usize> = (0..4).collect();
        let t1 = product_tuples(&a, &a, &rows, None, &ThreadPool::new(1));
        let t4 = product_tuples(&a, &a, &rows, None, &ThreadPool::new(4));
        assert_eq!(t1.len(), t4.len());
        for (x, y) in t1.iter().zip(&t4) {
            assert_eq!(x.key(), y.key());
            assert_eq!(x.val, y.val);
        }
    }

    #[test]
    fn empty_row_list_yields_nothing() {
        let a = fig2_a();
        let pool = ThreadPool::new(2);
        assert!(product_tuples(&a, &a, &[], None, &pool).is_empty());
    }

    #[test]
    fn rows_where_partitions() {
        let mask = vec![true, false, false, true];
        assert_eq!(rows_where(&mask, true), vec![0, 3]);
        assert_eq!(rows_where(&mask, false), vec![1, 2]);
    }

    /// Rebuild a CSR matrix out of a single full-coverage block.
    fn block_to_csr(block: &RowBlock<f64>, shape: (usize, usize)) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(shape.0, shape.1);
        for k in 0..block.num_rows() {
            let (r, cols, vals) = block.row(k);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r as usize, c as usize, v);
            }
        }
        coo.to_csr().unwrap()
    }

    #[test]
    fn row_products_matches_reference_product() {
        let a = fig2_a();
        let pool = ThreadPool::new(2);
        let rows: Vec<usize> = (0..4).collect();
        let block = row_products(&a, &a, &rows, None, &pool);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        // in-kernel accumulation ⇒ one stored entry per output nonzero
        assert_eq!(block.nnz(), expected.nnz());
        assert!(block_to_csr(&block, (4, 4)).approx_eq(&expected, 1e-12, 1e-12));
    }

    #[test]
    fn row_products_agrees_with_product_tuples() {
        let a = fig2_a();
        let pool = ThreadPool::new(3);
        let mask = [true, false, true, false];
        for rows in [vec![0usize, 2], vec![1, 3], (0..4).collect()] {
            for bmask in [None, Some(&mask[..])] {
                let block = row_products(&a, &a, &rows, bmask, &pool);
                let tuples = product_tuples(&a, &a, &rows, bmask, &pool);
                assert_eq!(block.nnz(), tuples.len(), "entry counts must agree");
                let mut it = tuples.iter();
                for k in 0..block.num_rows() {
                    let (r, cols, vals) = block.row(k);
                    for (&c, &v) in cols.iter().zip(vals) {
                        let t = it.next().unwrap();
                        assert_eq!((t.row, t.col), (r, c));
                        assert!((t.val - v).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn row_products_is_deterministic_across_thread_counts() {
        let a = fig2_a();
        let rows: Vec<usize> = (0..4).collect();
        let b1 = row_products(&a, &a, &rows, None, &ThreadPool::new(1));
        let b4 = row_products(&a, &a, &rows, None, &ThreadPool::new(4));
        assert_eq!(b1.rows, b4.rows);
        assert_eq!(b1.indptr, b4.indptr);
        assert_eq!(b1.indices, b4.indices);
        assert_eq!(b1.values, b4.values);
    }

    #[test]
    fn default_row_block_is_the_empty_block() {
        // the derived Default used to yield `indptr: vec![]`, on which
        // `row(0)` / `nnz` disagree with every constructed block
        let d = RowBlock::<f64>::default();
        let e = RowBlock::<f64>::empty();
        assert_eq!(d.num_rows(), e.num_rows());
        assert_eq!(d.nnz(), e.nnz());
        assert_eq!(d.indptr, e.indptr);
        assert_eq!(d.indptr, vec![0]);
    }

    #[test]
    fn adaptive_engine_is_bit_identical_to_fixed_spa() {
        use spmm_scalefree::{scale_free_matrix, GeneratorConfig};
        let n = 800;
        let a: CsrMatrix<f64> =
            scale_free_matrix(&GeneratorConfig::square_power_law(n, 6_000, 2.2, 7));
        let rows: Vec<usize> = (0..n).collect();
        let ws = WorkspacePool::new();
        let mask: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            for bmask in [None, Some(&mask[..])] {
                let fixed =
                    row_products_pooled(&a, &a, &rows, bmask, &pool, &ws, AccumStrategy::FixedSpa);
                let adaptive =
                    row_products_pooled(&a, &a, &rows, bmask, &pool, &ws, AccumStrategy::Adaptive);
                assert_eq!(fixed.rows, adaptive.rows);
                assert_eq!(fixed.indptr, adaptive.indptr);
                assert_eq!(fixed.indices, adaptive.indices);
                let fb: Vec<u64> = fixed.values.iter().map(|v| v.to_bits()).collect();
                let ab: Vec<u64> = adaptive.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(fb, ab, "adaptive bits drifted (threads {threads})");
            }
        }
    }

    #[test]
    fn row_products_empty_inputs() {
        let a = fig2_a();
        let pool = ThreadPool::new(2);
        let block = row_products(&a, &a, &[], None, &pool);
        assert_eq!(block.num_rows(), 0);
        assert_eq!(block.nnz(), 0);
        // mask selecting no B rows ⇒ rows exist but are all empty
        let none = vec![false; 4];
        let rows: Vec<usize> = (0..4).collect();
        let block = row_products(&a, &a, &rows, Some(&none), &pool);
        assert_eq!(block.num_rows(), 4);
        assert_eq!(block.nnz(), 0);
        assert_eq!(block.indptr, vec![0, 0, 0, 0, 0]);
    }
}
