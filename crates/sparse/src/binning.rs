//! Row binning for the adaptive accumulator engine.
//!
//! Scale-free inputs (§II, Fig. 1) spread intermediate row sizes over
//! orders of magnitude, so one accumulator shape cannot fit every output
//! row. The engine routes each row to the cheapest accumulator that holds
//! it (Liu & Vinter's upper-bound binning, specialised to our
//! bit-identical contract): rows whose structural bound fits
//! [`FUSED_UB_MAX`] are binned by that bound and scattered once; heavier
//! rows are sized exactly first and binned by their exact nnz.
//!
//! * [`RowBin::Copy`] — rows fed by exactly one masked B row. The output
//!   is `a_ij × B[j, :]` verbatim: each column is touched exactly once and
//!   B's columns are already ascending, so no accumulator runs at all.
//! * [`RowBin::List`] — tiny rows (`nnz ≤ list_max`); sorted-insertion
//!   list, no O(ncols) state, no sort at drain.
//! * [`RowBin::Hash`] — mid-size rows (`nnz ≤ hash_max`); open-addressing
//!   table whose working set is a few tens of KB.
//! * [`RowBin::Dense`] — hub rows; the classic dense SPA.
//!
//! Guided chunk sizes are bin-aware: hub bins get small chunks (each row
//! is a lot of work, so fine-grained stealing balances better) and tail
//! bins get large chunks (each row is trivial, so scheduling overhead
//! dominates).

/// Base chunk size for guided self-scheduling over undifferentiated rows —
/// the shared definition hoisted out of `core::kernels` / `core::schedule`.
pub const GUIDED_CHUNK: usize = 16;

/// Products below this many flops (equivalently, accumulator insertions)
/// skip row binning and run the single dense-SPA pass. Binning's payoff
/// scales with the numeric work but its cost is fixed — two to three extra
/// parallel dispatches — so on tiny products the dispatches dominate any
/// per-row savings. The output is bit-identical either way; only the
/// wall clock changes.
pub const TINY_PRODUCT_FLOPS: u64 = 32 * 1024;

/// Per-thread staging budget for the fused single-pass tier, in potential
/// output entries (the [`crate::upper_bound`] bound, not exact nnz). Rows
/// at or under the budget skip the symbolic pass: they scatter once into a
/// bound-sized accumulator and drain into an exact-size staging carve-out
/// (≤ `FUSED_UB_MAX × (4 + 8)` bytes per row for f64 — comfortably inside
/// L2 next to the accumulator itself). Rows above it keep the exact
/// two-pass treatment: for hub rows the bound is loose (many colliding
/// sources), and staging a multi-MB over-allocation per row would evict
/// the very caches the accumulators are tuned for.
pub const FUSED_UB_MAX: u64 = 4096;

/// Which accumulator strategy the numeric engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccumStrategy {
    /// Bin rows by their structural upper bound (exact nnz for rows over
    /// [`FUSED_UB_MAX`]) and dispatch size-appropriate accumulators with
    /// bin-aware chunk sizes.
    #[default]
    Adaptive,
    /// The reference: exact symbolic pass, then one dense SPA for every
    /// row. Kept as the bit-identity oracle for tests and A/B timing.
    FixedSpa,
}

/// Size thresholds separating the accumulator bins, in output entries
/// (a row's bound, or its exact nnz once sized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinThresholds {
    /// Rows with `nnz ≤ list_max` use the sorted-insertion list.
    pub list_max: usize,
    /// Rows with `list_max < nnz ≤ hash_max` use the hash table; larger
    /// rows use the dense SPA.
    pub hash_max: usize,
}

impl Default for BinThresholds {
    fn default() -> Self {
        // list_max: insertion cost stays within ~2 cache lines of pair
        // data; hash_max: a ≤50%-load table of 2048 slots ≈ 32 KB for f64,
        // inside L1+L2 on every host we model.
        Self {
            list_max: 8,
            hash_max: 1024,
        }
    }
}

/// The accumulator bin an output row is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBin {
    /// Single masked source row: scaled verbatim copy, no accumulator.
    Copy,
    /// Tiny row: sorted-insertion [`crate::ListAccumulator`].
    List,
    /// Mid-size row: open-addressing [`crate::HashAccumulator`].
    Hash,
    /// Hub row: dense [`crate::SparseAccumulator`].
    Dense,
}

impl BinThresholds {
    /// Thresholds tuned to the output width. The hash table's only edge
    /// over the dense SPA is footprint — it stays inside L1/L2 while the
    /// SPA streams O(ncols) of stamps and values. When `ncols` is small
    /// enough that the SPA arrays themselves fit in cache (≲ 384 KB, i.e.
    /// `ncols < 2^15`), probing is pure overhead, so the hash bin is
    /// disabled and mid-size rows fall through to the SPA.
    pub fn for_ncols(ncols: usize) -> Self {
        let base = Self::default();
        if ncols < (1 << 15) {
            Self {
                hash_max: base.list_max,
                ..base
            }
        } else {
            base
        }
    }

    /// The accumulator bin for a row of `size` output entries (its bound,
    /// or its exact nnz once sized). Never [`RowBin::Copy`]: single-source
    /// rows are routed to the copy bin by their source count before any
    /// size is looked at.
    #[inline]
    pub fn classify(&self, size: usize) -> RowBin {
        if size <= self.list_max {
            RowBin::List
        } else if size <= self.hash_max {
            RowBin::Hash
        } else {
            RowBin::Dense
        }
    }
}

/// Guided chunk size for a bin: large chunks for the cheap tail bins,
/// small chunks for the expensive hub bins.
#[inline]
pub fn chunk_for(bin: RowBin) -> usize {
    match bin {
        RowBin::Copy => 16 * GUIDED_CHUNK,
        RowBin::List => 8 * GUIDED_CHUNK,
        RowBin::Hash => 2 * GUIDED_CHUNK,
        RowBin::Dense => GUIDED_CHUNK / 4,
    }
}

/// Guided chunk size for a *fused* bin, where rows were routed by their
/// upper bound rather than exact nnz. [`chunk_for`]'s hub tuning does not
/// apply: every fused row is bounded by [`FUSED_UB_MAX`], so even the
/// dense-SPA fused bin holds moderate rows, and the hub-sized chunk of
/// `GUIDED_CHUNK / 4` rows per claim would drown them in claim traffic
/// (the webbase-1M fused regression in BENCH was exactly this).
#[inline]
pub fn fused_chunk_for(bin: RowBin) -> usize {
    match bin {
        RowBin::Dense => 2 * GUIDED_CHUNK,
        other => chunk_for(other),
    }
}

/// Row indices partitioned by bin, preserving ascending order within each
/// bin (order only affects scheduling; output slots are pre-offset).
#[derive(Debug, Clone, Default)]
pub struct RowBins {
    pub copy: Vec<u32>,
    pub list: Vec<u32>,
    pub hash: Vec<u32>,
    pub dense: Vec<u32>,
}

/// Opt-in per-bin tallies, so bin-threshold tuning is data-driven instead
/// of guessed. Disabled (and costless beyond one relaxed load per engine
/// pass) by default; the perf probes enable it around a timed run and read
/// the totals back out with [`stats::take`]. Counters are process-global
/// atomics — concurrent engines simply sum.
pub mod stats {
    use super::RowBin;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

    const BINS: usize = 4;
    /// Display names, index-aligned with the snapshot arrays.
    pub const BIN_NAMES: [&str; BINS] = ["copy", "list", "hash", "dense"];

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static ROWS: [AtomicU64; BINS] = zeros();
    static ENTRIES: [AtomicU64; BINS] = zeros();
    static NANOS: [AtomicU64; BINS] = zeros();

    const fn zeros() -> [AtomicU64; BINS] {
        [
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
            AtomicU64::new(0),
        ]
    }

    #[inline]
    fn idx(bin: RowBin) -> usize {
        match bin {
            RowBin::Copy => 0,
            RowBin::List => 1,
            RowBin::Hash => 2,
            RowBin::Dense => 3,
        }
    }

    /// Turn collection on or off process-wide.
    pub fn enable(on: bool) {
        ENABLED.store(on, Relaxed);
    }

    /// Whether engines should spend time measuring their bin passes.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Relaxed)
    }

    /// Add one bin pass's totals: `rows` routed, `entries` output nonzeros
    /// drained, `ns` wall nanoseconds for the pass.
    pub fn record(bin: RowBin, rows: u64, entries: u64, ns: u64) {
        let i = idx(bin);
        ROWS[i].fetch_add(rows, Relaxed);
        ENTRIES[i].fetch_add(entries, Relaxed);
        NANOS[i].fetch_add(ns, Relaxed);
    }

    /// Accumulated per-bin totals, index-aligned with [`BIN_NAMES`].
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct BinSnapshot {
        pub rows: [u64; BINS],
        pub entries: [u64; BINS],
        pub ns: [u64; BINS],
    }

    /// Read every counter and reset it to zero.
    pub fn take() -> BinSnapshot {
        let mut snap = BinSnapshot::default();
        for i in 0..BINS {
            snap.rows[i] = ROWS[i].swap(0, Relaxed);
            snap.entries[i] = ENTRIES[i].swap(0, Relaxed);
            snap.ns[i] = NANOS[i].swap(0, Relaxed);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_tally_and_reset() {
        stats::enable(true);
        assert!(stats::enabled());
        let _ = stats::take();
        stats::record(RowBin::List, 3, 12, 1000);
        stats::record(RowBin::List, 1, 4, 500);
        stats::record(RowBin::Dense, 2, 4096, 9000);
        let snap = stats::take();
        assert_eq!(snap.rows, [0, 4, 0, 2]);
        assert_eq!(snap.entries, [0, 16, 0, 4096]);
        assert_eq!(snap.ns, [0, 1500, 0, 9000]);
        assert_eq!(stats::take(), stats::BinSnapshot::default());
        stats::enable(false);
        assert!(!stats::enabled());
    }

    #[test]
    fn classify_respects_thresholds() {
        let t = BinThresholds::default();
        assert_eq!(t.classify(0), RowBin::List);
        assert_eq!(t.classify(8), RowBin::List);
        assert_eq!(t.classify(9), RowBin::Hash);
        assert_eq!(t.classify(1024), RowBin::Hash);
        assert_eq!(t.classify(1025), RowBin::Dense);
    }

    #[test]
    fn narrow_outputs_disable_the_hash_bin() {
        let narrow = BinThresholds::for_ncols(4_000);
        assert_eq!(narrow.classify(100), RowBin::Dense);
        assert_eq!(narrow.classify(8), RowBin::List);
        let wide = BinThresholds::for_ncols(1 << 20);
        assert_eq!(wide, BinThresholds::default());
        assert_eq!(wide.classify(100), RowBin::Hash);
    }

    #[test]
    fn chunks_shrink_with_row_cost() {
        assert!(chunk_for(RowBin::Copy) >= chunk_for(RowBin::List));
        assert!(chunk_for(RowBin::List) > chunk_for(RowBin::Hash));
        assert!(chunk_for(RowBin::Hash) > chunk_for(RowBin::Dense));
        assert!(chunk_for(RowBin::Dense) >= 1);
    }
}
