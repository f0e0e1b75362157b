//! Phase I: density-threshold selection and row classification (§III-A).
//!
//! "Keeping t small may mean that the work done by the CPU in Phase II
//! would increase, whereas keeping t large may tilt the balance towards the
//! GPU. Hence, we chose to identify t empirically."
//!
//! Three policies are provided:
//!
//! * [`ThresholdPolicy::Fixed`] — a caller-supplied threshold (what the
//!   Figure 8 sweep uses).
//! * [`ThresholdPolicy::Balanced`] — pick, from the row-size histogram's
//!   quantile candidates, the threshold that best balances the
//!   *estimated* Phase II work between the devices (the "analytical
//!   techniques to identify the threshold" the paper lists as future work
//!   — §VI).
//! * [`ThresholdPolicy::Empirical`] — the default and the paper's method:
//!   plan Phases II and III on the device cost models for every threshold
//!   of a log-spaced ladder and keep the cheapest. Every candidate's GPU
//!   width tables come from one [`LadderWidths`] pass; the winner hands its
//!   tables and its [`ClaimPlan`] on to the run.

use spmm_parallel::{DisjointSlice, ThreadPool};
use spmm_sparse::{ColIndex, CsrMatrix, RowHistogram, Scalar};

use crate::context::HeteroContext;
use crate::plan::{plan_claims_fresh, ClaimPlan, Split};

/// How Phase I picks the thresholds `t_A` and `t_B`. `Eq`/`Hash` are
/// derived (every variant is integer-parameterised) so a policy can key a
/// serve-layer artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThresholdPolicy {
    /// Use these exact thresholds for A and B.
    Fixed { t_a: usize, t_b: usize },
    /// Balance estimated Phase II device times over `candidates` histogram
    /// quantiles (per matrix), using the closed-form throughput estimates —
    /// the "analytical techniques" the paper lists as future work (§VI).
    Balanced { candidates: usize },
    /// The paper's approach: "we chose to identify t empirically" (§III-A).
    /// Evaluates the device cost models on the Phase II/III products for
    /// `candidates` histogram quantiles and keeps the argmin. More accurate
    /// than `Balanced` and costs one extra cost-model pass per candidate
    /// (offline preprocessing in the paper; not charged to the run).
    Empirical { candidates: usize },
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy::Empirical { candidates: 10 }
    }
}

/// The chosen thresholds plus the Boolean row classifications ("we prepare
/// a Boolean array of size equal to the number of rows", §III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    pub t_a: usize,
    pub t_b: usize,
    /// `true` ⇒ the row belongs to `A_H`.
    pub a_high: Vec<bool>,
    /// `true` ⇒ the row belongs to `B_H`.
    pub b_high: Vec<bool>,
}

impl Thresholds {
    /// Number of high-density rows of A.
    pub fn hd_rows_a(&self) -> usize {
        self.a_high.iter().filter(|&&h| h).count()
    }

    /// Number of high-density rows of B.
    pub fn hd_rows_b(&self) -> usize {
        self.b_high.iter().filter(|&&h| h).count()
    }
}

/// Everything Phase I produced: the thresholds plus the symbolic row-size
/// structures the search built along the way. The algorithm paths keep the
/// structures — the Phase III grain calculation reads its means and nnz
/// totals from these prefix sums instead of re-walking the CSR.
#[derive(Debug, Clone)]
pub struct Phase1Plan {
    pub thresholds: Thresholds,
    pub sym_a: SymbolicStructure,
    /// `None` for the self-product `A × A` (one structure serves both).
    pub sym_b: Option<SymbolicStructure>,
}

impl Phase1Plan {
    /// The B-side structure (A's own for the self-product).
    pub fn sym_b(&self) -> &SymbolicStructure {
        self.sym_b.as_ref().unwrap_or(&self.sym_a)
    }
}

/// Run Phase I: select thresholds per `policy` and classify every row of
/// `a` and `b`.
pub fn identify<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    policy: ThresholdPolicy,
) -> Thresholds {
    identify_plan(ctx, a, b, policy).thresholds
}

/// [`identify`] returning the symbolic structures alongside the
/// thresholds. Classification goes through [`SymbolicStructure::classify`]
/// (the cached size array), which is definitionally identical to
/// [`classify`] on the source matrix.
pub fn identify_plan<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    policy: ThresholdPolicy,
) -> Phase1Plan {
    search(ctx, a, b, policy).0
}

/// [`identify_plan`] plus what the run after it needs from Phase I: the
/// GPU output-width tables of the picked thresholds — `w_low` under the
/// `B_L` mask for every A row, and `w_high` under the `B_H` mask for the
/// `A_L` rows (0 on `A_H` rows) — and the Phase II/III [`ClaimPlan`] on
/// fresh devices of `ctx.platform` with adaptive grains. The empirical
/// search already built every candidate's tables in its one ladder pass
/// and planned every candidate, so the winner's tables and plan are handed
/// over rather than rebuilt; the `Fixed` and `Balanced` policies run the
/// same pass over a one-entry ladder and plan once. Either way the tables
/// are byte-equal to `masked_output_widths{,_for}` under the same masks.
pub(crate) fn identify_plan_with_claims<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    policy: ThresholdPolicy,
) -> (Phase1Plan, Vec<u32>, Vec<u32>, ClaimPlan) {
    let (plan, searched) = search(ctx, a, b, policy);
    let (widths, j, claims) = match searched {
        Some(winner) => winner,
        None => {
            let th = &plan.thresholds;
            let widths = LadderWidths::build(a, b, &[th.t_a], &[th.t_b], &ctx.pool);
            let split = Split::new(&plan.sym_a, th.t_a, plan.sym_b(), th.t_b);
            let tables = (widths.low(0), widths.high(0));
            let claims = plan_claims_fresh(ctx.platform, a, b, &split, tables);
            (widths, 0, claims)
        }
    };
    let (w_low, w_high) = (widths.low(j).to_vec(), widths.high(j).to_vec());
    (plan, w_low, w_high, claims)
}

/// Phase I proper. The empirical policy also returns the ladder tables it
/// costed its candidates against, with the winner's index and plan.
fn search<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    policy: ThresholdPolicy,
) -> (Phase1Plan, Option<(LadderWidths, usize, ClaimPlan)>) {
    let sym_a = SymbolicStructure::from_matrix(a);
    let sym_b = if std::ptr::eq(a, b) {
        None
    } else {
        Some(SymbolicStructure::from_matrix(b))
    };
    let mut searched = None;
    let (t_a, t_b) = match policy {
        ThresholdPolicy::Fixed { t_a, t_b } => (t_a, t_b),
        ThresholdPolicy::Balanced { candidates } => {
            let ha = RowHistogram::from_matrix(a);
            let hb = RowHistogram::from_matrix(b);
            let t_a = balanced_threshold(ctx, &ha, &hb, candidates);
            // For the self-product A × A the two scans coincide; in general
            // B gets its own balance point.
            let t_b = if std::ptr::eq(a, b) || (a.shape() == b.shape() && ha == hb) {
                t_a
            } else {
                balanced_threshold(ctx, &hb, &ha, candidates)
            };
            (t_a, t_b)
        }
        ThresholdPolicy::Empirical { candidates } => {
            let (t, winner) = empirical_threshold(
                ctx,
                a,
                b,
                candidates,
                &sym_a,
                sym_b.as_ref().unwrap_or(&sym_a),
            );
            searched = winner;
            (t, t)
        }
    };
    let a_high = sym_a.classify(t_a);
    let b_high = sym_b.as_ref().unwrap_or(&sym_a).classify(t_b);
    let plan = Phase1Plan {
        thresholds: Thresholds {
            t_a,
            t_b,
            a_high,
            b_high,
        },
        sym_a,
        sym_b,
    };
    (plan, searched)
}

/// The Boolean array: row `i` is high-density iff it has at least `t`
/// nonzeros. `t = 0` marks every row high (all-CPU degenerate case); a `t`
/// above the max row size marks none (HH-CPU degenerates to [13], §V-B d).
pub fn classify<T: Scalar>(m: &CsrMatrix<T>, t: usize) -> Vec<bool> {
    (0..m.nrows()).map(|i| m.row_nnz(i) >= t.max(1)).collect()
}

/// Symbolic row-size structure shared by every candidate of one Phase I
/// search: the per-row sizes plus an nnz-sorted copy with prefix sums.
///
/// Thresholding is monotone in row nnz, so once the sizes are sorted every
/// candidate's aggregate — HD/LD row counts, HD/LD nnz totals, and the
/// mean row sizes the Phase III grain calculation needs — falls out of one
/// `partition_point` binary search plus a prefix-sum lookup: `O(log n)`
/// per candidate instead of the `O(n + nnz)` re-scan the serial search
/// paid. The aggregates are *exact*, not approximate: integer sums over a
/// permutation of the same rows are order-free, so every derived f64 is
/// bit-identical to the quantity the per-candidate scan produced.
#[derive(Debug, Clone)]
pub struct SymbolicStructure {
    /// nnz of every row, in row order (row sizes fit u32: ≤ ncols).
    row_sizes: Vec<u32>,
    /// Row sizes sorted ascending.
    sorted_sizes: Vec<u32>,
    /// `prefix_nnz[k]` = total nnz of the `k` smallest rows.
    prefix_nnz: Vec<u64>,
}

impl SymbolicStructure {
    /// One `O(n log n)` pass over the matrix; every candidate afterwards is
    /// `O(log n)` (aggregates) or one cheap `O(n)` sweep of the cached size
    /// array (row lists / Boolean masks — no CSR walk).
    pub fn from_matrix<T: Scalar>(m: &CsrMatrix<T>) -> Self {
        let row_sizes: Vec<u32> = (0..m.nrows()).map(|i| m.row_nnz(i) as u32).collect();
        let mut sorted_sizes = row_sizes.clone();
        sorted_sizes.sort_unstable();
        let mut prefix_nnz = Vec::with_capacity(sorted_sizes.len() + 1);
        let mut acc = 0u64;
        prefix_nnz.push(0);
        for &s in &sorted_sizes {
            acc += s as u64;
            prefix_nnz.push(acc);
        }
        Self {
            row_sizes,
            sorted_sizes,
            prefix_nnz,
        }
    }

    /// Rows in the matrix.
    pub fn nrows(&self) -> usize {
        self.row_sizes.len()
    }

    /// Approximate heap footprint, for serve-layer cache accounting.
    pub fn byte_size(&self) -> usize {
        (self.row_sizes.len() + self.sorted_sizes.len()) * 4 + self.prefix_nnz.len() * 8
    }

    /// Total stored entries.
    pub fn nnz(&self) -> u64 {
        *self.prefix_nnz.last().unwrap()
    }

    /// Largest row size.
    pub fn max_row_nnz(&self) -> usize {
        self.sorted_sizes.last().copied().unwrap_or(0) as usize
    }

    /// nnz of row `i`, from the cached size array (no CSR access).
    pub fn row_size(&self, i: usize) -> usize {
        self.row_sizes[i] as usize
    }

    /// Index of the first sorted row with at least `max(t, 1)` nonzeros —
    /// everything below is `L`, everything from it on is `H`. `O(log n)`.
    fn split_point(&self, t: usize) -> usize {
        let t = t.max(1);
        self.sorted_sizes.partition_point(|&s| (s as usize) < t)
    }

    /// Number of high-density rows under threshold `t`. `O(log n)`.
    pub fn hd_rows(&self, t: usize) -> usize {
        self.nrows() - self.split_point(t)
    }

    /// Total nnz in low-density rows under `t`. `O(log n)`.
    pub fn ld_nnz(&self, t: usize) -> u64 {
        self.prefix_nnz[self.split_point(t)]
    }

    /// Total nnz in high-density rows under `t`. `O(log n)`.
    pub fn hd_nnz(&self, t: usize) -> u64 {
        self.nnz() - self.ld_nnz(t)
    }

    /// The Boolean array, identical to [`classify`] on the source matrix.
    pub fn classify(&self, t: usize) -> Vec<bool> {
        let t = t.max(1);
        self.row_sizes.iter().map(|&s| s as usize >= t).collect()
    }

    /// `(rows_h, rows_l)` in ascending row order — the exact walk order the
    /// stateful device models require, derived from the cached size array
    /// without touching the CSR.
    pub fn partition_rows(&self, t: usize) -> (Vec<usize>, Vec<usize>) {
        let split = self.split_point(t);
        let t = t.max(1);
        let mut rows_h = Vec::with_capacity(self.nrows() - split);
        let mut rows_l = Vec::with_capacity(split);
        for (i, &s) in self.row_sizes.iter().enumerate() {
            if s as usize >= t {
                rows_h.push(i);
            } else {
                rows_l.push(i);
            }
        }
        (rows_h, rows_l)
    }
}

/// Every ladder candidate's masked GPU output-width tables — the `width`
/// that [`GpuDevice::spmm_cost_planned`] reads per row — built in one
/// row-parallel pass instead of one stamp walk per candidate and mask.
///
/// Candidate `j` classifies B at `t_b[j]` and A at `t_a[j]` (each clamped
/// to `max(t, 1)` like [`classify`]). Its tables are:
///
/// * `low(j)` — widths under the `B_L` mask, for every A row;
/// * `high(j)` — widths under the `B_H` mask, for the rows of `A_L`
///   (0 on `A_H` rows, exactly like `masked_output_widths_for`).
///
/// **Why one pass is exact.** Column `c` of output row `i` survives the
/// `B_L` mask iff at least one of its contributing source rows `k` is
/// low, i.e. iff the *smallest* `|B(k,:)|` among them is `< t`; it
/// survives the `B_H` mask iff the *largest* is `≥ t`. Thresholding is
/// monotone in row size, so each source row maps once to its ladder
/// bucket — the number of thresholds at or below its size — and the pass
/// keeps, per touched column, only the min and max bucket of its sources.
/// Histogramming the row's columns by min and by max bucket then answers
/// every candidate by a prefix (low) or suffix (high) sum. Widths are
/// integer counts of the same column sets, so the tables are byte-equal
/// to `masked_output_widths{,_for}` under each candidate's masks for any
/// host thread count.
///
/// [`GpuDevice::spmm_cost_planned`]: spmm_hetsim::GpuDevice::spmm_cost_planned
#[derive(Debug, Clone)]
pub struct LadderWidths {
    nrows: usize,
    /// Candidate-major: `low[j * nrows + i]`.
    low: Vec<u32>,
    /// Candidate-major: `high[j * nrows + i]`.
    high: Vec<u32>,
}

impl LadderWidths {
    /// Build every candidate's tables in one pass over `a`'s rows on
    /// `pool`. `t_a` and `t_b` hold one threshold per candidate; `t_b`
    /// must be non-decreasing (ladders are) and hold fewer than 256
    /// entries, so a bucket fits a byte.
    pub fn build<T: Scalar>(
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        t_a: &[usize],
        t_b: &[usize],
        pool: &ThreadPool,
    ) -> Self {
        Self::build_with(a, b, t_a, t_b, pool, BucketScratch::new)
    }

    /// [`LadderWidths::build`] with every worker's scratch in the state of
    /// one that has already scattered `u32::MAX - 2` rows: its stamps hold
    /// generation 1 — which the counter reaches again two rows after the
    /// wrap — over nonsense buckets. A test drives the wrap guard with it
    /// without scattering four billion rows; the tables must not change.
    #[doc(hidden)]
    pub fn build_near_wrap<T: Scalar>(
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        t_a: &[usize],
        t_b: &[usize],
        pool: &ThreadPool,
    ) -> Self {
        Self::build_with(a, b, t_a, t_b, pool, |ncols, candidates| {
            let mut scratch = BucketScratch::new(ncols, candidates);
            scratch.generation = u32::MAX - 2;
            scratch.slots.fill(BucketSlot {
                stamp: 1,
                lo: candidates as u8,
                hi: 0,
            });
            scratch
        })
    }

    fn build_with<T: Scalar>(
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        t_a: &[usize],
        t_b: &[usize],
        pool: &ThreadPool,
        scratch: impl Fn(usize, usize) -> BucketScratch + Sync,
    ) -> Self {
        let m = t_b.len();
        assert_eq!(t_a.len(), m, "one A threshold per candidate");
        assert!(m < 256, "ladder buckets must fit a byte");
        assert!(
            t_b.windows(2).all(|w| w[0] <= w[1]),
            "the B ladder must be non-decreasing"
        );
        assert_eq!(a.ncols(), b.nrows(), "A and B incompatible");
        let n = a.nrows();
        let t_a: Vec<usize> = t_a.iter().map(|&t| t.max(1)).collect();
        let t_b: Vec<usize> = t_b.iter().map(|&t| t.max(1)).collect();
        // bucket(k) = number of thresholds ≤ |B(k,:)|: source k is high
        // for candidates j < bucket(k) and low for j ≥ bucket(k)
        let bucket: Vec<u8> = (0..b.nrows())
            .map(|k| t_b.partition_point(|&t| t <= b.row_nnz(k)) as u8)
            .collect();
        let mut low = vec![0u32; m * n];
        let mut high = vec![0u32; m * n];
        let low_out = DisjointSlice::new(&mut low);
        let high_out = DisjointSlice::new(&mut high);
        pool.for_each_guided_with(
            n,
            64,
            || scratch(b.ncols(), m),
            |scratch, range| {
                for i in range {
                    let a_size = a.row_nnz(i);
                    scratch.scatter_row(a.row(i).0, b, &bucket);
                    for (j, (w_low, w_high)) in scratch.widths().take(m).enumerate() {
                        // SAFETY: row `i` is claimed by exactly one worker,
                        // and `j * n + i` is distinct for every (j, i) with
                        // i < n, so no index is written twice.
                        unsafe {
                            if w_low != 0 {
                                low_out.write(j * n + i, w_low);
                            }
                            if w_high != 0 && a_size < t_a[j] {
                                high_out.write(j * n + i, w_high);
                            }
                        }
                    }
                }
            },
        );
        Self {
            nrows: n,
            low,
            high,
        }
    }

    /// Candidate `j`'s widths under its `B_L` mask, one per A row.
    pub fn low(&self, j: usize) -> &[u32] {
        &self.low[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Candidate `j`'s widths under its `B_H` mask on its `A_L` rows (0 on
    /// its `A_H` rows), one per A row.
    pub fn high(&self, j: usize) -> &[u32] {
        &self.high[j * self.nrows..(j + 1) * self.nrows]
    }
}

/// One touched output column of the row being scattered: the stamp of the
/// row that last touched it and the min / max ladder bucket among its
/// contributing source rows.
#[derive(Debug, Clone, Copy)]
struct BucketSlot {
    stamp: u32,
    lo: u8,
    hi: u8,
}

/// Per-worker scratch of the ladder pass: a generation-stamped slot per
/// output column (never cleared between rows) plus the current row's
/// column histograms by min and by max bucket.
struct BucketScratch {
    slots: Vec<BucketSlot>,
    generation: u32,
    /// `by_lo[b]` = columns of the row whose min source bucket is `b`.
    by_lo: Vec<u32>,
    /// `by_hi[b]` = columns of the row whose max source bucket is `b`.
    by_hi: Vec<u32>,
}

impl BucketScratch {
    fn new(ncols: usize, candidates: usize) -> Self {
        let fresh = BucketSlot {
            stamp: u32::MAX,
            lo: 0,
            hi: 0,
        };
        Self {
            slots: vec![fresh; ncols],
            generation: 0,
            by_lo: vec![0; candidates + 1],
            by_hi: vec![0; candidates + 1],
        }
    }

    /// Start a new row. Stamps start at `u32::MAX`, which a live
    /// generation never equals; when the counter would reach it, every
    /// stamp is rewritten first so a stale one cannot alias a future row.
    fn next_generation(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == u32::MAX {
            self.slots.iter_mut().for_each(|s| s.stamp = u32::MAX);
            self.generation = 0;
        }
        self.generation
    }

    /// Histogram the output columns of the row with source columns
    /// `sources` by the min and max bucket of their contributors.
    fn scatter_row<T: Scalar>(&mut self, sources: &[ColIndex], b: &CsrMatrix<T>, bucket: &[u8]) {
        self.by_lo.fill(0);
        self.by_hi.fill(0);
        // a single non-empty source needs no marking: its columns are
        // distinct and all share its bucket
        let mut live = sources.iter().filter(|&&k| b.row_nnz(k as usize) > 0);
        let (Some(&first), second) = (live.next(), live.next()) else {
            return;
        };
        if second.is_none() {
            let k = first as usize;
            let bk = bucket[k] as usize;
            self.by_lo[bk] = b.row_nnz(k) as u32;
            self.by_hi[bk] = b.row_nnz(k) as u32;
            return;
        }
        let generation = self.next_generation();
        for &k in sources {
            let bk = bucket[k as usize];
            for &c in b.row(k as usize).0 {
                let slot = &mut self.slots[c as usize];
                if slot.stamp != generation {
                    *slot = BucketSlot {
                        stamp: generation,
                        lo: bk,
                        hi: bk,
                    };
                    self.by_lo[bk as usize] += 1;
                    self.by_hi[bk as usize] += 1;
                } else if bk < slot.lo {
                    self.by_lo[slot.lo as usize] -= 1;
                    self.by_lo[bk as usize] += 1;
                    slot.lo = bk;
                } else if bk > slot.hi {
                    self.by_hi[slot.hi as usize] -= 1;
                    self.by_hi[bk as usize] += 1;
                    slot.hi = bk;
                }
            }
        }
    }

    /// `(low, high)` widths of the scattered row for candidates
    /// `0, 1, …`: the columns with a low source (min bucket ≤ j) and with
    /// a high source (max bucket > j), as running prefix sums.
    fn widths(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let columns: u32 = self.by_hi.iter().sum();
        self.by_lo
            .iter()
            .zip(&self.by_hi)
            .scan((0u32, columns), |(low, high), (&l, &h)| {
                *low += l;
                *high -= h;
                Some((*low, *high))
            })
    }
}

/// Pick the candidate threshold minimising the estimated Phase II wall
/// time `max(cpu(A_H × B_H), gpu(A_L × B_L))`.
///
/// Work volumes are estimated from the histograms alone, assuming
/// uniformly placed columns: an entry of `A_X` lands in a row of `B_Y`
/// with probability `nnz(B_Y) / (rows(B) · mean(B))`, so
/// `flops(A_X × B_Y) ≈ nnz(A_X) · nnz(B_Y) / rows(B)` — the a-priori proxy
/// for the true flop count (which §I notes cannot be known without doing
/// the multiplication). Device speeds come from the density-aware
/// estimates in [`HeteroContext`].
fn balanced_threshold(
    ctx: &HeteroContext,
    rows_hist: &RowHistogram,
    other_hist: &RowHistogram,
    candidates: usize,
) -> usize {
    let total_nnz = rows_hist.nnz() as f64;
    let other_rows = other_hist.nrows() as f64;
    let other_nnz = other_hist.nnz() as f64;

    let mut best = (f64::INFINITY, 1usize);
    for t in rows_hist.threshold_candidates(candidates) {
        let hd_nnz = rows_hist.high_density_nnz(t) as f64;
        let ld_nnz = total_nnz - hd_nnz;
        let other_hd_rows = other_hist.high_density_rows(t) as f64;
        let other_hd_nnz = other_hist.high_density_nnz(t) as f64;
        let mean_high = if other_hd_rows > 0.0 {
            other_hd_nnz / other_hd_rows
        } else {
            0.0
        };
        let other_ld_rows = other_rows - other_hd_rows;
        let other_ld_nnz = other_nnz - other_hd_nnz;
        let mean_low = if other_ld_rows > 0.0 {
            other_ld_nnz / other_ld_rows
        } else {
            0.0
        };

        // flops of the two Phase II products under uniform column placement
        let flops_hh = hd_nnz * other_hd_nnz / other_rows;
        let flops_ll = ld_nnz * other_ld_nnz / other_rows;
        let cpu_est = flops_hh * ctx.cpu_ns_per_flop_estimate(mean_high);
        let gpu_est = flops_ll * ctx.gpu_ns_per_flop_estimate(mean_low);
        let wall = cpu_est.max(gpu_est);
        if wall < best.0 {
            best = (wall, t);
        }
    }
    best.1
}

/// The empirical search's candidate thresholds for operands whose longest
/// row holds `max_row_nnz` entries: log-spaced powers of two from 2, then
/// `max_row_nnz + 1` (the all-GPU end), thinned evenly to at most about
/// `candidates` entries while keeping both ends. The interesting
/// thresholds live in the distribution's tail, which row-count quantiles
/// never reach. Strictly increasing.
pub fn empirical_ladder(max_row_nnz: usize, candidates: usize) -> Vec<usize> {
    let mut ladder: Vec<usize> = Vec::new();
    let mut t = 2usize;
    while t <= max_row_nnz {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(max_row_nnz + 1);
    if ladder.len() > candidates {
        // thin evenly, keeping the ends
        let stride = ladder.len().div_ceil(candidates);
        let last = *ladder.last().unwrap();
        ladder = ladder.into_iter().step_by(stride).collect();
        if *ladder.last().unwrap() != last {
            ladder.push(last);
        }
    }
    ladder
}

/// The paper's empirical Phase I search: for each candidate threshold,
/// plan Phases II and III on the device cost models (fresh device state
/// per candidate) and keep the candidate with the smallest estimated
/// total. One threshold is used for both matrices, as in the paper's
/// per-matrix experiments (Figure 5 annotates a single threshold).
///
/// Every candidate's width tables come from one [`LadderWidths`] pass on
/// the host pool before the ladder fans out; candidates then only borrow
/// their slices. The fan-out gives every candidate its own freshly built
/// devices (no shared mutable state), the candidate plans come back in
/// ladder order, and the argmin is taken serially with a strict `<` — so
/// the picked `t` and its plan are bit-identical for every host thread
/// count.
///
/// Returns the pick plus the ladder tables, the pick's index in them and
/// its plan (`None` when no candidate beat the `t = 1` fallback).
fn empirical_threshold<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    candidates: usize,
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
) -> (usize, Option<(LadderWidths, usize, ClaimPlan)>) {
    // The single shared `t` classifies *both* matrices, so for A ≠ B
    // products (the Figure 10 workload) the ladder must span whichever
    // tail is longer — building it from A alone would leave B's hub rows
    // unexplored.
    let ladder = empirical_ladder(sym_a.max_row_nnz().max(sym_b.max_row_nnz()), candidates);
    let widths = LadderWidths::build(a, b, &ladder, &ladder, &ctx.pool);
    let plans = ctx.pool.par_map(ladder.len(), |k| {
        let split = Split::new(sym_a, ladder[k], sym_b, ladder[k]);
        let tables = (widths.low(k), widths.high(k));
        plan_claims_fresh(ctx.platform, a, b, &split, tables)
    });
    let mut best = (f64::INFINITY, 1usize, None);
    for (k, plan) in plans.into_iter().enumerate() {
        let total = plan.phase2.wall() + plan.phase3.wall();
        if total < best.0 {
            best = (total, ladder[k], Some((k, plan)));
        }
    }
    (best.1, best.2.map(|(k, plan)| (widths, k, plan)))
}

/// Cost-model-only estimate of Phases II and III for threshold `t` — the
/// [`plan_claims`](crate::plan::plan_claims) event loop `hh_cpu` runs, on fresh cold devices and
/// with no numeric work. Returns the estimated total (`phase II wall +
/// phase III wall`).
pub fn estimate_run<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    t: usize,
) -> f64 {
    let (p2, p3) = estimate_phases(ctx, a, b, t);
    p2 + p3
}

/// Like [`estimate_run`] but returns the two phase walls separately — the
/// series the Figure 8 sweep plots. Builds the symbolic structure on the
/// fly; sweeps evaluating many thresholds on one matrix should build a
/// [`SymbolicStructure`] once and call [`estimate_phases_with`].
pub fn estimate_phases<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    t: usize,
) -> (f64, f64) {
    let sym_a = SymbolicStructure::from_matrix(a);
    let sym_b = if std::ptr::eq(a, b) {
        None
    } else {
        Some(SymbolicStructure::from_matrix(b))
    };
    estimate_phases_with(ctx, a, b, t, &sym_a, sym_b.as_ref().unwrap_or(&sym_a))
}

/// [`estimate_phases`] against precomputed symbolic structures: every
/// classification aggregate (row lists, masks, mean row sizes, nnz totals)
/// is derived from `sym_a`/`sym_b` — `O(log n)` lookups plus one sweep of
/// the cached size arrays — instead of re-scanning the CSR per candidate.
/// Pass the same structure twice for the self-product.
///
/// GPU claims are costed through [`GpuDevice::spmm_cost_planned`] against
/// the width tables of a one-entry [`LadderWidths`] pass on the host pool
/// (bit-identical ns to the live stamp walk).
///
/// [`GpuDevice::spmm_cost_planned`]: spmm_hetsim::GpuDevice::spmm_cost_planned
pub fn estimate_phases_with<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    t: usize,
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
) -> (f64, f64) {
    let widths = LadderWidths::build(a, b, &[t], &[t], &ctx.pool);
    let split = Split::new(sym_a, t, sym_b, t);
    let tables = (widths.low(0), widths.high(0));
    let plan = plan_claims_fresh(ctx.platform, a, b, &split, tables);
    (plan.phase2.wall(), plan.phase3.wall())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};

    fn scale_free(n: usize, nnz: usize, alpha: f64) -> CsrMatrix<f64> {
        scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, alpha, 42))
    }

    #[test]
    fn fixed_policy_is_respected() {
        let ctx = HeteroContext::paper();
        let a = scale_free(2_000, 10_000, 2.3);
        let th = identify(&ctx, &a, &a, ThresholdPolicy::Fixed { t_a: 7, t_b: 9 });
        assert_eq!(th.t_a, 7);
        assert_eq!(th.t_b, 9);
        for i in 0..a.nrows() {
            assert_eq!(th.a_high[i], a.row_nnz(i) >= 7);
            assert_eq!(th.b_high[i], a.row_nnz(i) >= 9);
        }
    }

    #[test]
    fn classify_degenerate_ends() {
        let a = scale_free(1_000, 5_000, 2.5);
        // t = 0 (clamped to 1): every nonempty row is "high" → all-CPU
        let all = classify(&a, 0);
        let nonempty = (0..a.nrows()).filter(|&i| a.row_nnz(i) > 0).count();
        assert_eq!(all.iter().filter(|&&h| h).count(), nonempty);
        // t beyond max: nothing is high → algorithm degenerates to [13]
        let none = classify(&a, a.max_row_nnz() + 1);
        assert!(none.iter().all(|&h| !h));
    }

    #[test]
    fn balanced_picks_interior_threshold_on_scale_free_input() {
        let ctx = HeteroContext::paper();
        let a = scale_free(20_000, 120_000, 2.2);
        let th = identify(&ctx, &a, &a, ThresholdPolicy::Balanced { candidates: 16 });
        assert!(th.t_a > 1, "threshold should not be the all-CPU end");
        assert!(
            th.t_a <= a.max_row_nnz(),
            "threshold should not be the all-GPU end"
        );
        // scale-free ⇒ few high-density rows
        let hd = th.hd_rows_a();
        assert!(hd > 0, "some rows must be high-density");
        assert!(
            (hd as f64) < 0.5 * a.nrows() as f64,
            "most rows must stay low-density (hd = {hd})"
        );
    }

    #[test]
    fn self_product_uses_equal_thresholds() {
        let ctx = HeteroContext::paper();
        let a = scale_free(5_000, 30_000, 2.5);
        let th = identify(&ctx, &a, &a, ThresholdPolicy::default());
        assert_eq!(th.t_a, th.t_b);
    }

    #[test]
    fn empirical_beats_or_matches_balanced_in_model_time() {
        // the empirical search evaluates the true cost model, so its pick
        // can never be worse than the closed-form balance point
        let ctx = HeteroContext::scaled(16);
        let a = scale_free(8_000, 64_000, 2.2);
        let emp = identify(&ctx, &a, &a, ThresholdPolicy::default());
        let bal = identify(&ctx, &a, &a, ThresholdPolicy::Balanced { candidates: 16 });
        let emp_cost = estimate_run(&ctx, &a, &a, emp.t_a);
        let bal_cost = estimate_run(&ctx, &a, &a, bal.t_a);
        assert!(
            emp_cost <= bal_cost * 1.05,
            "empirical pick t={} ({emp_cost}) worse than balanced t={} ({bal_cost})",
            emp.t_a,
            bal.t_a
        );
    }

    #[test]
    fn hd_counts_match_masks() {
        let ctx = HeteroContext::paper();
        let a = scale_free(3_000, 15_000, 2.4);
        let th = identify(&ctx, &a, &a, ThresholdPolicy::Fixed { t_a: 5, t_b: 5 });
        assert_eq!(th.hd_rows_a(), th.a_high.iter().filter(|&&x| x).count());
        assert_eq!(th.hd_rows_a(), th.hd_rows_b());
    }
}
