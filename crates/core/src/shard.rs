//! Sharded out-of-core SpGEMM: row-band partitioning over the HH-CPU
//! engine, with a memory-capped pipelined spill mode and a simulated 1.5D
//! communication sweep.
//!
//! A shard is "a claim schedule with a row offset": the [`ShardPlan`]
//! cuts A into contiguous nnz-balanced row bands, each band × full B runs
//! through the unmodified [`crate::hh_cpu_with_artifacts`] engine against
//! artifacts *sliced from one global Phase I* ([`SpmmArtifacts::for_row_band`]),
//! and the per-band CSR outputs are stitched back into monolithic C by
//! pure indptr offset fix-up — no re-sort, no re-merge. Bit-identity of
//! the stitched C to the monolithic run is a theorem of the engine's
//! structure (see DESIGN.md §3.7), and `tests/shard_equivalence.rs`
//! enforces it across every shard count × mode × thread count × clone.
//!
//! Two execution modes ([`ShardMode`]):
//!
//! * **Pooled** — shards fan out across the host [`ThreadPool`], each on
//!   a serial inner engine sharing the `Arc<WorkspacePool>` (the same
//!   outer-parallel/inner-serial shape as the serve layer's micro-batch).
//! * **Out-of-core** — band work fans across the host pool like `Pooled`,
//!   but admission into the pipeline is gated by a resident-byte budget
//!   ([`ResidentBudget`]: in-flight band inputs + finished C bands,
//!   byte-accurate against `byte_cap`), finished bands hand off to a
//!   dedicated write-behind spill thread that owns the [`SpillStore`], and
//!   the final stitch reads spilled chunks straight into the final arrays
//!   on a reader thread ([`SpillStore::into_stitched`]) — compute never
//!   blocks on `write_csr_chunk`, and the stitch never holds all bands
//!   resident or stages a chunk in memory.
//!   Band results commit in plan order regardless of completion order
//!   ([`OrderedCommitter`]), which is what keeps the stitched C *and* the
//!   summed profile bit-identical to the monolithic run (DESIGN.md §3.9).
//!   `SPMM_SHARD_IO_THREADS=0` ([`io_mode`]) degrades to the original
//!   synchronous loop: bands sequential on the full pool, inline spills.
//!
//! Every mode sets a band up the same way ([`BandSetup::run`]). A band's
//! Phase II/III plan is a pure function of its rows, the global masks and
//! width tables, the platform and the work-unit grains, so the first run
//! of a shard layout stores the band plans with the global artifacts
//! ([`SpmmArtifacts::band_plans`]) and later runs of that layout skip the
//! plan event loop (DESIGN.md §3.7).
//!
//! The [`ShardLink`] model prices the communication a real 1.5D
//! decomposition would pay (B replication factor `c` trades resident
//! memory against B-shift traffic) so the tradeoff is measurable before
//! any real multi-process work.

use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

use spmm_hetsim::{PhaseBreakdown, PhaseTimes, ShardLink, ShardLinkCost};
use spmm_parallel::{OrderedCommitter, ThreadPool};
use spmm_sparse::io::{read_csr_chunk, read_csr_chunk_into, write_csr_chunk};
use spmm_sparse::{CsrMatrix, Scalar, SparseError};

use crate::context::HeteroContext;
use crate::hhcpu::{run_with_artifacts, HhCpuConfig, SpmmArtifacts};
use crate::plan::ClaimPlan;
use crate::result::SpmmOutput;

/// Runtime pin for the out-of-core pipeline: `SPMM_SHARD_IO_THREADS=0`
/// forces the synchronous fallback (sequential bands, inline spill I/O);
/// unset or any positive count runs the pipelined path (one write-behind
/// spill thread + one stitch prefetch thread). [`io_mode::set_forced`] is
/// the in-process override for tests — it is process-global, so tests
/// that flip it must serialize with themselves.
pub mod io_mode {
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::OnceLock;

    /// 0 = follow the environment, 1 = forced sync, 2 = forced pipelined.
    static FORCED: AtomicU8 = AtomicU8::new(0);
    static FROM_ENV: OnceLock<bool> = OnceLock::new();

    fn env_pipelined() -> bool {
        match std::env::var("SPMM_SHARD_IO_THREADS") {
            Ok(v) => v.trim().parse::<usize>().map(|n| n > 0).unwrap_or(true),
            Err(_) => true,
        }
    }

    /// Does the out-of-core mode run the pipelined path?
    pub fn pipelined() -> bool {
        match FORCED.load(Ordering::Relaxed) {
            1 => false,
            2 => true,
            _ => *FROM_ENV.get_or_init(env_pipelined),
        }
    }

    /// Test hook: `Some(true)` forces pipelined, `Some(false)` forces the
    /// synchronous fallback, `None` restores environment dispatch.
    pub fn set_forced(on: Option<bool>) {
        let v = match on {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        };
        FORCED.store(v, Ordering::Relaxed);
    }
}

/// Partition of A's rows into contiguous, nnz-balanced bands.
///
/// `bounds` has `shards + 1` entries with `bounds[0] == 0` and
/// `bounds[shards] == nrows`; band `i` is rows `bounds[i]..bounds[i+1]`.
/// Cuts sit where A's `indptr` first reaches each target `i·nnz/k`
/// (binary search — the row pointers *are* the nnz prefix sums), so a few
/// hub rows don't leave one band with most of the work the way a
/// row-count split would on a scale-free matrix. Every band is non-empty;
/// the shard count is clamped to the row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Plan `shards` nnz-balanced bands over `a`'s rows.
    pub fn nnz_balanced<T: Scalar>(a: &CsrMatrix<T>, shards: usize) -> Self {
        let nrows = a.nrows();
        let k = shards.clamp(1, nrows.max(1));
        let nnz = a.nnz();
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0);
        for i in 1..k {
            let cut = if nnz == 0 {
                i * nrows / k
            } else {
                // first row pointer at or past the i-th nnz target
                let target = i * nnz / k;
                a.indptr().partition_point(|&p| p < target).min(nrows)
            };
            // keep bands non-empty: at least one row each side of the cut
            let prev = *bounds.last().unwrap();
            bounds.push(cut.clamp(prev + 1, nrows - (k - i)));
        }
        bounds.push(nrows);
        Self { bounds }
    }

    /// Number of bands.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Row range of band `i`.
    pub fn band(&self, i: usize) -> std::ops::Range<usize> {
        self.bounds[i]..self.bounds[i + 1]
    }

    /// The `shards + 1` band boundaries.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }
}

/// How the planned shards execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Shards fan out across the host pool, serial inner engines.
    Pooled,
    /// Band work fans across the host pool under a resident-byte budget of
    /// `byte_cap`; finished outputs spill to disk via a write-behind
    /// thread (or inline when [`io_mode::pipelined`] is off).
    OutOfCore { byte_cap: usize },
}

/// Configuration of one sharded multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Requested band count (clamped to A's row count by the planner).
    pub shards: usize,
    /// Execution mode.
    pub mode: ShardMode,
    /// B replication factor for the simulated 1.5D link sweep (clamped to
    /// `[1, shards]` by the model). Purely an accounting input: it never
    /// changes C or the per-shard profiles.
    pub replication: usize,
}

impl ShardConfig {
    /// Pooled execution over `shards` bands, replication 1.
    pub fn pooled(shards: usize) -> Self {
        Self {
            shards,
            mode: ShardMode::Pooled,
            replication: 1,
        }
    }

    /// Out-of-core execution under `byte_cap` resident bytes.
    pub fn out_of_core(shards: usize, byte_cap: usize) -> Self {
        Self {
            shards,
            mode: ShardMode::OutOfCore { byte_cap },
            replication: 1,
        }
    }

    /// Same config at a different replication factor.
    pub fn with_replication(mut self, c: usize) -> Self {
        self.replication = c;
        self
    }
}

/// Diagnostics of one pipelined out-of-core run — how the byte budget and
/// the write-behind thread actually behaved. Purely observational: none
/// of these values feed back into the computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// The configured resident-byte budget.
    pub byte_cap: usize,
    /// Peak bytes the budget ever held: in-flight band inputs + finished
    /// C bands not yet spilled. Bounded by `byte_cap` plus one band's
    /// working set (input + C) — the admission overrides that keep the
    /// pipeline deadlock-free each admit at most one band past the cap.
    pub peak_resident_bytes: usize,
    /// Worker threads the band work fanned across.
    pub workers: usize,
    /// Nanoseconds the write-behind spill thread spent idle waiting for
    /// finished bands (compute-bound run ⇒ large; I/O-bound ⇒ small).
    pub spill_wait_ns: u64,
    /// Nanoseconds workers spent blocked in budget admission (summed
    /// across workers).
    pub admit_wait_ns: u64,
}

/// Result of a sharded multiply: the stitched monolithic-equivalent
/// output plus the per-shard accounting the monolithic path cannot give.
#[derive(Debug)]
pub struct ShardedOutput<T: Scalar> {
    /// Stitched C and aggregate profile. `C` is bit-identical to the
    /// monolithic [`crate::hh_cpu`] on the same operands; the profile is
    /// the field-wise sum of `per_shard` (see DESIGN.md §3.7 for why that
    /// is the defined aggregation, not equality with the monolithic
    /// profile).
    pub output: SpmmOutput<T>,
    /// One simulated [`PhaseBreakdown`] per band, in band order.
    /// Mode- and thread-count-invariant for a fixed plan.
    pub per_shard: Vec<PhaseBreakdown>,
    /// The band partition that was executed.
    pub plan: ShardPlan,
    /// How many shard outputs took the disk round-trip (0 in pooled mode).
    pub spilled_shards: usize,
    /// Simulated 1.5D communication bill at `config.replication`.
    pub link: ShardLinkCost,
    /// Pipeline diagnostics — `Some` only for the pipelined out-of-core
    /// path (`None` for pooled and for the `SPMM_SHARD_IO_THREADS=0`
    /// synchronous fallback).
    pub pipe: Option<PipelineStats>,
}

/// Field-wise sum of per-shard simulated profiles — the defined
/// aggregation for a sharded run (each band is a full engine pass, so
/// phases accumulate; there is no overlap model across bands).
pub fn sum_profiles(profiles: &[PhaseBreakdown]) -> PhaseBreakdown {
    let mut total = PhaseBreakdown::default();
    for p in profiles {
        for (t, s) in [
            (&mut total.phase1, &p.phase1),
            (&mut total.phase2, &p.phase2),
            (&mut total.phase3, &p.phase3),
            (&mut total.phase4, &p.phase4),
        ] {
            *t = PhaseTimes::new(t.cpu_ns + s.cpu_ns, t.gpu_ns + s.gpu_ns);
        }
        total.transfer_ns += p.transfer_ns;
    }
    total
}

/// Stitch per-band CSR outputs (in band order) into one matrix by indptr
/// offset fix-up: each band's row pointers are rebased by the running nnz
/// total and the index/value arrays are concatenated verbatim. Rows are
/// never re-sorted or re-merged, so the stitched matrix is bit-identical
/// to the bands laid end to end.
pub fn concat_row_bands<T: Scalar>(bands: &[CsrMatrix<T>], ncols: usize) -> CsrMatrix<T> {
    let nrows: usize = bands.iter().map(CsrMatrix::nrows).sum();
    let nnz: usize = bands.iter().map(CsrMatrix::nnz).sum();
    let mut indptr = Vec::with_capacity(nrows + 1);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    indptr.push(0);
    let mut base = 0usize;
    for band in bands {
        debug_assert_eq!(band.ncols(), ncols, "bands must share the output width");
        indptr.extend(band.indptr()[1..].iter().map(|&p| p + base));
        indices.extend_from_slice(band.indices());
        values.extend_from_slice(band.values());
        base += band.nnz();
    }
    CsrMatrix::from_parts_unchecked(nrows, ncols, indptr, indices, values)
}

/// Run `C = A × B` sharded: global Phase I once, then each row band of A
/// × full B through the engine under `shard.mode`, stitched by offset
/// fix-up. See the module docs for the contract.
pub fn hh_cpu_sharded<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
    shard: &ShardConfig,
) -> ShardedOutput<T> {
    let artifacts = SpmmArtifacts::build(ctx, a, b, config.policy);
    hh_cpu_sharded_with_artifacts(ctx, a, b, config, shard, &artifacts)
}

/// [`hh_cpu_sharded`] against precomputed *global* artifacts (the serve
/// layer's warm path — the same artifacts serve monolithic and sharded
/// multiplies of the operands, because the plan is shard-invariant).
pub fn hh_cpu_sharded_with_artifacts<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
    shard: &ShardConfig,
    artifacts: &SpmmArtifacts,
) -> ShardedOutput<T> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "A and B incompatible for multiplication"
    );
    let plan = ShardPlan::nnz_balanced(a, shard.shards);
    let p = plan.shards();

    // Band input bytes come straight from A's row pointers — the
    // pipelined path must price a band for admission *before* deciding to
    // materialize it, and the link model wants the same numbers.
    let band_a_bytes: Vec<usize> = (0..p).map(|i| a.row_band_byte_size(plan.band(i))).collect();

    // Every band plans once per layout: the first run stores the band
    // plans with the global artifacts, and later runs hand them back.
    let stored = artifacts.band_plans(plan.bounds(), ctx.platform, config.units);
    let band = BandSetup {
        a,
        b,
        config,
        artifacts,
        plan: &plan,
        stored: stored.as_deref(),
    };

    let mut spilled_shards = 0usize;
    let mut pipe = None;
    // Each branch yields the band runs in plan order; the pipelined
    // branch also yields the already-stitched C plus per-band C bytes
    // (its outputs carry empty placeholder matrices — the real bands
    // streamed through the spill store).
    type BandRuns<T> = (Vec<BandRun<T>>, Option<(CsrMatrix<T>, Vec<usize>)>);
    let (runs, prestitched): BandRuns<T> = match shard.mode {
        ShardMode::Pooled => {
            // Outer-parallel, inner-serial: the same shape as the serve
            // layer's micro-batch. Device models are per-band (cheap);
            // the workspace pool is the shared, thread-keyed resource.
            let runs = ctx
                .pool
                .par_map(p, |i| band.run(&mut serial_band_ctx(ctx), i));
            (runs, None)
        }
        ShardMode::OutOfCore { byte_cap } if io_mode::pipelined() => {
            let run = run_out_of_core_pipelined(ctx, &band, byte_cap);
            spilled_shards = run.spilled;
            pipe = Some(run.stats);
            (run.runs, Some((run.c, run.band_c_bytes)))
        }
        ShardMode::OutOfCore { byte_cap } => {
            // Synchronous fallback (SPMM_SHARD_IO_THREADS=0): bands
            // run sequentially on the full host pool, spill I/O
            // inline, all bands restored before one batch concat.
            let mut spill = SpillStore::new(byte_cap);
            let mut runs: Vec<BandRun<T>> = Vec::with_capacity(p);
            for i in 0..p {
                let mut run = band.run(ctx, i);
                // Hand the finished C band to the spill store, which
                // evicts oldest-first whenever residency exceeds the
                // cap; the matrix left behind is an empty placeholder.
                let c = std::mem::replace(&mut run.0.c, CsrMatrix::zeros(0, 0));
                spill.push(i, c).expect("shard spill write failed");
                runs.push(run);
            }
            // Stream every band back (disk or memory) in band order.
            let restored = spill.drain().expect("shard spill read failed");
            spilled_shards = spill.spilled();
            for (run, c) in runs.iter_mut().zip(restored) {
                run.0.c = c;
            }
            (runs, None)
        }
    };

    let (outputs, planned): (Vec<SpmmOutput<T>>, Vec<Option<ClaimPlan>>) = runs.into_iter().unzip();
    if stored.is_none() {
        if let Some(plans) = planned.into_iter().collect() {
            artifacts.store_band_plans(plan.bounds(), ctx.platform, config.units, plans);
        }
    }
    let per_shard: Vec<PhaseBreakdown> = outputs.iter().map(|o| o.profile).collect();
    let tuples_merged: usize = outputs.iter().map(|o| o.tuples_merged).sum();
    let (c, band_c_bytes) = match prestitched {
        Some(stitched) => stitched,
        None => {
            let band_cs: Vec<CsrMatrix<T>> = outputs.into_iter().map(|o| o.c).collect();
            let bytes: Vec<usize> = band_cs.iter().map(CsrMatrix::byte_size).collect();
            (concat_row_bands(&band_cs, b.ncols()), bytes)
        }
    };

    let profile = sum_profiles(&per_shard);
    let th = &artifacts.plan.thresholds;
    let output = SpmmOutput {
        c,
        profile,
        threshold_a: th.t_a,
        threshold_b: th.t_b,
        hd_rows_a: th.hd_rows_a(),
        hd_rows_b: th.hd_rows_b(),
        tuples_merged,
    };

    let link = ShardLink::from_pci(ctx.link).cost(
        shard.replication,
        &band_a_bytes,
        b.byte_size(),
        &band_c_bytes,
    );

    ShardedOutput {
        output,
        per_shard,
        plan,
        spilled_shards,
        link,
        pipe,
    }
}

/// One band's engine output and the Phase II/III plan it made, if it had
/// no stored plan to reuse.
type BandRun<T> = (SpmmOutput<T>, Option<ClaimPlan>);

/// What every execution mode needs to run one band: the operands, the
/// global artifacts, the layout and the layout's stored band plans.
struct BandSetup<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    b: &'a CsrMatrix<T>,
    config: &'a HhCpuConfig,
    artifacts: &'a SpmmArtifacts,
    plan: &'a ShardPlan,
    /// The layout's stored band plans, in band order.
    stored: Option<&'a [ClaimPlan]>,
}

impl<T: Scalar> BandSetup<'_, T> {
    /// Run band `i` on `ctx`: materialize the band, slice the global
    /// artifacts to it, hand it its stored plan (if any) and run the
    /// engine. A band without a stored plan plans on `ctx`'s reset
    /// devices — the plan a fresh device would make — and returns it.
    fn run(&self, ctx: &mut HeteroContext, i: usize) -> BandRun<T> {
        let rows = self.plan.band(i);
        let band = self.a.row_band(rows.clone());
        let mut band_artifacts = self.artifacts.for_row_band(rows, &band);
        band_artifacts.claims = self.stored.map(|plans| plans[i].clone());
        run_with_artifacts(ctx, &band, self.b, self.config, &band_artifacts)
    }
}

/// A band worker's context: `ctx`'s platform and shared workspaces on a
/// serial pool (outer-parallel, inner-serial).
fn serial_band_ctx(ctx: &HeteroContext) -> HeteroContext {
    HeteroContext::with_shared(ctx.platform, ThreadPool::new(1), ctx.workspaces.clone())
}

/// Everything the pipelined out-of-core run hands back to the driver.
struct PipelinedRun<T: Scalar> {
    /// Band runs in plan order; output `c` fields are empty placeholders.
    runs: Vec<BandRun<T>>,
    /// The stitched C.
    c: CsrMatrix<T>,
    /// Per-band C bytes (link-model input), in plan order.
    band_c_bytes: Vec<usize>,
    /// Bands that took the disk round-trip.
    spilled: usize,
    stats: PipelineStats,
}

/// The pipelined out-of-core executor (see DESIGN.md §3.9).
///
/// Three stages, all bounded by one [`ResidentBudget`]:
///
/// 1. **Compute** — `min(pool, p)` workers claim bands *in plan order*;
///    admission waits until the band's input bytes fit under the cap.
///    Each worker runs the band through a serial inner engine (the same
///    shape as `Pooled`, so per-band outputs are bit-identical to it).
/// 2. **Commit + write-behind** — finished bands enter an
///    [`OrderedCommitter`], which releases them in plan order to an
///    unbounded channel feeding the spill thread. The spill thread owns
///    the [`SpillStore`] and evicts to disk exactly like the synchronous
///    path, so compute never blocks on `write_csr_chunk`.
/// 3. **Streaming stitch** — after the last commit the store sizes the
///    final matrix from its per-band row and entry counts, copies resident
///    bands into place, and has a reader thread read each spilled chunk
///    straight into its range while the previous band's row offsets are
///    checked and rebased.
fn run_out_of_core_pipelined<T: Scalar>(
    ctx: &HeteroContext,
    band: &BandSetup<'_, T>,
    byte_cap: usize,
) -> PipelinedRun<T> {
    let (a, plan) = (band.a, band.plan);
    let p = plan.shards();
    // Cap workers at the hardware's parallelism even when the host pool
    // asks for more: band compute is CPU-bound, so oversubscribed workers
    // only timeslice — every band then finishes clustered at the end,
    // which defeats the compute/spill overlap and piles admission waits
    // at the tail. Staggered completions keep the writer fed throughout.
    // Worker count never affects the bits (in-order commit).
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(usize::MAX);
    let workers = ctx.pool.num_threads().min(p).min(hw).max(1);
    let band_a_bytes: Vec<usize> = (0..p).map(|i| a.row_band_byte_size(plan.band(i))).collect();
    let budget = ResidentBudget::new(byte_cap);
    let outs: Mutex<Vec<Option<BandRun<T>>>> = Mutex::new((0..p).map(|_| None).collect());
    let band_c_bytes: Mutex<Vec<usize>> = Mutex::new(vec![0; p]);

    let (c, spilled, spill_wait_ns) = std::thread::scope(|s| {
        // The channel and committer live inside this scope so a worker
        // panic unwinds them (disconnecting the writer) before the scope
        // joins the writer thread — no deadlock on the way out.
        let (tx, rx) = mpsc::channel::<(usize, CsrMatrix<T>)>();
        let writer = s.spawn({
            let budget = &budget;
            move || -> Result<(SpillStore<T>, u64), SparseError> {
                let mut store = SpillStore::new(byte_cap);
                let mut wait_ns = 0u64;
                loop {
                    let idle = Instant::now();
                    let msg = rx.recv();
                    wait_ns += idle.elapsed().as_nanos() as u64;
                    let Ok((i, c)) = msg else { break };
                    let c_bytes = c.byte_size();
                    let before = store.resident_bytes();
                    let pushed = store.push(i, c).and_then(|()| {
                        // The store's own cap only sees C bands; the
                        // budget also carries in-flight band inputs.
                        // Keep evicting while the *global* residency
                        // (net of what this push already freed) is over
                        // cap, so over-cap excess never outlives the
                        // band that caused it.
                        loop {
                            let to_disk = before + c_bytes - store.resident_bytes();
                            if budget.resident().saturating_sub(to_disk) <= byte_cap
                                || !store.evict_one()?
                            {
                                return Ok(());
                            }
                        }
                    });
                    // Whatever the store evicted to disk (possibly this
                    // band, possibly older ones) leaves the budget.
                    let to_disk = before + c_bytes - store.resident_bytes();
                    budget.spill_done(to_disk);
                    if let Err(e) = pushed {
                        // Wake every admission waiter so workers drain
                        // instead of deadlocking on a budget that will
                        // never shrink; the join below surfaces the error.
                        budget.poison();
                        return Err(e);
                    }
                    // Write-behind: once the budget has demonstrated
                    // pressure (something already spilled), pre-stage the
                    // next eviction victim — the budget is already
                    // released, so the write overlaps band compute, and
                    // the eventual eviction drops the memory with no I/O
                    // on the admission path. Under a cap nothing ever
                    // hits, staging would be pure overhead, so it stays
                    // off.
                    if store.spilled() > 0 {
                        if let Err(e) = store.stage_oldest() {
                            budget.poison();
                            return Err(e);
                        }
                    }
                }
                Ok((store, wait_ns))
            }
        });

        // The commit closure owns `tx` (so dropping it after `finish`
        // disconnects the writer) and borrows the rest.
        let (outs_ref, bytes_ref, budget_ref, inputs_ref) =
            (&outs, &band_c_bytes, &budget, &band_a_bytes);
        let committer =
            OrderedCommitter::new(move |i: usize, (run, c): (BandRun<T>, CsrMatrix<T>)| {
                bytes_ref.lock().unwrap()[i] = c.byte_size();
                outs_ref.lock().unwrap()[i] = Some(run);
                // The band input dies here (the worker dropped it before
                // submitting); its C is now the writer's responsibility.
                budget_ref.commit(inputs_ref[i]);
                if tx.send((i, c)).is_err() {
                    // Writer already failed: it poisoned the budget, but
                    // the pending-spill count must not dangle.
                    budget_ref.spill_done(0);
                }
            });

        std::thread::scope(|ws| {
            for _ in 0..workers {
                let committer = &committer;
                let budget = &budget;
                let band_a_bytes = &band_a_bytes;
                ws.spawn(move || {
                    while let Some(i) = budget.claim_next(band_a_bytes) {
                        let mut run = band.run(&mut serial_band_ctx(ctx), i);
                        let c = std::mem::replace(&mut run.0.c, CsrMatrix::zeros(0, 0));
                        // C enters the budget the moment it exists; the
                        // band input leaves at commit time.
                        budget.charge_c(i, c.byte_size());
                        committer.submit(i, (run, c));
                    }
                });
            }
        });

        let (committed, commit) = committer.finish();
        assert_eq!(committed, p, "every band must commit");
        drop(commit); // drops tx → the writer's recv disconnects
        let (store, wait_ns) = writer
            .join()
            .expect("spill writer panicked")
            .expect("shard spill write failed");
        let spilled = store.spilled();
        let c = store
            .into_stitched(band.b.ncols())
            .expect("shard spill read failed");
        (c, spilled, wait_ns)
    });

    let runs: Vec<BandRun<T>> = outs
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("band output missing after commit"))
        .collect();
    let (peak_resident_bytes, admit_wait_ns) = budget.stats();
    PipelinedRun {
        runs,
        c,
        band_c_bytes: band_c_bytes.into_inner().unwrap(),
        spilled,
        stats: PipelineStats {
            byte_cap,
            peak_resident_bytes,
            workers,
            spill_wait_ns,
            admit_wait_ns,
        },
    }
}

/// Byte-accurate admission gate of the pipelined out-of-core run.
///
/// `resident` counts in-flight band inputs, finished C bands awaiting
/// commit or spill, and whatever the spill store still holds in memory.
/// All increments are gated at `byte_cap` except two deadlock-breaking
/// overrides, each of which admits at most one band's working set past
/// the cap at a time (hence the `peak ≤ byte_cap + one band` guarantee):
///
/// * a band may be *claimed* over the cap when nothing is in flight and
///   no spill is pending — otherwise an over-cap band could never start;
/// * a finished C may be *charged* over the cap when its band is the
///   oldest in flight — its commit is what lets everyone else progress.
struct ResidentBudget {
    cap: usize,
    state: Mutex<BudgetState>,
    cv: Condvar,
}

#[derive(Default)]
struct BudgetState {
    /// In-flight band inputs + unspilled finished C bytes.
    resident: usize,
    /// Bands claimed but not yet committed.
    inflight: usize,
    /// Bands committed to the writer but not yet pushed into the store.
    pending_spills: usize,
    /// Next band index to claim (claims happen in plan order).
    next_band: usize,
    /// Bands committed so far — the oldest in-flight band's index.
    committed: usize,
    peak: usize,
    admit_wait_ns: u64,
    /// Set on writer I/O failure: admission stops gating so workers
    /// drain and the error can surface at join.
    poisoned: bool,
}

impl ResidentBudget {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            state: Mutex::new(BudgetState::default()),
            cv: Condvar::new(),
        }
    }

    /// Claim the next band in plan order once its input fits the budget.
    fn claim_next(&self, band_bytes: &[usize]) -> Option<usize> {
        let mut g = self.state.lock().unwrap();
        loop {
            if g.next_band >= band_bytes.len() {
                return None;
            }
            let bytes = band_bytes[g.next_band];
            let fits = g.resident + bytes <= self.cap;
            let idle = g.inflight == 0 && g.pending_spills == 0;
            if fits || idle || g.poisoned {
                let i = g.next_band;
                g.next_band += 1;
                g.resident += bytes;
                g.inflight += 1;
                g.peak = g.peak.max(g.resident);
                return Some(i);
            }
            let blocked = Instant::now();
            g = self.cv.wait(g).unwrap();
            g.admit_wait_ns += blocked.elapsed().as_nanos() as u64;
        }
    }

    /// Charge a finished band's C bytes, waiting for room. The override:
    /// when `band` is the oldest in flight *and* the writer has drained
    /// its queue, the charge proceeds over cap — the oldest band's commit
    /// is what unblocks everyone else, and requiring an empty spill queue
    /// keeps successive overrides from stacking excess (the writer evicts
    /// the previous over-cap C before the next one may enter).
    fn charge_c(&self, band: usize, c_bytes: usize) {
        let mut g = self.state.lock().unwrap();
        loop {
            let fits = g.resident + c_bytes <= self.cap;
            let oldest = band == g.committed && g.pending_spills == 0;
            if fits || oldest || g.poisoned {
                break;
            }
            let blocked = Instant::now();
            g = self.cv.wait(g).unwrap();
            g.admit_wait_ns += blocked.elapsed().as_nanos() as u64;
        }
        g.resident += c_bytes;
        g.peak = g.peak.max(g.resident);
    }

    /// In-order commit of a band: its input bytes leave the budget, its C
    /// is now queued for the writer.
    fn commit(&self, input_bytes: usize) {
        let mut g = self.state.lock().unwrap();
        g.resident -= input_bytes;
        g.inflight -= 1;
        g.pending_spills += 1;
        g.committed += 1;
        self.cv.notify_all();
    }

    /// The writer finished one band; `disk_bytes` of residency moved to
    /// disk (this band and/or older evictions).
    fn spill_done(&self, disk_bytes: usize) {
        let mut g = self.state.lock().unwrap();
        g.resident -= disk_bytes;
        g.pending_spills -= 1;
        self.cv.notify_all();
    }

    /// Current resident bytes (writer-side view for global eviction).
    fn resident(&self) -> usize {
        self.state.lock().unwrap().resident
    }

    /// Writer I/O failure: stop gating so every waiter drains.
    fn poison(&self) {
        self.state.lock().unwrap().poisoned = true;
        self.cv.notify_all();
    }

    /// `(peak resident bytes, summed admission wait ns)`.
    fn stats(&self) -> (usize, u64) {
        let g = self.state.lock().unwrap();
        (g.peak, g.admit_wait_ns)
    }
}

/// Oldest-first spill store for out-of-core shard outputs: keeps finished
/// C bands in memory up to `byte_cap` CSR bytes, writing the overflow to
/// binary chunk files in a per-run temp directory. In the pipelined mode
/// the write-behind thread owns the store; the synchronous fallback
/// drives it inline. Either way the directory is removed by
/// [`SpillStore::drain`] / [`SpillStore::into_stitched`] on success and
/// by `Drop` on every other path (early error, panic unwind, writer
/// shutdown), so no spill files outlive the run.
pub struct SpillStore<T: Scalar> {
    byte_cap: usize,
    resident_bytes: usize,
    /// Oldest first.
    slots: Vec<Slot<T>>,
    dir: Option<std::path::PathBuf>,
    spilled: usize,
}

/// One band in the store: resident (`band` is `Some`), spilled (`None`),
/// or both — `staged` marks a resident band whose chunk file is already
/// on disk (write-behind), so evicting it frees memory with no I/O.
struct Slot<T: Scalar> {
    shard: usize,
    band: Option<CsrMatrix<T>>,
    staged: bool,
    /// The band's row and entry counts, kept for the stitch's sizing pass
    /// after the band itself has left memory.
    nrows: usize,
    nnz: usize,
}

impl<T: Scalar> SpillStore<T> {
    /// An empty store holding at most `byte_cap` resident CSR bytes.
    pub fn new(byte_cap: usize) -> Self {
        Self {
            byte_cap,
            resident_bytes: 0,
            slots: Vec::new(),
            dir: None,
            spilled: 0,
        }
    }

    /// How many bands have been written to disk so far.
    pub fn spilled(&self) -> usize {
        self.spilled
    }

    /// CSR bytes currently held in memory.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The spill directory, if any band has been evicted yet.
    pub fn dir_path(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    fn chunk_path(dir: &std::path::Path, shard: usize) -> std::path::PathBuf {
        dir.join(format!("shard-{shard}.csr"))
    }

    fn ensure_dir(&mut self) -> Result<std::path::PathBuf, SparseError> {
        match &self.dir {
            Some(d) => Ok(d.clone()),
            None => {
                let d = spill_dir()?;
                self.dir = Some(d.clone());
                Ok(d)
            }
        }
    }

    /// Add band `shard`, evicting oldest-first while over the byte cap.
    pub fn push(&mut self, shard: usize, c: CsrMatrix<T>) -> Result<(), SparseError> {
        self.resident_bytes += c.byte_size();
        self.slots.push(Slot {
            shard,
            nrows: c.nrows(),
            nnz: c.nnz(),
            band: Some(c),
            staged: false,
        });
        while self.resident_bytes > self.byte_cap && self.evict_one()? {}
        Ok(())
    }

    /// Write the chunk file of the *oldest* unstaged resident band — the
    /// next eviction victim — while keeping the band resident
    /// (write-behind staging). A later [`Self::evict_one`] of a staged
    /// band frees its memory without any I/O, so the admission critical
    /// path never waits on a disk write. Staging exactly the next victim
    /// (rather than every band) wastes at most one chunk write on a band
    /// that ends up never evicted. Returns `false` when every resident
    /// band is already staged.
    pub fn stage_oldest(&mut self) -> Result<bool, SparseError> {
        let Some(pos) = self
            .slots
            .iter()
            .position(|s| s.band.is_some() && !s.staged)
        else {
            return Ok(false);
        };
        let dir = self.ensure_dir()?;
        let slot = &self.slots[pos];
        let m = slot
            .band
            .as_ref()
            .expect("position() found a resident slot");
        let mut file = std::fs::File::create(Self::chunk_path(&dir, slot.shard))?;
        write_csr_chunk(m, &mut file)?;
        self.slots[pos].staged = true;
        Ok(true)
    }

    /// Spill the oldest resident band to disk regardless of the cap;
    /// `false` when nothing is left to evict. The pipelined writer uses
    /// this to shrink the store when the *global* budget — which also
    /// carries in-flight band inputs — is over cap even though the store
    /// alone is not. Bands already [`Self::stage`]d drop instantly.
    pub fn evict_one(&mut self) -> Result<bool, SparseError> {
        let Some(pos) = self.slots.iter().position(|s| s.band.is_some()) else {
            return Ok(false);
        };
        if !self.slots[pos].staged {
            let dir = self.ensure_dir()?;
            let slot = &self.slots[pos];
            let m = slot
                .band
                .as_ref()
                .expect("position() found a resident slot");
            let mut file = std::fs::File::create(Self::chunk_path(&dir, slot.shard))?;
            write_csr_chunk(m, &mut file)?;
        }
        let m = self.slots[pos]
            .band
            .take()
            .expect("position() found a resident slot");
        self.resident_bytes -= m.byte_size();
        self.spilled += 1;
        Ok(true)
    }

    /// Restore every band in index order (memory or disk) and remove the
    /// spill directory. The synchronous fallback's batch restore.
    pub fn drain(&mut self) -> Result<Vec<CsrMatrix<T>>, SparseError> {
        let mut slots = std::mem::take(&mut self.slots);
        slots.sort_by_key(|s| s.shard);
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot.band {
                Some(m) => out.push(m),
                None => {
                    let dir = self.dir.as_ref().expect("spilled shard without a dir");
                    let mut file = std::fs::File::open(Self::chunk_path(dir, slot.shard))?;
                    out.push(read_csr_chunk(&mut file)?);
                }
            }
        }
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(out)
    }

    /// Stitch every band (index order) into one matrix without ever
    /// holding all bands resident or staging a spilled chunk in memory.
    /// The sizing pass sums the row and entry counts the store recorded
    /// per band, allocates the final arrays once and carves them into
    /// per-band destination ranges. Resident bands are copied into their
    /// ranges on this thread; a reader thread reads each spilled chunk
    /// straight into its ranges ([`read_csr_chunk_into`]) and hands the
    /// band's row offsets back, so this thread checks and rebases one
    /// band while the next is read. Consumes the store; the spill
    /// directory is removed on the way out.
    pub fn into_stitched(mut self, ncols: usize) -> Result<CsrMatrix<T>, SparseError> {
        let mut slots = std::mem::take(&mut self.slots);
        slots.sort_by_key(|s| s.shard);
        let nrows: usize = slots.iter().map(|s| s.nrows).sum();
        let nnz: usize = slots.iter().map(|s| s.nnz).sum();
        // zero-filled allocations come straight from the allocator's
        // zeroed pages; every entry is overwritten below
        let mut indptr = vec![0usize; nrows + 1];
        let mut indices = vec![0u32; nnz];
        let mut values = vec![T::ZERO; nnz];

        // Carve the destinations: band k owns row offsets
        // row_start+1..=row_start+nrows (its leading offset is the
        // previous band's last, fixed by that band) and its nnz range.
        let (mut resident, mut spilled) = (Vec::new(), Vec::new());
        let (mut rows_left, mut idx_left, mut val_left) =
            (&mut indptr[1..], &mut indices[..], &mut values[..]);
        let mut base = 0usize;
        for slot in slots {
            let (rows, rest) = std::mem::take(&mut rows_left).split_at_mut(slot.nrows);
            rows_left = rest;
            let (idx, rest) = std::mem::take(&mut idx_left).split_at_mut(slot.nnz);
            idx_left = rest;
            let (val, rest) = std::mem::take(&mut val_left).split_at_mut(slot.nnz);
            val_left = rest;
            let dest = BandDest {
                indptr: rows,
                indices: idx,
                values: val,
                base,
            };
            base += slot.nnz;
            match slot.band {
                Some(band) => resident.push((band, dest)),
                None => spilled.push((slot.shard, dest)),
            }
        }

        let dir = self.dir.clone();
        std::thread::scope(|s| -> Result<(), SparseError> {
            let (tx, rx) = mpsc::channel::<Result<(usize, BandDest<'_, T>), SparseError>>();
            if !spilled.is_empty() {
                let dir = dir.expect("spilled shard without a dir");
                s.spawn(move || {
                    for (shard, dest) in spilled {
                        let read = std::fs::File::open(Self::chunk_path(&dir, shard))
                            .map_err(SparseError::from)
                            .and_then(|mut file| {
                                read_csr_chunk_into(
                                    &mut file,
                                    ncols,
                                    dest.indptr,
                                    dest.indices,
                                    dest.values,
                                )
                            })
                            .map(|first| (first, dest));
                        let failed = read.is_err();
                        // A closed receiver (consumer error/panic) or a
                        // read failure both end the reader.
                        if tx.send(read).is_err() || failed {
                            break;
                        }
                    }
                });
            } else {
                drop(tx);
            }
            for (band, dest) in resident {
                debug_assert_eq!(band.ncols(), ncols, "bands must share the output width");
                for (d, &p) in dest.indptr.iter_mut().zip(&band.indptr()[1..]) {
                    *d = p + dest.base;
                }
                dest.indices.copy_from_slice(band.indices());
                dest.values.copy_from_slice(band.values());
            }
            for read in rx {
                let (first, dest) = read?;
                rebase_checked(first, dest.indptr, dest.indices.len(), dest.base)?;
            }
            Ok(())
        })?;
        // `self` drops here, removing the spill directory.
        Ok(CsrMatrix::from_parts_unchecked(
            nrows, ncols, indptr, indices, values,
        ))
    }
}

/// One band's ranges of the stitched arrays: row offsets 1..=nrows of the
/// band, its column indices and values, and the entries before it.
struct BandDest<'a, T> {
    indptr: &'a mut [usize],
    indices: &'a mut [u32],
    values: &'a mut [T],
    base: usize,
}

/// Check a spilled band's row offsets as read from disk — leading offset
/// `first` is 0, `tail` never decreases, and the last offset is `nnz` —
/// and rebase them by `base` in place. A corrupt chunk is an error, never
/// a stitched matrix whose rows overlap or run past its entries.
fn rebase_checked(
    first: usize,
    tail: &mut [usize],
    nnz: usize,
    base: usize,
) -> Result<(), SparseError> {
    let bad = |msg: String| Err(SparseError::MalformedIndptr(msg));
    if first != 0 {
        return bad(format!(
            "spilled band's row offsets start at {first}, not 0"
        ));
    }
    let mut prev = 0usize;
    for (row, p) in tail.iter_mut().enumerate() {
        if *p < prev || *p > nnz {
            return bad(format!(
                "spilled band's row offset {} is {}, after {prev} (nnz {nnz})",
                row + 1,
                *p
            ));
        }
        prev = *p;
        *p += base;
    }
    if prev != nnz {
        return bad(format!(
            "spilled band's row offsets end at {prev}, not nnz {nnz}"
        ));
    }
    Ok(())
}

impl<T: Scalar> Drop for SpillStore<T> {
    fn drop(&mut self) {
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Unique spill directory per call: pid + a process-global counter, no
/// wall clock (the repo's determinism discipline) and no collisions
/// between concurrent sharded runs in one process.
fn spill_dir() -> Result<std::path::PathBuf, SparseError> {
    static COUNTER: Mutex<u64> = Mutex::new(0);
    let n = {
        let mut guard = COUNTER.lock().unwrap();
        *guard += 1;
        *guard
    };
    let dir = std::env::temp_dir().join(format!("spmm-shard-{}-{}", std::process::id(), n));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hhcpu::hh_cpu;
    use spmm_scalefree::GeneratorConfig;

    fn matrix(seed: u64) -> CsrMatrix<f64> {
        spmm_scalefree::scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(
            300, 2_000, 2.1, seed,
        ))
    }

    #[test]
    fn plan_covers_all_rows_with_balanced_nnz() {
        let a = matrix(7);
        for shards in [1, 2, 3, 8] {
            let plan = ShardPlan::nnz_balanced(&a, shards);
            assert_eq!(plan.shards(), shards);
            assert_eq!(plan.bounds()[0], 0);
            assert_eq!(*plan.bounds().last().unwrap(), a.nrows());
            let mut total = 0;
            for i in 0..plan.shards() {
                let band = plan.band(i);
                assert!(!band.is_empty(), "band {i} empty");
                total += band.len();
            }
            assert_eq!(total, a.nrows());
            // nnz balance: no band more than ~2× the ideal share + one
            // hub row (cuts land on row boundaries)
            let ideal = a.nnz() / shards;
            let max_row = a.max_row_nnz();
            for i in 0..plan.shards() {
                let band = plan.band(i);
                let nnz = a.indptr()[band.end] - a.indptr()[band.start];
                assert!(
                    nnz <= 2 * ideal + max_row,
                    "band {i} holds {nnz} of ~{ideal}"
                );
            }
        }
    }

    #[test]
    fn plan_clamps_shards_to_rows() {
        let tiny = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).unwrap();
        let plan = ShardPlan::nnz_balanced(&tiny, 8);
        assert_eq!(plan.shards(), 2);
        let empty = CsrMatrix::<f64>::zeros(5, 5);
        let plan = ShardPlan::nnz_balanced(&empty, 3);
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.bounds(), &[0, 1, 3, 5]);
    }

    #[test]
    fn concat_inverts_row_band() {
        let a = matrix(11);
        let plan = ShardPlan::nnz_balanced(&a, 5);
        let bands: Vec<_> = (0..5).map(|i| a.row_band(plan.band(i))).collect();
        let back = concat_row_bands(&bands, a.ncols());
        assert_eq!(back, a);
        assert_eq!(back.content_hash(), a.content_hash());
    }

    #[test]
    fn sharded_matches_monolithic_both_modes() {
        let a = matrix(3);
        let mut ctx = HeteroContext::paper().with_host_threads(2);
        let config = HhCpuConfig::default();
        let mono = hh_cpu(&mut ctx, &a, &a, &config);
        for mode in [ShardMode::Pooled, ShardMode::OutOfCore { byte_cap: 0 }] {
            let shard = ShardConfig {
                shards: 3,
                mode,
                replication: 1,
            };
            let out = hh_cpu_sharded(&mut ctx, &a, &a, &config, &shard);
            assert_eq!(out.output.c.content_hash(), mono.c.content_hash());
            assert_eq!(out.output.c, mono.c);
            assert_eq!(out.output.tuples_merged, mono.tuples_merged);
            assert_eq!(out.output.threshold_a, mono.threshold_a);
            assert_eq!(out.output.hd_rows_a, mono.hd_rows_a);
            assert_eq!(out.per_shard.len(), 3);
            if let ShardMode::OutOfCore { .. } = mode {
                assert_eq!(out.spilled_shards, 3, "byte_cap 0 must spill every shard");
            } else {
                assert_eq!(out.spilled_shards, 0);
                assert_eq!(out.pipe, None, "pooled mode has no pipeline");
            }
        }
    }

    #[test]
    fn profile_is_sum_of_shards_and_mode_invariant() {
        let a = matrix(5);
        let b = matrix(6);
        let mut ctx = HeteroContext::paper().with_host_threads(2);
        let config = HhCpuConfig::default();
        let pooled = hh_cpu_sharded(&mut ctx, &a, &b, &config, &ShardConfig::pooled(4));
        let ooc = hh_cpu_sharded(&mut ctx, &a, &b, &config, &ShardConfig::out_of_core(4, 0));
        assert_eq!(pooled.per_shard, ooc.per_shard);
        assert_eq!(pooled.output.profile, sum_profiles(&pooled.per_shard));
        assert_eq!(pooled.output.c, ooc.output.c);
    }

    #[test]
    fn single_shard_cross_product_equals_monolithic_profile() {
        // With one band and A ≠ B the band run is the monolithic run
        // (same operands, same artifacts values), so even the simulated
        // profile must agree to the bit.
        let a = matrix(9);
        let b = matrix(10);
        let mut ctx = HeteroContext::paper();
        let config = HhCpuConfig::default();
        let mono = hh_cpu(&mut ctx, &a, &b, &config);
        let out = hh_cpu_sharded(&mut ctx, &a, &b, &config, &ShardConfig::pooled(1));
        assert_eq!(out.output.c, mono.c);
        assert_eq!(out.output.profile, mono.profile);
        assert_eq!(out.output.tuples_merged, mono.tuples_merged);
    }

    #[test]
    fn replication_sweep_is_monotone() {
        let a = matrix(13);
        let mut ctx = HeteroContext::paper();
        let config = HhCpuConfig::default();
        let sweep: Vec<ShardLinkCost> = [1usize, 2, 4]
            .iter()
            .map(|&c| {
                hh_cpu_sharded(
                    &mut ctx,
                    &a,
                    &a,
                    &config,
                    &ShardConfig::pooled(8).with_replication(c),
                )
                .link
            })
            .collect();
        for pair in sweep.windows(2) {
            assert!(pair[1].b_shift_bytes < pair[0].b_shift_bytes);
            assert!(pair[1].resident_bytes > pair[0].resident_bytes);
        }
    }

    /// Serializes the tests that flip the process-global [`io_mode`] pin.
    static IO_MODE_LOCK: Mutex<()> = Mutex::new(());

    /// Largest per-band working set (input + C bytes) for a plan — the
    /// "one in-flight band" slack the budget's peak guarantee allows.
    fn max_band_working_set(a: &CsrMatrix<f64>, c: &CsrMatrix<f64>, plan: &ShardPlan) -> usize {
        (0..plan.shards())
            .map(|i| a.row_band_byte_size(plan.band(i)) + c.row_band_byte_size(plan.band(i)))
            .max()
            .unwrap()
    }

    #[test]
    fn pipelined_matches_sync_fallback_and_honors_budget() {
        let _guard = IO_MODE_LOCK.lock().unwrap();
        let a = matrix(21);
        let b = matrix(22);
        let config = HhCpuConfig::default();
        let mut ctx = HeteroContext::paper().with_host_threads(4);
        let mono = hh_cpu(&mut ctx, &a, &b, &config);
        for byte_cap in [0usize, 1, mono.c.byte_size() / 2, usize::MAX / 2] {
            let shard = ShardConfig::out_of_core(6, byte_cap);
            io_mode::set_forced(Some(false));
            let sync = hh_cpu_sharded(&mut ctx, &a, &b, &config, &shard);
            io_mode::set_forced(Some(true));
            let piped = hh_cpu_sharded(&mut ctx, &a, &b, &config, &shard);
            io_mode::set_forced(None);

            assert_eq!(sync.pipe, None, "sync fallback must not report a pipeline");
            assert_eq!(
                piped.output.c, mono.c,
                "pipelined C drifted (cap {byte_cap})"
            );
            assert_eq!(piped.output.c, sync.output.c);
            assert_eq!(piped.per_shard, sync.per_shard);
            assert_eq!(piped.output.profile, sync.output.profile);
            assert_eq!(piped.output.tuples_merged, sync.output.tuples_merged);
            assert_eq!(piped.spilled_shards, sync.spilled_shards);

            let stats = piped.pipe.expect("pipelined run must report stats");
            assert_eq!(stats.byte_cap, byte_cap);
            assert!(stats.workers >= 1);
            let slack = max_band_working_set(&a, &mono.c, &piped.plan);
            assert!(
                stats.peak_resident_bytes <= byte_cap.saturating_add(slack),
                "peak {} exceeds cap {} + one band {}",
                stats.peak_resident_bytes,
                byte_cap,
                slack
            );
        }
    }

    #[test]
    fn pipelined_is_the_default_out_of_core_path() {
        let _guard = IO_MODE_LOCK.lock().unwrap();
        io_mode::set_forced(Some(true));
        let a = matrix(23);
        let mut ctx = HeteroContext::paper().with_host_threads(2);
        let config = HhCpuConfig::default();
        let out = hh_cpu_sharded(&mut ctx, &a, &a, &config, &ShardConfig::out_of_core(4, 1));
        io_mode::set_forced(None);
        assert!(out.pipe.is_some());
        assert_eq!(
            out.spilled_shards, 4,
            "a 1-byte cap must spill every band in the pipelined path too"
        );
    }

    #[test]
    fn spill_store_removes_dir_on_drain_and_stitch() {
        let bands: Vec<CsrMatrix<f64>> = (0..4).map(|i| matrix(30 + i).row_band(0..50)).collect();
        // drain path
        let mut store = SpillStore::new(0);
        for (i, band) in bands.iter().enumerate() {
            store.push(i, band.clone()).unwrap();
        }
        let dir = store.dir_path().expect("cap 0 must spill").to_path_buf();
        assert!(dir.exists());
        let restored = store.drain().unwrap();
        assert_eq!(&restored, &bands);
        assert!(!dir.exists(), "drain must remove the spill dir");
        // streaming stitch path, mixed resident/spilled slots: a cap of
        // one max-size band keeps the newest band resident, spills the rest
        let cap = bands.iter().map(CsrMatrix::byte_size).max().unwrap() + 1;
        let mut store = SpillStore::new(cap);
        for (i, band) in bands.iter().enumerate() {
            store.push(i, band.clone()).unwrap();
        }
        assert!(store.spilled() > 0 && store.spilled() < bands.len());
        let dir = store.dir_path().unwrap().to_path_buf();
        let stitched = store.into_stitched(bands[0].ncols()).unwrap();
        assert_eq!(stitched, concat_row_bands(&bands, bands[0].ncols()));
        assert!(!dir.exists(), "into_stitched must remove the spill dir");
    }

    #[test]
    fn spill_store_removes_dir_on_early_drop_and_unwind() {
        let band: CsrMatrix<f64> = matrix(40).row_band(10..60);
        // early error / abandoned store: drop without drain
        let mut store = SpillStore::new(0);
        store.push(0, band.clone()).unwrap();
        let dir = store.dir_path().unwrap().to_path_buf();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "Drop must remove the spill dir");
        // panic unwind: the store dies mid-use inside a panicking scope
        let dir_cell = Mutex::new(None);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut store = SpillStore::new(0);
            store.push(0, band.clone()).unwrap();
            *dir_cell.lock().unwrap() = Some(store.dir_path().unwrap().to_path_buf());
            panic!("simulated band failure");
        }));
        assert!(unwound.is_err());
        let dir = dir_cell.lock().unwrap().take().unwrap();
        assert!(!dir.exists(), "panic unwind must remove the spill dir");
    }

    #[test]
    fn writer_thread_shutdown_leaves_no_spill_files() {
        // The pipelined mode's spill thread owns the store; whatever way
        // the thread ends — clean return or panic unwind — the store's
        // Drop must take the spill directory with it.
        let band: CsrMatrix<f64> = matrix(41).row_band(0..40);
        let clean = std::thread::spawn({
            let band = band.clone();
            move || {
                let mut store = SpillStore::new(0);
                store.push(0, band).unwrap();
                store.dir_path().unwrap().to_path_buf()
                // store dropped as the thread returns
            }
        })
        .join()
        .unwrap();
        assert!(!clean.exists(), "clean writer shutdown orphaned {clean:?}");

        let dir_cell = std::sync::Arc::new(Mutex::new(None));
        let panicked = std::thread::spawn({
            let dir_cell = dir_cell.clone();
            move || {
                let mut store = SpillStore::new(0);
                store.push(0, band).unwrap();
                *dir_cell.lock().unwrap() = Some(store.dir_path().unwrap().to_path_buf());
                panic!("simulated spill-thread failure");
            }
        })
        .join();
        assert!(panicked.is_err());
        let dir = dir_cell.lock().unwrap().take().unwrap();
        assert!(!dir.exists(), "panicking writer shutdown orphaned {dir:?}");
    }
}
