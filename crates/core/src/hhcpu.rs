//! Algorithm HH-CPU (the paper's Algorithm 1).

use std::sync::{Arc, Mutex};

use spmm_sparse::{AccumStrategy, CsrMatrix, Scalar};

use spmm_hetsim::{PhaseBreakdown, PhaseTimes, Platform};

use crate::context::HeteroContext;
use crate::plan::{plan_claims, ClaimPlan, Split};
use crate::result::SpmmOutput;
use crate::schedule::{self, ExecConfig, ExecPolicy};
use crate::threshold::{self, Phase1Plan, ThresholdPolicy};
use crate::units::WorkUnitConfig;

/// Configuration of one HH-CPU run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HhCpuConfig {
    /// Phase I threshold policy.
    pub policy: ThresholdPolicy,
    /// Phase III work-unit sizes; `None` ⇒ scale with the matrix
    /// ([`WorkUnitConfig::auto`]).
    pub units: Option<WorkUnitConfig>,
    /// Which executor runs the scheduled numeric work.
    pub exec: ExecPolicy,
    /// Which accumulator backs the executor's numeric rows (adaptive
    /// row-binned by default; `FixedSpa` is the A/B baseline).
    pub accum: AccumStrategy,
}

impl HhCpuConfig {
    /// Fixed equal thresholds for both matrices (the Figure 8 sweep).
    pub fn with_threshold(t: usize) -> Self {
        Self {
            policy: ThresholdPolicy::Fixed { t_a: t, t_b: t },
            ..Self::default()
        }
    }
}

/// Everything Phase I computes for one `(A, B, policy)` triple that is
/// worth keeping across repeated multiplies of the same operands: the
/// [`Phase1Plan`] (thresholds, Boolean masks, symbolic row-size structures),
/// the masked GPU width tables, and the Phase II/III [`ClaimPlan`] of the
/// picked thresholds. Building this is the dominant non-numeric cost of a
/// run — the empirical threshold search alone plans Phases II and III once
/// per ladder candidate — so a serve layer caches it keyed by content hash
/// and hands warm requests to [`hh_cpu_with_artifacts`], which is
/// bit-identical to a cold [`hh_cpu`] by construction (it consumes the same
/// values a cold run computes; only the wall-clock work of *recomputing*
/// them is skipped).
#[derive(Debug)]
pub struct SpmmArtifacts {
    /// The threshold policy the plan was built under (cache-key sanity).
    pub policy: ThresholdPolicy,
    /// Thresholds, Boolean masks, and symbolic structures.
    pub plan: Phase1Plan,
    /// GPU output-width table under the `B_L` mask (all A rows) — serves
    /// the Phase II `A_L × B_L` product and the GPU's `A_H × B_L` claims.
    pub w_low: Vec<u32>,
    /// Width table under the `B_H` mask on the `A_L` rows (0 on `A_H`
    /// rows) — serves the GPU's `A_L × B_H` claims when it drains the
    /// CPU's queue end.
    pub w_high: Vec<u32>,
    /// The Phase II/III plan on cold devices of the build context's
    /// platform with adaptive grains. `None` for a row band unless the
    /// sharded driver hands it the band's stored plan.
    pub claims: Option<ClaimPlan>,
    /// Per-band Phase II/III plans of the last shard layout run against
    /// these artifacts; storing another layout replaces them.
    band_plans: Mutex<Option<BandPlans>>,
}

/// The Phase II/III plans of one shard layout's bands, in band order, and
/// the key they were planned under.
#[derive(Debug)]
struct BandPlans {
    /// [`crate::shard::ShardPlan::bounds`] of the layout.
    bounds: Vec<usize>,
    platform: Platform,
    /// The run's `HhCpuConfig::units` (`None` = adaptive per band).
    units: Option<WorkUnitConfig>,
    plans: Arc<[ClaimPlan]>,
}

impl BandPlans {
    fn matches(&self, bounds: &[usize], platform: Platform, units: Option<WorkUnitConfig>) -> bool {
        self.bounds == bounds && self.platform == platform && self.units == units
    }

    fn heap_bytes(&self) -> usize {
        self.bounds.len() * std::mem::size_of::<usize>()
            + self.plans.len() * std::mem::size_of::<ClaimPlan>()
            + self.plans.iter().map(ClaimPlan::heap_bytes).sum::<usize>()
    }
}

impl SpmmArtifacts {
    /// Run Phase I — the cold-path work that [`hh_cpu`] performs on every
    /// call and a serve layer performs once per `(A, B, policy)`. The
    /// empirical search already built the width tables and the claim plan
    /// for every candidate, so the winner's are kept; the `Fixed` and
    /// `Balanced` policies build them once for their thresholds.
    pub fn build<T: Scalar>(
        ctx: &HeteroContext,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        policy: ThresholdPolicy,
    ) -> Self {
        let (plan, w_low, w_high, claims) = threshold::identify_plan_with_claims(ctx, a, b, policy);
        Self {
            policy,
            plan,
            w_low,
            w_high,
            claims: Some(claims),
            band_plans: Mutex::default(),
        }
    }

    /// Derive the artifacts for one contiguous row band of A, given the
    /// band materialized by [`CsrMatrix::row_band`] over the same range.
    ///
    /// This is the sharding contract's load-bearing move: Phase I ran
    /// *once* on the full operands, and every band inherits the global
    /// thresholds, the global `B` classification, and its slice of the
    /// global `A` masks and GPU width tables. Because every downstream
    /// decision that touches C's *bits* (which mask covers which row, how
    /// rows merge) depends only on the row's own content plus these global
    /// masks, a band run with sliced artifacts produces rows bit-identical
    /// to the monolithic run — re-running Phase I per band would not
    /// (per-band thresholds would reclassify rows). A row's widths depend
    /// only on its own sources and the global masks, so the sliced tables
    /// are exactly the band's own. The band's claim schedule is its own
    /// too, so it carries no plan; the sharded driver sets `claims` to the
    /// band's entry of [`Self::band_plans`] when one is stored.
    pub fn for_row_band<T: Scalar>(
        &self,
        rows: std::ops::Range<usize>,
        band: &CsrMatrix<T>,
    ) -> SpmmArtifacts {
        assert_eq!(
            band.nrows(),
            rows.len(),
            "band matrix must cover exactly the requested rows"
        );
        let th = &self.plan.thresholds;
        assert!(rows.end <= th.a_high.len(), "band range exceeds A");
        let plan = Phase1Plan {
            thresholds: threshold::Thresholds {
                t_a: th.t_a,
                t_b: th.t_b,
                a_high: th.a_high[rows.clone()].to_vec(),
                b_high: th.b_high.clone(),
            },
            sym_a: threshold::SymbolicStructure::from_matrix(band),
            sym_b: Some(self.plan.sym_b().clone()),
        };
        SpmmArtifacts {
            policy: self.policy,
            plan,
            w_low: self.w_low[rows.clone()].to_vec(),
            w_high: self.w_high[rows].to_vec(),
            claims: None,
            band_plans: Mutex::default(),
        }
    }

    /// The stored Phase II/III plans of the bands `bounds` cuts A into
    /// ([`crate::shard::ShardPlan::bounds`]), one per band in band order,
    /// when a sharded run on `platform` under `units` (a run's
    /// `HhCpuConfig::units`) stored them.
    ///
    /// A band's plan is a pure function of the band's rows, the global
    /// masks and width tables these artifacts hold, the platform and the
    /// grains — the argument that lets a monolithic run reuse
    /// [`Self::claims`], applied per band — so a later run with the same
    /// key makes exactly these plans and may skip the event loop.
    pub fn band_plans(
        &self,
        bounds: &[usize],
        platform: Platform,
        units: Option<WorkUnitConfig>,
    ) -> Option<Arc<[ClaimPlan]>> {
        self.memo()
            .as_ref()
            .filter(|e| e.matches(bounds, platform, units))
            .map(|e| e.plans.clone())
    }

    /// Store the band plans a sharded run made under this key (see
    /// [`Self::band_plans`]), replacing whatever layout was stored.
    pub(crate) fn store_band_plans(
        &self,
        bounds: &[usize],
        platform: Platform,
        units: Option<WorkUnitConfig>,
        plans: Vec<ClaimPlan>,
    ) {
        debug_assert_eq!(plans.len() + 1, bounds.len(), "one plan per band");
        *self.memo() = Some(BandPlans {
            bounds: bounds.to_vec(),
            platform,
            units,
            plans: plans.into(),
        });
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, Option<BandPlans>> {
        // the only update is one assignment, so a panic while the lock
        // was held cannot leave the slot half written
        self.band_plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Approximate heap footprint, for serve-layer cache accounting. It
    /// changes when a sharded run stores its band plans.
    pub fn byte_size(&self) -> usize {
        let plan = &self.plan;
        let masks = plan.thresholds.a_high.len() + plan.thresholds.b_high.len();
        let syms = plan.sym_a.byte_size() + plan.sym_b.as_ref().map_or(0, |s| s.byte_size());
        let widths = (self.w_low.len() + self.w_high.len()) * 4;
        let claims = self.claims.as_ref().map_or(0, ClaimPlan::heap_bytes);
        let band_plans = self.memo().as_ref().map_or(0, BandPlans::heap_bytes);
        masks + syms + widths + claims + band_plans + std::mem::size_of::<Self>()
    }
}

/// Run Algorithm HH-CPU: `C = A × B` with the four-way split of §III.
///
/// Devices start cold (`ctx.reset()` is called), the numeric result is
/// exact (tested against the Gustavson reference), and the returned
/// profile carries the simulated per-phase times of the platform model.
pub fn hh_cpu<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
) -> SpmmOutput<T> {
    let artifacts = SpmmArtifacts::build(ctx, a, b, config.policy);
    hh_cpu_with_artifacts(ctx, a, b, config, &artifacts)
}

/// [`hh_cpu`] against precomputed Phase-I artifacts: the warm path of the
/// serve layer. The run is bit-identical to a cold [`hh_cpu`] on the same
/// operands — same `C`, same [`PhaseBreakdown`] (Phase I's *simulated*
/// cost is still charged; only the host-side recomputation is skipped),
/// same thresholds — because Phase I is deterministic in `(A, B, policy)`
/// and everything after it consumes the plan by value.
///
/// The stored [`ClaimPlan`] is used when it was planned under this
/// call's platform and work-unit grains: a cold device of `ctx.platform`
/// is exactly a reset `ctx` device, so planning again could only repeat
/// it. Otherwise — explicit `config.units`, a context on another
/// platform, or a row band's artifacts without a stored band plan — the
/// call plans on `ctx`'s reset devices.
///
/// The caller is responsible for passing artifacts built for these exact
/// operands and `config.policy` (a content-hash-keyed cache makes that
/// structural); the policy is cross-checked as a cheap guard.
pub fn hh_cpu_with_artifacts<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
    artifacts: &SpmmArtifacts,
) -> SpmmOutput<T> {
    run_with_artifacts(ctx, a, b, config, artifacts).0
}

/// [`hh_cpu_with_artifacts`], also handing back the Phase II/III plan the
/// call made when it could not reuse `artifacts.claims` (`None` when it
/// reused it) — how a row band's first sharded run plans once and still
/// stores what it planned.
pub(crate) fn run_with_artifacts<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
    artifacts: &SpmmArtifacts,
) -> (SpmmOutput<T>, Option<ClaimPlan>) {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "A and B incompatible for multiplication"
    );
    assert_eq!(
        artifacts.policy, config.policy,
        "artifacts were built under a different threshold policy"
    );
    ctx.reset();

    // ---- Phase I: thresholds + Boolean row classification, from the
    // (possibly cached) plan. The plan keeps the symbolic row-size
    // structures, so the split below reads cached size arrays and prefix
    // sums, not the CSR. ----
    let plan = &artifacts.plan;
    let th = &plan.thresholds;
    let phase1 = PhaseTimes::new(
        ctx.cpu.threshold_scan_cost(a.nrows() + b.nrows()),
        // the Boolean array is computed on the GPU from the row sizes
        ctx.gpu.boolean_mask_cost(a.nrows() + b.nrows()),
    );
    // row sizes up (4 B each), then A and B entirely ("we don't split the
    // matrices physically", §IV-A), plus the Boolean arrays down (1 B per
    // row); the self-product A × A ships its matrix *and* its per-row
    // arrays exactly once
    let (matrix_bytes, row_meta_bytes) = if std::ptr::eq(a, b) {
        (a.byte_size(), a.nrows() * 5)
    } else {
        (a.byte_size() + b.byte_size(), (a.nrows() + b.nrows()) * 5)
    };
    let mut transfer_ns = ctx.link.transfer_ns(row_meta_bytes + matrix_bytes);

    // ---- Phases II and III: the stored plan, or a fresh one on the reset
    // devices (see `plan::plan_claims`). ----
    let split = Split::new(&plan.sym_a, th.t_a, plan.sym_b(), th.t_b);
    // Work-unit grains: the paper's fixed 1000/10000 rows at full scale, or
    // sized to the actual H/L row lists so the queue always holds enough
    // units for the endgame to balance (the last unit bounds the final
    // clock gap between the devices).
    let units = split.units(config.units);
    let planned = match &artifacts.claims {
        Some(stored) if stored.platform == ctx.platform && stored.units == units => None,
        _ => Some(plan_claims(
            &mut ctx.cpu,
            &mut ctx.gpu,
            ctx.platform,
            a,
            b,
            &split,
            units,
            (&artifacts.w_low, &artifacts.w_high),
        )),
    };
    let claims = planned
        .as_ref()
        .or(artifacts.claims.as_ref())
        .expect("either the stored plan matched or the call planned");

    // ---- Execute: all scheduled numeric work in one batched pass (or the
    // per-claim reference, per `config.exec`), in the plan's block order. ----
    let (c, counts) = schedule::execute(
        a,
        b,
        &claims.schedule(&split),
        (a.nrows(), b.ncols()),
        &ctx.pool,
        &ctx.workspaces,
        ExecConfig {
            policy: config.exec,
            accum: config.accum,
        },
    );

    // ---- Phase IV: merge. The GPU pre-merges its own tuples while the CPU
    // performs the full combine (results are "merged together and stored on
    // the CPU", §III-D); the GPU's partials come down over the link. The
    // simulated devices still pay the paper's sort-based recipe per stored
    // entry (claim nnz == accumulator insertions == tuples), but the host
    // combined the claims with the per-row merge of the executor. ----
    let cpu_entries = counts.cpu_entries;
    let gpu_entries = counts.gpu_entries;
    transfer_ns += ctx.link.transfer_ns(gpu_entries * 16);
    let tuples_merged = cpu_entries + gpu_entries;
    let phase4 = PhaseTimes::new(
        ctx.cpu.merge_cost(tuples_merged),
        ctx.gpu.merge_cost(gpu_entries),
    );

    let output = SpmmOutput {
        c,
        profile: PhaseBreakdown {
            phase1,
            phase2: claims.phase2,
            phase3: claims.phase3,
            phase4,
            transfer_ns,
        },
        threshold_a: th.t_a,
        threshold_b: th.t_b,
        hd_rows_a: th.hd_rows_a(),
        hd_rows_b: th.hd_rows_b(),
        tuples_merged,
    };
    (output, planned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};
    use spmm_sparse::reference;

    fn scale_free(n: usize, nnz: usize, alpha: f64, seed: u64) -> CsrMatrix<f64> {
        scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, alpha, seed))
    }

    #[test]
    fn product_matches_reference_on_scale_free_input() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(800, 4_000, 2.3, 1);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(
            out.c.approx_eq(&expected, 1e-9, 1e-12),
            "HH-CPU result diverged"
        );
    }

    #[test]
    fn product_matches_reference_for_distinct_a_and_b() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(500, 2_500, 2.2, 7);
        let b = scale_free(500, 3_000, 3.0, 8);
        let out = hh_cpu(&mut ctx, &a, &b, &HhCpuConfig::default());
        let expected = reference::spmm_rowrow(&a, &b).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn fixed_threshold_zero_routes_everything_to_cpu() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(400, 2_000, 2.5, 3);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::with_threshold(0));
        // t=0 ⇒ all rows high ⇒ GPU does nothing in Phases II and III
        assert_eq!(out.profile.phase2.gpu_ns, 0.0);
        assert_eq!(out.profile.phase3.gpu_ns, 0.0);
        assert!(out.profile.phase2.cpu_ns > 0.0);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn threshold_above_max_degenerates_to_gpu_only() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(400, 2_000, 2.5, 4);
        let t = a.max_row_nnz() + 1;
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::with_threshold(t));
        assert_eq!(out.profile.phase2.cpu_ns, 0.0);
        assert_eq!(out.hd_rows_a, 0);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn phase3_clocks_are_balanced() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(6_000, 40_000, 2.2, 5);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        let p3 = out.profile.phase3;
        if p3.cpu_ns > 0.0 && p3.gpu_ns > 0.0 {
            // the event-driven queue should keep the devices within one
            // work-unit of each other ("the difference between the GPU and
            // the CPU runtime within each phase is on average under 2% of
            // the overall runtime", §V-B b)
            let imbalance = p3.imbalance() / out.total_ns();
            assert!(imbalance < 0.15, "phase 3 imbalance {imbalance}");
        }
    }

    #[test]
    fn phases_two_and_three_dominate() {
        // On the scale-matched platform the compute phases dominate, as in
        // the paper's Figure 7 (≥ 96% at full scale; the reduced-scale
        // bound here is looser because Phase IV's linear-time merge shrinks
        // more slowly than the superlinear flop count).
        let mut ctx = HeteroContext::scaled(16);
        let a = scale_free(12_000, 120_000, 2.1, 9);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        assert!(
            out.profile.compute_fraction() > 0.6,
            "phases II+III should dominate, fraction = {}",
            out.profile.compute_fraction()
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let a = scale_free(700, 3_500, 2.4, 6);
        let mut ctx = HeteroContext::paper();
        let o1 = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        let o2 = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        assert_eq!(o1.total_ns(), o2.total_ns());
        assert_eq!(o1.c, o2.c);
        assert_eq!(o1.threshold_a, o2.threshold_a);
    }

    #[test]
    fn reused_artifacts_are_bit_identical_to_cold_runs() {
        // the serve layer's warm path: one SpmmArtifacts build, many runs —
        // every run must match a cold hh_cpu bit for bit
        let mut ctx = HeteroContext::paper();
        let a = scale_free(600, 3_000, 2.3, 11);
        let config = HhCpuConfig::default();
        let cold = hh_cpu(&mut ctx, &a, &a, &config);
        let artifacts = SpmmArtifacts::build(&ctx, &a, &a, config.policy);
        for _ in 0..2 {
            let warm = hh_cpu_with_artifacts(&mut ctx, &a, &a, &config, &artifacts);
            assert_eq!(warm.c, cold.c);
            assert_eq!(warm.profile, cold.profile);
            assert_eq!(warm.threshold_a, cold.threshold_a);
            assert_eq!(warm.threshold_b, cold.threshold_b);
            assert_eq!(warm.tuples_merged, cold.tuples_merged);
        }
        assert!(artifacts.byte_size() > 0);
    }

    #[test]
    #[should_panic(expected = "different threshold policy")]
    fn mismatched_artifact_policy_is_rejected() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(200, 1_000, 2.5, 12);
        let artifacts =
            SpmmArtifacts::build(&ctx, &a, &a, ThresholdPolicy::Fixed { t_a: 4, t_b: 4 });
        hh_cpu_with_artifacts(&mut ctx, &a, &a, &HhCpuConfig::default(), &artifacts);
    }

    #[test]
    fn tuples_merged_bounded_by_output_and_flops() {
        // in-kernel accumulation: between nnz(C) (everything merged in one
        // product) and flops (no accumulation at all)
        let mut ctx = HeteroContext::paper();
        let a = scale_free(300, 1_500, 2.6, 2);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        assert!(out.tuples_merged >= out.c.nnz());
        assert!((out.tuples_merged as u64) <= reference::flops(&a, &a));
    }
}
