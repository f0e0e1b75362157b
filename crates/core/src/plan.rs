//! Phases II and III as a cost-model plan (§III-B/C).
//!
//! The schedule HH-CPU runs after Phase I is a deterministic function of
//! the operands, the thresholds, the platform and the work-unit grains:
//! the Phase II products go to their devices whole, and the Phase III
//! double-ended queue is drained by an event loop that charges each claim
//! its simulated cost. [`plan_claims`] is that loop — the one copy of it.
//! Phase I's empirical search runs it per ladder candidate on fresh
//! devices and keeps the winner's [`ClaimPlan`], which
//! [`SpmmArtifacts`](crate::SpmmArtifacts) stores so a warm run only
//! rebuilds its claim schedule from the stored ranges.

use std::ops::Range;

use spmm_hetsim::{CpuDevice, DeviceKind, GpuDevice, PhaseTimes, Platform};
use spmm_sparse::{CsrMatrix, Scalar};
use spmm_workqueue::{End, RangeQueue};

use crate::schedule::{ClaimSchedule, ScheduledClaim};
use crate::threshold::SymbolicStructure;
use crate::units::WorkUnitConfig;

/// The four-way split of one run: A's high- and low-density row lists in
/// ascending order (the walk order the stateful device models need), their
/// nnz totals, and B's two Boolean masks. Built only by [`Split::new`], so
/// the lists, totals and masks always describe one classification.
#[derive(Debug, Clone)]
pub struct Split {
    /// Rows of `A_H`.
    rows_ah: Vec<usize>,
    /// Rows of `A_L`.
    rows_al: Vec<usize>,
    /// Stored entries of `A_H`.
    hd_nnz: u64,
    /// Stored entries of `A_L`.
    ld_nnz: u64,
    /// `true` ⇒ the B row belongs to `B_H`.
    b_high: Vec<bool>,
    /// `true` ⇒ the B row belongs to `B_L`.
    b_low: Vec<bool>,
}

impl Split {
    /// Split A at `t_a` and B at `t_b` from their symbolic structures —
    /// the classification [`crate::threshold::classify`] makes, read from
    /// the cached size arrays.
    pub fn new(
        sym_a: &SymbolicStructure,
        t_a: usize,
        sym_b: &SymbolicStructure,
        t_b: usize,
    ) -> Self {
        let (rows_ah, rows_al) = sym_a.partition_rows(t_a);
        let b_high = sym_b.classify(t_b);
        let b_low = b_high.iter().map(|&h| !h).collect();
        Self {
            rows_ah,
            rows_al,
            hd_nnz: sym_a.hd_nnz(t_a),
            ld_nnz: sym_a.ld_nnz(t_a),
            b_high,
            b_low,
        }
    }

    /// The work-unit grains the run uses: `units`, or grains sized to the
    /// row lists ([`WorkUnitConfig::adaptive`]).
    pub fn units(&self, units: Option<WorkUnitConfig>) -> WorkUnitConfig {
        units.unwrap_or_else(|| WorkUnitConfig::adaptive(self.rows_al.len(), self.rows_ah.len()))
    }
}

/// One Phase III claim: a contiguous range of the `A_H` (`high_rows`) or
/// `A_L` row list and the simulated ns its device was charged.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedClaim {
    pub range: Range<usize>,
    /// `true` ⇒ `range` indexes `A_H` (product `A_H × B_L`); otherwise
    /// `A_L` (product `A_L × B_H`).
    pub high_rows: bool,
    pub sim_ns: f64,
}

/// The Phase II/III plan of one run: both phases' device times and every
/// Phase III claim in claim order, per device. It holds ranges, not row
/// lists, and records the platform and grains it was planned under so a
/// stored plan is reused only where it is the plan a fresh run would make.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimPlan {
    pub phase2: PhaseTimes,
    pub phase3: PhaseTimes,
    pub cpu: Vec<PlannedClaim>,
    pub gpu: Vec<PlannedClaim>,
    pub platform: Platform,
    pub units: WorkUnitConfig,
}

impl ClaimPlan {
    /// Heap bytes of the claim lists, for cache accounting.
    pub fn heap_bytes(&self) -> usize {
        (self.cpu.len() + self.gpu.len()) * std::mem::size_of::<PlannedClaim>()
    }

    /// The numeric work of the plan over `split` (the split it was planned
    /// on), in block order: each device's Phase II product first, then its
    /// Phase III claims in claim order — the order the pre-split code
    /// pushed its row blocks, which fixes the merge's floating-point
    /// summation.
    pub fn schedule<'a>(&self, split: &'a Split) -> ClaimSchedule<'a> {
        let phase3 = |device: DeviceKind, claim: &PlannedClaim| {
            let (rows, b_mask) = if claim.high_rows {
                (&split.rows_ah[claim.range.clone()], &split.b_low)
            } else {
                (&split.rows_al[claim.range.clone()], &split.b_high)
            };
            ScheduledClaim {
                device,
                rows,
                b_mask: Some(b_mask),
                sim_ns: claim.sim_ns,
            }
        };
        let mut claims = Vec::with_capacity(2 + self.cpu.len() + self.gpu.len());
        claims.push(ScheduledClaim {
            device: DeviceKind::Cpu,
            rows: &split.rows_ah,
            b_mask: Some(&split.b_high),
            sim_ns: self.phase2.cpu_ns,
        });
        claims.extend(self.cpu.iter().map(|c| phase3(DeviceKind::Cpu, c)));
        claims.push(ScheduledClaim {
            device: DeviceKind::Gpu,
            rows: &split.rows_al,
            b_mask: Some(&split.b_low),
            sim_ns: self.phase2.gpu_ns,
        });
        claims.extend(self.gpu.iter().map(|c| phase3(DeviceKind::Gpu, c)));
        ClaimSchedule { claims }
    }
}

/// Plan Phases II and III on `cpu` and `gpu`, which must be cold devices
/// of `platform` (fresh, or reset).
///
/// Phase II: `A_H × B_H` on the CPU (the cache-blocked kernel of §III-B,
/// `B_H` tiled through L2) overlapped with `A_L × B_L` on the GPU.
///
/// Phase III: `A_L × B_H` and `A_H × B_L` through the double-ended
/// workqueue (§III-C): "on the CPU end of the queue, we fill the queue
/// with work-units corresponding to the product A_L × B_H and on the GPU
/// end … A_H × B_L"; a device moves to the other product only "after
/// finishing" its own. Work-unit sizes follow §IV-B, converted from the
/// paper's row counts into a nonzero budget so a claim of dense `A_H`
/// rows is as small (in rows) as it is heavy (per row). The loop is
/// event-driven: whichever device's clock is behind claims next, so the
/// clocks stay near-equal — the load balance the queue exists for.
///
/// GPU claims are costed against Phase I's width tables: `w_low` under
/// the `B_L` mask (every A row) and `w_high` under the `B_H` mask (the
/// `A_L` rows).
#[allow(clippy::too_many_arguments)]
pub fn plan_claims<T: Scalar>(
    cpu: &mut CpuDevice,
    gpu: &mut GpuDevice,
    platform: Platform,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    split: &Split,
    units: WorkUnitConfig,
    (w_low, w_high): (&[u32], &[u32]),
) -> ClaimPlan {
    let Split {
        rows_ah,
        rows_al,
        hd_nnz,
        ld_nnz,
        b_high,
        b_low,
    } = split;
    let phase2 = PhaseTimes::new(
        cpu.spmm_cost_blocked(a, b, rows_ah.iter().copied(), Some(b_high)),
        gpu.spmm_cost_planned(a, b, rows_al.iter().copied(), Some(b_low), w_low),
    );

    let hd_b = b_high.iter().filter(|&&h| h).count();
    let ld_b = b_high.len() - hd_b;
    let mean_al = if rows_al.is_empty() {
        0.0
    } else {
        *ld_nnz as f64 / rows_al.len() as f64
    };
    let mean_ah = if rows_ah.is_empty() {
        0.0
    } else {
        *hd_nnz as f64 / rows_ah.len() as f64
    };
    // The CPU's A_L × B_H work is one cache-blocked tiling pass shared by
    // all of its claims (consecutive rows off the same end continue the
    // pass), so the pass is costed once and claims are charged their nnz
    // share of it.
    let lh_nnz = *ld_nnz as f64;
    let lh_blocked_total = if hd_b > 0 && !rows_al.is_empty() {
        cpu.spmm_cost_blocked(a, b, rows_al.iter().copied(), Some(b_high))
    } else {
        0.0
    };
    // structurally-zero products are not enqueued at all
    let lh_queue = RangeQueue::new(if hd_b > 0 { rows_al.len() } else { 0 });
    let hl_queue = RangeQueue::new(if ld_b > 0 { rows_ah.len() } else { 0 });
    let cpu_claim_nnz = (units.cpu_rows as f64 * mean_al).max(1.0);
    let gpu_claim_nnz = (units.gpu_rows as f64 * mean_ah).max(1.0);
    let grain = |claim_nnz: f64, mean: f64| ((claim_nnz / mean.max(1.0)) as usize).max(1);

    let (mut cpu_claims, mut gpu_claims) = (Vec::new(), Vec::new());
    let (mut cpu_clock, mut gpu_clock) = (0.0f64, 0.0f64);
    loop {
        let cpu_turn = cpu_clock <= gpu_clock;
        // own product first, then help the other end
        let claim = if cpu_turn {
            lh_queue
                .claim(End::Front, grain(cpu_claim_nnz, mean_al))
                .map(|r| (r, false))
                .or_else(|| {
                    hl_queue
                        .claim(End::Front, grain(cpu_claim_nnz, mean_ah))
                        .map(|r| (r, true))
                })
        } else {
            hl_queue
                .claim(End::Back, grain(gpu_claim_nnz, mean_ah))
                .map(|r| (r, true))
                .or_else(|| {
                    lh_queue
                        .claim(End::Back, grain(gpu_claim_nnz, mean_al))
                        .map(|r| (r, false))
                })
        };
        let Some((range, high_rows)) = claim else {
            break;
        };
        let (rows, b_mask, widths): (&[usize], &[bool], &[u32]) = if high_rows {
            (&rows_ah[range.clone()], b_low, w_low)
        } else {
            (&rows_al[range.clone()], b_high, w_high)
        };
        if cpu_turn {
            // B_H-side products stay cache-blocked on the CPU (the claim's
            // share of the single tiling pass); when the CPU helps with
            // the GPU end (A_H × B_L) the B operand is scattered and the
            // streaming kernel is the right model.
            let sim_ns = if high_rows {
                cpu.spmm_cost(a, b, rows.iter().copied(), Some(b_mask))
            } else {
                let piece_nnz: usize = rows.iter().map(|&i| a.row_nnz(i)).sum();
                lh_blocked_total * piece_nnz as f64 / lh_nnz.max(1.0)
            };
            cpu_clock += sim_ns;
            cpu_claims.push(PlannedClaim {
                range,
                high_rows,
                sim_ns,
            });
        } else {
            let sim_ns = gpu.spmm_cost_planned(a, b, rows.iter().copied(), Some(b_mask), widths);
            gpu_clock += sim_ns;
            gpu_claims.push(PlannedClaim {
                range,
                high_rows,
                sim_ns,
            });
        }
    }
    ClaimPlan {
        phase2,
        phase3: PhaseTimes::new(cpu_clock, gpu_clock),
        cpu: cpu_claims,
        gpu: gpu_claims,
        platform,
        units,
    }
}

/// [`plan_claims`] on fresh cold devices of `platform` with adaptive
/// grains — the plan Phase I costs a candidate by, and the one it stores.
pub(crate) fn plan_claims_fresh<T: Scalar>(
    platform: Platform,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    split: &Split,
    widths: (&[u32], &[u32]),
) -> ClaimPlan {
    let (mut cpu, mut gpu) = (CpuDevice::new(platform.cpu), GpuDevice::new(platform.gpu));
    let units = split.units(None);
    plan_claims(&mut cpu, &mut gpu, platform, a, b, split, units, widths)
}
