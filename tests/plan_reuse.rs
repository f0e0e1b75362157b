//! Plan once: the Phase II/III plan Phase I keeps is the plan a run makes.
//!
//! `SpmmArtifacts::build` stores the winner's `ClaimPlan` — planned on
//! fresh devices of the build context's platform with adaptive work-unit
//! grains — and `hh_cpu_with_artifacts` rebuilds its claim schedule from
//! it instead of running the event loop again. That is only sound if the
//! stored plan is bit-for-bit the plan `plan_claims` makes on the reset
//! devices of a context on the same platform, for every policy, operand
//! pair and host thread count. A call whose platform or grains differ
//! from the stored key must plan on its own context, exactly as a call
//! with no stored plan does.

use hetero_spmm::core::plan::{plan_claims, ClaimPlan, PlannedClaim, Split};
use hetero_spmm::core::{hh_cpu_with_artifacts, schedule, SpmmArtifacts};
use hetero_spmm::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Empirical (the default), Balanced, and Fixed with split thresholds.
const POLICIES: [ThresholdPolicy; 3] = [
    ThresholdPolicy::Empirical { candidates: 10 },
    ThresholdPolicy::Balanced { candidates: 16 },
    ThresholdPolicy::Fixed { t_a: 4, t_b: 6 },
];

/// Deterministic A≠B partner: same shape as the clone, different tail
/// exponent and seed.
fn partner(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    scale_free_matrix(&GeneratorConfig::square_power_law(
        a.nrows(),
        a.nnz().max(64),
        2.3,
        a.nrows() as u64 ^ 0x5bd1_e995,
    ))
}

/// A ~1024-row clone of a Table-I entry.
fn clone_of(name: &str) -> CsrMatrix<f64> {
    let dataset = Dataset::by_name(name).expect("catalog name");
    dataset.generate::<f64>((dataset.entry().rows / 1024).max(1))
}

/// Claims as `(range, high_rows, sim_ns bits)`.
type ClaimBits = Vec<(std::ops::Range<usize>, bool, u64)>;

/// A plan's schedule as bits: phase II/III device times, then the CPU and
/// GPU claims.
fn schedule_bits(p: &ClaimPlan) -> ([u64; 4], ClaimBits, ClaimBits) {
    let claims = |v: &[PlannedClaim]| {
        v.iter()
            .map(|c| (c.range.clone(), c.high_rows, c.sim_ns.to_bits()))
            .collect()
    };
    let times = [
        p.phase2.cpu_ns,
        p.phase2.gpu_ns,
        p.phase3.cpu_ns,
        p.phase3.gpu_ns,
    ];
    (times.map(f64::to_bits), claims(&p.cpu), claims(&p.gpu))
}

fn assert_same_plan(got: &ClaimPlan, want: &ClaimPlan, what: &str) {
    let (got_times, got_cpu, got_gpu) = schedule_bits(got);
    let (want_times, want_cpu, want_gpu) = schedule_bits(want);
    assert_eq!(got_times, want_times, "{what}: phase II/III times");
    assert_eq!(got_cpu, want_cpu, "{what}: CPU claims");
    assert_eq!(got_gpu, want_gpu, "{what}: GPU claims");
    assert_eq!(got.platform, want.platform, "{what}: platform key");
    assert_eq!(got.units, want.units, "{what}: grain key");
}

/// The plan a run on `ctx` makes from scratch: `ctx`'s reset devices, the
/// artifacts' split and width tables, `units` or adaptive grains.
fn fresh_plan(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
    artifacts: &SpmmArtifacts,
    units: Option<WorkUnitConfig>,
) -> (Split, ClaimPlan) {
    ctx.reset();
    let p1 = &artifacts.plan;
    let th = &p1.thresholds;
    let split = Split::new(&p1.sym_a, th.t_a, p1.sym_b(), th.t_b);
    let units = split.units(units);
    let tables = (artifacts.w_low.as_slice(), artifacts.w_high.as_slice());
    let plan = plan_claims(
        &mut ctx.cpu,
        &mut ctx.gpu,
        ctx.platform,
        a,
        b,
        &split,
        units,
        tables,
    );
    (split, plan)
}

/// Run `hh_cpu_with_artifacts` on `ctx` and assert it matches a run that
/// plans on `ctx` from scratch under `config.units`: same phase II/III
/// times, same C bits, same merge count. Returns whether that plan's
/// schedule differs from the stored one, i.e. whether reusing the stored
/// plan would have been wrong.
fn assert_replans(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
    config: &HhCpuConfig,
    artifacts: &SpmmArtifacts,
    what: &str,
) -> bool {
    let (split, plan) = fresh_plan(ctx, a, b, artifacts, config.units);
    let (want_c, counts) = schedule::execute(
        a,
        b,
        &plan.schedule(&split),
        (a.nrows(), b.ncols()),
        &ctx.pool,
        &ctx.workspaces,
        ExecConfig {
            policy: config.exec,
            accum: config.accum,
        },
    );
    let out = hh_cpu_with_artifacts(ctx, a, b, config, artifacts);
    assert_eq!(out.profile.phase2, plan.phase2, "{what}: phase II");
    assert_eq!(out.profile.phase3, plan.phase3, "{what}: phase III");
    assert_eq!(out.c, want_c, "{what}: C");
    let bits = |c: &CsrMatrix<f64>| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out.c), bits(&want_c), "{what}: C value bits");
    assert_eq!(
        out.tuples_merged,
        counts.cpu_entries + counts.gpu_entries,
        "{what}: tuples_merged"
    );
    let stored = artifacts
        .claims
        .as_ref()
        .expect("built artifacts carry a plan");
    schedule_bits(stored) != schedule_bits(&plan)
}

#[test]
fn stored_plan_equals_a_fresh_plan_on_every_clone() {
    for entry in CATALOG {
        let a = clone_of(entry.name);
        let b = partner(&a);
        for (label, rhs) in [("A=B", &a), ("A≠B", &b)] {
            for threads in THREAD_COUNTS {
                for policy in POLICIES {
                    let what = format!("{} {label} {threads} threads {policy:?}", entry.name);
                    let mut ctx = HeteroContext::scaled(32).with_host_threads(threads);
                    let artifacts = SpmmArtifacts::build(&ctx, &a, rhs, policy);
                    let stored = artifacts
                        .claims
                        .as_ref()
                        .expect("built artifacts carry a plan");
                    let (_, fresh) = fresh_plan(&mut ctx, &a, rhs, &artifacts, None);
                    assert_same_plan(stored, &fresh, &what);
                }
            }
        }
    }
}

#[test]
fn explicit_grains_or_another_platform_replan_on_the_call_context() {
    let (mut grain_differs, mut platform_differs) = (0, 0);
    for entry in CATALOG {
        let a = clone_of(entry.name);
        let b = partner(&a);
        for (label, rhs) in [("A=B", &a), ("A≠B", &b)] {
            for policy in POLICIES {
                let what = format!("{} {label} {policy:?}", entry.name);
                let build_ctx = HeteroContext::paper().with_host_threads(2);
                let artifacts = SpmmArtifacts::build(&build_ctx, &a, rhs, policy);

                // explicit, non-adaptive grains on the build platform
                let mut ctx = HeteroContext::paper().with_host_threads(2);
                let config = HhCpuConfig {
                    policy,
                    units: Some(WorkUnitConfig {
                        cpu_rows: 3,
                        gpu_rows: 5,
                    }),
                    ..HhCpuConfig::default()
                };
                let what_units = format!("{what} explicit units");
                grain_differs +=
                    assert_replans(&mut ctx, &a, rhs, &config, &artifacts, &what_units) as usize;

                // default grains on another platform
                let mut ctx = HeteroContext::scaled(16).with_host_threads(2);
                let config = HhCpuConfig {
                    policy,
                    ..HhCpuConfig::default()
                };
                let what_platform = format!("{what} scaled(16) context");
                platform_differs +=
                    assert_replans(&mut ctx, &a, rhs, &config, &artifacts, &what_platform) as usize;
            }
        }
    }
    // the re-plans must have mattered somewhere, or this suite proves nothing
    assert!(grain_differs > 0, "explicit grains never changed a plan");
    assert!(
        platform_differs > 0,
        "another platform never changed a plan"
    );
}
