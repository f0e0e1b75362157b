//! Plan each row band once: the sharded driver's stored band plans are
//! the plans a band run makes.
//!
//! The first sharded run of a shard layout plans every band's Phases II
//! and III and stores the plans with the global `SpmmArtifacts`, keyed by
//! the layout (`ShardPlan::bounds`), the platform and the run's work-unit
//! grains. Later runs with the same key hand each band its stored plan,
//! so a warm band does only numeric work. That is sound only if:
//!
//! * a memo-hit run equals the memo-miss run and a run on freshly built
//!   artifacts — C bits, per-shard profiles, the summed profile and
//!   `tuples_merged` — in every execution mode (pooled, pipelined
//!   out-of-core, synchronous out-of-core) and host thread count;
//! * every stored plan is bit-for-bit the plan `plan_claims` makes for
//!   its band on fresh devices of the key's platform under the key's
//!   grains;
//! * a run under another key — another shard count, explicit
//!   `config.units`, or a context on another platform — plans again and
//!   still matches, and so does the key it replaced in the one-slot memo.
//!
//! `SPMM_SHARD_BYTE_CAP` (bytes) pins the out-of-core spill cap, as in
//! `shard_equivalence`; unset, it is half the product's CSR bytes.

use std::sync::Mutex;

use hetero_spmm::core::plan::{plan_claims, ClaimPlan, PlannedClaim, Split};
use hetero_spmm::core::shard::{io_mode, sum_profiles, ShardedOutput};
use hetero_spmm::core::{hh_cpu_sharded_with_artifacts, Platform, SpmmArtifacts};
use hetero_spmm::hetsim::{CpuDevice, GpuDevice};
use hetero_spmm::prelude::*;

const SHARD_COUNTS: [usize; 3] = [2, 3, 8];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Serializes the out-of-core runs, which pin the process-global
/// [`io_mode`] to pick the pipelined or the synchronous driver.
static IO_MODE_LOCK: Mutex<()> = Mutex::new(());

/// The three execution modes under test.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Pooled,
    Pipelined,
    Sync,
}

const MODES: [Mode; 3] = [Mode::Pooled, Mode::Pipelined, Mode::Sync];

/// Spill cap for the out-of-core modes: the env override (CI smoke sets
/// 1) or half the finished product's bytes.
fn byte_cap(c: &CsrMatrix<f64>) -> usize {
    match std::env::var("SPMM_SHARD_BYTE_CAP") {
        Ok(v) => v
            .trim()
            .parse()
            .expect("SPMM_SHARD_BYTE_CAP must be a byte count"),
        Err(_) => c.byte_size() / 2,
    }
}

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

/// The operands and the out-of-core spill cap of one product.
struct Case<'a> {
    a: &'a CsrMatrix<f64>,
    b: &'a CsrMatrix<f64>,
    cap: usize,
}

impl Case<'_> {
    /// One sharded run of `artifacts` in `mode` on `ctx`.
    fn run(
        &self,
        ctx: &mut HeteroContext,
        config: &HhCpuConfig,
        artifacts: &SpmmArtifacts,
        shards: usize,
        mode: Mode,
    ) -> ShardedOutput<f64> {
        let shard = match mode {
            Mode::Pooled => ShardConfig::pooled(shards),
            Mode::Pipelined | Mode::Sync => ShardConfig::out_of_core(shards, self.cap),
        };
        let run = |ctx: &mut HeteroContext| {
            hh_cpu_sharded_with_artifacts(ctx, self.a, self.b, config, &shard, artifacts)
        };
        match mode {
            Mode::Pooled => run(ctx),
            Mode::Pipelined | Mode::Sync => {
                let _guard = IO_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                io_mode::set_forced(Some(matches!(mode, Mode::Pipelined)));
                let out = run(ctx);
                io_mode::set_forced(None);
                assert_eq!(
                    out.pipe.is_some(),
                    matches!(mode, Mode::Pipelined),
                    "{mode:?} ran the wrong out-of-core driver"
                );
                out
            }
        }
    }

    /// The plan `plan_claims` makes for each band of `bounds` on fresh
    /// devices of `platform` under `units` (adaptive when `None`).
    fn fresh_band_plans(
        &self,
        artifacts: &SpmmArtifacts,
        bounds: &[usize],
        platform: Platform,
        units: Option<WorkUnitConfig>,
    ) -> Vec<ClaimPlan> {
        bounds
            .windows(2)
            .map(|w| {
                let band = self.a.row_band(w[0]..w[1]);
                let sliced = artifacts.for_row_band(w[0]..w[1], &band);
                let p1 = &sliced.plan;
                let th = &p1.thresholds;
                let split = Split::new(&p1.sym_a, th.t_a, p1.sym_b(), th.t_b);
                let units = split.units(units);
                let (mut cpu, mut gpu) =
                    (CpuDevice::new(platform.cpu), GpuDevice::new(platform.gpu));
                plan_claims(
                    &mut cpu,
                    &mut gpu,
                    platform,
                    &band,
                    self.b,
                    &split,
                    units,
                    (&sliced.w_low, &sliced.w_high),
                )
            })
            .collect()
    }
}

/// Claims as `(range, high_rows, sim_ns bits)`.
type ClaimBits = Vec<(std::ops::Range<usize>, bool, u64)>;

/// A plan as bits: phase II/III device times, the CPU and GPU claims, and
/// its platform/grain key.
fn plan_bits(p: &ClaimPlan) -> ([u64; 4], ClaimBits, ClaimBits, String) {
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
    let key = format!("{:?} {:?}", p.platform, p.units);
    (times.map(f64::to_bits), claims(&p.cpu), claims(&p.gpu), key)
}

/// Everything a sharded run must reproduce, as bits.
#[derive(Debug, PartialEq)]
struct RunBits {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<u64>,
    per_shard: Vec<[u64; 9]>,
    profile: [u64; 9],
    tuples_merged: usize,
}

fn profile_bits(p: &PhaseBreakdown) -> [u64; 9] {
    [
        p.phase1.cpu_ns,
        p.phase1.gpu_ns,
        p.phase2.cpu_ns,
        p.phase2.gpu_ns,
        p.phase3.cpu_ns,
        p.phase3.gpu_ns,
        p.phase4.cpu_ns,
        p.phase4.gpu_ns,
        p.transfer_ns,
    ]
    .map(f64::to_bits)
}

fn run_bits(out: &ShardedOutput<f64>) -> RunBits {
    let c = &out.output.c;
    assert_eq!(
        out.output.profile,
        sum_profiles(&out.per_shard),
        "the summed profile is the per-shard sum"
    );
    RunBits {
        indptr: c.indptr().to_vec(),
        indices: c.indices().to_vec(),
        values: c.values().iter().map(|v| v.to_bits()).collect(),
        per_shard: out.per_shard.iter().map(profile_bits).collect(),
        profile: profile_bits(&out.output.profile),
        tuples_merged: out.output.tuples_merged,
    }
}

/// After a run of `out`'s layout on `platform` under `units`, the
/// artifacts must hold that key's band plans, each equal to a fresh plan
/// of its band, and the run's per-shard phase II/III times must be those
/// plans' times.
fn assert_stored_plans_are_fresh(
    case: &Case<'_>,
    artifacts: &SpmmArtifacts,
    out: &ShardedOutput<f64>,
    platform: Platform,
    units: Option<WorkUnitConfig>,
    what: &str,
) {
    let bounds = out.plan.bounds();
    let stored = artifacts
        .band_plans(bounds, platform, units)
        .unwrap_or_else(|| panic!("{what}: the run stored no band plans"));
    let fresh = case.fresh_band_plans(artifacts, bounds, platform, units);
    assert_eq!(stored.len(), fresh.len(), "{what}: one plan per band");
    for (i, (got, want)) in stored.iter().zip(&fresh).enumerate() {
        assert_eq!(plan_bits(got), plan_bits(want), "{what}: band {i} plan");
        let shard = &out.per_shard[i];
        assert_eq!(
            (shard.phase2, shard.phase3),
            (want.phase2, want.phase3),
            "{what}: band {i} phase II/III times"
        );
    }
}

/// The full matrix for one clone: A=B / A≠B × modes × shard counts ×
/// host threads, plus the re-plan keys.
fn exercise_clone(name: &str) {
    let a = clone_of(name);
    let partner = partner(&a);
    let config = HhCpuConfig::default();
    let units = WorkUnitConfig {
        cpu_rows: 3,
        gpu_rows: 5,
    };
    let unit_config = HhCpuConfig {
        units: Some(units),
        ..config
    };
    let paper = HeteroContext::paper().platform;
    let mut replan_mattered = false;

    for (label, b) in [("A=B", &a), ("A≠B", &partner)] {
        let mut build_ctx = HeteroContext::paper().with_host_threads(2);
        let mono = hh_cpu(&mut build_ctx, &a, b, &config);
        let case = Case {
            a: &a,
            b,
            cap: byte_cap(&mono.c),
        };
        // per shard count: the first run's bits, which every later run of
        // that layout (any mode, threads, memo state or artifacts) matches
        let mut want: Vec<Option<RunBits>> = SHARD_COUNTS.iter().map(|_| None).collect();
        let mut want_units: Vec<Option<RunBits>> = SHARD_COUNTS.iter().map(|_| None).collect();
        let mut want_scaled: Vec<Option<RunBits>> = SHARD_COUNTS.iter().map(|_| None).collect();

        for mode in MODES {
            // freshly built artifacts per mode: every mode's first run of
            // a layout is a memo miss that plans and stores
            let artifacts = SpmmArtifacts::build(&build_ctx, &a, b, config.policy);
            for (s, &shards) in SHARD_COUNTS.iter().enumerate() {
                let what = format!("{name} {label} {mode:?} shards={shards}");
                let mut first_store = None;
                for &threads in &THREAD_COUNTS {
                    let what = format!("{what} threads={threads}");
                    let mut ctx = HeteroContext::paper().with_host_threads(threads);
                    let out = case.run(&mut ctx, &config, &artifacts, shards, mode);
                    let stored = artifacts.band_plans(out.plan.bounds(), paper, None);
                    match &first_store {
                        None => {
                            assert_stored_plans_are_fresh(
                                &case, &artifacts, &out, paper, None, &what,
                            );
                            first_store = stored;
                        }
                        // a hit reuses the stored plans and stores nothing
                        Some(first) => assert!(
                            stored.is_some_and(|s| std::sync::Arc::ptr_eq(&s, first)),
                            "{what}: a memo hit planned and stored again"
                        ),
                    }
                    assert_eq!(out.output.c, mono.c, "{what}: C is not the monolithic C");
                    assert_eq!(out.output.tuples_merged, mono.tuples_merged, "{what}");
                    let bits = run_bits(&out);
                    match &want[s] {
                        None => want[s] = Some(bits),
                        Some(w) => assert!(*w == bits, "{what}: run drifted from the first run"),
                    }
                }

                // explicit grains and another platform: new keys, so the
                // run plans again, stores, and a repeat hits
                for (kind, kind_config, ctx, want_key) in [
                    (
                        "explicit units",
                        &unit_config,
                        HeteroContext::paper(),
                        &mut want_units[s],
                    ),
                    (
                        "scaled(16) context",
                        &config,
                        HeteroContext::scaled(16),
                        &mut want_scaled[s],
                    ),
                ] {
                    let what = format!("{what} {kind}");
                    let mut ctx = ctx.with_host_threads(2);
                    let platform = ctx.platform;
                    let miss = case.run(&mut ctx, kind_config, &artifacts, shards, mode);
                    assert_stored_plans_are_fresh(
                        &case,
                        &artifacts,
                        &miss,
                        platform,
                        kind_config.units,
                        &what,
                    );
                    let hit = case.run(&mut ctx, kind_config, &artifacts, shards, mode);
                    let bits = run_bits(&miss);
                    assert!(
                        bits == run_bits(&hit),
                        "{what}: memo hit drifted from the miss"
                    );
                    assert_eq!(miss.output.c, mono.c, "{what}: C");
                    let default = want[s].as_ref().expect("default key ran first");
                    replan_mattered |= bits.per_shard != default.per_shard;
                    match want_key {
                        None => *want_key = Some(bits),
                        Some(w) => assert!(*w == bits, "{what}: run drifted from the first run"),
                    }

                    // the memo holds one key, which this kind replaced: the
                    // default key plans again and matches its first run.
                    // Each kind and the next shard count then start from
                    // the default key, so a lookup that ignored the part of
                    // the key they change would hit the default plans.
                    let mut ctx = HeteroContext::paper().with_host_threads(2);
                    let back = case.run(&mut ctx, &config, &artifacts, shards, mode);
                    assert_stored_plans_are_fresh(&case, &artifacts, &back, paper, None, &what);
                    assert!(
                        run_bits(&back) == *default,
                        "{what}: re-planned default key drifted"
                    );
                }
            }
        }
    }
    // the re-plans must have changed some band's schedule, or reusing the
    // default key's plans would have passed too
    assert!(
        replan_mattered,
        "{name}: no re-plan changed a per-shard profile"
    );
}

macro_rules! clone_tests {
    ($($fn_name:ident => $name:expr,)*) => {
        $(
            #[test]
            fn $fn_name() {
                exercise_clone($name);
            }
        )*
    };
}

clone_tests! {
    band_plan_reuse_scircuit => "scircuit",
    band_plan_reuse_webbase_1m => "webbase-1M",
    band_plan_reuse_cop20ka => "cop20kA",
    band_plan_reuse_web_google => "web-Google",
    band_plan_reuse_p2p_gnutella31 => "p2p-Gnutella31",
    band_plan_reuse_ca_condmat => "ca-CondMat",
    band_plan_reuse_roadnet_ca => "roadNet-CA",
    band_plan_reuse_internet => "internet",
    band_plan_reuse_dblp2010 => "dblp2010",
    band_plan_reuse_email_enron => "email-Enron",
    band_plan_reuse_wiki_vote => "wiki-Vote",
    band_plan_reuse_cit_patents => "cit-Patents",
}
