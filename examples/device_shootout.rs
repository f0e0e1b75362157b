//! Device shootout: make the paper's architecture-awareness argument
//! visible. Runs the *same* work — dense×dense vs sparse×sparse partial
//! products — through both device models and prints per-flop costs,
//! showing why `A_H × B_H` belongs on the CPU and `A_L × B_L` on the GPU
//! (§V-C: "the CPU is more appropriate for multiplying dense matrices
//! where it can use techniques such as cache-blocking, and the GPU is more
//! appropriate for multiplying rows with small density").
//!
//! ```text
//! cargo run --release --example device_shootout
//! ```
//!
//! Doubles as the CI smoke-perf probe: after the per-flop table it
//!
//! * times the host-side two-pass Gustavson engine against the legacy
//!   tuple-sort path on a small synthetic matrix;
//! * times the Phase-I empirical threshold search serial vs
//!   candidate-parallel and runs a Figure-8-style threshold sweep on three
//!   probe matrices, failing if any picked threshold drifts from the
//!   committed goldens (`tests/golden/thresholds.txt`);
//! * times end-to-end `hh_cpu` per-claim vs batched, and fixed dense-SPA
//!   vs the adaptive row-binned accumulator engine, on every Table I
//!   clone, failing on any bit of output or profile drift, and emits
//!   per-bin row/entry/throughput tallies (`spa_bin_*`);
//! * gates the default (fused, adaptive) engine bit-for-bit against the
//!   fixed dense-SPA reference on every Table I clone, then times the warm
//!   artifact-reuse path reference vs default at the larger scale-8
//!   clones, CPU-time over interleaved reps (`fused_perf`);
//! * times the register-tiled csrmm sweep vs the naive reference
//!   (`csrmm_perf`), failing hard on any bit drift;
//! * replays the serve-layer request trace cold vs warm through
//!   `SpmmService`, failing on any warm-vs-cold bit drift;
//! * writes every wall-clock number to `BENCH_pr.json` (override the path
//!   with `BENCH_JSON`), which `ci/check_bench_floors.py` gates against
//!   `tests/golden/bench_floors.json`.

use std::time::Instant;

use hetero_spmm::core::kernels::{product_tuples, row_products};
use hetero_spmm::core::merge::{concat_row_blocks, merge_tuples};
use hetero_spmm::core::shard::io_mode;
use hetero_spmm::core::{
    hh_cpu_sharded_with_artifacts, hh_cpu_with_artifacts, threshold, SpmmArtifacts,
    SymbolicStructure,
};
use hetero_spmm::hetsim::{CpuDevice, GpuDevice};
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::prelude::*;
use hetero_spmm::serve::{replay, MultiplyRequest, ReplayOptions, ServiceConfig, SpmmService};
use hetero_spmm::sparse::binning::stats as bin_stats;

fn run(name: &str, a: &CsrMatrix<f64>, cpu: &mut CpuDevice, gpu: &mut GpuDevice) {
    cpu.reset();
    gpu.reset();
    let rows: Vec<usize> = (0..a.nrows()).collect();
    let flops = reference::flops(a, a) as f64;
    let cpu_ns = cpu.spmm_cost(a, a, rows.iter().copied(), None);
    let gpu_ns = gpu.spmm_cost(a, a, rows.iter().copied(), None);
    let winner = if cpu_ns < gpu_ns { "CPU" } else { "GPU" };
    println!(
        "{name:<28} {:>8.0}k flops | CPU {:>7.3} ns/flop | GPU {:>7.3} ns/flop | {winner} wins {:.2}x",
        flops / 1e3,
        cpu_ns / flops,
        gpu_ns / flops,
        (cpu_ns / gpu_ns).max(gpu_ns / cpu_ns)
    );
}

fn main() {
    let platform = Platform::paper();
    let mut cpu = CpuDevice::new(platform.cpu);
    let mut gpu = GpuDevice::new(platform.gpu);
    println!(
        "platform: {} CPU cores + {} GPU SMX ({}-wide warps)\n",
        platform.cpu.cores, platform.gpu.sms, platform.gpu.warp_width
    );

    // Dense × dense: few rows, many nonzeros each — the A_H × B_H shape.
    let dense = scale_free_matrix::<f64>(&GeneratorConfig {
        nrows: 512,
        ncols: 512,
        target_nnz: 512 * 200,
        distribution: RowSizeDistribution::NearUniform { spread: 20 },
        seed: 1,
    });
    run("dense x dense (A_H·B_H)", &dense, &mut cpu, &mut gpu);

    // Sparse × sparse: many rows, 2–3 nonzeros each — the A_L × B_L shape.
    let sparse = scale_free_matrix::<f64>(&GeneratorConfig {
        nrows: 60_000,
        ncols: 60_000,
        target_nnz: 60_000 * 2,
        distribution: RowSizeDistribution::NearUniform { spread: 1 },
        seed: 2,
    });
    run("sparse x sparse (A_L·B_L)", &sparse, &mut cpu, &mut gpu);

    // Mixed scale-free: what each device sees without the HH-CPU split.
    let mixed =
        scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(30_000, 150_000, 2.1, 3));
    run("mixed scale-free (no split)", &mixed, &mut cpu, &mut gpu);

    println!(
        "\nthe split exists because each device is fastest on a different shape —\n\
         assigning the \"right\" work to the \"right\" processor is the paper's thesis."
    );

    let engine = smoke_perf();
    let phase1 = phase1_perf();
    let exec = exec_perf();
    let spa = spa_perf();
    let fused = fused_perf();
    let csrmm = csrmm_perf();
    let shard = shard_perf();
    let serve = serve_perf();

    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_pr.json".into());
    let json = format!(
        "{{\n{engine},\n{phase1},\n{exec},\n{spa},\n{fused},\n{csrmm},\n{shard},\n{serve}\n}}\n"
    );
    std::fs::write(&path, json).expect("write smoke-perf artifact");
    println!("wrote {path}");
}

/// Time the two host numeric backends on one small scale-free product and
/// return the JSON fragment for the CI artifact.
fn smoke_perf() -> String {
    let a = scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(4_000, 40_000, 2.1, 7));
    let pool = ThreadPool::new(4);
    let rows: Vec<usize> = (0..a.nrows()).collect();
    let reps = 5;

    // warm-up + correctness cross-check before timing anything
    let via_engine = {
        let block = row_products(&a, &a, &rows, None, &pool);
        concat_row_blocks(&[block], (a.nrows(), a.ncols()), &pool)
    };
    let via_tuples = merge_tuples(
        product_tuples(&a, &a, &rows, None, &pool),
        (a.nrows(), a.ncols()),
        &pool,
    );
    assert!(
        via_engine.approx_eq(&via_tuples, 1e-9, 1e-12),
        "smoke-perf backends disagree"
    );

    let mut engine_ms = f64::INFINITY;
    let mut tuple_ms = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let block = row_products(&a, &a, &rows, None, &pool);
        let c = concat_row_blocks(&[block], (a.nrows(), a.ncols()), &pool);
        engine_ms = engine_ms.min(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(c);

        let t = Instant::now();
        let tuples = product_tuples(&a, &a, &rows, None, &pool);
        let c = merge_tuples(tuples, (a.nrows(), a.ncols()), &pool);
        tuple_ms = tuple_ms.min(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(c);
    }

    println!(
        "\nsmoke-perf (n={}, nnz={}, nnz(C)={}, best of {reps}):\n\
         two-pass engine {engine_ms:.2} ms | tuple sort {tuple_ms:.2} ms | ratio {:.2}x",
        a.nrows(),
        a.nnz(),
        via_engine.nnz(),
        tuple_ms / engine_ms,
    );

    format!(
        "  \"matrix\": {{\"nrows\": {}, \"nnz\": {}, \"output_nnz\": {}}},\n  \
         \"repetitions\": {reps},\n  \
         \"engine_ms\": {engine_ms:.4},\n  \
         \"tuple_path_ms\": {tuple_ms:.4},\n  \
         \"engine_speedup\": {:.4}",
        a.nrows(),
        a.nnz(),
        via_engine.nnz(),
        tuple_ms / engine_ms,
    )
}

/// Log-spaced threshold ladder between the degenerate ends (the Figure 8
/// sweep shape).
fn ladder(max_row: usize) -> Vec<usize> {
    let mut out = vec![0];
    let mut t = 2usize;
    while t <= max_row {
        out.push(t);
        t *= 2;
    }
    out.push(max_row + 1);
    out
}

/// Time the Phase-I empirical threshold search serial (one host thread) vs
/// candidate-parallel (host pool) on three probe matrices, run a
/// Figure-8-style sweep on each, and verify every pick against the
/// committed goldens. Returns the JSON fragment for the CI artifact.
fn phase1_perf() -> String {
    let golden: Vec<(&str, usize)> = include_str!("../tests/golden/thresholds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next().expect("golden line: name");
            let t = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("golden line: threshold");
            (name, t)
        })
        .collect();
    let golden_for = |name: &str| -> usize {
        golden
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden threshold for {name}"))
            .1
    };

    // the smoke matrix plus two Table I clones, each with its matched
    // platform scale (small catalog matrices shrink less than SPMM_SCALE)
    let mut cases: Vec<(&str, CsrMatrix<f64>, usize)> = vec![(
        "smoke",
        scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(4_000, 40_000, 2.1, 7)),
        32,
    )];
    for name in ["wiki-Vote", "email-Enron"] {
        let d = Dataset::by_name(name).unwrap();
        cases.push((name, d.load(32), d.effective_scale(32)));
    }

    let policy = ThresholdPolicy::Empirical { candidates: 10 };
    let host_threads = ThreadPool::host().num_threads();
    let reps = 3;
    println!("\nphase-I search (host pool = {host_threads} threads, best of {reps}):");

    let mut rows = Vec::new();
    let (mut serial_total, mut parallel_total) = (0.0f64, 0.0f64);
    for (name, a, eff) in &cases {
        let serial_ctx = HeteroContext::scaled(*eff).with_host_threads(1);
        let parallel_ctx = HeteroContext::scaled(*eff);

        let (mut serial_ms, mut parallel_ms) = (f64::INFINITY, f64::INFINITY);
        let (mut pick_serial, mut pick_parallel) = (0usize, 0usize);
        for _ in 0..reps {
            let t0 = Instant::now();
            pick_serial = threshold::identify(&serial_ctx, a, a, policy).t_a;
            serial_ms = serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);

            let t0 = Instant::now();
            pick_parallel = threshold::identify(&parallel_ctx, a, a, policy).t_a;
            parallel_ms = parallel_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        // the hard gate: the candidate-parallel search must agree with the
        // serial one, and both must match the committed golden pick
        assert_eq!(
            pick_serial, pick_parallel,
            "{name}: parallel Phase-I search diverged from serial"
        );
        assert_eq!(
            pick_serial,
            golden_for(name),
            "{name}: Phase-I threshold drifted from tests/golden/thresholds.txt"
        );

        // fig08-style sweep: symbolic structure built once, every ladder
        // threshold estimated from it
        let t0 = Instant::now();
        let sym = SymbolicStructure::from_matrix(a);
        let totals: Vec<f64> = ladder(a.max_row_nnz())
            .into_iter()
            .map(|t| {
                let (p2, p3) =
                    threshold::estimate_phases_with(&parallel_ctx, a, a, t.max(1), &sym, &sym);
                p2 + p3
            })
            .collect();
        let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            totals.iter().all(|t| t.is_finite()),
            "{name}: sweep produced a non-finite estimate"
        );

        println!(
            "  {name:<14} t={pick_serial:<5} serial {serial_ms:>8.2} ms | parallel {parallel_ms:>8.2} ms | \
             {:.2}x | sweep ({} pts) {sweep_ms:.2} ms",
            serial_ms / parallel_ms,
            totals.len(),
        );
        serial_total += serial_ms;
        parallel_total += parallel_ms;
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"threshold\": {pick_serial}, \
             \"serial_ms\": {serial_ms:.4}, \"parallel_ms\": {parallel_ms:.4}, \
             \"speedup\": {:.4}, \"sweep_points\": {}, \"sweep_ms\": {sweep_ms:.4}}}",
            serial_ms / parallel_ms,
            totals.len(),
        ));
    }
    println!(
        "  phase-I total: serial {serial_total:.2} ms | parallel {parallel_total:.2} ms | {:.2}x \
         (speedup needs a multi-core runner)",
        serial_total / parallel_total
    );

    format!(
        "  \"phase1_host_threads\": {host_threads},\n  \
         \"phase1_serial_ms\": {serial_total:.4},\n  \
         \"phase1_parallel_ms\": {parallel_total:.4},\n  \
         \"phase1_speedup\": {:.4},\n  \
         \"phase1_matrices\": [\n{}\n  ]",
        serial_total / parallel_total,
        rows.join(",\n"),
    )
}

/// Time end-to-end `hh_cpu` — Phase I through the merge — with the
/// per-claim reference executor vs the batched plan/execute path on every
/// Table I clone, and fail hard if the batched product or its simulated
/// profile deviates by a single bit. Returns the JSON fragment for the CI
/// artifact.
fn exec_perf() -> String {
    let threads = 8;
    let reps = 2;
    let serial_cfg = HhCpuConfig {
        exec: ExecPolicy::PerClaim,
        ..HhCpuConfig::default()
    };
    let batched_cfg = HhCpuConfig::default();

    println!("\nexec-perf: hh_cpu end to end, per-claim vs batched executor ({threads} host threads, best of {reps}):");
    let mut rows = Vec::new();
    let (mut serial_total, mut batched_total) = (0.0f64, 0.0f64);
    for d in Dataset::all() {
        let name = d.entry().name;
        let a = d.load::<f64>(32);
        let mut ctx = HeteroContext::scaled(d.effective_scale(32)).with_host_threads(threads);

        // correctness gate before timing: the batched executor must
        // reproduce the per-claim run exactly
        let want = hh_cpu(&mut ctx, &a, &a, &serial_cfg);
        let got = hh_cpu(&mut ctx, &a, &a, &batched_cfg);
        assert_eq!(got.c, want.c, "{name}: batched executor changed C");
        assert_eq!(
            got.profile, want.profile,
            "{name}: batched executor changed the simulated profile"
        );
        assert_eq!(
            got.tuples_merged, want.tuples_merged,
            "{name}: batched executor changed tuples_merged"
        );

        let (mut serial_ms, mut batched_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(hh_cpu(&mut ctx, &a, &a, &serial_cfg));
            serial_ms = serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);

            let t0 = Instant::now();
            std::hint::black_box(hh_cpu(&mut ctx, &a, &a, &batched_cfg));
            batched_ms = batched_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        println!(
            "  {name:<14} serial {serial_ms:>8.2} ms | batched {batched_ms:>8.2} ms | {:.2}x",
            serial_ms / batched_ms
        );
        serial_total += serial_ms;
        batched_total += batched_ms;
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"exec_serial_ms\": {serial_ms:.4}, \
             \"exec_batched_ms\": {batched_ms:.4}, \"exec_speedup\": {:.4}}}",
            serial_ms / batched_ms
        ));
    }
    println!(
        "  exec total: serial {serial_total:.2} ms | batched {batched_total:.2} ms | {:.2}x \
         (speedup needs a multi-core runner)",
        serial_total / batched_total
    );

    format!(
        "  \"exec_host_threads\": {threads},\n  \
         \"exec_serial_ms\": {serial_total:.4},\n  \
         \"exec_batched_ms\": {batched_total:.4},\n  \
         \"exec_speedup\": {:.4},\n  \
         \"exec_matrices\": [\n{}\n  ]",
        serial_total / batched_total,
        rows.join(",\n"),
    )
}

/// Time end-to-end `hh_cpu` with the fixed dense-SPA accumulator vs the
/// adaptive row-binned engine on every Table I clone, and fail hard if the
/// adaptive product or its simulated profile deviates by a single bit.
/// Returns the JSON fragment for the CI artifact.
fn spa_perf() -> String {
    let threads = 8;
    let reps = 3;
    let fixed_cfg = HhCpuConfig {
        accum: AccumStrategy::FixedSpa,
        ..HhCpuConfig::default()
    };
    let adaptive_cfg = HhCpuConfig::default();

    println!("\nspa-perf: hh_cpu end to end, fixed SPA vs adaptive row-binned accumulators ({threads} host threads, best of {reps}):");
    let mut rows = Vec::new();
    let (mut fixed_total, mut adaptive_total) = (0.0f64, 0.0f64);
    for d in Dataset::all() {
        let name = d.entry().name;
        let a = d.load::<f64>(32);
        let mut ctx = HeteroContext::scaled(d.effective_scale(32)).with_host_threads(threads);

        // correctness gate before timing: the adaptive engine must
        // reproduce the fixed-SPA run exactly
        let want = hh_cpu(&mut ctx, &a, &a, &fixed_cfg);
        let got = hh_cpu(&mut ctx, &a, &a, &adaptive_cfg);
        assert_eq!(got.c, want.c, "{name}: adaptive engine changed C");
        assert_eq!(
            got.profile, want.profile,
            "{name}: adaptive engine changed the simulated profile"
        );
        assert_eq!(
            (got.threshold_a, got.threshold_b),
            (want.threshold_a, want.threshold_b),
            "{name}: adaptive engine changed the thresholds"
        );
        assert_eq!(
            got.tuples_merged, want.tuples_merged,
            "{name}: adaptive engine changed tuples_merged"
        );

        let (mut fixed_ms, mut adaptive_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(hh_cpu(&mut ctx, &a, &a, &fixed_cfg));
            fixed_ms = fixed_ms.min(t0.elapsed().as_secs_f64() * 1e3);

            // per-bin tallies collected only around the timed adaptive
            // runs, so the spa_bin_* keys describe exactly what was timed
            bin_stats::enable(true);
            let t0 = Instant::now();
            std::hint::black_box(hh_cpu(&mut ctx, &a, &a, &adaptive_cfg));
            adaptive_ms = adaptive_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            bin_stats::enable(false);
        }
        println!(
            "  {name:<14} fixed {fixed_ms:>8.2} ms | adaptive {adaptive_ms:>8.2} ms | {:.2}x",
            fixed_ms / adaptive_ms
        );
        fixed_total += fixed_ms;
        adaptive_total += adaptive_ms;
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"spa_fixed_ms\": {fixed_ms:.4}, \
             \"spa_adaptive_ms\": {adaptive_ms:.4}, \"spa_speedup\": {:.4}}}",
            fixed_ms / adaptive_ms
        ));
    }
    println!(
        "  spa total: fixed {fixed_total:.2} ms | adaptive {adaptive_total:.2} ms | {:.2}x",
        fixed_total / adaptive_total
    );

    // Per-bin tallies from the timed adaptive runs, aggregated over every
    // clone and rep: how many rows each accumulator shape handled, how many
    // output entries it drained, and its drain throughput. This is the
    // data the bin thresholds (`TINY_PRODUCT_FLOPS`, `BinThresholds`) are
    // tuned from.
    let snap = bin_stats::take();
    let mut bin_keys = Vec::new();
    println!("  per-bin (timed adaptive runs, all clones):");
    for (i, bname) in bin_stats::BIN_NAMES.iter().enumerate() {
        let ms = snap.ns[i] as f64 / 1e6;
        let mps = if snap.ns[i] > 0 {
            snap.entries[i] as f64 * 1e3 / snap.ns[i] as f64
        } else {
            0.0
        };
        println!(
            "    {bname:<6} {:>9} rows | {:>10} entries | {ms:>9.2} ms | {mps:>8.2} Mentry/s",
            snap.rows[i], snap.entries[i],
        );
        bin_keys.push(format!(
            "  \"spa_bin_{bname}_rows\": {},\n  \
             \"spa_bin_{bname}_entries\": {},\n  \
             \"spa_bin_{bname}_ms\": {ms:.4},\n  \
             \"spa_bin_{bname}_mentries_per_s\": {mps:.4}",
            snap.rows[i], snap.entries[i],
        ));
    }

    format!(
        "  \"spa_host_threads\": {threads},\n  \
         \"spa_fixed_ms\": {fixed_total:.4},\n  \
         \"spa_adaptive_ms\": {adaptive_total:.4},\n  \
         \"spa_speedup\": {:.4},\n  \
         \"spa_matrices\": [\n{}\n  ],\n{}",
        fixed_total / adaptive_total,
        rows.join(",\n"),
        bin_keys.join(",\n"),
    )
}

/// Normalize a catalog name into a flat JSON key fragment.
fn slug(name: &str) -> String {
    name.to_lowercase().replace('-', "_")
}

/// Process CPU time (utime + stime, all threads) in clock ticks, read
/// from `/proc/self/stat`. `None` where procfs is unavailable — the
/// probes then fall back to wall-clock minima.
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // fields 14/15 (1-based) follow the parenthesised comm field
    let rest = stat.rsplit(')').next()?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

/// Gate, then time, the default engine (the fused single-pass tier)
/// against the fixed dense-SPA reference (`AccumStrategy::FixedSpa`,
/// exact symbolic pass then one dense SPA per row) on every Table I clone.
///
/// The hard gate runs cold `hh_cpu` at the scale-32 clones with 8 host
/// threads and fails if the default product, its simulated profile, the
/// thresholds, or the merge count deviate by a single bit before
/// anything is timed. The timed portion measures what the engine change
/// actually targets — the numeric work — on the warm serve path
/// (`SpmmArtifacts` built once and reused, the registry's steady state)
/// at the 4× larger scale-8 clones with one host thread, because
/// thread-scope spawns on a shared CI core add noise above the effect.
/// Process CPU time accumulated over interleaved reference/default reps
/// is the primary metric: unlike per-side wall minima it is immune to the
/// preemption a shared CI core suffers and does not let each side
/// cherry-pick its luckiest moment. Wall minima remain in the JSON as the
/// ms fields (`fused_off_ms` is the reference, `fused_on_ms` the default)
/// and the fallback where procfs is absent. Returns the JSON fragment
/// (flat per-matrix `fused_speedup_<name>` keys so floors can pin each
/// clone).
fn fused_perf() -> String {
    let gate_threads = 8;
    let reps = 5;
    let fused = HhCpuConfig::default();
    let fixed = HhCpuConfig {
        accum: AccumStrategy::FixedSpa,
        ..HhCpuConfig::default()
    };

    println!("\nfused-perf: fixed-SPA reference vs fused single-pass tier (gate: scale 32, {gate_threads} threads; timed: warm artifacts, scale 8, 1 thread, {reps} interleaved reps):");
    let mut rows = Vec::new();
    let mut flat = Vec::new();
    let (mut fixed_total, mut fused_total) = (0.0f64, 0.0f64);
    for d in Dataset::all() {
        let name = d.entry().name;

        // the hard gate: the fused tier must reproduce the reference run
        // exactly — output, simulated profile, thresholds, merge count —
        // before either variant is timed
        {
            let a = d.load::<f64>(32);
            let mut ctx =
                HeteroContext::scaled(d.effective_scale(32)).with_host_threads(gate_threads);
            let want = hh_cpu(&mut ctx, &a, &a, &fixed);
            let got = hh_cpu(&mut ctx, &a, &a, &fused);
            assert_eq!(got.c, want.c, "{name}: fused tier changed C");
            assert_eq!(
                got.profile, want.profile,
                "{name}: fused tier changed the simulated profile"
            );
            assert_eq!(
                (got.threshold_a, got.threshold_b),
                (want.threshold_a, want.threshold_b),
                "{name}: fused tier changed the thresholds"
            );
            assert_eq!(
                got.tuples_merged, want.tuples_merged,
                "{name}: fused tier changed tuples_merged"
            );
        }

        let a = d.load::<f64>(8);
        let mut ctx = HeteroContext::scaled(d.effective_scale(8)).with_host_threads(1);
        let artifacts = SpmmArtifacts::build(&ctx, &a, &a, fused.policy);
        // warm both sides once untimed, and gate the timed path too
        let want = hh_cpu_with_artifacts(&mut ctx, &a, &a, &fixed, &artifacts);
        let got = hh_cpu_with_artifacts(&mut ctx, &a, &a, &fused, &artifacts);
        assert_eq!(
            got.c, want.c,
            "{name}: fused tier changed warm C at scale 8"
        );

        let mut wall = [f64::INFINITY; 2];
        let mut cpu = [0u64; 2];
        for _ in 0..reps {
            for (side, config) in [(0usize, &fixed), (1, &fused)] {
                let c0 = cpu_ticks();
                let t0 = Instant::now();
                std::hint::black_box(hh_cpu_with_artifacts(&mut ctx, &a, &a, config, &artifacts));
                wall[side] = wall[side].min(t0.elapsed().as_secs_f64() * 1e3);
                if let (Some(c0), Some(c1)) = (c0, cpu_ticks()) {
                    cpu[side] += c1 - c0;
                }
            }
        }
        // tick totals too small to resolve (tiny clones) fall back to wall
        let speedup = if cpu[0] >= 10 && cpu[1] >= 10 {
            cpu[0] as f64 / cpu[1] as f64
        } else {
            wall[0] / wall[1]
        };
        println!(
            "  {name:<14} fixed {:>8.2} ms | fused {:>8.2} ms | cpu {:>4}:{:<4} ticks | {speedup:.2}x",
            wall[0], wall[1], cpu[0], cpu[1]
        );
        fixed_total += wall[0];
        fused_total += wall[1];
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"fused_off_ms\": {:.4}, \
             \"fused_on_ms\": {:.4}, \"fused_speedup\": {speedup:.4}}}",
            wall[0], wall[1],
        ));
        flat.push(format!("  \"fused_speedup_{}\": {speedup:.4}", slug(name)));
    }
    println!(
        "  fused total: fixed {fixed_total:.2} ms | fused {fused_total:.2} ms | {:.2}x",
        fixed_total / fused_total
    );

    format!(
        "  \"fused_gate_threads\": {gate_threads},\n  \
         \"fused_off_ms\": {fixed_total:.4},\n  \
         \"fused_on_ms\": {fused_total:.4},\n  \
         \"fused_speedup\": {:.4},\n  \
         \"fused_matrices\": [\n{}\n  ],\n{}",
        fixed_total / fused_total,
        rows.join(",\n"),
        flat.join(",\n"),
    )
}

/// Time the register-tiled csrmm sweep against the naive reference triple
/// loop, hard-failing on any bit drift, and check the opt-in tree-reduced
/// kernel against its tolerance. Returns the JSON fragment for the CI
/// artifact.
fn csrmm_perf() -> String {
    let reps = 3;
    let a = scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(4_000, 40_000, 2.1, 9));
    let k = 32;
    let data: Vec<f64> = (0..a.ncols() * k)
        .map(|i| ((i * 13) % 37) as f64 * 0.125 - 2.0)
        .collect();
    let b = DenseMatrix::from_row_major(a.ncols(), k, data);

    // gates first: tiled must match the naive reference bit for bit, the
    // tree-reduced opt-in only to a tolerance
    let naive = reference::csrmm(&a, &b).unwrap();
    let mut ctx = HeteroContext::paper();
    let tiled = cpu_csrmm(&mut ctx, &a, &b).c;
    assert!(
        naive
            .data()
            .iter()
            .zip(tiled.data())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "tiled csrmm drifted from the reference bits"
    );
    let tree = hh_csrmm_with_kernel(
        &mut ctx,
        &a,
        &b,
        ThresholdPolicy::Fixed { t_a: 8, t_b: 8 },
        CsrmmKernel::TreeReduced,
    )
    .c;
    assert!(
        tree.approx_eq(&naive, 1e-9, 1e-12),
        "tree-reduced csrmm outside tolerance"
    );

    let (mut naive_ms, mut tiled_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(reference::csrmm(&a, &b).unwrap());
        naive_ms = naive_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        // raw kernel sweep — csrmm_compute, not cpu_csrmm, so the timing
        // excludes the simulated device cost model
        let t0 = Instant::now();
        std::hint::black_box(csrmm_compute(&a, &b, CsrmmKernel::Tiled));
        tiled_ms = tiled_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let speedup = naive_ms / tiled_ms;
    println!(
        "\ncsrmm-perf (n={}, nnz={}, k={k}, best of {reps}):\n\
         naive {naive_ms:.2} ms | tiled {tiled_ms:.2} ms | {speedup:.2}x",
        a.nrows(),
        a.nnz(),
    );

    format!(
        "  \"csrmm_k\": {k},\n  \
         \"csrmm_naive_ms\": {naive_ms:.4},\n  \
         \"csrmm_tiled_ms\": {tiled_ms:.4},\n  \
         \"csrmm_speedup\": {speedup:.4}"
    )
}

/// Time the sharded row-band driver on the scircuit clone: the monolithic
/// engine vs an 8-way pooled shard fan-out vs out-of-core shards under a
/// byte cap that forces disk spills — both the default pipelined
/// overlap driver and the forced-synchronous fallback
/// (`SPMM_SHARD_IO_THREADS=0` semantics). `shard_ooc_speedup` is the
/// in-memory pooled run over the pipelined out-of-core run, both on one
/// prebuilt `SpmmArtifacts` and the same bands, so both sides do the same
/// per-band planning and the ratio moves only with the out-of-core
/// overhead (admission, spill, stitch). Hard-fails unless every
/// sharded product — both modes, both I/O paths, and every replication
/// factor — is bit-identical to the monolithic run *before* anything is
/// timed, and unless the pipelined run's peak resident bytes stay under
/// `byte_cap` + one band working set (DESIGN.md §3.9). Then
/// sweeps the simulated 1.5D replication factor c ∈ {1, 2, 4} and fails
/// unless total simulated link bytes fall monotonically as resident B
/// replicas absorb the broadcast traffic (the paper-style
/// communication/memory trade). Returns the JSON fragment for the CI
/// artifact.
fn shard_perf() -> String {
    // min-of-7: the pooled-vs-pipelined ratio gates a floor near parity,
    // so the estimate needs more samples than the other probes to shake
    // off shared-runner jitter
    let reps = 7;
    let shards = 8;
    let d = Dataset::by_name("scircuit").unwrap();
    let a = d.load::<f64>(32);
    let config = HhCpuConfig::default();
    let mut ctx = HeteroContext::scaled(d.effective_scale(32)).with_host_threads(8);

    let mono = hh_cpu(&mut ctx, &a, &a, &config);
    // half the product's bytes: some shards must take the disk round-trip
    let cap = mono.c.byte_size() / 2;
    let pooled_cfg = ShardConfig::pooled(shards);
    let ooc_cfg = ShardConfig::out_of_core(shards, cap);

    // the hard gate: both execution modes must reproduce the monolithic
    // product to the bit, and the byte cap must actually spill
    let pooled = hh_cpu_sharded(&mut ctx, &a, &a, &config, &pooled_cfg);
    assert_eq!(pooled.output.c, mono.c, "pooled shards changed C");
    assert_eq!(
        pooled.output.tuples_merged, mono.tuples_merged,
        "pooled shards changed tuples_merged"
    );
    io_mode::set_forced(Some(true));
    let ooc = hh_cpu_sharded(&mut ctx, &a, &a, &config, &ooc_cfg);
    assert_eq!(ooc.output.c, mono.c, "out-of-core shards changed C");
    let spilled = ooc.spilled_shards;
    assert!(spilled >= 1, "a cap of bytes(C)/2 never spilled");

    // the pipelined driver's residency contract: one band's A slice + C
    // band may ride over the cap while in flight, never more
    let pipe = ooc.pipe.as_ref().expect("pipelined run reports stats");
    let band_working_set = (0..ooc.plan.shards())
        .map(|i| {
            a.row_band_byte_size(ooc.plan.band(i)) + mono.c.row_band_byte_size(ooc.plan.band(i))
        })
        .max()
        .unwrap();
    assert!(
        pipe.peak_resident_bytes <= cap.saturating_add(band_working_set),
        "pipelined peak resident {} exceeds cap {cap} + band {band_working_set}",
        pipe.peak_resident_bytes
    );

    // the synchronous fallback (`SPMM_SHARD_IO_THREADS=0`) must produce
    // the same bits through the same byte cap
    io_mode::set_forced(Some(false));
    let ooc_sync = hh_cpu_sharded(&mut ctx, &a, &a, &config, &ooc_cfg);
    assert_eq!(ooc_sync.output.c, mono.c, "sync out-of-core changed C");
    assert_eq!(
        ooc_sync.output.profile, ooc.output.profile,
        "sync and pipelined profiles drifted"
    );
    assert!(ooc_sync.pipe.is_none(), "sync fallback reported pipe stats");

    // the warm pair behind shard_ooc_speedup: one Phase I for both modes
    let artifacts = SpmmArtifacts::build(&ctx, &a, &a, config.policy);
    let warm = |ctx: &mut HeteroContext, cfg: &ShardConfig| {
        hh_cpu_sharded_with_artifacts(ctx, &a, &a, &config, cfg, &artifacts)
    };
    io_mode::set_forced(Some(true));
    for cfg in [&pooled_cfg, &ooc_cfg] {
        let out = warm(&mut ctx, cfg);
        assert_eq!(out.output.c, mono.c, "warm {:?} shards changed C", cfg.mode);
        assert_eq!(
            out.output.profile, ooc.output.profile,
            "warm {:?} profile",
            cfg.mode
        );
    }

    let (mut mono_ms, mut pooled_ms, mut ooc_ms) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut pooled_warm_ms, mut ooc_warm_ms) = (f64::INFINITY, f64::INFINITY);
    let mut sync_ms = f64::INFINITY;
    let mut best_pipe = *pipe;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(hh_cpu(&mut ctx, &a, &a, &config));
        mono_ms = mono_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        std::hint::black_box(hh_cpu_sharded(&mut ctx, &a, &a, &config, &pooled_cfg));
        pooled_ms = pooled_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        io_mode::set_forced(Some(true));
        let t0 = Instant::now();
        let run = hh_cpu_sharded(&mut ctx, &a, &a, &config, &ooc_cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ms < ooc_ms {
            ooc_ms = ms;
            best_pipe = run.pipe.expect("pipelined run reports stats");
        }
        std::hint::black_box(run);

        let t0 = Instant::now();
        std::hint::black_box(warm(&mut ctx, &pooled_cfg));
        pooled_warm_ms = pooled_warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        std::hint::black_box(warm(&mut ctx, &ooc_cfg));
        ooc_warm_ms = ooc_warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        io_mode::set_forced(Some(false));
        let t0 = Instant::now();
        std::hint::black_box(hh_cpu_sharded(&mut ctx, &a, &a, &config, &ooc_cfg));
        sync_ms = sync_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    io_mode::set_forced(None);

    // replication sweep over the simulated 1.5D link: same plan and C,
    // only the communication schedule changes. c replicas of B cut the
    // broadcast term ⌈p/c⌉·bytes(B) while growing the reduce term and the
    // resident footprint — on this product bytes(C) ≪ p·bytes(B), so
    // total link bytes must fall monotonically in c.
    let cs = [1usize, 2, 4];
    let sweep: Vec<_> = cs
        .iter()
        .map(|&c| {
            let out = hh_cpu_sharded(&mut ctx, &a, &a, &config, &pooled_cfg.with_replication(c));
            assert_eq!(out.output.c, mono.c, "replication c={c} changed C");
            out.link
        })
        .collect();
    for (lo, hi) in sweep.iter().zip(&sweep[1..]) {
        let (a_c, b_c) = (lo.replication, hi.replication);
        assert!(
            hi.total_bytes() < lo.total_bytes(),
            "link bytes not monotone: c={b_c} moves {} >= c={a_c}'s {}",
            hi.total_bytes(),
            lo.total_bytes()
        );
        assert!(
            hi.b_shift_bytes < lo.b_shift_bytes,
            "replication c={b_c} did not shrink the B broadcast"
        );
        assert!(
            hi.resident_bytes > lo.resident_bytes,
            "replication c={b_c} did not grow the resident footprint"
        );
    }

    println!(
        "\nshard-perf (scircuit/32, {shards} nnz-balanced bands, best of {reps}):\n\
         monolithic {mono_ms:.2} ms | pooled {pooled_ms:.2} ms ({:.2}x) | \
         out-of-core piped {ooc_ms:.2} ms / sync {sync_ms:.2} ms ({spilled} spilled)\n\
         prebuilt artifacts: pooled {pooled_warm_ms:.2} ms | out-of-core piped \
         {ooc_warm_ms:.2} ms ({:.2}x)\n\
         pipeline: {} workers | spill-thread idle {:.2} ms | admit wait {:.2} ms | \
         peak resident {:.2} MB (cap {:.2} MB + band {:.2} MB)",
        mono_ms / pooled_ms,
        pooled_warm_ms / ooc_warm_ms,
        best_pipe.workers,
        best_pipe.spill_wait_ns as f64 / 1e6,
        best_pipe.admit_wait_ns as f64 / 1e6,
        best_pipe.peak_resident_bytes as f64 / 1e6,
        cap as f64 / 1e6,
        band_working_set as f64 / 1e6,
    );
    for cost in &sweep {
        println!(
            "  c={} link: {:>7.2} MB total | B-shift {:>7.2} MB | reduce {:>6.2} MB | \
             resident {:>7.2} MB | {:>9.0} sim-us",
            cost.replication,
            cost.total_bytes() as f64 / 1e6,
            cost.b_shift_bytes as f64 / 1e6,
            cost.c_reduce_bytes as f64 / 1e6,
            cost.resident_bytes as f64 / 1e6,
            cost.transfer_ns / 1e3,
        );
    }

    let link_keys: Vec<String> = sweep
        .iter()
        .map(|cost| {
            format!(
                "  \"shard_link_total_mb_c{}\": {:.4},\n  \
                 \"shard_link_resident_mb_c{}\": {:.4},\n  \
                 \"shard_link_sim_us_c{}\": {:.4}",
                cost.replication,
                cost.total_bytes() as f64 / 1e6,
                cost.replication,
                cost.resident_bytes as f64 / 1e6,
                cost.replication,
                cost.transfer_ns / 1e3,
            )
        })
        .collect();
    format!(
        "  \"shard_shards\": {shards},\n  \
         \"shard_spilled\": {spilled},\n  \
         \"shard_mono_ms\": {mono_ms:.4},\n  \
         \"shard_pooled_ms\": {pooled_ms:.4},\n  \
         \"shard_ooc_ms\": {ooc_ms:.4},\n  \
         \"shard_pooled_warm_ms\": {pooled_warm_ms:.4},\n  \
         \"shard_ooc_warm_ms\": {ooc_warm_ms:.4},\n  \
         \"shard_pooled_speedup\": {:.4},\n  \
         \"shard_ooc_speedup\": {:.4},\n  \
         \"shard_pipe_sync_ms\": {sync_ms:.4},\n  \
         \"shard_pipe_spill_wait_ms\": {:.4},\n  \
         \"shard_pipe_peak_resident_mb\": {:.4},\n  \
         \"shard_pipe_budget_ok\": 1,\n  \
         \"shard_link_monotone\": 1,\n{}",
        ooc_ms / pooled_ms,
        pooled_warm_ms / ooc_warm_ms,
        best_pipe.spill_wait_ns as f64 / 1e6,
        best_pipe.peak_resident_bytes as f64 / 1e6,
        link_keys.join(",\n"),
    )
}

/// Load the serve trace's operands into `service` (untimed setup) and
/// return the distinct products the trace multiplies.
fn serve_fixture(service: &SpmmService) -> Vec<MultiplyRequest> {
    for name in ["wiki-Vote", "email-Enron", "ca-CondMat", "scircuit"] {
        service.load_dataset(name, 32).expect("catalog dataset");
    }
    service.load_generated(Some("web-a"), 1_200, 6_000, 2.2, 21, 1);
    service.load_generated(Some("web-b"), 1_200, 7_200, 2.6, 22, 1);
    [
        ("wiki-Vote", "wiki-Vote"),
        ("email-Enron", "email-Enron"),
        ("ca-CondMat", "ca-CondMat"),
        ("scircuit", "scircuit"),
        ("web-a", "web-a"),
        ("web-a", "web-b"),
        ("web-b", "web-b"),
    ]
    .into_iter()
    .map(|(a, b)| MultiplyRequest::new(a, b))
    .collect()
}

/// Replay the serve-layer trace through `SpmmService` and time the same
/// multiplies cold (fresh service, artifact cache empty) vs warm (cache
/// hit on every product). Hard-fails on any warm-vs-cold bit drift —
/// every warm output is compared against the cold pass *and* against a
/// fresh single-shot `HeteroContext` run. Returns the JSON fragment for
/// the CI artifact.
fn serve_perf() -> String {
    // gate first: replay the committed trace with cold verification, then
    // a second pass that must be fully warm and bit-identical
    let trace = include_str!("../tests/golden/serve_trace.jsonl");
    let service = SpmmService::new(ServiceConfig::default());
    let options = ReplayOptions {
        verify_cold: true,
        wire_selftest: true,
    };
    let first = replay::replay_trace(&service, trace, &options).expect("trace replays");
    let second = replay::replay_trace(&service, trace, &options).expect("trace replays warm");
    assert!(
        first.drifts.is_empty(),
        "cold pass drift: {:?}",
        first.drifts
    );
    assert!(
        second.drifts.is_empty(),
        "warm pass drift: {:?}",
        second.drifts
    );
    assert_eq!(
        second.warm_artifact_hits, second.multiplies,
        "second replay pass must be fully warm"
    );
    for (a, b) in first.outputs.iter().zip(&second.outputs) {
        replay::diff_outputs(&a.reply.output, &b.reply.output)
            .expect("warm replay bit-identical to cold replay");
    }
    let requests = first.requests;

    // timing: the trace's distinct products, cold (best of fresh services)
    // vs warm (best of repeat passes on one service)
    let reps = 2;
    let mut cold_ms = f64::INFINITY;
    let mut service = SpmmService::new(ServiceConfig::default());
    for rep in 0..reps {
        let fresh = SpmmService::new(ServiceConfig::default());
        let products = serve_fixture(&fresh);
        let t0 = Instant::now();
        for req in &products {
            let reply = fresh.multiply(req).expect("cold multiply");
            assert!(!reply.warm, "cold pass unexpectedly hit the artifact cache");
            std::hint::black_box(reply);
        }
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        if rep == reps - 1 {
            service = fresh;
        }
    }
    let products = serve_fixture(&service);
    let mut warm_ms = f64::INFINITY;
    for _ in 0..reps + 1 {
        let t0 = Instant::now();
        for req in &products {
            let reply = service.multiply(req).expect("warm multiply");
            assert!(reply.warm, "warm pass missed the artifact cache");
            std::hint::black_box(reply);
        }
        warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let multiplies = products.len();
    let speedup = cold_ms / warm_ms;
    let cold_rps = multiplies as f64 / (cold_ms / 1e3);
    let warm_rps = multiplies as f64 / (warm_ms / 1e3);
    println!(
        "\nserve-perf ({requests}-request trace, {multiplies} distinct products, best of {reps}):\n\
         cold {cold_ms:.2} ms ({cold_rps:.1} req/s) | warm {warm_ms:.2} ms ({warm_rps:.1} req/s) | {speedup:.2}x"
    );

    format!(
        "  \"serve_requests\": {requests},\n  \
         \"serve_multiplies\": {multiplies},\n  \
         \"serve_cold_ms\": {cold_ms:.4},\n  \
         \"serve_warm_ms\": {warm_ms:.4},\n  \
         \"serve_cold_rps\": {cold_rps:.4},\n  \
         \"serve_warm_rps\": {warm_rps:.4},\n  \
         \"serve_warm_speedup\": {speedup:.4}"
    )
}
