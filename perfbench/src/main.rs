//! The hetero-spmm benchmark.
//!
//! ```text
//! perfbench --workload <cold_oneshot|serve_mixed|out_of_core> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the six end-to-end metrics of one
//! workload; with `--trace 1` it prints the per-layer metrics instead.
//! Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! describe the run (seed, threads, operands, tail percentile, spans).
//! See `perfbench/README.md` for the workloads and metrics.

mod cold_oneshot;
mod gate;
mod harness;
mod inputs;
mod layers;
mod out_of_core;
mod report;
mod serve_mixed;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::RunArgs;

const WORKLOADS: [&str; 3] = ["cold_oneshot", "serve_mixed", "out_of_core"];

/// Temporary directory for spill files, chunk probes and the serve socket;
/// removed at exit.
const TMP_DIR: &str = ".bench_tmp";
/// Where traced runs leave their spans.
const OUT_DIR: &str = ".bench_out";

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        nproc,
        tmp: PathBuf::from(TMP_DIR),
        out_dir: PathBuf::from(OUT_DIR),
    })
}

fn run() -> Result<report::Report, String> {
    // The benchmark measures the default configuration only: an `SPMM_*`
    // pin (or a data directory that swaps the clones for files) would
    // measure something else under the same metric names.
    let pins: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPMM_"))
        .collect();
    if !pins.is_empty() {
        return Err(format!(
            "refusing to run with {pins:?} set; unset every SPMM_* variable"
        ));
    }
    let args = parse_args()?;
    for dir in [&args.tmp, &args.out_dir] {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    // Spill files go to the temp directory; keep them inside the checkout.
    let tmp_abs = std::fs::canonicalize(&args.tmp).map_err(|e| e.to_string())?;
    std::env::set_var("TMPDIR", &tmp_abs);

    println!(
        "run: workload {} seed {} seconds {} trace {} nproc {} pool_threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.nproc,
        hetero_spmm::parallel::ThreadPool::host().num_threads()
    );
    match args.workload.as_str() {
        "cold_oneshot" => cold_oneshot::run(&args),
        "serve_mixed" => serve_mixed::run(&args),
        "out_of_core" => out_of_core::run(&args),
        _ => unreachable!("parse_args admits only listed workloads"),
    }
}

fn main() -> ExitCode {
    let result = run();
    let _ = std::fs::remove_dir_all(TMP_DIR);
    match result {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
