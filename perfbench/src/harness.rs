//! What every workload shares: the run arguments, repeated set-up, and
//! the closed-loop timer.

use std::path::PathBuf;
use std::time::Instant;

use crate::stats;

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Host threads: the pool size and the client-count cap.
    pub nproc: usize,
    /// Temporary directory inside the checkout (spill files, chunk probes,
    /// the serve socket).
    pub tmp: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Run the set-up `SETUPS` times, keeping the last state. Earlier states
/// are dropped between runs, outside the timed region.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("SETUPS > 0"), secs))
}

/// Ops a timed loop runs at least, so the tail has its samples beyond.
pub const MIN_OPS: u64 = 4 * stats::TAIL_BEYOND as u64;

/// Time one call in ms.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// What one client's closed loop measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per-op latency in ms, issue to completion.
    pub latencies_ms: Vec<f64>,
    /// Per-op completion time, s since the loop began.
    pub done_s: Vec<f64>,
    /// Per-op peak RSS (`VmHWM` reset before the op) in MB.
    pub peaks_mb: Vec<f64>,
    pub failed: u64,
    /// Wall of the whole loop in s (output checks included).
    pub wall_s: f64,
}

/// One client's closed loop: op `i` is issued when op `i - 1` completed,
/// until `seconds` have passed and at least `MIN_OPS` ran. `op` returns
/// its latency in ms (issue to completion, the output check excluded) and
/// whether its output was correct.
pub fn closed_loop(
    seconds: f64,
    mut op: impl FnMut(u64) -> Result<(f64, bool), String>,
) -> Result<Timed, String> {
    let rss = |e: std::io::Error| format!("cannot read or reset VmHWM: {e}");
    let start = Instant::now();
    let mut t = Timed::default();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds || i < MIN_OPS {
        stats::reset_peak_rss().map_err(rss)?;
        let (ms, ok) = op(i)?;
        t.done_s.push(start.elapsed().as_secs_f64());
        t.peaks_mb.push(stats::peak_rss_mb().map_err(rss)?);
        t.latencies_ms.push(ms);
        if !ok {
            t.failed += 1;
        }
        i += 1;
    }
    t.wall_s = start.elapsed().as_secs_f64();
    Ok(t)
}

/// A traced run's closed loop over a rotation of `cases`: whole rotation
/// cycles alternate between traced and untraced ops, so both see the same
/// operands and the difference is the tracing overhead.
#[derive(Debug, Default)]
pub struct Alternating {
    /// Per case: latencies of traced ops.
    pub traced: Vec<Vec<f64>>,
    /// Per case: latencies of untraced ops.
    pub plain: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Alternating {
    /// Mean latency of all untraced ops (so cases weigh as the mix runs them).
    pub fn plain_mean_ms(&self) -> f64 {
        stats::mean(&self.plain.concat())
    }

    /// Traced over untraced mean latency, minus one, averaged over cases.
    pub fn overhead_frac(&self) -> f64 {
        let per_case: Vec<f64> = self
            .traced
            .iter()
            .zip(&self.plain)
            .map(|(t, p)| stats::mean(t) / stats::mean(p) - 1.0)
            .collect();
        stats::mean(&per_case)
    }
}

/// Run the alternating loop for `seconds` (and at least two full cycles).
/// `op(i, case, traced)` returns the latency in ms and correctness.
pub fn alternating_loop(
    seconds: f64,
    cases: usize,
    mut op: impl FnMut(u64, usize, bool) -> Result<(f64, bool), String>,
) -> Result<Alternating, String> {
    let mut out = Alternating {
        traced: vec![Vec::new(); cases],
        plain: vec![Vec::new(); cases],
        ..Alternating::default()
    };
    let start = Instant::now();
    let mut i = 0u64;
    let min_ops = 2 * cases as u64;
    while start.elapsed().as_secs_f64() < seconds || i < min_ops || !i.is_multiple_of(cases as u64)
    {
        let case = (i % cases as u64) as usize;
        let traced = (i / cases as u64).is_multiple_of(2);
        let (ms, ok) = op(i, case, traced)?;
        if traced {
            out.traced[case].push(ms);
        } else {
            out.plain[case].push(ms);
        }
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
        i += 1;
    }
    Ok(out)
}
