//! Order statistics and process memory readings.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that still has [`TAIL_BEYOND`] samples beyond
/// it: the value, the percentile it sits at, and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// `None` when there are too few samples for any percentile to have
/// [`TAIL_BEYOND`] samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Ops per second, as the median over consecutive blocks of `block` ops:
/// each block's rate is its op count over the wall between the previous
/// block's last completion and its own. `done_s` holds completion times in
/// ascending order; a trailing partial block is left out unless it is the
/// only one.
pub fn block_rate(done_s: &[f64], block: usize) -> f64 {
    assert!(!done_s.is_empty() && block > 0, "no completions");
    let mut rates = Vec::new();
    let mut prev = 0.0;
    for chunk in done_s.chunks_exact(block) {
        let end = chunk[block - 1];
        rates.push(block as f64 / (end - prev));
        prev = end;
    }
    if rates.is_empty() {
        return done_s.len() as f64 / done_s[done_s.len() - 1];
    }
    median(&rates)
}

/// Reset the process's peak-RSS high-water mark to its current RSS
/// (`5` → `/proc/self/clear_refs`), so `VmHWM` covers only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak RSS (`VmHWM`) in MB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!(tail(&xs[..10]).is_none());
    }
}
