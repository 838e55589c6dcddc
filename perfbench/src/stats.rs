//! Percentiles and host facts.

/// A percentile taken from sorted samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Which percentile, e.g. 99.0.
    pub pct: f64,
    pub value: u64,
    /// Samples strictly above the chosen rank.
    pub above: usize,
}

/// Nearest-rank percentile `pct` of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], pct: f64) -> Quantile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    // Integer nearest rank over tenths of a percent: ceil(pm * n / 1000).
    let per_mille = (pct * 10.0).round() as usize;
    let rank = (per_mille * n).div_ceil(1000);
    let idx = rank.clamp(1, n) - 1;
    Quantile { pct, value: sorted[idx], above: n - 1 - idx }
}

/// Percentiles tried for the tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest tail percentile that has at least `min_above` samples
/// beyond it: p99.9 or p99 when the run has enough samples, falling back
/// to lower percentiles on short runs (the median when nothing else
/// qualifies).
pub fn tail(sorted: &[u64], min_above: usize) -> Quantile {
    TAIL_CANDIDATES
        .iter()
        .map(|&p| percentile(sorted, p))
        .find(|q| q.above >= min_above)
        .unwrap_or_else(|| percentile(sorted, 50.0))
}

/// Operations per window of [`windowed_tail`].
pub const WINDOW_OPS: usize = 1000;

/// The tail latency as the median over consecutive windows of
/// [`WINDOW_OPS`] operations (in finishing order) of each window's
/// [`tail`], so a stall moves one window, not the result, and the run's
/// many windows steady the median. Windows of 1000 operations make each
/// window's tail its p99 (p99.9 has one sample above it). A run shorter
/// than two windows is one window. `finish_ns[i]` is when the operation
/// with latency `latencies[i]` finished. Returns the median window's
/// quantile and the window count.
pub fn windowed_tail(finish_ns: &[u64], latencies: &[u64]) -> (Quantile, usize) {
    assert_eq!(finish_ns.len(), latencies.len());
    let mut order: Vec<usize> = (0..latencies.len()).collect();
    order.sort_by_key(|&i| finish_ns[i]);
    let windows = (latencies.len() / WINDOW_OPS).max(1);
    let mut tails: Vec<Quantile> = (0..windows)
        .map(|w| {
            // The last window takes the remainder.
            let end = if w + 1 == windows { order.len() } else { (w + 1) * WINDOW_OPS };
            let mut window: Vec<u64> =
                order[w * WINDOW_OPS..end].iter().map(|&i| latencies[i]).collect();
            window.sort_unstable();
            tail(&window, 10)
        })
        .collect();
    tails.sort_by_key(|q| q.value);
    (tails[windows / 2], windows)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type holding `path`, from the longest matching mount point.
pub fn fs_type(path: &std::path::Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else { return "unknown".into() };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// First line of a command's output, or "unknown". The command is waited
/// for.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(str::to_owned))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Quantile { pct: 50.0, value: 50, above: 50 });
        assert_eq!(percentile(&s, 99.0).value, 99);
        assert_eq!(percentile(&s, 100.0).above, 0);
        assert_eq!(percentile(&[7], 99.9).value, 7);
    }

    #[test]
    fn tail_prefers_p999_with_ten_samples_above() {
        // 20_000 samples: p99.9 has 20 above it.
        let s = ramp(20_000);
        let q = tail(&s, 10);
        assert_eq!(q.pct, 99.9);
        assert_eq!(q.above, 20);
        assert_eq!(q.value, 19_980);
    }

    #[test]
    fn tail_falls_back_to_p99_then_lower() {
        // 5_000 samples: p99.9 has 5 above (too few), p99 has 50.
        let q = tail(&ramp(5_000), 10);
        assert_eq!(q.pct, 99.0);
        assert_eq!(q.above, 50);
        // 1_000 samples: p99.9 has 1, p99 exactly 10 — p99 qualifies.
        let q = tail(&ramp(1_000), 10);
        assert_eq!((q.pct, q.above), (99.0, 10));
        // 999 samples: p99 has 9 above; fall back to p95.
        let q = tail(&ramp(999), 10);
        assert_eq!(q.pct, 95.0);
        assert!(q.above >= 10);
        // Too few for any tail: the median.
        assert_eq!(tail(&ramp(12), 10).pct, 50.0);
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Three windows of 1000 operations; the middle one has a stall
        // that a whole-run p99.9 would report. Finish times arrive out of
        // order across clients.
        let mut finish = Vec::new();
        let mut lat = Vec::new();
        for w in 0..3u64 {
            for i in 0..1000u64 {
                finish.push(w * 1000 + (999 - i));
                let stall = w == 1 && i >= 980;
                lat.push(if stall { 1_000_000 } else { 100 + i + w * 10 });
            }
        }
        let (q, windows) = windowed_tail(&finish, &lat);
        assert_eq!(windows, 3);
        assert_eq!(q.pct, 99.0, "1000 samples per window: p99.9 has 1 above");
        assert_eq!(q.above, 10);
        assert_eq!(q.value, 100 + 989 + 20, "the median window is the last one");
        // A remainder joins the last window; short runs are one window.
        assert_eq!(windowed_tail(&finish[..2500], &lat[..2500]).1, 2);
        let (q, windows) = windowed_tail(&[1, 2, 3], &[5, 6, 7]);
        assert_eq!((windows, q.pct, q.value), (1, 50.0, 6));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
