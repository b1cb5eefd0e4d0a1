//! Exact percentiles over raw samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Percentile `p` of `sorted` (ascending), nearest rank; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[rank(sorted.len(), p)]
    }
}

/// The highest percentile, at most `cap`, that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond it, searched in steps of 0.1.
/// `None` when even the median does not.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    let mut tenths = (cap * 10.0).round() as i64;
    while tenths >= 500 {
        let p = tenths as f64 / 10.0;
        if beyond(n, p) >= TAIL_BEYOND {
            return Some(p);
        }
        tenths -= 1;
    }
    None
}

/// Median, the tail percentile at most 99 and its level, and the count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_p: f64,
}

/// Sorts `samples` and summarises them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let tail_p = tail_percentile(n, 99.0).unwrap_or(50.0);
    Summary {
        n,
        p50: percentile(samples, 50.0),
        tail: percentile(samples, tail_p),
        tail_p,
    }
}

/// Fewest windows a windowed statistic is taken over.
pub const MIN_WINDOWS: usize = 3;
/// Fewest samples in a window whose tail counts: p99 with 10 beyond.
pub const WINDOW_MIN: usize = 1000;

/// The median over `windows` of each window's tail percentile, and the
/// lowest level among them, counting windows of at least [`WINDOW_MIN`]
/// samples; `None` when fewer than [`MIN_WINDOWS`] qualify. A host stall
/// that hits a few windows moves this less than the tail of the pooled
/// sample.
pub fn windowed_tail(windows: &mut [Vec<f64>]) -> Option<(f64, f64)> {
    let tails: Vec<Summary> = windows
        .iter_mut()
        .filter(|w| w.len() >= WINDOW_MIN)
        .map(|w| summarize(w))
        .collect();
    if tails.len() < MIN_WINDOWS {
        return None;
    }
    let tail = median(&tails.iter().map(|t| t.tail).collect::<Vec<_>>());
    let level = tails.iter().map(|t| t.tail_p).fold(f64::INFINITY, f64::min);
    Some((tail, level))
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond it.
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        // 999 samples cannot support p99; the next lower level is used.
        let p = tail_percentile(999, 99.0).unwrap();
        assert!(p < 99.0 && beyond(999, p) >= TAIL_BEYOND);
        assert!(beyond(999, p + 0.1) < TAIL_BEYOND);
        // Far more samples never report above the cap.
        assert_eq!(tail_percentile(1_000_000, 99.0), Some(99.0));
        // Too few samples for any tail at all.
        assert_eq!(tail_percentile(15, 99.0), None);
    }

    #[test]
    fn windowed_tail_is_robust_to_one_stalled_window() {
        let window =
            |scale: f64| -> Vec<f64> { (1..=1000).map(|i| f64::from(i) * scale).collect() };
        let mut windows = vec![
            window(1.0),
            window(1.0),
            window(100.0),
            window(1.0),
            vec![5e9; 10],
        ];
        // The short last window does not count; the stalled one is outvoted.
        assert_eq!(windowed_tail(&mut windows), Some((990.0, 99.0)));
        assert_eq!(windowed_tail(&mut windows[..2]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
