//! Process-level measurements (CPU time, peak memory) and the summary
//! statistics every metric is reported with.

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process has used so far, over all of its
/// threads (live and exited). Resolution is one tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the state field.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric tick field") };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether a sample supports the `q` quantile: at least ten samples lie
/// beyond it.
pub fn supports_quantile(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

/// Runs `f` `n` times and returns the median of the wall times in
/// nanoseconds per call.
pub fn median_ns<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!supports_quantile(199, 0.95));
        assert!(supports_quantile(200, 0.95));
        assert!(supports_quantile(20, 0.5));
    }

    #[test]
    fn process_counters_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
