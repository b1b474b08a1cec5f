//! The benchmark's own statistics: percentiles with the tail rule,
//! quartiles and spread, failure accounting, and the `/proc` readers
//! behind `compile_cpu_s`, `peak_rss_mib` and the host steal-time note.

/// A reported tail percentile must have at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// epsilon keeps `99.9 * 10_000 / 100` from rounding up a whole rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of the usual tail percentiles that still has
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0].into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method) does.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => panic!("quartiles of no samples"),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median: the steadiness
/// figure each end-to-end metric is held to.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed. Refusals (HTTP 429/503) are
/// failures too, and each one also misses any latency limit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted: compiles, requests and output checks.
    pub attempted: u64,
    /// Attempted operations that errored, were refused, or failed a
    /// check.
    pub failed: u64,
    /// Of `failed`, requests the server refused.
    pub refused: u64,
}

impl Tally {
    /// Records one operation that succeeded or failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records one request the server refused with 429 or 503.
    pub fn refusal(&mut self) {
        self.record(false);
        self.refused += 1;
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Request latencies with every refusal counted as an infinite
/// latency, so a refused request misses any limit and pushes the
/// percentiles up instead of vanishing from them.
pub fn latencies_with_refusals(latencies_ms: &[f64], refused: u64) -> Vec<f64> {
    let mut all = latencies_ms.to_vec();
    all.extend(std::iter::repeat_n(f64::INFINITY, refused as usize));
    all.sort_by(f64::total_cmp);
    all
}

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses, so
    // count fields after its closing parenthesis: state is field 3,
    // utime field 14 and stime field 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Seconds the hypervisor ran other guests on this machine's CPUs
/// (`steal`, the eighth value of the `cpu` line), summed over CPUs, from
/// the text of `/proc/stat`.
pub fn steal_seconds_from_stat(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn peak_rss_mib_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds this process has used so far, all threads.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .expect("/proc/self/stat has utime and stime")
}

/// Steal seconds of all CPUs so far; 0 where `/proc/stat` has none.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| steal_seconds_from_stat(&s))
        .unwrap_or(0.0)
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| peak_rss_mib_from_status(&s))
        .expect("/proc/self/status has VmHWM")
}

/// Geometric mean of positive ratios.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 95.0), 3.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(3, 95.0), 0);
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 10]), 0.0);
    }

    #[test]
    fn refusals_count_as_failures_and_miss_the_limit() {
        let mut t = Tally::default();
        for _ in 0..8 {
            t.record(true);
        }
        t.record(false);
        t.refusal();
        assert_eq!(t, Tally { attempted: 10, failed: 2, refused: 1 });
        assert_eq!(t.failed_ratio(), 0.2);
        assert_eq!(Tally::default().failed_ratio(), 0.0);

        let lat = latencies_with_refusals(&[1.0, 2.0, 3.0], 2);
        assert_eq!(lat.len(), 5);
        assert!(percentile(&lat, 95.0).is_infinite(), "a refusal lands in the tail");
        assert_eq!(percentile(&lat, 50.0), 3.0);
    }

    #[test]
    fn reads_cpu_time_from_stat() {
        // Field 2 with spaces and a parenthesis must not shift fields.
        let stat = "4242 (perf bench) (x)) R 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0 3 0 100";
        assert_eq!(cpu_seconds_from_stat(stat), Some(2.8));
        assert_eq!(cpu_seconds_from_stat("garbage"), None);
        assert!(process_cpu_s() >= 0.0);
    }

    #[test]
    fn reads_steal_time_from_proc_stat() {
        let stat =
            "cpu  1386039 0 25462 2241603 4017 0 7512 61834 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(steal_seconds_from_stat(stat), Some(618.34));
        assert_eq!(steal_seconds_from_stat("cpu0 1 2 3\n"), None);
        assert!(steal_s() >= 0.0);
    }

    #[test]
    fn reads_peak_rss_from_status() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(peak_rss_mib_from_status(status), Some(200.0));
        assert_eq!(peak_rss_mib_from_status("Name: x\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.03]) - 1.03).abs() < 1e-12);
    }
}
