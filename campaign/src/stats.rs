//! Order statistics and the process-level readings (CPU time, peak
//! resident set) behind the end-to-end metrics.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measured something.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `values`.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile of a fixed-bucket histogram, interpolated linearly inside
/// the bucket that holds the rank. `bounds` are the inclusive upper
/// bounds, `buckets` the per-bucket counts with the `+Inf` bucket last
/// (reported at the last finite bound: nothing says how far past it).
pub fn histogram_quantile(bounds: &[u64], buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut seen = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        let next = seen + count as f64;
        if next >= rank && count > 0 {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] as f64 };
            let Some(&hi) = bounds.get(i) else { return lo };
            return lo + (hi as f64 - lo) * ((rank - seen) / count as f64);
        }
        seen = next;
    }
    bounds.last().map_or(0.0, |&b| b as f64)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has consumed, threads that
/// already exited included. `/proc/self/stat` has the same figure in
/// 10 ms ticks, too coarse for the 0.2 s of CPU a `small_batch`
/// repetition burns; the clock behind it has nanosecond resolution and
/// std exposes no safe reader for it.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // C longs on 64-bit Linux, the only platform this benchmark reads
    // /proc on) and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
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
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        // 10 observations in (100, 200]: the median sits halfway.
        assert_eq!(histogram_quantile(&[100, 200], &[0, 10, 0], 0.5), 150.0);
        assert_eq!(histogram_quantile(&[100, 200], &[0, 0, 0], 0.5), 0.0);
        // Past the last bound there is nothing to interpolate towards.
        assert_eq!(histogram_quantile(&[100], &[0, 5], 0.5), 100.0);
    }

    #[test]
    fn process_readings_are_positive_and_cpu_time_grows() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
