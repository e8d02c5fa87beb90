//! Zero-dependency metrics core for the DSARP reproduction.
//!
//! * [`NBUCKETS`] / [`bucket_index`]: the log2 bucket rule (`[0], [1],
//!   [2,3], [4,7], …`) the simulator's queue-depth histograms share;
//! * [`Counter`]: a lock-free atomic;
//! * [`Histogram`]: the same buckets, atomic, with sum and count;
//! * [`write_header`], [`Counter::write`] and [`Histogram::write`]: the
//!   Prometheus text exposition lines (version 0.0.4) of one series.
//!
//! The crate deliberately depends on nothing (not even the workspace's
//! vendored serde): it must be embeddable in every layer without
//! dependency cycles. Names, HELP texts and labels are written verbatim:
//! callers pass constants that need no escaping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets a [`Histogram`] carries. Bucket 0 holds the
/// value 0; bucket `i >= 1` holds values whose bit length is `i` (the
/// range `[2^(i-1), 2^i - 1]`); the last bucket additionally absorbs
/// everything larger (`+Inf` in Prometheus terms).
pub const NBUCKETS: usize = 32;

/// The bucket a value lands in: 0 for 0, otherwise the value's bit
/// length clamped to the last bucket.
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(NBUCKETS - 1)
}

/// Inclusive upper bound of a bucket, or `None` for the last (`+Inf`)
/// bucket.
fn bucket_bound(index: usize) -> Option<u64> {
    match index {
        0 => Some(0),
        i if i < NBUCKETS - 1 => Some((1u64 << i) - 1),
        _ => None,
    }
}

/// Writes a metric family's `# HELP` and `# TYPE` lines; `kind` is
/// `counter` or `histogram`.
pub fn write_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// `{labels}`, or nothing for no labels.
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Writes this counter as the series `name{labels}`; `labels` is the
    /// `k="v",…` list, empty for none.
    pub fn write(&self, out: &mut String, name: &str, labels: &str) {
        let _ = writeln!(out, "{name}{} {}", braced(labels), self.get());
    }
}

/// A log2-bucketed histogram with lock-free observation.
///
/// Buckets are fixed (see [`NBUCKETS`] / [`bucket_index`]): cheap enough
/// for per-request latencies and per-cycle queue depths alike, with no
/// configuration to mismatch between writers.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Writes this histogram as one series: a cumulative
    /// `name_bucket{labels,le=".."}` line per bucket, the last `+Inf`,
    /// then `name_sum` and `name_count`. Read part by part without a
    /// lock, so under concurrent writers the parts can be transiently
    /// inconsistent (sum/count ahead of buckets); each is monotonic.
    pub fn write(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = bucket_bound(i).map_or_else(|| "+Inf".to_string(), |b| b.to_string());
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
            );
        }
        let labels = braced(labels);
        let _ = writeln!(
            out,
            "{name}_sum{labels} {}",
            self.sum.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "{name}_count{labels} {}", self.count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
        // Every finite bound is the largest value of its bucket.
        for i in 0..NBUCKETS - 1 {
            let bound = bucket_bound(i).expect("finite bucket");
            assert_eq!(bucket_index(bound), i, "upper bound of bucket {i}");
            assert_eq!(
                bucket_index(bound + 1),
                i + 1,
                "first value past bucket {i}"
            );
        }
        assert_eq!(bucket_bound(NBUCKETS - 1), None);
    }

    /// The per-bucket (non-cumulative) counts of `h`.
    fn buckets(h: &Histogram) -> Vec<u64> {
        h.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    #[test]
    fn histogram_accumulates_sum_and_count() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum.load(Ordering::Relaxed), 106);
        let b = buckets(&h);
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[7], 1); // 100 in [64,127]
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_inf() {
        let h = Histogram::default();
        h.observe(1);
        h.observe(3);
        h.observe(1 << 40);
        let mut text = String::new();
        h.write(&mut text, "dsarp_lat", "");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), NBUCKETS + 2);
        assert_eq!(lines[0], "dsarp_lat_bucket{le=\"0\"} 0");
        assert_eq!(lines[1], "dsarp_lat_bucket{le=\"1\"} 1");
        assert_eq!(lines[2], "dsarp_lat_bucket{le=\"3\"} 2");
        assert_eq!(lines[3], "dsarp_lat_bucket{le=\"7\"} 2");
        assert_eq!(lines[30], "dsarp_lat_bucket{le=\"1073741823\"} 2");
        assert_eq!(lines[31], "dsarp_lat_bucket{le=\"+Inf\"} 3");
        assert_eq!(lines[32], "dsarp_lat_sum 1099511627780");
        assert_eq!(lines[33], "dsarp_lat_count 3");

        // With labels, `le` comes last inside the same block.
        let mut text = String::new();
        h.write(&mut text, "dsarp_lat", "route=\"/x\"");
        assert!(text.starts_with("dsarp_lat_bucket{route=\"/x\",le=\"0\"} 0\n"));
        assert!(text.ends_with(
            "dsarp_lat_sum{route=\"/x\"} 1099511627780\ndsarp_lat_count{route=\"/x\"} 3\n"
        ));
    }

    #[test]
    fn hammer_concurrent_counters_and_histograms_lose_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50_000;
        let c = Counter::default();
        let h = Histogram::default();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = &c;
                let h = &h;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.observe(t * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * PER_THREAD);
        assert_eq!(h.count(), THREADS * PER_THREAD);
        assert_eq!(buckets(&h).iter().sum::<u64>(), THREADS * PER_THREAD);
        // Sum of 0..N-1 observed exactly once each.
        let n = THREADS * PER_THREAD;
        assert_eq!(h.sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}
