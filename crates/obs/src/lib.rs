//! Zero-dependency metrics core for the DSARP reproduction.
//!
//! Every layer of the stack — simulator, campaign runner, campaign server —
//! records into these primitives:
//!
//! * [`Counter`]: a lock-free atomic;
//! * [`Histogram`]: fixed log2 buckets (`[0], [1], [2,3], [4,7], …`) with
//!   sum and count;
//! * [`Family`]: the same metrics keyed by label values;
//! * [`Registry`]: named registration plus the Prometheus text exposition
//!   format ([`Registry::render_prometheus`]).
//!
//! The crate deliberately depends on nothing (not even the workspace's
//! vendored serde): it must be embeddable in every layer without dependency
//! cycles, and its renderer is hand-written against the exposition
//! format's escaping rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
pub(crate) fn bucket_bound(index: usize) -> Option<u64> {
    match index {
        0 => Some(0),
        i if i < NBUCKETS - 1 => Some((1u64 << i) - 1),
        _ => None,
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
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

    /// Plain-data view of the current state. Taken bucket-by-bucket
    /// without a global lock, so under concurrent writers the parts can
    /// be transiently inconsistent (sum/count ahead of buckets) — each
    /// part is individually monotonic.
    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data view of a [`Histogram`], with per-bucket (non-cumulative)
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HistogramSnapshot {
    /// Per-bucket observation counts (`buckets[i]` counts values in
    /// bucket `i`; see [`bucket_bound`]).
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

/// A set of metrics of one kind, keyed by label values.
///
/// The label *names* live on the registry entry; a `Family` only stores
/// one metric per distinct label-value tuple. Lookup takes a mutex, so
/// hot paths should hold on to the returned `Arc` instead of re-resolving
/// labels per event.
#[derive(Debug, Default)]
pub struct Family<M> {
    series: Mutex<BTreeMap<Vec<String>, Arc<M>>>,
}

impl<M: Default> Family<M> {
    /// An empty family.
    fn new() -> Self {
        Self {
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// The metric for a label-value tuple, created on first use.
    pub fn with_labels(&self, values: &[&str]) -> Arc<M> {
        let key: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        let mut series = self.series.lock().expect("family lock");
        Arc::clone(series.entry(key).or_default())
    }

    /// All series as `(label values, metric)` pairs, sorted by labels.
    fn collect(&self) -> Vec<(Vec<String>, Arc<M>)> {
        let series = self.series.lock().expect("family lock");
        series
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

/// What a registry entry holds.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    CounterFamily(Arc<Family<Counter>>, Vec<String>),
    HistogramFamily(Arc<Family<Histogram>>, Vec<String>),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// Named metric registration plus rendering.
///
/// Registration returns an `Arc` handle the instrumented code keeps; the
/// registry itself is only walked at render time.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, metric: Metric) {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name `{name}`"
        );
        let mut entries = self.entries.lock().expect("registry lock");
        assert!(
            entries.iter().all(|e| e.name != name),
            "metric `{name}` registered twice"
        );
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric,
        });
    }

    /// Registers and returns a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.register(name, help, Metric::Counter(Arc::clone(&c)));
        c
    }

    /// Registers and returns a labeled counter family.
    pub fn counter_family(&self, name: &str, help: &str, labels: &[&str]) -> Arc<Family<Counter>> {
        let f = Arc::new(Family::new());
        self.register(
            name,
            help,
            Metric::CounterFamily(
                Arc::clone(&f),
                labels.iter().map(|l| l.to_string()).collect(),
            ),
        );
        f
    }

    /// Registers and returns a labeled histogram family.
    pub fn histogram_family(
        &self,
        name: &str,
        help: &str,
        labels: &[&str],
    ) -> Arc<Family<Histogram>> {
        let f = Arc::new(Family::new());
        self.register(
            name,
            help,
            Metric::HistogramFamily(
                Arc::clone(&f),
                labels.iter().map(|l| l.to_string()).collect(),
            ),
        );
        f
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers, escaped label values,
    /// cumulative `_bucket{le=...}` series plus `_sum`/`_count` for
    /// histograms.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("registry lock").clone();
        let mut out = String::new();
        for e in &entries {
            let kind = match &e.metric {
                Metric::Counter(_) | Metric::CounterFamily(..) => "counter",
                Metric::HistogramFamily(..) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", e.name, escape_help(&e.help));
            let _ = writeln!(out, "# TYPE {} {kind}", e.name);
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{} {}", e.name, c.get());
                }
                Metric::CounterFamily(f, names) => {
                    for (values, c) in f.collect() {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            e.name,
                            label_block(&zip_labels(names, &values)),
                            c.get()
                        );
                    }
                }
                Metric::HistogramFamily(f, names) => {
                    for (values, h) in f.collect() {
                        render_histogram(
                            &mut out,
                            &e.name,
                            &zip_labels(names, &values),
                            &h.snapshot(),
                        );
                    }
                }
            }
        }
        out
    }
}

fn zip_labels(names: &[String], values: &[String]) -> Vec<(String, String)> {
    names.iter().cloned().zip(values.iter().cloned()).collect()
}

/// `{k="v",...}` with escaped values, or the empty string for no labels.
fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for (i, count) in snap.buckets.iter().enumerate() {
        cumulative += count;
        let mut with_le = labels.to_vec();
        let bound = match bucket_bound(i) {
            Some(b) => b.to_string(),
            None => "+Inf".to_string(),
        };
        with_le.push(("le".to_string(), bound));
        let _ = writeln!(out, "{name}_bucket{} {cumulative}", label_block(&with_le));
    }
    let _ = writeln!(out, "{name}_sum{} {}", label_block(labels), snap.sum);
    let _ = writeln!(out, "{name}_count{} {}", label_block(labels), snap.count);
}

/// Escapes a `# HELP` text: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote and newline.
fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
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

    #[test]
    fn histogram_accumulates_sum_and_count() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 100] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 106);
        assert_eq!(snap.buckets[0], 1); // 0
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[7], 1); // 100 in [64,127]
    }

    #[test]
    fn prometheus_text_escapes_and_renders_labels() {
        let r = Registry::new();
        let f = r.counter_family("dsarp_test_total", "help with \\ and\nnewline", &["label"]);
        f.with_labels(&["quote\" slash\\ nl\n"]).add(3);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP dsarp_test_total help with \\\\ and\\nnewline\n"));
        assert!(text.contains("# TYPE dsarp_test_total counter\n"));
        assert!(text.contains("dsarp_test_total{label=\"quote\\\" slash\\\\ nl\\n\"} 3\n"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_inf() {
        let r = Registry::new();
        let h = r
            .histogram_family("dsarp_lat", "latency", &[])
            .with_labels(&[]);
        h.observe(1);
        h.observe(3);
        h.observe(u64::MAX);
        let text = r.render_prometheus();
        assert!(text.contains("dsarp_lat_bucket{le=\"0\"} 0\n"));
        assert!(text.contains("dsarp_lat_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("dsarp_lat_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("dsarp_lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("dsarp_lat_count 3\n"));
    }

    #[test]
    fn hammer_concurrent_counters_and_histograms_lose_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50_000;
        let c = Counter::new();
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
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS * PER_THREAD);
        assert_eq!(snap.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
        // Sum of 0..N-1 observed exactly once each.
        let n = THREADS * PER_THREAD;
        assert_eq!(snap.sum, n * (n - 1) / 2);
    }

    #[test]
    fn family_series_are_shared_and_sorted() {
        let f: Family<Counter> = Family::new();
        f.with_labels(&["b"]).inc();
        f.with_labels(&["a"]).inc();
        f.with_labels(&["b"]).inc();
        let series = f.collect();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, vec!["a".to_string()]);
        assert_eq!(series[1].0, vec!["b".to_string()]);
        assert_eq!(series[1].1.get(), 2);
    }
}
