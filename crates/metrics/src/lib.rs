//! A dependency-free metrics registry for the grid B&B workspace.
//!
//! The paper's farmer/worker protocol lives or dies on contact pressure
//! and worker idle time, so every layer of this workspace (coordinator
//! shards, worker runtime, wire server) records into one
//! [`MetricsRegistry`]. The design goals, in order:
//!
//! 1. **Cheap hot path.** Recording must be safe to leave on in the
//!    worker slice loop and the shard contact path. Every instrument is
//!    a handle over pre-resolved `AtomicU64` cells: registration (cold)
//!    resolves `(name, label set)` to shared cells once, and recording
//!    (hot) is one `fetch_add` with [`Ordering::Relaxed`] — no map
//!    lookup, no locking, no allocation.
//! 2. **No dependencies.** The build environment has no registry
//!    access; this crate is `std`-only.
//! 3. **Scrapable.** [`MetricsRegistry::render_text`] emits a
//!    Prometheus-style text exposition so a one-shot wire frame (see
//!    `gridbnb-net`) can serve it to any scraper mid-campaign.
//!
//! Three instrument kinds, all `u64`:
//!
//! | kind | handle | semantics |
//! |---|---|---|
//! | counter | [`Counter`] | monotone total (`_total` names) |
//! | gauge | [`Gauge`] | last-written value (`set`/`add`/`sub`/`max`) |
//! | histogram | [`Histogram`] | fixed upper-bound buckets + sum + count |
//!
//! Durations are recorded as integer **nanoseconds** (`_ns` names)
//! rather than the Prometheus convention of float seconds: the cells
//! are `u64` and the workspace's latencies are all sub-second, so
//! nanoseconds keep recording integer-only and lossless.
//!
//! Consistency: individual increments are never lost (each is one
//! atomic RMW), but a [`MetricsRegistry::snapshot`] taken while
//! recorders are mid-flight may observe a histogram whose `sum` cell
//! is a few observations ahead of its `count` cell — the three cells
//! of an observation are distinct relaxed writes. Quiesce recorders
//! first when exact cross-cell equality matters (tests do).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A resolved label set: `(key, value)` pairs in registration order.
pub type Labels = Vec<(String, String)>;

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter: records into a private cell no registry
    /// renders. Useful as a struct-field default before wiring.
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds one. Hot path: a single relaxed `fetch_add`.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Point-in-time value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value instrument. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A detached gauge (see [`Counter::detached`]).
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (occupancy-style gauges).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`. The caller keeps the gauge non-negative; this
    /// saturates at zero rather than wrapping if it does not.
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .cell
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the value to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    /// Inclusive upper bounds, strictly increasing. The implicit last
    /// bucket is `+Inf`.
    bounds: Box<[u64]>,
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` cells.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram. Buckets are chosen once at registration;
/// observing is a binary search over the bounds plus three relaxed
/// `fetch_add`s. Cloning shares the cells.
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(&[])
    }
}

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            cells: Arc::new(HistogramCells {
                bounds: bounds.into(),
                buckets,
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// A detached histogram (see [`Counter::detached`]).
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Records `v` into the first bucket whose upper bound is ≥ `v`
    /// (`le` semantics), or the `+Inf` bucket past the last bound.
    #[inline]
    pub fn observe(&self, v: u64) {
        let i = self.cells.bounds.partition_point(|b| *b < v);
        self.cells.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Mean observed value, zero before the first observation.
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Per-bucket (non-cumulative) counts; last entry is the `+Inf`
    /// bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.cells
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The registered upper bounds (exclusive of `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.cells.bounds
    }
}

/// Upper bounds suited to nanosecond latencies from sub-microsecond
/// atomics up to one second, roughly ×4 apart.
pub fn latency_buckets_ns() -> Vec<u64> {
    vec![
        250,
        1_000,
        4_000,
        16_000,
        64_000,
        250_000,
        1_000_000,
        4_000_000,
        16_000_000,
        64_000_000,
        250_000_000,
        1_000_000_000,
    ]
}

/// `count` upper bounds starting at `start`, each `factor`× the last.
pub fn exponential_buckets(start: u64, factor: u64, count: usize) -> Vec<u64> {
    assert!(start >= 1 && factor >= 2, "degenerate bucket ladder");
    let mut bounds = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        bounds.push(b);
        b = b.saturating_mul(factor);
    }
    bounds.dedup();
    bounds
}

#[derive(Debug)]
struct Registered<H> {
    name: String,
    labels: Labels,
    handle: H,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Vec<Registered<Counter>>,
    gauges: Vec<Registered<Gauge>>,
    histograms: Vec<Registered<Histogram>>,
}

/// The registry: a shared, cloneable index of every registered
/// instrument. Cloning shares the underlying store, so layers can each
/// hold a handle and register their own metrics into one exposition.
///
/// Registration is idempotent: asking for an existing `(name, labels)`
/// pair returns a handle over the **same** cells, so two layers that
/// name the same metric record into one stream.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

fn resolve_labels(labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|(k, v)| {
            assert!(valid_name(k), "invalid label key {k:?}");
            (k.to_string(), v.to_string())
        })
        .collect()
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter. Panics on an invalid name — a
    /// metric name is source code, not input.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let labels = resolve_labels(labels);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(existing) = inner
            .counters
            .iter()
            .find(|m| m.name == name && m.labels == labels)
        {
            return existing.handle.clone();
        }
        let handle = Counter::default();
        inner.counters.push(Registered {
            name: name.to_string(),
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// Registers (or finds) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let labels = resolve_labels(labels);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(existing) = inner
            .gauges
            .iter()
            .find(|m| m.name == name && m.labels == labels)
        {
            return existing.handle.clone();
        }
        let handle = Gauge::default();
        inner.gauges.push(Registered {
            name: name.to_string(),
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// Registers (or finds) a histogram with the given inclusive upper
    /// bounds (a final `+Inf` bucket is implicit). Panics if the name
    /// already exists with different bounds: one family, one ladder.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let labels = resolve_labels(labels);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(existing) = inner.histograms.iter().find(|m| m.name == name) {
            assert!(
                existing.handle.bounds() == bounds,
                "histogram {name:?} re-registered with different bounds"
            );
            if let Some(same) = inner
                .histograms
                .iter()
                .find(|m| m.name == name && m.labels == labels)
            {
                return same.handle.clone();
            }
        }
        let handle = Histogram::with_bounds(bounds);
        inner.histograms.push(Registered {
            name: name.to_string(),
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// A point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|m| Sample {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    value: m.handle.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|m| Sample {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    value: m.handle.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|m| HistogramSample {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    bounds: m.handle.bounds().to_vec(),
                    buckets: m.handle.bucket_counts(),
                    sum: m.handle.sum(),
                    count: m.handle.count(),
                })
                .collect(),
        }
    }

    /// Prometheus-style text exposition of the whole registry: one
    /// `# TYPE` line per family, `name{labels} value` samples,
    /// histograms as cumulative `_bucket{le=...}` plus `_sum`/`_count`.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// One scalar sample in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Metric family name.
    pub name: String,
    /// Label set, in registration order.
    pub labels: Labels,
    /// The value at snapshot time.
    pub value: u64,
}

/// One histogram sample in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric family name.
    pub name: String,
    /// Label set, in registration order.
    pub labels: Labels,
    /// Inclusive upper bounds (exclusive of the implicit `+Inf`).
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; last entry is `+Inf`.
    pub buckets: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

/// A point-in-time copy of a registry, detached from the live cells.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All counters, in registration order.
    pub counters: Vec<Sample>,
    /// All gauges, in registration order.
    pub gauges: Vec<Sample>,
    /// All histograms, in registration order.
    pub histograms: Vec<HistogramSample>,
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

impl MetricsSnapshot {
    /// Sum of a counter family across all its label sets (zero if the
    /// family was never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// The value of a counter at one exact label set.
    pub fn counter_at(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let want: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.counters
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .map(|s| s.value)
    }

    /// Sum of a gauge family across all its label sets.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Total observation count of a histogram family across label sets.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    }

    /// Total observed sum of a histogram family across label sets.
    pub fn histogram_sum(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.sum)
            .sum()
    }

    /// Renders this snapshot in the Prometheus text format (see
    /// [`MetricsRegistry::render_text`]).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut families: BTreeMap<&str, (&str, Vec<String>)> = BTreeMap::new();
        for s in &self.counters {
            let entry = families
                .entry(&s.name)
                .or_insert_with(|| ("counter", Vec::new()));
            entry.1.push(format!(
                "{}{} {}",
                s.name,
                render_labels(&s.labels, None),
                s.value
            ));
        }
        for s in &self.gauges {
            let entry = families
                .entry(&s.name)
                .or_insert_with(|| ("gauge", Vec::new()));
            entry.1.push(format!(
                "{}{} {}",
                s.name,
                render_labels(&s.labels, None),
                s.value
            ));
        }
        for s in &self.histograms {
            let entry = families
                .entry(&s.name)
                .or_insert_with(|| ("histogram", Vec::new()));
            let mut cumulative = 0u64;
            for (i, bucket) in s.buckets.iter().enumerate() {
                cumulative += bucket;
                let le = s
                    .bounds
                    .get(i)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "+Inf".to_string());
                entry.1.push(format!(
                    "{}_bucket{} {}",
                    s.name,
                    render_labels(&s.labels, Some(("le", &le))),
                    cumulative
                ));
            }
            entry.1.push(format!(
                "{}_sum{} {}",
                s.name,
                render_labels(&s.labels, None),
                s.sum
            ));
            entry.1.push(format!(
                "{}_count{} {}",
                s.name,
                render_labels(&s.labels, None),
                s.count
            ));
        }
        for (name, (kind, lines)) in families {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for line in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_and_gauge_basics() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("ops_total", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = registry.gauge("occupancy", &[]);
        g.set(7);
        g.add(3);
        g.sub(2);
        assert_eq!(g.get(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge sub saturates at zero");
        g.max(5);
        g.max(3);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn registration_is_idempotent_and_shares_cells() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("hits_total", &[("shard", "0")]);
        let b = registry.counter("hits_total", &[("shard", "0")]);
        let other = registry.counter("hits_total", &[("shard", "1")]);
        a.inc();
        b.inc();
        other.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_at("hits_total", &[("shard", "0")]), Some(2));
        assert_eq!(snap.counter_at("hits_total", &[("shard", "1")]), Some(1));
        assert_eq!(snap.counter("hits_total"), 3);
    }

    #[test]
    fn histogram_le_bucket_semantics() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat_ns", &[], &[10, 100, 1000]);
        h.observe(10); // le=10 (inclusive upper bound)
        h.observe(11); // le=100
        h.observe(100); // le=100
        h.observe(5000); // +Inf
        assert_eq!(h.bucket_counts(), vec![1, 2, 0, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10 + 11 + 100 + 5000);
        assert_eq!(h.mean(), (10 + 11 + 100 + 5000) / 4);
    }

    #[test]
    fn bucket_counts_sum_to_count() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("v", &[], &latency_buckets_ns());
        for v in [0u64, 3, 999, 250, 251, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_family_rejects_mismatched_bounds() {
        let registry = MetricsRegistry::new();
        registry.histogram("lat_ns", &[("shard", "0")], &[10, 100]);
        registry.histogram("lat_ns", &[("shard", "1")], &[10, 200]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn names_are_validated() {
        MetricsRegistry::new().counter("bad name", &[]);
    }

    #[test]
    fn exponential_buckets_grow_and_saturate() {
        assert_eq!(exponential_buckets(1, 4, 4), vec![1, 4, 16, 64]);
        let capped = exponential_buckets(u64::MAX / 2, 2, 3);
        assert_eq!(capped.last(), Some(&u64::MAX));
        assert!(capped.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn render_text_exposes_families_with_type_lines() {
        let registry = MetricsRegistry::new();
        registry.counter("reqs_total", &[("kind", "query")]).add(3);
        registry.gauge("fan_in", &[]).set(16);
        let h = registry.histogram("svc_ns", &[], &[100, 1000]);
        h.observe(50);
        h.observe(5000);
        let text = registry.render_text();
        assert!(text.contains("# TYPE reqs_total counter\n"));
        assert!(text.contains("reqs_total{kind=\"query\"} 3\n"));
        assert!(text.contains("# TYPE fan_in gauge\n"));
        assert!(text.contains("fan_in 16\n"));
        assert!(text.contains("# TYPE svc_ns histogram\n"));
        assert!(text.contains("svc_ns_bucket{le=\"100\"} 1\n"));
        assert!(
            text.contains("svc_ns_bucket{le=\"1000\"} 1\n"),
            "buckets are cumulative: {text}"
        );
        assert!(text.contains("svc_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("svc_ns_sum 5050\n"));
        assert!(text.contains("svc_ns_count 2\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        registry.counter("odd_total", &[("v", "a\"b\\c\nd")]).inc();
        let text = registry.render_text();
        assert!(text.contains("odd_total{v=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("spins_total", &[]);
        let h = registry.histogram("spin_ns", &[], &[8, 64]);
        thread::scope(|scope| {
            for t in 0..8 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe((i + t) % 128);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 80_000);
    }
}
