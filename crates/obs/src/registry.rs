//! The metrics registry: monotonic counters and fixed-bucket latency
//! histograms.
//!
//! Instruments are `Arc`-backed atomics, so handles are cheap to clone
//! and safe to update from any thread without locking; the registry's
//! map is only locked at registration and snapshot time (cold paths).
//! Histograms use *fixed* bucket bounds chosen at registration — in
//! virtual or real nanoseconds, whichever domain feeds them — so
//! recording is a branchless-ish scan over ≤ a few dozen bounds with no
//! allocation.
//!
//! A disabled registry hands out no-op instruments, mirroring the event
//! bus: uninstrumented runs pay one branch per record call.

use crate::json::JsonObject;
use rtpb_types::TimeDelta;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (zero for a disabled instrument).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds, in nanoseconds, strictly increasing; an
    /// implicit overflow bucket catches everything beyond the last bound.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket latency histogram over nanosecond values.
///
/// Works in either clock domain: feed it virtual-time deltas from the
/// simulator or wall-clock deltas from the runtime — the bounds mean
/// whatever the feeding clock means.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// Whether this instrument records (false for a disabled registry's
    /// handle).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The default latency bucket bounds: 1 µs to ~16 s in powers of two.
    #[must_use]
    pub fn default_bounds() -> Vec<u64> {
        (0..25).map(|i| 1_000u64 << i).collect()
    }

    /// Records a duration.
    pub fn record(&self, d: TimeDelta) {
        self.record_nanos(d.as_nanos());
    }

    /// Records a raw nanosecond value.
    pub fn record_nanos(&self, nanos: u64) {
        let Some(core) = &self.core else { return };
        let idx = core
            .bounds
            .iter()
            .position(|&b| nanos <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(nanos, Ordering::Relaxed);
        core.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Mean of recorded values, if any.
    #[must_use]
    pub fn mean(&self) -> Option<TimeDelta> {
        let core = self.core.as_ref()?;
        let count = core.count.load(Ordering::Relaxed);
        (count > 0).then(|| TimeDelta::from_nanos(core.sum.load(Ordering::Relaxed) / count))
    }

    /// Maximum recorded value, if any.
    #[must_use]
    pub fn max(&self) -> Option<TimeDelta> {
        let core = self.core.as_ref()?;
        (core.count.load(Ordering::Relaxed) > 0)
            .then(|| TimeDelta::from_nanos(core.max.load(Ordering::Relaxed)))
    }

    /// An upper bound on the `q`-quantile (0 ≤ q ≤ 1): the bound of the
    /// bucket the quantile falls in, or the observed max for the overflow
    /// bucket. `None` when empty.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<TimeDelta> {
        let core = self.core.as_ref()?;
        let count = core.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in core.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Some(TimeDelta::from_nanos(
                    core.bounds
                        .get(i)
                        .copied()
                        .unwrap_or_else(|| core.max.load(Ordering::Relaxed)),
                ));
            }
        }
        Some(TimeDelta::from_nanos(core.max.load(Ordering::Relaxed)))
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A shareable registry of named instruments. Cloning shares the registry.
///
/// # Examples
///
/// ```
/// use rtpb_obs::MetricsRegistry;
/// use rtpb_types::TimeDelta;
///
/// let registry = MetricsRegistry::new();
/// let sent = registry.counter("updates_sent");
/// sent.inc();
/// sent.inc();
/// let lat = registry.histogram("response_time");
/// lat.record(TimeDelta::from_micros(250));
/// let snap = registry.snapshot();
/// assert_eq!(snap.counter("updates_sent"), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// An enabled, empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// A disabled registry: instruments are no-ops, snapshots are empty.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// Whether instruments record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Gets or creates the named counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        inner
            .counters
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_insert_with(|| Counter {
                cell: Some(Arc::new(AtomicU64::new(0))),
            })
            .clone()
    }

    /// Gets or creates the named histogram with the default bounds.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_bounds(name, Histogram::default_bounds())
    }

    /// Gets or creates the named histogram; `bounds` are inclusive
    /// nanosecond upper bounds and apply only at creation.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn histogram_with_bounds(&self, name: &str, bounds: Vec<u64>) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::default();
        };
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        inner
            .histograms
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_insert_with(|| {
                let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
                Histogram {
                    core: Some(Arc::new(HistogramCore {
                        bounds,
                        buckets,
                        count: AtomicU64::new(0),
                        sum: AtomicU64::new(0),
                        max: AtomicU64::new(0),
                    })),
                }
            })
            .clone()
    }

    /// A point-in-time copy of every instrument's value, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSummary {
                        count: v.count(),
                        mean: v.mean(),
                        p99_bound: v.quantile_upper_bound(0.99),
                        max: v.max(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A summarized histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Recorded values.
    pub count: u64,
    /// Mean value.
    pub mean: Option<TimeDelta>,
    /// Upper bound of the bucket holding the 99th percentile.
    pub p99_bound: Option<TimeDelta>,
    /// Largest recorded value.
    pub max: Option<TimeDelta>,
}

/// A point-in-time, name-sorted copy of a registry's instruments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// A counter's value, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A histogram's summary, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as JSONL: one line per instrument, sorted by
    /// name within each instrument family.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let mut o = JsonObject::new();
            o.str_field("metric", "counter")
                .str_field("name", name)
                .uint_field("value", *value);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let mut o = JsonObject::new();
            o.str_field("metric", "histogram")
                .str_field("name", name)
                .uint_field("count", h.count)
                .uint_field("mean_ns", h.mean.map_or(0, TimeDelta::as_nanos))
                .uint_field("p99_bound_ns", h.p99_bound.map_or(0, TimeDelta::as_nanos))
                .uint_field("max_ns", h.max.map_or(0, TimeDelta::as_nanos));
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_hands_out_noop_instruments() {
        let r = MetricsRegistry::disabled();
        let c = r.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        let h = r.histogram("z");
        h.record(TimeDelta::from_millis(1));
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert!(r.snapshot().counters.is_empty());
    }

    #[test]
    fn counters_are_shared_by_name() {
        let r = MetricsRegistry::new();
        r.counter("hits").add(3);
        r.counter("hits").inc();
        assert_eq!(r.counter("hits").get(), 4);
    }

    #[test]
    fn histogram_buckets_mean_max_and_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with_bounds("lat", vec![1_000, 10_000, 100_000]);
        h.record_nanos(500); // bucket 0
        h.record_nanos(5_000); // bucket 1
        h.record_nanos(50_000); // bucket 2
        h.record_nanos(500_000); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(TimeDelta::from_nanos(138_875)));
        assert_eq!(h.max(), Some(TimeDelta::from_nanos(500_000)));
        assert_eq!(
            h.quantile_upper_bound(0.5),
            Some(TimeDelta::from_nanos(10_000))
        );
        // Overflow bucket reports the observed max.
        assert_eq!(
            h.quantile_upper_bound(1.0),
            Some(TimeDelta::from_nanos(500_000))
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let r = MetricsRegistry::new();
        let _ = r.histogram_with_bounds("bad", vec![10, 5]);
    }

    #[test]
    fn snapshot_is_deterministic_jsonl() {
        let r = MetricsRegistry::new();
        r.counter("b").inc();
        r.counter("a").add(2);
        r.histogram("h").record(TimeDelta::from_micros(3));
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), Some(2));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        let jsonl = snap.to_jsonl();
        // Counters sort by name; every line parses as flat JSON.
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"a\""));
        for line in lines {
            crate::json::parse_flat(line).expect("valid json");
        }
        assert_eq!(jsonl, r.snapshot().to_jsonl());
    }

    #[test]
    fn instruments_are_thread_safe() {
        let r = MetricsRegistry::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = r.counter("n");
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("n").get(), 4_000);
    }
}
