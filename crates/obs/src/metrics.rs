//! The counter/histogram registry.
//!
//! Reports (`FleetReport` / `RunReport`) read aggregate numbers from
//! here instead of hand-threading counters through every layer. Counters are commutative sums and histograms are
//! sorted before quantiles, so registry-derived numbers are independent
//! of worker interleaving — safe to include in deterministic output.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use serde_json::Value;

use crate::sink::lock;

struct Inner {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Vec<u64>>>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner { counters: Mutex::new(BTreeMap::new()), histograms: Mutex::new(BTreeMap::new()) }
    }
}

/// Nearest-rank summary of one histogram's samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramStats {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean (truncating).
    pub mean: u64,
    /// Median, nearest-rank.
    pub p50: u64,
    /// 95th percentile, nearest-rank.
    pub p95: u64,
    /// 99th percentile, nearest-rank.
    pub p99: u64,
}

/// A shared, thread-safe registry of named counters and histograms.
/// Clones share state (`Arc` inside); the default registry is empty.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MetricsRegistry({} counters, {} histograms)",
            lock(&self.inner.counters).len(),
            lock(&self.inner.histograms).len()
        )
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        *lock(&self.inner.counters).entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Increments the counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// The counter's current value (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        lock(&self.inner.counters).get(name).copied().unwrap_or(0)
    }

    /// Records one sample into the histogram `name`.
    pub fn observe(&self, name: &str, sample: u64) {
        lock(&self.inner.histograms).entry(name.to_owned()).or_default().push(sample);
    }

    /// Summarizes the histogram `name`; `None` if it has no samples.
    /// Samples are sorted first, so the summary is independent of the
    /// order threads recorded them in.
    pub fn histogram_stats(&self, name: &str) -> Option<HistogramStats> {
        let hists = lock(&self.inner.histograms);
        let samples = hists.get(name).filter(|s| !s.is_empty())?;
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let nearest = |q: u64| sorted[((q * n).div_ceil(100).max(1) - 1) as usize];
        Some(HistogramStats {
            count: n,
            min: sorted[0],
            max: sorted[n as usize - 1],
            mean: sorted.iter().sum::<u64>() / n,
            p50: nearest(50),
            p95: nearest(95),
            p99: nearest(99),
        })
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner.counters).is_empty() && lock(&self.inner.histograms).is_empty()
    }

    /// The whole registry as JSON: counters verbatim, histograms
    /// summarized. Keys are sorted (BTreeMap), so two registries with the
    /// same contents serialize to identical bytes.
    pub fn snapshot_value(&self) -> Value {
        let counters: Vec<(String, Value)> =
            lock(&self.inner.counters).iter().map(|(k, v)| (k.clone(), Value::U64(*v))).collect();
        let histograms: Vec<(String, Value)> = {
            let names: Vec<String> = lock(&self.inner.histograms).keys().cloned().collect();
            names
                .into_iter()
                .filter_map(|name| {
                    let s = self.histogram_stats(&name)?;
                    Some((
                        name,
                        Value::Map(vec![
                            ("count".to_owned(), Value::U64(s.count)),
                            ("min".to_owned(), Value::U64(s.min)),
                            ("max".to_owned(), Value::U64(s.max)),
                            ("mean".to_owned(), Value::U64(s.mean)),
                            ("p50".to_owned(), Value::U64(s.p50)),
                            ("p95".to_owned(), Value::U64(s.p95)),
                            ("p99".to_owned(), Value::U64(s.p99)),
                        ]),
                    ))
                })
                .collect()
        };
        Value::Map(vec![
            ("counters".to_owned(), Value::Map(counters)),
            ("histograms".to_owned(), Value::Map(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_across_clones() {
        let reg = MetricsRegistry::new();
        let other = reg.clone();
        reg.incr("a");
        other.add("a", 4);
        assert_eq!(reg.get("a"), 5);
        assert_eq!(reg.get("missing"), 0);
    }

    #[test]
    fn histogram_summary_is_order_independent() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for v in [30u64, 10, 20] {
            a.observe("lat", v);
        }
        for v in [10u64, 20, 30] {
            b.observe("lat", v);
        }
        assert_eq!(a.histogram_stats("lat"), b.histogram_stats("lat"));
        let s = a.histogram_stats("lat").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert_eq!(s.mean, 20);
        assert_eq!(s.p50, 20);
        assert_eq!(s.p99, 30);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let reg = MetricsRegistry::new();
        assert!(reg.histogram_stats("nope").is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn snapshot_is_deterministic_json() {
        let reg = MetricsRegistry::new();
        reg.add("z", 1);
        reg.add("a", 2);
        reg.observe("h", 5);
        let one = serde_json::to_string(&reg.snapshot_value()).unwrap();
        let two = serde_json::to_string(&reg.snapshot_value()).unwrap();
        assert_eq!(one, two);
        assert!(one.find("\"a\"").unwrap() < one.find("\"z\"").unwrap(), "keys sorted");
    }
}
