//! Typed metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! Handles are resolved by name once ([`counter`], [`gauge`],
//! [`histogram`]) — typically into a `OnceLock` at the call site — and
//! from then on every update is a handful of atomic ops. Updates are
//! dropped while recording is disabled ([`crate::enabled`]), mirroring the
//! span contract, so a disabled process observes nothing and pays one
//! relaxed load per update.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::enabled;
use crate::json::Value;

/// Number of histogram buckets. Bucket 0 holds zero values; bucket `b`
/// (for `b ≥ 1`) holds values in `[2^(b-1), 2^b)`, with the last bucket
/// absorbing everything larger.
pub const HIST_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` (no-op while recording is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one (no-op while recording is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge (no-op while recording is disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if it is below it (no-op while disabled).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if enabled() {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

fn new_hist() -> Histogram {
    Histogram(Arc::new(HistCell {
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
        max: AtomicU64::new(0),
        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
    }))
}

/// A fixed log-bucketed histogram of `u64` samples (one bucket per power
/// of two). Cheap enough for per-tile and per-worker recording: one
/// `leading_zeros` plus three relaxed `fetch_add`s per sample.
#[derive(Clone)]
pub struct Histogram(Arc<HistCell>);

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one sample (no-op while recording is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            let cell = &*self.0;
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(v, Ordering::Relaxed);
            cell.max.fetch_max(v, Ordering::Relaxed);
            cell.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Read-only snapshot of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cell = &*self.0;
        let buckets: Vec<u64> = cell
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let max = cell.max.load(Ordering::Relaxed);
        HistogramSnapshot {
            count: cell.count.load(Ordering::Relaxed),
            sum: cell.sum.load(Ordering::Relaxed),
            max,
            p50: quantile_upper_bound(&buckets, 0.50).min(max),
            p95: quantile_upper_bound(&buckets, 0.95).min(max),
            p99: quantile_upper_bound(&buckets, 0.99).min(max),
            buckets,
        }
    }
}

/// Upper bound of the bucket containing quantile `q`. Since buckets are
/// powers of two, the bound is exact to within 2x: an empty histogram
/// reports 0, a zero sample resolves to bucket 0 (bound 0), and the last
/// bucket's bound saturates at `1 << 63` (it absorbs every larger value).
pub fn quantile_upper_bound(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q).ceil() as u64;
    let mut seen = 0u64;
    for (b, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return if b == 0 { 0 } else { 1u64 << b.min(63) };
        }
    }
    u64::MAX
}

/// Point-in-time view of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest recorded sample (exact, not a bucket bound).
    pub max: u64,
    /// Upper bound of the bucket holding the median sample, capped at
    /// `max` (the bound is a power of two, so without the cap a tail
    /// quantile could report above the largest sample ever seen).
    pub p50: u64,
    /// Upper bound of the bucket holding the 95th-percentile sample,
    /// capped at `max`.
    pub p95: u64,
    /// Upper bound of the bucket holding the 99th-percentile sample,
    /// capped at `max`.
    pub p99: u64,
    /// Raw bucket counts ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An object with `count`, `sum`, `mean`, `p50`, `p95`, `p99`, and
    /// `max` fields (the shape used by [`MetricsSnapshot`] and the serve
    /// daemon's `Stats` reply).
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("mean", self.mean().into()),
            ("p50", self.p50.into()),
            ("p95", self.p95.into()),
            ("p99", self.p99.into()),
            ("max", self.max.into()),
        ])
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Labeled histograms live in their own registry: the key carries one
/// `(label, value)` dimension, with the value owned (it is dynamic —
/// e.g. a kernel fingerprint), unlike the `&'static str` main registry.
type LabeledKey = (&'static str, &'static str, String);

fn labeled_registry() -> &'static Mutex<BTreeMap<LabeledKey, Histogram>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<LabeledKey, Histogram>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Resolve (registering on first use) the counter named `name`.
///
/// Panics if `name` is already registered as a different metric kind —
/// that is a programming error, not a runtime condition.
pub fn counter(name: &'static str) -> Counter {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric {name:?} is not a counter"),
    }
}

/// Resolve (registering on first use) the gauge named `name`.
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &'static str) -> Gauge {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric {name:?} is not a gauge"),
    }
}

/// Resolve (registering on first use) the histogram named `name`.
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &'static str) -> Histogram {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Histogram(new_hist()))
    {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric {name:?} is not a histogram"),
    }
}

/// Resolve (registering on first use) the histogram named `name` carrying
/// one `label="value"` dimension — e.g.
/// `histogram_labeled("serve.request_ns", "fingerprint", fp)` for
/// per-kernel latency. Each distinct value gets its own histogram;
/// [`MetricsSnapshot`] and the Prometheus exporter render the label.
///
/// Resolution allocates (the value is owned); callers on latency-
/// sensitive paths should resolve once per request, not per sample.
pub fn histogram_labeled(name: &'static str, label: &'static str, value: &str) -> Histogram {
    let mut reg = labeled_registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.entry((name, label, value.to_string()))
        .or_insert_with(new_hist)
        .clone()
}

/// Zero every registered metric (handles stay valid). For tests and for
/// isolating one measured region from the next.
pub fn reset_metrics() {
    fn reset_hist(h: &Histogram) {
        h.0.count.store(0, Ordering::Relaxed);
        h.0.sum.store(0, Ordering::Relaxed);
        h.0.max.store(0, Ordering::Relaxed);
        for b in &h.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for metric in reg.values() {
        match metric {
            Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.0.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => reset_hist(h),
        }
    }
    drop(reg);
    let reg = labeled_registry().lock().unwrap_or_else(|e| e.into_inner());
    for h in reg.values() {
        reset_hist(h);
    }
}

/// Point-in-time view of the whole registry, sorted by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, label, value, snapshot)` for every labeled histogram
    /// ([`histogram_labeled`]), sorted by name then value.
    pub labeled: Vec<(String, String, String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Snapshot every registered metric, after setting the
    /// `obs.ring_bytes` gauge to the bytes of span records the recorder
    /// holds (records × [`crate::RECORD_BYTES`]).
    pub fn collect() -> Self {
        // The span recorder's memory, as of this snapshot.
        let ring_bytes = crate::recorder::held_records() * crate::recorder::RECORD_BYTES;
        gauge("obs.ring_bytes").set(ring_bytes as u64);
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in reg.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.to_string(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.to_string(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.to_string(), h.snapshot())),
            }
        }
        drop(reg);
        let reg = labeled_registry().lock().unwrap_or_else(|e| e.into_inner());
        for ((name, label, value), h) in reg.iter() {
            snap.labeled.push((
                name.to_string(),
                label.to_string(),
                value.clone(),
                h.snapshot(),
            ));
        }
        snap
    }

    /// An object: `{"counters":{...},"gauges":{...},
    /// "histograms":{name:{"count","sum","mean","p50","p95","p99","max"}}}`.
    /// Labeled histograms sit under `histograms` with Prometheus-style
    /// keys, e.g. `serve.request_ns{fingerprint="1a2b"}`.
    pub fn to_value(&self) -> Value {
        let values = |xs: &[(String, u64)]| {
            Value::obj(xs.iter().map(|(name, v)| (name.as_str(), (*v).into())))
        };
        let plain = self.histograms.iter().map(|(name, h)| (name.clone(), h));
        let labeled = self
            .labeled
            .iter()
            .map(|(name, label, value, h)| (format!("{name}{{{label}=\"{value}\"}}"), h));
        let histograms = plain.chain(labeled).map(|(key, h)| (key, h.to_value()));
        Value::obj([
            ("counters", values(&self.counters)),
            ("gauges", values(&self.gauges)),
            ("histograms", Value::obj(histograms)),
        ])
    }

    /// Encode in the Prometheus text exposition format (version 0.0.4):
    /// counters and gauges as single samples, histograms as summaries
    /// (`quantile` labels for p50/p95/p99, plus `_count`, `_sum`, and a
    /// `_max` gauge). Metric names have non-`[a-zA-Z0-9_:]` characters
    /// mapped to `_` (`serve.request_ns` → `serve_request_ns`); labeled
    /// histograms keep their label alongside `quantile`. This is what
    /// `perforad-serve --metrics` serves at `/metrics`.
    pub fn to_prometheus(&self) -> String {
        fn mangle(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        fn escape_label(v: &str) -> String {
            v.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        }
        fn summary(s: &mut String, name: &str, extra_label: &str, h: &HistogramSnapshot) {
            let sep = if extra_label.is_empty() { "" } else { "," };
            for (q, v) in [(0.5, h.p50), (0.95, h.p95), (0.99, h.p99)] {
                s.push_str(&format!(
                    "{name}{{{extra_label}{sep}quantile=\"{q}\"}} {v}\n"
                ));
            }
            let braces = if extra_label.is_empty() {
                String::new()
            } else {
                format!("{{{extra_label}}}")
            };
            s.push_str(&format!("{name}_count{braces} {}\n", h.count));
            s.push_str(&format!("{name}_sum{braces} {}\n", h.sum));
            s.push_str(&format!("{name}_max{braces} {}\n", h.max));
        }

        let mut s = String::new();
        for (name, v) in &self.counters {
            let m = mangle(name);
            s.push_str(&format!("# TYPE {m} counter\n{m} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let m = mangle(name);
            s.push_str(&format!("# TYPE {m} gauge\n{m} {v}\n"));
        }
        // One # TYPE line per metric name, even when a name has both an
        // unlabeled aggregate and labeled series (serve.request_ns does).
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for (name, h) in &self.histograms {
            let m = mangle(name);
            if typed.insert(m.clone()) {
                s.push_str(&format!("# TYPE {m} summary\n"));
            }
            summary(&mut s, &m, "", h);
        }
        for (name, label, value, h) in &self.labeled {
            let m = mangle(name);
            if typed.insert(m.clone()) {
                s.push_str(&format!("# TYPE {m} summary\n"));
            }
            let lbl = format!("{}=\"{}\"", mangle(label), escape_label(value));
            summary(&mut s, &m, &lbl, h);
        }
        s
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "{name:<40} {v:>12}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "{name:<40} {v:>12}")?;
        }
        let hist_line = |f: &mut fmt::Formatter<'_>, name: &str, h: &HistogramSnapshot| {
            writeln!(
                f,
                "{name:<40} {:>12} samples  mean {:>10.0}  p50 {:>10}  p95 {:>10}  p99 {:>10}  max {:>10}",
                h.count,
                h.mean(),
                h.p50,
                h.p95,
                h.p99,
                h.max,
            )
        };
        for (name, h) in &self.histograms {
            hist_line(f, name, h)?;
        }
        for (name, label, value, h) in &self.labeled {
            hist_line(f, &format!("{name}{{{label}=\"{value}\"}}"), h)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::with_clean_state;

    #[test]
    fn counters_and_gauges_round_trip() {
        with_clean_state(|| {
            counter("m.count").add(3);
            counter("m.count").inc();
            gauge("m.gauge").set(17);
            gauge("m.gauge").set_max(5); // below: no change
            assert_eq!(counter("m.count").get(), 4);
            assert_eq!(gauge("m.gauge").get(), 17);
        });
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        with_clean_state(|| {
            let h = histogram("m.hist");
            for v in [0u64, 1, 2, 3, 1024, u64::MAX] {
                h.record(v);
            }
            let snap = h.snapshot();
            assert_eq!(snap.count, 6);
            assert_eq!(snap.buckets[0], 1); // 0
            assert_eq!(snap.buckets[1], 1); // 1
            assert_eq!(snap.buckets[2], 2); // 2, 3
            assert_eq!(snap.buckets[11], 1); // 1024
            assert_eq!(snap.buckets[HIST_BUCKETS - 1], 1); // u64::MAX
        });
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        with_clean_state(|| {
            let h = histogram("m.quant");
            for _ in 0..99 {
                h.record(100); // bucket 7: [64, 128)
            }
            h.record(1 << 40);
            let snap = h.snapshot();
            assert_eq!(snap.p50, 128);
            assert!(snap.p99 >= 128);
        });
    }

    #[test]
    fn wrong_kind_panics() {
        with_clean_state(|| {
            counter("m.kind");
            let r = std::panic::catch_unwind(|| gauge("m.kind"));
            assert!(r.is_err());
        });
    }

    #[test]
    fn snapshot_value_carries_every_kind() {
        with_clean_state(|| {
            counter("json.count").add(2);
            gauge("json.gauge").set(9);
            histogram("json.hist").record(50);
            histogram("json.hist").record(51);
            let snap = MetricsSnapshot::collect().to_value();
            let at = |kind, name| Some(snap.get(kind)?.get(name)?.to_string());
            assert_eq!(at("counters", "json.count").as_deref(), Some("2"));
            assert_eq!(at("gauges", "json.gauge").as_deref(), Some("9"));
            // The mean is the exact quotient, not rounded for print.
            let hist = "{\"count\":2,\"sum\":101,\"mean\":50.5,\"p50\":51,\"p95\":51,\"p99\":51,\"max\":51}";
            assert_eq!(at("histograms", "json.hist").as_deref(), Some(hist));
        });
    }

    #[test]
    fn quantile_upper_bound_edge_cases() {
        // Empty histogram: every quantile is 0.
        assert_eq!(quantile_upper_bound(&[], 0.5), 0);
        assert_eq!(quantile_upper_bound(&[0; HIST_BUCKETS], 0.99), 0);
        // Single occupied bucket: every quantile lands in it.
        let mut one = vec![0u64; HIST_BUCKETS];
        one[7] = 42; // [64, 128)
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(quantile_upper_bound(&one, q), 128);
        }
        // Bucket 0 (zero samples) reports a bound of 0.
        let mut zeros = vec![0u64; HIST_BUCKETS];
        zeros[0] = 5;
        assert_eq!(quantile_upper_bound(&zeros, 0.99), 0);
        // Saturated last bucket: the bound caps at 1<<63, not overflow.
        let mut sat = vec![0u64; HIST_BUCKETS];
        sat[HIST_BUCKETS - 1] = 3;
        assert_eq!(quantile_upper_bound(&sat, 0.5), 1u64 << 63);
    }

    #[test]
    fn histogram_tracks_exact_max_and_p95() {
        with_clean_state(|| {
            let h = histogram("m.pmax");
            for _ in 0..96 {
                h.record(10); // bucket 4: [8, 16)
            }
            for _ in 0..4 {
                h.record(1000); // bucket 10: [512, 1024)
            }
            let snap = h.snapshot();
            assert_eq!(snap.max, 1000, "max is the exact sample, not a bound");
            assert_eq!(snap.p50, 16);
            assert_eq!(snap.p95, 16);
            // The p99 bucket bound is 1024, but quantiles are capped at
            // the exact max so a tail quantile never exceeds a sample
            // that was actually observed.
            assert_eq!(snap.p99, 1000);
        });
    }

    #[test]
    fn labeled_histograms_keep_series_apart() {
        with_clean_state(|| {
            histogram_labeled("m.lab_ns", "fingerprint", "aaaa").record(100);
            histogram_labeled("m.lab_ns", "fingerprint", "bbbb").record(1 << 20);
            histogram_labeled("m.lab_ns", "fingerprint", "aaaa").record(100);
            let snap = MetricsSnapshot::collect();
            let series: Vec<_> = snap
                .labeled
                .iter()
                .filter(|(n, _, _, _)| n == "m.lab_ns")
                .collect();
            assert_eq!(series.len(), 2);
            let by_val = |v: &str| series.iter().find(|(_, _, val, _)| val == v).unwrap();
            assert_eq!(by_val("aaaa").3.count, 2);
            assert_eq!(by_val("bbbb").3.max, 1 << 20);
            let histograms = snap.to_value();
            let histograms = histograms.get("histograms").unwrap();
            assert!(histograms.get("m.lab_ns{fingerprint=\"aaaa\"}").is_some());
        });
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        with_clean_state(|| {
            counter("prom.requests_total").add(7);
            gauge("prom.queue_depth").set(2);
            histogram("prom.request_ns").record(1500);
            histogram_labeled("prom.request_ns", "fingerprint", "1a2b").record(1500);
            let text = MetricsSnapshot::collect().to_prometheus();
            assert!(text.contains("# TYPE prom_requests_total counter\nprom_requests_total 7\n"));
            assert!(text.contains("# TYPE prom_queue_depth gauge\nprom_queue_depth 2\n"));
            // Quantiles are bucket bounds capped at the exact max.
            assert!(text.contains("prom_request_ns{quantile=\"0.5\"} 1500\n"));
            assert!(text.contains("prom_request_ns_count 1\n"));
            assert!(text.contains("prom_request_ns_sum 1500\n"));
            assert!(text.contains("prom_request_ns_max 1500\n"));
            assert!(text.contains("prom_request_ns{fingerprint=\"1a2b\",quantile=\"0.95\"} 1500\n"));
            assert!(text.contains("prom_request_ns_count{fingerprint=\"1a2b\"} 1\n"));
            // Exactly one TYPE line for the shared summary name.
            let types = text.matches("# TYPE prom_request_ns summary").count();
            assert_eq!(types, 1);
            // Every non-comment line is `name[{labels}] value`.
            for line in text.lines().filter(|l| !l.starts_with('#')) {
                let (name, value) = line.rsplit_once(' ').expect("sample line");
                assert!(!name.is_empty());
                assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
            }
        });
    }
}
