//! A named metrics registry: counters, gauges, and log-bucketed
//! histograms, with one snapshot API rendered as Prometheus text
//! exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones
//! around atomics — registration takes the registry lock once, updates
//! are lock-free. Series are keyed by `(name, sorted labels)`;
//! registering the same key twice returns the same underlying series,
//! so scrape-time re-registration is idempotent.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Metric family kind, mirrored into the Prometheus `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value that can go up or down.
    Gauge,
    /// Distribution over log-spaced buckets with sum and count.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
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
}

/// A gauge handle (stores an `f64` in atomic bits).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistCore {
    /// Upper bounds of the finite buckets, strictly increasing. One
    /// extra implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, accumulated as `f64` bits under CAS.
    sum_bits: AtomicU64,
}

/// A histogram handle over log-spaced (or caller-provided) buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.0.bounds.partition_point(|b| v > *b);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let _ = self.0.sum_bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            Some((f64::from_bits(bits) + v).to_bits())
        });
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

/// Returns `count` log-spaced bucket bounds starting at `start`,
/// multiplying by `factor` each step.
pub fn exp_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0, "exp_buckets needs start > 0, factor > 1");
    let mut v = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        v.push(b);
        b *= factor;
    }
    v
}

/// Default log-spaced bounds for latency-in-seconds histograms:
/// 100 µs … ~26 s, doubling per bucket.
pub fn latency_buckets() -> Vec<f64> {
    exp_buckets(1e-4, 2.0, 18)
}

enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    kind: Kind,
    help: String,
    /// Keyed by the rendered label set (`label="v",…`), empty string
    /// for the unlabelled series. BTreeMap keeps exposition sorted.
    series: BTreeMap<String, (Vec<(String, String)>, Series)>,
}

/// The registry: a named set of metric families.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn label_key(labels: &[(&str, &str)]) -> (String, Vec<(String, String)>) {
    let mut sorted: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    sorted.sort();
    let key = sorted
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label_value(v)))
        .collect::<Vec<_>>()
        .join(",");
    (key, sorted)
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(fam.kind == kind, "metric {name} registered as {:?} and {:?}", fam.kind, kind);
        let (key, sorted) = label_key(labels);
        let (_, series) = fam.series.entry(key).or_insert_with(|| (sorted, make()));
        series.dup()
    }

    /// Registers (or fetches) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or fetches) a counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, Kind::Counter, labels, || {
            Series::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or fetches) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or fetches) a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, Kind::Gauge, labels, || {
            Series::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or fetches) an unlabelled histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Registers (or fetches) a histogram with labels. `bounds` is
    /// only consulted on first registration of the series.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.series(name, help, Kind::Histogram, labels, || {
            let mut buckets = Vec::with_capacity(bounds.len() + 1);
            for _ in 0..=bounds.len() {
                buckets.push(AtomicU64::new(0));
            }
            Series::Histogram(Histogram(Arc::new(HistCore {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })))
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Takes a point-in-time snapshot of every family and series.
    pub fn snapshot(&self) -> Snapshot {
        let fams = self.families.lock().unwrap();
        let mut families = Vec::with_capacity(fams.len());
        for (name, fam) in fams.iter() {
            let mut series = Vec::with_capacity(fam.series.len());
            for (_, (labels, s)) in fam.series.iter() {
                let value = match s {
                    Series::Counter(c) => SeriesValue::Counter(c.get()),
                    Series::Gauge(g) => SeriesValue::Gauge(g.get()),
                    Series::Histogram(h) => {
                        let mut cumulative = Vec::with_capacity(h.0.bounds.len() + 1);
                        let mut acc = 0u64;
                        for (i, b) in h.0.bounds.iter().enumerate() {
                            acc += h.0.buckets[i].load(Ordering::Relaxed);
                            cumulative.push((*b, acc));
                        }
                        acc += h.0.buckets[h.0.bounds.len()].load(Ordering::Relaxed);
                        cumulative.push((f64::INFINITY, acc));
                        SeriesValue::Histogram {
                            buckets: cumulative,
                            sum: h.sum(),
                            count: h.count(),
                        }
                    }
                };
                series.push(SeriesSnapshot { labels: labels.clone(), value });
            }
            families.push(FamilySnapshot {
                name: name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                series,
            });
        }
        Snapshot { families }
    }
}

impl Series {
    fn dup(&self) -> Series {
        match self {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }
}

/// A point-in-time copy of the registry's contents.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Families sorted by name.
    pub families: Vec<FamilySnapshot>,
}

/// One metric family in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Family name (e.g. `fmsa_http_requests_total`).
    pub name: String,
    /// Help text for the `# HELP` line.
    pub help: String,
    /// Family kind.
    pub kind: Kind,
    /// Series sorted by label set.
    pub series: Vec<SeriesSnapshot>,
}

/// One labelled series within a family.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Sorted label pairs (may be empty).
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SeriesValue,
}

/// Sampled value of one series.
#[derive(Debug, Clone)]
pub enum SeriesValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram: cumulative `(upper_bound, count)` pairs ending with
    /// `+Inf`, plus sum and total count.
    Histogram {
        /// Cumulative bucket counts by upper bound.
        buckets: Vec<(f64, u64)>,
        /// Sum of observations.
        sum: f64,
        /// Total observation count (equals the `+Inf` bucket).
        count: u64,
    },
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`,
/// newline → `\n`).
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{}", v)
    }
}

fn labels_text(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{}=\"{}\"", k, escape_label_value(v))).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{}=\"{}\"", k, escape_label_value(&v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Snapshot {
    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4), suitable for `GET /metrics`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            out.push_str(&format!("# HELP {} {}\n", fam.name, escape_help(&fam.help)));
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.as_str()));
            for s in &fam.series {
                match &s.value {
                    SeriesValue::Counter(v) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            fam.name,
                            labels_text(&s.labels, None),
                            v
                        ));
                    }
                    SeriesValue::Gauge(v) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            fam.name,
                            labels_text(&s.labels, None),
                            fmt_value(*v)
                        ));
                    }
                    SeriesValue::Histogram { buckets, sum, count } => {
                        for (bound, cum) in buckets {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                fam.name,
                                labels_text(&s.labels, Some(("le", fmt_value(*bound)))),
                                cum
                            ));
                        }
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            fam.name,
                            labels_text(&s.labels, None),
                            fmt_value(*sum)
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            fam.name,
                            labels_text(&s.labels, None),
                            count
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
        let r = Registry::new();
        r.counter_with("esc_total", "h", &[("path", "a\"b\\c\nd")]).inc();
        let text = r.snapshot().render_prometheus();
        assert!(
            text.contains(r#"esc_total{path="a\"b\\c\nd"} 1"#),
            "escaped series line missing from:\n{text}"
        );
        // The rendered line must stay a single exposition line.
        let series_line = text.lines().find(|l| l.starts_with("esc_total{")).unwrap();
        assert!(series_line.ends_with(" 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "h", &latency_buckets());
        let observed = [0.00005, 0.0002, 0.0002, 0.01, 1.5, 100.0];
        for v in observed {
            h.observe(v);
        }
        let snap = r.snapshot();
        let fam = &snap.families[0];
        let SeriesValue::Histogram { buckets, sum, count } = &fam.series[0].value else {
            panic!("expected a histogram");
        };
        assert_eq!(*count, 6);
        assert!((sum - observed.iter().sum::<f64>()).abs() < 1e-9);
        // Cumulative counts never decrease, bounds strictly increase,
        // and the +Inf bucket equals the total count.
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_cum = 0;
        for (bound, cum) in buckets {
            assert!(*bound > prev_bound, "bounds not increasing");
            assert!(*cum >= prev_cum, "cumulative count decreased");
            prev_bound = *bound;
            prev_cum = *cum;
        }
        let (last_bound, last_cum) = buckets.last().unwrap();
        assert!(last_bound.is_infinite());
        assert_eq!(*last_cum, *count);
        // 100.0 is past the largest finite bound (~26 s): only +Inf
        // holds all six.
        let (_, largest_finite) = buckets[buckets.len() - 2];
        assert_eq!(largest_finite, 5);
        // Exposition renders one _bucket line per bound, le="+Inf" last,
        // then _sum and _count.
        let text = snap.render_prometheus();
        let bucket_lines: Vec<&str> =
            text.lines().filter(|l| l.starts_with("lat_seconds_bucket{")).collect();
        assert_eq!(bucket_lines.len(), buckets.len());
        assert!(bucket_lines.last().unwrap().contains(r#"le="+Inf""#));
        assert!(text.contains("lat_seconds_count 6"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
    }

    #[test]
    fn registration_is_idempotent_and_series_sorted() {
        let r = Registry::new();
        r.counter_with("req_total", "h", &[("route", "/b"), ("status", "200")]).inc();
        // Same key, different label order: must hit the same series.
        r.counter_with("req_total", "h", &[("status", "200"), ("route", "/b")]).inc();
        r.counter_with("req_total", "h", &[("route", "/a"), ("status", "200")]).add(5);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains(r#"req_total{route="/b",status="200"} 2"#), "got:\n{text}");
        let a = text.find(r#"route="/a""#).unwrap();
        let b = text.find(r#"route="/b""#).unwrap();
        assert!(a < b, "series not sorted by label set");
        // HELP/TYPE precede the first series line.
        assert!(text.find("# HELP req_total").unwrap() < a);
    }

    #[test]
    fn gauge_formatting_covers_integers_and_specials() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(0.25), "0.25");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
    }
}
