//! The metric registry a [`Recorder`](crate::Recorder) owns: counters,
//! gauges, and fixed-bucket histograms, plus the completed-span buffer
//! the NDJSON exporter drains.
//!
//! Every mutating entry point acts on the calling thread's current
//! recorder and returns at once when it has none — no registry is even
//! touched. Hot paths that would otherwise contend on the recorder's
//! mutex accumulate into a [`LocalHistogram`] (a plain array of
//! integers) and merge once per run via [`merge_histogram`].

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::recorder::{current_or_held, with_current};
use crate::span::SpanEvent;

/// Number of fixed histogram buckets.
pub const NUM_BUCKETS: usize = 64;
/// Exponent offset: bucket `i` spans `[2^(i-OFFSET), 2^(i-OFFSET+1))`.
const OFFSET: i32 = 32;
/// Upper bound on buffered span events (drops are counted in
/// `obs.spans_dropped`).
const MAX_SPANS: usize = 65_536;

/// Bucket index for a value: base-2 exponential buckets covering
/// `[2^-32, 2^32)`; zero, negatives, and underflows land in bucket 0,
/// overflows in the last bucket. Derived from the IEEE-754 exponent, so
/// it is exact and branch-cheap.
#[inline]
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    if v == f64::INFINITY {
        // +∞ is an overflow, not an underflow: it belongs in the last
        // bucket (the raw exponent 0x7ff would otherwise be shared with
        // NaN payloads and must not reach the arithmetic below).
        return NUM_BUCKETS - 1;
    }
    // Raw biased exponent. For normal values `2^e <= v < 2^(e+1)`; for
    // subnormals the biased exponent is 0, so `e = -1023` and the clamp
    // below lands them in bucket 0 (underflow) instead of wrapping.
    let e = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    (e + OFFSET).clamp(0, NUM_BUCKETS as i32 - 1) as usize
}

/// Inclusive upper bound of bucket `i` (the histogram's `le` edge).
#[inline]
pub fn bucket_upper(i: usize) -> f64 {
    f64::powi(2.0, i as i32 - OFFSET + 1)
}

/// Lower edge of bucket `i` (`0.0` for the underflow bucket, which also
/// absorbs zeros and negatives).
#[inline]
pub fn bucket_lower(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        bucket_upper(i - 1)
    }
}

/// A fixed-bucket histogram (base-2 exponential buckets).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; NUM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0.0 when empty).
    pub min: f64,
    /// Largest observed value (0.0 when empty).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

impl Histogram {
    /// Record one observation. Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.buckets[bucket_index(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): locate the bucket holding
    /// the `ceil(q·count)`-th observation and interpolate linearly by
    /// rank inside it, treating each of the bucket's `c` observations as
    /// sitting at the midpoint of its 1/c sub-slice. The estimate is
    /// clamped to the observed `[min, max]`, and ranks 1 and `count` are
    /// exactly `min` and `max`, which keeps point masses exact; otherwise
    /// the error is bounded by the owning bucket's width.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if target == 1 {
            return self.min;
        }
        if target == self.count {
            return self.max;
        }
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lower = bucket_lower(i);
                let upper = bucket_upper(i);
                let frac = (((target - cum) as f64) - 0.5) / c as f64;
                let est = lower + (upper - lower) * frac.clamp(0.0, 1.0);
                return est.clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A thread/run-local histogram for hot paths: recording is an array
/// increment with no locking; [`merge_histogram`] publishes it in one
/// registry operation at the end of the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LocalHistogram(Histogram);

impl LocalHistogram {
    /// An empty local histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (no locking, never blocks).
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.0.record(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count
    }
}

#[derive(Clone, Debug, Default)]
pub(crate) struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    pub(crate) spans: Vec<SpanEvent>,
}

impl Registry {
    /// Buffer a completed span event.
    pub(crate) fn push_span(&mut self, event: SpanEvent) {
        if self.spans.len() >= MAX_SPANS {
            *self.counters.entry("obs.spans_dropped".into()).or_insert(0) += 1;
            return;
        }
        self.spans.push(event);
    }

    /// Record one observation into the named histogram.
    pub(crate) fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Add `other`'s counters and histograms to this registry's, and
    /// take over its gauges.
    pub(crate) fn merge(&mut self, other: Registry) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        self.gauges.extend(other.gauges);
        for (name, h) in other.histograms {
            self.histograms.entry(name).or_default().merge(&h);
        }
    }
}

/// Add `delta` to the named counter. No-op without a recorder.
pub fn counter_add(name: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    with_current(|r| *r.counters.entry(name.to_string()).or_insert(0) += delta);
}

/// Set the named gauge. Non-finite values are ignored. No-op without a
/// recorder.
pub fn gauge_set(name: &str, v: f64) {
    if !v.is_finite() {
        return;
    }
    with_current(|r| {
        r.gauges.insert(name.to_string(), v);
    });
}

/// Record one observation into the named histogram. No-op without a
/// recorder.
pub fn observe(name: &str, v: f64) {
    with_current(|r| r.observe(name, v));
}

/// Merge a [`LocalHistogram`] into the named histogram. No-op without a
/// recorder or when the local histogram is empty.
pub fn merge_histogram(name: &str, local: &LocalHistogram) {
    if local.0.count == 0 {
        return;
    }
    with_current(|r| {
        r.histograms
            .entry(name.to_string())
            .or_default()
            .merge(&local.0)
    });
}

/// Completed spans the current recorder holds, in completion order
/// (empty without one).
pub fn spans() -> Vec<SpanEvent> {
    current_or_held().map(|r| r.spans()).unwrap_or_default()
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// One counter in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: String,
    /// Last set value.
    pub value: f64,
}

/// One non-empty histogram bucket: `count` observations `<= le`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSnap {
    /// Inclusive upper edge of the bucket.
    pub le: f64,
    /// Observations in this bucket.
    pub count: u64,
}

/// One histogram in a [`Snapshot`], with pre-computed quantiles and
/// only its non-empty buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistSnap {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Non-empty buckets, in ascending edge order.
    pub buckets: Vec<BucketSnap>,
}

/// A point-in-time copy of the registry, name-sorted throughout, ready
/// for the manifest / NDJSON exporter.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnap>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnap>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistSnap>,
}

impl Snapshot {
    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Snapshot the current recorder (an empty snapshot without one).
pub fn snapshot() -> Snapshot {
    current_or_held().map(|r| r.snapshot()).unwrap_or_default()
}

impl Registry {
    /// A name-sorted copy of every metric.
    pub(crate) fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &value)| CounterSnap {
                name: name.clone(),
                value,
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(name, &value)| GaugeSnap {
                name: name.clone(),
                value,
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| HistSnap {
                name: name.clone(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                p50: h.quantile(0.50),
                p90: h.quantile(0.90),
                p99: h.quantile(0.99),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &count)| BucketSnap {
                        le: bucket_upper(i),
                        count,
                    })
                    .collect(),
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_exact_powers_of_two() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1.0), OFFSET as usize);
        assert_eq!(bucket_index(1.5), OFFSET as usize);
        assert_eq!(bucket_index(2.0), OFFSET as usize + 1);
        assert_eq!(bucket_index(0.5), OFFSET as usize - 1);
        assert_eq!(bucket_index(f64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(1e-300), 0);
        // Exponent-extraction edge cases: zeros of both signs, the
        // smallest subnormal, the smallest normal, and negative
        // subnormals must all clamp to bucket 0 rather than wrap
        // (sub-microsecond per-candidate timings hit this range).
        assert_eq!(bucket_index(-0.0), 0);
        assert_eq!(bucket_index(5e-324), 0); // min positive subnormal
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), 0); // subnormal
        assert_eq!(bucket_index(f64::MIN_POSITIVE), 0); // 2^-1022, underflow
        assert_eq!(bucket_index(-5e-324), 0);
        // Infinities: +∞ is an overflow (last bucket), -∞ is negative
        // (bucket 0). NaN stays in bucket 0.
        assert_eq!(bucket_index(f64::INFINITY), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(f64::NEG_INFINITY), 0);
        // Every value falls strictly below its bucket's upper edge.
        for v in [1e-9, 0.003, 0.7, 1.0, 42.0, 1e6] {
            assert!(v <= bucket_upper(bucket_index(v)), "{v}");
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            h.record(v);
        }
        h.record(f64::INFINITY); // ignored
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 22.0).abs() < 1e-12);
        // p50 falls in the bucket of 2.0/3.0 ([2,4)): edge 4.0.
        assert!(h.quantile(0.5) <= 4.0);
        assert!(h.quantile(0.99) >= 64.0);
        assert!(h.quantile(1.0) <= h.max);

        let mut other = Histogram::default();
        other.record(0.25);
        h.merge(&other);
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0.25);
    }

    #[test]
    fn extreme_ranks_are_exactly_min_and_max() {
        // 0 sits in the lowest bucket, whose midpoint is not 0.
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(2.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 2.0);
        assert_eq!(h.quantile(1.0), 2.0);

        let mut single = Histogram::default();
        single.record(3.7);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 3.7, "q={q}");
        }
    }

    /// Exact quantile of a sorted sample: the `ceil(q·n)`-th order
    /// statistic (the definition the histogram estimator approximates).
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    #[test]
    fn interpolated_quantiles_track_exact_values_on_synthetic_data() {
        // Uniform ramp 1..=1000: the estimate must land within the
        // owning base-2 bucket of the exact order statistic.
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = exact_quantile(&values, q);
            let est = h.quantile(q);
            let (lo, hi) = (
                bucket_lower(bucket_index(exact)),
                bucket_upper(bucket_index(exact)),
            );
            assert!(
                est >= lo && est <= hi,
                "q={q}: estimate {est} outside bucket [{lo}, {hi}] of exact {exact}"
            );
            // Interpolation must beat the old upper-edge answer: strictly
            // inside the bucket, not pinned to its edge.
            assert!(
                est < hi,
                "q={q}: estimate {est} stuck at the bucket edge {hi}"
            );
        }

        // A point mass is exact regardless of interpolation.
        let mut point = Histogram::default();
        for _ in 0..37 {
            point.record(3.25);
        }
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(point.quantile(q), 3.25, "point mass must be exact at q={q}");
        }

        // Two spikes: low quantiles sit on the low spike, high on the
        // high spike, clamped to observed values.
        let mut spikes = Histogram::default();
        for _ in 0..90 {
            spikes.record(1.0);
        }
        for _ in 0..10 {
            spikes.record(1000.0);
        }
        let p50 = spikes.quantile(0.5);
        assert!((1.0..2.0).contains(&p50), "p50 = {p50}");
        let p99 = spikes.quantile(0.99);
        assert!((512.0..=1000.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn recording_without_a_recorder_is_a_no_op() {
        counter_add("x.count", 3);
        gauge_set("x.gauge", 1.0);
        observe("x.hist", 2.0);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn recorded_metrics_snapshot_sorted() {
        let rec = crate::Recorder::new();
        let snap = {
            let _obs = rec.install();
            counter_add("b.two", 2);
            counter_add("a.one", 1);
            counter_add("a.one", 4);
            gauge_set("g", 2.5);
            gauge_set("bad", f64::NAN); // ignored
            observe("h", 3.0);
            observe("h", 3.0);
            let mut local = LocalHistogram::new();
            local.record(7.0);
            merge_histogram("h", &local);
            snapshot()
        };
        assert_eq!(snap, rec.snapshot());

        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a.one", "b.two"]);
        assert_eq!(snap.counter("a.one"), Some(5));
        assert_eq!(snap.gauge("g"), Some(2.5));
        assert_eq!(snap.gauge("bad"), None);
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert!((h.sum - 13.0).abs() < 1e-12);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), 3);
    }
}
