//! `mainline-obs`: the engine's sensor layer — a process-wide
//! [`MetricsRegistry`] of named counters, gauges, and log₂-bucketed
//! histograms, plus a fixed-capacity structured [`EventRing`] for tracing
//! discrete occurrences (freezes, checkpoints, evictions, stalls, …).
//!
//! Design constraints, in order:
//!
//! 1. **The record path is lock-free and hash-free.** Metrics are `static`
//!    items with `const` constructors; hot paths hold a `&'static` handle
//!    and recording is one relaxed `fetch_add` (two for histograms, which
//!    also accumulate a sum). Names are only ever touched at registration
//!    and snapshot time.
//! 2. **Counters and histograms are always on.** There is no compile-time
//!    feature gate; the `fig_obs` bench proves the always-on cost. A
//!    runtime [`set_stubbed`] flag exists solely so that bench can measure
//!    the instrumented-vs-stubbed delta inside one binary.
//! 3. **The event ring is opt-in.** Recording an event takes a mutex, so
//!    the ring is gated behind [`set_events_enabled`] (driven by
//!    `DbConfig::observability`, which defaults to the engine profile's
//!    setting); when disabled, [`record_event`] is a single relaxed load.
//!
//! The registry is process-global: subsystem constructors (`LogManager`,
//! `TransformCoordinator`, `Database`, `Server`) register their statics
//! once, and every snapshot sees the union. Per-instance stats (e.g. a
//! server's byte counters) join through dynamic [`MetricsRegistry::
//! register_source`] callbacks, which is how `Database::metrics_snapshot`
//! absorbs the pre-existing ad-hoc stats structs without hand-duplication.

#![warn(missing_docs)]

mod ring;

pub use ring::{Event, EventRing, RING_CAPACITY};

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Well-known event kinds recorded by the engine's instrumented paths.
/// Free-form kinds are also accepted — these constants just keep the
/// cross-crate spelling consistent.
pub mod kind {
    /// A cooling block completed phase 2 (`a` = live bytes, `b` = nanos).
    pub const FREEZE: &str = "transform.freeze";
    /// A checkpoint was published (`a` = checkpoint ts, `b` = nanos).
    pub const CHECKPOINT: &str = "checkpoint.publish";
    /// A chain-compaction pass ran (`a` = generations, `b` = nanos).
    pub const COMPACTION: &str = "checkpoint.compaction";
    /// A frozen block's body was released (`a` = bytes).
    pub const EVICTION: &str = "buffer.evict";
    /// An evicted block was faulted back in (`a` = bytes, `b` = nanos).
    pub const FAULT_IN: &str = "buffer.fault";
    /// A writer entered a hard-watermark stall (`a` = pending bytes).
    pub const STALL_ENTER: &str = "admission.stall.enter";
    /// A stalled writer resumed (`a` = stalled nanos, `b` = pending bytes).
    pub const STALL_EXIT: &str = "admission.stall.exit";
    /// The server accepted a connection (`a` = open connections).
    pub const CONN_OPEN: &str = "server.conn.open";
    /// A connection died on a protocol error.
    pub const CONN_ERROR: &str = "server.conn.error";
}

/// Bench-only stub flag: when set, every counter/gauge/histogram record
/// call returns after one relaxed load, without touching its atomics. This
/// exists so `fig_obs` can A/B the instrumented and stubbed-out hot paths
/// in a single binary; production code never sets it.
static STUBBED: AtomicBool = AtomicBool::new(false);

/// Set (or clear) the bench-only stub flag (see the module note above on
/// its invariants): this is a measurement tool, not a configuration knob.
pub fn set_stubbed(on: bool) {
    STUBBED.store(on, Ordering::Relaxed);
}

#[inline(always)]
fn stubbed() -> bool {
    STUBBED.load(Ordering::Relaxed)
}

/// A monotonically increasing `u64` metric. `const`-constructible so hot
/// paths can hold `&'static Counter` handles and never hash a name.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Define a counter (usually as a `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter { name, help, value: AtomicU64::new(0) }
    }

    /// Add 1. One relaxed `fetch_add`.
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. One relaxed `fetch_add`.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if stubbed() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description.
    pub fn help(&self) -> &'static str {
        self.help
    }
}

/// A signed instantaneous value (queue depths, resident bytes, …).
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Define a gauge (usually as a `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge { name, help, value: AtomicI64::new(0) }
    }

    /// Add `n` (may be negative).
    #[inline(always)]
    pub fn add(&self, n: i64) {
        if stubbed() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline(always)]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Overwrite the value.
    #[inline(always)]
    pub fn set(&self, n: i64) {
        if stubbed() {
            return;
        }
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description.
    pub fn help(&self) -> &'static str {
        self.help
    }
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, up to `i = 64` for values with the top
/// bit set. Power-of-two bucketing keeps the record path at a
/// `leading_zeros` plus one `fetch_add` — no binary search, no config.
pub const HISTOGRAM_BUCKETS: usize = 65;

// A `const` initializer is exactly what the array-repeat below needs: each
// bucket gets its own fresh atomic (the "interior mutability" a shared
// `static` would wrongly alias is the point of the repeat).
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_BUCKET: AtomicU64 = AtomicU64::new(0);

/// A log₂-bucketed histogram. Observation cost: one `leading_zeros` and two
/// relaxed `fetch_add`s (bucket + sum). Count is derived from the bucket
/// totals, so "bucket sum == observation count" holds by construction — the
/// concurrency proptest pins it anyway.
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// Define a histogram (usually as a `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Histogram { name, help, sum: AtomicU64::new(0), buckets: [ZERO_BUCKET; HISTOGRAM_BUCKETS] }
    }

    /// Record one observation.
    #[inline(always)]
    pub fn observe(&self, v: u64) {
        if stubbed() {
            return;
        }
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration, in nanoseconds. (Histograms whose name ends in
    /// `_nanos` are rendered as human time by the text report.)
    #[inline(always)]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos() as u64);
    }

    /// The bucket an observation lands in.
    #[inline(always)]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, …).
    pub fn bucket_lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Point-in-time copy of the bucket totals and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot { count, sum: self.sum.load(Ordering::Relaxed), buckets }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations (sum of all buckets).
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Bucket totals, [`HISTOGRAM_BUCKETS`] entries (see
    /// [`Histogram::bucket_lower_bound`] for the scale).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observed values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile: the lower bound of the bucket containing the
    /// `q`-th ranked observation (so `p50`/`p99` are within one power of
    /// two of the true value — plenty for a latency report).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_lower_bound(i);
            }
        }
        Histogram::bucket_lower_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Lower bound of the highest non-empty bucket (≈ max observation).
    pub fn max_bound(&self) -> u64 {
        self.buckets.iter().rposition(|&n| n > 0).map(Histogram::bucket_lower_bound).unwrap_or(0)
    }
}

/// A statically-registered metric handle, as stored by the registry.
#[derive(Clone, Copy)]
pub enum Metric {
    /// A [`Counter`].
    Counter(&'static Counter),
    /// A [`Gauge`].
    Gauge(&'static Gauge),
    /// A [`Histogram`].
    Histogram(&'static Histogram),
}

impl Metric {
    fn addr(&self) -> usize {
        match self {
            Metric::Counter(c) => *c as *const Counter as usize,
            Metric::Gauge(g) => *g as *const Gauge as usize,
            Metric::Histogram(h) => *h as *const Histogram as usize,
        }
    }
}

type SourceFn = Box<dyn Fn(&mut MetricsSnapshot) + Send + Sync>;

/// The process-wide registry: statically-registered metric handles, dynamic
/// snapshot sources, and the event ring. Obtain it with [`registry`].
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Metric>>,
    sources: Mutex<Vec<(u64, SourceFn)>>,
    next_source_id: AtomicU64,
    ring: EventRing,
}

impl MetricsRegistry {
    fn new(events_enabled: bool) -> Self {
        MetricsRegistry {
            metrics: Mutex::new(Vec::new()),
            sources: Mutex::new(Vec::new()),
            next_source_id: AtomicU64::new(1),
            ring: EventRing::new(RING_CAPACITY, events_enabled),
        }
    }

    /// Register static metric handles. Idempotent per handle (re-registering
    /// the same `static` is a no-op), so subsystem constructors can call
    /// this unconditionally.
    pub fn register(&self, metrics: &[Metric]) {
        let mut reg = self.metrics.lock();
        for m in metrics {
            if !reg.iter().any(|r| r.addr() == m.addr()) {
                reg.push(*m);
            }
        }
    }

    /// Register a dynamic snapshot source: a callback that appends
    /// per-instance values (e.g. one server's stats) to every snapshot.
    /// The source lives until the returned handle is dropped.
    pub fn register_source(
        &self,
        source: impl Fn(&mut MetricsSnapshot) + Send + Sync + 'static,
    ) -> SourceHandle {
        let id = self.next_source_id.fetch_add(1, Ordering::Relaxed);
        self.sources.lock().push((id, Box::new(source)));
        SourceHandle { id }
    }

    fn unregister_source(&self, id: u64) {
        self.sources.lock().retain(|(sid, _)| *sid != id);
    }

    /// One coherent point-in-time snapshot of every registered metric and
    /// source, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for m in self.metrics.lock().iter() {
            match m {
                Metric::Counter(c) => snap.push_counter(c.name(), c.get()),
                Metric::Gauge(g) => snap.push_gauge(g.name(), g.get()),
                Metric::Histogram(h) => snap.push_histogram(h.name(), h.snapshot()),
            }
        }
        for (_, src) in self.sources.lock().iter() {
            src(&mut snap);
        }
        snap.sort();
        snap
    }

    /// The process-wide event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }
}

/// RAII handle for a dynamic snapshot source; dropping it unregisters the
/// source (so a stopped server's stats stop appearing in snapshots).
pub struct SourceHandle {
    id: u64,
}

impl Drop for SourceHandle {
    fn drop(&mut self) {
        if let Some(reg) = REGISTRY.get() {
            reg.unregister_source(self.id);
        }
    }
}

static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide [`MetricsRegistry`]. Its event ring starts disabled;
/// `Database::open` gates it (see [`set_events_enabled`]).
pub fn registry() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(|| MetricsRegistry::new(false))
}

/// Gate the event ring on or off (counters/histograms are unaffected).
pub fn set_events_enabled(on: bool) {
    registry().ring().set_enabled(on);
}

/// Whether the event ring is currently recording.
pub fn events_enabled() -> bool {
    registry().ring().enabled()
}

/// Record a structured event (no-op unless the ring is enabled — one
/// relaxed load on the disabled path). `a`/`b` are kind-specific payloads,
/// documented on the [`kind`] constants.
#[inline]
pub fn record_event(kind: &'static str, a: u64, b: u64) {
    registry().ring().record(kind, a, b);
}

/// Copy of the event ring's current contents, oldest first.
pub fn events_snapshot() -> Vec<Event> {
    registry().ring().snapshot()
}

/// One coherent point-in-time view of every metric, plus whatever the
/// dynamic sources appended. `Database::metrics_snapshot` extends this with
/// aliases of its per-instance stats structs before returning it.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Append a counter value (used by dynamic sources and stats aliases).
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }

    /// Append a gauge value.
    pub fn push_gauge(&mut self, name: &str, value: i64) {
        self.gauges.push((name.to_string(), value));
    }

    /// Append a histogram snapshot.
    pub fn push_histogram(&mut self, name: &str, h: HistogramSnapshot) {
        self.histograms.push((name.to_string(), h));
    }

    /// Sort all three sections by name (call after appending aliases so the
    /// text report and virtual table stay deterministic).
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// All counters, `(name, value)`, in sorted order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges, `(name, value)`, in sorted order.
    pub fn gauges(&self) -> &[(String, i64)] {
        &self.gauges
    }

    /// All histograms, `(name, snapshot)`, in sorted order.
    pub fn histograms(&self) -> &[(String, HistogramSnapshot)] {
        &self.histograms
    }

    /// Compact single-line report of the named metrics, in the order given
    /// (absent names are skipped). Benches print this per cell.
    pub fn one_line(&self, names: &[&str]) -> String {
        let mut parts = Vec::new();
        for &n in names {
            if let Some(v) = self.counter(n) {
                parts.push(format!("{n}={v}"));
            } else if let Some(v) = self.gauge(n) {
                parts.push(format!("{n}={v}"));
            } else if let Some(h) = self.histogram(n) {
                parts.push(format!(
                    "{n}[n={} p50={} p99={}]",
                    h.count,
                    fmt_metric_value(n, h.quantile(0.50)),
                    fmt_metric_value(n, h.quantile(0.99)),
                ));
            }
        }
        parts.join(" ")
    }
}

/// Render a value with a time unit when the metric name says it carries
/// nanoseconds, raw otherwise.
fn fmt_metric_value(name: &str, v: u64) -> String {
    if name.ends_with("_nanos") {
        fmt_nanos(v)
    } else {
        v.to_string()
    }
}

/// Human formatting for nanosecond magnitudes (`1.5us`, `2.3ms`, `4.0s`).
pub fn fmt_nanos(v: u64) -> String {
    match v {
        0..=999 => format!("{v}ns"),
        1_000..=999_999 => format!("{:.1}us", v as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", v as f64 / 1e6),
        _ => format!("{:.1}s", v as f64 / 1e9),
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== mainline metrics ==")?;
        for (n, v) in &self.counters {
            writeln!(f, "counter    {n:<40} {v}")?;
        }
        for (n, v) in &self.gauges {
            writeln!(f, "gauge      {n:<40} {v}")?;
        }
        for (n, h) in &self.histograms {
            writeln!(
                f,
                "histogram  {n:<40} count={} mean={} p50={} p99={} max~{}",
                h.count,
                fmt_metric_value(n, h.mean()),
                fmt_metric_value(n, h.quantile(0.50)),
                fmt_metric_value(n, h.quantile(0.99)),
                fmt_metric_value(n, h.max_bound()),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static C: Counter = Counter::new("test_counter", "test");
    static G: Gauge = Gauge::new("test_gauge", "test");
    static H: Histogram = Histogram::new("test_hist", "test");

    #[test]
    fn bucket_math() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let lo = Histogram::bucket_lower_bound(i);
            assert_eq!(Histogram::bucket_index(lo), i);
        }
    }

    #[test]
    fn registry_roundtrip_and_idempotent_registration() {
        let reg = registry();
        reg.register(&[Metric::Counter(&C), Metric::Gauge(&G), Metric::Histogram(&H)]);
        reg.register(&[Metric::Counter(&C)]); // no duplicate
        C.add(5);
        G.set(-3);
        H.observe(1000);
        let snap = reg.snapshot();
        assert!(snap.counter("test_counter").unwrap() >= 5);
        assert_eq!(snap.gauge("test_gauge"), Some(-3));
        let h = snap.histogram("test_hist").unwrap();
        assert!(h.count >= 1);
        assert_eq!(
            snap.counters().iter().filter(|(n, _)| n == "test_counter").count(),
            1,
            "re-registration must not duplicate"
        );
        // Display renders all three sections.
        let text = snap.to_string();
        assert!(text.contains("test_counter") && text.contains("test_hist"));
    }

    #[test]
    fn sources_append_and_unregister_on_drop() {
        let reg = registry();
        let handle = reg.register_source(|s| s.push_counter("source_metric", 7));
        assert_eq!(reg.snapshot().counter("source_metric"), Some(7));
        drop(handle);
        assert_eq!(reg.snapshot().counter("source_metric"), None);
    }

    #[test]
    fn quantiles_bracket_observations() {
        static Q: Histogram = Histogram::new("q_hist", "test");
        for v in [10u64, 20, 30, 40, 1000] {
            Q.observe(v);
        }
        let s = Q.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1100);
        assert!(s.quantile(0.5) <= 30 && s.quantile(0.5) >= 8);
        assert!(s.max_bound() <= 1000 && s.max_bound() >= 512);
        assert_eq!(s.mean(), 220);
    }

    #[test]
    fn stub_flag_suppresses_recording() {
        static S: Counter = Counter::new("stub_counter", "test");
        S.inc();
        set_stubbed(true);
        S.inc();
        set_stubbed(false);
        S.inc();
        assert_eq!(S.get(), 2);
    }
}
