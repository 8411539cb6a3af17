//! `mainline-obs`: the engine's sensor layer — named counters, gauges, and
//! log₂-bucketed histograms grouped into per-instance [`MetricSet`]s, one
//! [`MetricsRegistry`] per database that merges them into a
//! [`MetricsSnapshot`], plus a fixed-capacity structured [`EventRing`] for
//! tracing discrete occurrences (freezes, checkpoints, evictions, stalls, …).
//!
//! Design constraints, in order:
//!
//! 1. **The record path is lock-free and hash-free.** A metric is a field
//!    of the instance that records it; recording is one relaxed
//!    `fetch_add` on that field (two for histograms, which also accumulate
//!    a sum). Names are only ever touched at snapshot time.
//! 2. **Each metric is declared once.** [`metric_set!`] turns one line per
//!    metric — field, kind, name, help — into the struct, its constructor,
//!    and its [`MetricSet`] impl. An owner whose metrics include values it
//!    keeps for its own control logic (a queue's byte gauge, a budget)
//!    implements [`MetricSet`] itself and appends those at snapshot time.
//! 3. **Metrics are per database.** Each database's subsystems register
//!    their sets with that database's [`MetricsRegistry`], so one database
//!    never reports another's work. A snapshot merges the sets by name
//!    (two servers over one database report one `server_queries` row).
//! 4. **Counters and histograms are always on.** There is no compile-time
//!    feature gate; the `fig_obs` bench proves the always-on cost. A
//!    runtime [`set_stubbed`] flag exists solely so that bench can measure
//!    the instrumented-vs-stubbed delta inside one binary.
//! 5. **The event ring is opt-in and process-wide.** Recording an event
//!    takes a mutex, so the ring is gated behind [`set_events_enabled`]
//!    (driven by `DbConfig::observability`, which defaults to the engine
//!    profile's setting); when disabled, [`record_event`] is a single
//!    relaxed load. It is the one process-wide piece: its recorders (block
//!    evictions, fault-ins, connection events) hold no database handle.

#![warn(missing_docs)]

mod ring;

pub use ring::{Event, EventRing, RING_CAPACITY};

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
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

/// Bench-only stub flag: when set, every counter and histogram record call
/// returns after one relaxed load, without touching its atomics. This
/// exists so `fig_obs` can A/B the instrumented and stubbed-out hot paths
/// in a single binary; production code never sets it. Gauges ignore it: a
/// gauge is state (open connections), and skipping one half of an
/// `add`/`sub` pair would leave it wrong for good.
static STUBBED: AtomicBool = AtomicBool::new(false);

/// Set (or clear) the bench-only stub flag (see the module note above on
/// its invariants): this is a measurement tool, not a configuration knob.
/// While it is set, counters the engine reads back — the WAL byte count
/// that triggers checkpoints, the admission counts — stop moving too.
pub fn set_stubbed(on: bool) {
    STUBBED.store(on, Ordering::Relaxed);
}

#[inline(always)]
fn stubbed() -> bool {
    STUBBED.load(Ordering::Relaxed)
}

/// A monotonically increasing `u64` metric. Lives as a field of the
/// instance that records it (`const`-constructible, so a `static` works
/// too); the record path never hashes a name.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Define a counter.
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0) }
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
}

/// A signed instantaneous value (queue depths, resident bytes, …).
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Define a gauge.
    pub const fn new(name: &'static str) -> Self {
        Gauge { name, value: AtomicI64::new(0) }
    }

    /// Add `n` (may be negative).
    #[inline(always)]
    pub fn add(&self, n: i64) {
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
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
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
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// Define a histogram.
    pub const fn new(name: &'static str) -> Self {
        Histogram { name, sum: AtomicU64::new(0), buckets: [ZERO_BUCKET; HISTOGRAM_BUCKETS] }
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

// `Debug` shows the value alone, so a `metric_set!` struct debug-prints as
// `Set { field: value, … }`.
impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = self.snapshot();
        write!(f, "count={} sum={}", h.count, h.sum)
    }
}

/// A group of metrics one instance records — a log manager's, a server's,
/// a catalog's indexes'. Declare plain sets with [`metric_set!`]; the three
/// metric kinds are one-metric sets themselves.
pub trait MetricSet: Send + Sync {
    /// Append every metric of this set to `snap`, at its current value.
    fn collect(&self, snap: &mut MetricsSnapshot);
}

impl MetricSet for Counter {
    fn collect(&self, snap: &mut MetricsSnapshot) {
        snap.push_counter(self.name, self.get());
    }
}

impl MetricSet for Gauge {
    fn collect(&self, snap: &mut MetricsSnapshot) {
        snap.push_gauge(self.name, self.get());
    }
}

impl MetricSet for Histogram {
    fn collect(&self, snap: &mut MetricsSnapshot) {
        snap.push_histogram(self.name, self.snapshot());
    }
}

/// Declare a [`MetricSet`] struct with one line per metric:
///
/// ```
/// mainline_obs::metric_set! {
///     /// What a log manager records.
///     pub struct LogMetrics {
///         commits: Counter("wal_commits", "commits made durable"),
///         fsync_nanos: Histogram("wal_fsync_nanos", "flush+fsync latency"),
///     }
/// }
/// let m = LogMetrics::default();
/// m.commits.add(3);
/// let mut snap = mainline_obs::MetricsSnapshot::default();
/// mainline_obs::MetricSet::collect(&m, &mut snap);
/// assert_eq!(snap.counter("wal_commits"), Some(3));
/// ```
///
/// Each field is public, typed by its kind (`Counter`, `Gauge`, or
/// `Histogram`), and documented by its help text; `Default` builds the set
/// with every metric at zero, and `Debug` prints every value.
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $set:ident {
            $($field:ident: $kind:ident($name:literal, $help:literal)),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug)]
        $vis struct $set {
            $(#[doc = $help] pub $field: $crate::$kind,)*
        }

        impl ::core::default::Default for $set {
            fn default() -> Self {
                $set { $($field: $crate::$kind::new($name),)* }
            }
        }

        impl $crate::MetricSet for $set {
            fn collect(&self, snap: &mut $crate::MetricsSnapshot) {
                $($crate::MetricSet::collect(&self.$field, snap);)*
            }
        }
    };
}

/// One database's metrics: the sets its subsystems registered. A set stays
/// registered for the registry's lifetime, so counts of a stopped component
/// (a server that shut down) stay in every later snapshot.
#[derive(Default)]
pub struct MetricsRegistry {
    sets: Mutex<Vec<Arc<dyn MetricSet>>>,
}

impl MetricsRegistry {
    /// Register a set.
    pub fn add(&self, set: Arc<dyn MetricSet>) {
        self.sets.lock().push(set);
    }

    /// One point-in-time snapshot of every registered set, merged by name
    /// (counters and gauges add up, histograms add bucket by bucket) and
    /// sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for set in self.sets.lock().iter() {
            set.collect(&mut snap);
        }
        // Wrapping, like the atomics being summed.
        merge_by_name(&mut snap.counters, |a, b| *a = a.wrapping_add(b));
        merge_by_name(&mut snap.gauges, |a, b| *a = a.wrapping_add(b));
        merge_by_name(&mut snap.histograms, |a, b| {
            a.count = a.count.wrapping_add(b.count);
            a.sum = a.sum.wrapping_add(b.sum);
            a.buckets.iter_mut().zip(&b.buckets).for_each(|(x, y)| *x = x.wrapping_add(*y));
        });
        snap
    }
}

/// Sort `rows` by name and fold rows that share a name into one.
fn merge_by_name<T>(rows: &mut Vec<(String, T)>, merge: impl Fn(&mut T, T)) {
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let mut merged: Vec<(String, T)> = Vec::with_capacity(rows.len());
    for (name, value) in rows.drain(..) {
        match merged.last_mut() {
            Some((last, acc)) if *last == name => merge(acc, value),
            _ => merged.push((name, value)),
        }
    }
    *rows = merged;
}

static RING: OnceLock<EventRing> = OnceLock::new();

/// The process-wide event ring. It starts disabled; `Database::open` gates
/// it (see [`set_events_enabled`]).
pub fn ring() -> &'static EventRing {
    RING.get_or_init(|| EventRing::new(RING_CAPACITY, false))
}

/// Gate the event ring on or off (counters/histograms are unaffected).
pub fn set_events_enabled(on: bool) {
    ring().set_enabled(on);
}

/// Record a structured event (no-op unless the ring is enabled — one
/// relaxed load on the disabled path). `a`/`b` are kind-specific payloads,
/// documented on the [`kind`] constants.
#[inline]
pub fn record_event(kind: &'static str, a: u64, b: u64) {
    ring().record(kind, a, b);
}

/// Copy of the event ring's current contents, oldest first.
pub fn events_snapshot() -> Vec<Event> {
    ring().snapshot()
}

/// One point-in-time view of a registry's metrics, one row per name, sorted
/// by name (see [`MetricsRegistry::snapshot`]).
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Append a counter value (what [`MetricSet::collect`] does).
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

    /// Held by tests that assert exact counts, and by the one that flips
    /// the process-wide stub flag, so the flag never drops their records.
    static STUB_FLAG: Mutex<()> = Mutex::new(());

    metric_set! {
        /// A test set.
        struct TestSet {
            c: Counter("test_counter", "test"),
            g: Gauge("test_gauge", "test"),
            h: Histogram("test_hist", "test"),
        }
    }

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
    fn registry_snapshots_its_own_sets() {
        let _flag = STUB_FLAG.lock();
        let reg = MetricsRegistry::default();
        let set = Arc::new(TestSet::default());
        reg.add(set.clone());
        set.c.add(5);
        set.g.set(-3);
        set.h.observe(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("test_counter"), Some(5));
        assert_eq!(snap.gauge("test_gauge"), Some(-3));
        assert_eq!(snap.histogram("test_hist").unwrap().count, 1);
        // Another registry's sets are invisible here.
        let other = MetricsRegistry::default();
        other.add(Arc::new(TestSet::default()));
        assert_eq!(other.snapshot().counter("test_counter"), Some(0));
        // Display renders all three sections.
        let text = snap.to_string();
        assert!(text.contains("test_counter") && text.contains("test_hist"));
    }

    #[test]
    fn snapshot_merges_sets_by_name() {
        let _flag = STUB_FLAG.lock();
        let reg = MetricsRegistry::default();
        let (a, b) = (Arc::new(TestSet::default()), Arc::new(TestSet::default()));
        reg.add(a.clone());
        reg.add(b.clone());
        a.c.add(2);
        b.c.add(3);
        a.g.set(4);
        b.g.set(-1);
        a.h.observe(10);
        b.h.observe(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counters().len(), 1, "one row per name");
        assert_eq!(snap.counter("test_counter"), Some(5));
        assert_eq!(snap.gauge("test_gauge"), Some(3));
        let h = snap.histogram("test_hist").unwrap();
        assert_eq!((h.count, h.sum), (2, 1010));
        assert_eq!(h.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn quantiles_bracket_observations() {
        let _flag = STUB_FLAG.lock();
        static Q: Histogram = Histogram::new("q_hist");
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
        let _flag = STUB_FLAG.lock();
        static S: Counter = Counter::new("stub_counter");
        S.inc();
        set_stubbed(true);
        S.inc();
        set_stubbed(false);
        S.inc();
        assert_eq!(S.get(), 2);
    }
}
