//! Process-global metrics owned by the index layer.
//!
//! The optimistic protocol's health is invisible from outside — a tree that
//! restarts every descent still returns right answers, just slowly — so the
//! restart and fallback counters are the only way to see contention.
//! Recording discipline (the 5 % `fig_obs` budget):
//!
//! * restarts/fallbacks are bumped only on the *slow* path (a restart or a
//!   locked scan), never on the straight-through descent;
//! * lookup latency is sampled 1-in-8 per thread, so seven of eight point
//!   probes (`get`, `seek_prefix`) carry zero metrics work.

use mainline_obs::{Counter, Histogram, Metric};

/// Optimistic descents that failed validation and restarted (reads and
/// writes both count; one descent can restart several times).
pub static INDEX_DESCENT_RESTARTS: Counter = Counter::new(
    "index_descent_restarts",
    "optimistic index descents that failed version validation and restarted",
);

/// Leaf captures during range scans that gave up on the optimistic path
/// and took the leaf latch (the scan fallback that must not restart).
pub static INDEX_SCAN_FALLBACKS: Counter = Counter::new(
    "index_scan_fallbacks",
    "range-scan leaf captures that fell back to the locked path",
);

/// Point-lookup latency, sampled 1-in-8 per thread.
pub static INDEX_LOOKUP_NANOS: Histogram =
    Histogram::new("index_lookup_nanos", "sampled point-lookup latency (1-in-8 per thread)");

/// Start a point-probe timing for [`INDEX_LOOKUP_NANOS`] on one call in
/// eight per thread; `None` on the other seven.
#[inline]
pub(crate) fn lookup_sample() -> Option<std::time::Instant> {
    use std::cell::Cell;
    thread_local! {
        static LOOKUP_TICK: Cell<u8> = const { Cell::new(0) };
    }
    let sampled = LOOKUP_TICK.with(|c| {
        let n = c.get().wrapping_add(1);
        c.set(n);
        n & 7 == 0
    });
    sampled.then(std::time::Instant::now)
}

/// Record a timing started by [`lookup_sample`] (no-op for `None`).
#[inline]
pub(crate) fn lookup_done(t0: Option<std::time::Instant>) {
    if let Some(t0) = t0 {
        INDEX_LOOKUP_NANOS.observe_duration(t0.elapsed());
    }
}

/// Register this crate's metrics with the global registry (idempotent).
pub(crate) fn register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        mainline_obs::registry().register(&[
            Metric::Counter(&INDEX_DESCENT_RESTARTS),
            Metric::Counter(&INDEX_SCAN_FALLBACKS),
            Metric::Histogram(&INDEX_LOOKUP_NANOS),
        ]);
    });
}
