//! The index layer's metrics.
//!
//! The optimistic protocol's health is invisible from outside — a tree that
//! restarts every descent still returns right answers, just slowly — so the
//! restart and fallback counters are the only way to see contention.
//! Recording discipline (the 5 % `fig_obs` budget):
//!
//! * restarts/fallbacks are bumped only on the *slow* path (a restart or a
//!   locked scan), never on the straight-through descent;
//! * lookup latency is sampled 1-in-8 per thread, so seven of eight point
//!   probes (`get`, `seek_prefix`, a `probe_many` group) carry zero metrics
//!   work.

use mainline_obs::Histogram;
use std::time::Instant;

mainline_obs::metric_set! {
    /// What a set of trees records. A tree built with
    /// [`BPlusTree::new`](crate::BPlusTree::new) has a set of its own; a
    /// database's catalog shares one set across all its trees
    /// ([`BPlusTree::with_metrics`](crate::BPlusTree::with_metrics)), so
    /// the counts outlive a dropped table.
    pub struct IndexMetrics {
        descent_restarts:
            Counter("index_descent_restarts", "optimistic descents that failed validation"),
        scan_fallbacks:
            Counter("index_scan_fallbacks", "scan leaf captures that fell back to the leaf latch"),
        lookup_nanos:
            Histogram("index_lookup_nanos", "sampled point-lookup latency (1-in-8 per thread)"),
    }
}

/// Start a point-probe timing for `index_lookup_nanos` on one call in
/// eight per thread; `None` on the other seven.
#[inline]
pub(crate) fn lookup_sample() -> Option<Instant> {
    use std::cell::Cell;
    thread_local! {
        static LOOKUP_TICK: Cell<u8> = const { Cell::new(0) };
    }
    let sampled = LOOKUP_TICK.with(|c| {
        let n = c.get().wrapping_add(1);
        c.set(n);
        n & 7 == 0
    });
    sampled.then(Instant::now)
}

/// Record a timing started by [`lookup_sample`] (no-op for `None`).
#[inline]
pub(crate) fn lookup_done(h: &Histogram, t0: Option<Instant>) {
    if let Some(t0) = t0 {
        h.observe_duration(t0.elapsed());
    }
}

/// Record a timing of `keys` probes made together, as the time per key.
#[inline]
pub(crate) fn lookup_done_each(h: &Histogram, t0: Option<Instant>, keys: usize) {
    if let Some(t0) = t0 {
        h.observe_duration(t0.elapsed() / keys as u32);
    }
}
