//! Fixed-capacity structured event ring: a bounded trace of discrete
//! occurrences (freeze completed, checkpoint published, eviction, stall
//! entered, …), each stamped with a monotonic timestamp and a small
//! payload. The ring is for *rare* events, so a mutex-protected `VecDeque`
//! is fine; the cost that matters is the **disabled** path, which is one
//! relaxed load (see the `observed` profile / `DbConfig::observability`).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Default ring capacity (events, not bytes). Oldest entries are dropped
/// first; `dropped` counts them so a reader can tell the trace is partial.
pub const RING_CAPACITY: usize = 4096;

/// One recorded occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (never reused, survives wraparound).
    pub seq: u64,
    /// Microseconds since the ring was created (monotonic clock).
    pub micros: u64,
    /// Event kind — see [`crate::kind`] for the engine's vocabulary.
    pub kind: &'static str,
    /// Kind-specific payload (bytes, timestamps, nanos, …).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

struct Inner {
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Event>,
}

/// The bounded event trace. One per process: see [`ring`](crate::ring).
pub struct EventRing {
    enabled: AtomicBool,
    capacity: usize,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl EventRing {
    /// Build a ring with the given capacity and initial enablement.
    pub fn new(capacity: usize, enabled: bool) -> Self {
        EventRing {
            enabled: AtomicBool::new(enabled),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            inner: Mutex::new(Inner { next_seq: 0, dropped: 0, buf: VecDeque::new() }),
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Existing entries are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record one event. No-op (one relaxed load) while disabled.
    #[inline]
    pub fn record(&self, kind: &'static str, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        // Read the clock under the lock, so timestamps are monotonic in
        // sequence order even when a recorder is preempted mid-call.
        let micros = self.epoch.elapsed().as_micros() as u64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(Event { seq, micros, kind, a, b });
    }

    /// Copy of the current contents, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// Events recorded since creation (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_records_nothing() {
        let r = EventRing::new(8, false);
        r.record("x", 1, 2);
        assert!(r.snapshot().is_empty());
        assert_eq!(r.recorded(), 0);
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let r = EventRing::new(4, true);
        for i in 0..10 {
            r.record("tick", i, 0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(r.dropped(), 6);
        // Oldest-first, dense sequence numbers, monotonic timestamps.
        assert_eq!(snap.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert!(snap.windows(2).all(|w| w[0].micros <= w[1].micros));
        assert_eq!(snap.last().unwrap().a, 9);
    }

    #[test]
    fn toggling_keeps_existing_entries() {
        let r = EventRing::new(8, true);
        r.record("a", 0, 0);
        r.set_enabled(false);
        r.record("b", 0, 0);
        assert_eq!(r.snapshot().len(), 1);
        r.set_enabled(true);
        r.record("c", 0, 0);
        assert_eq!(r.snapshot().len(), 2);
    }
}
