//! Backpressure-driven admission control (paper §4.4).
//!
//! The transformation pipeline must keep pace with the OLTP write rate or
//! cold data accumulates unconverted and Arrow-export latency degrades.
//! PR 2 built the pending-bytes gauge; this module closes the control loop:
//! worker → gauge → admission. Every `mainline-db` write entry point
//! ([`TableHandle`](crate::TableHandle) insert/update/delete) and the TPC-C
//! driver consult [`AdmissionController::admit`], which applies a graduated
//! response keyed off [`TransformConfig::backpressure_bytes`]:
//!
//! * **below the soft watermark** (half the hard one) — no-op;
//! * **between soft and hard** — one cooperative [`yield_now`]; the
//!   transformation workers also shorten their idle cadence (the "hurry"
//!   hint in `Database`'s worker loop);
//! * **above the hard watermark** — block until the gauge drops back under
//!   it, bounded by [`TransformConfig::stall_timeout`]. The bound matters:
//!   a writer parked mid-transaction may itself hold the open transaction
//!   whose versions keep the cooling queue from draining, so unbounded
//!   blocking could deadlock the loop. After one stall the thread enters a
//!   cool-down window during which it only yields, so a large multi-row
//!   transaction pays at most one stall per window instead of one per row.
//!
//! A zero hard watermark disables admission control entirely.
//!
//! [`yield_now`]: std::thread::yield_now
//! [`TransformConfig::backpressure_bytes`]: mainline_transform::TransformConfig::backpressure_bytes
//! [`TransformConfig::stall_timeout`]: mainline_transform::TransformConfig::stall_timeout

use mainline_obs::{MetricSet, MetricsSnapshot};
use mainline_transform::TransformCoordinator;
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a stalled writer re-reads the gauge.
const STALL_POLL: Duration = Duration::from_micros(100);

/// Stall cool-down: after a stall, the same thread is exempt from further
/// stalls for this many stall-timeouts (it still yields).
const COOLDOWN_TIMEOUTS: u32 = 4;

thread_local! {
    /// `(controller identity, cooldown end)` — keyed by controller address
    /// so one database's stall cannot suppress (or pollute the stall
    /// statistics of) another database written by the same thread.
    static STALL_COOLDOWN: Cell<(usize, Option<Instant>)> = const { Cell::new((0, None)) };
}

/// Outcome of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Gauge at or below the soft watermark (or admission control
    /// disabled): proceed at full speed.
    Admitted,
    /// Gauge between the watermarks (or this thread is in its post-stall
    /// cool-down): the caller yielded once.
    Yielded,
    /// Gauge above the hard watermark: the caller blocked until it dropped
    /// or the stall timeout expired.
    Stalled,
}

/// Aggregate admission statistics for one database, exposed through
/// `Database::admission_stats`.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdmissionStats {
    /// Cooperative yields taken between the watermarks.
    pub yield_count: u64,
    /// Bounded blocks taken at the hard watermark.
    pub stall_count: u64,
    /// Total wall-clock nanoseconds writers spent stalled.
    pub stalled_nanos: u64,
    /// Highest value the pending-bytes gauge ever reached (from the
    /// coordinator; bounded to the hard watermark plus at most one block's
    /// measured bytes per worker).
    pub pending_high_water: usize,
}

mainline_obs::metric_set! {
    /// What an admission controller records. The controller itself is the
    /// registered [`MetricSet`]: it adds the pipeline's pending-bytes
    /// high-water mark as `admission_pending_high_water`.
    struct AdmissionMetrics {
        yields: Counter("admission_yields", "cooperative yields between the watermarks"),
        stalls: Counter("admission_stalls", "bounded writer stalls at the hard watermark"),
        stalled_nanos: Counter("admission_stalled_nanos", "total nanoseconds writers stalled"),
        stall_nanos:
            Histogram("admission_stall_nanos", "bounded writer stall at the hard watermark"),
    }
}

/// Per-database admission controller. Cheap to consult: a disabled
/// controller or a gauge under the soft watermark costs one atomic load.
pub struct AdmissionController {
    pipeline: Option<Arc<TransformCoordinator>>,
    soft: usize,
    hard: usize,
    stall_timeout: Duration,
    metrics: AdmissionMetrics,
}

impl AdmissionController {
    /// Build a controller over the database's transformation pipeline (its
    /// watermarks and stall timeout come from the pipeline's
    /// [`TransformConfig`](mainline_transform::TransformConfig)). `None`
    /// yields a disabled controller that admits everything.
    pub(crate) fn new(pipeline: Option<Arc<TransformCoordinator>>) -> Self {
        let (soft, hard, stall_timeout) = match &pipeline {
            Some(p) => {
                let c = p.config();
                (c.soft_backpressure_bytes(), c.backpressure_bytes, c.stall_timeout)
            }
            None => (0, 0, Duration::ZERO),
        };
        AdmissionController {
            pipeline,
            soft,
            hard,
            stall_timeout,
            metrics: AdmissionMetrics::default(),
        }
    }

    /// A controller that admits everything (no pipeline).
    pub fn disabled() -> Self {
        Self::new(None)
    }

    /// True when admission control is active: a pipeline exists and the
    /// hard watermark is non-zero.
    pub fn enabled(&self) -> bool {
        self.hard != 0 && self.pipeline.is_some()
    }

    /// One admission decision for the calling writer (see the module docs
    /// for the graduated response).
    pub fn admit(&self) -> Admission {
        let Some(pipeline) = &self.pipeline else { return Admission::Admitted };
        if self.hard == 0 {
            return Admission::Admitted;
        }
        let pending = pipeline.pending_bytes();
        if pending <= self.soft {
            return Admission::Admitted;
        }
        if pending <= self.hard {
            return self.yield_once();
        }
        // Hard watermark. Threads that just stalled only yield for a while:
        // stalling a multi-row transaction on every row would both multiply
        // the latency and hold its version-chain entries open — the very
        // thing that keeps the cooling queue from draining.
        let start = Instant::now();
        let me = self as *const AdmissionController as usize;
        let (owner, until) = STALL_COOLDOWN.with(|c| c.get());
        if owner == me && until.is_some_and(|t| start < t) {
            return self.yield_once();
        }
        mainline_obs::record_event(mainline_obs::kind::STALL_ENTER, pending as u64, 0);
        let deadline = start + self.stall_timeout;
        loop {
            std::thread::sleep(STALL_POLL);
            let now = Instant::now();
            if pipeline.pending_bytes() <= self.hard || now >= deadline {
                break;
            }
        }
        let stalled = start.elapsed();
        self.metrics.stalls.inc();
        self.metrics.stalled_nanos.add(stalled.as_nanos() as u64);
        self.metrics.stall_nanos.observe_duration(stalled);
        mainline_obs::record_event(
            mainline_obs::kind::STALL_EXIT,
            pipeline.pending_bytes() as u64,
            stalled.as_nanos() as u64,
        );
        STALL_COOLDOWN
            .with(|c| c.set((me, Some(Instant::now() + self.stall_timeout * COOLDOWN_TIMEOUTS))));
        Admission::Stalled
    }

    fn yield_once(&self) -> Admission {
        self.metrics.yields.inc();
        std::thread::yield_now();
        Admission::Yielded
    }

    /// Aggregate statistics (the high-water mark comes from the pipeline's
    /// gauge; zero when transformation is disabled).
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            yield_count: self.metrics.yields.get(),
            stall_count: self.metrics.stalls.get(),
            stalled_nanos: self.metrics.stalled_nanos.get(),
            pending_high_water: self.pipeline.as_ref().map(|p| p.pending_high_water()).unwrap_or(0),
        }
    }
}

impl MetricSet for AdmissionController {
    fn collect(&self, snap: &mut MetricsSnapshot) {
        self.metrics.collect(snap);
        snap.push_gauge("admission_pending_high_water", self.stats().pending_high_water as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_controller_admits_everything() {
        let c = AdmissionController::disabled();
        assert!(!c.enabled());
        for _ in 0..100 {
            assert_eq!(c.admit(), Admission::Admitted);
        }
        let s = c.stats();
        assert_eq!(
            (s.yield_count, s.stall_count, s.stalled_nanos, s.pending_high_water),
            (0, 0, 0, 0)
        );
    }
}
