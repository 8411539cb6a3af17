//! `mainline-transform` — the lightweight block transformation of paper §4.
//!
//! The relaxed format lets transactions update blocks cheaply; this crate
//! moves *cold* blocks back into canonical Arrow:
//!
//! 1. the [`access_observer`] finds blocks untouched for a threshold number
//!    of GC epochs (§4.2),
//! 2. the **compaction** phase transactionally shuffles tuples to make a
//!    compaction group logically contiguous, freeing emptied blocks (§4.3
//!    phase 1) in a transaction that yields to user writers — the
//!    coordinator plans with the approximate block-selection algorithm; the
//!    optimal one is kept for the Fig. 13 comparison,
//! 3. the **gathering** phase takes the multi-stage cooling→freezing lock
//!    and copies variable-length values into contiguous Arrow buffers in
//!    place (§4.3 phase 2), or into a dictionary-compressed alternative
//!    format (§4.4),
//! 4. [`baselines`] implements the two comparison algorithms of §6.2
//!    (Snapshot and transactional In-Place) for the Figure 12 experiments.
//!
//! Steps 1–3 are driven by the [`coordinator`], one work pool: workers claim
//! each registered table's phase-1 sweep once per GC epoch, share one
//! cooling queue for phase 2, and a measured pending-bytes gauge feeds
//! backpressure/admission control (§4.4 "Scaling Transformation").

#![warn(missing_docs)]

pub mod access_observer;
pub mod baselines;
pub mod compaction;
pub mod coordinator;
pub mod dictionary;
pub mod gather;
pub mod pipeline;

pub use access_observer::AccessObserver;
pub use compaction::{CompactionPlan, TupleMoveStats};
pub use coordinator::{BackpressureLevel, TransformCoordinator, TransformMetrics};
pub use pipeline::{MoveHook, NoopHook, TransformConfig, TransformFormat};
