//! `mainline-common` — shared substrate for the mainline storage engine.
//!
//! This crate holds the primitive vocabulary types used by every other crate in
//! the workspace: raw and atomic bitmaps, the sign-bit timestamp encoding from
//! the paper (§3.1), reusable buffer-segment pools (§3.1 "undo buffers are a
//! linked list of fixed-sized segments"), the logical type system and runtime
//! values, a small deterministic RNG for workload generation, cache prefetch
//! hints, and the named engine profiles CI forces through `MAINLINE_PROFILE`.

pub mod bitmap;
pub mod error;
pub mod failpoint;
pub mod pool;
pub mod prefetch;
pub mod profile;
pub mod rng;
pub mod schema;
pub mod timestamp;
pub mod value;

pub use error::{Error, Result};
pub use profile::Profile;
pub use timestamp::Timestamp;
