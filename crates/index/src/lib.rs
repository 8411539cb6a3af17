//! `mainline-index` — a concurrent ordered index substrate.
//!
//! The paper's system uses the OpenBw-Tree for all indexes (§6.1). What the
//! experiments actually require from the index is: a thread-safe ordered map
//! from memcmp-comparable composite keys to `TupleSlot`s, with unique-insert
//! (for constraint checks), point lookup, deletion, and range scans (TPC-C's
//! ORDER_LINE and NEW_ORDER access paths). This crate provides that as a
//! B+-tree with **optimistic lock coupling**: versioned per-node latches
//! ([`latch::VersionLatch`]), latch-free reader descents that validate and
//! restart on conflict, preemptive splits, head-truncated key prefixes in
//! node slots, and a locked fallback path for scans — plus a composite-key
//! encoder that preserves ordering under byte comparison. Contention health
//! is visible through the `index_descent_restarts` / `index_scan_fallbacks`
//! counters and the sampled `index_lookup_nanos` histogram of each tree's
//! [`IndexMetrics`] (a database's catalog shares one set across its trees).
//!
//! # Example
//!
//! ```
//! use mainline_index::{BPlusTree, KeyBuilder};
//!
//! let index: BPlusTree<u64> = BPlusTree::new();
//! for i in 0..100i64 {
//!     let key = KeyBuilder::new().add_i64(i).add_bytes(b"row").finish();
//!     assert!(index.insert_unique(&key, i as u64));
//! }
//! let probe = KeyBuilder::new().add_i64(42).add_bytes(b"row").finish();
//! assert_eq!(index.get(&probe), Some(42));
//!
//! // Encoded byte order equals logical order, so range scans work on the
//! // encoded form (TPC-C's ORDER_LINE access path).
//! let lo = KeyBuilder::new().add_i64(10).finish();
//! let hi = KeyBuilder::new().add_i64(20).finish();
//! assert_eq!(index.range_collect(&lo, Some(&hi), usize::MAX).len(), 10);
//! ```

pub mod bptree;
pub mod key;
pub mod latch;
mod obs;

pub use bptree::{BPlusTree, IndexValue, Probe, PROBE_GROUP};
pub use key::{KeyBuf, KeyBuilder};
pub use obs::IndexMetrics;
