//! `mainline-txn` — the multi-versioned delta-store transaction engine
//! (paper §3.1).
//!
//! Design recap:
//!
//! * Version chains are **newest-to-oldest lists of undo records** (physical
//!   before-images) hanging off the hidden version-pointer column; deltas
//!   live in per-transaction undo buffers, *outside* Arrow storage.
//! * Timestamps come from one global counter; a running transaction's id is
//!   its start timestamp with the sign bit flipped, so uncommitted versions
//!   lose every unsigned comparison against start timestamps.
//! * Readers copy the latest version and apply before-images until they reach
//!   a visible record. A version-pointer double-check detects racing
//!   installs; the abort protocol (restore, then re-publish the record with a
//!   committed timestamp) repairs readers that copied an aborted version
//!   without unlinking anything — dodging the A-B-A race of §3.1.
//! * Write-write conflicts are disallowed: the chain head acts as the
//!   tuple's write lock until its owner finishes.

pub mod data_table;
pub mod ddl;
pub mod manager;
pub mod redo;
pub mod transaction;
pub mod undo;

pub use data_table::{DataTable, FaultHandler};
pub use ddl::{CreateTableDdl, DdlRecord, IndexDef};
pub use manager::{CommitSink, TransactionManager, TxnMetrics};
pub use transaction::Transaction;
pub use undo::{UndoKind, UndoRecordRef};
