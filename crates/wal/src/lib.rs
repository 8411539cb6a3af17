//! `mainline-wal` — write-ahead logging and recovery (paper §3.4).
//!
//! * Each transaction writes its physical after-images into its redo buffer
//!   as log frames, in place (layout: [`mainline_txn::redo`]); at commit the
//!   buffer lands on the log manager's flush queue. A transaction manager
//!   without a log records no redo at all.
//! * The log thread stamps the commit timestamp into the frames, writes them
//!   as they are after the transaction's DDL frames and before its commit
//!   frame, group-fsyncs, and then invokes the per-transaction durability
//!   callbacks; the DBMS withholds results from clients until then.
//! * Records are ordered by commit timestamp, not LSN: the commit critical
//!   section already serializes the hand-off.
//! * Read-only transactions obtain a commit record too (to close the
//!   speculative-read anomaly) but it is acknowledged without being written.
//! * **Logical DDL rides the same path**: `CREATE TABLE`/`DROP TABLE`
//!   records (schema + catalog id + index definitions) are staged on the
//!   transaction, group-committed, and timestamp-ordered with data, so the
//!   log is self-describing — a tail referencing a table created after the
//!   last checkpoint replays without outside help.
//! * Recovery replays committed transactions in commit-timestamp order with
//!   a slot-remapping table (physical slots change across restarts), applying
//!   DDL through a pluggable [`DdlReplayer`].
//! * The log is split into size-bounded **segments**: the active file rotates
//!   into an archive (named after its last commit timestamp) once it exceeds
//!   [`LogManagerConfig::segment_bytes`], and a completed checkpoint lets
//!   [`segments::truncate_below`] drop every archive wholly below the
//!   checkpoint timestamp — restart cost becomes proportional to the WAL
//!   *tail*, not to history.

#![warn(missing_docs)]

pub mod log_manager;
pub mod record;
pub mod recovery;
pub mod segments;

pub use log_manager::{LogManager, LogManagerConfig, WalMetrics};
pub use record::{LogEntry, LogPayload};
pub use recovery::{recover, recover_from, BareDdlReplayer, DdlReplayer, NoDdl, RecoveryStats};
