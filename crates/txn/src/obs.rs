//! Process-global metrics owned by the transaction layer.
//!
//! The write counter is deliberately **not** bumped per row: a `lock`-prefixed
//! RMW on every insert costs more than the 5 % observability budget on the
//! uncontended write path (`fig_obs`). Instead the per-transaction write-set
//! size — already tracked by the undo buffer — is flushed with one `add` at
//! commit, so the per-row path carries no metrics work at all.

use mainline_obs::{Counter, Histogram, Metric};

/// Rows written (insert / update / delete) by committed transactions,
/// process-wide. Flushed once per commit from the undo-buffer length;
/// aborted transactions' writes are not counted.
pub static DB_WRITES: Counter =
    Counter::new("db_writes", "rows written by committed transactions (any database)");

/// Time a user `begin` waited behind a closed compaction gate (recorded
/// only when it waited; see `TransactionManager::commit_alone`).
pub static TXN_GATE_WAIT_NANOS: Histogram =
    Histogram::new("txn_gate_wait_nanos", "user begin wait behind a compaction commit's gate");

/// Time each compaction commit kept the gate on user `begin`s closed.
pub static TXN_GATE_CLOSED_NANOS: Histogram =
    Histogram::new("txn_gate_closed_nanos", "time a compaction commit held user begins back");

/// Register this crate's metrics with the global registry (idempotent).
pub(crate) fn register() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        mainline_obs::registry().register(&[
            Metric::Counter(&DB_WRITES),
            Metric::Histogram(&TXN_GATE_WAIT_NANOS),
            Metric::Histogram(&TXN_GATE_CLOSED_NANOS),
        ]);
    });
}
