//! The transaction manager: begin / commit / abort (paper §3.1, §3.4).

use crate::ddl::DdlRecord;
use crate::transaction::{backoff, Role, Transaction, TxnOutcome};
use crossbeam::queue::SegQueue;
use mainline_common::pool::SegmentPool;
use mainline_common::timestamp::{Timestamp, TimestampOracle};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest [`TransactionManager::commit_alone`] keeps user `begin`s
/// waiting.
pub const GATE_DRAIN: Duration = Duration::from_millis(1);

/// Where committed transactions' redo buffers go (the log manager's flush
/// queue, §3.4). The sink must eventually invoke `callback` once the commit
/// record is durable; the DBMS withholds results from the client until then.
pub trait CommitSink: Send + Sync {
    /// Queue a transaction's redo frames — and any logical DDL it staged —
    /// for flushing. `redo` holds whole frames in log layout with a zero
    /// commit timestamp (see [`crate::redo`]); the sink stamps `commit_ts`
    /// into them. DDL records are serialized before the redo frames of the
    /// same commit so replay applies catalog changes first.
    ///
    /// `read_only` transactions also obtain a commit record "to guard
    /// against the anomaly" of speculative reads, but the sink may skip
    /// writing it to disk.
    fn queue_commit(
        &self,
        commit_ts: Timestamp,
        redo: Vec<u8>,
        ddl: Vec<DdlRecord>,
        read_only: bool,
        callback: Box<dyn FnOnce() + Send>,
    );
}

mainline_obs::metric_set! {
    /// What the transaction manager records. The write counter is
    /// deliberately **not** bumped per row: a `lock`-prefixed RMW on every
    /// insert costs more than the 5 % observability budget on the
    /// uncontended write path (`fig_obs`). Instead each commit flushes its
    /// write-set size — already tracked by the undo buffer — with one `add`,
    /// so the per-row path carries no metrics work; aborted writes are not
    /// counted. The gate histograms time [`TransactionManager::commit_alone`].
    pub struct TxnMetrics {
        db_writes: Counter("db_writes", "rows written by committed transactions of this database"),
        gate_wait_nanos:
            Histogram("txn_gate_wait_nanos", "user begin wait behind a compaction commit's gate"),
        gate_closed_nanos:
            Histogram("txn_gate_closed_nanos", "time a compaction commit held user begins back"),
    }
}

/// Creates, tracks, commits, and aborts transactions.
pub struct TransactionManager {
    oracle: TimestampOracle,
    /// Start timestamps of running transactions (for the GC's oldest-active
    /// computation, §3.3), each marked whether it is a user transaction
    /// (for [`Self::commit_alone`]).
    active: Mutex<BTreeMap<u64, bool>>,
    /// Finished transactions awaiting garbage collection.
    completed: SegQueue<Arc<Transaction>>,
    /// The §3.1 "small critical section" serializing commits.
    commit_latch: Mutex<()>,
    /// Shared undo segment pool.
    pool: Arc<SegmentPool>,
    /// Log hand-off; `None` when logging is off, and then no transaction
    /// records redo.
    sink: Option<Arc<dyn CommitSink>>,
    /// Closed while [`Self::commit_alone`] drains; a user `begin` waits it
    /// out.
    gate_closed: AtomicBool,
    /// Where user `begin`s park while the gate is closed. The gate reopens
    /// under `gate_parking`'s mutex, then wakes every parked begin (the
    /// parking_lot shim has no condition variable, so this is `std`'s).
    /// The mutex guards no data, so a poisoned lock is still safe to use.
    gate_parking: std::sync::Mutex<()>,
    gate_reopened: std::sync::Condvar,
    metrics: Arc<TxnMetrics>,
}

impl TransactionManager {
    /// Manager with logging disabled: commits are durable at once and no
    /// transaction records redo.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Manager wired to a log manager.
    pub fn with_sink(sink: Arc<dyn CommitSink>) -> Self {
        Self::build(Some(sink))
    }

    fn build(sink: Option<Arc<dyn CommitSink>>) -> Self {
        TransactionManager {
            oracle: TimestampOracle::new(),
            active: Mutex::new(BTreeMap::new()),
            completed: SegQueue::new(),
            commit_latch: Mutex::new(()),
            pool: Arc::new(SegmentPool::default()),
            sink,
            gate_closed: AtomicBool::new(false),
            gate_parking: std::sync::Mutex::new(()),
            gate_reopened: std::sync::Condvar::new(),
            metrics: Arc::default(),
        }
    }

    /// This manager's metrics (the database registers them).
    pub fn metrics(&self) -> &Arc<TxnMetrics> {
        &self.metrics
    }

    /// The shared timestamp oracle (GC epochs draw from the same order).
    pub fn oracle(&self) -> &TimestampOracle {
        &self.oracle
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Arc<Transaction> {
        self.begin_as(Role::User)
    }

    /// Begin a transaction that only reads (a checkpoint's anchor, an
    /// export, a scan); it panics if it writes. A tuple move cannot
    /// conflict with it, so it never waits at the compaction gate and
    /// compaction commits while it runs (see [`Self::commit_alone`]).
    pub fn begin_read_only(&self) -> Arc<Transaction> {
        self.begin_as(Role::ReadOnly)
    }

    /// Begin a transaction that gives way to user writers — the §4.3
    /// compaction transaction. A user write that meets one of its
    /// uncommitted records asks it to yield and waits for the rollback
    /// instead of failing, so it must poll [`Transaction::yield_requested`]
    /// and abort. Commit it with [`Self::commit_alone`].
    pub fn begin_yielding(&self) -> Arc<Transaction> {
        self.begin_as(Role::Yielding)
    }

    fn begin_as(&self, role: Role) -> Arc<Transaction> {
        let user = role == Role::User;
        let mut waiting_since = None;
        let start = loop {
            // Take the latch so a concurrent committer cannot observe a
            // state where our start timestamp is drawn but not yet
            // registered (the GC would then compute too-new an "oldest
            // active" bound), and so `commit_alone` sees every user begin
            // either registered or behind its gate.
            {
                let _guard = self.commit_latch.lock();
                if !user || !self.gate_closed.load(Ordering::Acquire) {
                    let start = self.oracle.next();
                    self.active.lock().insert(start.0, user);
                    break start;
                }
            }
            waiting_since.get_or_insert_with(Instant::now);
            self.wait_for_gate();
        };
        if let Some(since) = waiting_since {
            self.metrics.gate_wait_nanos.observe_duration(since.elapsed());
        }
        Arc::new(Transaction::new(start, Arc::clone(&self.pool), role, self.sink.is_some()))
    }

    /// Park until [`Self::commit_alone`] reopens the gate. The gate flag is
    /// read under `gate_parking`, and `reopen_gate` clears it under the same
    /// mutex before notifying, so a wake-up cannot slip in between the check
    /// and the wait.
    fn wait_for_gate(&self) {
        let mut parked = self.gate_parking.lock().unwrap_or_else(|e| e.into_inner());
        while self.gate_closed.load(Ordering::Acquire) {
            parked = self.gate_reopened.wait(parked).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Reopen the gate and wake every parked user `begin`.
    fn reopen_gate(&self) {
        {
            let _parked = self.gate_parking.lock().unwrap_or_else(|e| e.into_inner());
            self.gate_closed.store(false, Ordering::Release);
        }
        self.gate_reopened.notify_all();
    }

    /// Start timestamp of the oldest running user transaction (not
    /// read-only, not yielding).
    pub fn oldest_user_start(&self) -> Option<Timestamp> {
        self.active.lock().iter().find(|(_, &user)| user).map(|(&ts, _)| Timestamp(ts))
    }

    /// Commit `txn` while no user transaction runs, so none that could
    /// still write on a snapshot older than `txn`'s writes overlaps its
    /// commit (§4.3: a tuple compaction moved must never turn out deleted
    /// under a user transaction that began before the move committed).
    /// Read-only and other yielding transactions do not count.
    ///
    /// First, with user `begin`s flowing, waits until every user
    /// transaction that was running when `txn` began has finished. Then
    /// closes a gate on new user `begin`s, waits up to [`GATE_DRAIN`] for
    /// the rest (those began while `txn` ran) to finish, runs
    /// `before_commit`, commits, and reopens the gate. So a user `begin`
    /// waits at most about [`GATE_DRAIN`], and the gate never closes behind
    /// a long-running user transaction. A transaction that wrote nothing
    /// commits at once.
    ///
    /// Returns `None` — the caller must then abort `txn` — when an older
    /// user transaction still runs after `timeout`, when the drain times
    /// out, when another `commit_alone` holds the gate, or when a user
    /// writer asks `txn` to yield.
    pub fn commit_alone(
        &self,
        txn: &Arc<Transaction>,
        timeout: Duration,
        before_commit: impl FnOnce(),
    ) -> Option<Timestamp> {
        if txn.write_set_size() == 0 {
            before_commit();
            return Some(self.commit(txn));
        }
        let deadline = Instant::now() + timeout;
        let mut spins = 0;
        while self.oldest_user_start().is_some_and(|start| start < txn.start_ts()) {
            if txn.yield_requested() || Instant::now() >= deadline {
                return None;
            }
            backoff(&mut spins);
        }
        {
            let _guard = self.commit_latch.lock();
            if self.gate_closed.swap(true, Ordering::AcqRel) {
                return None;
            }
        }
        let closed = Instant::now();
        spins = 0;
        let alone = loop {
            if self.oldest_user_start().is_none() {
                break true;
            }
            if txn.yield_requested() || closed.elapsed() >= GATE_DRAIN {
                break false;
            }
            backoff(&mut spins);
        };
        let committed = alone.then(|| {
            before_commit();
            self.commit(txn)
        });
        self.reopen_gate();
        self.metrics.gate_closed_nanos.observe_duration(closed.elapsed());
        committed
    }

    /// Commit a transaction; returns its commit timestamp.
    ///
    /// The §3.1 protocol: a small critical section obtains the commit
    /// timestamp, publishes it into the delta records, and queues the redo
    /// buffer for the log manager.
    pub fn commit(&self, txn: &Arc<Transaction>) -> Timestamp {
        assert_eq!(txn.outcome(), TxnOutcome::Active, "commit on finished txn");
        // A DDL-only transaction has an empty write set but must still reach
        // the log: its record is what makes the log self-describing.
        let writes = txn.write_set_size();
        let read_only = writes == 0 && txn.ddl_count() == 0;
        let commit_ts;
        {
            let _guard = self.commit_latch.lock();
            commit_ts = self.oracle.next();
            txn.publish_timestamp(commit_ts);
            txn.set_commit_ts(commit_ts);
            txn.set_outcome(TxnOutcome::Committed);
            // The rest of the system treats the transaction as committed as
            // soon as its commit record is in the flush queue (§3.4).
            match &self.sink {
                Some(sink) => {
                    let t = Arc::clone(txn);
                    sink.queue_commit(
                        commit_ts,
                        txn.take_redo(),
                        txn.take_ddl(),
                        read_only,
                        Box::new(move || t.set_durable()),
                    );
                }
                None => txn.set_durable(),
            }
        }
        self.active.lock().remove(&txn.start_ts().0);
        txn.run_end_actions(true);
        if writes > 0 {
            self.metrics.db_writes.add(writes as u64);
        }
        self.completed.push(Arc::clone(txn));
        commit_ts
    }

    /// Abort a transaction, rolling back its in-place changes (§3.1).
    ///
    /// For each undo record (newest first): restore the before-image, then
    /// re-publish the record with a committed timestamp equal to the
    /// transaction's start — readers that copied the aborted version apply
    /// the (now redundant) record and are repaired; nothing is unlinked.
    pub fn abort(&self, txn: &Arc<Transaction>) {
        assert_eq!(txn.outcome(), TxnOutcome::Active, "abort on finished txn");
        let records = txn.undo_records();
        for r in records.iter().rev() {
            unsafe { crate::data_table::rollback_record(txn, *r) };
        }
        // Publish the records as "committed" at start: the restored in-place
        // state *is* the pre-transaction state, so applying these records is
        // harmless for everyone. Marked aborted first, so a writer that
        // reads the new timestamp also sees that the record only repeats
        // the version below it, and looks through it.
        for r in records.iter() {
            r.mark_aborted();
            r.set_timestamp(txn.start_ts());
        }
        txn.set_outcome(TxnOutcome::Aborted);
        self.active.lock().remove(&txn.start_ts().0);
        txn.run_end_actions(false);
        self.completed.push(Arc::clone(txn));
    }

    /// Oldest running transaction's start timestamp, or the current oracle
    /// position when none are running (§3.3).
    pub fn oldest_active_start(&self) -> Timestamp {
        let active = self.active.lock();
        match active.keys().next() {
            Some(&t) => Timestamp(t),
            None => self.oracle.peek(),
        }
    }

    /// Number of running transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Drain finished transactions (the GC's intake).
    pub fn drain_completed(&self, out: &mut Vec<Arc<Transaction>>) {
        while let Some(t) = self.completed.pop() {
            out.push(t);
        }
    }
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_commit_lifecycle() {
        let m = TransactionManager::new();
        let t = m.begin();
        assert_eq!(m.active_count(), 1);
        let ct = m.commit(&t);
        assert_eq!(m.active_count(), 0);
        assert!(ct > t.start_ts());
        assert_eq!(t.outcome(), TxnOutcome::Committed);
        assert_eq!(t.commit_ts(), Some(ct));
        // Without a log, a commit is durable at once.
        assert!(t.is_durable());
        let mut v = vec![];
        m.drain_completed(&mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn oldest_active_tracks_minimum() {
        let m = TransactionManager::new();
        let t1 = m.begin();
        let t2 = m.begin();
        assert_eq!(m.oldest_active_start(), t1.start_ts());
        m.commit(&t1);
        assert_eq!(m.oldest_active_start(), t2.start_ts());
        m.commit(&t2);
        // No active: oldest is "now", which exceeds both starts.
        assert!(m.oldest_active_start() > t2.start_ts());
    }

    #[test]
    fn commit_timestamps_are_ordered() {
        let m = Arc::new(TransactionManager::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                (0..200)
                    .map(|_| {
                        let t = m.begin();
                        m.commit(&t).0
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "commit timestamps must be unique");
    }

    #[test]
    #[should_panic]
    fn double_commit_panics() {
        let m = TransactionManager::new();
        let t = m.begin();
        m.commit(&t);
        m.commit(&t);
    }

    #[test]
    fn read_only_commit_hits_sink() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CountingSink(AtomicUsize, AtomicUsize);
        impl CommitSink for CountingSink {
            fn queue_commit(
                &self,
                _ts: Timestamp,
                _redo: Vec<u8>,
                _ddl: Vec<DdlRecord>,
                read_only: bool,
                cb: Box<dyn FnOnce() + Send>,
            ) {
                self.0.fetch_add(1, Ordering::SeqCst);
                if read_only {
                    self.1.fetch_add(1, Ordering::SeqCst);
                }
                cb();
            }
        }
        let sink = Arc::new(CountingSink(AtomicUsize::new(0), AtomicUsize::new(0)));
        let m = TransactionManager::with_sink(Arc::clone(&sink) as Arc<dyn CommitSink>);
        let t = m.begin();
        m.commit(&t);
        // Even read-only transactions obtain a commit record (§3.4).
        assert_eq!(sink.0.load(Ordering::SeqCst), 1);
        assert_eq!(sink.1.load(Ordering::SeqCst), 1);
        // A DDL-only transaction has no write set but is NOT read-only: its
        // record is what makes the log self-describing.
        let t = m.begin();
        t.add_ddl(DdlRecord::DropTable { table_id: 1, name: "t".into() });
        m.commit(&t);
        assert_eq!(sink.0.load(Ordering::SeqCst), 2);
        assert_eq!(sink.1.load(Ordering::SeqCst), 1, "DDL commit must not count as read-only");
    }
}
