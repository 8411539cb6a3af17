//! The two-phase garbage collector (paper §3.3).
//!
//! Phase 1 (**unlink**): for every transaction that finished before the
//! oldest active transaction started, compute the set of touched slots and
//! truncate each version chain exactly once at the first record that is
//! visible to everyone (everything at or below it can no longer be needed).
//!
//! Phase 2 (**deallocate**): a batch whose unlink happened at time `u` is
//! reclaimed once the oldest active transaction started after `u` — no
//! concurrent reader can still hold a pointer into the records (an
//! epoch-protection argument, cf. FASTER \[30\]).

use crate::deferred::DeferredQueue;
use mainline_common::Timestamp;
use mainline_storage::access;
use mainline_storage::raw_block::layout_of;
use mainline_storage::TupleSlot;
use mainline_txn::transaction::TxnOutcome;
use mainline_txn::undo::UndoRecordRef;
use mainline_txn::{Transaction, TransactionManager};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Observer of modifications, fed from undo records during GC runs — this is
/// how the access observer of §4.2 collects statistics *off* the transaction
/// critical path.
pub trait ModificationObserver: Send + Sync {
    /// One undo record's table and slot, observed at GC time (the "GC epoch"
    /// stands in for the modification time, §4.2).
    fn on_modification(&self, table_id: u32, slot: TupleSlot);
    /// A GC pass finished (epoch tick).
    fn on_gc_pass(&self);
}

/// Counters for one GC run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Transactions whose chains were truncated this run.
    pub txns_unlinked: usize,
    /// Transactions whose memory was reclaimed this run.
    pub txns_deallocated: usize,
    /// Version chains truncated.
    pub chains_truncated: usize,
    /// Deferred actions executed.
    pub deferred_ran: usize,
}

/// The garbage collector. Drive it by calling [`GarbageCollector::run`]
/// periodically (the paper uses a ~10 ms cadence) from one or more threads.
pub struct GarbageCollector {
    manager: Arc<TransactionManager>,
    deferred: Arc<DeferredQueue>,
    observers: Vec<Arc<dyn ModificationObserver>>,
    /// Completed transactions not yet old enough to unlink.
    pending: Vec<Arc<Transaction>>,
    /// Unlinked batches awaiting deallocation: (unlink time, batch).
    unlinked: Vec<(Timestamp, Vec<Arc<Transaction>>)>,
}

impl GarbageCollector {
    /// Collector over a transaction manager.
    pub fn new(manager: Arc<TransactionManager>) -> Self {
        GarbageCollector {
            manager,
            deferred: Arc::new(DeferredQueue::new()),
            observers: Vec::new(),
            pending: Vec::new(),
            unlinked: Vec::new(),
        }
    }

    /// The shared deferred-action queue (handed to the transform pipeline).
    pub fn deferred(&self) -> Arc<DeferredQueue> {
        Arc::clone(&self.deferred)
    }

    /// Register a modification observer (the transform access observer).
    pub fn add_observer(&mut self, obs: Arc<dyn ModificationObserver>) {
        self.observers.push(obs);
    }

    /// One GC pass.
    pub fn run(&mut self) -> GcStats {
        let mut stats = GcStats::default();
        let oldest = self.manager.oldest_active_start();

        // Intake.
        self.manager.drain_completed(&mut self.pending);

        // Partition ready vs not-ready. A transaction is ready when every
        // timestamp it ever published is below `oldest`: committed → its
        // commit timestamp; aborted → its start (the abort republish value).
        let mut ready = Vec::new();
        self.pending.retain(|t| {
            let fence = match t.outcome() {
                TxnOutcome::Committed => t.commit_ts().unwrap(),
                TxnOutcome::Aborted => t.start_ts(),
                TxnOutcome::Active => unreachable!("active txn in completed queue"),
            };
            if fence < oldest {
                ready.push(Arc::clone(t));
                false
            } else {
                true
            }
        });

        // Phase 1: truncate each touched chain exactly once.
        if !ready.is_empty() {
            let mut slots: HashSet<TupleSlot> = HashSet::new();
            for t in &ready {
                for r in t.undo_records() {
                    let slot = r.slot();
                    for obs in &self.observers {
                        obs.on_modification(r.table_id(), slot);
                    }
                    slots.insert(slot);
                }
            }
            for slot in &slots {
                unsafe {
                    if truncate_chain(*slot, oldest) {
                        stats.chains_truncated += 1;
                    }
                }
            }
            stats.txns_unlinked = ready.len();
            let unlink_time = self.manager.oracle().next();
            self.unlinked.push((unlink_time, ready));
        }

        // Phase 2: deallocate batches whose unlink epoch has passed.
        let mut i = 0;
        while i < self.unlinked.len() {
            if self.unlinked[i].0 < oldest {
                let (_, batch) = self.unlinked.swap_remove(i);
                for t in batch {
                    unsafe { reclaim(&t) };
                    stats.txns_deallocated += 1;
                }
            } else {
                i += 1;
            }
        }

        // Deferred actions ride the same epoch.
        stats.deferred_ran = self.deferred.process(oldest);

        for obs in &self.observers {
            obs.on_gc_pass();
        }
        stats
    }

    /// Run until quiescent (requires no active transactions): used at
    /// shutdown and in tests. Returns total passes.
    pub fn run_to_quiescence(&mut self) -> usize {
        let mut passes = 0;
        loop {
            let s = self.run();
            passes += 1;
            let idle = s.txns_unlinked == 0
                && s.txns_deallocated == 0
                && s.deferred_ran == 0
                && self.pending.is_empty()
                && self.unlinked.is_empty()
                && self.deferred.is_empty();
            if idle || passes > 1000 {
                break;
            }
            // Each pass draws fresh "now" timestamps; with no active
            // transactions the epochs advance by themselves.
        }
        passes
    }

    /// Backlog sizes (pending, unlink batches) for tests/metrics.
    pub fn backlog(&self) -> (usize, usize) {
        (self.pending.len(), self.unlinked.len())
    }
}

/// Truncate the version chain of `slot` at the first record no active
/// transaction could still need. Returns true if something was unlinked.
///
/// # Safety
/// Caller must be the only thread truncating this slot in this pass, and the
/// records must still be alive (phase-2 delay guarantees it).
unsafe fn truncate_chain(slot: TupleSlot, oldest: Timestamp) -> bool {
    let block = slot.block();
    let layout = layout_of(block);
    let idx = slot.offset();
    let vp = access::version_ptr(block, layout, idx);
    let head_raw = vp.load(Ordering::Acquire);
    let mut prev: Option<UndoRecordRef> = None;
    let mut cur = UndoRecordRef::from_raw(head_raw);
    while let Some(r) = cur {
        let ts = r.timestamp();
        if !ts.is_uncommitted() && ts < oldest {
            // `r` is visible to every active transaction: they stop at (or
            // before) it without reading its payload — cut here.
            match prev {
                None => {
                    // Whole chain is prunable; a racing writer may have
                    // installed a new head, in which case we leave it for
                    // the next pass.
                    return vp
                        .compare_exchange(head_raw, 0, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                }
                Some(p) => {
                    p.set_next_raw(0);
                    return true;
                }
            }
        }
        prev = cur;
        cur = r.next();
    }
    false
}

/// Free a transaction's varlen before-images, orphans, and undo segments.
///
/// # Safety
/// No chain may still link to the transaction's records and no reader may
/// hold a pointer into them (phase-2 epoch argument).
unsafe fn reclaim(txn: &Arc<Transaction>) {
    txn.reclaim();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_common::schema::{ColumnDef, Schema};
    use mainline_common::value::{TypeId, Value};
    use mainline_storage::ProjectedRow;
    use mainline_txn::DataTable;

    fn table() -> Arc<DataTable> {
        DataTable::new(
            1,
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::nullable("name", TypeId::Varchar),
            ]),
        )
        .unwrap()
    }

    fn row(id: i64, name: &str) -> ProjectedRow {
        ProjectedRow::from_values(
            &[TypeId::BigInt, TypeId::Varchar],
            &[Value::BigInt(id), Value::string(name)],
        )
    }

    fn version_len(slot: TupleSlot) -> usize {
        unsafe {
            let layout = layout_of(slot.block());
            let mut n = 0;
            let mut cur =
                UndoRecordRef::from_raw(access::load_version(slot.block(), layout, slot.offset()));
            while let Some(r) = cur {
                n += 1;
                cur = r.next();
            }
            n
        }
    }

    #[test]
    fn chains_pruned_after_epoch() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let mut gc = GarbageCollector::new(Arc::clone(&m));

        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, "version-zero-string-value"));
        m.commit(&setup);
        for i in 0..5 {
            let txn = m.begin();
            let mut d = ProjectedRow::new();
            d.push_fixed(1, &Value::BigInt(i + 100));
            t.update(&txn, slot, &d).unwrap();
            m.commit(&txn);
        }
        assert_eq!(version_len(slot), 6);

        let s1 = gc.run(); // unlink
        assert_eq!(s1.txns_unlinked, 6);
        assert_eq!(version_len(slot), 0);
        let s2 = gc.run(); // dealloc
        assert_eq!(s2.txns_deallocated, 6);
        assert_eq!(gc.backlog(), (0, 0));

        // Data still correct.
        let check = m.begin();
        assert_eq!(t.select_values(&check, slot).unwrap()[0], Value::BigInt(104));
        m.commit(&check);
    }

    #[test]
    fn active_reader_blocks_pruning() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let mut gc = GarbageCollector::new(Arc::clone(&m));

        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, "the original value aaaa"));
        m.commit(&setup);

        let reader = m.begin(); // pins the epoch
        let writer = m.begin();
        let mut d = ProjectedRow::new();
        d.push_fixed(1, &Value::BigInt(2));
        t.update(&writer, slot, &d).unwrap();
        m.commit(&writer);

        let s = gc.run();
        // setup is older than the reader and can unlink, but writer is not.
        assert!(s.txns_unlinked <= 2);
        // The writer's record must survive — the reader still needs its
        // before-image.
        assert!(version_len(slot) >= 1);
        assert_eq!(t.select_values(&reader, slot).unwrap()[0], Value::BigInt(1));
        m.commit(&reader);

        gc.run();
        let s = gc.run();
        let _ = s;
        assert_eq!(version_len(slot), 0);
        gc.run_to_quiescence();
        assert_eq!(gc.backlog(), (0, 0));
    }

    #[test]
    fn aborted_transactions_are_collected() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let mut gc = GarbageCollector::new(Arc::clone(&m));

        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, "a value that stays put!!"));
        m.commit(&setup);

        let bad = m.begin();
        let mut d = ProjectedRow::new();
        d.push_varlen(2, mainline_storage::VarlenEntry::from_bytes(b"the doomed replacement"));
        t.update(&bad, slot, &d).unwrap();
        m.abort(&bad);

        gc.run();
        gc.run();
        assert_eq!(version_len(slot), 0);
        assert_eq!(gc.backlog(), (0, 0));
        let check = m.begin();
        assert_eq!(
            t.select_values(&check, slot).unwrap()[1],
            Value::string("a value that stays put!!")
        );
        m.commit(&check);
    }

    #[test]
    fn large_truncation_unlinks_every_chain() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let mut gc = GarbageCollector::new(Arc::clone(&m));
        let setup = m.begin();
        let slots: Vec<TupleSlot> =
            (0..3000).map(|i| t.insert(&setup, &row(i, "parallel-gc-value"))).collect();
        m.commit(&setup);
        let txn = m.begin();
        for &slot in &slots {
            let mut d = ProjectedRow::new();
            d.push_fixed(1, &Value::BigInt(1));
            t.update(&txn, slot, &d).unwrap();
        }
        m.commit(&txn);
        let s1 = gc.run();
        assert_eq!(s1.txns_unlinked, 2);
        assert_eq!(s1.chains_truncated, 3000);
        for &slot in slots.iter().step_by(257) {
            assert_eq!(version_len(slot), 0);
        }
        gc.run();
        assert_eq!(gc.backlog(), (0, 0));
        // Data intact.
        let check = m.begin();
        assert_eq!(t.count_visible(&check), 3000);
        m.commit(&check);
    }

    #[test]
    fn observers_see_modifications_and_epochs() {
        use std::sync::atomic::AtomicUsize;
        #[derive(Default)]
        struct Counting {
            mods: AtomicUsize,
            passes: AtomicUsize,
        }
        impl ModificationObserver for Counting {
            fn on_modification(&self, _table_id: u32, _slot: TupleSlot) {
                self.mods.fetch_add(1, Ordering::SeqCst);
            }
            fn on_gc_pass(&self) {
                self.passes.fetch_add(1, Ordering::SeqCst);
            }
        }
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let mut gc = GarbageCollector::new(Arc::clone(&m));
        let obs = Arc::new(Counting::default());
        gc.add_observer(Arc::clone(&obs) as Arc<dyn ModificationObserver>);

        let txn = m.begin();
        let slot = t.insert(&txn, &row(1, "abc"));
        let mut d = ProjectedRow::new();
        d.push_fixed(1, &Value::BigInt(2));
        t.update(&txn, slot, &d).unwrap();
        m.commit(&txn);

        gc.run();
        assert_eq!(obs.mods.load(Ordering::SeqCst), 2); // insert + update
        assert_eq!(obs.passes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_workload_with_gc_thread() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        // Seed data.
        let setup = m.begin();
        let slots: Vec<TupleSlot> =
            (0..64).map(|i| t.insert(&setup, &row(i, "seed-value-string-data"))).collect();
        m.commit(&setup);

        let mut handles = vec![];
        for tid in 0..4usize {
            let m = Arc::clone(&m);
            let t = Arc::clone(&t);
            let slots = slots.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut rng = mainline_common::rng::Xoshiro256::seed_from_u64(tid as u64);
                while !stop.load(Ordering::Relaxed) {
                    let txn = m.begin();
                    let slot = slots[rng.next_below(slots.len() as u64) as usize];
                    let mut ok = true;
                    if rng.next_below(2) == 0 {
                        let mut d = ProjectedRow::new();
                        d.push_fixed(1, &Value::BigInt(rng.int_range(0, 1 << 30)));
                        ok = t.update(&txn, slot, &d).is_ok();
                    } else {
                        let _ = t.select_values(&txn, slot);
                    }
                    if ok {
                        m.commit(&txn);
                    } else {
                        m.abort(&txn);
                    }
                }
            }));
        }
        // GC thread.
        let gc_stop = Arc::clone(&stop);
        let gc_m = Arc::clone(&m);
        let gc_handle = std::thread::spawn(move || {
            let mut gc = GarbageCollector::new(gc_m);
            let mut total = GcStats::default();
            while !gc_stop.load(Ordering::Relaxed) {
                let s = gc.run();
                total.txns_unlinked += s.txns_unlinked;
                total.txns_deallocated += s.txns_deallocated;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            gc.run_to_quiescence();
            total
        });

        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        let total = gc_handle.join().unwrap();
        assert!(total.txns_deallocated > 0, "GC should have reclaimed transactions");

        // All tuples still readable and consistent.
        let check = m.begin();
        assert_eq!(t.count_visible(&check), 64);
        m.commit(&check);
    }
}
