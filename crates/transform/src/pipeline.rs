//! The background transformation pipeline (paper Fig. 8).
//!
//! ```text
//! GC epoch stats ──► cold candidates ──► [phase 1] compaction txn
//!      (§4.2)                               │ set COOLING before commit
//!                                           ▼
//!                              cooling queue (await GC pruning)
//!                                           │ version column clean?
//!                                           ▼
//!                    [phase 2] CAS cooling→freezing, gather / compress,
//!                              publish FROZEN, defer old buffers to GC
//! ```
//!
//! The cooling flag set *before* the compaction transaction commits is the
//! linchpin (Fig. 9): any transaction that could race the freeze must
//! overlap the compaction transaction, so its versions keep the GC from
//! pruning the block's version column; once the column scans clean, every
//! overlapping transaction has ended and freezing is safe.
//!
//! This module holds the pipeline's configuration and hook types; the
//! mechanics — one work pool of N workers sharing a cooling queue, and a
//! backpressure gauge — live in [`crate::coordinator`].

use mainline_common::Result;
use mainline_storage::{ProjectedRow, TupleSlot};
use mainline_txn::Transaction;
use std::time::Duration;

/// Which canonical format the gathering phase emits (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformFormat {
    /// Contiguous varlen buffers (plain Arrow).
    Gather,
    /// Dictionary compression (Parquet/ORC-style).
    Dictionary,
}

/// Pipeline tuning (§4.2: the threshold is workload-dependent and
/// user-tunable; §6.2: group size trades memory reclamation for write-set
/// size).
#[derive(Debug, Clone)]
pub struct TransformConfig {
    /// GC epochs a block must stay unmodified to be considered cold.
    pub threshold_epochs: u64,
    /// Blocks per compaction group.
    pub group_size: usize,
    /// Output format.
    pub format: TransformFormat,
    /// Transformation worker threads `mainline-db` spawns, each calling
    /// [`TransformCoordinator::tick`](crate::TransformCoordinator::tick) on
    /// the one shared coordinator. Defaults to the machine's available
    /// parallelism.
    pub workers: usize,
    /// Backpressure **hard** watermark: when more than this many measured
    /// bytes sit in cooling queues awaiting phase 2, the coordinator
    /// reports itself [`overloaded`](crate::TransformCoordinator::overloaded),
    /// the sweep stops admitting new compaction groups, and `mainline-db`'s
    /// admission control blocks writers (bounded by
    /// [`stall_timeout`](Self::stall_timeout)). The **soft** watermark is
    /// half of this ([`soft_backpressure_bytes`](Self::soft_backpressure_bytes)):
    /// between the two, writers yield cooperatively and workers tick
    /// eagerly. **Zero disables backpressure and admission control
    /// entirely.** The default is 64 blocks, or the engine profile's
    /// [`backpressure_bytes`](mainline_common::Profile::backpressure_bytes)
    /// — CI forces it small so the stall path is exercised on every push.
    pub backpressure_bytes: usize,
    /// Upper bound on a single admission-control stall at the hard
    /// watermark. A writer parked here may itself be the open transaction
    /// whose versions keep the cooling queue from draining, so unbounded
    /// blocking could deadlock the control loop; the timeout guarantees
    /// forward progress.
    pub stall_timeout: Duration,
}

impl TransformConfig {
    /// The soft watermark: half the hard one. Below it admission control is
    /// a no-op; between it and [`backpressure_bytes`](Self::backpressure_bytes)
    /// writers yield cooperatively.
    pub fn soft_backpressure_bytes(&self) -> usize {
        self.backpressure_bytes / 2
    }
}

impl Default for TransformConfig {
    fn default() -> Self {
        let backpressure_bytes = mainline_common::Profile::current()
            .backpressure_bytes
            .unwrap_or(64 * mainline_storage::raw_block::BLOCK_SIZE);
        TransformConfig {
            threshold_epochs: 2,
            group_size: 50,
            format: TransformFormat::Gather,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            backpressure_bytes,
            stall_timeout: Duration::from_millis(20),
        }
    }
}

/// Index-maintenance hook invoked for every moved tuple.
pub trait MoveHook: Send + Sync {
    /// `row` is the moved tuple over all user columns.
    fn on_move(
        &self,
        txn: &Transaction,
        from: TupleSlot,
        to: TupleSlot,
        row: &ProjectedRow,
    ) -> Result<()>;
}

/// Hook for tables with no indexes.
pub struct NoopHook;

impl MoveHook for NoopHook {
    fn on_move(
        &self,
        _txn: &Transaction,
        _from: TupleSlot,
        _to: TupleSlot,
        _row: &ProjectedRow,
    ) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_observer::AccessObserver;
    use crate::TransformCoordinator;
    use mainline_common::schema::{ColumnDef, Schema};
    use mainline_common::value::{TypeId, Value};
    use mainline_gc::collector::ModificationObserver;
    use mainline_gc::GarbageCollector;
    use mainline_storage::block_state::{BlockState, BlockStateMachine};
    use mainline_txn::{DataTable, TransactionManager};
    use std::sync::Arc;

    struct Harness {
        manager: Arc<TransactionManager>,
        gc: GarbageCollector,
        observer: Arc<AccessObserver>,
        pipeline: TransformCoordinator,
        table: Arc<DataTable>,
    }

    fn harness(config: TransformConfig) -> Harness {
        let manager = Arc::new(TransactionManager::new());
        let mut gc = GarbageCollector::new(Arc::clone(&manager));
        let observer = Arc::new(AccessObserver::new());
        gc.add_observer(Arc::clone(&observer) as Arc<dyn ModificationObserver>);
        let pipeline = TransformCoordinator::new(
            Arc::clone(&manager),
            Arc::clone(&observer),
            gc.deferred(),
            config,
        );
        let table = new_table(1);
        pipeline.add_table(Arc::clone(&table), Arc::new(NoopHook));
        Harness { manager, gc, observer, pipeline, table }
    }

    fn new_table(id: u32) -> Arc<DataTable> {
        DataTable::new(
            id,
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::new("val", TypeId::Varchar),
            ]),
        )
        .unwrap()
    }

    fn insert_n(h: &Harness, n: usize) -> Vec<TupleSlot> {
        insert_into(&h.manager, &h.table, n)
    }

    fn insert_into(manager: &TransactionManager, table: &DataTable, n: usize) -> Vec<TupleSlot> {
        let txn = manager.begin();
        let slots = (0..n)
            .map(|i| {
                table.insert(
                    &txn,
                    &ProjectedRow::from_values(
                        &[TypeId::BigInt, TypeId::Varchar],
                        &[Value::BigInt(i as i64), Value::string(&format!("pipeline-val-{i:07}"))],
                    ),
                )
            })
            .collect();
        manager.commit(&txn);
        slots
    }

    /// Run GC + pipeline until the table's non-active blocks freeze.
    fn settle(h: &mut Harness, max_iters: usize) {
        for _ in 0..max_iters {
            h.gc.run();
            h.pipeline.tick();
            let (_hot, _cooling, _freezing, frozen, _evicted) = h.pipeline.block_state_census();
            if frozen > 0 {
                // One extra pass to drain deferred actions.
                h.gc.run();
                return;
            }
        }
    }

    #[test]
    fn full_lifecycle_hot_to_frozen() {
        let mut h = harness(TransformConfig { threshold_epochs: 2, ..Default::default() });
        let slots = insert_n(&h, 1000);
        // Delete some to create gaps.
        let txn = h.manager.begin();
        for &s in slots.iter().step_by(3) {
            h.table.delete(&txn, s).unwrap();
        }
        h.manager.commit(&txn);

        // Force a second block so the first is not the active one.
        let big = h.table.layout().num_slots() as usize;
        insert_n(&h, big);

        settle(&mut h, 20);
        let stats = h.pipeline.metrics();
        assert!(stats.blocks_frozen.get() >= 1, "stats: {stats:?}");
        assert!(stats.tuples_moved.get() > 0);

        // Data integrity after the whole lifecycle.
        let check = h.manager.begin();
        let expected = 1000 - slots.iter().step_by(3).count() + big;
        assert_eq!(h.table.count_visible(&check), expected);
        h.manager.commit(&check);
    }

    #[test]
    fn frozen_block_reheats_on_update() {
        let mut h = harness(TransformConfig { threshold_epochs: 1, ..Default::default() });
        let slots = insert_n(&h, 100);
        insert_n(&h, h.table.layout().num_slots() as usize); // push active away
        settle(&mut h, 20);

        let frozen_block = h
            .table
            .blocks()
            .into_iter()
            .find(|b| BlockStateMachine::state(b.header()) == BlockState::Frozen)
            .expect("one block should be frozen");
        // The tuple moved during compaction, so find its new slot by value.
        let _ = slots;
        let txn = h.manager.begin();
        let cols = h.table.all_cols();
        let mut victim = None;
        h.table.scan(&txn, &cols, |slot, _| {
            if slot.block() == frozen_block.as_ptr() {
                victim = Some(slot);
                false
            } else {
                true
            }
        });
        let victim = victim.expect("tuple in frozen block");
        let mut d = ProjectedRow::new();
        d.push_varlen(2, mainline_storage::VarlenEntry::from_bytes(b"overwritten-after-freeze"));
        h.table.update(&txn, victim, &d).unwrap();
        h.manager.commit(&txn);
        assert_eq!(BlockStateMachine::state(frozen_block.header()), BlockState::Hot);

        // And the value reads back.
        let check = h.manager.begin();
        assert_eq!(
            h.table.select_values(&check, victim).unwrap()[1],
            Value::string("overwritten-after-freeze")
        );
        h.manager.commit(&check);
    }

    #[test]
    fn emptied_blocks_are_recycled() {
        let mut h =
            harness(TransformConfig { threshold_epochs: 1, group_size: 10, ..Default::default() });
        // Two blocks of data, then delete 80% of each: compaction should
        // free at least one block.
        let per_block = h.table.layout().num_slots() as usize;
        let slots = insert_n(&h, 2 * per_block);
        let txn = h.manager.begin();
        let mut rng = mainline_common::rng::Xoshiro256::seed_from_u64(3);
        let mut live = 0;
        for &s in &slots {
            if rng.next_below(100) < 80 {
                h.table.delete(&txn, s).unwrap();
            } else {
                live += 1;
            }
        }
        h.manager.commit(&txn);
        insert_n(&h, 1); // fresh active block

        let before = h.table.num_blocks();
        settle(&mut h, 30);
        // Let deferred block frees run.
        h.gc.run_to_quiescence();
        let stats = h.pipeline.metrics();
        assert!(stats.blocks_freed.get() >= 1, "stats: {stats:?}");
        assert!(h.table.num_blocks() < before);

        let check = h.manager.begin();
        assert_eq!(h.table.count_visible(&check), live + 1);
        h.manager.commit(&check);
    }

    #[test]
    fn dictionary_format_freezes_too() {
        let mut h = harness(TransformConfig {
            threshold_epochs: 1,
            format: TransformFormat::Dictionary,
            ..Default::default()
        });
        insert_n(&h, 500);
        insert_n(&h, h.table.layout().num_slots() as usize);
        settle(&mut h, 30);
        let frozen = h
            .table
            .blocks()
            .into_iter()
            .find(|b| BlockStateMachine::state(b.header()) == BlockState::Frozen)
            .expect("frozen block");
        let col = frozen.arrow.get(2).unwrap();
        assert!(matches!(&*col, mainline_storage::arrow_side::GatheredColumn::Dictionary { .. }));
    }

    #[test]
    fn concurrent_updates_during_transformation_never_lose_data() {
        // The writer is paced: each tick grants it a bounded number of
        // updates, and every fourth tick waits for them and grants none, so
        // the block can cool and freeze between bursts that race the
        // transformation. Unpaced,
        // it committed millions of updates that every GC pass had to unlink,
        // and kept the block too hot to ever freeze.
        const UPDATES_PER_TICK: u64 = 64;
        let mut h = harness(TransformConfig { threshold_epochs: 1, ..Default::default() });
        let slots = insert_n(&h, 2000);
        insert_n(&h, h.table.layout().num_slots() as usize);

        let relaxed = std::sync::atomic::Ordering::Relaxed;
        let budget = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let manager = Arc::clone(&h.manager);
        let table = Arc::clone(&h.table);
        let (budget2, stop2) = (Arc::clone(&budget), Arc::clone(&stop));
        // Note slots may be moved by compaction or frozen mid-update; a
        // failed update aborts and is skipped, as the integrity check is
        // count-based.
        let writer = std::thread::spawn(move || {
            let mut rng = mainline_common::rng::Xoshiro256::seed_from_u64(5);
            let mut updated = 0u64;
            while !stop2.load(relaxed) {
                if budget2.fetch_update(relaxed, relaxed, |b| b.checked_sub(1)).is_err() {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    continue;
                }
                let txn = manager.begin();
                let slot = slots[rng.next_below(slots.len() as u64) as usize];
                let mut d = ProjectedRow::new();
                d.push_fixed(1, &Value::BigInt(rng.int_range(0, 1 << 40)));
                match table.update(&txn, slot, &d) {
                    Ok(()) => {
                        manager.commit(&txn);
                        updated += 1;
                    }
                    Err(_) => manager.abort(&txn),
                }
            }
            updated
        });
        for tick in 0..50 {
            if tick % 4 != 3 {
                budget.fetch_add(UPDATES_PER_TICK, relaxed);
            } else {
                while budget.load(relaxed) > 0 && !writer.is_finished() {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            }
            h.gc.run();
            h.pipeline.tick();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, relaxed);
        let updated = writer.join().unwrap();
        assert!(updated > 0);
        let frozen = h.pipeline.metrics().blocks_frozen.get();
        assert!(frozen >= 1, "no block froze between the writer's bursts");
        h.gc.run_to_quiescence();

        let check = h.manager.begin();
        assert_eq!(h.table.count_visible(&check), 2000 + h.table.layout().num_slots() as usize);
        h.manager.commit(&check);
    }

    #[test]
    fn worker_pool_freezes_every_table_under_concurrent_updates() {
        // Four threads tick one coordinator over three tables while a GC
        // thread prunes versions and a writer updates each table's active
        // block: every row stays visible, the gauge matches the queue, and
        // each freeze is counted once.
        const WORKERS: usize = 4;
        let mut h = harness(TransformConfig {
            threshold_epochs: 1,
            group_size: 4,
            workers: WORKERS,
            ..Default::default()
        });
        let per_block = h.table.layout().num_slots() as usize;
        let mut tables = vec![Arc::clone(&h.table)];
        for id in 2..=3 {
            let t = new_table(id);
            h.pipeline.add_table(Arc::clone(&t), Arc::new(NoopHook));
            tables.push(t);
        }
        assert_eq!(h.pipeline.table_count(), 3);
        let mut expected = Vec::new();
        let mut active_slots = Vec::new();
        for (i, t) in tables.iter().enumerate() {
            // 2, 3 and 4 full blocks with every fourth row deleted, so
            // compaction has tuples to move, then a few rows in the active
            // block (never a compaction candidate) for the writer.
            let slots = insert_into(&h.manager, t, (i + 2) * per_block);
            let txn = h.manager.begin();
            for &s in slots.iter().step_by(4) {
                t.delete(&txn, s).unwrap();
            }
            h.manager.commit(&txn);
            let active = insert_into(&h.manager, t, 16);
            expected.push(slots.len() - slots.len().div_ceil(4) + active.len());
            active_slots.extend(active.into_iter().map(|s| (i, s)));
        }

        let stop = std::sync::atomic::AtomicBool::new(false);
        let stop_gc = std::sync::atomic::AtomicBool::new(false);
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        let (pipeline, manager, gc) = (&h.pipeline, &h.manager, &mut h.gc);
        let converged = std::thread::scope(|scope| {
            let gc_thread = scope.spawn(|| {
                while !stop_gc.load(relaxed) {
                    gc.run();
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
                gc.run_to_quiescence();
            });
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    while !stop.load(relaxed) {
                        if !pipeline.tick() {
                            std::thread::sleep(std::time::Duration::from_micros(100));
                        }
                    }
                });
            }
            let writer = scope.spawn(|| {
                let mut rng = mainline_common::rng::Xoshiro256::seed_from_u64(9);
                let mut updated = 0u64;
                while !stop.load(relaxed) {
                    let (t, slot) =
                        active_slots[rng.next_below(active_slots.len() as u64) as usize];
                    let txn = manager.begin();
                    let mut d = ProjectedRow::new();
                    d.push_fixed(1, &Value::BigInt(rng.int_range(0, 1 << 40)));
                    match tables[t].update(&txn, slot, &d) {
                        Ok(()) => {
                            manager.commit(&txn);
                            updated += 1;
                        }
                        Err(_) => manager.abort(&txn),
                    }
                }
                updated
            });
            // Done when only the three active blocks are hot and nothing is
            // cooling or freezing.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            let converged = loop {
                let (hot, cooling, freezing, _frozen, _evicted) = pipeline.block_state_census();
                if hot == tables.len() && cooling == 0 && freezing == 0 {
                    break true;
                }
                if std::time::Instant::now() > deadline {
                    break false;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            };
            stop.store(true, relaxed);
            assert!(writer.join().unwrap() > 0, "the writer never committed an update");
            stop_gc.store(true, relaxed);
            gc_thread.join().unwrap();
            converged
        });
        let census = h.pipeline.block_state_census();
        assert!(converged, "pool did not freeze every cold block: {census:?}");

        assert_eq!(h.pipeline.pending_bytes(), h.pipeline.cooling_queue_bytes());
        assert!(h.pipeline.drain_cooling(16));
        assert_eq!(h.pipeline.pending_bytes(), 0, "drained pipeline holds no pending bytes");
        assert_eq!(h.pipeline.cooling_queue_bytes(), 0);
        let stats = h.pipeline.metrics();
        assert!(stats.groups_compacted.get() > 0 && stats.tuples_moved.get() > 0, "{stats:?}");
        assert_eq!(
            stats.blocks_frozen.get(),
            census.3 as u64,
            "every freeze counted once: {stats:?}"
        );

        let check = h.manager.begin();
        for (t, n) in tables.iter().zip(expected) {
            assert_eq!(t.count_visible(&check), n);
        }
        h.manager.commit(&check);
    }

    #[test]
    fn sweeps_once_per_epoch_unless_cut_short_by_budget() {
        // A one-byte watermark lets each sweep compact exactly one group
        // (the first block is always admitted) and then cuts it short.
        let mut h = harness(TransformConfig {
            threshold_epochs: 1,
            group_size: 1,
            backpressure_bytes: 1,
            ..Default::default()
        });
        let per_block = h.table.layout().num_slots() as usize;
        insert_n(&h, 3 * per_block);
        insert_n(&h, 1); // fresh active block
        h.gc.run();
        h.gc.run(); // inserts pruned; the three full blocks are now cold
        let epoch = h.observer.epoch();
        let compacted = |h: &Harness| h.pipeline.metrics().groups_compacted.get();

        // Full blocks move nothing, so each group's version column is clean
        // at once: every tick freezes the previous group, which drops the
        // gauge, and the cut-short sweep reruns without a new epoch.
        for groups in 1..=3 {
            assert!(h.pipeline.tick());
            assert_eq!(compacted(&h), groups);
        }
        assert!(h.pipeline.tick(), "the last group freezes");
        assert_eq!(h.pipeline.block_state_census().3, 3);
        assert_eq!(h.observer.epoch(), epoch, "no GC pass ran");

        // Thaw a frozen block behind the observer's back: it is Hot and
        // still cold, so only a new sweep would compact it again.
        let thawed = h.table.blocks()[0].clone();
        let txn = h.manager.begin();
        let mut victim = None;
        h.table.scan(&txn, &h.table.all_cols(), |slot, _| {
            victim = Some(slot);
            slot.block() != thawed.as_ptr()
        });
        let mut d = ProjectedRow::new();
        d.push_fixed(1, &Value::BigInt(-1));
        h.table.update(&txn, victim.unwrap(), &d).unwrap();
        h.manager.commit(&txn);
        assert_eq!(BlockStateMachine::state(thawed.header()), BlockState::Hot);

        assert!(!h.pipeline.tick(), "a second sweep at the same epoch");
        assert_eq!(compacted(&h), 3);
        h.observer.on_gc_pass();
        assert!(h.pipeline.tick());
        assert_eq!(compacted(&h), 4, "a new epoch sweeps again");
    }

    #[test]
    fn gauge_charges_measured_bytes_and_registry_tracks_tables() {
        // A block far from full must charge far less than the flat 1 MB the
        // gauge used to assume; and the registry must count registered
        // tables through additions and removals.
        let mut h = harness(TransformConfig {
            threshold_epochs: 1,
            // Generous hard watermark so gating never trims the sweep here.
            backpressure_bytes: 64 * mainline_storage::raw_block::BLOCK_SIZE,
            ..Default::default()
        });
        assert_eq!(h.pipeline.table_count(), 1);
        let extra: Vec<_> = (0..2)
            .map(|i| {
                let t =
                    DataTable::new(10 + i, Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]))
                        .unwrap();
                h.pipeline.add_table(Arc::clone(&t), Arc::new(NoopHook));
                t
            })
            .collect();
        assert_eq!(h.pipeline.table_count(), 3);
        assert!(h.pipeline.remove_table(&extra[0]));
        assert!(!h.pipeline.remove_table(&extra[0]), "second removal must report absence");
        assert_eq!(h.pipeline.table_count(), 2);

        // Exactly one cold block (full of ~20-byte out-of-line varlens),
        // then a fresh active block: the single cooling entry must charge
        // its *measured* footprint — fixed region plus varlen buffers —
        // which exceeds the flat 1 MB the gauge used to assume per block.
        use mainline_storage::raw_block::BLOCK_SIZE;
        insert_n(&h, h.table.layout().num_slots() as usize);
        insert_n(&h, 1);
        for _ in 0..30 {
            h.gc.run();
            h.pipeline.tick();
            let queued = h.pipeline.cooling_queue_bytes();
            assert_eq!(h.pipeline.pending_bytes(), queued, "gauge must equal queued entry sizes");
            let (_hot, cooling, freezing, frozen, _evicted) = h.pipeline.block_state_census();
            if frozen > 0 && cooling == 0 && freezing == 0 {
                break;
            }
        }
        h.gc.run_to_quiescence();
        // The high-water mark is recorded at enqueue time, so it sees the
        // entry even when compaction and freeze land within one tick.
        let high = h.pipeline.pending_high_water();
        assert!(
            high > BLOCK_SIZE && high < 2 * BLOCK_SIZE,
            "one full varlen block must charge measured bytes (fixed + out-of-line \
             buffers), not a flat 1 MB: {high}"
        );
        assert_eq!(h.pipeline.pending_bytes(), 0);
    }

    #[test]
    fn backpressure_signals_on_cooling_backlog() {
        // Tiny high-water mark: a single cooling block must trip the signal,
        // and freezing must clear it.
        let mut h = harness(TransformConfig {
            threshold_epochs: 1,
            workers: 1,
            backpressure_bytes: mainline_storage::raw_block::BLOCK_SIZE / 2,
            ..Default::default()
        });
        let per_block = h.table.layout().num_slots() as usize;
        insert_n(&h, 2 * per_block);
        insert_n(&h, 1);
        let mut saw_overload = false;
        for _ in 0..40 {
            h.gc.run();
            h.pipeline.tick();
            saw_overload |= h.pipeline.overloaded();
            let (_hot, cooling, freezing, frozen, _evicted) = h.pipeline.block_state_census();
            if frozen > 0 && cooling == 0 && freezing == 0 {
                break;
            }
        }
        assert!(saw_overload, "cooling backlog never tripped the backpressure signal");
        h.gc.run_to_quiescence();
        assert_eq!(h.pipeline.pending_bytes(), 0);
        assert!(!h.pipeline.overloaded(), "signal must clear once queues drain");
    }
}
