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
//! mechanics — sharded across N workers with work stealing and a
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
    /// Transformation workers (= shards). Registered tables are partitioned
    /// into per-worker slices for the phase-1 sweep; `mainline-db` spawns
    /// one thread per worker. Defaults to the machine's available
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

/// Counters across pipeline ticks.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineStats {
    /// Compaction groups processed (phase 1 successes).
    pub groups_compacted: usize,
    /// Compaction transactions aborted on conflicts.
    pub groups_aborted: usize,
    /// Tuples moved in phase 1.
    pub tuples_moved: usize,
    /// Blocks recycled.
    pub blocks_freed: usize,
    /// Blocks frozen (phase 2 completions).
    pub blocks_frozen: usize,
    /// Cooling preemptions observed (user transactions won, Fig. 9).
    pub preemptions: usize,
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
        // Held so the GC keeps feeding it; read via the pipeline.
        _observer: Arc<AccessObserver>,
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
        let table = DataTable::new(
            1,
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::new("val", TypeId::Varchar),
            ]),
        )
        .unwrap();
        pipeline.add_table(Arc::clone(&table), Arc::new(NoopHook));
        Harness { manager, gc, _observer: observer, pipeline, table }
    }

    fn insert_n(h: &Harness, n: usize) -> Vec<TupleSlot> {
        let txn = h.manager.begin();
        let slots = (0..n)
            .map(|i| {
                h.table.insert(
                    &txn,
                    &ProjectedRow::from_values(
                        &[TypeId::BigInt, TypeId::Varchar],
                        &[Value::BigInt(i as i64), Value::string(&format!("pipeline-val-{i:07}"))],
                    ),
                )
            })
            .collect();
        h.manager.commit(&txn);
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
        let stats = h.pipeline.stats();
        assert!(stats.blocks_frozen >= 1, "stats: {stats:?}");
        assert!(stats.tuples_moved > 0);

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
        let stats = h.pipeline.stats();
        assert!(stats.blocks_freed >= 1, "stats: {stats:?}");
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
        let mut h = harness(TransformConfig { threshold_epochs: 1, ..Default::default() });
        let slots = insert_n(&h, 2000);
        insert_n(&h, h.table.layout().num_slots() as usize);

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let manager = Arc::clone(&h.manager);
        let table = Arc::clone(&h.table);
        let slots2 = slots.clone();
        let stop2 = Arc::clone(&stop);
        // Writer thread keeps updating while the pipeline transforms. Note
        // slots may be moved by compaction; updates then fail with
        // TupleNotVisible, which the writer tolerates by re-finding via scan
        // — here we simply skip, the integrity check is count-based.
        let writer = std::thread::spawn(move || {
            let mut rng = mainline_common::rng::Xoshiro256::seed_from_u64(5);
            let mut updated = 0u64;
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                let txn = manager.begin();
                let slot = slots2[rng.next_below(slots2.len() as u64) as usize];
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
        for _ in 0..50 {
            h.gc.run();
            h.pipeline.tick();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let updated = writer.join().unwrap();
        assert!(updated > 0);
        h.gc.run_to_quiescence();

        let check = h.manager.begin();
        assert_eq!(h.table.count_visible(&check), 2000 + h.table.layout().num_slots() as usize);
        h.manager.commit(&check);
    }

    #[test]
    fn sharded_coordinator_freezes_across_workers() {
        // Four shards, single-threaded driver: every cold block must still
        // freeze no matter which shard owns it, and per-worker stats must
        // sum to the aggregate.
        let mut h = harness(TransformConfig {
            threshold_epochs: 1,
            group_size: 4,
            workers: 4,
            ..Default::default()
        });
        let per_block = h.table.layout().num_slots() as usize;
        insert_n(&h, 6 * per_block);
        insert_n(&h, 1); // fresh active block
        for _ in 0..40 {
            h.gc.run();
            h.pipeline.tick();
            let (_hot, cooling, freezing, _frozen, _evicted) = h.pipeline.block_state_census();
            if cooling == 0 && freezing == 0 && h.pipeline.stats().blocks_frozen > 0 {
                break;
            }
        }
        h.gc.run_to_quiescence();
        let stats = h.pipeline.stats();
        assert!(stats.blocks_frozen >= 1, "stats: {stats:?}");
        let per_worker = h.pipeline.worker_stats();
        assert_eq!(per_worker.len(), 4);
        assert_eq!(
            per_worker.iter().map(|w| w.blocks_frozen).sum::<usize>(),
            stats.blocks_frozen,
            "per-worker freeze counts must sum to the aggregate"
        );
        assert_eq!(h.pipeline.pending_bytes(), 0, "drained pipeline holds no pending bytes");
        assert!(!h.pipeline.overloaded());

        let check = h.manager.begin();
        assert_eq!(h.table.count_visible(&check), 6 * per_block + 1);
        h.manager.commit(&check);
    }

    #[test]
    fn idle_workers_steal_from_loaded_queues() {
        // Compact with a full tick (survivors spray across both cooling
        // queues by block hash), then freeze exclusively from worker 1 —
        // anything parked on worker 0's queue must be stolen.
        let mut h = harness(TransformConfig {
            threshold_epochs: 1,
            group_size: 50,
            workers: 2,
            ..Default::default()
        });
        let per_block = h.table.layout().num_slots() as usize;
        insert_n(&h, 4 * per_block);
        insert_n(&h, 1);
        for _ in 0..30 {
            h.gc.run();
            h.pipeline.tick();
            let (_hot, cooling, _freezing, _frozen, _evicted) = h.pipeline.block_state_census();
            if cooling > 0 {
                break;
            }
        }
        let q0_loaded = h.pipeline.cooling_queue_bytes()[0] > 0;
        // Let GC prune the compaction versions, then drive only worker 1.
        for _ in 0..20 {
            h.gc.run();
            h.pipeline.worker_tick(1);
        }
        h.gc.run_to_quiescence();
        let stats = h.pipeline.stats();
        assert!(stats.blocks_frozen >= 1, "stats: {stats:?}");
        let per_worker = h.pipeline.worker_stats();
        // Every freeze after the switch ran on worker 1; whatever sat on
        // worker 0's queue can only have left it by being stolen.
        if q0_loaded {
            assert!(
                per_worker[1].blocks_stolen > 0,
                "worker 1 drained worker 0's queue without stealing: {per_worker:?}"
            );
        }
        let check = h.manager.begin();
        assert_eq!(h.table.count_visible(&check), 4 * per_block + 1);
        h.manager.commit(&check);
    }

    #[test]
    fn gauge_charges_measured_bytes_and_registry_shards_tables() {
        // A block far from full must charge far less than the flat 1 MB the
        // gauge used to assume; and registered tables must spread across
        // shard slices, rebalancing on removal.
        let mut h = harness(TransformConfig {
            threshold_epochs: 1,
            workers: 3,
            // Generous hard watermark so gating never trims the sweep here.
            backpressure_bytes: 64 * mainline_storage::raw_block::BLOCK_SIZE,
            ..Default::default()
        });
        assert_eq!(h.pipeline.tables_per_shard().iter().sum::<usize>(), 1);
        // Add two more tables: slices must stay balanced (1 each).
        let extra: Vec<_> = (0..2)
            .map(|i| {
                let t =
                    DataTable::new(10 + i, Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]))
                        .unwrap();
                h.pipeline.add_table(Arc::clone(&t), Arc::new(NoopHook));
                t
            })
            .collect();
        assert_eq!(h.pipeline.tables_per_shard(), vec![1, 1, 1]);
        assert!(h.pipeline.remove_table(&extra[0]));
        assert!(!h.pipeline.remove_table(&extra[0]), "second removal must report absence");
        assert_eq!(h.pipeline.tables_per_shard().iter().sum::<usize>(), 2);

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
            let sum: usize = h.pipeline.cooling_queue_bytes().iter().sum();
            assert_eq!(h.pipeline.pending_bytes(), sum, "gauge must equal queued entry sizes");
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
