//! Multi-worker transformation (paper §4.4 "Scaling Transformation").
//!
//! A single background thread transforms cold blocks serially; on a
//! write-heavy multi-core box it becomes the bottleneck the paper warns
//! about when data goes cold faster than one thread can freeze it. The
//! [`TransformCoordinator`] runs the pipeline of Fig. 8 as one work pool:
//! [`TransformConfig::workers`](crate::TransformConfig::workers) threads all
//! call the same [`TransformCoordinator::tick`].
//!
//! * **Per-table sweep claims** — a worker claims a registered table for a
//!   phase-1 sweep by swapping the table's last-swept GC epoch, so each
//!   table's block list is walked once per epoch, by one worker, however
//!   many workers tick. Blocks only *become* cold when the epoch advances.
//! * **One cooling queue** — phase-1 survivors join a single queue that
//!   every worker pops from one entry at a time, so phase 2 (the expensive
//!   gather/compress) spreads across the workers even when one table owns
//!   the whole cold set.
//! * **Backpressure** — every queued block charges its *measured* live bytes
//!   ([`Block::live_bytes`]) to a pending-bytes gauge. The write path
//!   consults [`TransformCoordinator::pressure`] to throttle ingest, and the
//!   sweep itself stops admitting new compaction groups once the gauge
//!   reaches [`TransformConfig::backpressure_bytes`], so the gauge never
//!   overshoots the hard watermark by more than one block per worker.
//!
//! The Fig. 9 correctness invariant — the COOLING flag is set *before* the
//! compaction transaction commits, and a block freezes only after its
//! version column scans clean — is per block, not per thread, so it holds
//! regardless of which worker compacts or freezes the block;
//! [`BlockStateMachine::assert_freeze_invariant`] checks it whenever any
//! worker completes a freeze.

use crate::access_observer::AccessObserver;
use crate::compaction::{self, TupleMoveStats};
use crate::dictionary;
use crate::gather;
use crate::pipeline::{MoveHook, TransformConfig, TransformFormat};
use mainline_common::timestamp::Timestamp;
use mainline_common::{Error, Result};
use mainline_gc::{DeferredBatch, DeferredQueue};
use mainline_obs::{MetricSet, MetricsSnapshot};
use mainline_storage::access;
use mainline_storage::block_state::{BlockState, BlockStateMachine};
use mainline_storage::raw_block::Block;
use mainline_storage::MemoryAccountant;
use mainline_txn::{DataTable, TransactionManager};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long a compaction transaction waits, with user `begin`s flowing,
/// for the user transactions that were running when it began (see
/// [`TransactionManager::commit_alone`]) before it aborts its group for a
/// later tick. No group is tried again until those have finished.
///
/// [`TransactionManager::commit_alone`]: mainline_txn::TransactionManager::commit_alone
const COMMIT_ALONE_TIMEOUT: Duration = Duration::from_millis(10);

mainline_obs::metric_set! {
    /// What a coordinator records, summed over its workers. The coordinator
    /// itself is the registered [`MetricSet`]: it adds the
    /// `transform_pending_bytes` gauge it keeps for backpressure.
    pub struct TransformMetrics {
        ticks: Counter("transform_ticks", "worker passes run"),
        groups_compacted:
            Counter("transform_groups_compacted", "compaction groups committed (phase 1)"),
        groups_aborted:
            Counter("transform_groups_aborted", "compaction transactions aborted on a conflict"),
        tuples_moved: Counter("transform_tuples_moved", "tuples moved by committed groups"),
        blocks_freed: Counter("transform_blocks_freed", "emptied blocks recycled"),
        blocks_frozen: Counter("transform_blocks_frozen", "blocks frozen (phase 2)"),
        preemptions:
            Counter("transform_preemptions", "cooling blocks a user write took back (Fig. 9)"),
        freeze_nanos:
            Histogram("transform_freeze_nanos", "wall-clock latency per completed block freeze"),
        cooling_dwell_nanos:
            Histogram("transform_cooling_dwell_nanos", "cooling enqueue to freeze/preempt dequeue"),
    }
}

struct TableEntry {
    table: Arc<DataTable>,
    hook: Arc<dyn MoveHook>,
    /// GC epoch of this table's last cold-candidate sweep. A worker claims
    /// the sweep by swapping in the current epoch: the cold set cannot have
    /// grown since the last sweep at the same epoch.
    swept_epoch: AtomicU64,
    /// Set when a sweep stopped early because the pending-bytes gauge hit
    /// the hard watermark; the next tick re-sweeps as soon as the gauge
    /// drops instead of waiting for a new GC epoch.
    sweep_incomplete: AtomicBool,
    /// At most one worker sweeps a table at a time (`try_lock`, skip if
    /// held). The epoch claim alone is not enough: when the epoch advances
    /// mid-sweep, another worker may claim the new epoch while the first is
    /// still compacting, and the two would form overlapping groups.
    sweep_lock: Mutex<()>,
}

/// How far behind phase 2 is, as seen by the write path (the §4.4 control
/// loop: worker → pending-bytes gauge → admission control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressureLevel {
    /// Pending bytes at or below the soft watermark (or backpressure
    /// disabled): admit writes at full speed.
    Clear,
    /// Between the soft and hard watermarks: writers should yield
    /// cooperatively and workers should tick eagerly.
    Soft,
    /// Above the hard watermark: writers may block (bounded) until the
    /// cooling backlog drains.
    Hard,
}

/// One entry parked in the cooling queue awaiting phase 2. `bytes` is the
/// measured footprint charged to the pending gauge at enqueue time; the
/// same figure is credited back when the entry leaves the queue, so the
/// gauge always equals the sum of queued entries' sizes.
struct CoolingEntry {
    /// Never read, but keeps the owning table — and therefore the block's
    /// layout — alive for as long as the block is queued, even if the table
    /// is deregistered mid-flight.
    _table: Arc<DataTable>,
    block: Arc<Block>,
    bytes: usize,
    /// When the entry joined the cooling queue (for the dwell histogram).
    /// A `NotYet` entry pushed back keeps it.
    enqueued: Instant,
}

/// The multi-worker transformation subsystem. Every worker thread calls
/// [`TransformCoordinator::tick`] on a cadence; single-threaded callers
/// (tests, benches) call the same method.
pub struct TransformCoordinator {
    manager: Arc<TransactionManager>,
    observer: Arc<AccessObserver>,
    deferred: Arc<DeferredQueue>,
    config: TransformConfig,
    /// The registered tables every worker's phase-1 sweep claims from.
    tables: Mutex<Vec<Arc<TableEntry>>>,
    /// Compacted blocks awaiting phase 2, shared by every worker.
    cooling: Mutex<VecDeque<CoolingEntry>>,
    /// Bytes parked in the cooling queue (the backpressure signal).
    pending_bytes: AtomicUsize,
    /// Bytes admitted by in-flight sweeps but not yet enqueued. The
    /// admission budget counts `pending_bytes + sweep_reserved`, so
    /// concurrent sweeps reading the gauge at the same instant cannot
    /// collectively blow past the watermark — total overshoot stays at one
    /// block per worker.
    sweep_reserved: AtomicUsize,
    /// Highest value the pending-bytes gauge ever reached.
    pending_high_water: AtomicUsize,
    metrics: TransformMetrics,
    /// Start timestamp of the latest compaction transaction that could not
    /// commit; user transactions older than it hold back new attempts.
    blocked_by: AtomicU64,
    /// Emptied blocks still attached until older transactions are gone;
    /// never compaction candidates again.
    retiring: Arc<Mutex<HashSet<usize>>>,
    /// The cold-block buffer manager's accountant, when the database layer
    /// runs one: every freeze charges the block's measured bytes to the
    /// resident gauge (the eviction clock's input). Unset = no accounting.
    accountant: OnceLock<Arc<MemoryAccountant>>,
}

impl TransformCoordinator {
    /// Build a coordinator sharing the GC's observer and deferred queue.
    pub fn new(
        manager: Arc<TransactionManager>,
        observer: Arc<AccessObserver>,
        deferred: Arc<DeferredQueue>,
        config: TransformConfig,
    ) -> Self {
        TransformCoordinator {
            manager,
            observer,
            deferred,
            config,
            tables: Mutex::new(Vec::new()),
            cooling: Mutex::new(VecDeque::new()),
            pending_bytes: AtomicUsize::new(0),
            sweep_reserved: AtomicUsize::new(0),
            pending_high_water: AtomicUsize::new(0),
            metrics: TransformMetrics::default(),
            blocked_by: AtomicU64::new(0),
            retiring: Arc::default(),
            accountant: OnceLock::new(),
        }
    }

    /// Attach the memory accountant freezes should charge (see
    /// [`mainline_storage::MemoryAccountant`]). Called once by the database
    /// layer; a second call panics.
    pub fn set_accountant(&self, accountant: Arc<MemoryAccountant>) {
        assert!(self.accountant.set(accountant).is_ok(), "memory accountant attached twice");
    }

    /// The configuration this coordinator runs with.
    pub fn config(&self) -> &TransformConfig {
        &self.config
    }

    /// Register a table for transformation (the paper targets only tables
    /// that generate cold data, §6.1).
    pub fn add_table(&self, table: Arc<DataTable>, hook: Arc<dyn MoveHook>) {
        self.tables.lock().push(Arc::new(TableEntry {
            table,
            hook,
            swept_epoch: AtomicU64::new(u64::MAX),
            sweep_incomplete: AtomicBool::new(false),
            sweep_lock: Mutex::new(()),
        }));
    }

    /// Deregister a table (dropped tables must stop being swept). Entries
    /// already parked in the cooling queue are left to freeze or preempt
    /// normally — they hold their own `Arc<DataTable>`. Returns whether the
    /// table was registered.
    pub fn remove_table(&self, table: &Arc<DataTable>) -> bool {
        let mut tables = self.tables.lock();
        let before = tables.len();
        tables.retain(|e| !Arc::ptr_eq(&e.table, table));
        tables.len() != before
    }

    /// Unregister every table. Shutdown calls this: a table's move hook
    /// may hold the table's handle, whose admission controller holds this
    /// coordinator, and that cycle would otherwise keep every registered
    /// table — blocks, indexes, varlen buffers — alive after the database
    /// is dropped.
    pub fn clear_tables(&self) {
        self.tables.lock().clear();
    }

    /// Number of registered tables.
    pub fn table_count(&self) -> usize {
        self.tables.lock().len()
    }

    /// Number of worker threads the database layer runs
    /// ([`TransformConfig::workers`], at least one).
    pub fn workers(&self) -> usize {
        self.config.workers.max(1)
    }

    /// This coordinator's metrics, summed over its workers.
    pub fn metrics(&self) -> &TransformMetrics {
        &self.metrics
    }

    /// Bytes currently parked in the cooling queue awaiting phase 2.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes.load(Ordering::Relaxed)
    }

    /// Highest value the pending-bytes gauge ever reached. The sweep's
    /// admission budget bounds this to the hard watermark plus at most one
    /// block's measured bytes per worker.
    pub fn pending_high_water(&self) -> usize {
        self.pending_high_water.load(Ordering::Relaxed)
    }

    /// Sum of the cooling queue's entry sizes. Invariant (tested by the
    /// root proptest battery): whenever no tick is running, this equals
    /// [`pending_bytes`](Self::pending_bytes).
    pub fn cooling_queue_bytes(&self) -> usize {
        self.cooling.lock().iter().map(|e| e.bytes).sum()
    }

    /// Graduated backpressure signal for the write path. Soft watermark is
    /// half the hard one ([`TransformConfig::soft_backpressure_bytes`]); a
    /// zero hard watermark disables backpressure entirely.
    pub fn pressure(&self) -> BackpressureLevel {
        let hard = self.config.backpressure_bytes;
        if hard == 0 {
            return BackpressureLevel::Clear;
        }
        let pending = self.pending_bytes();
        if pending > hard {
            BackpressureLevel::Hard
        } else if pending > self.config.soft_backpressure_bytes() {
            BackpressureLevel::Soft
        } else {
            BackpressureLevel::Clear
        }
    }

    /// Backpressure signal for the write path: true while the cooling
    /// backlog exceeds the configured hard watermark, i.e. freezing is not
    /// keeping up with the rate at which data goes cold. Always false when
    /// [`TransformConfig::backpressure_bytes`] is zero (disabled).
    pub fn overloaded(&self) -> bool {
        matches!(self.pressure(), BackpressureLevel::Hard)
    }

    /// Fraction of each registered table's blocks per state:
    /// `(hot, cooling, freezing, frozen, evicted)` counts (Fig. 10b's
    /// metric, extended with the buffer manager's residency arm). A block
    /// mid-fault counts as evicted — its content is still on disk.
    pub fn block_state_census(&self) -> (usize, usize, usize, usize, usize) {
        // Walk the block lists outside the registry lock: sweeps snapshot
        // the registry too, and pollers call this on a cadence.
        let entries: Vec<Arc<TableEntry>> = self.tables.lock().clone();
        let mut census = (0, 0, 0, 0, 0);
        for entry in entries {
            for b in entry.table.blocks() {
                match BlockStateMachine::state(b.header()) {
                    BlockState::Hot => census.0 += 1,
                    BlockState::Cooling => census.1 += 1,
                    BlockState::Freezing => census.2 += 1,
                    BlockState::Frozen => census.3 += 1,
                    BlockState::Evicted | BlockState::Faulting => census.4 += 1,
                }
            }
        }
        census
    }

    /// One worker pass: advance the cooling queue toward frozen, then claim
    /// and sweep the tables not yet swept at the current GC epoch, compacting
    /// their cold blocks. Safe to call from any number of threads at once.
    /// Returns true when the tick made progress (froze, preempted, or
    /// compacted something) so drivers can back off when idle.
    pub fn tick(&self) -> bool {
        self.metrics.ticks.inc();
        // Batch this tick's deferred actions: one queue-lock per tick
        // instead of one per frozen block.
        let mut batch = self.deferred.batch();
        let advanced = self.advance_cooling(&mut batch);
        let compacted = self.compact_cold(&mut batch);
        batch.flush();
        advanced + compacted > 0
    }

    /// Phase-2 driver: freeze cooling blocks whose version column is clean.
    /// Pops one entry at a time, at most as many as were queued on entry, so
    /// concurrent workers split the queue between them; entries not yet
    /// freezable go back to the queue afterwards. Returns how many entries
    /// left the queue for good (frozen or preempted).
    fn advance_cooling(&self, batch: &mut DeferredBatch<'_>) -> usize {
        let seen = self.cooling.lock().len();
        let mut done = 0;
        let mut keep = Vec::new();
        for _ in 0..seen {
            let Some(entry) = self.cooling.lock().pop_front() else { break };
            let t0 = Instant::now();
            match self.try_freeze(&entry.block, batch) {
                FreezeOutcome::Frozen => {
                    let took = t0.elapsed();
                    self.pending_bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
                    self.metrics.blocks_frozen.inc();
                    self.metrics.freeze_nanos.observe_duration(took);
                    self.metrics.cooling_dwell_nanos.observe_duration(entry.enqueued.elapsed());
                    mainline_obs::record_event(
                        mainline_obs::kind::FREEZE,
                        entry.bytes as u64,
                        took.as_nanos() as u64,
                    );
                    done += 1;
                }
                FreezeOutcome::Preempted => {
                    // A user transaction flipped the block back to hot
                    // (Fig. 9's legal race); the observer will re-queue it.
                    self.pending_bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
                    self.metrics.preemptions.inc();
                    self.metrics.cooling_dwell_nanos.observe_duration(entry.enqueued.elapsed());
                    done += 1;
                }
                FreezeOutcome::NotYet => keep.push(entry),
            }
        }
        if !keep.is_empty() {
            self.cooling.lock().extend(keep);
        }
        done
    }

    fn try_freeze(&self, block: &Arc<Block>, batch: &mut DeferredBatch<'_>) -> FreezeOutcome {
        let h = block.header();
        if BlockStateMachine::state(h) != BlockState::Cooling {
            return FreezeOutcome::Preempted;
        }
        // Scan the version column: any live version means a transaction
        // overlapping the compaction transaction may still race us.
        let layout = block.layout();
        unsafe {
            for slot in 0..layout.num_slots() {
                if access::load_version(block.as_ptr(), layout, slot) != 0 {
                    return FreezeOutcome::NotYet;
                }
            }
        }
        // The cooling sentinel catches any modification since the scan; the
        // writer count inside `begin_freezing` catches in-flight writers
        // that passed their status check before we flipped the flag.
        if !BlockStateMachine::begin_freezing(h) {
            return FreezeOutcome::Preempted;
        }
        // Re-scan under the exclusive lock: a writer may have installed and
        // completed between the first scan and the CAS.
        unsafe {
            for slot in 0..layout.num_slots() {
                if access::load_version(block.as_ptr(), layout, slot) != 0 {
                    h.set_state_raw(BlockState::Hot as u32);
                    return FreezeOutcome::NotYet;
                }
            }
        }
        let displaced = unsafe {
            match self.config.format {
                TransformFormat::Gather => gather::gather_block(block),
                TransformFormat::Dictionary => dictionary::compress_block(block),
            }
        };
        // Stamp the new frozen content *before* publishing the state: any
        // reader (checkpoint included) that observes Frozen must observe the
        // matching stamp.
        block.stamp_freeze();
        // Charge the frozen content to the buffer manager's resident gauge
        // while the block is still exclusively `Freezing` — no writer can
        // thaw it before the charge lands, so every thaw observes the
        // charge. The charge rides on the block (idempotently taken back on
        // thaw or drop), so the accountant's books always balance per block.
        if let Some(acc) = self.accountant.get() {
            let stale = block.take_charged_bytes();
            if stale > 0 {
                // A thaw the writer's state peek missed (freeze slid in
                // between peek and acquire): settle it now.
                acc.on_thaw(stale);
            }
            let bytes = block.live_bytes() as u64;
            block.set_charged_bytes(bytes);
            acc.on_freeze(bytes);
        }
        // `finish_freezing` re-checks the Fig. 9 invariant regardless of
        // which worker got here.
        BlockStateMachine::finish_freezing(h);
        // Readers may hold copies of the displaced entries until the epoch
        // turns over (§4.4 "Memory Management").
        let ts = self.manager.oracle().next();
        batch.defer(ts, move || unsafe { displaced.free() });
        FreezeOutcome::Frozen
    }

    /// Phase-1 driver: claim each registered table not yet swept at the
    /// current GC epoch (or whose last sweep the budget cut short), sweep it
    /// for cold blocks, group and compact them within the pending-bytes
    /// budget. Returns how many groups were attempted.
    fn compact_cold(&self, batch: &mut DeferredBatch<'_>) -> usize {
        let epoch = self.observer.epoch();
        let hard = self.config.backpressure_bytes;
        // The admission budget counts the gauge plus peer sweeps'
        // reservations, so racing workers cannot collectively overshoot.
        let budget_spent = || self.pending_bytes() + self.sweep_reserved.load(Ordering::Relaxed);
        let entries: Vec<Arc<TableEntry>> = self.tables.lock().clone();
        let mut attempted = 0;
        for entry in entries {
            // Phase 2 must drain first. Tables not claimed yet keep their
            // old epoch, so a later tick sweeps them once the gauge drops.
            if hard != 0 && budget_spent() >= hard {
                break;
            }
            // Skip a table another worker is sweeping (it claimed an earlier
            // epoch): compaction groups must stay disjoint across workers.
            let Some(_table_guard) = entry.sweep_lock.try_lock() else { continue };
            let fresh_epoch = entry.swept_epoch.swap(epoch, Ordering::Relaxed) != epoch;
            let retry = entry.sweep_incomplete.swap(false, Ordering::Relaxed);
            if !fresh_epoch && !retry {
                continue;
            }
            let table = &entry.table;
            // Hot blocks only: the compaction sweep and the eviction clock
            // are disjoint by state — compaction touches Hot, the evictor
            // touches Frozen (and Evicted/Faulting blocks belong to the
            // buffer manager until faulted back). A cooling-queue entry is
            // Cooling, so it can never simultaneously be an eviction target.
            let retiring = self.retiring.lock().clone();
            let cold: Vec<Arc<Block>> = table
                .blocks()
                .into_iter()
                .filter(|b| {
                    BlockStateMachine::state(b.header()) == BlockState::Hot
                        && !table.is_active_block(b.as_ptr())
                        && !retiring.contains(&(b.as_ptr() as usize))
                        && self.observer.is_cold(b.as_ptr(), self.config.threshold_epochs)
                })
                .collect();
            let mut idx = 0;
            while idx < cold.len() {
                if hard != 0 && budget_spent() >= hard {
                    entry.sweep_incomplete.store(true, Ordering::Relaxed);
                    return attempted;
                }
                // Form one group: up to `group_size` blocks, each reserved
                // against the budget before it is admitted (blocks are
                // measured lazily — a budget-truncated sweep never scans
                // the tail it cannot admit). The first block of a group is
                // always admitted — the gate above guarantees the budget
                // started below the watermark — so overshoot is bounded by
                // one block per concurrently-sweeping worker.
                let mut group = Vec::new();
                let mut group_reserved = 0usize;
                let mut over_budget = false;
                while idx < cold.len() && group.len() < self.config.group_size.max(1) {
                    let b = &cold[idx];
                    let bytes = b.live_bytes();
                    if hard != 0 {
                        let prev = self.sweep_reserved.fetch_add(bytes, Ordering::Relaxed);
                        if !group.is_empty() && self.pending_bytes() + prev + bytes > hard {
                            self.sweep_reserved.fetch_sub(bytes, Ordering::Relaxed);
                            over_budget = true;
                            break;
                        }
                    }
                    group_reserved += bytes;
                    group.push(Arc::clone(b));
                    idx += 1;
                }
                if group.is_empty() {
                    break;
                }
                let result = self.compact_group(table, &*entry.hook, &group, batch);
                // Release the reservation only after the survivors' real
                // bytes are on the gauge (briefly double-counted, which
                // errs on the conservative side).
                self.sweep_reserved.fetch_sub(group_reserved, Ordering::Relaxed);
                match result {
                    Ok(stats) => {
                        attempted += 1;
                        self.metrics.groups_compacted.inc();
                        self.metrics.tuples_moved.add(stats.tuples_moved as u64);
                        self.metrics.blocks_freed.add(stats.blocks_freed as u64);
                    }
                    Err(_) => {
                        // A group that lost to a user transaction ends the
                        // sweep: the next tick retries its blocks, instead
                        // of this one repeating the moves behind the same
                        // long-running transaction.
                        self.metrics.groups_aborted.inc();
                        return attempted + 1;
                    }
                }
                if over_budget {
                    entry.sweep_incomplete.store(true, Ordering::Relaxed);
                    return attempted;
                }
            }
        }
        attempted
    }

    /// Compact one group; on success, its surviving blocks join the cooling
    /// queue (each charging its measured bytes to the gauge) and emptied
    /// blocks are detached for recycling.
    fn compact_group(
        &self,
        table: &Arc<DataTable>,
        hook: &dyn MoveHook,
        group: &[Arc<Block>],
        batch: &mut DeferredBatch<'_>,
    ) -> Result<TupleMoveStats> {
        // A user transaction that already outlasted a failed attempt's
        // wait would only make this one fail too: skip the moves.
        let blocked_by = Timestamp(self.blocked_by.load(Ordering::Relaxed));
        if self.manager.oldest_user_start().is_some_and(|start| start < blocked_by) {
            return Err(Error::WriteWriteConflict);
        }
        let plan = compaction::plan_approximate(group);
        let txn = self.manager.begin_yielding();
        let result = compaction::execute_plan(table, &txn, &plan, |txn, from, to, row| {
            hook.on_move(txn, from, to, row)
        });
        let mut stats = match result {
            Ok(s) => s,
            Err(e) => {
                self.manager.abort(&txn);
                return Err(e);
            }
        };
        // The compaction transaction commits while no user transaction runs
        // (§4.3: it is the one that backs off), so none can find a moved
        // tuple deleted after its snapshot. Fig. 9's fix: flip to cooling
        // *before* it commits, so racers must overlap it. This ordering is
        // what the freeze invariant relies on, per block group, whichever
        // worker runs the group.
        let committed = self.manager.commit_alone(&txn, COMMIT_ALONE_TIMEOUT, || {
            for b in group {
                if !plan.emptied.contains(&(b.as_ptr() as *const u8)) {
                    BlockStateMachine::begin_cooling(b.header());
                }
            }
        });
        if committed.is_none() {
            self.blocked_by.fetch_max(txn.start_ts().0, Ordering::Relaxed);
            self.manager.abort(&txn);
            return Err(Error::WriteWriteConflict);
        }
        compaction::publish_insert_heads(&plan);

        // Queue survivors for freezing, each charging its measured
        // post-compaction bytes.
        for b in group {
            if !plan.emptied.contains(&(b.as_ptr() as *const u8)) {
                let bytes = b.live_bytes();
                let now = self.pending_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
                self.pending_high_water.fetch_max(now, Ordering::Relaxed);
                self.cooling.lock().push_back(CoolingEntry {
                    _table: Arc::clone(table),
                    block: Arc::clone(b),
                    bytes,
                    enqueued: Instant::now(),
                });
            }
        }
        // Recycle emptied blocks. A transaction that began before the
        // commit may still read the moved tuples there, so detach them only
        // once every such transaction is gone; free their varlen leftovers
        // and the memory itself an epoch later, once no scan holds them.
        if !plan.emptied.is_empty() {
            stats.blocks_freed = plan.emptied.len();
            let emptied: Vec<usize> = plan.emptied.iter().map(|&b| b as usize).collect();
            self.retiring.lock().extend(&emptied);
            let (table, manager) = (Arc::clone(table), Arc::clone(&self.manager));
            let (deferred, observer) = (Arc::clone(&self.deferred), Arc::clone(&self.observer));
            let retiring = Arc::clone(&self.retiring);
            batch.defer(self.manager.oracle().next(), move || {
                let victims: Vec<*const u8> = emptied.iter().map(|&b| b as *const u8).collect();
                let detached = table.detach_blocks(&victims);
                let mut retiring = retiring.lock();
                for &b in &victims {
                    observer.forget(b);
                    retiring.remove(&(b as usize));
                }
                let ts = manager.oracle().next();
                deferred.defer(ts, move || unsafe { free_block_varlens(&detached) });
            });
        }
        Ok(stats)
    }

    /// Shutdown helper: freeze whatever is still parked in the cooling queue
    /// without starting new compactions (new compaction transactions could
    /// not have their versions pruned once the GC thread is gone). Call
    /// after the GC has quiesced; returns true when the queue drained.
    pub fn drain_cooling(&self, max_iters: usize) -> bool {
        for _ in 0..max_iters {
            let mut batch = self.deferred.batch();
            self.advance_cooling(&mut batch);
            batch.flush();
            if self.cooling.lock().is_empty() {
                return true;
            }
        }
        self.cooling.lock().is_empty()
    }
}

impl MetricSet for TransformCoordinator {
    fn collect(&self, snap: &mut MetricsSnapshot) {
        self.metrics.collect(snap);
        snap.push_gauge("transform_pending_bytes", self.pending_bytes() as i64);
    }
}

enum FreezeOutcome {
    Frozen,
    Preempted,
    NotYet,
}

/// Free all owned varlen buffers left in detached blocks, then drop them.
///
/// # Safety
/// Must run after the GC epoch proves no reader can reach the blocks.
unsafe fn free_block_varlens(blocks: &[Arc<Block>]) {
    for b in blocks {
        let layout = b.layout();
        for col in layout.varlen_cols() {
            for slot in 0..layout.num_slots() {
                let e = access::read_varlen(b.as_ptr(), layout, slot, col);
                e.free_buffer();
                access::write_varlen(
                    b.as_ptr(),
                    layout,
                    slot,
                    col,
                    mainline_storage::VarlenEntry::empty(),
                );
            }
        }
        for col_data in b.arrow.take_all() {
            drop(col_data);
        }
    }
}
