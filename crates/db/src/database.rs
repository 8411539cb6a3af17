//! The assembled DBMS: transaction manager + GC thread + log manager +
//! transformation pipeline, in the configuration §6.1 uses ("one logging
//! thread, one transformation thread, and one GC thread for every 8 worker
//! threads" — thread counts are configurable here). Transformation runs as
//! a multi-worker subsystem: [`TransformConfig::workers`] threads ticking
//! one shared coordinator, joined and drained in order at shutdown.
//! Its pending-bytes gauge feeds the per-database [`AdmissionController`],
//! which throttles every write entry point when freezing falls behind
//! (§4.4's control loop).

use crate::admission::{AdmissionController, AdmissionStats};
use crate::catalog::Catalog;
use crate::table_handle::{IndexMoveHook, IndexSpec, TableHandle};
use mainline_checkpoint::{
    chain_generations, compact_chain, write_checkpoint_anchored, CheckpointStats, CompactionPolicy,
    CompactionStats,
};
use mainline_common::schema::Schema;
use mainline_common::{Error, Profile, Result};
use mainline_gc::collector::ModificationObserver;
use mainline_gc::{DeferredQueue, GarbageCollector};
use mainline_obs::{Histogram, MetricSet, MetricsRegistry, MetricsSnapshot};
use mainline_storage::block_state::{BlockState, BlockStateMachine};
use mainline_storage::{evict_block, MemoryAccountant, MemoryStats};
use mainline_transform::{
    AccessObserver, BackpressureLevel, TransformConfig, TransformCoordinator,
};
use mainline_txn::{CommitSink, FaultHandler, TransactionManager};
use mainline_wal::{LogManager, LogManagerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Background checkpointing (see [`mainline_checkpoint`]).
///
/// The trigger is **WAL growth**: once [`wal_growth_bytes`] of new log have
/// accumulated since the last checkpoint, the checkpoint thread snapshots
/// every table and — when [`truncate_wal`] is set — drops the WAL segments
/// the snapshot covers. The thread respects the §4.4 control loop: while the
/// transformation pipeline reports backpressure it *defers* (a checkpoint
/// holds a transaction open for its whole walk, which pins GC pruning — the
/// very thing a stalled writer is waiting on — so checkpointing into a
/// stall would amplify it).
///
/// [`wal_growth_bytes`]: CheckpointConfig::wal_growth_bytes
/// [`truncate_wal`]: CheckpointConfig::truncate_wal
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint root directory (`CURRENT` + `ckpt-<ts>/` live here).
    pub dir: PathBuf,
    /// Take a checkpoint after this many bytes of WAL growth.
    pub wal_growth_bytes: u64,
    /// How often the trigger thread re-reads the WAL byte counter.
    pub poll_interval: Duration,
    /// Drop fully-covered WAL segments after each successful checkpoint.
    /// Requires [`LogManagerConfig::segment_bytes`] rotation to have any
    /// effect (the active segment is never dropped).
    pub truncate_wal: bool,
}

impl CheckpointConfig {
    /// Checkpoint into `dir`, every 64 MB of WAL growth (or the engine
    /// profile's [`checkpoint_bytes`](Profile::checkpoint_bytes)),
    /// truncating covered segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            wal_growth_bytes: Profile::current().checkpoint_bytes.unwrap_or(64 << 20),
            poll_interval: Duration::from_millis(25),
            truncate_wal: true,
        }
    }
}

/// The profile's forced chain-GC policy (see [`Profile::compaction`]).
fn profile_compaction_policy() -> Option<CompactionPolicy> {
    let (min_dead_ratio, tier_merge_count) = Profile::current().compaction?;
    Some(CompactionPolicy { min_dead_ratio, tier_merge_count, ..CompactionPolicy::default() })
}

/// Database configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// WAL file; `None` disables logging.
    pub log_path: Option<PathBuf>,
    /// fsync after group commits.
    pub fsync: bool,
    /// WAL segment-rotation budget override; `None` keeps
    /// [`LogManagerConfig::new`]'s default (the engine profile's, else no
    /// rotation).
    pub wal_segment_bytes: Option<u64>,
    /// Background checkpointing; `None` disables it — unless logging is on
    /// *and* the engine profile sets
    /// [`checkpoint_bytes`](Profile::checkpoint_bytes), in which case a forced
    /// write-only configuration (no WAL truncation, so full-log replay
    /// stays valid) is derived next to the log file. CI uses the forced
    /// mode to run the checkpoint write path under the whole test suite.
    pub checkpoint: Option<CheckpointConfig>,
    /// Size-tiered GC for the checkpoint chain (see
    /// [`mainline_checkpoint::compact`]). A pass runs after every successful
    /// checkpoint, under the lock that serializes checkpoints, so the
    /// compactor never races the writer. `None` disables it — unless the
    /// engine profile forces [`compaction`](Profile::compaction), which CI
    /// uses to run the compactor under the whole suite. Requires
    /// checkpointing.
    pub compaction: Option<CompactionPolicy>,
    /// GC cadence (the paper runs GC every ~10 ms).
    pub gc_interval: Duration,
    /// Transformation pipeline settings; `None` disables transformation.
    pub transform: Option<TransformConfig>,
    /// Pipeline tick cadence. The worker *count* lives in
    /// [`TransformConfig::workers`] (§4.4 "Scaling Transformation").
    pub transform_interval: Duration,
    /// Frozen-content memory budget in bytes for the cold-block buffer
    /// manager; `None` falls back to the engine profile's
    /// [`memory_budget_bytes`](Profile::memory_budget_bytes), else
    /// unlimited. The eviction clock runs only when a budget is set *and*
    /// checkpointing is configured (evicting a block requires a durable
    /// on-disk home for its bytes).
    pub memory_budget_bytes: Option<u64>,
    /// Structured-event tracing (the `mainline-obs` event ring): `Some(on)`
    /// forces it, `None` defers to the engine profile
    /// ([`events`](Profile::events)). Counters and histograms are *always* on,
    /// and each database's stay its own. This knob gates only event
    /// recording, and the ring is still process-wide: the last database
    /// opened wins when several coexist, and they share one trace.
    pub observability: Option<bool>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            log_path: None,
            fsync: false,
            wal_segment_bytes: None,
            checkpoint: None,
            compaction: None,
            gc_interval: Duration::from_millis(10),
            transform: None,
            transform_interval: Duration::from_millis(10),
            memory_budget_bytes: None,
            observability: None,
        }
    }
}

/// A running database instance.
pub struct Database {
    manager: Arc<TransactionManager>,
    catalog: Arc<Catalog>,
    deferred: Arc<DeferredQueue>,
    observer: Arc<AccessObserver>,
    pipeline: Option<Arc<TransformCoordinator>>,
    admission: Arc<AdmissionController>,
    log: Option<Arc<LogManager>>,
    /// Checkpointing and chain GC; `None` when checkpointing is off.
    checkpointer: Option<Arc<Checkpointer>>,
    /// Separate stop flags: the GC must keep running until every transform
    /// worker has *joined*, so a worker's final compaction transaction still
    /// gets its versions pruned by the GC's quiescence pass (otherwise the
    /// shutdown drain could never freeze those blocks). The checkpoint
    /// thread stops first of all — a checkpoint must never race shutdown's
    /// drain.
    stop_transform: Arc<AtomicBool>,
    stop_gc: Arc<AtomicBool>,
    stop_checkpoint: Arc<AtomicBool>,
    stop_evictor: Arc<AtomicBool>,
    transform_workers: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    gc_thread: parking_lot::Mutex<Option<JoinHandle<()>>>,
    checkpoint_thread: parking_lot::Mutex<Option<JoinHandle<()>>>,
    evictor_thread: parking_lot::Mutex<Option<JoinHandle<()>>>,
    /// Cold-block buffer manager books (always present; unlimited budget
    /// when none is configured, in which case the clock never runs).
    accountant: Arc<MemoryAccountant>,
    /// Hooks run (once) at the very top of [`shutdown`](Self::shutdown),
    /// before any engine thread stops. The network frontend registers its
    /// drain here: in-flight responses must finish while the transaction
    /// manager, GC, and WAL are all still up.
    pre_shutdown: parking_lot::Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    /// The metric sets of this database's subsystems (and of the servers
    /// that ever served it).
    metrics: MetricsRegistry,
}

impl Database {
    /// Boot a database.
    pub fn open(config: DbConfig) -> Result<Arc<Database>> {
        Self::open_internal(config, true)
    }

    /// [`open`](Self::open), with the checkpoint trigger optionally left
    /// unarmed — restart arms it only after replay completes.
    pub(crate) fn open_internal(
        config: DbConfig,
        start_checkpoint_trigger: bool,
    ) -> Result<Arc<Database>> {
        mainline_obs::set_events_enabled(config.observability.unwrap_or(Profile::current().events));
        let log = match &config.log_path {
            Some(path) => {
                let mut lm_config =
                    LogManagerConfig { fsync: config.fsync, ..LogManagerConfig::new(path) };
                if let Some(seg) = config.wal_segment_bytes {
                    lm_config.segment_bytes = seg;
                }
                Some(LogManager::start(lm_config)?)
            }
            None => None,
        };
        let manager = Arc::new(match &log {
            Some(lm) => TransactionManager::with_sink(Arc::clone(lm) as Arc<dyn CommitSink>),
            None => TransactionManager::new(),
        });
        let mut gc = GarbageCollector::new(Arc::clone(&manager));
        let deferred = gc.deferred();
        let observer = Arc::new(AccessObserver::new());
        gc.add_observer(Arc::clone(&observer) as Arc<dyn ModificationObserver>);

        let pipeline = config.transform.clone().map(|cfg| {
            Arc::new(TransformCoordinator::new(
                Arc::clone(&manager),
                Arc::clone(&observer),
                Arc::clone(&deferred),
                cfg,
            ))
        });

        let stop_transform = Arc::new(AtomicBool::new(false));
        let stop_gc = Arc::new(AtomicBool::new(false));

        // GC thread.
        let gc_thread = {
            let stop = Arc::clone(&stop_gc);
            let interval = config.gc_interval;
            std::thread::Builder::new()
                .name("gc".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        gc.run();
                        std::thread::sleep(interval);
                    }
                    gc.run_to_quiescence();
                })
                .expect("spawn gc")
        };
        // Transformation workers: a pool of threads ticking the one
        // coordinator.
        let mut transform_workers = Vec::new();
        if let Some(pipeline) = &pipeline {
            for i in 0..pipeline.workers() {
                let stop = Arc::clone(&stop_transform);
                let pipeline = Arc::clone(pipeline);
                let interval = config.transform_interval;
                transform_workers.push(
                    std::thread::Builder::new()
                        .name(format!("transform-{i}"))
                        .spawn(move || {
                            while !stop.load(Ordering::Relaxed) {
                                // Keep ticking while there is work; sleep
                                // the cadence only when the pool is idle —
                                // a shortened cadence under backpressure
                                // (the admission control loop's "hurry"
                                // hint: draining the cooling queue is what
                                // un-stalls writers).
                                if !pipeline.tick() {
                                    let nap = match pipeline.pressure() {
                                        BackpressureLevel::Clear => interval,
                                        _ => (interval / 8).max(Duration::from_micros(50)),
                                    };
                                    std::thread::sleep(nap);
                                }
                            }
                        })
                        .expect("spawn transform"),
                );
            }
        }

        let admission = Arc::new(AdmissionController::new(pipeline.clone()));
        let catalog = Arc::new(Catalog::new(
            Arc::clone(&manager),
            Arc::clone(&deferred),
            Arc::clone(&admission),
        ));

        // Checkpointing: explicit config wins; otherwise the forced mode
        // derives a write-only (never-truncating) configuration from the
        // engine profile's `checkpoint_bytes` so CI can run the
        // checkpoint write path under the whole suite without invalidating
        // tests that replay the full log.
        let checkpoint_cfg = config.checkpoint.clone().or_else(|| {
            let growth = Profile::current().checkpoint_bytes?;
            let log_path = config.log_path.as_ref()?;
            Some(CheckpointConfig {
                dir: log_path.with_extension("ckpt"),
                wal_growth_bytes: growth,
                poll_interval: Duration::from_millis(25),
                truncate_wal: false,
            })
        });

        // Compaction rides on checkpointing (a pass runs after each
        // successful checkpoint, under the same lock): explicit config wins,
        // else the profile's forced policy, and either is meaningless
        // without a chain to compact.
        let checkpointer = checkpoint_cfg.map(|cfg| {
            Arc::new(Checkpointer {
                cfg,
                compaction: config.compaction.clone().or_else(profile_compaction_policy),
                manager: Arc::clone(&manager),
                catalog: Arc::clone(&catalog),
                log: log.clone(),
                lock: parking_lot::Mutex::new(()),
                baseline: AtomicU64::new(0),
                metrics: CheckpointMetrics::default(),
            })
        });
        let stop_checkpoint = Arc::new(AtomicBool::new(false));

        // Cold-block buffer manager: the accountant always exists (so
        // `memory_stats()` always reports), the transform pipeline charges
        // freezes into it, and — only with checkpointing configured — every
        // table gets the fault path back out of the checkpoint chain. The
        // eviction clock itself starts further down, only under a budget.
        let memory_budget = config.memory_budget_bytes.or(Profile::current().memory_budget_bytes);
        let accountant = Arc::new(MemoryAccountant::new(memory_budget));
        if let Some(pipeline) = &pipeline {
            pipeline.set_accountant(Arc::clone(&accountant));
        }
        let metrics = MetricsRegistry::default();
        if let Some(ck) = &checkpointer {
            let root = ck.cfg.dir.clone();
            // Demand-paging latency: evicted block claim through republish.
            let fault_nanos = Arc::new(Histogram::new("buffer_fault_nanos"));
            metrics.add(fault_nanos.clone());
            let handler: FaultHandler = Arc::new(move |table, block| {
                let start = Instant::now();
                let faulted = mainline_checkpoint::fault_in_block(&root, table, block)?;
                if faulted {
                    fault_nanos.observe_duration(start.elapsed());
                }
                Ok(faulted)
            });
            catalog.set_residency(handler, Arc::clone(&accountant));
            metrics.add(ck.clone());
        }
        metrics.add(manager.metrics().clone());
        if let Some(log) = &log {
            metrics.add(log.metrics().clone());
        }
        if let Some(pipeline) = &pipeline {
            metrics.add(pipeline.clone());
        }
        metrics.add(admission.clone());
        metrics.add(accountant.clone());
        metrics.add(catalog.index_metrics().clone());

        let stop_evictor = Arc::new(AtomicBool::new(false));
        let evictor_thread = if memory_budget.is_some() && checkpointer.is_some() {
            Some(spawn_evictor(
                Arc::clone(&accountant),
                Arc::clone(&catalog),
                Arc::clone(&manager),
                Arc::clone(&deferred),
                Arc::clone(&stop_evictor),
            ))
        } else {
            None
        };

        let db = Arc::new(Database {
            manager,
            catalog,
            deferred,
            observer,
            pipeline,
            admission,
            log,
            checkpointer,
            stop_transform,
            stop_gc,
            stop_checkpoint,
            stop_evictor,
            transform_workers: parking_lot::Mutex::new(transform_workers),
            gc_thread: parking_lot::Mutex::new(Some(gc_thread)),
            checkpoint_thread: parking_lot::Mutex::new(None),
            evictor_thread: parking_lot::Mutex::new(evictor_thread),
            accountant,
            pre_shutdown: parking_lot::Mutex::new(Vec::new()),
            metrics,
        });
        if start_checkpoint_trigger {
            db.start_checkpoint_trigger();
        }
        Ok(db)
    }

    /// Arm the background checkpoint trigger (no-op when checkpointing or
    /// logging is off, or when it is already armed). Restart calls this only
    /// after replay completes — a trigger firing mid-restore would publish a
    /// checkpoint of a half-restored database and prune the very image being
    /// restored from.
    pub(crate) fn start_checkpoint_trigger(&self) {
        let mut slot = self.checkpoint_thread.lock();
        if slot.is_some() {
            return;
        }
        let Some(ck) = self.checkpointer.clone().filter(|ck| ck.log.is_some()) else { return };
        // The trigger thread holds only the pieces it needs — never the
        // `Database` itself, so it cannot be the one running `Drop`.
        let pipeline = self.pipeline.clone();
        let stop = Arc::clone(&self.stop_checkpoint);
        *slot = Some(
            std::thread::Builder::new()
                .name("checkpoint".into())
                .spawn(move || {
                    // Exponential error backoff: a persistently failing
                    // checkpoint (full disk, read-only dir) must not pin GC
                    // with a full-table walk every poll tick.
                    let mut pause = ck.cfg.poll_interval;
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(pause);
                        if !ck.due() {
                            continue;
                        }
                        // Defer under backpressure: a checkpoint's open
                        // transaction pins GC pruning, which is exactly
                        // what a stalled writer waits on.
                        if pipeline
                            .as_ref()
                            .is_some_and(|p| p.pressure() != BackpressureLevel::Clear)
                        {
                            continue;
                        }
                        let result = {
                            let _serialize = ck.lock.lock();
                            // Re-check under the lock: a manual checkpoint we
                            // waited behind may have just covered this
                            // growth — a stale reading would run a redundant
                            // full walk and regress the baseline.
                            if !ck.due() {
                                continue;
                            }
                            ck.checkpoint_locked()
                        };
                        pause = match result {
                            Ok(_) => ck.cfg.poll_interval,
                            Err(_) => (pause * 2).min(Duration::from_secs(5)),
                        };
                    }
                })
                .expect("spawn checkpoint"),
        );
    }

    /// The transaction manager (begin/commit/abort).
    pub fn manager(&self) -> &Arc<TransactionManager> {
        &self.manager
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The GC's deferred-action queue.
    pub fn deferred(&self) -> &Arc<DeferredQueue> {
        &self.deferred
    }

    /// The access observer (cold-block statistics).
    pub fn observer(&self) -> &Arc<AccessObserver> {
        &self.observer
    }

    /// The transformation pipeline, when enabled.
    pub fn pipeline(&self) -> Option<&Arc<TransformCoordinator>> {
        self.pipeline.as_ref()
    }

    /// The log manager, when logging is enabled.
    pub fn log_manager(&self) -> Option<&Arc<LogManager>> {
        self.log.as_ref()
    }

    /// Create a table; if transformation is enabled and `transform` is true,
    /// the table is registered with the pipeline (the paper only targets
    /// tables that generate cold data, §6.1).
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        indexes: Vec<IndexSpec>,
        transform: bool,
    ) -> Result<Arc<TableHandle>> {
        let handle = self.catalog.create_table(name, schema, indexes, transform)?;
        if transform {
            if let Some(pipeline) = &self.pipeline {
                pipeline.add_table(
                    Arc::clone(handle.table()),
                    Arc::new(IndexMoveHook { handle: Arc::clone(&handle) }),
                );
            }
        }
        Ok(handle)
    }

    /// Drop a table: it leaves the catalog immediately and is deregistered
    /// from the transformation pipeline's registry. Blocks already parked in
    /// the cooling queue finish their freeze or preempt normally.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let handle = self.catalog.drop_table(name)?;
        if let Some(pipeline) = &self.pipeline {
            pipeline.remove_table(handle.table());
        }
        Ok(())
    }

    /// Backpressure signal for the write path: true while the transformation
    /// cooling backlog exceeds its hard watermark (callers may throttle
    /// ingest; always false when transformation is disabled or the
    /// watermark is zero).
    pub fn transform_backpressure(&self) -> bool {
        self.pipeline.as_ref().is_some_and(|p| p.overloaded())
    }

    /// The admission controller consulted by every write entry point.
    /// External drivers (e.g. the TPC-C loop) may also consult it at
    /// transaction boundaries — the safest point to pause.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// Per-database stall statistics (yields, stalls, stalled nanoseconds,
    /// pending-bytes high-water mark): the `admission_*` metrics of
    /// [`metrics_snapshot`](Self::metrics_snapshot), read as one struct.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Cold-block buffer manager books: budget, resident/evicted frozen
    /// bytes, and lifetime eviction/fault counts. Always available; without
    /// a configured [`DbConfig::memory_budget_bytes`] the budget reports
    /// `u64::MAX` and the eviction clock never runs. The `memory_*` and
    /// `buffer_*` metrics of [`metrics_snapshot`](Self::metrics_snapshot),
    /// read as one struct.
    pub fn memory_stats(&self) -> MemoryStats {
        self.accountant.stats()
    }

    /// Charge restored frozen blocks to the resident gauge. The restore
    /// loader writes frozen blocks below the accounting layer, so restart
    /// calls this once the image is loaded — otherwise the books would
    /// undercount exactly the blocks the eviction clock most wants to see.
    pub(crate) fn charge_restored_frozen(&self) {
        for (_name, handle) in self.catalog.all_tables() {
            for block in handle.table().blocks() {
                if BlockStateMachine::state(block.header()) == BlockState::Frozen
                    && block.charged_bytes() == 0
                {
                    let bytes = block.live_bytes() as u64;
                    block.set_charged_bytes(bytes);
                    self.accountant.on_freeze(bytes);
                }
            }
        }
    }

    /// Take a checkpoint right now (requires [`DbConfig::checkpoint`], or
    /// the profile's forced checkpoints): snapshot every table under an open MVCC
    /// transaction — frozen blocks as raw Arrow IPC, hot blocks through the
    /// snapshot-read path — publish it atomically, and (when configured)
    /// truncate the WAL segments it covers. Writers keep running throughout.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        let ck = self.checkpointer()?;
        let _serialize = ck.lock.lock();
        ck.checkpoint_locked()
    }

    /// Run one chain-compaction pass right now (requires
    /// [`DbConfig::checkpoint`] or the profile's forced checkpoints; uses
    /// [`DbConfig::compaction`] when set, the default policy otherwise).
    /// Serialized against checkpoints; returns what the pass did — zeroed
    /// stats when the policy found no victims.
    pub fn compact(&self) -> Result<CompactionStats> {
        let ck = self.checkpointer()?;
        let _serialize = ck.lock.lock();
        ck.compact_locked(&ck.compaction.clone().unwrap_or_default())
    }

    fn checkpointer(&self) -> Result<&Arc<Checkpointer>> {
        self.checkpointer
            .as_ref()
            .ok_or_else(|| Error::NotFound("checkpointing is not configured".into()))
    }

    /// Completed checkpoints since boot (manual + background); the
    /// `db_checkpoints` counter of [`metrics_snapshot`](Self::metrics_snapshot).
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpointer.as_ref().map_or(0, |ck| ck.metrics.checkpoints.get())
    }

    /// This database's metric registry. Each subsystem registered its set
    /// at open — a WAL, transformation or checkpointing that is off has
    /// none — and a network server registers its own when it starts.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// One snapshot of every metric this database's registry holds, one row
    /// per name, sorted by name. It also backs the server's
    /// `mainline_metrics` virtual table.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Register a hook to run at the top of [`shutdown`](Self::shutdown),
    /// before any engine thread stops. Hooks run once (an explicit
    /// `shutdown()` followed by `Drop` does not re-run them) and must be
    /// idempotent against the frontend's own shutdown path.
    pub fn register_pre_shutdown(&self, hook: Box<dyn Fn() + Send + Sync>) {
        self.pre_shutdown.lock().push(hook);
    }

    /// Stop background threads, drain in-flight transformation work, and
    /// flush the log — in that order, so a compaction group parked in a
    /// cooling queue is frozen rather than abandoned, and its deferred
    /// reclamation runs before the WAL closes.
    pub fn shutdown(&self) {
        // -1. Frontend drain hooks first (taken once, so a second shutdown —
        //     e.g. the explicit call followed by Drop — skips them): a
        //     network server must stop accepting and finish in-flight
        //     responses while every engine subsystem below is still running.
        let hooks = std::mem::take(&mut *self.pre_shutdown.lock());
        for hook in &hooks {
            hook();
        }
        // 0. Eviction clock and checkpoint trigger first: an eviction after
        //    this point would queue deferred buffer drops behind the final
        //    drain, and a checkpoint transaction opened after this point
        //    would pin the GC quiescence the drain depends on.
        self.stop_evictor.store(true, Ordering::Relaxed);
        if let Some(h) = self.evictor_thread.lock().take() {
            let _ = h.join();
        }
        self.stop_checkpoint.store(true, Ordering::Relaxed);
        if let Some(h) = self.checkpoint_thread.lock().take() {
            let _ = h.join();
        }
        // 1. Transformation workers next: once they have *joined*, no new
        //    compaction transaction can appear.
        self.stop_transform.store(true, Ordering::Relaxed);
        for h in self.transform_workers.lock().drain(..) {
            let _ = h.join();
        }
        // 2. Only now stop the GC: its exit path runs to quiescence,
        //    pruning every compaction transaction's versions (including a
        //    worker's final one) and running already-deferred actions.
        self.stop_gc.store(true, Ordering::Relaxed);
        if let Some(h) = self.gc_thread.lock().take() {
            let _ = h.join();
        }
        // 3. Drain cooling queues: with versions pruned and no live
        //    transactions, parked blocks freeze on the first pass.
        if let Some(pipeline) = &self.pipeline {
            pipeline.drain_cooling(8);
        }
        // 4. Run the freezes' own deferred reclamation (the GC is gone; no
        //    reader can exist past this point), then break the
        //    coordinator → move hook → table handle → admission →
        //    coordinator cycle.
        self.deferred.drain_all();
        if let Some(pipeline) = &self.pipeline {
            pipeline.clear_tables();
        }
        if let Some(log) = &self.log {
            log.shutdown();
        }
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Checkpointing and chain GC for one database: the effective configuration
/// plus the state [`Database::checkpoint`] and the trigger thread share.
struct Checkpointer {
    cfg: CheckpointConfig,
    compaction: Option<CompactionPolicy>,
    manager: Arc<TransactionManager>,
    catalog: Arc<Catalog>,
    log: Option<Arc<LogManager>>,
    /// Serializes passes: a manual [`Database::checkpoint`] racing the
    /// trigger thread could otherwise publish an *older* checkpoint over a
    /// newer one whose WAL cover was already truncated.
    lock: parking_lot::Mutex<()>,
    /// WAL byte counter at the last completed checkpoint (trigger baseline).
    baseline: AtomicU64,
    metrics: CheckpointMetrics,
}

mainline_obs::metric_set! {
    /// What the checkpointer records: checkpoint passes, and the chain
    /// compaction passes that ride on them. The checkpointer itself is the
    /// registered set: it adds the live chain's `chain_*` gauges.
    struct CheckpointMetrics {
        checkpoints: Counter("db_checkpoints", "completed checkpoints (manual + background)"),
        pass_nanos: Histogram("checkpoint_pass_nanos", "full checkpoint pass duration"),
        compaction_passes: Counter("compaction_passes", "chain-compaction passes that succeeded"),
        compaction_errors: Counter("compaction_errors", "chain-compaction passes that failed"),
        generations_compacted:
            Counter("compaction_generations", "victim generations rewritten and pruned"),
        frames_rewritten: Counter("compaction_frames_rewritten", "surviving frames copied"),
        bytes_rewritten:
            Counter("compaction_bytes_rewritten", "bytes written into fresh generations"),
        bytes_reclaimed:
            Counter("compaction_bytes_reclaimed", "on-disk bytes reclaimed, net of rewrites"),
        compaction_pass_nanos:
            Histogram("compaction_pass_nanos", "compaction pass time, no-ops and failures too"),
    }
}

impl MetricSet for Checkpointer {
    fn collect(&self, snap: &mut MetricsSnapshot) {
        self.metrics.collect(snap);
        // The live chain, read from its manifests (empty before the first
        // publish): generations referenced, including `CURRENT`, and bytes.
        let gens = chain_generations(&self.cfg.dir).unwrap_or_default();
        snap.push_gauge("chain_generations_live", gens.len() as i64);
        snap.push_gauge("chain_bytes", gens.iter().map(|g| g.total_bytes as i64).sum());
    }
}

impl Checkpointer {
    fn wal_bytes(&self) -> u64 {
        self.log.as_ref().map_or(0, |l| l.bytes_written())
    }

    /// Whether the WAL grew enough since the last checkpoint to trigger one.
    fn due(&self) -> bool {
        self.wal_bytes().saturating_sub(self.baseline.load(Ordering::Relaxed))
            >= self.cfg.wal_growth_bytes
    }

    /// One checkpoint pass; the caller holds [`Self::lock`].
    fn checkpoint_locked(&self) -> Result<CheckpointStats> {
        let pass_start = Instant::now();
        let wal_bytes_at_start = self.wal_bytes();
        // Snapshot the catalog and begin the anchor under the catalog lock:
        // a CREATE/DROP committing between the two would be missing from
        // the manifest yet skipped by the tail replay (its ts ≤ checkpoint
        // ts).
        let (txn, specs, next_table_id) = self.catalog.checkpoint_anchor();
        let stats =
            write_checkpoint_anchored(&self.manager, txn, &specs, next_table_id, &self.cfg.dir)?;
        if let (true, Some(log)) = (self.cfg.truncate_wal, &self.log) {
            // Only after the manifest is durably published: dropping a
            // covered segment is safe exactly because the checkpoint image
            // replaces it. A truncation failure is NOT a checkpoint failure
            // — the image is already live; surfacing an error here would
            // discard the stats and make the trigger redo a full walk for
            // history that is already covered. Leftover segments are
            // harmless (fully covered) and the next checkpoint's truncation
            // retries them at a later cut.
            let _ = log.truncate_below(stats.checkpoint_ts);
        }
        self.baseline.store(wal_bytes_at_start, Ordering::Relaxed);
        self.metrics.checkpoints.inc();
        // Chain GC after the publish, still under the checkpoint lock:
        // checkpoints are the only generation producers, so this is the one
        // place the chain can have grown. A compaction failure is NOT a
        // checkpoint failure — the image is live and the chain is consistent
        // at every compactor crash point (old manifest, or the republished
        // one); the counter records it and the next pass retries.
        if let Some(policy) = &self.compaction {
            let _ = self.compact_locked(policy);
        }
        self.metrics.pass_nanos.observe_duration(pass_start.elapsed());
        mainline_obs::record_event(
            mainline_obs::kind::CHECKPOINT,
            stats.checkpoint_ts.0,
            stats.cold_bytes + stats.delta_bytes,
        );
        Ok(stats)
    }

    /// One chain-compaction pass, counted; the caller holds [`Self::lock`].
    /// Failed passes are timed too — a pass that dies slowly is exactly
    /// what the histogram should show.
    fn compact_locked(&self, policy: &CompactionPolicy) -> Result<CompactionStats> {
        let tables: Vec<_> = self.catalog.tables_by_id().into_values().collect();
        let start = Instant::now();
        let result = compact_chain(&self.cfg.dir, policy, &tables);
        let m = &self.metrics;
        m.compaction_pass_nanos.observe_duration(start.elapsed());
        match &result {
            Ok(stats) => {
                m.compaction_passes.inc();
                m.generations_compacted.add(stats.generations_compacted as u64);
                m.frames_rewritten.add(stats.frames_rewritten as u64);
                m.bytes_rewritten.add(stats.bytes_rewritten);
                m.bytes_reclaimed.add(stats.bytes_reclaimed);
                mainline_obs::record_event(
                    mainline_obs::kind::COMPACTION,
                    stats.generations_compacted as u64,
                    stats.bytes_reclaimed,
                );
            }
            Err(_) => m.compaction_errors.inc(),
        }
        result
    }
}

/// The cold-block eviction clock (second-chance over frozen blocks).
///
/// While the resident gauge is over budget, the clock sweeps every table's
/// block list looking for victims: Frozen, not the insertion-active block,
/// and not recently referenced (the sweep clears each block's REF bit and
/// skips it once — any read marks it again). [`evict_block`] itself enforces
/// the hard preconditions: a fresh checkpoint-captured frame to fault back
/// from, and a fully pruned version column (the GC CASes version pointers
/// through block memory, so an evicted block must have no versions to
/// prune). The detached Arrow buffers are defer-dropped through the GC's
/// epoch queue — optimistic readers that began before the claim may still be
/// copying out of them.
fn spawn_evictor(
    accountant: Arc<MemoryAccountant>,
    catalog: Arc<Catalog>,
    manager: Arc<TransactionManager>,
    deferred: Arc<DeferredQueue>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("evictor".into())
        .spawn(move || {
            let idle = Duration::from_millis(5);
            while !stop.load(Ordering::Relaxed) {
                if !accountant.over_budget() {
                    std::thread::sleep(idle);
                    continue;
                }
                let mut evicted_any = false;
                'sweep: for (_name, handle) in catalog.all_tables() {
                    let table = handle.table();
                    for block in table.blocks() {
                        if stop.load(Ordering::Relaxed) || !accountant.over_budget() {
                            break 'sweep;
                        }
                        let h = block.header();
                        if BlockStateMachine::state(h) != BlockState::Frozen
                            || table.is_active_block(block.as_ptr())
                        {
                            continue;
                        }
                        // Second chance: clear the REF bit; a recently read
                        // block survives this sweep.
                        if h.take_ref_bit() {
                            continue;
                        }
                        if let Some(buffers) = evict_block(&block) {
                            // The charge stays on the block (fault-in and
                            // table drop settle it); the books move it to
                            // the evicted gauge.
                            accountant.on_evict(block.charged_bytes());
                            let ts = manager.oracle().next();
                            deferred.defer(ts, move || drop(buffers));
                            evicted_any = true;
                        }
                    }
                }
                if !evicted_any {
                    // Over budget but nothing evictable yet (no checkpoint
                    // coverage, REF bits, or live versions): back off.
                    std::thread::sleep(idle);
                }
            }
        })
        .expect("spawn evictor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_common::schema::ColumnDef;
    use mainline_common::value::{TypeId, Value};

    #[test]
    fn end_to_end_with_background_threads() {
        let db = Database::open(DbConfig {
            transform: Some(TransformConfig { threshold_epochs: 1, ..Default::default() }),
            gc_interval: Duration::from_millis(1),
            transform_interval: Duration::from_millis(2),
            ..Default::default()
        })
        .unwrap();
        let t = db
            .create_table(
                "orders",
                Schema::new(vec![
                    ColumnDef::new("id", TypeId::BigInt),
                    ColumnDef::new("data", TypeId::Varchar),
                ]),
                vec![IndexSpec::new("pk", &[0])],
                true,
            )
            .unwrap();

        // Insert rows across two blocks so one goes cold.
        let per_block = t.table().layout().num_slots() as i64;
        let txn = db.manager().begin();
        for i in 0..(per_block + 100) {
            t.insert(&txn, &[Value::BigInt(i), Value::string(&format!("order-data-{i:08}"))]);
        }
        db.manager().commit(&txn);

        // Let the background machinery freeze the first block.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let (_h, _c, _f, frozen, _e) = db.pipeline().unwrap().block_state_census();
            if frozen >= 1 || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let (_h, _c, _f, frozen, _e) = db.pipeline().unwrap().block_state_census();
        assert!(frozen >= 1, "a block should have frozen");

        // Reads still work through the index after transformation (moves
        // re-pointed the index).
        let txn = db.manager().begin();
        for i in [0i64, 5, per_block / 2, per_block + 50] {
            let got = t.lookup(&txn, "pk", &[Value::BigInt(i)]).unwrap();
            assert!(got.is_some(), "row {i} must be reachable");
            assert_eq!(got.unwrap().1[0], Value::BigInt(i));
        }
        db.manager().commit(&txn);
        db.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_transformation() {
        let db = Database::open(DbConfig {
            transform: Some(TransformConfig { threshold_epochs: 1, ..Default::default() }),
            gc_interval: Duration::from_millis(1),
            transform_interval: Duration::from_millis(1),
            ..Default::default()
        })
        .unwrap();
        let t = db
            .create_table(
                "drain",
                Schema::new(vec![
                    ColumnDef::new("id", TypeId::BigInt),
                    ColumnDef::new("data", TypeId::Varchar),
                ]),
                vec![],
                true,
            )
            .unwrap();
        let per_block = t.table().layout().num_slots() as i64;
        let txn = db.manager().begin();
        for i in 0..(3 * per_block + 10) {
            t.insert(&txn, &[Value::BigInt(i), Value::string(&format!("drain-data-{i:08}"))]);
        }
        db.manager().commit(&txn);

        // Wait until the pipeline has work in flight (queued or frozen),
        // then shut down mid-stream.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            let (_h, cooling, freezing, frozen, _e) = db.pipeline().unwrap().block_state_census();
            if cooling + freezing + frozen > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        db.shutdown();

        // The fix under test: no compaction group may be abandoned in a
        // cooling queue — everything either froze or was preempted — and the
        // freezes' deferred reclamation ran before the WAL closed.
        let (_h, cooling, freezing, _frozen, _e) = db.pipeline().unwrap().block_state_census();
        assert_eq!((cooling, freezing), (0, 0), "in-flight group abandoned at shutdown");
        assert_eq!(db.pipeline().unwrap().pending_bytes(), 0);
        assert!(db.deferred().is_empty(), "deferred actions left unprocessed at shutdown");

        // Data survives the whole dance.
        let txn = db.manager().begin();
        assert_eq!(t.table().count_visible(&txn), (3 * per_block + 10) as usize);
        db.manager().commit(&txn);
    }

    #[test]
    fn drop_table_deregisters_from_pipeline() {
        let db = Database::open(DbConfig {
            transform: Some(TransformConfig { threshold_epochs: 1, ..Default::default() }),
            ..Default::default()
        })
        .unwrap();
        let schema = || Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]);
        db.create_table("keep", schema(), vec![], true).unwrap();
        db.create_table("drop", schema(), vec![], true).unwrap();
        let pipeline = db.pipeline().unwrap();
        assert_eq!(pipeline.table_count(), 2);
        assert!(db.drop_table("nope").is_err());
        db.drop_table("drop").unwrap();
        assert!(db.catalog().table("drop").is_err());
        assert_eq!(pipeline.table_count(), 1, "dropped table must leave the registry");
        // A table created without transformation never registers, so
        // dropping it must not disturb the registry either.
        db.create_table("cold-only", schema(), vec![], false).unwrap();
        db.drop_table("cold-only").unwrap();
        assert_eq!(pipeline.table_count(), 1);
        db.shutdown();
    }

    #[test]
    fn logging_database_recovers() {
        let mut path = std::env::temp_dir();
        path.push(format!("mainline-db-recovery-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let db =
                Database::open(DbConfig { log_path: Some(path.clone()), ..Default::default() })
                    .unwrap();
            let t = db
                .create_table(
                    "t",
                    Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]),
                    vec![],
                    false,
                )
                .unwrap();
            let txn = db.manager().begin();
            for i in 0..50 {
                t.insert(&txn, &[Value::BigInt(i)]);
            }
            db.manager().commit(&txn);
            db.shutdown();
        }
        // Second lifetime: the log is self-describing — replay recreates the
        // table from its logged DDL, no manual catalog work. Segment-aware
        // read: under forced rotation the log may span several files.
        let db = Database::open(DbConfig::default()).unwrap();
        let log = mainline_wal::segments::read_log(&path).unwrap();
        let stats = db.replay_log(&log).unwrap();
        assert_eq!(stats.txns_replayed, 1);
        assert_eq!(stats.ddl_applied, 1, "the CREATE TABLE must replay from the log");
        let t = db.catalog().table("t").unwrap();
        let txn = db.manager().begin();
        assert_eq!(t.table().count_visible(&txn), 50);
        db.manager().commit(&txn);
        db.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}
