//! Parallel transformation scaling: end-to-end throughput (blocks frozen
//! per second) vs transformation workers, sweeping 1/2/4/8 workers.
//!
//! This exercises the multi-worker coordinator the way `mainline-db` runs
//! it: one OS thread per worker, all calling `tick` on one coordinator, and
//! a concurrent GC thread pruning compaction versions. One table owns the
//! whole cold set, so one worker sweeps it per GC epoch and the workers
//! split phase 2 through the shared cooling queue. The `speedup` series
//! reports throughput relative to the single-worker cell.
//!
//! Knobs: `MAINLINE_PAR_BLOCKS` (blocks per cell, default 48),
//! `MAINLINE_PAR_EMPTY` (%empty per block, default 5).

use mainline_bench::{build_micro_table, emit, env_usize, time, MicroLayout};
use mainline_gc::collector::ModificationObserver;
use mainline_gc::GarbageCollector;
use mainline_transform::{AccessObserver, NoopHook, TransformConfig, TransformCoordinator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Run one cell: freeze every non-active block with `workers` worker
/// threads; returns (blocks frozen, seconds).
fn run_cell(workers: usize, nblocks: usize, pct_empty: u32) -> (usize, f64) {
    let (manager, table, _live) = build_micro_table(MicroLayout::Mixed, nblocks, pct_empty, 42);
    let mut gc = GarbageCollector::new(Arc::clone(&manager));
    let observer = Arc::new(AccessObserver::new());
    gc.add_observer(Arc::clone(&observer) as Arc<dyn ModificationObserver>);
    let coordinator = Arc::new(TransformCoordinator::new(
        Arc::clone(&manager),
        Arc::clone(&observer),
        gc.deferred(),
        TransformConfig { threshold_epochs: 1, group_size: 4, workers, ..Default::default() },
    ));
    coordinator.add_table(Arc::clone(&table), Arc::new(NoopHook));

    let stop = Arc::new(AtomicBool::new(false));
    let gc_stop = Arc::clone(&stop);
    let gc_thread = std::thread::spawn(move || {
        while !gc_stop.load(Ordering::Relaxed) {
            gc.run();
            std::thread::sleep(Duration::from_micros(500));
        }
        gc.run_to_quiescence();
    });

    let (frozen, secs) = time(|| {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        if !coordinator.tick() {
                            // Idle: nothing cold or coolable yet; don't
                            // burn the core the freeze work needs.
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                });
            }
            // Monitor: done when no transformable block is left in flight
            // (the active block stays hot by design).
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            let frozen = loop {
                let (hot, cooling, freezing, frozen, _evicted) = coordinator.block_state_census();
                if (hot <= 1 && cooling == 0 && freezing == 0 && frozen > 0)
                    || std::time::Instant::now() > deadline
                {
                    break frozen;
                }
                std::thread::sleep(Duration::from_micros(200));
            };
            stop.store(true, Ordering::Relaxed);
            frozen
        })
    });
    gc_thread.join().unwrap();
    (frozen, secs)
}

fn main() {
    let nblocks = env_usize("MAINLINE_PAR_BLOCKS", 48);
    let pct_empty = env_usize("MAINLINE_PAR_EMPTY", 5) as u32;
    println!("# Parallel transformation scaling ({nblocks} blocks, {pct_empty}% empty)");
    println!("figure,series,workers,value,unit");
    let mut base = None;
    for workers in WORKER_SWEEP {
        let (frozen, secs) = run_cell(workers, nblocks, pct_empty);
        if frozen == 0 {
            // Deadline hit without progress (e.g. GC starvation on a loaded
            // box): don't emit a 0 that would read as real data or poison
            // the speedup base with a NaN/inf divisor.
            println!("# WARNING: workers={workers} timed out with 0 frozen blocks; cell skipped");
            continue;
        }
        let throughput = frozen as f64 / secs;
        emit("fig_par", "blocks_frozen_per_s", workers, throughput, "blocks_per_s");
        let base = *base.get_or_insert(throughput);
        emit("fig_par", "speedup_vs_1_worker", workers, throughput / base, "x");
    }
    println!("# done");
}
