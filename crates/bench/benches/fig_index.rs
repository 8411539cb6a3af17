//! Contended-index sweep (ISSUE 10): point-lookup and mixed read/write
//! throughput on the OLC B+-tree as reader/writer threads scale, plus the
//! protocol's own health counters (descent restarts, scan fallbacks).
//!
//! Four series per thread count, each over the same pre-loaded tree:
//!
//! * **lookup** — pure point lookups, uniformly random over the loaded
//!   keyspace (the latch-free descent path);
//! * **lookup_batched** — the same lookups, [`PROBE_GROUP`] random keys per
//!   `probe_many` call, whose descents overlap their cache misses (against
//!   **lookup** this is the single-vs-batched probe line);
//! * **mixed_90_10** — 90 % lookups / 10 % upserts into the same keyspace,
//!   so writers keep bumping versions under the readers;
//! * **scan100** — 100-entry range scans (the snapshot-per-leaf path).
//!
//! Lookup throughput should *rise* with threads on multi-core hardware —
//! the whole point of replacing reader crabbing — so the core count is
//! printed with the header: on a single-core runner the sweep can only
//! show the protocol not collapsing under oversubscription.
//!
//! Knobs: `MAINLINE_INDEX_ROWS` (default 200000), `MAINLINE_INDEX_SECONDS`
//! per cell (default 2), `MAINLINE_INDEX_THREADS` (default "1,2,4").

use mainline_bench::{emit, env_usize};
use mainline_common::rng::Xoshiro256;
use mainline_index::{BPlusTree, KeyBuf, KeyBuilder, PROBE_GROUP};
use mainline_obs::{MetricSet, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn key(i: u64) -> Vec<u8> {
    KeyBuilder::new().add_i64(i as i64).finish()
}

/// What each worker of a [`drive`] cell does per operation.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Lookup,
    LookupBatched,
    Mixed,
    Scan,
}

/// Run `threads` workers against `tree` for `seconds`, each doing `op` on
/// uniformly random keys in a loop. Returns total ops (a batched call
/// counts one op per key).
fn drive(tree: &Arc<BPlusTree<u64>>, threads: u32, seconds: u64, rows: u64, op: Op) -> u64 {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..threads {
        let tree = Arc::clone(tree);
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        handles.push(std::thread::spawn(move || {
            let mut rng = Xoshiro256::seed_from_u64(0x51CA + t as u64);
            let mut done = 0u64;
            let mut batch: Vec<KeyBuf> = Vec::with_capacity(PROBE_GROUP);
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..256 {
                    let k = rng.int_range(0, rows as i64) as u64;
                    match op {
                        Op::Scan => {
                            let mut seen = 0u32;
                            tree.scan_range(&key(k), None, |_, _| {
                                seen += 1;
                                seen < 100
                            });
                        }
                        Op::Mixed if rng.next_below(10) == 0 => {
                            tree.upsert(&key(k), k ^ done);
                        }
                        Op::LookupBatched => {
                            let mut probe = KeyBuf::new();
                            probe.push_i64(k as i64);
                            batch.push(probe);
                            if batch.len() == PROBE_GROUP {
                                std::hint::black_box(tree.probe_many(&batch));
                                batch.clear();
                            }
                        }
                        _ => {
                            std::hint::black_box(tree.get(&key(k)));
                        }
                    }
                    done += 1;
                }
            }
            total.fetch_add(done, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(Duration::from_secs(seconds));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    total.load(Ordering::Relaxed)
}

fn main() {
    let rows = env_usize("MAINLINE_INDEX_ROWS", 200_000) as u64;
    let seconds = env_usize("MAINLINE_INDEX_SECONDS", 2) as u64;
    let threads: Vec<u32> = std::env::var("MAINLINE_INDEX_THREADS")
        .unwrap_or_else(|_| "1,2,4".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "# fig_index — OLC B+-tree contention sweep ({rows} rows, {seconds}s per cell, \
         threads {threads:?}, {cores} core(s))"
    );
    println!("figure,series,threads,value,unit");

    let tree: Arc<BPlusTree<u64>> = Arc::new(BPlusTree::new());
    for i in 0..rows {
        tree.insert_unique(&key(i), i);
    }

    let metrics = tree.metrics();
    for &t in &threads {
        let r0 = metrics.descent_restarts.get();
        let ops = drive(&tree, t, seconds, rows, Op::Lookup);
        emit("fig_index", "lookup", t, ops as f64 / seconds as f64 / 1e6, "M_ops_per_s");

        let ops = drive(&tree, t, seconds, rows, Op::LookupBatched);
        emit("fig_index", "lookup_batched", t, ops as f64 / seconds as f64 / 1e6, "M_ops_per_s");

        let ops = drive(&tree, t, seconds, rows, Op::Mixed);
        emit("fig_index", "mixed_90_10", t, ops as f64 / seconds as f64 / 1e6, "M_ops_per_s");

        let ops = drive(&tree, t, seconds, rows, Op::Scan);
        emit("fig_index", "scan100", t, ops as f64 / seconds as f64 / 1e3, "K_scans_per_s");

        emit(
            "fig_index",
            "descent_restarts",
            t,
            (metrics.descent_restarts.get() - r0) as f64,
            "count",
        );
    }
    emit("fig_index", "scan_fallbacks", "all", metrics.scan_fallbacks.get() as f64, "count");
    let mut snap = MetricsSnapshot::default();
    metrics.collect(&mut snap);
    println!("# {}", snap.one_line(&["index_lookup_nanos", "index_descent_restarts"]));
    println!("# done");
}
