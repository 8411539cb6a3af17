//! Figure 10: TPC-C throughput and block-state coverage, varying worker
//! threads, with transformation disabled / varlen-gather / dictionary.
//!
//! One warehouse per worker (§6.1), standard mix, open-loop workers pinned
//! at full speed for `MAINLINE_TPCC_SECONDS` per cell. 10b reports the
//! percentage of the transform-target tables' blocks in cooling/frozen
//! state at the end of each run. Set `MAINLINE_TPCC_EXTRA_THREAD=1` to run
//! the §6.1 "one additional transformation thread" ablation.
//!
//! 10d reports each cell's per-transaction latency (p50/p99/max, timed by
//! the client around `run_one`, so it includes any wait in `begin`), its
//! aborts, and — where the engine records them — how long user begins
//! waited behind compaction commits' gate and how long that gate was
//! closed. `MAINLINE_TPCC_FORMATS` picks the cells (default
//! `none,gather,dictionary`); `MAINLINE_TPCC_CHECKPOINT_MB=N` logs to a
//! temporary WAL and takes a background checkpoint every N MB of it.

use mainline_bench::{emit, env_usize};
use mainline_common::rng::Xoshiro256;
use mainline_db::{CheckpointConfig, Database, DbConfig};
use mainline_obs::Histogram;
use mainline_transform::{TransformConfig, TransformFormat};
use mainline_workloads::tpcc::{Tpcc, TpccConfig, TpccStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn run_cell(
    workers: u32,
    transform: Option<TransformFormat>,
    seconds: u64,
    extra_thread: bool,
    checkpoint_mb: u64,
) {
    let wal = std::env::temp_dir().join(format!("mainline-fig10-{}.wal", std::process::id()));
    let ckpt_root = wal.with_extension("ckpt");
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_dir_all(&ckpt_root);
    let db = Database::open(DbConfig {
        log_path: (checkpoint_mb > 0).then(|| wal.clone()),
        checkpoint: (checkpoint_mb > 0).then(|| CheckpointConfig {
            dir: ckpt_root.clone(),
            wal_growth_bytes: checkpoint_mb << 20,
            poll_interval: Duration::from_millis(25),
            truncate_wal: true,
        }),
        transform: transform.map(|format| TransformConfig {
            threshold_epochs: 2, // ~the paper's aggressive 10 ms threshold
            format,
            workers: if extra_thread { 2 } else { 1 },
            ..Default::default()
        }),
        gc_interval: Duration::from_millis(10),
        transform_interval: Duration::from_millis(10),
        ..Default::default()
    })
    .unwrap();
    let tpcc =
        Arc::new(Tpcc::create(&db, TpccConfig::bench(workers), transform.is_some()).unwrap());
    tpcc.load(&db, 42).unwrap();
    let gate = |name: &str| db.metrics_snapshot().histogram(name).cloned();
    let (wait0, closed0) = (gate("txn_gate_wait_nanos"), gate("txn_gate_closed_nanos"));

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 1..=workers as i32 {
        let db = Arc::clone(&db);
        let tpcc = Arc::clone(&tpcc);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = Xoshiro256::seed_from_u64(w as u64);
            let mut stats = TpccStats::default();
            let mut latencies = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                tpcc.run_one(&db, &mut rng, w, &mut stats);
                latencies.push(t0.elapsed());
            }
            (stats, latencies)
        }));
    }
    std::thread::sleep(Duration::from_secs(seconds));
    stop.store(true, Ordering::Relaxed);
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut latencies = Vec::new();
    for h in handles {
        let (s, l) = h.join().unwrap();
        committed += s.total();
        aborted += s.aborted;
        latencies.extend(l);
    }
    let series = match transform {
        None => "no_transformation",
        Some(TransformFormat::Gather) => "varlen_gather",
        Some(TransformFormat::Dictionary) => "dictionary_compression",
    };
    emit("fig10a", series, workers, committed as f64 / seconds as f64 / 1e3, "K_txn_per_s");

    if let Some(pipeline) = db.pipeline() {
        let (hot, cooling, freezing, frozen, _evicted) = pipeline.block_state_census();
        let total = (hot + cooling + freezing + frozen).max(1) as f64;
        emit("fig10b", &format!("{series}_frozen"), workers, frozen as f64 / total * 100.0, "pct");
        emit(
            "fig10b",
            &format!("{series}_cooling"),
            workers,
            (cooling + freezing) as f64 / total * 100.0,
            "pct",
        );
    }
    // Admission-control outcome per cell, the way fig_backpressure reports
    // it: how much the §4.4 loop throttled this TPC-C run.
    let adm = db.admission_stats();
    emit("fig10c", &format!("{series}_stall_count"), workers, adm.stall_count as f64, "stalls");
    emit("fig10c", &format!("{series}_stall_ms"), workers, adm.stalled_nanos as f64 / 1e6, "ms");
    emit("fig10c", &format!("{series}_yield_count"), workers, adm.yield_count as f64, "yields");
    emit(
        "fig10c",
        &format!("{series}_pending_high_water"),
        workers,
        adm.pending_high_water as f64 / (1 << 20) as f64,
        "MB",
    );
    latencies.sort_unstable();
    let at = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize].as_secs_f64() * 1e6;
    emit("fig10d", &format!("{series}_txn_p50"), workers, at(0.50), "us");
    emit("fig10d", &format!("{series}_txn_p99"), workers, at(0.99), "us");
    emit("fig10d", &format!("{series}_txn_max"), workers, at(1.0), "us");
    emit("fig10d", &format!("{series}_aborted"), workers, aborted as f64, "txns");
    emit(
        "fig10d",
        &format!("{series}_checkpoints"),
        workers,
        db.checkpoints_taken() as f64,
        "ckpts",
    );
    for (label, before) in [("gate_wait", wait0), ("gate_closed", closed0)] {
        let (Some(before), Some(after)) = (before, gate(&format!("txn_{label}_nanos"))) else {
            continue;
        };
        let (n, sum) = (after.count - before.count, after.sum - before.sum);
        emit("fig10d", &format!("{series}_{label}_count"), workers, n as f64, "events");
        emit("fig10d", &format!("{series}_{label}_total"), workers, sum as f64 / 1e6, "ms");
        let max = after.buckets.iter().zip(&before.buckets).rposition(|(a, b)| a > b);
        let max = max.map_or(0, |i| 2 * Histogram::bucket_lower_bound(i));
        emit("fig10d", &format!("{series}_{label}_max_below"), workers, max as f64 / 1e3, "us");
    }
    tpcc.check_consistency(&db).expect("TPC-C invariants must hold after the run");
    db.shutdown();
    drop(db);
    let _ = std::fs::remove_dir_all(&ckpt_root);
    for seg in mainline_wal::segments::list_segments(&wal).unwrap_or_default() {
        let _ = std::fs::remove_file(&seg.path);
    }
    let _ = std::fs::remove_file(&wal);
}

fn main() {
    let seconds = env_usize("MAINLINE_TPCC_SECONDS", 3) as u64;
    let threads: Vec<u32> = std::env::var("MAINLINE_TPCC_THREADS")
        .unwrap_or_else(|_| "1,2,4".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let extra = std::env::var("MAINLINE_TPCC_EXTRA_THREAD").is_ok();
    let formats =
        std::env::var("MAINLINE_TPCC_FORMATS").unwrap_or_else(|_| "none,gather,dictionary".into());
    let checkpoint_mb = env_usize("MAINLINE_TPCC_CHECKPOINT_MB", 0) as u64;
    println!("# Figure 10 — TPC-C ({seconds}s per cell, workers {threads:?}, extra transform thread: {extra}, checkpoint every {checkpoint_mb} MB)");
    println!("figure,series,workers,value,unit");
    for &w in &threads {
        for format in formats.split(',') {
            let format = match format.trim() {
                "none" => None,
                "gather" => Some(TransformFormat::Gather),
                "dictionary" => Some(TransformFormat::Dictionary),
                other => panic!("MAINLINE_TPCC_FORMATS: unknown format {other:?}"),
            };
            run_cell(w, format, seconds, extra, checkpoint_mb);
        }
    }
    println!("# done");
}
