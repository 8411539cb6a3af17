//! Whole-system endurance: concurrent OLTP workers, background GC, the
//! transformation pipeline, and concurrent exporters — then a full
//! consistency audit. This is the closest test to the paper's operating
//! regime (§6.1's workload with transformation enabled).

use mainline::common::rng::Xoshiro256;
use mainline::db::{Database, DbConfig};
use mainline::export::{export_table, ExportMethod};
use mainline::transform::TransformConfig;
use mainline::workloads::tpcc::{Tpcc, TpccConfig, TpccStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn tpcc_with_transformation_and_concurrent_export() {
    let db = Database::open(DbConfig {
        transform: Some(TransformConfig { threshold_epochs: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(2),
        transform_interval: Duration::from_millis(5),
        ..Default::default()
    })
    .unwrap();
    let tpcc = Arc::new(Tpcc::create(&db, TpccConfig::mini(2), true).unwrap());
    tpcc.load(&db, 123).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    // OLTP workers.
    for w in 1..=2i32 {
        let db = Arc::clone(&db);
        let tpcc = Arc::clone(&tpcc);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = Xoshiro256::seed_from_u64(w as u64);
            let mut stats = TpccStats::default();
            // Same capture discipline as the oversubscription test below
            // (ROADMAP flaky-watch item): if run_one ever panics while the
            // exporter races it, the message must reach the assertion below
            // instead of dying in this worker's stderr.
            let mut panic_msg = None;
            while !stop.load(Ordering::Relaxed) {
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    tpcc.run_one(&db, &mut rng, w, &mut stats);
                }));
                if let Err(payload) = attempt {
                    panic_msg = Some(
                        payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "non-string panic payload".to_string()),
                    );
                    break;
                }
            }
            (stats.total(), panic_msg)
        }));
    }
    // Concurrent exporter hammering the cold tables.
    let export_count = {
        let db = Arc::clone(&db);
        let tpcc = Arc::clone(&tpcc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let stats =
                    export_table(ExportMethod::Flight, db.manager(), tpcc.order_line.table());
                assert!(stats.rows > 0);
                n += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            n
        })
    };

    std::thread::sleep(Duration::from_secs(4));
    stop.store(true, Ordering::Relaxed);
    let mut committed = 0;
    let mut panics = Vec::new();
    for h in handles {
        let (c, panic) = h.join().unwrap();
        committed += c;
        if let Some(msg) = panic {
            panics.push(msg);
        }
    }
    let exports = export_count.join().unwrap();
    assert!(
        panics.is_empty(),
        "tpcc.run_one panicked alongside the concurrent exporter \
         (ROADMAP watch item — captured message(s)): {panics:#?}"
    );
    assert!(committed > 500, "committed {committed}");
    assert!(exports > 10, "exports {exports}");

    // The workload must remain internally consistent after everything —
    // transformation moves, index re-pointing, lazy deletes, exports.
    tpcc.check_consistency(&db).unwrap();

    // Transformation must have made progress on the cold tables.
    let stats = db.pipeline().unwrap().metrics();
    assert!(
        stats.blocks_frozen.get() > 0 || stats.groups_compacted.get() > 0,
        "pipeline stats: {stats:?}"
    );
    db.shutdown();
}

/// Regression coverage for the ROADMAP watch item: `tpcc.run_one` once
/// panicked when two full test suites ran concurrently on a 1-CPU machine.
/// This reproduces that regime deliberately — more OLTP threads than cores
/// plus a full multi-worker transformation pipeline — and wraps every
/// `run_one` in `catch_unwind` so that, if the panic ever comes back, its
/// message lands verbatim in the assertion failure instead of being lost in
/// a worker thread's stderr.
///
/// The pipeline runs with a deliberately small backpressure watermark, so
/// oversubscription is exercised in the *throttled* regime too: admission
/// control may stall writers mid-storm, and afterwards the recorded stall
/// statistics and pending-bytes high-water mark must be sane.
#[test]
fn tpcc_multiworker_oversubscribed_captures_run_one_panics() {
    use mainline::storage::BLOCK_SIZE;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let hard = 2 * BLOCK_SIZE;
    let db = Database::open(DbConfig {
        transform: Some(TransformConfig {
            threshold_epochs: 1,
            // At least two transformation workers even on a 1-CPU host, so
            // concurrent sweep claims and the shared cooling queue run
            // under contention.
            workers: cores.max(2),
            backpressure_bytes: hard,
            stall_timeout: Duration::from_millis(2),
            ..Default::default()
        }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    })
    .unwrap();
    let tpcc = Arc::new(Tpcc::create(&db, TpccConfig::mini(2), true).unwrap());
    tpcc.load(&db, 77).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // Oversubscribe on purpose: 2x the cores, or 4x under the `contended`
    // profile to force more preemption inside index critical sections.
    let contended = mainline_common::Profile::current().name == "contended";
    let oversub = if contended { 4 } else { 2 };
    let oltp_threads = (oversub * cores).max(4);
    let mut handles = Vec::new();
    for t in 0..oltp_threads {
        let db = Arc::clone(&db);
        let tpcc = Arc::clone(&tpcc);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let warehouse = (t % 2) as i32 + 1;
            let mut rng = Xoshiro256::seed_from_u64(1000 + t as u64);
            let mut stats = TpccStats::default();
            let mut committed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    tpcc.run_one(&db, &mut rng, warehouse, &mut stats);
                }));
                match attempt {
                    Ok(()) => committed = stats.total(),
                    Err(payload) => {
                        // Capture the panic message for the assertion below.
                        let msg = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        return (committed, Some(msg));
                    }
                }
            }
            (committed, None)
        }));
    }

    std::thread::sleep(Duration::from_secs(3));
    stop.store(true, Ordering::Relaxed);
    let mut committed = 0u64;
    let mut panics = Vec::new();
    for h in handles {
        let (c, panic) = h.join().unwrap();
        committed += c;
        if let Some(msg) = panic {
            panics.push(msg);
        }
    }
    assert!(
        panics.is_empty(),
        "tpcc.run_one panicked under multi-worker oversubscription \
         (ROADMAP watch item — captured message(s)): {panics:#?}"
    );
    assert!(committed > 100, "committed {committed}");

    // Stall statistics from the throttled regime must be sane: time is
    // accounted iff stalls happened, and the sweep's admission budget
    // bounds the gauge's high-water mark to the hard watermark plus one
    // block's measured bytes per worker (TPC-C varlens live out of line,
    // so a block can measure up to ~2x BLOCK_SIZE).
    let adm = db.admission_stats();
    let workers = db.pipeline().unwrap().workers();
    assert_eq!(
        adm.stall_count == 0,
        adm.stalled_nanos == 0,
        "stalled time without stalls (or vice versa): {adm:?}"
    );
    assert!(
        adm.pending_high_water <= hard + workers * 2 * mainline::storage::BLOCK_SIZE,
        "pending high-water {} blew past the admission budget (hard {hard}, {workers} workers)",
        adm.pending_high_water
    );

    // Full consistency after the storm, then a clean drain-at-shutdown.
    tpcc.check_consistency(&db).unwrap();
    db.shutdown();
    let (_h, cooling, freezing, _f, _e) = db.pipeline().unwrap().block_state_census();
    assert_eq!((cooling, freezing), (0, 0), "shutdown abandoned in-flight cooling blocks");
}

#[test]
fn sustained_churn_with_gc_reclamation() {
    // A hot/cold churn loop: insert, update heavily, delete most rows, let
    // compaction recycle blocks; repeat. Verifies that recycled blocks and
    // deferred reclamation never corrupt live data.
    use mainline::common::schema::{ColumnDef, Schema};
    use mainline::common::value::{TypeId, Value};
    use mainline::db::IndexSpec;

    let db = Database::open(DbConfig {
        transform: Some(TransformConfig {
            threshold_epochs: 1,
            group_size: 8,
            ..Default::default()
        }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    })
    .unwrap();
    let t = db
        .create_table(
            "churn",
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::new("payload", TypeId::Varchar),
            ]),
            vec![IndexSpec::new("pk", &[0])],
            true,
        )
        .unwrap();

    let mut rng = Xoshiro256::seed_from_u64(9);
    let mut next_id = 0i64;
    let mut live: std::collections::BTreeSet<i64> = Default::default();
    for round in 0..5 {
        // Insert a wave big enough to span blocks.
        let wave_start = next_id;
        let txn = db.manager().begin();
        for _ in 0..15_000 {
            t.insert(&txn, &[Value::BigInt(next_id), Value::Varchar(rng.alnum_string(12, 24))]);
            live.insert(next_id);
            next_id += 1;
        }
        db.manager().commit(&txn);
        // Update and delete only the *current* wave: earlier blocks go cold
        // and become transformation candidates.
        let ids: Vec<i64> = live.range(wave_start..).copied().collect();
        let txn = db.manager().begin();
        for &id in ids.iter() {
            if rng.next_below(100) < 60 {
                if let Some((slot, _)) = t.lookup(&txn, "pk", &[Value::BigInt(id)]).unwrap() {
                    if rng.next_below(2) == 0 {
                        t.update(&txn, slot, &[(1, Value::Varchar(rng.alnum_string(12, 24)))])
                            .unwrap();
                    } else {
                        t.delete(&txn, slot).unwrap();
                        live.remove(&id);
                    }
                }
            }
        }
        db.manager().commit(&txn);
        // Let the background machinery chew.
        std::thread::sleep(Duration::from_millis(120));
        // Audit.
        let txn = db.manager().begin();
        assert_eq!(
            t.table().count_visible(&txn),
            live.len(),
            "round {round}: live-set size mismatch"
        );
        // Every live id reachable through the index.
        for &id in live.iter().step_by(97) {
            assert!(
                t.lookup(&txn, "pk", &[Value::BigInt(id)]).unwrap().is_some(),
                "round {round}: id {id} lost"
            );
        }
        db.manager().commit(&txn);
    }
    let stats = db.pipeline().unwrap().metrics();
    assert!(stats.groups_compacted.get() > 0, "pipeline never compacted: {stats:?}");
    db.shutdown();
}
