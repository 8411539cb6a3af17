//! Crash-recovery round-trips: a logged random workload replayed into a
//! fresh process must reproduce the exact committed relation, regardless of
//! where the "crash" lands.

use mainline::common::rng::Xoshiro256;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::db::{Database, DbConfig, IndexSpec};
use mainline::transform::TransformConfig;
use mainline::wal;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", TypeId::BigInt),
        ColumnDef::new("payload", TypeId::Varchar),
        ColumnDef::new("version", TypeId::Integer),
    ])
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mainline-it-recovery-{}-{}", std::process::id(), name));
    remove_log(&p);
    p
}

/// Remove the log at `path` with its archive segments: under forced
/// rotation (a profile's `wal_segment_bytes`) stale ones would corrupt a
/// rerun.
fn remove_log(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for seg in wal::segments::list_segments(path).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
}

#[test]
fn random_workload_replays_exactly() {
    let path = tmp("random");
    // Model of the committed state: id -> (payload, version).
    let mut model: BTreeMap<i64, (Vec<u8>, i32)> = BTreeMap::new();
    {
        let db = Database::open(DbConfig {
            log_path: Some(path.clone()),
            fsync: false,
            ..Default::default()
        })
        .unwrap();
        let t = db.create_table("t", schema(), vec![IndexSpec::new("pk", &[0])], false).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(1234);
        let mut next_id = 0i64;
        for _ in 0..300 {
            let txn = db.manager().begin();
            let mut staged = model.clone();
            let mut ok = true;
            for _ in 0..rng.int_range(1, 8) {
                match rng.next_below(10) {
                    0..=4 => {
                        let payload = rng.alnum_string(5, 40);
                        t.insert(
                            &txn,
                            &[
                                Value::BigInt(next_id),
                                Value::Varchar(payload.clone()),
                                Value::Integer(0),
                            ],
                        );
                        staged.insert(next_id, (payload, 0));
                        next_id += 1;
                    }
                    5..=7 => {
                        if let Some((&id, _)) = staged.iter().next() {
                            let (slot, row) = t
                                .lookup(&txn, "pk", &[Value::BigInt(id)])
                                .unwrap()
                                .expect("model row");
                            let v = row[2].as_i64().unwrap() as i32 + 1;
                            let payload = rng.alnum_string(5, 40);
                            if t.update(
                                &txn,
                                slot,
                                &[(1, Value::Varchar(payload.clone())), (2, Value::Integer(v))],
                            )
                            .is_err()
                            {
                                ok = false;
                                break;
                            }
                            staged.insert(id, (payload, v));
                        }
                    }
                    _ => {
                        if let Some((&id, _)) = staged.iter().last() {
                            let (slot, _) = t
                                .lookup(&txn, "pk", &[Value::BigInt(id)])
                                .unwrap()
                                .expect("model row");
                            if t.delete(&txn, slot).is_err() {
                                ok = false;
                                break;
                            }
                            staged.remove(&id);
                        }
                    }
                }
            }
            // ~10% of transactions abort (and must not be replayed).
            if ok && rng.next_below(10) != 0 {
                db.manager().commit(&txn);
                model = staged;
            } else {
                db.manager().abort(&txn);
            }
        }
        db.shutdown();
    }

    // Recover into a fresh database. The log is self-describing: the
    // CREATE TABLE (with its index definition) replays from the logged DDL.
    let db = Database::open(DbConfig::default()).unwrap();
    let log = wal::segments::read_log(&path).unwrap();
    let stats = db.replay_log(&log).unwrap();
    assert!(stats.txns_replayed > 0);
    assert_eq!(stats.ddl_applied, 1);
    let t = db.catalog().table("t").unwrap();
    assert_eq!(t.num_indexes(), 1, "index definitions must replay with the DDL");

    // Compare relation to the model.
    let txn = db.manager().begin();
    let mut recovered: BTreeMap<i64, (Vec<u8>, i32)> = BTreeMap::new();
    let cols = t.table().all_cols();
    t.table().scan(&txn, &cols, |_, row| {
        let v = t.table().row_to_values(row);
        recovered.insert(
            v[0].as_i64().unwrap(),
            (v[1].as_bytes().unwrap().to_vec(), v[2].as_i64().unwrap() as i32),
        );
        true
    });
    db.manager().commit(&txn);
    assert_eq!(recovered, model);
    db.shutdown();
    remove_log(&path);
}

/// Crash a database *mid-stall*: with a tiny backpressure watermark the
/// write path is throttling when the process "dies" (the handle is leaked —
/// no shutdown, no drain, background threads abandoned). WAL recovery must
/// still replay every acknowledged commit: admission control sits in front
/// of the write path and must never interact with durability.
#[test]
fn mid_stall_crash_replays_every_acked_commit() {
    let path = tmp("mid-stall");
    let schema = || mainline::workloads::stress::wide_schema(24);
    let row = |i: i64| mainline::workloads::stress::wide_row(24, i);
    let inserted;
    {
        let db = Database::open(DbConfig {
            log_path: Some(path.clone()),
            fsync: false,
            transform: Some(TransformConfig {
                threshold_epochs: 1,
                group_size: 2,
                workers: 2,
                backpressure_bytes: mainline::storage::BLOCK_SIZE / 4,
                stall_timeout: Duration::from_millis(5),
                ..Default::default()
            }),
            gc_interval: Duration::from_millis(3),
            transform_interval: Duration::from_millis(1),
            ..Default::default()
        })
        .unwrap();
        let t = db.create_table("t", schema(), vec![], true).unwrap();
        let mut n = 0i64;
        let deadline = Instant::now() + Duration::from_secs(30);
        while db.admission_stats().stall_count == 0 {
            assert!(Instant::now() < deadline, "no stall after 30 s of bursting");
            let txn = db.manager().begin();
            let mut slots = Vec::with_capacity(400);
            for _ in 0..400 {
                slots.push(t.insert(&txn, &row(n)));
                n += 1;
            }
            // Gaps keep the cooling blocks' version columns busy, so the
            // stall regime persists while we "crash".
            for slot in slots.into_iter().step_by(10) {
                t.delete(&txn, slot).unwrap();
                n -= 1; // net count of acked live rows
            }
            db.manager().commit(&txn);
        }
        // Everything queued so far becomes durable (= acked)...
        db.log_manager().unwrap().flush();
        inserted = n;
        // ...then the process "dies" mid-stall: leak the handle. Drop would
        // run the orderly shutdown (join workers, drain cooling, close the
        // WAL) — exactly what a crash does not get to do.
        std::mem::forget(db);
    }

    // A fresh process replays the log into a fresh database (the table
    // itself comes back from the logged DDL).
    let log = wal::segments::read_log(&path).unwrap();
    let db = Database::open(DbConfig::default()).unwrap();
    let stats = db.replay_log(&log).unwrap();
    assert!(stats.txns_replayed > 0);
    let t = db.catalog().table("t").unwrap();
    let txn = db.manager().begin();
    assert_eq!(
        t.table().count_visible(&txn),
        inserted as usize,
        "every acked commit must replay, stall or no stall"
    );
    db.manager().commit(&txn);
    db.shutdown();
    remove_log(&path);
}

#[test]
fn torn_log_tail_recovers_prefix() {
    let path = tmp("torn");
    {
        let db = Database::open(DbConfig {
            log_path: Some(path.clone()),
            fsync: false,
            ..Default::default()
        })
        .unwrap();
        let t = db.create_table("t", schema(), vec![], false).unwrap();
        for batch in 0..5 {
            let txn = db.manager().begin();
            for i in 0..100 {
                t.insert(
                    &txn,
                    &[Value::BigInt(batch * 100 + i), Value::string("x"), Value::Integer(0)],
                );
            }
            db.manager().commit(&txn);
        }
        db.shutdown();
    }
    // Truncate the log mid-frame to simulate a crash during a write.
    let mut log = wal::segments::read_log(&path).unwrap();
    log.truncate(log.len() - 37);
    let db = Database::open(DbConfig::default()).unwrap();
    let stats = db.replay_log(&log).unwrap();
    // The last transaction lost its commit record; exactly 4 survive.
    assert_eq!(stats.txns_replayed, 4);
    let t = db.catalog().table("t").unwrap();
    let txn = db.manager().begin();
    assert_eq!(t.table().count_visible(&txn), 400);
    db.manager().commit(&txn);
    db.shutdown();
    remove_log(&path);
}
