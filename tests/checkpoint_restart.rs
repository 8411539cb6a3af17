//! The checkpoint subsystem's end-to-end guarantees (ISSUE 4):
//!
//! (a) crash after a checkpoint → restart from checkpoint + WAL tail equals
//!     a cold full-WAL replay, row for row;
//! (b) frozen-block checkpoint segments are byte-identical to the Flight
//!     export of the same blocks (the zero-transformation proof);
//! (c) restart from a checkpoint replays strictly fewer WAL records than a
//!     cold replay;
//! plus a proptest that WAL truncation never drops a segment containing
//! records above the checkpoint timestamp.

mod common;

use common::relation;
use mainline::common::rng::Xoshiro256;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::common::Timestamp;
use mainline::db::{
    CheckpointConfig, CompactionPolicy, Database, DbConfig, IndexSpec, TableHandle,
};
use mainline::storage::block_state::{BlockState, BlockStateMachine};
use mainline::transform::TransformConfig;
use mainline::wal;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", TypeId::BigInt),
        ColumnDef::nullable("payload", TypeId::Varchar),
        ColumnDef::new("version", TypeId::Integer),
    ])
}

struct Paths {
    wal: std::path::PathBuf,
    ckpt: std::path::PathBuf,
}

fn paths(name: &str) -> Paths {
    let mut wal_path = std::env::temp_dir();
    wal_path.push(format!("mainline-it-ckpt-{}-{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    for seg in wal::segments::list_segments(&wal_path).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
    let ckpt = wal_path.with_extension("ckptdir");
    let _ = std::fs::remove_dir_all(&ckpt);
    Paths { wal: wal_path, ckpt }
}

fn cleanup(p: &Paths) {
    let _ = std::fs::remove_file(&p.wal);
    for seg in wal::segments::list_segments(&p.wal).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
    let _ = std::fs::remove_dir_all(&p.ckpt);
}

fn open_logged(p: &Paths, truncate: bool) -> Arc<Database> {
    Database::open(logged_config(p, truncate)).unwrap()
}

fn logged_config(p: &Paths, truncate: bool) -> DbConfig {
    DbConfig {
        log_path: Some(p.wal.clone()),
        fsync: false,
        // Tiny segments so checkpoints actually have something to truncate.
        wal_segment_bytes: Some(16 * 1024),
        checkpoint: Some(CheckpointConfig {
            dir: p.ckpt.clone(),
            // Manual checkpoints only: the growth trigger never fires.
            wal_growth_bytes: u64::MAX,
            poll_interval: Duration::from_millis(50),
            truncate_wal: truncate,
        }),
        transform: Some(TransformConfig { threshold_epochs: 1, workers: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    }
}

fn create(db: &Database) -> Arc<TableHandle> {
    db.create_table("t", schema(), vec![IndexSpec::new("pk", &[0])], true).unwrap()
}

fn insert_rows(db: &Database, t: &TableHandle, ids: std::ops::Range<i64>, rng: &mut Xoshiro256) {
    let txn = db.manager().begin();
    for i in ids {
        t.insert(
            &txn,
            &[
                Value::BigInt(i),
                if i % 11 == 0 { Value::Null } else { Value::Varchar(rng.alnum_string(8, 40)) },
                Value::Integer(0),
            ],
        );
    }
    db.manager().commit(&txn);
}

fn mutate_rows(db: &Database, t: &TableHandle, ids: &[i64], rng: &mut Xoshiro256) {
    // One transaction per row, aborted on conflict: a background compaction
    // transaction may be moving the same tuple (legal write-write race) —
    // the test only needs *some* mutations, not these exact ones.
    for &i in ids {
        let txn = db.manager().begin();
        let Some((slot, row)) = t.lookup(&txn, "pk", &[Value::BigInt(i)]).unwrap() else {
            db.manager().abort(&txn);
            continue;
        };
        let outcome = if i % 7 == 0 {
            t.delete(&txn, slot)
        } else {
            let v = row[2].as_i64().unwrap() as i32 + 1;
            t.update(
                &txn,
                slot,
                &[(1, Value::Varchar(rng.alnum_string(8, 40))), (2, Value::Integer(v))],
            )
        };
        match outcome {
            Ok(()) => {
                db.manager().commit(&txn);
            }
            Err(_) => db.manager().abort(&txn),
        }
    }
}

fn wait_for_frozen(db: &Database, min: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (_h, _c, _f, frozen, _e) = db.pipeline().unwrap().block_state_census();
        if frozen >= min || Instant::now() > deadline {
            return frozen;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Guarantees (a) and (c): the two restart paths agree row-for-row and the
/// checkpointed one replays strictly fewer records.
#[test]
fn restart_from_checkpoint_matches_full_replay_with_fewer_records() {
    let p = paths("equivalence");
    let mut rng = Xoshiro256::seed_from_u64(2024);
    let expected;
    let checkpoint_ts;
    {
        let db = open_logged(&p, false); // keep the full WAL for the cold side
        let t = create(&db);
        let per_block = t.table().layout().num_slots() as i64;
        let total = 2 * per_block + per_block / 2;
        insert_rows(&db, &t, 0..total, &mut rng);
        let sample: Vec<i64> = (0..total).step_by(29).collect();
        mutate_rows(&db, &t, &sample, &mut rng);
        let frozen = wait_for_frozen(&db, 1);
        assert!(frozen >= 1, "workload must leave at least one frozen block");

        // --- checkpoint mid-workload ---
        let stats = db.checkpoint().unwrap();
        assert!(stats.frozen_blocks >= 1, "{stats:?}");
        checkpoint_ts = stats.checkpoint_ts;

        // --- tail workload after the checkpoint ---
        insert_rows(&db, &t, total..total + per_block / 2, &mut rng);
        let tail_sample: Vec<i64> = (0..total + per_block / 2).step_by(17).collect();
        mutate_rows(&db, &t, &tail_sample, &mut rng);

        // Wait for the WAL byte counter to stop moving (compaction
        // transactions are logged too — reading segment files mid-rotation
        // would race), make everything durable, then the process "dies":
        // leak the handle so no orderly shutdown (drain, WAL close) runs.
        let log = db.log_manager().unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut last = log.bytes_written();
        loop {
            std::thread::sleep(Duration::from_millis(100));
            let now = log.bytes_written();
            if now == last || Instant::now() > deadline {
                break;
            }
            last = now;
        }
        log.flush();
        expected = relation(db.manager(), t.table());
        std::mem::forget(db);
    }

    // --- cold restart: full-WAL replay from genesis (the table comes back
    // from the logged DDL, not from manual catalog work) ---
    let log = wal::segments::read_log(&p.wal).unwrap();
    let cold_db = Database::open(DbConfig::default()).unwrap();
    let cold_stats = cold_db.replay_log(&log).unwrap();
    let cold_t = cold_db.catalog().table("t").unwrap();
    assert_eq!(relation(cold_db.manager(), cold_t.table()), expected, "cold replay diverged");

    // --- two-phase restart: checkpoint image + WAL tail ---
    let (db2, rs) =
        Database::open_from_checkpoint(DbConfig::default(), &p.ckpt, Some(&p.wal)).unwrap();
    let t2 = db2.catalog().table("t").unwrap();
    assert_eq!(rs.checkpoint_ts, checkpoint_ts.0);
    assert_eq!(
        relation(db2.manager(), t2.table()),
        expected,
        "checkpoint + tail restart diverged from full replay"
    );

    // (c) strictly fewer records replayed, and the skips are accounted for.
    assert!(
        rs.tail.ops_applied < cold_stats.ops_applied,
        "checkpoint restart must replay strictly fewer records: tail {} vs cold {}",
        rs.tail.ops_applied,
        cold_stats.ops_applied
    );
    assert!(rs.tail.txns_skipped > 0, "pre-checkpoint transactions must be skipped: {rs:?}");
    assert!(rs.frozen_blocks_loaded >= 1, "cold data must load as frozen blocks: {rs:?}");
    assert!(
        rs.cold_rows_loaded > 0 && rs.tail.ops_applied > 0,
        "both phases must contribute: {rs:?}"
    );

    // The restored catalog is fully functional: index lookups resolve to the
    // same rows the scan found.
    let txn = db2.manager().begin();
    for row in expected.iter().step_by(97) {
        let got = t2
            .lookup(&txn, "pk", &[row[0].clone()])
            .unwrap()
            .unwrap_or_else(|| panic!("row {:?} unreachable through rebuilt index", row[0]));
        assert_eq!(&got.1, row);
    }
    db2.manager().commit(&txn);
    assert!(rs.index_entries_rebuilt >= expected.len(), "{rs:?}");

    // New writes sort after the replayed history (oracle advanced).
    let txn = db2.manager().begin();
    assert!(txn.start_ts() > Timestamp(rs.tail.max_commit_ts));
    t2.insert(&txn, &[Value::BigInt(1 << 40), Value::Null, Value::Integer(0)]);
    db2.manager().commit(&txn);
    db2.shutdown();
    cold_db.shutdown();
    cleanup(&p);
}

/// Guarantee (b): the checkpoint's cold segments hold, byte for byte, the
/// Arrow IPC frames Flight export produces for the same frozen blocks — the
/// frozen path performs no row materialization, it snapshots the canonical
/// bytes that already exist.
#[test]
fn frozen_segments_byte_identical_to_flight_export() {
    let p = paths("byte-identity");
    let mut rng = Xoshiro256::seed_from_u64(7);
    let db = open_logged(&p, true);
    let t = create(&db);
    let per_block = t.table().layout().num_slots() as i64;
    insert_rows(&db, &t, 0..3 * per_block, &mut rng);
    let frozen = wait_for_frozen(&db, 2);
    assert!(frozen >= 2, "need at least two frozen blocks, got {frozen}");

    let stats = db.checkpoint().unwrap();
    assert!(stats.frozen_blocks >= 2, "{stats:?}");

    let (dir, manifest) = mainline::checkpoint::read_manifest(&p.ckpt).unwrap();
    let cold_seg = manifest
        .segments
        .iter()
        .find(|s| s.kind == mainline::checkpoint::SegmentKind::Cold)
        .expect("a cold segment must exist");
    let frames =
        mainline::checkpoint::restore::read_cold_frames(&dir.join(&cold_seg.file)).unwrap();
    assert_eq!(frames.len(), stats.frozen_blocks);

    let blocks = t.table().blocks();
    let mut cold_rows = 0u64;
    for frame in &frames {
        let block = blocks
            .iter()
            .find(|b| b.as_ptr() as u64 == frame.old_base)
            .expect("checkpointed block still lives in this process");
        assert_eq!(BlockStateMachine::state(block.header()), BlockState::Frozen);
        assert!(BlockStateMachine::reader_acquire(block.header()));
        let export_bytes = mainline::arrowlite::ipc::encode_batch(&unsafe {
            mainline::export::materialize::frozen_batch(t.table(), block)
        });
        BlockStateMachine::reader_release(block.header());
        assert_eq!(
            export_bytes, frame.payload,
            "checkpoint segment and Flight export must be byte-identical"
        );
        cold_rows += (0..frame.n).filter(|&i| frame.is_allocated(i)).count() as u64;
    }
    // Every row is accounted for exactly once across the two paths.
    let txn = db.manager().begin();
    let total = t.table().count_visible(&txn) as u64;
    db.manager().commit(&txn);
    assert_eq!(cold_rows + stats.delta_rows, total);
    db.shutdown();
    cleanup(&p);
}

/// The background trigger end-to-end: WAL growth fires checkpoints, covered
/// segments are truncated, and a restart from the trigger's checkpoint plus
/// the remaining (truncated) WAL reproduces the relation.
#[test]
fn background_trigger_checkpoints_truncate_and_restart_works() {
    let p = paths("trigger");
    let mut rng = Xoshiro256::seed_from_u64(99);
    let expected;
    {
        let db = Database::open(DbConfig {
            log_path: Some(p.wal.clone()),
            fsync: false,
            wal_segment_bytes: Some(8 * 1024),
            checkpoint: Some(CheckpointConfig {
                dir: p.ckpt.clone(),
                wal_growth_bytes: 64 * 1024,
                poll_interval: Duration::from_millis(5),
                truncate_wal: true,
            }),
            gc_interval: Duration::from_millis(2),
            ..Default::default()
        })
        .unwrap();
        let t = create(&db);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut next = 0i64;
        while db.checkpoints_taken() < 2 {
            assert!(Instant::now() < deadline, "trigger never fired twice");
            insert_rows(&db, &t, next..next + 500, &mut rng);
            next += 500;
        }
        // More tail after the last checkpoint, then a clean shutdown (the
        // crash case is covered above; this exercises trigger + truncation).
        insert_rows(&db, &t, next..next + 137, &mut rng);
        expected = relation(db.manager(), t.table());
        db.shutdown();
    }

    // Truncation really dropped covered segments, and the remaining log is
    // NOT sufficient on its own (the checkpoint is load-bearing).
    let (_, manifest) = mainline::checkpoint::read_manifest(&p.ckpt).unwrap();
    let remaining = wal::segments::read_log(&p.wal).unwrap();
    let probe = Database::open(DbConfig::default()).unwrap();
    probe.create_table("t", schema(), vec![], false).unwrap();
    let tail_only = wal::recover_from(
        &remaining,
        manifest.checkpoint_ts,
        probe.manager(),
        &probe.catalog().tables_by_id(),
        &mut std::collections::HashMap::new(),
        &mut wal::BareDdlReplayer,
    );
    // Tail records reference checkpointed rows by old slots; without the
    // checkpoint's slot map this either errors or replays fewer rows.
    let tail_insufficient = match tail_only {
        Err(_) => true,
        Ok(_) => {
            let txn = probe.manager().begin();
            let n = probe.catalog().table("t").unwrap().table().count_visible(&txn);
            probe.manager().commit(&txn);
            n < expected.len()
        }
    };
    assert!(tail_insufficient, "WAL tail alone must not reconstruct the relation");
    probe.shutdown();

    let (db2, rs) =
        Database::open_from_checkpoint(DbConfig::default(), &p.ckpt, Some(&p.wal)).unwrap();
    let t2 = db2.catalog().table("t").unwrap();
    assert_eq!(relation(db2.manager(), t2.table()), expected);
    assert!(rs.cold_rows_loaded + rs.delta_rows_loaded > 0);
    db2.shutdown();
    cleanup(&p);
}

/// ISSUE 5 acceptance: a table created *after* a checkpoint, with committed
/// rows in the WAL tail, survives crash + `open_from_checkpoint` restart
/// with all rows intact — the logical `CREATE TABLE` in the tail recreates
/// it (index definitions included), even though the manifest has never
/// heard of it and the pre-checkpoint WAL was truncated. A tail
/// `DROP TABLE` replays too.
#[test]
fn table_created_after_checkpoint_survives_restart() {
    let p = paths("post-ddl");
    let mut rng = Xoshiro256::seed_from_u64(512);
    let expected_late;
    let expected_t;
    {
        let db = open_logged(&p, true); // truncation ON: the tail must carry the DDL
        let t = create(&db);
        insert_rows(&db, &t, 0..800, &mut rng);
        // A table that will be dropped *after* the checkpoint.
        let doomed = db
            .create_table(
                "doomed",
                Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]),
                vec![],
                false,
            )
            .unwrap();
        let txn = db.manager().begin();
        for i in 0..25 {
            doomed.insert(&txn, &[Value::BigInt(i)]);
        }
        db.manager().commit(&txn);

        let stats = db.checkpoint().unwrap();
        assert!(stats.checkpoint_ts > Timestamp(0));

        // --- everything below here exists only in the WAL tail ---
        let late =
            db.create_table("late", schema(), vec![IndexSpec::new("pk", &[0])], true).unwrap();
        insert_rows(&db, &late, 0..300, &mut rng);
        let sample: Vec<i64> = (0..300).step_by(13).collect();
        mutate_rows(&db, &late, &sample, &mut rng);
        insert_rows(&db, &t, 800..900, &mut rng);
        db.drop_table("doomed").unwrap();

        db.log_manager().unwrap().flush();
        expected_late = relation(db.manager(), late.table());
        expected_t = relation(db.manager(), t.table());
        std::mem::forget(db); // crash
    }

    let (db2, rs) =
        Database::open_from_checkpoint(DbConfig::default(), &p.ckpt, Some(&p.wal)).unwrap();
    assert!(rs.tail.ddl_applied >= 2, "CREATE late + DROP doomed must replay: {rs:?}");
    let late2 = db2.catalog().table("late").expect("tail-created table must restore");
    assert_eq!(
        relation(db2.manager(), late2.table()),
        expected_late,
        "tail-created table must restore row-for-row"
    );
    let t2 = db2.catalog().table("t").unwrap();
    assert_eq!(relation(db2.manager(), t2.table()), expected_t);
    assert!(db2.catalog().table("doomed").is_err(), "tail DROP TABLE must replay");

    // The tail-created table is fully functional: its replayed index
    // definition resolves lookups, and new writes work.
    let txn = db2.manager().begin();
    for row in expected_late.iter().step_by(41) {
        let got = late2
            .lookup(&txn, "pk", &[row[0].clone()])
            .unwrap()
            .unwrap_or_else(|| panic!("row {:?} unreachable through replayed index", row[0]));
        assert_eq!(&got.1, row);
    }
    late2.insert(&txn, &[Value::BigInt(1 << 41), Value::Null, Value::Integer(0)]);
    db2.manager().commit(&txn);
    db2.shutdown();
    cleanup(&p);
}

/// A straggler commit through a *retained* handle of a table dropped before
/// the checkpoint must be discarded by the tail replay — even when the
/// `DROP TABLE` record itself was truncated away with the pre-checkpoint
/// log. The manifest's `next_table_id` is what lets restart classify the
/// unknown id as long-dropped instead of corrupt.
#[test]
fn straggler_into_pre_checkpoint_dropped_table_is_discarded() {
    let p = paths("straggler");
    let mut rng = Xoshiro256::seed_from_u64(31337);
    let expected_t;
    {
        let db = open_logged(&p, true);
        let t = create(&db);
        let eph = db
            .create_table(
                "ephemeral",
                Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]),
                vec![],
                false,
            )
            .unwrap();
        let txn = db.manager().begin();
        for i in 0..40 {
            eph.insert(&txn, &[Value::BigInt(i)]);
        }
        db.manager().commit(&txn);
        db.drop_table("ephemeral").unwrap();
        // Enough post-drop volume (several commit groups) to rotate the
        // segment holding the DROP record out of the active file, so the
        // checkpoint's truncation really deletes it.
        for chunk in 0..8 {
            insert_rows(&db, &t, chunk * 100..(chunk + 1) * 100, &mut rng);
        }
        db.checkpoint().unwrap();
        let remaining = wal::segments::read_log(&p.wal).unwrap();
        let mut r = wal::record::LogReader::new(&remaining);
        while let Some(e) = r.next_entry().unwrap() {
            assert!(
                !matches!(e.payload, wal::LogPayload::DropTable { .. }),
                "test setup: the DROP record must have been truncated away"
            );
        }

        // The straggler: the retained handle commits *after* the checkpoint,
        // so the record lands in the tail referencing an id no surviving
        // DDL or manifest entry explains.
        let txn = db.manager().begin();
        eph.insert(&txn, &[Value::BigInt(999)]);
        db.manager().commit(&txn);
        insert_rows(&db, &t, 800..850, &mut rng);

        db.log_manager().unwrap().flush();
        expected_t = relation(db.manager(), t.table());
        std::mem::forget(db); // crash (also keeps `eph`'s blocks alive)
    }

    let (db2, rs) =
        Database::open_from_checkpoint(DbConfig::default(), &p.ckpt, Some(&p.wal)).unwrap();
    assert!(rs.tail.ops_dropped >= 1, "the straggler must be discarded, not fatal: {rs:?}");
    let t2 = db2.catalog().table("t").unwrap();
    assert_eq!(relation(db2.manager(), t2.table()), expected_t);
    assert!(db2.catalog().table("ephemeral").is_err());
    db2.shutdown();
    cleanup(&p);
}

/// ISSUE 5 acceptance: a second checkpoint after a small delta writes
/// strictly fewer cold bytes (and new cold frames) than the first — the
/// incremental manifest chain references the first generation's segments —
/// and a restart resolving the chain agrees with the live relation.
#[test]
fn second_checkpoint_after_small_delta_writes_strictly_less() {
    let p = paths("incremental");
    let mut rng = Xoshiro256::seed_from_u64(77);
    let expected;
    let first;
    let second;
    {
        // Chain GC pinned off (`max_batch: 0`): the `compacted` profile's
        // forced passes would rewrite generation 1, and the chain shape is
        // what this test checks.
        let never = CompactionPolicy { max_batch: 0, ..Default::default() };
        let db = Database::open(DbConfig { compaction: Some(never), ..logged_config(&p, true) })
            .unwrap();
        let t = create(&db);
        let per_block = t.table().layout().num_slots() as i64;
        insert_rows(&db, &t, 0..3 * per_block, &mut rng);
        let frozen = wait_for_frozen(&db, 2);
        assert!(frozen >= 2, "need at least two frozen blocks, got {frozen}");

        first = db.checkpoint().unwrap();
        assert!(first.frozen_blocks >= 2, "{first:?}");
        assert!(first.cold_bytes > 0);

        // Small delta: a handful of tail inserts into the active block.
        insert_rows(&db, &t, 3 * per_block..3 * per_block + 50, &mut rng);

        second = db.checkpoint().unwrap();
        assert!(
            second.frozen_blocks_reused >= first.frozen_blocks.max(2) - 1,
            "most frozen frames must be reused: first {first:?}, second {second:?}"
        );
        assert!(
            second.cold_bytes < first.cold_bytes,
            "incremental checkpoint must write strictly fewer cold bytes: \
             {} vs {}",
            second.cold_bytes,
            first.cold_bytes
        );
        assert!(
            second.frozen_blocks < first.frozen_blocks,
            "incremental checkpoint must write strictly fewer cold frames: \
             {} vs {}",
            second.frozen_blocks,
            first.frozen_blocks
        );
        assert!(second.cold_bytes_reused > 0);

        // The chain is explicit in the manifest: frames reference gen 1.
        let (_, manifest) = mainline::checkpoint::read_manifest(&p.ckpt).unwrap();
        let gen1 = first.dir.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            manifest.frames.iter().any(|f| f.dir == gen1),
            "second manifest must reference the first generation"
        );
        assert!(first.dir.is_dir(), "referenced generation must survive pruning");

        db.log_manager().unwrap().flush();
        expected = relation(db.manager(), t.table());
        std::mem::forget(db); // crash
    }

    // Restart resolves the chain (gen-2 manifest, gen-1 cold bytes).
    let (db2, rs) =
        Database::open_from_checkpoint(DbConfig::default(), &p.ckpt, Some(&p.wal)).unwrap();
    assert_eq!(rs.checkpoint_ts, second.checkpoint_ts.0);
    assert!(rs.frozen_blocks_loaded >= first.frozen_blocks, "all chained frames must load: {rs:?}");
    let t2 = db2.catalog().table("t").unwrap();
    assert_eq!(relation(db2.manager(), t2.table()), expected, "chained restart diverged");
    db2.shutdown();
    cleanup(&p);
}

// ---------------------------------------------------------------------------
// Truncation safety proptest
// ---------------------------------------------------------------------------

use proptest::prelude::*;

static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the rotation geometry and wherever the checkpoint lands,
    /// truncation must only delete segments wholly at or below the cut:
    /// every commit above the cut — and every redo record belonging to it —
    /// survives, and any segment holding such a record is untouched.
    #[test]
    fn truncation_never_drops_records_above_the_cut(
        txn_payloads in proptest::collection::vec(1usize..6, 8..48),
        seg_bytes in 128u64..2048u64,
        cut_sel in 0u64..10_000u64,
    ) {
        use mainline::storage::TupleSlot;
        use mainline::txn::redo::{write_redo, OP_INSERT};
        use mainline::txn::CommitSink;
        use mainline::wal::{LogManager, LogManagerConfig};
        use mainline::wal::record::{LogPayload, LogReader};

        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("mainline-prop-trunc-{}-{case}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        for seg in wal::segments::list_segments(&path).unwrap() {
            let _ = std::fs::remove_file(&seg.path);
        }

        let lm = LogManager::start(LogManagerConfig {
            fsync: false,
            segment_bytes: seg_bytes,
            ..LogManagerConfig::new(&path)
        }).unwrap();
        let n_txns = txn_payloads.len() as u64;
        for (i, &nrec) in txn_payloads.iter().enumerate() {
            let ts = Timestamp(i as u64 + 1);
            let mut records = Vec::new();
            for r in 0..nrec {
                let slot = TupleSlot::from_raw(((i as u64 + 1) << 20) | r as u64);
                write_redo(&mut records, OP_INSERT, 1, slot, [(1, Some(&[r as u8; 40][..]))]);
            }
            lm.queue_commit(ts, records, vec![], false, Box::new(|| {}));
            lm.flush(); // small groups → rotation points between txns
        }
        lm.shutdown();

        let count_ops = |bytes: &[u8]| {
            let mut r = LogReader::new(bytes);
            let mut commits = std::collections::BTreeMap::new();
            let mut redos: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
            while let Some(e) = r.next_entry().unwrap() {
                match e.payload {
                    LogPayload::Redo(_) => *redos.entry(e.commit_ts.0).or_default() += 1,
                    LogPayload::Commit => { commits.insert(e.commit_ts.0, ()); }
                    LogPayload::CreateTable(_) | LogPayload::DropTable { .. } => {}
                }
            }
            (commits, redos)
        };
        let full = wal::segments::read_log(&path).unwrap();
        let (commits_before, redos_before) = count_ops(&full);
        let segs_before = wal::segments::list_segments(&path).unwrap();

        let cut = Timestamp(cut_sel % (n_txns + 2)); // sometimes 0, sometimes past the end
        wal::segments::truncate_below(&path, cut).unwrap();

        // Segments with records above the cut are untouched.
        for seg in &segs_before {
            if seg.last_commit_ts > cut {
                prop_assert!(seg.path.exists(), "segment {seg:?} wrongly deleted at cut {cut:?}");
            }
        }
        // Every commit above the cut survives with all its redo records.
        let remaining = wal::segments::read_log(&path).unwrap();
        let (commits_after, redos_after) = count_ops(&remaining);
        for (&ts, ()) in commits_before.iter().filter(|(&ts, _)| Timestamp(ts) > cut) {
            prop_assert!(commits_after.contains_key(&ts), "commit {ts} lost at cut {cut:?}");
            prop_assert_eq!(
                redos_after.get(&ts), redos_before.get(&ts),
                "redo records of commit {} damaged", ts
            );
        }

        let _ = std::fs::remove_file(&path);
        for seg in wal::segments::list_segments(&path).unwrap() {
            let _ = std::fs::remove_file(&seg.path);
        }
    }
}
