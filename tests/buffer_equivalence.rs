//! The cold-block buffer manager must be invisible to readers (ISSUE 6c):
//! a database squeezed under a tiny memory budget — so frozen blocks are
//! continuously evicted to the checkpoint chain and faulted back on demand —
//! produces *exactly* the same relation, through both the transactional scan
//! and the Flight export path, as a fully-resident run of the same workload.
//!
//! A proptest interleaves inserts, updates/deletes, scans, exports, and
//! checkpoints in random order and replays the identical logical workload
//! against both databases, comparing intermediate observations and the final
//! deep-decoded relation. The accountant's bound is asserted once the run
//! quiesces: resident frozen bytes settle back under the budget.

mod common;

use common::relation;
use mainline::arrowlite::batch::column_value;
use mainline::arrowlite::ipc;
use mainline::common::rng::Xoshiro256;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::db::{CheckpointConfig, Database, DbConfig, IndexSpec, TableHandle};
use mainline::export::materialize::block_batch;
use mainline::export::{export_table, ExportMethod};
use mainline::transform::TransformConfig;
use mainline::wal;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Small enough that two frozen blocks overflow it, so any workload that
/// freezes a handful of blocks keeps the eviction clock busy.
const BUDGET: u64 = 1_000_000;

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
    wal_path.push(format!("mainline-it-buf-{}-{name}.wal", std::process::id()));
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

fn open_db(p: &Paths, budget: Option<u64>) -> Arc<Database> {
    Database::open(DbConfig {
        log_path: Some(p.wal.clone()),
        fsync: false,
        wal_segment_bytes: Some(64 * 1024),
        checkpoint: Some(CheckpointConfig {
            dir: p.ckpt.clone(),
            // Manual checkpoints only — the workload script decides when.
            wal_growth_bytes: u64::MAX,
            poll_interval: Duration::from_millis(50),
            truncate_wal: false,
        }),
        // `u64::MAX` rather than `None` for the reference run: `None` falls
        // back to the engine profile's budget, and the `evicted` profile
        // sets one for the whole suite — the reference run must stay fully
        // resident regardless.
        memory_budget_bytes: Some(budget.unwrap_or(u64::MAX)),
        transform: Some(TransformConfig { threshold_epochs: 1, workers: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    })
    .unwrap()
}

/// The workload alphabet. An op sequence plus an RNG seed fully determines
/// the logical content of the database, so two runs of the same script must
/// agree on every observation regardless of residency.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert,
    Mutate,
    Scan,
    Export,
    Checkpoint,
}

fn decode_ops(codes: &[u8]) -> Vec<Op> {
    codes
        .iter()
        .map(|c| match c % 5 {
            0 => Op::Insert,
            1 => Op::Mutate,
            2 => Op::Scan,
            3 => Op::Export,
            _ => Op::Checkpoint,
        })
        .collect()
}

/// What a reader can observe mid-run: a digest of the visible relation, or
/// an export's row count. Collected in op order and compared across runs.
#[derive(Debug, PartialEq, Eq)]
enum Obs {
    Scan { rows: usize, digest: u64 },
    Export { rows: u64 },
}

fn digest_rows(rows: &[Vec<Value>]) -> u64 {
    // FNV-1a over a stable rendering of every cell.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for row in rows {
        for v in row {
            match v {
                Value::Null => eat(b"\0null"),
                Value::BigInt(x) => eat(&x.to_le_bytes()),
                Value::Integer(x) => eat(&x.to_le_bytes()),
                Value::Varchar(s) => eat(s),
                other => eat(format!("{other:?}").as_bytes()),
            }
        }
        eat(b"\n");
    }
    h
}

fn insert_chunk(db: &Database, t: &TableHandle, next_id: &mut i64, n: i64, rng: &mut Xoshiro256) {
    let txn = db.manager().begin();
    for i in *next_id..*next_id + n {
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
    *next_id += n;
}

/// Mutate a deterministic sample of ids. Unlike the crash tests, the two
/// runs must end with *identical* relations, so a write-write conflict with
/// the background compactor is retried (it is always transient) instead of
/// abandoned. RNG draws happen before the retry loop so the stream stays
/// aligned across runs whatever the conflict timing.
fn mutate_rows(db: &Database, t: &TableHandle, high: i64, rng: &mut Xoshiro256) {
    let step = 13;
    let mut i = high % step;
    while i < high {
        let payload = rng.alnum_string(8, 40);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let txn = db.manager().begin();
            let Some((slot, row)) = t.lookup(&txn, "pk", &[Value::BigInt(i)]).unwrap() else {
                // Deleted by an earlier Mutate op — deterministic across runs.
                db.manager().abort(&txn);
                break;
            };
            let outcome = if i % 7 == 0 {
                t.delete(&txn, slot)
            } else {
                let v = row[2].as_i64().unwrap() as i32 + 1;
                t.update(
                    &txn,
                    slot,
                    &[(1, Value::Varchar(payload.clone())), (2, Value::Integer(v))],
                )
            };
            match outcome {
                Ok(()) => {
                    db.manager().commit(&txn);
                    break;
                }
                Err(_) => {
                    db.manager().abort(&txn);
                    assert!(Instant::now() < deadline, "mutation of id {i} never committed");
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        i += step;
    }
}

fn wait_converged(db: &Database) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (hot, cooling, freezing, _, _) = db.pipeline().unwrap().block_state_census();
        if hot + cooling + freezing <= 1 {
            return;
        }
        assert!(Instant::now() < deadline, "transform pipeline never converged");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Deep-decode the Flight payload of every block and return the visible
/// rows, sorted by id — must equal the transactional `relation()`.
fn flight_relation(db: &Database, t: &TableHandle) -> Vec<Vec<Value>> {
    let types = t.table().types().to_vec();
    let mut actual = Vec::new();
    for block in t.table().blocks() {
        let (batch, _) = block_batch(db.manager(), t.table(), &block);
        let decoded = ipc::decode_batch(&ipc::encode_batch(&batch)).unwrap();
        for r in 0..decoded.num_rows() {
            if decoded.columns().iter().any(|c| c.is_valid(r)) {
                actual.push(
                    (0..types.len())
                        .map(|c| column_value(decoded.column(c), r, types[c]))
                        .collect::<Vec<_>>(),
                );
            }
        }
    }
    actual.sort_by_key(|r| r[0].as_i64().unwrap());
    actual
}

/// Run the op script against one database and return (observations, final
/// relation). With `budget` set, the eviction clock runs throughout and the
/// accountant's invariants are asserted at the end.
fn run_workload(
    name: &str,
    budget: Option<u64>,
    ops: &[Op],
    seed: u64,
) -> (Vec<Obs>, Vec<Vec<Value>>) {
    let p = paths(name);
    let db = open_db(&p, budget);
    let t = db.create_table("t", schema(), vec![IndexSpec::new("pk", &[0])], true).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut next_id: i64 = 0;
    // One block holds `num_slots` rows; chunks of half a block mean a few
    // Insert ops push frozen content well past the 1 MB budget.
    let chunk = t.table().layout().num_slots() as i64 / 2;

    // Prologue: enough data to overflow the budget, frozen and checkpointed
    // so the evictor has cold homes to evict into.
    insert_chunk(&db, &t, &mut next_id, chunk * 4, &mut rng);
    wait_converged(&db);
    db.checkpoint().unwrap();

    let mut observations = Vec::new();
    for op in ops {
        match op {
            Op::Insert => insert_chunk(&db, &t, &mut next_id, chunk, &mut rng),
            Op::Mutate => mutate_rows(&db, &t, next_id, &mut rng),
            Op::Scan => {
                let rows = relation(db.manager(), t.table());
                observations.push(Obs::Scan { rows: rows.len(), digest: digest_rows(&rows) });
            }
            Op::Export => {
                let stats = export_table(ExportMethod::Flight, db.manager(), t.table());
                observations.push(Obs::Export { rows: stats.rows });
            }
            Op::Checkpoint => {
                db.checkpoint().unwrap();
            }
        }
    }

    // Epilogue: freeze and checkpoint everything, then read the relation
    // through both paths. On the budgeted run these reads fault evicted
    // blocks back in from the checkpoint chain.
    wait_converged(&db);
    db.checkpoint().unwrap();
    let rows = relation(db.manager(), t.table());
    let exported = flight_relation(&db, &t);
    assert_eq!(
        rows, exported,
        "Flight decode differs from the transactional scan (budget={budget:?})"
    );

    if let Some(budget) = budget {
        // The reads above pulled blocks back in; once the clock catches up,
        // resident frozen bytes must settle back under the budget.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let stats = db.memory_stats();
            if stats.resident_bytes <= budget {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "evictor never brought residency under budget: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = db.memory_stats();
        assert_eq!(stats.budget_bytes, budget);
        assert!(stats.evictions > 0, "budgeted run never evicted: {stats:?}");
        assert!(stats.faults > 0, "budgeted run never faulted a block back: {stats:?}");
        assert!(stats.evicted_bytes > 0, "no bytes accounted as evicted: {stats:?}");
    } else {
        let stats = db.memory_stats();
        assert_eq!(stats.evictions, 0, "unbudgeted run must never evict: {stats:?}");
        assert_eq!(stats.budget_bytes, u64::MAX);
    }

    db.shutdown();
    cleanup(&p);
    (observations, rows)
}

fn run_equivalence(name: &str, codes: &[u8], seed: u64) {
    let ops = decode_ops(codes);
    let (obs_cold, rows_cold) = run_workload(&format!("{name}-cold"), Some(BUDGET), &ops, seed);
    let (obs_full, rows_full) = run_workload(&format!("{name}-full"), None, &ops, seed);
    assert_eq!(obs_cold, obs_full, "mid-run observations diverged");
    assert_eq!(rows_cold.len(), rows_full.len());
    assert_eq!(rows_cold, rows_full, "final relations diverged");
}

/// A fixed script covering every op kind, including reads of evicted data
/// between checkpoints — the deterministic CI anchor for the proptest below.
#[test]
fn budgeted_run_matches_resident_run() {
    run_equivalence("fixed", &[2, 3, 0, 1, 4, 2, 1, 0, 4, 3, 2], 42);
}

// Randomized interleavings of the same alphabet. Case count is small — each
// case replays the full workload twice — but every case exercises forced
// eviction (the prologue alone overflows the budget).
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn random_interleavings_are_residency_blind(
        codes in proptest::collection::vec(0u8..5, 6..12),
        seed in 1u64..1_000_000,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        run_equivalence(&format!("prop{case}"), &codes, seed);
    }
}
