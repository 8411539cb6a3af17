//! Chain compaction must be invisible to readers and to restarts (ISSUE 8):
//! the same logical workload run twice — once with an aggressively-forced
//! compactor rewriting generations after every checkpoint, once with
//! compaction disabled — must produce identical mid-run observations,
//! identical final relations through both the transactional scan and the
//! deep-decoded Flight export (whose reads fault evicted blocks back in,
//! from *rewritten* frames on the compacted twin), and an identical relation
//! after a restart from the respective checkpoint chains.
//!
//! Both twins run under the same tiny memory budget, so the eviction clock
//! is busy throughout and every compaction pass on the forced twin has
//! evicted `ColdLocation`s to retarget.

mod common;

use common::relation;
use mainline::arrowlite::batch::column_value;
use mainline::arrowlite::ipc;
use mainline::common::rng::Xoshiro256;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::db::{
    CheckpointConfig, CompactionPolicy, Database, DbConfig, IndexSpec, TableHandle,
};
use mainline::export::materialize::block_batch;
use mainline::export::{export_table, ExportMethod};
use mainline::transform::TransformConfig;
use mainline::wal;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Same squeeze as the buffer-equivalence battery: a handful of frozen
/// blocks overflow it, so compaction always finds evicted blocks to retarget.
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

impl Paths {
    /// A restart opens a fresh WAL era — `open_from_checkpoint` refuses to
    /// append to the crashed process's log.
    fn wal2(&self) -> std::path::PathBuf {
        self.wal.with_extension("wal2")
    }
}

fn paths(name: &str) -> Paths {
    let mut wal_path = std::env::temp_dir();
    wal_path.push(format!("mainline-it-cmpeq-{}-{name}.wal", std::process::id()));
    let ckpt = wal_path.with_extension("ckptdir");
    let p = Paths { wal: wal_path, ckpt };
    cleanup(&p);
    p
}

fn cleanup(p: &Paths) {
    for path in [&p.wal, &p.wal2()] {
        let _ = std::fs::remove_file(path);
        for seg in wal::segments::list_segments(path).unwrap() {
            let _ = std::fs::remove_file(&seg.path);
        }
    }
    let _ = std::fs::remove_dir_all(&p.ckpt);
}

fn config(p: &Paths, wal: std::path::PathBuf, compaction: Option<CompactionPolicy>) -> DbConfig {
    DbConfig {
        log_path: Some(wal),
        fsync: false,
        wal_segment_bytes: Some(64 * 1024),
        checkpoint: Some(CheckpointConfig {
            dir: p.ckpt.clone(),
            // Manual checkpoints only — the op script decides when.
            wal_growth_bytes: u64::MAX,
            poll_interval: Duration::from_millis(50),
            truncate_wal: false,
        }),
        compaction,
        memory_budget_bytes: Some(BUDGET),
        transform: Some(TransformConfig { threshold_epochs: 1, workers: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    }
}

/// Thresholds low enough that every non-`CURRENT` generation (each carries
/// at least its dead superseded manifest) is a victim: every checkpoint on
/// the forced twin is followed by a real rewrite.
fn forced() -> CompactionPolicy {
    CompactionPolicy { min_dead_ratio: 0.01, tier_merge_count: 2, max_batch: 8 }
}

/// True when the engine profile forces chain GC (CI's `compacted` regime),
/// overriding the per-twin config, so even the "plain" twin compacts.
fn profile_forces_compaction() -> bool {
    mainline_common::Profile::current().compaction.is_some()
}

/// The workload alphabet. An op sequence plus an RNG seed fully determines
/// the logical content, so the two twins must agree on every observation
/// no matter how often the chain underneath them is rewritten.
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

/// Mutate a deterministic sample of ids in `[lo, hi)`. The window rotates
/// per Mutate op (see `run_workload`) so older generations keep *some* live
/// frames while accumulating dead ones — the shape the compactor exists
/// for. Transient write-write conflicts with the background transform are
/// retried; RNG draws happen before the retry loop so the stream stays
/// aligned across twins whatever the conflict timing.
fn mutate_rows(db: &Database, t: &TableHandle, lo: i64, hi: i64, rng: &mut Xoshiro256) {
    let step = 13;
    let mut i = lo.max(0);
    while i < hi {
        let payload = rng.alnum_string(8, 40);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let txn = db.manager().begin();
            let Some((slot, row)) = t.lookup(&txn, "pk", &[Value::BigInt(i)]).unwrap() else {
                // Deleted by an earlier Mutate op — deterministic across twins.
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

/// Run the op script against one twin. Returns the mid-run observations,
/// the final pre-shutdown relation, and the relation served by a restart
/// from this twin's checkpoint chain + WAL.
fn run_workload(
    name: &str,
    compaction: Option<CompactionPolicy>,
    ops: &[Op],
    seed: u64,
) -> (Vec<Obs>, Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let p = paths(name);
    let db = Database::open(config(&p, p.wal.clone(), compaction.clone())).unwrap();
    let t = db.create_table("t", schema(), vec![IndexSpec::new("pk", &[0])], true).unwrap();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut next_id: i64 = 0;
    let chunk = t.table().layout().num_slots() as i64 / 2;

    // Prologue: overflow the budget, freeze, checkpoint, then dirty one old
    // window and checkpoint again — the forced twin starts every script
    // with a partially-superseded generation to chew on.
    insert_chunk(&db, &t, &mut next_id, chunk * 4, &mut rng);
    wait_converged(&db);
    db.checkpoint().unwrap();
    mutate_rows(&db, &t, 0, chunk / 2, &mut rng);
    wait_converged(&db);
    db.checkpoint().unwrap();

    let mut observations = Vec::new();
    let mut windows = 0i64;
    for op in ops {
        match op {
            Op::Insert => insert_chunk(&db, &t, &mut next_id, chunk, &mut rng),
            Op::Mutate => {
                // A rotating half-chunk window over the id space: localized
                // churn keeps most frozen blocks' frames live across
                // checkpoints while steadily poisoning old generations.
                let lo = (windows * chunk / 2) % next_id.max(1);
                windows += 1;
                mutate_rows(&db, &t, lo, (lo + chunk / 2).min(next_id), &mut rng);
            }
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

    // Epilogue: freeze and checkpoint everything, then read through both
    // paths. On the forced twin these reads fault evicted blocks whose
    // frames compaction has rewritten since eviction.
    wait_converged(&db);
    db.checkpoint().unwrap();
    let rows = relation(db.manager(), t.table());
    let exported = flight_relation(&db, &t);
    assert_eq!(
        rows, exported,
        "Flight decode differs from the transactional scan (compaction={compaction:?})"
    );

    let snap = db.metrics_snapshot();
    let counter = |name: &str| snap.counter(name).expect("checkpointing is on");
    let stats =
        snap.one_line(&["compaction_passes", "compaction_errors", "compaction_generations"]);
    if compaction.is_some() {
        assert_eq!(
            counter("compaction_errors"),
            0,
            "forced twin's compaction passes failed: {stats}"
        );
        assert!(
            counter("compaction_passes") > 0,
            "forced twin never ran a compaction pass: {stats}"
        );
        // The prologue alone guarantees prey: after the second checkpoint
        // the first generation is non-current and partially dead, and the
        // forced thresholds make every such generation a victim — so the
        // equivalence is never vacuous.
        assert!(
            counter("compaction_generations") > 0,
            "forced twin never rewrote a generation: {stats}"
        );
    } else if !profile_forces_compaction() {
        // Under the `compacted` profile
        // even this twin compacts — the equivalence assertions below still
        // hold, and are stronger for it, but "never ran" no longer applies.
        assert_eq!(
            counter("compaction_passes"),
            0,
            "compaction ran on the twin that disabled it: {stats}"
        );
        assert_eq!(counter("compaction_generations"), 0, "{stats}");
    }
    let mem = db.memory_stats();
    assert!(mem.evictions > 0, "the budget never forced an eviction: {mem:?}");

    db.shutdown();
    drop(db);

    // Restart from this twin's chain + WAL tail: the relation a fresh
    // process serves — and its Flight export — must match what the old
    // process last saw, whatever the chain's physical layout.
    let (db, _rs) = Database::open_from_checkpoint(
        config(&p, p.wal2(), compaction.clone()),
        &p.ckpt,
        Some(&p.wal),
    )
    .unwrap();
    let t = db.catalog().table("t").expect("table must survive restart");
    let restarted = relation(db.manager(), t.table());
    assert_eq!(
        flight_relation(&db, &t),
        restarted,
        "restarted Flight decode diverged (compaction={compaction:?})"
    );
    db.shutdown();
    drop(db);
    cleanup(&p);
    (observations, rows, restarted)
}

fn run_equivalence(name: &str, codes: &[u8], seed: u64) {
    let ops = decode_ops(codes);
    let (obs_gc, rows_gc, restart_gc) =
        run_workload(&format!("{name}-gc"), Some(forced()), &ops, seed);
    let (obs_plain, rows_plain, restart_plain) =
        run_workload(&format!("{name}-plain"), None, &ops, seed);
    assert_eq!(obs_gc, obs_plain, "mid-run observations diverged");
    assert_eq!(rows_gc, rows_plain, "final relations diverged");
    assert_eq!(restart_gc, restart_plain, "restarted relations diverged");
    assert_eq!(rows_gc, restart_gc, "restart lost or invented rows");
}

/// A fixed script covering every op kind — the deterministic CI anchor.
#[test]
fn forced_compaction_run_matches_plain_run() {
    run_equivalence("fixed", &[0, 1, 4, 1, 2, 4, 3, 1, 4, 2, 3], 99);
}

// Randomized interleavings of the same alphabet. Each case replays the
// full workload against both twins, restarts included.
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn random_interleavings_are_compaction_blind(
        codes in proptest::collection::vec(0u8..5, 6..12),
        seed in 1u64..1_000_000,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        run_equivalence(&format!("prop{case}"), &codes, seed);
    }
}
