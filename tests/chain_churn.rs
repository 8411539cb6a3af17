//! Chain-churn endurance (ISSUE 8): a compressed "week" of
//! create/insert/update/delete/checkpoint/evict/restart churn against a
//! budgeted database with chain compaction enabled. Without compaction the
//! generation chain only grows — every generation survives for its last
//! live frame — so the battery asserts the compactor's headline claims:
//!
//! * **bounded disk**: at the end of the run the chain's on-disk bytes are
//!   at most a small constant multiple of the live data, and the usage
//!   curve *plateaus* (it visibly shrinks at least once rather than growing
//!   monotonically);
//! * **bounded depth**: the number of live generations stays under a fixed
//!   cap at every probe, no matter how many checkpoints have run;
//! * **reader-invisible**: at every probe the deep-decoded Flight export
//!   equals the transactional scan, faulting evicted blocks whose frames
//!   compaction has meanwhile rewritten;
//! * **restart-transparent**: the loop restarts from the (compacted) chain
//!   mid-run and keeps churning — post-restart checkpoints stay incremental
//!   and the relation is preserved row-for-row.

mod common;

use common::relation;
use mainline::arrowlite::batch::column_value;
use mainline::arrowlite::ipc;
use mainline::checkpoint::chain_generations;
use mainline::common::rng::Xoshiro256;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::db::{
    CheckpointConfig, CompactionPolicy, Database, DbConfig, IndexSpec, TableHandle,
};
use mainline::export::materialize::block_batch;
use mainline::transform::TransformConfig;
use mainline::wal;
use std::time::{Duration, Instant};

/// Small enough that a handful of frozen blocks overflow it: the eviction
/// clock stays busy, so compaction continuously retargets evicted blocks.
const BUDGET: u64 = 1_000_000;
/// Compressed churn days. Each day ends in a checkpoint (+ compaction pass).
const DAYS: usize = 12;
/// Restart from the chain every this many days.
const RESTART_EVERY: usize = 5;
/// Depth cap asserted at every probe. Without compaction this chain ends
/// the run at `DAYS + 2` generations or more.
const MAX_GENERATIONS: u64 = 8;
/// Final chain bytes must be within this factor of the live data.
const DISK_FACTOR: u64 = 3;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", TypeId::BigInt),
        ColumnDef::nullable("payload", TypeId::Varchar),
        ColumnDef::new("version", TypeId::Integer),
    ])
}

struct Paths {
    wal_base: std::path::PathBuf,
    ckpt: std::path::PathBuf,
}

impl Paths {
    fn wal(&self, era: usize) -> std::path::PathBuf {
        self.wal_base.with_extension(format!("wal{era}"))
    }
}

fn paths() -> Paths {
    let mut base = std::env::temp_dir();
    base.push(format!("mainline-it-churn-{}", std::process::id()));
    let ckpt = base.with_extension("ckptdir");
    let _ = std::fs::remove_dir_all(&ckpt);
    let p = Paths { wal_base: base, ckpt };
    for era in 0..=DAYS / RESTART_EVERY + 1 {
        let wal = p.wal(era);
        let _ = std::fs::remove_file(&wal);
        for seg in wal::segments::list_segments(&wal).unwrap() {
            let _ = std::fs::remove_file(&seg.path);
        }
    }
    p
}

fn cleanup(p: &Paths) {
    for era in 0..=DAYS / RESTART_EVERY + 1 {
        let wal = p.wal(era);
        let _ = std::fs::remove_file(&wal);
        for seg in wal::segments::list_segments(&wal).unwrap() {
            let _ = std::fs::remove_file(&seg.path);
        }
    }
    let _ = std::fs::remove_dir_all(&p.ckpt);
}

fn config(p: &Paths, era: usize) -> DbConfig {
    DbConfig {
        log_path: Some(p.wal(era)),
        fsync: false,
        wal_segment_bytes: Some(64 * 1024),
        checkpoint: Some(CheckpointConfig {
            dir: p.ckpt.clone(),
            // Manual checkpoints only — the churn loop is the clock.
            wal_growth_bytes: u64::MAX,
            poll_interval: Duration::from_millis(50),
            truncate_wal: true,
        }),
        // Aggressive thresholds so every day's dead weight is reclaimed.
        compaction: Some(CompactionPolicy {
            min_dead_ratio: 0.05,
            tier_merge_count: 2,
            max_batch: 8,
        }),
        memory_budget_bytes: Some(BUDGET),
        transform: Some(TransformConfig { threshold_epochs: 1, workers: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
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

/// Update ~1/13 and delete ~1/7-of-those ids in `[lo, high)`. Churn must be
/// *localized* — touching one row thaws its whole block and forces the next
/// checkpoint to recapture the frame, so a window that swept all of history
/// would defeat incrementality entirely and every generation would be fully
/// superseded (and pruned) daily. The endurance loop instead churns the
/// recent working set plus one rotating old region, which is exactly what
/// turns old generations *mostly* dead: the compactor's prey. Conflicts
/// with the background transform are transient; retry until committed.
fn mutate_rows(db: &Database, t: &TableHandle, lo: i64, high: i64, rng: &mut Xoshiro256) {
    let step = 13;
    let mut i = lo.max(0) + (lo.max(0) % step);
    while i < high {
        let payload = rng.alnum_string(8, 40);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let txn = db.manager().begin();
            let Some((slot, row)) = t.lookup(&txn, "pk", &[Value::BigInt(i)]).unwrap() else {
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

/// Deep-decode the Flight payload of every block — must equal the
/// transactional scan at every probe (faulting evicted blocks back in,
/// possibly from frames compaction has rewritten since they were evicted).
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

/// One probe of the chain: (on-disk bytes, live bytes, generation count).
/// "Live" is the payload of every manifest-referenced frame plus the whole
/// `CURRENT` directory (its manifest, delta segments, and cold file are the
/// live image by definition).
fn probe_chain(p: &Paths) -> (u64, u64, u64) {
    let gens = chain_generations(&p.ckpt).unwrap();
    let disk: u64 = gens.iter().map(|g| g.total_bytes).sum();
    let live: u64 = gens.iter().map(|g| if g.current { g.total_bytes } else { g.live_bytes }).sum();
    (disk, live, gens.len() as u64)
}

#[test]
fn week_of_churn_keeps_the_chain_bounded() {
    let p = paths();
    let mut rng = Xoshiro256::seed_from_u64(4242);
    let mut era = 0usize;
    let mut db = Database::open(config(&p, era)).unwrap();
    let mut t = db.create_table("t", schema(), vec![IndexSpec::new("pk", &[0])], true).unwrap();
    let mut next_id: i64 = 0;
    let chunk = t.table().layout().num_slots() as i64 / 2;
    let mut curve: Vec<(u64, u64, u64)> = Vec::new();
    // Compaction/memory counters are per-`Database`-instance; accumulate
    // across restarts so the week-end assertions see the whole week.
    let (mut passes, mut errors, mut compacted, mut reclaimed) = (0u64, 0u64, 0u64, 0u64);
    let (mut evictions, mut faults) = (0u64, 0u64);
    let mut absorb = |db: &Database| {
        let s = db.metrics_snapshot();
        let counter = |name: &str| s.counter(name).expect("checkpointing is on");
        passes += counter("compaction_passes");
        errors += counter("compaction_errors");
        compacted += counter("compaction_generations");
        reclaimed += counter("compaction_bytes_reclaimed");
        let m = db.memory_stats();
        evictions += m.evictions;
        faults += m.faults;
    };

    for day in 0..DAYS {
        // Morning: fresh rows (about one new frozen block per day). The
        // last few days are ingest-quiet — pure update/delete churn — so
        // the live set stops growing and the disk curve must visibly come
        // back down once the compactor reclaims the dead weight.
        if day < DAYS - 4 {
            insert_chunk(&db, &t, &mut next_id, chunk * 2, &mut rng);
        }
        // Afternoon: churn the recent working set, plus one rotating old
        // region — most old blocks stay frozen (their frames referenced
        // across generations) while a few thaw, so earlier generations
        // decay toward mostly-dead instead of being superseded wholesale.
        mutate_rows(&db, &t, next_id - chunk, next_id, &mut rng);
        if day > 0 {
            let old_span = (next_id - 2 * chunk).max(1);
            let old_lo = (day as i64 * 37 * chunk / 10) % old_span;
            mutate_rows(&db, &t, old_lo, (old_lo + chunk / 2).min(old_span), &mut rng);
        }
        // A side table appears mid-week (CREATE churns the catalog and the
        // manifest), gets some rows, and is dropped again two days later.
        if day == 3 {
            // Not transform-registered: its rows ride the delta path, and
            // the convergence census below keeps a single active table.
            let tmp = db
                .create_table("weekly", schema(), vec![IndexSpec::new("pk", &[0])], false)
                .unwrap();
            let txn = db.manager().begin();
            for i in 0..200 {
                tmp.insert(
                    &txn,
                    &[Value::BigInt(i), Value::Varchar(b"ephemeral".to_vec()), Value::Integer(0)],
                );
            }
            db.manager().commit(&txn);
        }
        if day == 5 {
            db.drop_table("weekly").unwrap();
        }
        // Evening: freeze everything and checkpoint; the compaction pass
        // rides the same lock right after the publish.
        wait_converged(&db);
        db.checkpoint().unwrap();

        // Nightly probe: the export path must agree with the scan (this
        // faults evicted blocks back in), and the chain must stay shallow.
        let scanned = relation(db.manager(), t.table());
        assert_eq!(
            flight_relation(&db, &t),
            scanned,
            "day {day}: Flight decode diverged from the transactional scan"
        );
        let (disk, live, gens) = probe_chain(&p);
        assert!(
            gens <= MAX_GENERATIONS,
            "day {day}: chain depth {gens} exceeds the bound {MAX_GENERATIONS}: {curve:?}"
        );
        curve.push((disk, live, gens));

        // Some nights the process dies and the week resumes from the
        // (compacted) chain + WAL tail under a fresh log era.
        if (day + 1) % RESTART_EVERY == 0 && day + 1 < DAYS {
            let before = relation(db.manager(), t.table());
            absorb(&db);
            db.shutdown();
            drop(db);
            let tail = p.wal(era);
            era += 1;
            let (db2, _rs) =
                Database::open_from_checkpoint(config(&p, era), &p.ckpt, Some(&tail)).unwrap();
            db = db2;
            t = db.catalog().table("t").expect("table must survive restart");
            assert_eq!(
                relation(db.manager(), t.table()),
                before,
                "day {day}: restart from the compacted chain lost rows"
            );
        }
    }

    // The compactor must have actually worked for a living...
    absorb(&db);
    assert!(passes > 0, "no compaction passes ran");
    assert_eq!(errors, 0, "{errors} compaction passes failed");
    assert!(compacted > 0, "nothing was ever compacted over {passes} passes: {curve:?}");
    assert!(reclaimed > 0, "no disk was ever reclaimed over {passes} passes: {curve:?}");
    // ...the eviction clock too (so retargets ran against evicted blocks)...
    assert!(
        evictions > 0 && faults > 0,
        "churn never exercised eviction ({evictions} evictions, {faults} faults)"
    );

    // ...and the headline bound holds: final disk within a small factor of
    // live data, with a visible plateau (usage shrank at least once).
    let (disk, live, _) = *curve.last().unwrap();
    assert!(
        disk <= live.max(1) * DISK_FACTOR,
        "chain disk usage is unbounded: {disk} bytes on disk for {live} live (curve: {curve:?})"
    );
    assert!(
        curve.windows(2).any(|w| w[1].0 < w[0].0),
        "chain usage grew monotonically — compaction never reclaimed: {curve:?}"
    );

    db.shutdown();
    cleanup(&p);
}
