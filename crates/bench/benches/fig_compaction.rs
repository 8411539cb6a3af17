//! Checkpoint-chain compaction sweep (ISSUE 8): chain disk usage and depth
//! over a churn workload, with the size-tiered generation GC on vs off.
//!
//! Both cells run the same script — insert a base table, freeze and
//! checkpoint it, then a number of churn rounds that each mutate a rotating
//! window of rows (thawing a slice of the frozen blocks) and checkpoint
//! again. Incremental checkpoints keep referencing the untouched frames in
//! older generations, so without compaction the chain deepens and its disk
//! footprint accretes dead frames; with the compactor riding the checkpoint
//! lock, superseded generations are rewritten and reclaimed as they decay.
//!
//! Reported per round and cell: chain on-disk bytes and generation count.
//! For the compacting cell: total frames/bytes rewritten, bytes reclaimed,
//! and the cost of a forced full pass at the end (`Database::compact`).
//!
//! Knobs: `MAINLINE_COMPACTION_ROWS` (base rows, default 180000 — about
//! six frozen blocks; one block holds ~28k rows of this schema),
//! `MAINLINE_COMPACTION_ROUNDS` (churn rounds, default 8).

use mainline_bench::{emit, time};
use mainline_checkpoint::chain_generations;
use mainline_common::rng::Xoshiro256;
use mainline_common::schema::{ColumnDef, Schema};
use mainline_common::value::{TypeId, Value};
use mainline_db::{CheckpointConfig, CompactionPolicy, Database, DbConfig, IndexSpec, TableHandle};
use mainline_transform::TransformConfig;
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", TypeId::BigInt),
        ColumnDef::nullable("payload", TypeId::Varchar),
        ColumnDef::new("version", TypeId::Integer),
    ])
}

fn insert_rows(db: &Database, t: &TableHandle, ids: std::ops::Range<i64>, rng: &mut Xoshiro256) {
    for chunk_start in ids.clone().step_by(1000) {
        let txn = db.manager().begin();
        for i in chunk_start..(chunk_start + 1000).min(ids.end) {
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
}

/// Update every 13th id in `[lo, hi)` — enough to thaw the blocks holding
/// that window, superseding their frames at the next checkpoint.
fn mutate_window(db: &Database, t: &TableHandle, lo: i64, hi: i64, rng: &mut Xoshiro256) {
    let mut i = lo.max(0);
    while i < hi {
        let payload = rng.alnum_string(8, 40);
        loop {
            let txn = db.manager().begin();
            let Some((slot, row)) = t.lookup(&txn, "pk", &[Value::BigInt(i)]).unwrap() else {
                db.manager().abort(&txn);
                break;
            };
            let v = row[2].as_i64().unwrap() as i32 + 1;
            match t.update(
                &txn,
                slot,
                &[(1, Value::Varchar(payload.clone())), (2, Value::Integer(v))],
            ) {
                Ok(()) => {
                    db.manager().commit(&txn);
                    break;
                }
                Err(_) => {
                    db.manager().abort(&txn);
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        i += 13;
    }
}

fn wait_converged(db: &Database) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let (hot, cooling, freezing, _, _) = db.pipeline().unwrap().block_state_census();
        if hot + cooling + freezing <= 1 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("# WARNING: transform pipeline did not converge");
}

fn run_cell(rows: i64, rounds: usize, compaction: Option<CompactionPolicy>, label: &str) {
    let mut wal = std::env::temp_dir();
    wal.push(format!("mainline-fig-compaction-{}-{label}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    for seg in mainline_wal::segments::list_segments(&wal).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
    let ckpt_root = wal.with_extension("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_root);

    let db = Database::open(DbConfig {
        log_path: Some(wal.clone()),
        fsync: false,
        wal_segment_bytes: Some(1 << 20),
        checkpoint: Some(CheckpointConfig {
            dir: ckpt_root.clone(),
            wal_growth_bytes: u64::MAX, // manual checkpoints only
            poll_interval: Duration::from_millis(50),
            truncate_wal: true,
        }),
        compaction,
        memory_budget_bytes: Some(u64::MAX),
        transform: Some(TransformConfig { threshold_epochs: 1, workers: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(2),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    })
    .unwrap();
    let t = db.create_table("t", schema(), vec![IndexSpec::new("pk", &[0])], true).unwrap();

    let mut rng = Xoshiro256::seed_from_u64(rows as u64);
    insert_rows(&db, &t, 0..rows, &mut rng);
    wait_converged(&db);
    db.checkpoint().unwrap();

    let window = (rows / 8).max(1);
    for round in 0..rounds {
        let lo = (round as i64 * window * 3) % rows;
        mutate_window(&db, &t, lo, (lo + window).min(rows), &mut rng);
        wait_converged(&db);
        let cs = db.checkpoint().unwrap();
        println!(
            "# {label} round {round}: wrote {} frames, reused {}",
            cs.frozen_blocks, cs.frozen_blocks_reused
        );

        let gens = chain_generations(&ckpt_root).unwrap();
        let disk: u64 = gens.iter().map(|g| g.total_bytes).sum();
        emit(
            "fig_compaction",
            &format!("chain_mb_{label}"),
            round.to_string(),
            disk as f64 / (1 << 20) as f64,
            "MB",
        );
        emit(
            "fig_compaction",
            &format!("generations_{label}"),
            round.to_string(),
            gens.len() as f64,
            "gens",
        );
    }

    let snap = db.metrics_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    emit(
        "fig_compaction",
        "frames_rewritten",
        label,
        counter("compaction_frames_rewritten"),
        "frames",
    );
    emit(
        "fig_compaction",
        "rewritten_mb",
        label,
        counter("compaction_bytes_rewritten") / (1 << 20) as f64,
        "MB",
    );
    emit(
        "fig_compaction",
        "reclaimed_mb",
        label,
        counter("compaction_bytes_reclaimed") / (1 << 20) as f64,
        "MB",
    );

    // Cost of one forced pass over whatever the run left behind (a no-op
    // measures the planning floor on the compacted cell).
    let (pass, secs) = time(|| db.compact().unwrap());
    emit("fig_compaction", "forced_pass_ms", label, secs * 1e3, "ms");
    emit("fig_compaction", "forced_pass_gens", label, pass.generations_compacted as f64, "gens");

    db.shutdown();
    let _ = std::fs::remove_file(&wal);
    for seg in mainline_wal::segments::list_segments(&wal).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
    let _ = std::fs::remove_dir_all(&ckpt_root);
}

fn main() {
    let rows: i64 = std::env::var("MAINLINE_COMPACTION_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(180_000);
    let rounds: usize =
        std::env::var("MAINLINE_COMPACTION_ROUNDS").ok().and_then(|s| s.parse().ok()).unwrap_or(8);
    println!("# fig_compaction: {rows} base rows, {rounds} churn rounds; GC off vs on");
    println!("figure,series,x,value,unit");
    run_cell(rows, rounds, None, "none");
    run_cell(
        rows,
        rounds,
        Some(CompactionPolicy { min_dead_ratio: 0.2, tier_merge_count: 3, max_batch: 8 }),
        "gc",
    );
}
