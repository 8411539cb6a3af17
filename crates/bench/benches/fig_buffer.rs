//! Cold-block buffer-manager sweep (ISSUE 6): scan + lookup cost as the
//! memory budget shrinks from unlimited to ~10% of the frozen data.
//!
//! Each cell runs the same workload — insert, let the pipeline freeze
//! everything, checkpoint (giving every frozen block a cold home in the
//! chain) — under a different `memory_budget_bytes`, lets the eviction
//! clock settle under the budget, and then measures:
//!
//! * **cold_scan** — a full relation scan that must fault evicted blocks
//!   back in from the checkpoint chain;
//! * **rescan** — the same scan again (partially warm: the clock keeps
//!   re-evicting behind the reader on the tight budgets);
//! * **lookups** — a point-lookup sweep through the primary index.
//!
//! Reported per cell: the settled resident bytes, eviction/fault counts,
//! and the three read timings. The unlimited cell measures the frozen data
//! size that the budgeted cells are scaled from.
//!
//! Knobs: `MAINLINE_BUFFER_ROWS` (row count, default 120000).

use mainline_bench::{emit, time};
use mainline_common::rng::Xoshiro256;
use mainline_common::schema::{ColumnDef, Schema};
use mainline_common::value::{TypeId, Value};
use mainline_db::{CheckpointConfig, Database, DbConfig, IndexSpec, TableHandle};
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

fn full_scan(db: &Database, t: &TableHandle) -> usize {
    let txn = db.manager().begin();
    let n = t.table().count_visible(&txn);
    db.manager().commit(&txn);
    n
}

/// Run one budget cell; returns the settled resident bytes (the unlimited
/// cell uses this to size the budgeted ones).
fn run_cell(rows: i64, budget: Option<u64>, label: &str) -> u64 {
    let mut wal = std::env::temp_dir();
    wal.push(format!("mainline-fig-buffer-{}-{label}.wal", std::process::id()));
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
            truncate_wal: false,
        }),
        // Explicit `u64::MAX` so the unlimited cell ignores the `evicted`
        // profile's budget.
        memory_budget_bytes: Some(budget.unwrap_or(u64::MAX)),
        transform: Some(TransformConfig { threshold_epochs: 1, workers: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(2),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    })
    .unwrap();
    let t = db.create_table("t", schema(), vec![IndexSpec::new("pk", &[0])], true).unwrap();

    let mut rng = Xoshiro256::seed_from_u64(rows as u64);
    insert_rows(&db, &t, 0..rows, &mut rng);

    // Freeze everything but the active tail, then checkpoint so every
    // frozen block has a chain location and becomes evictable.
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let (hot, cooling, freezing, _, _) = db.pipeline().unwrap().block_state_census();
        if hot + cooling + freezing <= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    db.checkpoint().unwrap();

    // Let the eviction clock settle under the budget before measuring.
    if let Some(b) = budget {
        let deadline = Instant::now() + Duration::from_secs(30);
        while db.memory_stats().resident_bytes > b && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if db.memory_stats().resident_bytes > b {
            println!("# WARNING: evictor did not settle under budget at {label}");
        }
    }
    let settled = db.memory_stats();
    emit(
        "fig_buffer",
        "budget_mb",
        label,
        settled.budget_bytes.min(u64::MAX / 2) as f64 / (1 << 20) as f64,
        "MB",
    );
    emit(
        "fig_buffer",
        "resident_mb",
        label,
        settled.resident_bytes as f64 / (1 << 20) as f64,
        "MB",
    );
    emit("fig_buffer", "evicted_mb", label, settled.evicted_bytes as f64 / (1 << 20) as f64, "MB");

    let (n, cold_secs) = time(|| full_scan(&db, &t));
    assert_eq!(n as i64, rows, "scan under budget {budget:?} lost rows");
    let (n, warm_secs) = time(|| full_scan(&db, &t));
    assert_eq!(n as i64, rows);

    let lookups = 2000usize;
    let (hits, lookup_secs) = time(|| {
        let mut hits = 0usize;
        for k in 0..lookups {
            let id = (k as i64 * 7919) % rows;
            let txn = db.manager().begin();
            if t.lookup(&txn, "pk", &[Value::BigInt(id)]).unwrap().is_some() {
                hits += 1;
            }
            db.manager().commit(&txn);
        }
        hits
    });
    assert_eq!(hits, lookups);

    let stats = db.memory_stats();
    emit("fig_buffer", "evictions", label, stats.evictions as f64, "blocks");
    emit("fig_buffer", "faults", label, stats.faults as f64, "blocks");
    emit("fig_buffer", "cold_scan_s", label, cold_secs, "s");
    emit("fig_buffer", "rescan_s", label, warm_secs, "s");
    emit("fig_buffer", "lookup_us", label, lookup_secs * 1e6 / lookups as f64, "us");

    db.shutdown();
    let _ = std::fs::remove_file(&wal);
    for seg in mainline_wal::segments::list_segments(&wal).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
    let _ = std::fs::remove_dir_all(&ckpt_root);
    settled.resident_bytes
}

fn main() {
    let rows: i64 =
        std::env::var("MAINLINE_BUFFER_ROWS").ok().and_then(|s| s.parse().ok()).unwrap_or(120_000);
    println!("# fig_buffer: {rows} rows per cell; budget sweep inf -> 10%");
    println!("figure,series,x,value,unit");
    let data_bytes = run_cell(rows, None, "inf");
    for (frac, label) in [(1.0, "100"), (0.5, "50"), (0.25, "25"), (0.10, "10")] {
        let budget = ((data_bytes as f64 * frac) as u64).max(1);
        run_cell(rows, Some(budget), label);
    }
}
