//! Snapshot coherence for the observability subsystem (ISSUE 9): metrics
//! read through `Database::metrics_snapshot` must agree with the engine's
//! typed stats accessors and with what a wire client actually did. Counters
//! are process-global and tests share one process, so every assertion here
//! is one-sided (≥) or a within-test delta — never an absolute equality on
//! a global.

use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::db::{Database, DbConfig, IndexSpec};
use mainline::server::client::PgClient;
use mainline::server::{DatabaseServe, ServerConfig};
use mainline::transform::TransformConfig;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The event ring and its enable flag are process-global and every
/// `Database::open` re-applies its `observability` setting; serialize the
/// tests in this binary so one test's toggle can't race another's open.
static GLOBAL_OBS: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    GLOBAL_OBS.lock().unwrap_or_else(|e| e.into_inner())
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mainline-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Served workload: every durably-acked wire INSERT implies a WAL commit
/// ack, the snapshot's buffer/admission aliases equal the typed accessors,
/// and the server source's counters match the server's own snapshot.
#[test]
fn snapshot_coheres_with_served_workload() {
    let _serial = obs_lock();
    let dir = unique_dir("served");
    let db = Database::open(DbConfig {
        log_path: Some(dir.join("wal")),
        fsync: false,
        transform: Some(TransformConfig { threshold_epochs: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(2),
        transform_interval: Duration::from_millis(5),
        ..Default::default()
    })
    .unwrap();
    db.create_table(
        "t",
        Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]),
        vec![IndexSpec::new("pk", &[0])],
        true,
    )
    .unwrap();
    let server = db.serve(ServerConfig::default()).unwrap();

    let acked_before = db.metrics_snapshot().counter("wal_commits_acked").unwrap_or(0);
    let mut client = PgClient::connect(server.addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    const INSERTS: u64 = 40;
    for i in 0..INSERTS {
        let out = client.query(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        assert_eq!(out.tag.as_deref(), Some("INSERT 0 1"), "{:?}", out.error);
    }
    let scan = client.query("SELECT * FROM t").unwrap();
    assert_eq!(scan.rows.len() as u64, INSERTS);

    let snap = db.metrics_snapshot();

    // Durability linkage: CommandComplete is withheld until the write is on
    // disk, so the engine must have acked at least one WAL group commit per
    // acked INSERT (group commit can only merge *concurrent* writers; this
    // client is strictly sequential).
    let acked = snap.counter("wal_commits_acked").unwrap();
    assert!(
        acked - acked_before >= INSERTS,
        "{INSERTS} acked INSERTs but only {} new WAL acks",
        acked - acked_before
    );

    // Alias coherence: the snapshot rows are the typed accessors' numbers.
    // Re-read the typed side after the snapshot and sandwich: counters are
    // monotonic, so alias ∈ [before, after] proves the alias is live.
    let mem = db.memory_stats();
    assert!(snap.counter("buffer_faults").unwrap() <= mem.faults);
    assert!(snap.counter("buffer_evictions").unwrap() <= mem.evictions);
    let adm = db.admission_stats();
    assert!(snap.counter("admission_yields").unwrap() <= adm.yield_count);
    assert!(snap.counter("admission_stalls").unwrap() <= adm.stall_count);
    assert_eq!(snap.counter("db_checkpoints").unwrap(), db.checkpoints_taken());

    // Server-source coherence: the absorbed `server_*` counters are this
    // server's stats (queries: 40 INSERTs + 1 SELECT, maybe more if another
    // test's server shares the registry — the source is per-server, so no).
    let st = server.stats();
    assert_eq!(snap.counter("server_rows_inserted").unwrap(), st.rows_inserted);
    assert!(snap.counter("server_queries").unwrap() > INSERTS);
    assert!(snap.counter("server_bytes_sent").unwrap() > 0);

    // The wire-latency histogram saw every synchronous query.
    let h = snap.histogram("server_query_nanos").unwrap();
    assert!(h.count >= INSERTS, "query histogram count {} < {INSERTS}", h.count);
    assert!(h.sum > 0);

    // Monotonicity across snapshots.
    let again = db.metrics_snapshot();
    for (name, v) in snap.counters() {
        if let Some(v2) = again.counter(name) {
            assert!(v2 >= *v, "counter {name} went backwards: {v} -> {v2}");
        }
    }

    client.terminate().unwrap();
    server.shutdown();
    db.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `db_writes` counts every write entry point — inserts, updates, and
/// deletes — flushed from the undo-buffer length at commit, measured as a
/// within-test delta.
#[test]
fn db_writes_counts_every_entry_point() {
    let _serial = obs_lock();
    let db = Database::open(DbConfig::default()).unwrap();
    let t = db
        .create_table(
            "w",
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::new("v", TypeId::BigInt),
            ]),
            vec![IndexSpec::new("pk", &[0])],
            false,
        )
        .unwrap();
    let before = db.metrics_snapshot().counter("db_writes").unwrap();
    let txn = db.manager().begin();
    let mut slots = Vec::new();
    for i in 0..30 {
        slots.push(t.insert(&txn, &[Value::BigInt(i), Value::BigInt(0)]));
    }
    for (i, slot) in slots.iter().enumerate().take(20) {
        t.update(&txn, *slot, &[(1, Value::BigInt(i as i64))]).unwrap();
    }
    for slot in slots.iter().take(10) {
        t.delete(&txn, *slot).unwrap();
    }
    db.manager().commit(&txn);
    let after = db.metrics_snapshot().counter("db_writes").unwrap();
    // ≥: another test in this binary may be writing concurrently.
    assert!(after - before >= 60, "30+20+10 writes, counted {}", after - before);
    db.shutdown();
}

/// `index_lookup_nanos` samples the point probes TPC-C makes: a mini mix
/// goes through `TableHandle`'s lookups and prefix scans only (never
/// `BPlusTree::get`), and must still move the histogram.
#[test]
fn tpcc_mix_moves_index_lookup_nanos() {
    use mainline::common::rng::Xoshiro256;
    use mainline::workloads::tpcc::{Tpcc, TpccConfig, TpccStats};
    let _serial = obs_lock();
    let db = Database::open(DbConfig::default()).unwrap();
    let tpcc = Tpcc::create(&db, TpccConfig::mini(1), false).unwrap();
    tpcc.load(&db, 5).unwrap();
    let sampled = || db.metrics_snapshot().histogram("index_lookup_nanos").map_or(0, |h| h.count);
    let before = sampled();
    let mut rng = Xoshiro256::seed_from_u64(5);
    let mut stats = TpccStats::default();
    for _ in 0..200 {
        tpcc.run_one(&db, &mut rng, 1, &mut stats);
    }
    assert!(stats.total() > 150, "{stats:?}");
    // 200 transactions make thousands of probes; one in eight is sampled.
    let moved = sampled() - before;
    assert!(moved >= 100, "index_lookup_nanos moved by {moved}");
    db.shutdown();
}

/// The event ring obeys `DbConfig::observability`: off records nothing, on
/// records freeze events from a transform workload, and the ring's
/// sequences stay dense through the toggle.
#[test]
fn event_ring_gated_by_config() {
    let _serial = obs_lock();
    // Force OFF, drive a freeze: no new events may appear.
    let db = Database::open(DbConfig {
        transform: Some(TransformConfig { threshold_epochs: 1, ..Default::default() }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        observability: Some(false),
        ..Default::default()
    })
    .unwrap();
    let recorded_off = mainline::obs::registry().ring().recorded();
    let t = db
        .create_table("e", Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]), vec![], true)
        .unwrap();
    let per_block = t.table().layout().num_slots() as i64;
    let txn = db.manager().begin();
    for i in 0..per_block + 10 {
        t.insert(&txn, &[Value::BigInt(i)]);
    }
    db.manager().commit(&txn);
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.pipeline().unwrap().stats().blocks_frozen < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(db.pipeline().unwrap().stats().blocks_frozen >= 1, "block never froze");
    assert_eq!(
        mainline::obs::registry().ring().recorded(),
        recorded_off,
        "events recorded while tracing was off"
    );
    db.shutdown();
    // The snapshot's transform counters alias the pipeline's own stats
    // (the workers have stopped, so neither side moves between the reads).
    let snap = db.metrics_snapshot();
    let stats = db.pipeline().unwrap().stats();
    assert_eq!(snap.counter("transform_blocks_frozen"), Some(stats.blocks_frozen as u64));
    assert_eq!(snap.counter("transform_groups_compacted"), Some(stats.groups_compacted as u64));
    assert_eq!(snap.counter("transform_ticks"), Some(stats.ticks));

    // Force ON, drive another freeze: the freeze event must land, with
    // dense sequences and non-decreasing timestamps.
    let db = Database::open(DbConfig {
        transform: Some(TransformConfig { threshold_epochs: 1, ..Default::default() }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        observability: Some(true),
        ..Default::default()
    })
    .unwrap();
    let t = db
        .create_table("e", Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]), vec![], true)
        .unwrap();
    let txn = db.manager().begin();
    for i in 0..per_block + 10 {
        t.insert(&txn, &[Value::BigInt(i)]);
    }
    db.manager().commit(&txn);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let events = mainline::obs::events_snapshot();
        if events.iter().any(|e| e.kind == mainline::obs::kind::FREEZE) {
            for w in events.windows(2) {
                assert_eq!(w[1].seq, w[0].seq + 1, "ring sequences must be dense");
                assert!(w[1].micros >= w[0].micros, "ring timestamps must be monotonic");
            }
            break;
        }
        assert!(Instant::now() < deadline, "no freeze event while tracing was on");
        std::thread::sleep(Duration::from_millis(2));
    }
    db.shutdown();
}
