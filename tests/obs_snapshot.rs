//! Snapshot coherence for the observability subsystem: metrics read through
//! `Database::metrics_snapshot` must agree with the engine's typed stats
//! accessors and with what a wire client actually did. Metrics belong to the
//! database that records them, and each test opens its own databases, so
//! counts are exact even while the tests of this binary share one process.
//! Only the event ring is process-wide.

use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::common::Profile;
use mainline::db::{CheckpointConfig, Database, DbConfig, IndexSpec};
use mainline::obs::MetricsSnapshot;
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
/// ack, the snapshot's buffer/admission rows equal the typed accessors,
/// and the server's counters match what the client did.
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

    // The snapshot rows are the typed accessors' numbers: the writes are
    // over, so neither side moves between the reads.
    let mem = db.memory_stats();
    assert_eq!(snap.counter("buffer_faults"), Some(mem.faults));
    assert_eq!(snap.counter("buffer_evictions"), Some(mem.evictions));
    let adm = db.admission_stats();
    assert_eq!(snap.counter("admission_yields"), Some(adm.yield_count));
    assert_eq!(snap.counter("admission_stalls"), Some(adm.stall_count));
    // Checkpoint rows exist only where the profile forces checkpointing.
    let checkpointing = Profile::current().checkpoint_bytes.is_some();
    assert_eq!(snap.counter("db_checkpoints"), checkpointing.then(|| db.checkpoints_taken()));

    // The `server_*` rows are this server's counts: 40 INSERTs + 1 SELECT.
    let st = server.metrics();
    assert_eq!(snap.counter("server_rows_inserted"), Some(INSERTS));
    assert_eq!(st.rows_inserted.get(), INSERTS);
    assert_eq!(snap.counter("server_queries"), Some(INSERTS + 1));
    assert!(snap.counter("server_bytes_sent").unwrap() > 0);

    // The wire-latency histogram saw every query: each INSERT, and the
    // SELECT's stream.
    let h = snap.histogram("server_query_nanos").unwrap();
    assert_eq!(h.count, INSERTS + 1, "query histogram count");
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
/// deletes — flushed from the undo-buffer length at commit.
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
    // The CREATE TABLE commit stages DDL, not rows.
    assert_eq!(db.metrics_snapshot().counter("db_writes"), Some(0));
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
    assert_eq!(db.metrics_snapshot().counter("db_writes"), Some(60), "30+20+10 writes");
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
    let recorded_off = mainline::obs::ring().recorded();
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
    let frozen = || db.pipeline().unwrap().metrics().blocks_frozen.get();
    while frozen() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(frozen() >= 1, "block never froze");
    assert_eq!(
        mainline::obs::ring().recorded(),
        recorded_off,
        "events recorded while tracing was off"
    );
    db.shutdown();
    // The snapshot's transform rows are the coordinator's own counters
    // (the workers have stopped, so neither side moves between the reads).
    let snap = db.metrics_snapshot();
    let stats = db.pipeline().unwrap().metrics();
    assert_eq!(snap.counter("transform_blocks_frozen"), Some(stats.blocks_frozen.get()));
    assert_eq!(snap.counter("transform_groups_compacted"), Some(stats.groups_compacted.get()));
    assert_eq!(snap.counter("transform_ticks"), Some(stats.ticks.get()));

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

/// Every name appears in at most one row, across all three kinds.
fn assert_names_unique(snap: &MetricsSnapshot) {
    let mut names: Vec<&str> = snap.counters().iter().map(|(n, _)| n.as_str()).collect();
    names.extend(snap.gauges().iter().map(|(n, _)| n.as_str()));
    names.extend(snap.histograms().iter().map(|(n, _)| n.as_str()));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a metric name appears more than once: {snap}");
}

/// One served, logged database with a keyed table.
fn served_db(dir: &std::path::Path) -> (std::sync::Arc<Database>, mainline::server::Server) {
    let db =
        Database::open(DbConfig { log_path: Some(dir.join("wal")), ..Default::default() }).unwrap();
    db.create_table(
        "t",
        Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]),
        vec![IndexSpec::new("pk", &[0])],
        false,
    )
    .unwrap();
    let server = db.serve(ServerConfig::default()).unwrap();
    (db, server)
}

/// Two databases in one process, each logged and served, with writes only
/// through B: A reports none of B's work, each name has one row, and B's
/// rows are exactly what went through B. A database without a log reports
/// no `wal_*` rows; a stopped server's counts stay; index counts survive
/// the drop of the table whose trees recorded them.
#[test]
fn two_databases_keep_their_own_metrics() {
    let _serial = obs_lock();
    let (dir_a, dir_b) = (unique_dir("two-a"), unique_dir("two-b"));
    let (a, server_a) = served_db(&dir_a);
    let (b, server_b) = served_db(&dir_b);
    let client_a = PgClient::connect(server_a.addr()).unwrap();
    let mut client_b = PgClient::connect(server_b.addr()).unwrap();
    client_b.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    const INSERTS: u64 = 5;
    for i in 0..INSERTS {
        let out = client_b.query(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        assert_eq!(out.tag.as_deref(), Some("INSERT 0 1"), "{:?}", out.error);
    }

    let snap_a = a.metrics_snapshot();
    assert_names_unique(&snap_a);
    assert_eq!(snap_a.counter("db_writes"), Some(0), "A shows B's writes");
    assert_eq!(snap_a.counter("server_rows_inserted"), Some(0), "A shows B's server");
    assert_eq!(snap_a.counter("server_queries"), Some(0));
    assert_eq!(snap_a.histogram("server_query_nanos").unwrap().count, 0);
    assert_eq!(snap_a.counter("wal_commits_acked"), Some(1), "A committed its DDL only");

    let snap_b = b.metrics_snapshot();
    assert_names_unique(&snap_b);
    assert_eq!(snap_b.counter("db_writes"), Some(INSERTS));
    assert_eq!(snap_b.counter("server_rows_inserted"), Some(INSERTS));
    assert_eq!(snap_b.counter("server_queries"), Some(INSERTS));
    assert_eq!(snap_b.histogram("server_query_nanos").unwrap().count, INSERTS);
    assert_eq!(snap_b.counter("wal_commits_acked"), Some(1 + INSERTS), "DDL + one per INSERT");

    // A database without a log has no log manager, so no `wal_*` rows.
    let unlogged = Database::open(DbConfig::default()).unwrap();
    let snap = unlogged.metrics_snapshot();
    let wal_rows: Vec<&String> = (snap.counters().iter().map(|(n, _)| n))
        .chain(snap.histograms().iter().map(|(n, _)| n))
        .filter(|n| n.starts_with("wal_"))
        .collect();
    assert!(wal_rows.is_empty(), "unlogged database reports {wal_rows:?}");
    unlogged.shutdown();

    // A stopped server's set stays registered with its database.
    client_b.terminate().unwrap();
    server_b.shutdown();
    let after = b.metrics_snapshot();
    assert_eq!(after.histogram("server_query_nanos").unwrap().count, INSERTS);
    assert_eq!(after.counter("server_rows_inserted"), Some(INSERTS));

    // Index counts live in the catalog's set, not in the dropped trees.
    let t = b.catalog().table("t").unwrap();
    let txn = b.manager().begin();
    for i in 0..16 {
        t.lookup(&txn, "pk", &[Value::BigInt(i % INSERTS as i64)]).unwrap().unwrap();
    }
    b.manager().commit(&txn);
    drop(t);
    let before = b.metrics_snapshot();
    assert!(before.histogram("index_lookup_nanos").unwrap().count >= 2, "1-in-8 sampling");
    b.drop_table("t").unwrap();
    let dropped = b.metrics_snapshot();
    for name in ["index_descent_restarts", "index_scan_fallbacks"] {
        assert!(dropped.counter(name) >= before.counter(name), "{name} went backwards");
    }
    let count = |s: &MetricsSnapshot| s.histogram("index_lookup_nanos").unwrap().count;
    assert!(count(&dropped) >= count(&before), "index_lookup_nanos went backwards");

    client_a.terminate().unwrap();
    server_a.shutdown();
    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// One database with a WAL, transformation, checkpointing and a served
/// client reports every metric, with its kind — also after the server
/// stopped, which is when benchmark drivers read `server_query_nanos`.
#[test]
fn reference_setup_reports_every_metric() {
    let _serial = obs_lock();
    let dir = unique_dir("reference");
    let db = Database::open(DbConfig {
        log_path: Some(dir.join("wal")),
        checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"))),
        transform: Some(TransformConfig { threshold_epochs: 2, ..Default::default() }),
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
    let mut client = PgClient::connect(server.addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    client.query("INSERT INTO t VALUES (1)").unwrap();
    client.query("SELECT * FROM t").unwrap();
    db.checkpoint().unwrap();
    client.terminate().unwrap();
    server.shutdown();

    let snap = db.metrics_snapshot();
    assert_names_unique(&snap);
    let counters = [
        "admission_stalled_nanos",
        "admission_stalls",
        "admission_yields",
        "buffer_evictions",
        "buffer_faults",
        "compaction_bytes_reclaimed",
        "compaction_bytes_rewritten",
        "compaction_errors",
        "compaction_frames_rewritten",
        "compaction_generations",
        "compaction_passes",
        "db_checkpoints",
        "db_writes",
        "index_descent_restarts",
        "index_scan_fallbacks",
        "server_admission_throttles",
        "server_bytes_received",
        "server_bytes_sent",
        "server_connections_accepted",
        "server_connections_idle_closed",
        "server_connections_rejected",
        "server_frozen_blocks_served",
        "server_hot_blocks_served",
        "server_protocol_errors",
        "server_queries",
        "server_rows_inserted",
        "server_rows_served",
        "server_streams",
        "transform_blocks_frozen",
        "transform_groups_compacted",
        "transform_ticks",
        "wal_bytes_written",
        "wal_commits_acked",
        "wal_rotations",
    ];
    let gauges = [
        "admission_pending_high_water",
        "chain_bytes",
        "chain_generations_live",
        "memory_budget_bytes",
        "memory_evicted_bytes",
        "memory_resident_bytes",
        "server_connections_open",
        "transform_pending_bytes",
    ];
    let histograms = [
        "admission_stall_nanos",
        "checkpoint_pass_nanos",
        "compaction_pass_nanos",
        "index_lookup_nanos",
        "server_query_nanos",
        "transform_cooling_dwell_nanos",
        "transform_freeze_nanos",
        "txn_gate_closed_nanos",
        "txn_gate_wait_nanos",
        "wal_fsync_nanos",
        "wal_group_commit_txns",
    ];
    for name in counters {
        assert!(snap.counter(name).is_some(), "counter {name} missing");
    }
    for name in gauges {
        assert!(snap.gauge(name).is_some(), "gauge {name} missing");
    }
    for name in histograms {
        assert!(snap.histogram(name).is_some(), "histogram {name} missing");
    }
    assert_eq!(snap.counter("db_checkpoints"), Some(1));
    assert_eq!(snap.histogram("server_query_nanos").unwrap().count, 2);
    db.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
