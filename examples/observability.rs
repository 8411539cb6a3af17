//! The observability subsystem end to end: run a mixed workload (inserts
//! through both the embedded API and the network frontend, with WAL +
//! transformation running), then read the metrics three ways — the typed
//! snapshot, the plain-text report, and `SELECT * FROM mainline_metrics`
//! over a live PG-wire connection.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::db::{Database, DbConfig, IndexSpec};
use mainline::server::client::PgClient;
use mainline::server::{DatabaseServe, ServerConfig};
use mainline::transform::TransformConfig;
use std::time::Duration;

fn main() {
    let dir = std::env::temp_dir().join(format!("mainline-obs-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("workdir");

    // Event tracing forced on (normally the `observed` engine profile,
    // MAINLINE_PROFILE=observed); counters and histograms are always on regardless.
    let db = Database::open(DbConfig {
        log_path: Some(dir.join("wal")),
        fsync: false,
        transform: Some(TransformConfig { threshold_epochs: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(2),
        transform_interval: Duration::from_millis(5),
        observability: Some(true),
        ..Default::default()
    })
    .expect("boot");
    let server = db.serve(ServerConfig::default()).expect("serve");

    let events = db
        .create_table(
            "events",
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::new("payload", TypeId::Varchar),
            ]),
            vec![IndexSpec::new("pk", &[0])],
            true,
        )
        .expect("create table");

    // Mixed workload: bulk embedded inserts (hot→cold transformation + WAL
    // group commit), then wire inserts and a wire scan (server counters).
    for batch in 0..20 {
        let txn = db.manager().begin();
        for i in 0..2000 {
            let id = batch * 2000 + i;
            events.insert(&txn, &[Value::BigInt(id), Value::string(&format!("pay-{id:06}"))]);
        }
        db.manager().commit(&txn);
    }
    let mut client = PgClient::connect(server.addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for i in 0..50 {
        let out = client
            .query(&format!("INSERT INTO events VALUES ({}, 'wire-{i}')", 1_000_000 + i))
            .expect("insert");
        assert_eq!(out.tag.as_deref(), Some("INSERT 0 1"));
    }
    let scan = client.query("SELECT * FROM events").expect("scan");
    println!("wire scan returned {} rows\n", scan.rows.len());

    // Give the freeze pipeline a moment so transform metrics are nonzero.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        let (_h, _c, _f, frozen, _e) = db.pipeline().unwrap().block_state_census();
        if frozen >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // 1. The plain-text report (what the benches print).
    let snap = db.metrics_snapshot();
    println!("{snap}");

    // 2. Targeted one-liner for dashboards/logs.
    println!(
        "summary: {}\n",
        snap.one_line(&["wal_commits_acked", "server_queries", "wal_fsync_nanos"])
    );

    // 3. The same numbers over the wire, as a normal SELECT.
    let metrics = client.query("SELECT * FROM mainline_metrics").expect("metrics");
    assert_eq!(metrics.columns, ["name", "kind", "value", "detail"]);
    println!("mainline_metrics over pg-wire ({} rows), server_* subset:", metrics.rows.len());
    for row in metrics.rows.iter().filter(|r| r[0].as_deref().unwrap_or("").starts_with("server_"))
    {
        println!(
            "  {:<32} {:<9} {}",
            row[0].as_deref().unwrap_or(""),
            row[1].as_deref().unwrap_or(""),
            row[2].as_deref().unwrap_or("")
        );
    }

    // And the structured trace ring, also as a SELECT.
    let trace = client.query("SELECT * FROM mainline_events").expect("events");
    println!("\nmainline_events over pg-wire: {} events, last 5:", trace.rows.len());
    for row in trace.rows.iter().rev().take(5).rev() {
        println!(
            "  seq={:<6} t+{:<10}us {:<24} a={} b={}",
            row[0].as_deref().unwrap_or(""),
            row[1].as_deref().unwrap_or(""),
            row[2].as_deref().unwrap_or(""),
            row[3].as_deref().unwrap_or(""),
            row[4].as_deref().unwrap_or("")
        );
    }

    // The wire-read counters must reflect the workload we just ran.
    let counter = |name: &str| -> u64 {
        metrics
            .rows
            .iter()
            .find(|r| r[0].as_deref() == Some(name))
            .and_then(|r| r[2].as_deref())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(counter("wal_commits_acked") >= 50, "wire inserts are durably acked");
    assert!(counter("server_queries") >= 52, "all wire queries counted");
    assert!(counter("db_writes") >= 40_050, "every write entry point counted");

    client.terminate().expect("terminate");
    server.shutdown();
    db.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nok");
}
