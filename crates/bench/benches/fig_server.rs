//! Served-workload sweep (ISSUE 7): N concurrent network clients against
//! `mainline-server` over real sockets, mixing OLTP point writes (PG wire,
//! durable acks) with streaming analytics readers (Flight-style IPC,
//! zero-copy frozen frames).
//!
//! The database is preloaded and mostly frozen + checkpointed, so streams
//! cross the frozen encoder; writers keep appending hot rows while readers
//! stream, which is exactly the paper's mainlining regime: transactions in
//! the front door, Arrow out the side door, one copy of the data.
//!
//! Per cell (series × client count): total throughput plus p50/p95/p99
//! client-observed latency. Series:
//!
//! * **oltp**   — every client is a PG writer (1-row INSERT per op);
//! * **stream** — every client is a Flight reader (full-table DoGet per op);
//! * **mixed**  — half writers, half readers (the 8-client cell is the
//!   acceptance regime: 4 + 4).
//!
//! Knobs: `MAINLINE_SERVER_ROWS` (preload, default 60000),
//! `MAINLINE_SERVER_SECS` (seconds per cell, default 2).

use mainline_bench::emit;
use mainline_common::rng::Xoshiro256;
use mainline_common::schema::{ColumnDef, Schema};
use mainline_common::value::{TypeId, Value};
use mainline_db::{CheckpointConfig, Database, DbConfig};
use mainline_server::client::{FlightClient, PgClient};
use mainline_server::{DatabaseServe, Server, ServerConfig};
use mainline_transform::TransformConfig;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// Writers draw globally unique ids so every INSERT succeeds in every cell.
static NEXT_ID: AtomicI64 = AtomicI64::new(1 << 32);

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", TypeId::BigInt),
        ColumnDef::nullable("payload", TypeId::Varchar),
        ColumnDef::new("version", TypeId::Integer),
    ])
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// One client thread: run ops until the deadline, returning per-op seconds.
fn run_client(addr: SocketAddr, writer: bool, deadline: Instant) -> Vec<f64> {
    let mut lat = Vec::new();
    if writer {
        let mut pg = PgClient::connect(addr).expect("writer connect");
        pg.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        while Instant::now() < deadline {
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let sql = format!("INSERT INTO t VALUES ({id}, 'bench-{id}', 0)");
            let t0 = Instant::now();
            let out = pg.query(&sql).expect("write op");
            assert!(out.error.is_none(), "{:?}", out.error);
            lat.push(t0.elapsed().as_secs_f64());
        }
        let _ = pg.terminate();
    } else {
        let mut fl = FlightClient::connect(addr).expect("reader connect");
        fl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        while Instant::now() < deadline {
            let t0 = Instant::now();
            let out = fl.do_get("t").expect("stream op");
            assert!(out.error.is_none(), "{:?}", out.error);
            assert!(out.rows > 0);
            lat.push(t0.elapsed().as_secs_f64());
        }
    }
    lat
}

fn run_cell(
    db: &Database,
    server: &Server,
    series: &str,
    clients: usize,
    writers: usize,
    secs: u64,
) {
    let addr = server.addr();
    let deadline = Instant::now() + Duration::from_secs(secs);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| std::thread::spawn(move || run_client(addr, c < writers, deadline)))
        .collect();
    let mut lat: Vec<f64> = Vec::new();
    for h in handles {
        lat.extend(h.join().unwrap());
    }
    let wall = t0.elapsed().as_secs_f64();
    lat.sort_by(|a, b| a.total_cmp(b));
    emit("fig_server", &format!("{series}_tput"), clients, lat.len() as f64 / wall, "ops/s");
    emit("fig_server", &format!("{series}_p50_ms"), clients, percentile(&lat, 50.0) * 1e3, "ms");
    emit("fig_server", &format!("{series}_p95_ms"), clients, percentile(&lat, 95.0) * 1e3, "ms");
    emit("fig_server", &format!("{series}_p99_ms"), clients, percentile(&lat, 99.0) * 1e3, "ms");
    // One-line engine+server metrics view per cell (ISSUE 9): cumulative, so
    // deltas between consecutive cells attribute load to the cell.
    println!(
        "# {series}/{clients}: {}",
        db.metrics_snapshot().one_line(&[
            "server_queries",
            "server_rows_served",
            "wal_commits_acked",
            "server_query_nanos",
            "wal_fsync_nanos",
        ])
    );
}

fn main() {
    let rows: i64 =
        std::env::var("MAINLINE_SERVER_ROWS").ok().and_then(|s| s.parse().ok()).unwrap_or(60_000);
    let secs: u64 =
        std::env::var("MAINLINE_SERVER_SECS").ok().and_then(|s| s.parse().ok()).unwrap_or(2);

    let mut wal = std::env::temp_dir();
    wal.push(format!("mainline-fig-server-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    for seg in mainline_wal::segments::list_segments(&wal).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
    let ckpt = wal.with_extension("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);

    let db = Database::open(DbConfig {
        log_path: Some(wal.clone()),
        fsync: false,
        checkpoint: Some(CheckpointConfig {
            dir: ckpt.clone(),
            wal_growth_bytes: u64::MAX, // manual checkpoints only
            poll_interval: Duration::from_millis(50),
            truncate_wal: false,
        }),
        transform: Some(TransformConfig { threshold_epochs: 1, workers: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(2),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    })
    .unwrap();
    let t = db.create_table("t", schema(), vec![], true).unwrap();

    // Preload and freeze: streams must cross the zero-copy frozen path.
    let mut rng = Xoshiro256::seed_from_u64(7);
    for chunk in (0..rows).step_by(1000) {
        let txn = db.manager().begin();
        for i in chunk..(chunk + 1000).min(rows) {
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
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let (hot, cooling, freezing, _, _) = db.pipeline().unwrap().block_state_census();
        if hot + cooling + freezing <= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    db.checkpoint().unwrap();

    let server =
        db.serve(ServerConfig { workers: 4, max_connections: 64, ..Default::default() }).unwrap();
    println!("# fig_server: {rows} preloaded rows, {secs}s per cell, addr {}", server.addr());
    println!("figure,series,x,value,unit");

    for &clients in &[1usize, 2, 4, 8] {
        run_cell(&db, &server, "oltp", clients, clients, secs);
        run_cell(&db, &server, "stream", clients, 0, secs);
        run_cell(&db, &server, "mixed", clients, clients / 2, secs);
    }

    let stats = server.metrics();
    assert!(stats.frozen_blocks_served.get() > 0, "no frozen blocks served: {stats:?}");
    emit(
        "fig_server",
        "frozen_blocks_served",
        "total",
        stats.frozen_blocks_served.get() as f64,
        "blocks",
    );
    emit(
        "fig_server",
        "hot_blocks_served",
        "total",
        stats.hot_blocks_served.get() as f64,
        "blocks",
    );
    emit("fig_server", "rows_inserted", "total", stats.rows_inserted.get() as f64, "rows");
    emit("fig_server", "rows_served", "total", stats.rows_served.get() as f64, "rows");
    println!(
        "# served {} streams / {} queries over {} connections; {} protocol errors",
        stats.streams.get(),
        stats.queries.get(),
        stats.connections_accepted.get(),
        stats.protocol_errors.get()
    );

    server.shutdown();
    db.shutdown();
    let _ = std::fs::remove_file(&wal);
    for seg in mainline_wal::segments::list_segments(&wal).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
    let _ = std::fs::remove_dir_all(&ckpt);
}
