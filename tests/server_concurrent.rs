//! Concurrent-client stress for the network frontend (ISSUE 7, satellite 2):
//! N PG writers and M Flight readers hammer a WAL-backed database over real
//! sockets, the server is gracefully shut down mid-run, and then the WAL is
//! replayed into a fresh engine.
//!
//! Invariants proven:
//! * every INSERT the server *acked* (CommandComplete arrived) is present
//!   after replay — the ack really did wait for durability;
//! * every completed stream decodes frame-for-frame (no torn frames, even
//!   for streams racing the shutdown);
//! * graceful drain is bounded by the configured drain timeout.

mod common;

use common::relation;
use mainline::arrowlite::ipc;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::TypeId;
use mainline::db::{Database, DbConfig};
use mainline::server::client::{FlightClient, PgClient};
use mainline::server::{DatabaseServe, ServerConfig};
use mainline::transform::TransformConfig;
use mainline::wal;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WRITERS: usize = 4;
const READERS: usize = 3;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

fn tmp() -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mainline-it-server-conc-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    for seg in wal::segments::list_segments(&p).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
    p
}

#[test]
fn acked_writes_survive_mid_run_shutdown_and_replay() {
    let path = tmp();
    let db = Database::open(DbConfig {
        log_path: Some(path.clone()),
        fsync: false,
        transform: Some(TransformConfig { threshold_epochs: 1, ..Default::default() }),
        gc_interval: Duration::from_millis(2),
        transform_interval: Duration::from_millis(5),
        ..Default::default()
    })
    .unwrap();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::new("id", TypeId::BigInt),
            ColumnDef::nullable("payload", TypeId::Varchar),
        ]),
        vec![],
        true,
    )
    .unwrap();
    let server = db
        .serve(ServerConfig { workers: 3, drain_timeout: DRAIN_TIMEOUT, ..Default::default() })
        .unwrap();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Writers: unique id ranges, multi-row statements, ack bookkeeping.
    let mut writer_handles = Vec::new();
    for w in 0..WRITERS as i64 {
        let stop = Arc::clone(&stop);
        writer_handles.push(std::thread::spawn(move || {
            let mut pg = PgClient::connect(addr).expect("writer connect");
            pg.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut acked: Vec<i64> = Vec::new();
            let mut next = w * 1_000_000;
            while !stop.load(Ordering::Relaxed) {
                let n = 1 + (next % 3);
                let values = (next..next + n)
                    .map(|i| format!("({i}, 'w{w}-{i}')"))
                    .collect::<Vec<_>>()
                    .join(", ");
                match pg.query(&format!("INSERT INTO t VALUES {values}")) {
                    Ok(out) => {
                        assert_eq!(out.error, None, "writer {w} got an unexpected error");
                        assert_eq!(out.tag.as_deref(), Some(format!("INSERT 0 {n}").as_str()));
                        acked.extend(next..next + n);
                        next += n;
                    }
                    // Server drained/closed mid-request: the statement was
                    // never acked, so it may or may not be durable — stop.
                    Err(_) => break,
                }
            }
            acked
        }));
    }

    // Readers: stream the whole table in a loop, deep-decoding every frame.
    let mut reader_handles = Vec::new();
    for r in 0..READERS {
        let stop = Arc::clone(&stop);
        reader_handles.push(std::thread::spawn(move || {
            let mut fl = FlightClient::connect(addr).expect("reader connect");
            fl.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut streams = 0u64;
            // An Err breaks the loop: drain closed the connection between
            // streams, or cut a request we issued after the drain began.
            while let Ok(out) = fl.do_get("t") {
                assert_eq!(out.error, None, "reader {r} got a stream error");
                // A completed stream must be whole: every frame decodes
                // and the end-frame totals match.
                assert_eq!(
                    out.frozen_blocks + out.hot_blocks,
                    out.batches.len() as u32,
                    "reader {r}: end frame disagrees with delivered frames"
                );
                for (_, bytes) in &out.batches {
                    ipc::decode_batch(bytes)
                        .unwrap_or_else(|e| panic!("reader {r}: torn frame: {e:?}"));
                }
                streams += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            streams
        }));
    }

    // Let the storm run, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_secs(2));
    let t0 = Instant::now();
    server.shutdown();
    let drain = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    assert!(
        drain < DRAIN_TIMEOUT + Duration::from_secs(3),
        "graceful drain exceeded its bound: {drain:?}"
    );

    let mut acked: Vec<i64> = Vec::new();
    for h in writer_handles {
        acked.extend(h.join().unwrap());
    }
    let mut streams = 0u64;
    for h in reader_handles {
        streams += h.join().unwrap();
    }
    assert!(acked.len() > 50, "writers made too little progress: {} acks", acked.len());
    assert!(streams > 5, "readers made too little progress: {streams} streams");

    // The server may have committed a final statement whose ack the drain
    // cut off (the client then ignores it), but never the reverse: every
    // client-side ack corresponds to a server-side durable insert.
    let stats = server.metrics();
    assert!(stats.rows_inserted.get() as usize >= acked.len(), "server lost acks: {stats:?}");
    db.shutdown();

    // Replay the WAL into a fresh engine: every acked id must be there.
    let db2 = Database::open(DbConfig::default()).unwrap();
    let log = wal::segments::read_log(&path).unwrap();
    let rs = db2.replay_log(&log).unwrap();
    assert_eq!(rs.ddl_applied, 1);
    let t2 = db2.catalog().table("t").unwrap();
    let recovered: BTreeSet<i64> =
        relation(db2.manager(), t2.table()).iter().map(|row| row[0].as_i64().unwrap()).collect();
    for id in &acked {
        assert!(recovered.contains(id), "acked id {id} lost after replay");
    }
    db2.shutdown();
    let _ = std::fs::remove_file(&path);
    for seg in wal::segments::list_segments(&path).unwrap() {
        let _ = std::fs::remove_file(&seg.path);
    }
}
