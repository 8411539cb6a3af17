//! Streaming export over evicted blocks (ISSUE 7, satellite 4): a served
//! database squeezed under a 4 MB memory budget must fault cold blocks back
//! in from the checkpoint chain on demand, and the frozen IPC frames it puts
//! on the wire must be byte-identical to the checkpoint's cold segments —
//! the serve path, the checkpoint path, and block memory are all views of
//! the same canonical Arrow bytes.

mod common;

use common::relation;
use mainline::arrowlite::batch::column_value;
use mainline::arrowlite::ipc;
use mainline::checkpoint::{read_manifest, restore::read_cold_frames, SegmentKind};
use mainline::common::rng::Xoshiro256;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::db::{CheckpointConfig, Database, DbConfig};
use mainline::server::client::FlightClient;
use mainline::server::{DatabaseServe, ServerConfig};
use mainline::transform::TransformConfig;
use mainline::wal;
use std::time::{Duration, Instant};

/// Small enough that the ~6 MB of frozen content below overflows it.
const BUDGET: u64 = 4 << 20;

struct Paths {
    wal: std::path::PathBuf,
    ckpt: std::path::PathBuf,
}

fn paths() -> Paths {
    let mut wal_path = std::env::temp_dir();
    wal_path.push(format!("mainline-it-server-evict-{}.wal", std::process::id()));
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

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn served_cold_frames_fault_in_and_match_checkpoint_segments() {
    let p = paths();
    let db = Database::open(DbConfig {
        log_path: Some(p.wal.clone()),
        fsync: false,
        wal_segment_bytes: Some(64 * 1024),
        checkpoint: Some(CheckpointConfig {
            dir: p.ckpt.clone(),
            wal_growth_bytes: u64::MAX, // manual checkpoints only
            poll_interval: Duration::from_millis(50),
            truncate_wal: false,
        }),
        memory_budget_bytes: Some(BUDGET),
        transform: Some(TransformConfig { threshold_epochs: 1, workers: 2, ..Default::default() }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    })
    .unwrap();
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::nullable("payload", TypeId::Varchar),
                ColumnDef::new("version", TypeId::Integer),
            ]),
            vec![],
            true,
        )
        .unwrap();

    // ~6 blocks of frozen content: well past the 4 MB budget.
    let mut rng = Xoshiro256::seed_from_u64(11);
    let per_block = t.table().layout().num_slots() as i64;
    let txn = db.manager().begin();
    for i in 0..6 * per_block {
        t.insert(
            &txn,
            &[
                Value::BigInt(i),
                if i % 13 == 0 { Value::Null } else { Value::Varchar(rng.alnum_string(8, 40)) },
                Value::Integer((i % 1000) as i32),
            ],
        );
    }
    db.manager().commit(&txn);

    // Freeze everything (≤1 hot block left), checkpoint so the evictor has
    // cold homes, then let the clock squeeze residency under the budget.
    wait_until("transform convergence", || {
        let (hot, cooling, freezing, _, _) = db.pipeline().unwrap().block_state_census();
        hot + cooling + freezing <= 1
    });
    let ckpt_stats = db.checkpoint().unwrap();
    assert!(ckpt_stats.frozen_blocks >= 5, "{ckpt_stats:?}");
    wait_until("initial eviction under budget", || {
        let m = db.memory_stats();
        m.evictions > 0 && m.resident_bytes <= BUDGET
    });

    // The reference relation (this scan itself faults blocks in), then wait
    // for the evictor to push residency back down so the *served* stream has
    // to fault on its own.
    let expected = relation(db.manager(), t.table());
    assert_eq!(expected.len(), (6 * per_block) as usize);
    wait_until("re-eviction before serving", || db.memory_stats().resident_bytes <= BUDGET);
    let faults_before = db.memory_stats().faults;

    let server = db.serve(ServerConfig::default()).unwrap();
    let mut fl = FlightClient::connect(server.addr()).unwrap();
    fl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let got = fl.do_get("t").unwrap();
    assert_eq!(got.error, None);
    assert_eq!(got.rows, expected.len() as u64);
    assert!(got.frozen_blocks >= 5, "stream must cross frozen blocks: {got:?}");
    assert!(
        db.memory_stats().faults > faults_before,
        "serving an evicted table must fault blocks in: {:?}",
        db.memory_stats()
    );
    assert!(server.metrics().frozen_blocks_served.get() >= 5, "{:?}", server.metrics());

    // Deep-decode the stream: equal to the transactional scan.
    let types = t.table().types().to_vec();
    let mut served = Vec::new();
    for (_, bytes) in &got.batches {
        let decoded = ipc::decode_batch(bytes).unwrap();
        for r in 0..decoded.num_rows() {
            if decoded.columns().iter().any(|c| c.is_valid(r)) {
                served.push(
                    (0..types.len())
                        .map(|c| column_value(decoded.column(c), r, types[c]))
                        .collect::<Vec<_>>(),
                );
            }
        }
    }
    served.sort_by_key(|r| r[0].as_i64().unwrap());
    assert_eq!(served, expected, "served stream diverged from the transactional scan");

    // Byte identity: every cold frame the checkpoint wrote must appear,
    // byte for byte, among the frozen frames the server put on the wire.
    let (dir, manifest) = read_manifest(&p.ckpt).unwrap();
    let mut ckpt_frames: Vec<Vec<u8>> = Vec::new();
    for seg in manifest.segments.iter().filter(|s| s.kind == SegmentKind::Cold) {
        for frame in read_cold_frames(&dir.join(&seg.file)).unwrap() {
            ckpt_frames.push(frame.payload);
        }
    }
    assert_eq!(ckpt_frames.len(), ckpt_stats.frozen_blocks);
    // A straggler block may have frozen *after* the checkpoint (so the
    // served stream can hold one extra frozen frame), but every frame the
    // checkpoint wrote must appear verbatim on the wire.
    let mut served_frozen: Vec<&[u8]> =
        got.batches.iter().filter(|(f, _)| *f).map(|(_, b)| b.as_slice()).collect();
    assert!(served_frozen.len() >= ckpt_frames.len());
    for frame in &ckpt_frames {
        let pos = served_frozen
            .iter()
            .position(|s| *s == frame.as_slice())
            .expect("checkpoint cold frame missing from the served stream");
        served_frozen.swap_remove(pos);
    }

    server.shutdown();
    db.shutdown();
    cleanup(&p);
}
