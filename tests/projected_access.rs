//! The projected point path must be the full-row path, column for column.
//!
//! `TableHandle::{lookup_cols, scan_prefix_cols, first_at_or_after_cols,
//! read_cols}` materialize only the requested user columns. Every answer
//! they give — a row, `None` for an invisible key, a transaction's own
//! uncommitted write — must equal those columns of the `Vec<Value>` entry
//! points under the same snapshot, and those must equal what a table scan
//! sees, including on a frozen block that was evicted and has to be
//! faulted back in. `lookup_many_cols` must answer every key of a batch
//! exactly as `lookup_cols` answers it alone. Inserts keep one encoded copy
//! of each index entry for their abort compensation; an aborted insert must
//! still leave every index exactly as it was.

use mainline::common::rng::Xoshiro256;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::db::{CheckpointConfig, Database, DbConfig, IndexSpec, TableHandle};
use mainline::storage::TupleSlot;
use mainline::transform::TransformConfig;
use mainline::txn::Transaction;
use mainline::wal;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: i32 = 8;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", TypeId::Integer),
        ColumnDef::new("grp", TypeId::Integer),
        ColumnDef::new("name", TypeId::Varchar),
        ColumnDef::new("v", TypeId::BigInt),
        ColumnDef::nullable("note", TypeId::Varchar),
    ])
}

fn open_table(db: &Database) -> Arc<TableHandle> {
    db.create_table(
        "t",
        schema(),
        vec![IndexSpec::new("pk", &[0]), IndexSpec::new("by_grp", &[1, 2])],
        false,
    )
    .unwrap()
}

fn row(k: i32, val: i32) -> Vec<Value> {
    vec![
        Value::Integer(k),
        Value::Integer(k % 2),
        Value::string(&format!("n{}", val.rem_euclid(3))),
        Value::BigInt(val as i64),
        note(val),
    ]
}

/// NULL, inline-short, and out-of-line varlen values all occur.
fn note(val: i32) -> Value {
    match val.rem_euclid(5) {
        0 => Value::Null,
        1 => Value::string("short"),
        _ => Value::string(&format!("a note long enough to live out of line: {val}")),
    }
}

fn project<const N: usize>(full: &[Value], cols: [usize; N]) -> [Value; N] {
    cols.map(|c| full[c].clone())
}

/// A batch of lookups answers every key as a lookup of that key alone.
fn batch_agrees<K: AsRef<[Value]>, const N: usize>(
    h: &TableHandle,
    txn: &Arc<Transaction>,
    index: &str,
    keys: &[K],
    cols: [usize; N],
) {
    let many = h.lookup_many_cols(txn, index, keys, cols).unwrap();
    assert_eq!(many.len(), keys.len());
    for (key, got) in keys.iter().zip(many) {
        let want = h.lookup_cols(txn, index, key.as_ref(), cols).unwrap();
        assert_eq!(got, want, "{index} key {:?} cols {cols:?}", key.as_ref());
    }
}

/// Every projected entry point agrees with the full-row one on `cols`.
fn agree<const N: usize>(h: &TableHandle, txn: &Arc<Transaction>, cols: [usize; N]) {
    // Absent keys on both ends, and every key twice in one batch.
    let keys: Vec<[Value; 1]> = (-1..=KEYS).chain(0..KEYS).map(|k| [Value::Integer(k)]).collect();
    batch_agrees(h, txn, "pk", &keys, cols);
    // Key prefixes of the composite index: the first visible row in each.
    let prefixes: Vec<Vec<Value>> = (0..3)
        .flat_map(|grp| [vec![Value::Integer(grp)], vec![Value::Integer(grp), Value::string("n1")]])
        .collect();
    batch_agrees(h, txn, "by_grp", &prefixes, cols);
    for k in 0..KEYS {
        let key = [Value::Integer(k)];
        let full = h.lookup(txn, "pk", &key).unwrap();
        let got = h.lookup_cols(txn, "pk", &key, cols).unwrap();
        let want = full.as_ref().map(|(slot, values)| (*slot, project(values, cols)));
        assert_eq!(got, want, "lookup k={k} cols={cols:?}");
        if let Some((slot, values)) = &full {
            assert_eq!(h.read_cols(txn, *slot, cols), Some(project(values, cols)));
        }
        // The oldest visible row at or after k within the whole index.
        let full = h.first_at_or_after(txn, "pk", &key, &[]).unwrap();
        let got = h.first_at_or_after_cols(txn, "pk", &key, &[], cols).unwrap();
        assert_eq!(got, full.map(|(slot, values)| (slot, project(&values, cols))));
    }
    for grp in 0..2 {
        for prefix in [vec![Value::Integer(grp)], vec![Value::Integer(grp), Value::string("n1")]] {
            for limit in [1, 2, usize::MAX] {
                let full = h.scan_prefix(txn, "by_grp", &prefix, limit).unwrap();
                let got = h.scan_prefix_cols(txn, "by_grp", &prefix, limit, cols).unwrap();
                let want: Vec<_> =
                    full.iter().map(|(slot, values)| (*slot, project(values, cols))).collect();
                assert_eq!(got, want, "scan grp={grp} prefix={prefix:?} limit={limit}");
            }
        }
    }
}

/// The rows `txn` sees, by key, from a table scan: an oracle that shares
/// no code with the index walk.
fn scanned(h: &TableHandle, txn: &Arc<Transaction>) -> BTreeMap<i32, (TupleSlot, Vec<Value>)> {
    let table = h.table();
    let mut rows = BTreeMap::new();
    table.scan(txn, &table.all_cols(), |slot, row| {
        let values = table.row_to_values(row);
        let k = values[0].as_i64().unwrap() as i32;
        assert!(rows.insert(k, (slot, values)).is_none(), "two visible rows for key {k}");
        true
    });
    rows
}

/// The full-row calls agree with the scan oracle.
fn agree_with_scan(h: &TableHandle, txn: &Arc<Transaction>) {
    let rows = scanned(h, txn);
    for k in 0..KEYS {
        let key = [Value::Integer(k)];
        assert_eq!(h.lookup(txn, "pk", &key).unwrap().as_ref(), rows.get(&k), "lookup k={k}");
        let next = rows.range(k..).next().map(|(_, row)| row);
        assert_eq!(h.first_at_or_after(txn, "pk", &key, &[]).unwrap().as_ref(), next);
    }
    for grp in 0..2 {
        let mut got = h.scan_prefix(txn, "by_grp", &[Value::Integer(grp)], usize::MAX).unwrap();
        got.sort_by_key(|(_, values)| values[0].as_i64());
        let want: Vec<_> =
            rows.values().filter(|(_, values)| values[1] == Value::Integer(grp)).cloned().collect();
        assert_eq!(got, want, "scan grp={grp}");
    }
}

fn agree_on_every_subset(h: &TableHandle, txn: &Arc<Transaction>) {
    agree_with_scan(h, txn);
    agree(h, txn, []);
    agree(h, txn, [3]);
    agree(h, txn, [2, 4]);
    agree(h, txn, [4, 0, 3]);
    agree(h, txn, [0, 1, 2, 3, 4]);
}

/// Insert `k` if it has no live row, else update its non-key columns.
fn write(
    h: &TableHandle,
    txn: &Arc<Transaction>,
    live: &HashMap<i32, TupleSlot>,
    k: i32,
    val: i32,
) {
    match live.get(&k) {
        Some(&slot) => {
            h.update(txn, slot, &[(3, Value::BigInt(val as i64)), (4, note(val))]).unwrap()
        }
        None => {
            h.insert(txn, &row(k, val));
        }
    }
}

/// The live slot of `k` as a fresh snapshot sees it.
fn live_slot(db: &Database, h: &TableHandle, k: i32) -> Option<TupleSlot> {
    let txn = db.manager().begin();
    let found = h.lookup_cols(&txn, "pk", &[Value::Integer(k)], []).unwrap();
    db.manager().commit(&txn);
    found.map(|(slot, [])| slot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn projected_reads_equal_full_row_reads(
        ops in proptest::collection::vec((0u8..6, 0..KEYS, any::<i32>()), 1..50),
    ) {
        let db = Database::open(DbConfig::default()).unwrap();
        let h = open_table(&db);
        let m = db.manager();
        let mut live: HashMap<i32, TupleSlot> = HashMap::new();
        // Old snapshots that stay open across later writes.
        let mut snapshots: Vec<Arc<Transaction>> = Vec::new();
        for (op, k, val) in ops {
            match op {
                // Write and commit, or write and abort; either way the
                // writer first reads its own uncommitted write back.
                0..=2 => {
                    let txn = m.begin();
                    write(&h, &txn, &live, k, val);
                    agree_on_every_subset(&h, &txn);
                    if op == 2 {
                        m.abort(&txn);
                    } else {
                        m.commit(&txn);
                    }
                }
                3 => {
                    if let Some(&slot) = live.get(&k) {
                        let txn = m.begin();
                        h.delete(&txn, slot).unwrap();
                        agree_on_every_subset(&h, &txn);
                        m.commit(&txn);
                    }
                }
                4 => {
                    if snapshots.len() == 3 {
                        m.commit(&snapshots.remove(0));
                    }
                    snapshots.push(m.begin());
                }
                _ => {
                    if !snapshots.is_empty() {
                        m.commit(&snapshots.remove(0));
                    }
                }
            }
            match live_slot(&db, &h, k) {
                Some(slot) => live.insert(k, slot),
                None => live.remove(&k),
            };
            for txn in &snapshots {
                agree_on_every_subset(&h, txn);
            }
            let fresh = m.begin();
            agree_on_every_subset(&h, &fresh);
            m.commit(&fresh);
        }
        for txn in snapshots {
            m.commit(&txn);
        }
        db.shutdown();
    }
}

#[test]
fn aborted_inserts_leave_every_index_unchanged() {
    let db = Database::open(DbConfig::default()).unwrap();
    let h = open_table(&db);
    let m = db.manager();
    let txn = m.begin();
    for k in 0..KEYS {
        h.insert(&txn, &row(k, k * 7));
    }
    m.commit(&txn);
    let before: Vec<usize> = (0..h.num_indexes()).map(|i| h.index_len(i)).collect();
    assert_eq!(before, vec![KEYS as usize; 2]);

    let txn = m.begin();
    for k in 0..KEYS {
        // Same keys as the committed rows (a second version) and new ones,
        // with long varlen key components that spill the key buffer.
        h.insert(&txn, &row(k, 1));
        let mut long = row(KEYS + k, 2);
        long[2] = Value::string(&"x".repeat(64 + k as usize));
        h.insert(&txn, &long);
    }
    assert_eq!(h.index_len(0), 3 * KEYS as usize, "inserts are indexed eagerly");
    m.abort(&txn);
    let after: Vec<usize> = (0..h.num_indexes()).map(|i| h.index_len(i)).collect();
    assert_eq!(after, before);

    let txn = m.begin();
    for k in 0..KEYS {
        let (_, [v]) = h.lookup_cols(&txn, "pk", &[Value::Integer(k)], [3]).unwrap().unwrap();
        assert_eq!(v, Value::BigInt((k * 7) as i64));
        assert!(h.lookup_cols(&txn, "pk", &[Value::Integer(KEYS + k)], []).unwrap().is_none());
    }
    m.commit(&txn);
    db.shutdown();
}

/// Enough rows for the primary index to span many leaves: a key whose
/// entries start a leaf sorts past the last entry of the leaf its descent
/// reaches, so the batched walk leaves it to the single-key walk.
const MANY: i32 = 600;

/// The live slot of `k` as `txn` sees it.
fn slot_of(h: &TableHandle, txn: &Arc<Transaction>, k: i32) -> Option<TupleSlot> {
    h.lookup_cols(txn, "pk", &[Value::Integer(k)], []).unwrap().map(|(slot, [])| slot)
}

#[test]
fn batched_lookups_equal_single_lookups() {
    let db = Database::open(DbConfig::default()).unwrap();
    let h = open_table(&db);
    let m = db.manager();
    let txn = m.begin();
    for k in 0..MANY {
        h.insert(&txn, &row(k, k));
    }
    m.commit(&txn);

    // Delete every third key, then reinsert every sixth: the reinserted
    // keys' first index entry is the deleted version, which only the
    // oldest snapshot still sees.
    let before_delete = m.begin();
    let txn = m.begin();
    for k in (0..MANY).step_by(3) {
        h.delete(&txn, slot_of(&h, &txn, k).unwrap()).unwrap();
    }
    m.commit(&txn);
    let after_delete = m.begin();
    let txn = m.begin();
    for k in (0..MANY).step_by(6) {
        h.insert(&txn, &row(k, k + 1));
    }
    m.commit(&txn);

    // A writer's own uncommitted inserts, updates and deletes, invisible
    // to everyone else.
    let writer = m.begin();
    for k in MANY..MANY + 20 {
        h.insert(&writer, &row(k, -k));
    }
    for k in (1..MANY).step_by(7) {
        if let Some(slot) = slot_of(&h, &writer, k) {
            h.update(&writer, slot, &[(3, Value::BigInt(-1)), (4, note(k + 2))]).unwrap();
        }
    }
    for k in (2..MANY).step_by(11) {
        if let Some(slot) = slot_of(&h, &writer, k) {
            h.delete(&writer, slot).unwrap();
        }
    }

    let fresh = m.begin();
    // Absent keys on both ends, every key, and a stretch of keys again.
    let keys: Vec<[Value; 1]> =
        (-3..MANY + 23).chain(100..140).map(|k| [Value::Integer(k)]).collect();
    let prefixes: Vec<[Value; 1]> = (-1..3).map(|grp| [Value::Integer(grp)]).collect();
    for txn in [&before_delete, &after_delete, &writer, &fresh] {
        batch_agrees(&h, txn, "pk", &keys, [3, 4]);
        batch_agrees(&h, txn, "pk", &keys, []);
        batch_agrees(&h, txn, "by_grp", &prefixes, [0, 2]);
    }
    let first =
        |txn, k: i32| h.lookup_many_cols(txn, "pk", &[[Value::Integer(k)]], [3]).unwrap().remove(0);
    assert_eq!(first(&fresh, 0).map(|(_, v)| v), Some([Value::BigInt(1)]), "reinserted");
    assert_eq!(first(&before_delete, 0).map(|(_, v)| v), Some([Value::BigInt(0)]), "old version");
    assert_eq!(first(&after_delete, 0), None, "deleted");
    assert_eq!(first(&fresh, 3), None, "deleted, not reinserted");
    assert_eq!(first(&writer, MANY).map(|(_, v)| v), Some([Value::BigInt(-(MANY as i64))]));
    assert_eq!(first(&fresh, MANY), None, "another writer's insert");
    assert_eq!(first(&writer, 1).map(|(_, v)| v), Some([Value::BigInt(-1)]), "own update");
    for txn in [before_delete, after_delete, writer, fresh] {
        m.commit(&txn);
    }
    db.shutdown();
}

struct Paths {
    wal: std::path::PathBuf,
    ckpt: std::path::PathBuf,
}

impl Paths {
    fn new() -> Paths {
        let mut wal = std::env::temp_dir();
        wal.push(format!("mainline-it-projected-{}.wal", std::process::id()));
        let ckpt = wal.with_extension("ckptdir");
        let paths = Paths { wal, ckpt };
        paths.clean();
        paths
    }

    fn clean(&self) {
        let _ = std::fs::remove_file(&self.wal);
        for seg in wal::segments::list_segments(&self.wal).unwrap() {
            let _ = std::fs::remove_file(&seg.path);
        }
        let _ = std::fs::remove_dir_all(&self.ckpt);
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn projected_lookup_faults_an_evicted_block_back_in() {
    const BUDGET: u64 = 4 << 20;
    let p = Paths::new();
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
            "cold",
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::nullable("payload", TypeId::Varchar),
                ColumnDef::new("version", TypeId::Integer),
            ]),
            vec![IndexSpec::new("pk", &[0])],
            true,
        )
        .unwrap();

    // ~6 blocks of frozen content: past the 4 MB budget.
    let mut rng = Xoshiro256::seed_from_u64(24);
    let per_block = t.table().layout().num_slots() as i64;
    let mut expected = Vec::new();
    let txn = db.manager().begin();
    for i in 0..6 * per_block {
        let values = vec![
            Value::BigInt(i),
            if i % 13 == 0 { Value::Null } else { Value::Varchar(rng.alnum_string(8, 40)) },
            Value::Integer((i % 1000) as i32),
        ];
        t.insert(&txn, &values);
        expected.push(values);
    }
    db.manager().commit(&txn);

    wait_until("transform convergence", || {
        let (hot, cooling, freezing, _, _) = db.pipeline().unwrap().block_state_census();
        hot + cooling + freezing <= 1
    });
    let ckpt = db.checkpoint().unwrap();
    assert!(ckpt.frozen_blocks >= 5, "{ckpt:?}");
    wait_until("eviction under the budget", || {
        let m = db.memory_stats();
        m.evictions > 0 && m.resident_bytes <= BUDGET
    });

    // One probe per block, so some land on an evicted block.
    let faults_before = db.memory_stats().faults;
    let txn = db.manager().begin();
    let ids: Vec<i64> = (0..6).map(|block| block * per_block + 17).collect();
    let mut single = Vec::new();
    for &i in &ids {
        let want = &expected[i as usize];
        let (slot, got) = t
            .lookup_cols(&txn, "pk", &[Value::BigInt(i)], [2, 1])
            .unwrap()
            .expect("frozen row is visible");
        assert_eq!(got, [want[2].clone(), want[1].clone()], "id {i}");
        assert_eq!(t.read_cols(&txn, slot, [1]), Some([want[1].clone()]));
        let (_, full) = t.lookup(&txn, "pk", &[Value::BigInt(i)]).unwrap().unwrap();
        assert_eq!(&full, want);
        single.push(Some((slot, got)));
    }
    db.manager().commit(&txn);
    assert!(
        db.memory_stats().faults > faults_before,
        "the probes must have faulted an evicted block in: {:?}",
        db.memory_stats()
    );

    // Once the evictor is back under the budget, the batched lookup of the
    // same ids has to fault on its own, and answers as the single probes.
    wait_until("re-eviction under the budget", || db.memory_stats().resident_bytes <= BUDGET);
    let faults_before = db.memory_stats().faults;
    let txn = db.manager().begin();
    let keys: Vec<[Value; 1]> = ids.iter().map(|&i| [Value::BigInt(i)]).collect();
    let batched = t.lookup_many_cols(&txn, "pk", &keys, [2, 1]).unwrap();
    assert!(
        db.memory_stats().faults > faults_before,
        "the batched probes must have faulted an evicted block in: {:?}",
        db.memory_stats()
    );
    assert_eq!(batched, single);
    db.manager().commit(&txn);
    db.shutdown();
    p.clean();
}
