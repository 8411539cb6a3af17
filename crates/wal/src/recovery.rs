//! Crash recovery: replay committed transactions in commit order (§3.4).
//!
//! Physical slots are process-lifetime identifiers, so recovery maintains a
//! remapping from logged slots to freshly inserted ones. Transactions whose
//! commit record is missing (crash before the flush) are ignored.
//!
//! Because the log carries **logical DDL** (kind 2/3 records, see
//! [`crate::record`]), replay also recreates and drops tables at exactly the
//! commit-timestamp positions the original process did — a tail referencing
//! a table created after the last checkpoint is replayable without any
//! outside help. Catalog integration is pluggable via [`DdlReplayer`]: the
//! database layer recreates real indexed tables; bare engines (and streams
//! that can never contain DDL, like checkpoint delta segments) use
//! [`BareDdlReplayer`] / [`NoDdl`].

use crate::record::{LogPayload, LogReader, RedoView};
use mainline_common::schema::Schema;
use mainline_common::{Error, Result, Timestamp};
use mainline_storage::layout::NUM_RESERVED_COLS;
use mainline_storage::{ProjectedRow, TupleSlot, VarlenEntry};
use mainline_txn::redo::{OP_DELETE, OP_INSERT, OP_UPDATE};
use mainline_txn::{CreateTableDdl, DataTable, TransactionManager};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What recovery did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Committed transactions replayed (counting only those with data
    /// records; DDL-only commits are counted in [`ddl_applied`]).
    ///
    /// [`ddl_applied`]: RecoveryStats::ddl_applied
    pub txns_replayed: usize,
    /// Transactions discarded for lack of a commit record.
    pub txns_discarded: usize,
    /// Individual operations applied.
    pub ops_applied: usize,
    /// Committed transactions skipped because they are already covered by a
    /// checkpoint (commit timestamp at or below [`recover_from`]'s cut).
    pub txns_skipped: usize,
    /// Individual operations skipped the same way.
    pub ops_skipped: usize,
    /// Data records ignored because their table was dropped by a later (or
    /// checkpoint-covered) `DROP TABLE` — a writer holding the handle may
    /// commit after the drop's timestamp, and those rows are dead on arrival.
    pub ops_dropped: usize,
    /// DDL records applied (create/drop).
    pub ddl_applied: usize,
    /// DDL records skipped as checkpoint-covered.
    pub ddl_skipped: usize,
    /// Largest commit timestamp observed in the log (replayed or skipped);
    /// restart advances the oracle past it so new commits sort after the
    /// replayed history.
    pub max_commit_ts: u64,
}

/// Applies logical DDL during replay. Implementations own the catalog side
/// of table lifecycle; [`recover_from`] keeps its internal id → table map in
/// sync with whatever the replayer returns.
pub trait DdlReplayer {
    /// Recreate a table under its logged id. The returned [`DataTable`] is
    /// what subsequent data records replay into; implementations must ensure
    /// its id equals `ddl.table_id` (the WAL references it).
    fn create_table(&mut self, ddl: &CreateTableDdl) -> Result<Arc<DataTable>>;
    /// Drop a table. Records referencing it later in the log are discarded
    /// by the recovery loop itself, not the replayer.
    fn drop_table(&mut self, table_id: u32, name: &str) -> Result<()>;
    /// Whether `table_id` is known to have been dropped *before* this
    /// replay's coverage began — e.g. recorded by a checkpoint manifest
    /// whose `DROP` record was truncated away with the pre-checkpoint log.
    /// A data record referencing such a table is discarded instead of
    /// failing the replay (a writer that retained the handle may have
    /// committed after the drop). Defaults to `false`.
    fn table_known_dropped(&self, _table_id: u32) -> bool {
        false
    }
}

/// A [`DdlReplayer`] for streams that can never contain DDL (checkpoint
/// delta segments); any DDL record is a corruption error.
pub struct NoDdl;

impl DdlReplayer for NoDdl {
    fn create_table(&mut self, ddl: &CreateTableDdl) -> Result<Arc<DataTable>> {
        Err(Error::Corrupt(format!("unexpected CREATE TABLE {} in DDL-free stream", ddl.name)))
    }
    fn drop_table(&mut self, _table_id: u32, name: &str) -> Result<()> {
        Err(Error::Corrupt(format!("unexpected DROP TABLE {name} in DDL-free stream")))
    }
}

/// A [`DdlReplayer`] that recreates bare [`DataTable`]s with no catalog or
/// index integration — enough for engine-level tests and tools that only
/// need the relations back.
#[derive(Default)]
pub struct BareDdlReplayer;

impl DdlReplayer for BareDdlReplayer {
    fn create_table(&mut self, ddl: &CreateTableDdl) -> Result<Arc<DataTable>> {
        DataTable::new(ddl.table_id, Schema::new(ddl.columns.clone()))
    }
    fn drop_table(&mut self, _table_id: u32, _name: &str) -> Result<()> {
        Ok(())
    }
}

/// Replay `log_bytes` into the given tables (keyed by table id).
///
/// The log's implicit commit-timestamp ordering (§3.4) means we can apply
/// groups in stream order; a group becomes applicable only once its commit
/// entry appears. Tables created by replayed DDL are tracked internally (and
/// surfaced through `ddl`); `tables` itself is not mutated.
pub fn recover(
    log_bytes: &[u8],
    manager: &TransactionManager,
    tables: &HashMap<u32, Arc<DataTable>>,
    ddl: &mut dyn DdlReplayer,
) -> Result<RecoveryStats> {
    let mut slot_map = HashMap::new();
    recover_from(log_bytes, Timestamp::ZERO, manager, tables, &mut slot_map, ddl)
}

/// One commit group being reassembled from the stream; its redo frames
/// stay in the log bytes.
#[derive(Default)]
struct Group<'a> {
    records: Vec<RedoView<'a>>,
    ddl: Vec<mainline_txn::DdlRecord>,
}

/// [`recover`], but skip every transaction committed at or below `after` —
/// the checkpoint-tail replay of a two-phase restart. `slot_map` maps the
/// crashed process's physical slots (`(table_id, raw slot)`) to their new
/// locations; the checkpoint loader pre-populates it for rows restored from
/// the checkpoint image, and replayed inserts extend it, so tail updates and
/// deletes resolve no matter which side of the checkpoint their target row
/// came from.
pub fn recover_from(
    log_bytes: &[u8],
    after: Timestamp,
    manager: &TransactionManager,
    tables: &HashMap<u32, Arc<DataTable>>,
    slot_map: &mut HashMap<(u32, u64), TupleSlot>,
    ddl: &mut dyn DdlReplayer,
) -> Result<RecoveryStats> {
    let mut stats = RecoveryStats::default();
    let mut reader = LogReader::new(log_bytes);
    // Buffers per commit timestamp awaiting their commit mark.
    let mut groups: HashMap<u64, Group> = HashMap::new();
    let mut committed: Vec<u64> = Vec::new();

    while let Some(entry) = reader.next_entry()? {
        match entry.payload {
            LogPayload::Redo(r) => {
                groups.entry(entry.commit_ts.0).or_default().records.push(r);
            }
            LogPayload::Commit => committed.push(entry.commit_ts.0),
            LogPayload::CreateTable(c) => groups
                .entry(entry.commit_ts.0)
                .or_default()
                .ddl
                .push(mainline_txn::DdlRecord::CreateTable(c)),
            LogPayload::DropTable { table_id, name } => groups
                .entry(entry.commit_ts.0)
                .or_default()
                .ddl
                .push(mainline_txn::DdlRecord::DropTable { table_id, name }),
        }
    }

    // The live table set evolves with replayed DDL; start from the caller's
    // map (cheap Arc clones). Drops are remembered forever: a committer that
    // still held the handle may have committed *after* the drop's timestamp,
    // and its records must be discarded, not treated as corruption.
    let mut live: HashMap<u32, Arc<DataTable>> = tables.clone();
    let mut dropped: HashSet<u32> = HashSet::new();

    // Apply committed groups in commit order.
    committed.sort_unstable();
    for ts in &committed {
        stats.max_commit_ts = stats.max_commit_ts.max(*ts);
        if Timestamp(*ts) <= after {
            // Fully covered by the checkpoint image — but drops must still
            // be *remembered* so post-cut stragglers to the dead table are
            // discarded rather than erroring on a missing id.
            if let Some(group) = groups.remove(ts) {
                if !group.records.is_empty() {
                    stats.txns_skipped += 1;
                    stats.ops_skipped += group.records.len();
                }
                for d in &group.ddl {
                    stats.ddl_skipped += 1;
                    if let mainline_txn::DdlRecord::DropTable { table_id, .. } = d {
                        dropped.insert(*table_id);
                        live.remove(table_id);
                    }
                }
            }
            continue;
        }
        let Some(group) = groups.remove(ts) else {
            // Read-only or empty transaction.
            continue;
        };
        // DDL first: a transaction's data records may target the table its
        // own group created (and the log serializes DDL before redo).
        for d in group.ddl {
            match d {
                mainline_txn::DdlRecord::CreateTable(c) => {
                    let table = ddl.create_table(&c)?;
                    if table.id() != c.table_id {
                        return Err(Error::Corrupt(format!(
                            "DDL replay id mismatch for {}: logged {} vs recreated {}",
                            c.name,
                            c.table_id,
                            table.id()
                        )));
                    }
                    live.insert(c.table_id, table);
                }
                mainline_txn::DdlRecord::DropTable { table_id, name } => {
                    ddl.drop_table(table_id, &name)?;
                    dropped.insert(table_id);
                    live.remove(&table_id);
                }
            }
            stats.ddl_applied += 1;
        }
        if group.records.is_empty() {
            continue;
        }
        let txn = manager.begin();
        let mut applied_any = false;
        for r in group.records {
            let Some(table) = live.get(&r.table_id) else {
                if dropped.contains(&r.table_id) || ddl.table_known_dropped(r.table_id) {
                    // Late commit into a dropped table: dead on arrival.
                    stats.ops_dropped += 1;
                    continue;
                }
                return Err(Error::NotFound(format!("table {}", r.table_id)));
            };
            let key = (r.table_id, r.slot.raw());
            match r.op {
                OP_INSERT => {
                    let row = view_to_row(table, &r)?;
                    let new_slot = table.insert(&txn, &row);
                    slot_map.insert(key, new_slot);
                }
                OP_UPDATE => {
                    let slot = *slot_map
                        .get(&key)
                        .ok_or_else(|| Error::Corrupt("update before insert in log".into()))?;
                    let row = view_to_row(table, &r)?;
                    table
                        .update(&txn, slot, &row)
                        .map_err(|e| Error::Corrupt(format!("replay update failed: {e}")))?;
                }
                OP_DELETE => {
                    let slot = *slot_map
                        .get(&key)
                        .ok_or_else(|| Error::Corrupt("delete before insert in log".into()))?;
                    table
                        .delete(&txn, slot)
                        .map_err(|e| Error::Corrupt(format!("replay delete failed: {e}")))?;
                }
                op => unreachable!("LogReader rejects op code {op}"),
            }
            stats.ops_applied += 1;
            applied_any = true;
        }
        manager.commit(&txn);
        if applied_any {
            stats.txns_replayed += 1;
        }
    }
    stats.txns_discarded = groups.len();
    Ok(stats)
}

/// Build the row a redo frame's after-image describes, straight from the
/// log bytes. Varlen values get owning entries: the table takes them over.
fn view_to_row(table: &DataTable, view: &RedoView) -> Result<ProjectedRow> {
    let mut row = ProjectedRow::with_capacity(view.cols().len());
    let layout = table.layout();
    for (col, value) in view.cols() {
        if !(NUM_RESERVED_COLS..layout.num_cols()).contains(&(col as usize)) {
            return Err(Error::Corrupt(format!("column {col} past table {}", table.id())));
        }
        match value {
            None => row.push_null(col),
            Some(bytes) if layout.is_varlen(col) => {
                row.push_varlen(col, VarlenEntry::from_bytes(bytes))
            }
            Some(bytes) => {
                let expected = layout.attr_size(col) as usize;
                if bytes.len() != expected {
                    return Err(Error::Corrupt(format!(
                        "column {col} image has {} bytes, expected {expected}",
                        bytes.len()
                    )));
                }
                let mut image = [0u8; 16];
                image[..expected].copy_from_slice(bytes);
                row.push_raw(col, false, image);
            }
        }
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log_manager::{LogManager, LogManagerConfig};
    use mainline_common::schema::{ColumnDef, Schema};
    use mainline_common::value::{TypeId, Value};
    use mainline_txn::redo::{stamp, write_redo};
    use mainline_txn::CommitSink;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", TypeId::BigInt),
            ColumnDef::nullable("name", TypeId::Varchar),
        ])
    }

    fn row(id: i64, name: Option<&str>) -> ProjectedRow {
        ProjectedRow::from_values(
            &[TypeId::BigInt, TypeId::Varchar],
            &[Value::BigInt(id), name.map_or(Value::Null, Value::string)],
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mainline-recovery-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn end_to_end_log_and_recover() {
        let path = tmp("e2e");
        // --- Original lifetime ---
        {
            let lm = LogManager::start(LogManagerConfig {
                fsync: false,
                ..LogManagerConfig::new(&path)
            })
            .unwrap();
            let m = TransactionManager::with_sink(Arc::clone(&lm) as Arc<dyn CommitSink>);
            let t = DataTable::new(7, schema()).unwrap();

            let t1 = m.begin();
            let s1 = t.insert(&t1, &row(1, Some("first-value-quite-long")));
            let _s2 = t.insert(&t1, &row(2, None));
            m.commit(&t1);

            let t2 = m.begin();
            let mut d = ProjectedRow::new();
            d.push_fixed(1, &Value::BigInt(100));
            t.update(&t2, s1, &d).unwrap();
            m.commit(&t2);

            let t3 = m.begin();
            let s3 = t.insert(&t3, &row(3, Some("doomed")));
            t.delete(&t3, s3).unwrap();
            m.commit(&t3);

            // An aborted transaction must not be replayed.
            let bad = m.begin();
            t.insert(&bad, &row(999, Some("aborted insert")));
            m.abort(&bad);

            lm.shutdown();
        }
        // --- Recovery lifetime ---
        let log = std::fs::read(&path).unwrap();
        let m2 = TransactionManager::new();
        let t2 = DataTable::new(7, schema()).unwrap();
        let mut tables = HashMap::new();
        tables.insert(7u32, Arc::clone(&t2));
        let stats = recover(&log, &m2, &tables, &mut BareDdlReplayer).unwrap();
        assert_eq!(stats.txns_replayed, 3);
        assert_eq!(stats.txns_discarded, 0);
        assert!(stats.ops_applied >= 5);

        let check = m2.begin();
        let mut rows = Vec::new();
        t2.scan(&check, &t2.all_cols(), |_, r| {
            rows.push(t2.row_to_values(r));
            true
        });
        rows.sort_by_key(|r| match r[0] {
            Value::BigInt(x) => x,
            _ => unreachable!(),
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::BigInt(2), Value::Null]);
        assert_eq!(rows[1], vec![Value::BigInt(100), Value::string("first-value-quite-long")]);
        m2.commit(&check);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uncommitted_tail_discarded() {
        // Hand-craft a log with a group missing its commit record.
        let mut log = Vec::new();
        let cols = [(1, Some(&5i64.to_le_bytes()[..])), (2, None)];
        write_redo(&mut log, OP_INSERT, 7, TupleSlot::from_raw(1 << 20), cols);
        stamp(&mut log, Timestamp(9));
        // No commit entry.
        let m = TransactionManager::new();
        let t = DataTable::new(7, schema()).unwrap();
        let mut tables = HashMap::new();
        tables.insert(7u32, Arc::clone(&t));
        let stats = recover(&log, &m, &tables, &mut BareDdlReplayer).unwrap();
        assert_eq!(stats.txns_replayed, 0);
        assert_eq!(stats.txns_discarded, 1);
        let check = m.begin();
        assert_eq!(t.count_visible(&check), 0);
        m.commit(&check);
    }

    #[test]
    fn reserved_or_unknown_column_is_corrupt() {
        let t = DataTable::new(7, schema()).unwrap();
        let tables = HashMap::from([(7u32, Arc::clone(&t))]);
        for col in [0u16, 3] {
            let mut log = Vec::new();
            let cols = [(col, Some(&[0u8; 8][..]))];
            write_redo(&mut log, OP_INSERT, 7, TupleSlot::from_raw(1 << 20), cols);
            stamp(&mut log, Timestamp(1));
            crate::record::encode_commit(&mut log, Timestamp(1));
            let m = TransactionManager::new();
            let got = recover(&log, &m, &tables, &mut BareDdlReplayer);
            assert!(matches!(got, Err(Error::Corrupt(_))), "column {col}: {got:?}");
        }
    }

    #[test]
    fn unknown_table_is_an_error() {
        let mut log = Vec::new();
        write_redo(&mut log, OP_DELETE, 99, TupleSlot::from_raw(1 << 20), []);
        stamp(&mut log, Timestamp(1));
        crate::record::encode_commit(&mut log, Timestamp(1));
        let m = TransactionManager::new();
        let tables = HashMap::new();
        assert!(recover(&log, &m, &tables, &mut BareDdlReplayer).is_err());
    }

    /// Column `i` of a row drawn from `bits`, `text` and a NULL mask; the
    /// six columns cover every `TypeId`.
    fn typed_row(bits: u64, text: Vec<u8>, nulls: u8) -> Vec<Value> {
        let values = [
            Value::TinyInt(bits as i8),
            Value::SmallInt((bits >> 8) as i16),
            Value::Integer((bits >> 16) as i32),
            Value::BigInt(bits as i64),
            Value::Double((bits >> 24) as i32 as f64 / 8.0),
            Value::Varchar(text),
        ];
        let null = |i: usize| nulls >> i & 1 == 1;
        values.into_iter().enumerate().map(|(i, v)| if null(i) { Value::Null } else { v }).collect()
    }

    fn all_types_schema() -> Schema {
        use TypeId::*;
        let types = [TinyInt, SmallInt, Integer, BigInt, Double, Varchar];
        Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, &ty)| ColumnDef::nullable(&format!("c{i}"), ty))
                .collect(),
        )
    }

    fn sorted_rows(t: &DataTable, m: &TransactionManager) -> Vec<String> {
        let txn = m.begin();
        let mut rows = Vec::new();
        t.scan(&txn, &t.all_cols(), |_, r| {
            rows.push(format!("{:?}", t.row_to_values(r)));
            true
        });
        m.commit(&txn);
        rows.sort();
        rows
    }

    mod prop {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        static CASE: AtomicUsize = AtomicUsize::new(0);

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Rows of every type, written by real transactions through the
            /// log manager and replayed into a fresh table, come back equal;
            /// updates and deletes of random columns replay too.
            #[test]
            fn replay_restores_rows_of_every_type(
                rows in vec((any::<u64>(), vec(any::<u8>(), 0..40), any::<u8>()), 1..16),
                updates in vec(
                    (any::<usize>(), (any::<u64>(), vec(any::<u8>(), 0..40), any::<u8>()), 1u8..64),
                    0..12,
                ),
                deletes in vec(any::<usize>(), 0..4),
            ) {
                let case = CASE.fetch_add(1, Ordering::Relaxed);
                let path = tmp(&format!("prop-{case}"));
                let schema = all_types_schema();
                let types: Vec<TypeId> = schema.types().collect();
                let lm = LogManager::start(LogManagerConfig {
                    fsync: false,
                    ..LogManagerConfig::new(&path)
                })
                .unwrap();
                let m = TransactionManager::with_sink(Arc::clone(&lm) as Arc<dyn CommitSink>);
                let t = DataTable::new(5, schema.clone()).unwrap();

                let txn = m.begin();
                let slots: Vec<TupleSlot> = rows
                    .into_iter()
                    .map(|(bits, text, nulls)| {
                        let values = typed_row(bits, text, nulls);
                        t.insert(&txn, &ProjectedRow::from_values(&types, &values))
                    })
                    .collect();
                m.commit(&txn);
                for (pick, (bits, text, nulls), cols) in updates {
                    let new = ProjectedRow::from_values(&types, &typed_row(bits, text, nulls));
                    let mut delta = ProjectedRow::new();
                    for a in new.attrs() {
                        if cols >> (a.col - 1) & 1 == 1 {
                            delta.push_raw(a.col, a.null, a.image);
                        } else if t.layout().is_varlen(a.col) && !a.null {
                            unsafe { a.as_varlen().free_buffer() };
                        }
                    }
                    let txn = m.begin();
                    t.update(&txn, slots[pick % slots.len()], &delta).unwrap();
                    m.commit(&txn);
                }
                let txn = m.begin();
                for pick in deletes {
                    // A second delete of the same row is refused; skip it.
                    let _ = t.delete(&txn, slots[pick % slots.len()]);
                }
                m.commit(&txn);
                lm.shutdown();

                let log = crate::segments::read_log(&path).unwrap();
                let m2 = TransactionManager::new();
                let fresh = DataTable::new(5, schema).unwrap();
                let tables = HashMap::from([(5u32, Arc::clone(&fresh))]);
                recover(&log, &m2, &tables, &mut BareDdlReplayer).unwrap();
                prop_assert_eq!(sorted_rows(&fresh, &m2), sorted_rows(&t, &m));
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}
