//! Indexed table handles: DML that keeps secondary indexes consistent under
//! MVCC, plus the compaction move-hook (Fig. 13's index write amplification
//! happens here).

use crate::admission::AdmissionController;
use mainline_common::value::{TypeId, Value};
use mainline_common::{Error, Result};
use mainline_gc::DeferredQueue;
use mainline_index::{BPlusTree, IndexMetrics, KeyBuf, Probe};
use mainline_storage::layout::NUM_RESERVED_COLS;
use mainline_storage::projected_row::AttrImage;
use mainline_storage::{ProjectedRow, TupleSlot, VarlenEntry};
use mainline_transform::pipeline::MoveHook;
use mainline_txn::{DataTable, Transaction, TransactionManager};
use std::sync::Arc;

/// Declaration of one secondary index over user-column positions.
#[derive(Debug, Clone)]
pub struct IndexSpec {
    /// Index name (unique per table).
    pub name: String,
    /// User-column positions (0-based) forming the composite key, in order.
    pub key_cols: Vec<usize>,
}

impl IndexSpec {
    /// Convenience constructor.
    pub fn new(name: &str, key_cols: &[usize]) -> Self {
        IndexSpec { name: name.to_string(), key_cols: key_cols.to_vec() }
    }
}

pub(crate) struct TableIndex {
    pub spec: IndexSpec,
    /// `(encoded key ‖ slot)` → slot. The slot suffix makes multi-version
    /// duplicates coexist in a unique tree.
    pub tree: BPlusTree<u64>,
}

impl TableIndex {
    /// The index entry `key ‖ slot` for `row`, which may be any projection
    /// that covers the key columns (a full insert row, a compaction copy,
    /// or a key-only select). This is the one write-side key encoder.
    ///
    /// The row's varlen key attributes must point at live buffers.
    fn entry(&self, types: &[TypeId], row: &ProjectedRow, slot: TupleSlot) -> KeyBuf {
        let mut key = KeyBuf::new();
        for &c in &self.spec.key_cols {
            let col = (c + NUM_RESERVED_COLS) as u16;
            let pos = row.find(col).expect("projection covers the index key");
            push_attr(&mut key, types[c], &row.attrs()[pos]);
        }
        key.push_raw(&slot.raw().to_be_bytes());
        key
    }
}

/// Append one key component from a stored attribute image.
fn push_attr(key: &mut KeyBuf, ty: TypeId, a: &AttrImage) {
    assert!(!a.null, "NULL key component for {ty:?}");
    let img = &a.image;
    match ty {
        TypeId::TinyInt => key.push_i8(img[0] as i8),
        TypeId::SmallInt => key.push_i16(i16::from_le_bytes([img[0], img[1]])),
        TypeId::Integer => key.push_i32(i32::from_le_bytes([img[0], img[1], img[2], img[3]])),
        TypeId::BigInt => key.push_i64(i64::from_le_bytes(img[..8].try_into().unwrap())),
        TypeId::Double => key.push_f64(f64::from_le_bytes(img[..8].try_into().unwrap())),
        // SAFETY: callers hold the tuple (their own insert or delete, a
        // visible version, or a compaction copy), so GC cannot have freed
        // the buffer.
        TypeId::Varchar => key.push_bytes(unsafe { a.as_varlen().as_slice() }),
    }
}

/// Append one key component from a logical value (the probe side).
fn push_value(key: &mut KeyBuf, ty: TypeId, v: &Value) {
    match (ty, v) {
        (TypeId::TinyInt, Value::TinyInt(x)) => key.push_i8(*x),
        (TypeId::SmallInt, Value::SmallInt(x)) => key.push_i16(*x),
        (TypeId::Integer, Value::Integer(x)) => key.push_i32(*x),
        (TypeId::BigInt, Value::BigInt(x)) => key.push_i64(*x),
        (TypeId::Double, Value::Double(x)) => key.push_f64(*x),
        (TypeId::Varchar, Value::Varchar(x)) => key.push_bytes(x),
        (ty, Value::Null) => panic!("NULL key component for {ty:?}"),
        (ty, v) => panic!("key component mismatch: {ty:?} vs {v:?}"),
    }
}

/// Storage column ids of user-column positions.
fn storage_cols<const N: usize>(cols: &[usize; N]) -> [u16; N] {
    cols.map(|c| (c + NUM_RESERVED_COLS) as u16)
}

/// A table plus its secondary indexes.
pub struct TableHandle {
    table: Arc<DataTable>,
    indexes: Vec<Arc<TableIndex>>,
    /// Storage ids of every user column (the full-row projection).
    all_cols: Vec<u16>,
    /// Storage ids of the columns any index keys on: the projection that
    /// `delete` and `rebuild_indexes` read to re-derive index entries.
    key_cols: Vec<u16>,
    /// Whether the table is registered with the transformation pipeline
    /// (persisted by checkpoints so restart can re-register).
    transform: bool,
    manager: Arc<TransactionManager>,
    deferred: Arc<DeferredQueue>,
    /// Consulted at the top of every write entry point (§4.4's control
    /// loop: transformation backpressure throttles ingest).
    admission: Arc<AdmissionController>,
}

impl TableHandle {
    pub(crate) fn new(
        table: Arc<DataTable>,
        specs: Vec<IndexSpec>,
        transform: bool,
        manager: Arc<TransactionManager>,
        deferred: Arc<DeferredQueue>,
        admission: Arc<AdmissionController>,
        index_metrics: &Arc<IndexMetrics>,
    ) -> Arc<Self> {
        let mut key_cols: Vec<u16> = specs
            .iter()
            .flat_map(|s| s.key_cols.iter().map(|&c| (c + NUM_RESERVED_COLS) as u16))
            .collect();
        key_cols.sort_unstable();
        key_cols.dedup();
        let indexes = specs
            .into_iter()
            .map(|spec| {
                let tree = BPlusTree::with_metrics(Arc::clone(index_metrics));
                Arc::new(TableIndex { spec, tree })
            })
            .collect();
        let all_cols = table.all_cols();
        Arc::new(TableHandle {
            table,
            indexes,
            all_cols,
            key_cols,
            transform,
            manager,
            deferred,
            admission,
        })
    }

    /// The underlying data table.
    pub fn table(&self) -> &Arc<DataTable> {
        &self.table
    }

    /// Whether the table participates in hot→cold transformation.
    pub fn is_transform(&self) -> bool {
        self.transform
    }

    /// Number of secondary indexes.
    pub fn num_indexes(&self) -> usize {
        self.indexes.len()
    }

    /// The index definitions, for checkpoint manifests.
    pub fn index_specs(&self) -> Vec<IndexSpec> {
        self.indexes.iter().map(|i| i.spec.clone()).collect()
    }

    /// Rebuild every secondary index from a key-only table scan — the
    /// restart path: checkpoint loading and WAL replay write through
    /// `DataTable` directly, so the trees start empty. Must run on
    /// otherwise-idle, freshly restored tables. Returns the number of
    /// entries inserted.
    pub fn rebuild_indexes(&self, txn: &Arc<Transaction>) -> usize {
        if self.indexes.is_empty() {
            return 0;
        }
        let types = self.table.types();
        let mut inserted = 0;
        self.table.scan(txn, &self.key_cols, |slot, row| {
            for index in &self.indexes {
                index.tree.insert_unique(index.entry(types, row, slot).as_bytes(), slot.raw());
                inserted += 1;
            }
            true
        });
        inserted
    }

    /// Exact entry count of index `i`: the underlying tree updates its
    /// counter inside the leaf critical section, so this is linearizable
    /// with the insert/remove that produced it.
    pub fn index_len(&self, i: usize) -> usize {
        self.indexes[i].tree.len()
    }

    fn index_named(&self, name: &str) -> Result<&Arc<TableIndex>> {
        self.indexes
            .iter()
            .find(|i| i.spec.name == name)
            .ok_or_else(|| Error::NotFound(format!("index {name}")))
    }

    /// Insert a full row (values over user columns, in schema order).
    /// Subject to admission control: may yield or stall (bounded) while the
    /// transformation pipeline is behind.
    pub fn insert(&self, txn: &Arc<Transaction>, values: &[Value]) -> TupleSlot {
        self.admission.admit();
        txn.pin_table(&self.table);
        let row = ProjectedRow::from_values(self.table.types(), values);
        let slot = self.table.insert(txn, &row);
        for index in &self.indexes {
            // The row's varlen buffers now belong to our own, uncommitted
            // tuple, so they stay alive while the key is encoded.
            let entry = index.entry(self.table.types(), &row, slot);
            index.tree.insert_unique(entry.as_bytes(), slot.raw());
            // Abort compensation owns the one encoded entry.
            let tree_index = Arc::clone(index);
            txn.add_end_action(move |committed| {
                if !committed {
                    tree_index.tree.remove(entry.as_bytes());
                }
            });
        }
        slot
    }

    /// Delete a row by slot. Index entries are removed lazily: on commit the
    /// removal is deferred past the GC epoch so old snapshots keep finding
    /// the entry; on abort nothing happens. Subject to admission control.
    pub fn delete(&self, txn: &Arc<Transaction>, slot: TupleSlot) -> Result<()> {
        self.admission.admit();
        txn.pin_table(&self.table);
        let keys = self.table.select(txn, slot, &self.key_cols).ok_or(Error::TupleNotVisible)?;
        self.table.delete(txn, slot)?;
        for index in &self.indexes {
            // Our own uncommitted delete keeps the key buffers alive.
            let entry = index.entry(self.table.types(), &keys, slot);
            let tree_index = Arc::clone(index);
            let deferred = Arc::clone(&self.deferred);
            let manager = Arc::clone(&self.manager);
            txn.add_end_action(move |committed| {
                if committed {
                    let ts = manager.oracle().next();
                    deferred.defer(ts, move || {
                        tree_index.tree.remove(entry.as_bytes());
                    });
                }
            });
        }
        Ok(())
    }

    /// Update non-key columns of a row. `updates` maps user-column positions
    /// to new values. Key-column updates are rejected (TPC-C never needs
    /// them; a full implementation would model them as delete+insert).
    /// Subject to admission control.
    pub fn update(
        &self,
        txn: &Arc<Transaction>,
        slot: TupleSlot,
        updates: &[(usize, Value)],
    ) -> Result<()> {
        self.admission.admit();
        txn.pin_table(&self.table);
        for index in &self.indexes {
            for (c, _) in updates {
                if index.spec.key_cols.contains(c) {
                    return Err(Error::Layout(format!(
                        "update touches key column {c} of index {}",
                        index.spec.name
                    )));
                }
            }
        }
        let types = self.table.types();
        let mut delta = ProjectedRow::with_capacity(updates.len());
        for (c, v) in updates {
            let col = (*c + NUM_RESERVED_COLS) as u16;
            assert!(v.compatible_with(types[*c]), "col {c}: {v:?}");
            match v {
                Value::Null => delta.push_null(col),
                Value::Varchar(bytes) => delta.push_varlen(col, VarlenEntry::from_bytes(bytes)),
                other => delta.push_fixed(col, other),
            }
        }
        self.table.update(txn, slot, &delta)
    }

    // ------------------------------------------------------------------
    // Point access. One path serves every read: encode the probe key on
    // the stack, walk the index from it with early exit, and materialize
    // only the requested columns of the visible matches through
    // `DataTable::select` (so residency validation, fault-in and the
    // clock's ref bit behave as for any read). The `Vec<Value>` entry
    // points are the same walk over every column. `lookup_many_cols`
    // batches independent lookups: their index descents and row reads
    // overlap their cache misses, and every key it cannot settle from the
    // batch takes the single-key walk.
    // ------------------------------------------------------------------

    /// Point lookup through an index: the first *visible* match for the
    /// exact key (or key prefix), with user columns `cols` in that order.
    pub fn lookup_cols<const N: usize>(
        &self,
        txn: &Arc<Transaction>,
        index_name: &str,
        key_values: &[Value],
        cols: [usize; N],
    ) -> Result<Option<(TupleSlot, [Value; N])>> {
        let found = self.first_visible(txn, index_name, key_values, None, &storage_cols(&cols))?;
        Ok(found.map(|(slot, row)| (slot, self.decode(&row, &cols))))
    }

    /// Many point lookups through one index: for each key, exactly what
    /// [`lookup_cols`](Self::lookup_cols) returns for it, in key order.
    ///
    /// The keys are encoded once and their index descents run together
    /// ([`BPlusTree::probe_many`]); then every found row's version word and
    /// requested columns are prefetched before the rows are selected one by
    /// one, so the lookups' cache misses overlap instead of queueing. A key
    /// whose first index entry is invisible to `txn`, or that the batched
    /// descent left undecided, takes the single-key walk.
    // The row type is spelled out so it reads like `lookup_cols`'s.
    #[allow(clippy::type_complexity)]
    pub fn lookup_many_cols<K: AsRef<[Value]>, const N: usize>(
        &self,
        txn: &Arc<Transaction>,
        index_name: &str,
        keys: &[K],
        cols: [usize; N],
    ) -> Result<Vec<Option<(TupleSlot, [Value; N])>>> {
        let index = self.index_named(index_name)?;
        txn.pin_table(&self.table);
        let scols = storage_cols(&cols);
        let encoded: Vec<KeyBuf> =
            keys.iter().map(|k| self.encode_key(index, k.as_ref())).collect();
        let probes = index.tree.probe_many(&encoded);
        for probe in &probes {
            if let Probe::Found(raw) = *probe {
                self.table.prefetch(TupleSlot::from_raw(raw), &scols);
            }
        }
        let found = encoded.iter().zip(probes).map(|(key, probe)| {
            let walk =
                || self.walk_first_visible(index, txn, key.as_bytes(), key.as_bytes(), &scols);
            let row = match probe {
                Probe::Found(raw) => {
                    let slot = TupleSlot::from_raw(raw);
                    self.table.select(txn, slot, &scols).map(|row| (slot, row)).or_else(walk)
                }
                Probe::Absent => None,
                Probe::Undecided => walk(),
            };
            row.map(|(slot, row)| (slot, self.decode(&row, &cols)))
        });
        Ok(found.collect())
    }

    /// Point lookup through an index: returns the first *visible* match for
    /// the exact key, with its full row.
    pub fn lookup(
        &self,
        txn: &Arc<Transaction>,
        index_name: &str,
        key_values: &[Value],
    ) -> Result<Option<(TupleSlot, Vec<Value>)>> {
        let found = self.first_visible(txn, index_name, key_values, None, &self.all_cols)?;
        Ok(found.map(|(slot, row)| (slot, self.table.row_to_values(&row))))
    }

    /// The visible rows whose index key starts with `key_values` (a prefix
    /// of the index's key columns), in index order, up to `limit`, with user
    /// columns `cols`. With no columns (`[]`) this only tests visibility.
    pub fn scan_prefix_cols<const N: usize>(
        &self,
        txn: &Arc<Transaction>,
        index_name: &str,
        key_values: &[Value],
        limit: usize,
        cols: [usize; N],
    ) -> Result<Vec<(TupleSlot, [Value; N])>> {
        let mut out = Vec::new();
        self.visit_prefix(
            txn,
            index_name,
            key_values,
            limit,
            &storage_cols(&cols),
            |slot, row| out.push((slot, self.decode(&row, &cols))),
        )?;
        Ok(out)
    }

    /// Collect all visible rows whose index key starts with `key_values`
    /// (a prefix of the index's key columns), up to `limit`.
    pub fn scan_prefix(
        &self,
        txn: &Arc<Transaction>,
        index_name: &str,
        key_values: &[Value],
        limit: usize,
    ) -> Result<Vec<(TupleSlot, Vec<Value>)>> {
        let mut out = Vec::new();
        self.visit_prefix(txn, index_name, key_values, limit, &self.all_cols, |slot, row| {
            out.push((slot, self.table.row_to_values(&row)))
        })?;
        Ok(out)
    }

    /// The first visible row at-or-after the given key (e.g. "oldest
    /// undelivered NEW_ORDER" in TPC-C Delivery) whose key still starts
    /// with `within_prefix`, with user columns `cols`.
    pub fn first_at_or_after_cols<const N: usize>(
        &self,
        txn: &Arc<Transaction>,
        index_name: &str,
        key_values: &[Value],
        within_prefix: &[Value],
        cols: [usize; N],
    ) -> Result<Option<(TupleSlot, [Value; N])>> {
        let found = self.first_visible(
            txn,
            index_name,
            key_values,
            Some(within_prefix),
            &storage_cols(&cols),
        )?;
        Ok(found.map(|(slot, row)| (slot, self.decode(&row, &cols))))
    }

    /// The first visible row at-or-after the given key prefix (e.g. "oldest
    /// undelivered NEW_ORDER" in TPC-C Delivery).
    pub fn first_at_or_after(
        &self,
        txn: &Arc<Transaction>,
        index_name: &str,
        key_values: &[Value],
        within_prefix: &[Value],
    ) -> Result<Option<(TupleSlot, Vec<Value>)>> {
        let found =
            self.first_visible(txn, index_name, key_values, Some(within_prefix), &self.all_cols)?;
        Ok(found.map(|(slot, row)| (slot, self.table.row_to_values(&row))))
    }

    /// User columns `cols` of the version of `slot` visible to `txn`
    /// (`None` when invisible) — e.g. the one customer Payment picks out
    /// of a by-name scan.
    pub fn read_cols<const N: usize>(
        &self,
        txn: &Arc<Transaction>,
        slot: TupleSlot,
        cols: [usize; N],
    ) -> Option<[Value; N]> {
        txn.pin_table(&self.table);
        let row = self.table.select(txn, slot, &storage_cols(&cols))?;
        Some(self.decode(&row, &cols))
    }

    fn encode_key(&self, index: &TableIndex, key_values: &[Value]) -> KeyBuf {
        assert!(key_values.len() <= index.spec.key_cols.len());
        let types = self.table.types();
        let mut key = KeyBuf::new();
        for (v, &c) in key_values.iter().zip(&index.spec.key_cols) {
            push_value(&mut key, types[c], v);
        }
        key
    }

    /// The first visible row, over storage columns `cols`, in the walk
    /// from key `from` that stays within key prefix `within` (`None`: the
    /// walk stays within `from` itself, an exact lookup).
    fn first_visible(
        &self,
        txn: &Arc<Transaction>,
        index_name: &str,
        from: &[Value],
        within: Option<&[Value]>,
        cols: &[u16],
    ) -> Result<Option<(TupleSlot, ProjectedRow)>> {
        let index = self.index_named(index_name)?;
        txn.pin_table(&self.table);
        let lo = self.encode_key(index, from);
        let within = within.map(|w| self.encode_key(index, w));
        let within = within.as_ref().unwrap_or(&lo);
        Ok(self.walk_first_visible(index, txn, lo.as_bytes(), within.as_bytes(), cols))
    }

    /// The first visible row, over storage columns `cols`, in the walk of
    /// `index` from encoded key `lo` that stays within encoded prefix
    /// `within`.
    fn walk_first_visible(
        &self,
        index: &TableIndex,
        txn: &Arc<Transaction>,
        lo: &[u8],
        within: &[u8],
        cols: &[u16],
    ) -> Option<(TupleSlot, ProjectedRow)> {
        let mut found = None;
        index.tree.seek_prefix(lo, within, |_k, &slot_raw| {
            let slot = TupleSlot::from_raw(slot_raw);
            found = self.table.select(txn, slot, cols).map(|row| (slot, row));
            found.is_none()
        });
        found
    }

    /// Hand each visible row whose key starts with `key_values`, over
    /// storage columns `cols`, to `f` in index order, up to `limit` rows.
    fn visit_prefix(
        &self,
        txn: &Arc<Transaction>,
        index_name: &str,
        key_values: &[Value],
        limit: usize,
        cols: &[u16],
        mut f: impl FnMut(TupleSlot, ProjectedRow),
    ) -> Result<()> {
        let index = self.index_named(index_name)?;
        txn.pin_table(&self.table);
        if limit == 0 {
            return Ok(());
        }
        let prefix = self.encode_key(index, key_values);
        let mut seen = 0;
        index.tree.seek_prefix(prefix.as_bytes(), prefix.as_bytes(), |_k, &slot_raw| {
            let slot = TupleSlot::from_raw(slot_raw);
            if let Some(row) = self.table.select(txn, slot, cols) {
                f(slot, row);
                seen += 1;
            }
            seen < limit
        });
        Ok(())
    }

    /// Decode a row selected over `storage_cols(cols)` (same order).
    fn decode<const N: usize>(&self, row: &ProjectedRow, cols: &[usize; N]) -> [Value; N] {
        let (layout, types) = (self.table.layout(), self.table.types());
        // SAFETY: the row was just selected from a version visible to the
        // caller's running transaction, so its varlen buffers are alive.
        std::array::from_fn(|i| unsafe { row.value_at(i, layout, types[cols[i]]) })
    }
}

/// The compaction move-hook: re-points every index from the old slot to the
/// new one with the same lazy-delete discipline as normal DML.
pub struct IndexMoveHook {
    pub(crate) handle: Arc<TableHandle>,
}

impl MoveHook for IndexMoveHook {
    fn on_move(
        &self,
        txn: &Transaction,
        from: TupleSlot,
        to: TupleSlot,
        row: &ProjectedRow,
    ) -> Result<()> {
        let types = self.handle.table.types();
        for index in &self.handle.indexes {
            let new_entry = index.entry(types, row, to);
            let old_entry = index.entry(types, row, from);
            index.tree.insert_unique(new_entry.as_bytes(), to.raw());
            let tree_index = Arc::clone(index);
            let deferred = Arc::clone(&self.handle.deferred);
            let manager = Arc::clone(&self.handle.manager);
            txn.add_end_action(move |committed| {
                if committed {
                    let ts = manager.oracle().next();
                    deferred.defer(ts, move || {
                        tree_index.tree.remove(old_entry.as_bytes());
                    });
                } else {
                    tree_index.tree.remove(new_entry.as_bytes());
                }
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_common::schema::{ColumnDef, Schema};

    fn handle() -> (Arc<TransactionManager>, Arc<TableHandle>) {
        let manager = Arc::new(TransactionManager::new());
        let table = DataTable::new(
            1,
            Schema::new(vec![
                ColumnDef::new("w", TypeId::Integer),
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::new("name", TypeId::Varchar),
            ]),
        )
        .unwrap();
        let deferred = Arc::new(DeferredQueue::new());
        let h = TableHandle::new(
            table,
            vec![IndexSpec::new("pk", &[0, 1]), IndexSpec::new("by_name", &[2])],
            false,
            Arc::clone(&manager),
            deferred,
            Arc::new(AdmissionController::disabled()),
            &Arc::default(),
        );
        (manager, h)
    }

    fn row(w: i32, id: i64, name: &str) -> Vec<Value> {
        vec![Value::Integer(w), Value::BigInt(id), Value::string(name)]
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let (m, h) = handle();
        let txn = m.begin();
        for i in 0..100 {
            h.insert(&txn, &row(i % 4, i as i64, &format!("name-{i:03}")));
        }
        m.commit(&txn);
        let txn = m.begin();
        let (slot, values) = h
            .lookup(&txn, "pk", &[Value::Integer(1), Value::BigInt(5)])
            .unwrap()
            .expect("row exists");
        assert_eq!(values, row(1, 5, "name-005"));
        assert!(!slot.is_null());
        assert!(
            h.lookup(&txn, "pk", &[Value::Integer(3), Value::BigInt(4)]).unwrap().is_none(),
            "w=3,id=4 was never inserted (4 % 4 == 0)"
        );
        m.commit(&txn);
    }

    #[test]
    fn prefix_scan_groups_by_leading_column() {
        let (m, h) = handle();
        let txn = m.begin();
        for i in 0..40 {
            h.insert(&txn, &row(i % 4, i as i64, &format!("n{i}")));
        }
        m.commit(&txn);
        let txn = m.begin();
        let got = h.scan_prefix(&txn, "pk", &[Value::Integer(2)], usize::MAX).unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|(_, v)| v[0] == Value::Integer(2)));
        // Ordered by id within the prefix.
        let ids: Vec<i64> = got.iter().map(|(_, v)| v[1].as_i64().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        m.commit(&txn);
    }

    #[test]
    fn aborted_insert_leaves_no_index_entry() {
        let (m, h) = handle();
        let txn = m.begin();
        h.insert(&txn, &row(1, 1, "doomed"));
        m.abort(&txn);
        let txn = m.begin();
        assert!(h.lookup(&txn, "pk", &[Value::Integer(1), Value::BigInt(1)]).unwrap().is_none());
        assert_eq!(h.index_len(0), 0);
        m.commit(&txn);
    }

    #[test]
    fn delete_is_lazy_but_invisible() {
        let (m, h) = handle();
        let txn = m.begin();
        let slot = h.insert(&txn, &row(1, 1, "short-lived"));
        m.commit(&txn);

        let reader = m.begin(); // old snapshot
        let deleter = m.begin();
        h.delete(&deleter, slot).unwrap();
        m.commit(&deleter);

        // Old snapshot still finds it through the index (lazy delete).
        assert!(h.lookup(&reader, "pk", &[Value::Integer(1), Value::BigInt(1)]).unwrap().is_some());
        m.commit(&reader);
        // New snapshot does not.
        let txn = m.begin();
        assert!(h.lookup(&txn, "pk", &[Value::Integer(1), Value::BigInt(1)]).unwrap().is_none());
        m.commit(&txn);
        // The physical entry survives until the deferred action runs.
        assert_eq!(h.index_len(0), 1);
        h.deferred.process(mainline_common::Timestamp::MAX);
        assert_eq!(h.index_len(0), 0);
    }

    #[test]
    fn update_rejects_key_columns() {
        let (m, h) = handle();
        let txn = m.begin();
        let slot = h.insert(&txn, &row(1, 1, "x"));
        assert!(h.update(&txn, slot, &[(1, Value::BigInt(9))]).is_err());
        let _ = h.update(&txn, slot, &[]); // empty update: no-op, must not panic
        m.commit(&txn);
    }

    #[test]
    fn first_at_or_after_finds_minimum() {
        let (m, h) = handle();
        let txn = m.begin();
        for id in [30i64, 10, 20] {
            h.insert(&txn, &row(1, id, "z"));
        }
        m.commit(&txn);
        let txn = m.begin();
        let got = h
            .first_at_or_after(
                &txn,
                "pk",
                &[Value::Integer(1), Value::BigInt(15)],
                &[Value::Integer(1)],
            )
            .unwrap()
            .expect("found");
        assert_eq!(got.1[1], Value::BigInt(20));
        // Nothing at-or-after 40 within w=1.
        assert!(h
            .first_at_or_after(
                &txn,
                "pk",
                &[Value::Integer(1), Value::BigInt(40)],
                &[Value::Integer(1)],
            )
            .unwrap()
            .is_none());
        m.commit(&txn);
    }
}
