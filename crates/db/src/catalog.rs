//! A minimal catalog: names → indexed table handles.
//!
//! DDL is durable: `create_table`/`drop_table` stage a logical
//! [`DdlRecord`] on an internal transaction and commit it through the normal
//! §3.4 path, so schema changes are group-committed and timestamp-ordered
//! with the data records that depend on them. A WAL tail referencing a table
//! created after the last checkpoint therefore replays without outside help.

use crate::admission::AdmissionController;
use crate::table_handle::{IndexSpec, TableHandle};
use mainline_common::schema::Schema;
use mainline_common::{Error, Result};
use mainline_gc::DeferredQueue;
use mainline_index::IndexMetrics;
use mainline_storage::MemoryAccountant;
use mainline_txn::{
    CreateTableDdl, DataTable, DdlRecord, FaultHandler, IndexDef, TransactionManager,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The table catalog.
pub struct Catalog {
    manager: Arc<TransactionManager>,
    deferred: Arc<DeferredQueue>,
    admission: Arc<AdmissionController>,
    tables: RwLock<HashMap<String, Arc<TableHandle>>>,
    next_id: AtomicU32,
    /// Residency wiring applied to every table (present and future) once the
    /// database layer configures checkpointing: the fault path for evicted
    /// blocks plus the shared memory accountant.
    residency: RwLock<Option<(FaultHandler, Arc<MemoryAccountant>)>>,
    /// The one metric set every index of every table records into, so the
    /// counts outlive a dropped table.
    index_metrics: Arc<IndexMetrics>,
}

impl Catalog {
    /// Empty catalog. Every table handle it creates shares `admission`, so
    /// all write entry points consult the same controller.
    pub fn new(
        manager: Arc<TransactionManager>,
        deferred: Arc<DeferredQueue>,
        admission: Arc<AdmissionController>,
    ) -> Self {
        Catalog {
            manager,
            deferred,
            admission,
            tables: RwLock::new(HashMap::new()),
            next_id: AtomicU32::new(1),
            residency: RwLock::new(None),
            index_metrics: Arc::default(),
        }
    }

    /// The metric set all of this catalog's indexes share.
    pub(crate) fn index_metrics(&self) -> &Arc<IndexMetrics> {
        &self.index_metrics
    }

    /// Install the cold-block residency wiring: every table created from now
    /// on (and every table already in the catalog) gets the fault handler
    /// and the memory accountant. Called once by the database layer when
    /// checkpointing is configured — eviction is only safe with a durable
    /// home for frozen bytes.
    pub(crate) fn set_residency(&self, handler: FaultHandler, accountant: Arc<MemoryAccountant>) {
        for h in self.tables.read().values() {
            h.table().set_fault_handler(Arc::clone(&handler));
            h.table().set_accountant(Arc::clone(&accountant));
        }
        *self.residency.write() = Some((handler, accountant));
    }

    /// Create a table with secondary indexes. `transform` records whether
    /// the caller registers the table with the transformation pipeline — the
    /// checkpoint manifest persists the flag so a restart can re-register.
    ///
    /// The DDL is logged: a `CreateTable` record (schema + catalog id +
    /// index definitions) commits through the normal path *before* this
    /// returns, so every data commit against the handle carries a later
    /// timestamp than the record that recreates its table at replay.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        indexes: Vec<IndexSpec>,
        transform: bool,
    ) -> Result<Arc<TableHandle>> {
        // Every name lands in a length-prefixed (u16) DDL log record.
        check_ddl_name(name)?;
        for c in schema.columns() {
            check_ddl_name(&c.name)?;
        }
        for ix in &indexes {
            check_ddl_name(&ix.name)?;
        }
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(Error::DuplicateKey);
        }
        let id = self.next_id.fetch_add(1, Ordering::AcqRel);
        let table = DataTable::new(id, schema)?;
        if let Some((handler, accountant)) = self.residency.read().as_ref() {
            table.set_fault_handler(Arc::clone(handler));
            table.set_accountant(Arc::clone(accountant));
        }
        let handle = TableHandle::new(
            table,
            indexes,
            transform,
            Arc::clone(&self.manager),
            Arc::clone(&self.deferred),
            Arc::clone(&self.admission),
            &self.index_metrics,
        );
        let txn = self.manager.begin();
        txn.add_ddl(DdlRecord::CreateTable(CreateTableDdl {
            table_id: id,
            name: name.to_string(),
            transform,
            columns: handle.table().schema().columns().to_vec(),
            indexes: handle
                .index_specs()
                .into_iter()
                .map(|spec| IndexDef { name: spec.name, key_cols: spec.key_cols })
                .collect(),
        }));
        self.manager.commit(&txn);
        tables.insert(name.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    /// Pin the id the *next* [`create_table`](Self::create_table) call will
    /// receive. Restart uses this to recreate tables under the exact ids the
    /// checkpoint manifest and the WAL reference (the crashed catalog may
    /// have had gaps from dropped tables). Never moves the counter backwards.
    pub(crate) fn pin_next_id(&self, id: u32) {
        self.next_id.fetch_max(id, Ordering::AcqRel);
    }

    /// Remove a table by name, returning its handle (so the caller can
    /// deregister it from the transformation pipeline). Existing `Arc`s to
    /// the handle stay usable; the name becomes free for reuse.
    ///
    /// The DDL is logged: replay drops the table at this commit's position
    /// and discards any straggler data records a lingering handle committed
    /// after it.
    pub fn drop_table(&self, name: &str) -> Result<Arc<TableHandle>> {
        let mut tables = self.tables.write();
        let handle = tables.remove(name).ok_or_else(|| Error::NotFound(format!("table {name}")))?;
        let txn = self.manager.begin();
        txn.add_ddl(DdlRecord::DropTable { table_id: handle.table().id(), name: name.to_string() });
        self.manager.commit(&txn);
        // The GC truncates version chains through raw pointers into the
        // table's blocks, so the memory must outlive every un-collected
        // transaction that touched it. Park a keep-alive `Arc` on the
        // deferred queue for two epochs (the first firing re-defers with a
        // fresh timestamp, so transactions completing around the drop are
        // truncated first) instead of letting the caller's last `Arc` free
        // the blocks under the collector.
        let ts = self.manager.oracle().next();
        let keepalive = Arc::clone(&handle);
        let deferred = Arc::clone(&self.deferred);
        let manager = Arc::clone(&self.manager);
        self.deferred.defer(ts, move || {
            let ts2 = manager.oracle().next();
            deferred.defer(ts2, move || drop(keepalive));
        });
        Ok(handle)
    }

    /// Look a table up by catalog id (restart bookkeeping; linear scan —
    /// the catalog is small).
    pub fn table_by_id(&self, id: u32) -> Option<Arc<TableHandle>> {
        self.tables.read().values().find(|h| h.table().id() == id).cloned()
    }

    /// Look a table up by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableHandle>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    /// All table handles, for recovery and export sweeps.
    pub fn all_tables(&self) -> Vec<(String, Arc<TableHandle>)> {
        self.tables.read().iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
    }

    /// Map table id → data table (recovery).
    pub fn tables_by_id(&self) -> HashMap<u32, Arc<DataTable>> {
        self.tables.read().values().map(|h| (h.table().id(), Arc::clone(h.table()))).collect()
    }

    /// Begin a checkpoint's anchor transaction and snapshot the catalog
    /// *atomically with respect to DDL*: the table-map lock is held across
    /// `begin()`, and DDL commits happen under the same lock, so every
    /// table in the returned specs committed its `CREATE` strictly before
    /// the anchor's timestamp and every table absent from it is created (or
    /// dropped) strictly after — exactly the manifest-vs-tail split the
    /// restart's skip rule assumes. Also returns the next table id for the
    /// manifest's dropped-straggler classification.
    pub(crate) fn checkpoint_anchor(
        &self,
    ) -> (Arc<mainline_txn::Transaction>, Vec<mainline_checkpoint::TableCheckpointSpec>, u32) {
        let tables = self.tables.read();
        let txn = self.manager.begin_read_only();
        let specs = tables
            .iter()
            .map(|(name, handle)| mainline_checkpoint::TableCheckpointSpec {
                name: name.clone(),
                transform: handle.is_transform(),
                indexes: handle
                    .index_specs()
                    .into_iter()
                    .map(|spec| (spec.name, spec.key_cols))
                    .collect(),
                table: Arc::clone(handle.table()),
            })
            .collect();
        (txn, specs, self.next_id.load(Ordering::Acquire))
    }
}

/// Names travel through u16-length-prefixed WAL DDL records *and* the
/// checkpoint manifest's tab-separated line format. Reject at DDL time
/// anything either serialization cannot hold — a name accepted here but
/// rejected by `Manifest::encode` would make every future checkpoint fail
/// forever (and, with truncation on, let the WAL grow without bound).
fn check_ddl_name(name: &str) -> Result<()> {
    if name.len() > u16::MAX as usize {
        return Err(Error::Layout(format!("name of {} bytes cannot be logged", name.len())));
    }
    if name.contains('\t') || name.contains('\n') {
        return Err(Error::Layout(format!("name {name:?} cannot be checkpointed")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_common::schema::ColumnDef;
    use mainline_common::value::TypeId;

    fn catalog() -> Catalog {
        Catalog::new(
            Arc::new(TransactionManager::new()),
            Arc::new(DeferredQueue::new()),
            Arc::new(AdmissionController::disabled()),
        )
    }

    #[test]
    fn create_and_lookup() {
        let c = catalog();
        let schema = Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]);
        let h = c.create_table("t1", schema.clone(), vec![], false).unwrap();
        assert_eq!(h.table().id(), 1);
        assert!(c.table("t1").is_ok());
        assert!(c.table("nope").is_err());
        // Duplicate names rejected; ids increase.
        assert!(c.create_table("t1", schema.clone(), vec![], false).is_err());
        let h2 = c.create_table("t2", schema, vec![], false).unwrap();
        assert_eq!(h2.table().id(), 2);
        assert_eq!(c.all_tables().len(), 2);
        assert_eq!(c.tables_by_id().len(), 2);
    }

    #[test]
    fn unloggable_names_rejected_at_ddl_time() {
        let c = catalog();
        let schema = || Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]);
        // A name the checkpoint manifest could never encode must fail here,
        // not poison every future checkpoint.
        assert!(c.create_table("bad\tname", schema(), vec![], false).is_err());
        assert!(c.create_table("bad\nname", schema(), vec![], false).is_err());
        let schema_bad_col = Schema::new(vec![ColumnDef::new("a\tb", TypeId::BigInt)]);
        assert!(c.create_table("ok", schema_bad_col, vec![], false).is_err());
        assert!(c.create_table("ok", schema(), vec![IndexSpec::new("i\tx", &[0])], false).is_err());
        // Sanity: a normal name still works after the rejections.
        assert!(c.create_table("ok", schema(), vec![], false).is_ok());
    }

    #[test]
    fn drop_table_frees_the_name() {
        let c = catalog();
        let schema = Schema::new(vec![ColumnDef::new("id", TypeId::BigInt)]);
        let h = c.create_table("t", schema.clone(), vec![], false).unwrap();
        assert!(c.drop_table("nope").is_err());
        let dropped = c.drop_table("t").unwrap();
        assert!(Arc::ptr_eq(&h, &dropped));
        assert!(c.table("t").is_err());
        // The name is reusable and ids keep increasing.
        let h2 = c.create_table("t", schema, vec![], false).unwrap();
        assert_eq!(h2.table().id(), 2);
    }
}
