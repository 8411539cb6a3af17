//! The Data Table API (paper §3.1, Fig. 4): the abstraction layer between
//! transactions and physical Arrow storage. It materializes the correct
//! version of each tuple into the transaction and installs updates through
//! version chains, touching only delta records and the version column —
//! never re-arranging the underlying Arrow layout.

use crate::redo::{write_redo, OP_DELETE, OP_INSERT, OP_UPDATE};
use crate::transaction::{backoff, Transaction};
use crate::undo::{UndoKind, UndoRecordRef};
use mainline_common::schema::Schema;
use mainline_common::value::{TypeId, Value};
use mainline_common::{Error, Result};
use mainline_storage::access;
use mainline_storage::block_state::{AcquireBlocked, BlockState, BlockStateMachine, WriterGuard};
use mainline_storage::layout::NUM_RESERVED_COLS;
use mainline_storage::projected_row::AttrImage;
use mainline_storage::raw_block::{layout_of, Block, BlockHeader};
use mainline_storage::{BlockLayout, MemoryAccountant, ProjectedRow, TupleSlot, VarlenEntry};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a writer waits for a yielding transaction to roll back before it
/// reports the conflict instead.
const YIELD_WAIT: Duration = Duration::from_secs(1);

/// How an evicted block's bytes come back: the database layer installs a
/// closure that reads the block's recorded [`ColdLocation`] frame out of the
/// checkpoint chain and repopulates the block in place (see
/// `mainline-checkpoint`'s `fault_in_block`). Returns `Ok(true)` when this
/// call performed the fault, `Ok(false)` when it lost the `Faulting` claim to
/// a concurrent faulter.
///
/// [`ColdLocation`]: mainline_storage::ColdLocation
pub type FaultHandler = Arc<dyn Fn(&DataTable, &Block) -> Result<bool> + Send + Sync>;

/// A multi-versioned table over 1 MB Arrow-compatible blocks.
pub struct DataTable {
    id: u32,
    schema: Schema,
    types: Vec<TypeId>,
    layout: Arc<BlockLayout>,
    blocks: RwLock<Vec<Arc<Block>>>,
    /// The block currently absorbing inserts.
    active_block: Mutex<Arc<Block>>,
    /// Fault path for evicted blocks (`None` until checkpointing is wired).
    fault_handler: Mutex<Option<FaultHandler>>,
    /// Frozen-content memory accountant shared with the transform pipeline
    /// and the eviction clock (`None` = residency accounting disabled).
    accountant: Mutex<Option<Arc<MemoryAccountant>>>,
}

impl DataTable {
    /// Create an empty table.
    pub fn new(id: u32, schema: Schema) -> Result<Arc<DataTable>> {
        let layout = Arc::new(BlockLayout::from_schema(&schema)?);
        let first = Block::new(Arc::clone(&layout));
        let types: Vec<TypeId> = schema.types().collect();
        Ok(Arc::new(DataTable {
            id,
            schema,
            types,
            layout,
            blocks: RwLock::new(vec![Arc::clone(&first)]),
            active_block: Mutex::new(first),
            fault_handler: Mutex::new(None),
            accountant: Mutex::new(None),
        }))
    }

    /// Install the fault path for evicted blocks (database layer, once
    /// checkpointing is configured).
    pub fn set_fault_handler(&self, handler: FaultHandler) {
        *self.fault_handler.lock() = Some(handler);
    }

    /// Install the shared memory accountant so thaws and fault-ins move the
    /// frozen-content charge.
    pub fn set_accountant(&self, accountant: Arc<MemoryAccountant>) {
        *self.accountant.lock() = Some(accountant);
    }

    /// Catalog id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Logical schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// User column types in order.
    pub fn types(&self) -> &[TypeId] {
        &self.types
    }

    /// Physical layout shared by all blocks.
    pub fn layout(&self) -> &Arc<BlockLayout> {
        &self.layout
    }

    /// Snapshot of the block list.
    pub fn blocks(&self) -> Vec<Arc<Block>> {
        self.blocks.read().clone()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.read().len()
    }

    /// Storage column ids of all user columns.
    pub fn all_cols(&self) -> Vec<u16> {
        (NUM_RESERVED_COLS as u16..self.layout.num_cols() as u16).collect()
    }

    /// Add a fresh block (also used by compaction when it needs headroom).
    fn grow(&self, full: &Arc<Block>) -> Arc<Block> {
        let mut active = self.active_block.lock();
        if !Arc::ptr_eq(&active, full) {
            // Someone already swapped in a new block.
            return Arc::clone(&active);
        }
        let fresh = Block::new(Arc::clone(&self.layout));
        self.blocks.write().push(Arc::clone(&fresh));
        *active = Arc::clone(&fresh);
        fresh
    }

    /// Register an externally recycled block as insertion target (used by the
    /// transformation pipeline when compaction empties blocks).
    pub fn blocks_handle(&self) -> &RwLock<Vec<Arc<Block>>> {
        &self.blocks
    }

    /// True when `ptr` is the block currently absorbing inserts — the
    /// transformation pipeline skips it (§4.2's mistakes-tolerated design
    /// makes precision unnecessary, but skipping the tail avoids guaranteed
    /// preemptions).
    pub fn is_active_block(&self, ptr: *const u8) -> bool {
        std::ptr::eq(self.active_block.lock().as_ptr(), ptr)
    }

    /// Remove specific blocks from the table (compaction recycling). The
    /// removed `Arc<Block>`s are returned; the caller must keep them alive
    /// until no concurrent reader can hold slots into them (GC deferral).
    #[must_use = "removed blocks must be kept alive until the epoch passes"]
    pub fn detach_blocks(&self, victims: &[*const u8]) -> Vec<Arc<Block>> {
        let mut blocks = self.blocks.write();
        let mut removed = Vec::new();
        blocks.retain(|b| {
            if victims.contains(&(b.as_ptr() as *const u8)) {
                removed.push(Arc::clone(b));
                false
            } else {
                true
            }
        });
        removed
    }

    // ------------------------------------------------------------------
    // Residency
    // ------------------------------------------------------------------

    /// The `Arc<Block>` whose base address is `ptr`, if it belongs to this
    /// table.
    fn find_block(&self, ptr: *const u8) -> Option<Arc<Block>> {
        self.blocks.read().iter().find(|b| std::ptr::eq(b.as_ptr(), ptr)).cloned()
    }

    /// Bring the block at `ptr` back to a resident state, faulting its bytes
    /// in from the checkpoint chain if it is Evicted and waiting out a
    /// concurrent fault-in if it is Faulting. No-op for resident blocks.
    ///
    /// Errors if no fault handler is installed (eviction only runs when the
    /// database layer wired one, so this indicates misconfiguration) or if
    /// the handler itself fails (unreadable/mismatched checkpoint frame).
    pub fn ensure_resident(&self, ptr: *const u8) -> Result<()> {
        let h = unsafe { BlockHeader::new(ptr as *mut u8) };
        loop {
            match BlockStateMachine::state(h) {
                BlockState::Evicted => {
                    let handler = self.fault_handler.lock().clone().ok_or(
                        Error::InvalidBlockState("evicted block but no fault handler installed"),
                    )?;
                    let block = self.find_block(ptr).ok_or(Error::InvalidBlockState(
                        "evicted block is not in its table's block list",
                    ))?;
                    if handler(self, &block)? {
                        // We performed the fault: the content is resident and
                        // frozen again, so it re-enters the resident gauge.
                        if let Some(acc) = self.accountant.lock().clone() {
                            let bytes = block.live_bytes() as u64;
                            block.set_charged_bytes(bytes);
                            acc.on_fault(bytes);
                        }
                        return Ok(());
                    }
                    // Lost the Faulting claim to a concurrent faulter: loop
                    // and wait for its transition to land.
                }
                BlockState::Faulting => std::hint::spin_loop(),
                _ => return Ok(()),
            }
        }
    }

    /// Writer entry that faults evicted blocks back in instead of spinning,
    /// and settles the memory accountant when the acquisition thawed a
    /// charged (frozen) block back to Hot.
    ///
    /// # Safety
    /// `block` must be the base of a live block of this table.
    unsafe fn acquire_writer(&self, block: *mut u8) -> Result<WriterGuard> {
        let h = BlockHeader::new(block);
        loop {
            // Peek the state first: if the acquisition transitions a
            // non-Hot block, its frozen-content charge must leave the
            // resident gauge. (A freeze sliding in between the peek and the
            // acquire leaves a stale charge; the transform pipeline settles
            // stale charges on the next freeze.)
            let pre = BlockStateMachine::state(h);
            match BlockStateMachine::writer_acquire_resident(h) {
                Ok(guard) => {
                    if pre != BlockState::Hot {
                        self.settle_thaw(block);
                    }
                    return Ok(guard);
                }
                Err(AcquireBlocked::Evicted) => self.ensure_resident(block)?,
            }
        }
    }

    /// Release any frozen-content charge still held by the block at `ptr`
    /// (it just thawed to Hot; hot memory is governed by transform
    /// backpressure, not the residency budget).
    fn settle_thaw(&self, ptr: *const u8) {
        let Some(acc) = self.accountant.lock().clone() else { return };
        if let Some(block) = self.find_block(ptr) {
            let charged = block.take_charged_bytes();
            if charged > 0 {
                acc.on_thaw(charged);
            }
        }
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Insert a row; returns its new slot.
    ///
    /// The row's varlen entries transfer ownership into the table.
    pub fn insert(&self, txn: &Transaction, row: &ProjectedRow) -> TupleSlot {
        // Claim a fresh slot.
        let (block, slot_idx) = loop {
            let block = Arc::clone(&self.active_block.lock());
            let idx = block.header().claim_slots(1);
            if idx < self.layout.num_slots() {
                break (block, idx);
            }
            self.grow(&block);
        };
        let slot = TupleSlot::new(block.as_ptr(), slot_idx);
        unsafe {
            self.install_insert(txn, block.as_ptr(), slot, row, /* fresh */ true)
                .expect("fresh slot install cannot conflict");
        }
        slot
    }

    /// Insert into a *specific* currently-empty slot (compaction's tuple
    /// shuffle, §4.3). Fails if the slot is occupied or still has a version
    /// chain that the GC has not pruned.
    pub fn insert_into(
        &self,
        txn: &Transaction,
        slot: TupleSlot,
        row: &ProjectedRow,
    ) -> Result<()> {
        unsafe {
            self.install_insert(txn, slot.block(), slot, row, /* fresh */ false)
        }
    }

    unsafe fn install_insert(
        &self,
        txn: &Transaction,
        block: *mut u8,
        slot: TupleSlot,
        row: &ProjectedRow,
        fresh: bool,
    ) -> Result<()> {
        let layout = layout_of(block);
        let _writer = self.acquire_writer(block)?;
        let idx = slot.offset();
        if !fresh {
            // Reused slots must be fully quiescent: unallocated and with a
            // pruned version chain (§3.3 hands recycling to compaction).
            if access::is_allocated(block, layout, idx) {
                return Err(Error::DuplicateKey);
            }
        }
        let record = txn.new_undo_record(slot, self.id, UndoKind::Insert, &[], &[], 0);
        let vp = access::version_ptr(block, layout, idx);
        if vp.compare_exchange(0, record.as_raw(), Ordering::AcqRel, Ordering::Acquire).is_err() {
            txn.pop_undo_record();
            return Err(Error::WriteWriteConflict);
        }
        if !fresh {
            // A recycled gap may still hold the last deleted tuple's varlen
            // entries; their buffers become unreachable once we overwrite
            // them (the GC already proved no snapshot can see the old tuple,
            // or the chain would not have been pruned). Queue them on the
            // transaction for deferred reclamation.
            for col in layout.varlen_cols() {
                let old = access::read_varlen(block, layout, idx, col);
                txn.stash_orphan(old);
            }
        }
        // The chain makes the slot invisible to others; now write the data.
        for a in row.attrs() {
            access::set_null(block, layout, idx, a.col, a.null);
            if a.null {
                // Zero the payload so frozen projections are deterministic.
                access::write_attr(block, layout, idx, a.col, &[0u8; 16]);
            } else {
                access::write_attr(block, layout, idx, a.col, &a.image);
            }
        }
        if access::set_allocated(block, layout, idx) {
            // `fresh` slots are private; reused slots were checked above and
            // protected by winning the version-pointer CAS.
            unreachable!("slot concurrently allocated");
        }
        // SAFETY (value_bytes): the row's varlen buffers now belong to the
        // table, and nothing frees them before this transaction ends.
        txn.log_redo(|redo| write_redo(redo, OP_INSERT, self.id, slot, row.value_bytes(layout)));
        Ok(())
    }

    /// Update the projected columns of a tuple in place.
    ///
    /// The delta's varlen entries transfer ownership into the table on
    /// success; on error the caller still owns them.
    pub fn update(&self, txn: &Transaction, slot: TupleSlot, delta: &ProjectedRow) -> Result<()> {
        let block = slot.block();
        let idx = slot.offset();
        unsafe {
            let layout = layout_of(block);
            let _writer = self.acquire_writer(block)?;
            // Install the before-image on the version chain.
            loop {
                let head = access::load_version(block, layout, idx);
                self.check_write_conflict(txn, head)?;
                if !access::is_allocated(block, layout, idx) {
                    return Err(Error::TupleNotVisible);
                }
                // Capture before-images of exactly the modified columns.
                let mut before = Vec::with_capacity(delta.len());
                let mut varlen_flags = Vec::with_capacity(delta.len());
                for a in delta.attrs() {
                    let mut image = [0u8; 16];
                    access::read_attr(block, layout, idx, a.col, &mut image);
                    before.push(AttrImage {
                        col: a.col,
                        null: access::is_null(block, layout, idx, a.col),
                        image,
                    });
                    varlen_flags.push(layout.is_varlen(a.col));
                }
                let record = txn.new_undo_record(
                    slot,
                    self.id,
                    UndoKind::Update,
                    &before,
                    &varlen_flags,
                    head,
                );
                let vp = access::version_ptr(block, layout, idx);
                if vp
                    .compare_exchange(head, record.as_raw(), Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
                txn.pop_undo_record();
            }
            // We own the chain head: write in place.
            for a in delta.attrs() {
                access::set_null(block, layout, idx, a.col, a.null);
                if a.null {
                    access::write_attr(block, layout, idx, a.col, &[0u8; 16]);
                } else {
                    access::write_attr(block, layout, idx, a.col, &a.image);
                }
            }
            // SAFETY (value_bytes): as in `install_insert`.
            txn.log_redo(|redo| {
                write_redo(redo, OP_UPDATE, self.id, slot, delta.value_bytes(layout))
            });
        }
        Ok(())
    }

    /// Delete a tuple (clears its allocation bit, §3.1).
    pub fn delete(&self, txn: &Transaction, slot: TupleSlot) -> Result<()> {
        let block = slot.block();
        let idx = slot.offset();
        unsafe {
            let layout = layout_of(block);
            let _writer = self.acquire_writer(block)?;
            loop {
                let head = access::load_version(block, layout, idx);
                self.check_write_conflict(txn, head)?;
                if !access::is_allocated(block, layout, idx) {
                    return Err(Error::TupleNotVisible);
                }
                let record = txn.new_undo_record(slot, self.id, UndoKind::Delete, &[], &[], head);
                let vp = access::version_ptr(block, layout, idx);
                if vp
                    .compare_exchange(head, record.as_raw(), Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
                txn.pop_undo_record();
            }
            access::clear_allocated(block, layout, idx);
            txn.log_redo(|redo| write_redo(redo, OP_DELETE, self.id, slot, []));
        }
        Ok(())
    }

    /// §3.1's write-write conflict rule: abort if the chain head is another
    /// transaction's uncommitted record or committed after our start.
    ///
    /// Two refinements let compaction (§4.3) back off. A rolled-back
    /// transaction's records only repeat the version below them, so the rule
    /// looks through them. And a yielding transaction's uncommitted record
    /// is asked to give way: the writer waits (bounded) for its rollback.
    fn check_write_conflict(&self, txn: &Transaction, head_raw: u64) -> Result<()> {
        let mut cur = UndoRecordRef::from_raw(head_raw);
        while let Some(rec) = cur {
            let mut ts = rec.timestamp();
            if ts == txn.txn_id() || (!ts.is_uncommitted() && ts <= txn.start_ts()) {
                return Ok(());
            }
            if ts.is_uncommitted() && rec.yields() && !txn.yields() {
                Transaction::request_yields();
                let deadline = Instant::now() + YIELD_WAIT;
                let mut spins = 0;
                while rec.timestamp() == ts && Instant::now() < deadline {
                    backoff(&mut spins);
                }
                ts = rec.timestamp();
            }
            if ts.is_uncommitted() || !rec.aborted() {
                return Err(Error::WriteWriteConflict);
            }
            cur = rec.next();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Materialize the version of `slot` visible to `txn`, projected onto
    /// `cols` (storage ids). `None` when the tuple is invisible/absent.
    ///
    /// Residency is validated optimistically (the btree page-state pattern):
    /// the read copies without pinning, then checks that the block's packed
    /// residency version did not move. Eviction and fault-in both bump the
    /// version, so a read that overlapped either retries; a read that starts
    /// on an Evicted block faults it back in first.
    pub fn select(&self, txn: &Transaction, slot: TupleSlot, cols: &[u16]) -> Option<ProjectedRow> {
        let h = unsafe { BlockHeader::new(slot.block()) };
        loop {
            let Some(version) = BlockStateMachine::optimistic_read_begin(h) else {
                // Evicted or mid-fault. A fault error here is unrecoverable
                // misconfiguration or checkpoint-chain corruption — `select`
                // has no error channel, and silently dropping rows would
                // corrupt results.
                self.ensure_resident(slot.block()).expect("fault-in failed during select");
                continue;
            };
            let row = self.select_inner(txn, slot, cols);
            if BlockStateMachine::optimistic_read_validate(h, version) {
                if row.is_some() && BlockStateMachine::state(h) == BlockState::Frozen {
                    // Recent-access mark for the second-chance eviction clock.
                    h.set_ref_bit();
                }
                return row;
            }
        }
    }

    /// Hint the cache lines a [`select`](Self::select) of `cols` (storage
    /// ids) at `slot` reads first, so a batch of reads can overlap their
    /// misses before selecting one by one.
    pub fn prefetch(&self, slot: TupleSlot, cols: &[u16]) {
        access::prefetch_tuple(slot.block(), &self.layout, slot.offset(), cols);
    }

    fn select_inner(
        &self,
        txn: &Transaction,
        slot: TupleSlot,
        cols: &[u16],
    ) -> Option<ProjectedRow> {
        let block = slot.block();
        let idx = slot.offset();
        unsafe {
            let layout = layout_of(block);
            if idx >= layout.num_slots() {
                return None;
            }
            let mut row;
            let mut exists;
            let mut head_raw;
            // Copy the latest version; re-copy if a writer raced us (any
            // in-place mutation installs a record first, changing the head).
            loop {
                head_raw = access::load_version(block, layout, idx);
                exists = access::is_allocated(block, layout, idx);
                row = ProjectedRow::with_capacity(cols.len());
                for &col in cols {
                    let mut image = [0u8; 16];
                    access::read_attr(block, layout, idx, col, &mut image);
                    row.push_raw(col, access::is_null(block, layout, idx, col), image);
                }
                if access::load_version(block, layout, idx) == head_raw {
                    break;
                }
            }
            // Apply before-images until a visible record (§3.1).
            let mut r = UndoRecordRef::from_raw(head_raw);
            while let Some(rec) = r {
                if txn.can_see(rec.timestamp()) {
                    break;
                }
                match rec.kind() {
                    UndoKind::Update => {
                        for d in rec.deltas() {
                            if let Some(pos) = row.find(d.col) {
                                row.attrs_mut()[pos] = d;
                            }
                        }
                    }
                    UndoKind::Insert => exists = false,
                    UndoKind::Delete => exists = true,
                }
                r = rec.next();
            }
            exists.then_some(row)
        }
    }

    /// Typed select over all user columns.
    pub fn select_values(&self, txn: &Transaction, slot: TupleSlot) -> Option<Vec<Value>> {
        let cols = self.all_cols();
        let row = self.select(txn, slot, &cols)?;
        Some(self.row_to_values(&row))
    }

    /// Decode a projected row (over all user columns, in order) to values.
    pub fn row_to_values(&self, row: &ProjectedRow) -> Vec<Value> {
        row.attrs()
            .iter()
            .enumerate()
            .map(|(pos, a)| {
                let user_idx = (a.col as usize) - NUM_RESERVED_COLS;
                unsafe { row.value_at(pos, &self.layout, self.types[user_idx]) }
            })
            .collect()
    }

    /// Visit every tuple version visible to `txn`. The visitor receives the
    /// slot and the materialized projection; return `false` to stop.
    pub fn scan(
        &self,
        txn: &Transaction,
        cols: &[u16],
        mut visit: impl FnMut(TupleSlot, &ProjectedRow) -> bool,
    ) {
        let blocks = self.blocks();
        for block in blocks {
            let h = block.header();
            let upper = h.insert_head().min(self.layout.num_slots());
            for idx in 0..upper {
                let slot = TupleSlot::new(block.as_ptr(), idx);
                if let Some(row) = self.select(txn, slot, cols) {
                    if !visit(slot, &row) {
                        return;
                    }
                }
            }
        }
    }

    /// Count tuples visible to `txn` (test/bench helper).
    pub fn count_visible(&self, txn: &Transaction) -> usize {
        let mut n = 0;
        // Project only the first user column — cheapest possible scan.
        self.scan(txn, &[NUM_RESERVED_COLS as u16], |_, _| {
            n += 1;
            true
        });
        n
    }
}

impl Drop for DataTable {
    fn drop(&mut self) {
        // Return any frozen-content charge the table's blocks still hold;
        // the block state says which gauge (resident vs. evicted) holds it.
        if let Some(acc) = self.accountant.lock().clone() {
            for block in self.blocks.read().iter() {
                let charged = block.take_charged_bytes();
                if charged > 0 {
                    let evicted = BlockStateMachine::state(block.header()) == BlockState::Evicted;
                    acc.on_drop(charged, evicted);
                }
            }
        }
        // Free in-place owned varlen buffers. Safe: dropping the table means
        // no transaction can reference it anymore. (Evicted blocks read
        // all-zero varlen entries — their payload lived in the gathered
        // buffers that were defer-dropped at eviction — so this loop is a
        // no-op for them.)
        let varlen_cols: Vec<u16> = self.layout.varlen_cols().collect();
        if varlen_cols.is_empty() {
            return;
        }
        for block in self.blocks.read().iter() {
            let h = block.header();
            let upper = h.insert_head().min(self.layout.num_slots());
            unsafe {
                for idx in 0..upper {
                    for &col in &varlen_cols {
                        let e = access::read_varlen(block.as_ptr(), &self.layout, idx, col);
                        e.free_buffer();
                    }
                }
            }
        }
    }
}

/// Roll back one undo record (called newest-to-oldest by the manager's abort
/// path). Restores the before-image in place, transfers buffer ownership
/// back to the table, and stashes the aborted new buffers for deferred
/// reclamation.
///
/// # Safety
/// Only the record's owning (aborting) transaction may call this, and only
/// while it still owns the version-chain heads it installed.
pub unsafe fn rollback_record(txn: &Transaction, r: UndoRecordRef) {
    let slot = r.slot();
    let block = slot.block();
    let layout = layout_of(block);
    let idx = slot.offset();
    match r.kind() {
        UndoKind::Update => {
            for i in 0..r.ncols() {
                let d = r.delta(i);
                if layout.is_varlen(d.col) {
                    // The new (aborted) value's buffer becomes garbage.
                    let cur = access::read_varlen(block, layout, idx, d.col);
                    let before = d.as_varlen();
                    if cur.owns_buffer() && !cur.bits_eq(&before) {
                        txn.stash_orphan(cur);
                    }
                    // Ownership of the before-image's buffer returns to the
                    // table; the record must no longer claim it, or the GC
                    // would double-free it.
                    if !d.null && before.owns_buffer() {
                        r.clear_delta_ownership(i);
                    }
                }
                access::set_null(block, layout, idx, d.col, d.null);
                access::write_attr(block, layout, idx, d.col, &d.image);
            }
        }
        UndoKind::Insert => {
            // The inserted values die with the tuple.
            for col in layout.varlen_cols() {
                let cur = access::read_varlen(block, layout, idx, col);
                txn.stash_orphan(cur);
                access::write_varlen(block, layout, idx, col, VarlenEntry::empty());
            }
            access::clear_allocated(block, layout, idx);
        }
        UndoKind::Delete => {
            access::set_allocated(block, layout, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::TransactionManager;
    use mainline_common::schema::ColumnDef;

    fn table() -> Arc<DataTable> {
        DataTable::new(
            1,
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::nullable("name", TypeId::Varchar),
                ColumnDef::new("qty", TypeId::Integer),
            ]),
        )
        .unwrap()
    }

    fn row(id: i64, name: Option<&str>, qty: i32) -> ProjectedRow {
        ProjectedRow::from_values(
            &[TypeId::BigInt, TypeId::Varchar, TypeId::Integer],
            &[Value::BigInt(id), name.map_or(Value::Null, Value::string), Value::Integer(qty)],
        )
    }

    #[test]
    fn insert_then_read_own_write() {
        let m = TransactionManager::new();
        let t = table();
        let txn = m.begin();
        let slot = t.insert(&txn, &row(7, Some("a fairly long name value"), 3));
        let got = t.select_values(&txn, slot).unwrap();
        assert_eq!(
            got,
            vec![Value::BigInt(7), Value::string("a fairly long name value"), Value::Integer(3)]
        );
        m.commit(&txn);
    }

    #[test]
    fn redo_recorded_only_when_logged() {
        struct Discard;
        impl crate::CommitSink for Discard {
            fn queue_commit(
                &self,
                _ts: mainline_common::Timestamp,
                _redo: Vec<u8>,
                _ddl: Vec<crate::DdlRecord>,
                _read_only: bool,
                cb: Box<dyn FnOnce() + Send>,
            ) {
                cb();
            }
        }
        let unlogged = TransactionManager::new();
        let logged = TransactionManager::with_sink(Arc::new(Discard));
        for (m, logs) in [(unlogged, false), (logged, true)] {
            let t = table();
            let txn = m.begin();
            let slot = t.insert(&txn, &row(1, Some("a value long enough for the heap"), 1));
            let mut d = ProjectedRow::new();
            d.push_varlen(2, VarlenEntry::from_bytes(b"another heap-sized value"));
            t.update(&txn, slot, &d).unwrap();
            t.delete(&txn, slot).unwrap();
            assert_eq!(!txn.take_redo().is_empty(), logs);
            m.commit(&txn);
        }
    }

    #[test]
    fn uncommitted_insert_invisible_to_others() {
        let m = TransactionManager::new();
        let t = table();
        let writer = m.begin();
        let slot = t.insert(&writer, &row(1, Some("x"), 1));
        let reader = m.begin();
        assert!(t.select_values(&reader, slot).is_none());
        m.commit(&writer);
        // Still invisible: reader started before the commit.
        assert!(t.select_values(&reader, slot).is_none());
        m.commit(&reader);
        let late = m.begin();
        assert!(t.select_values(&late, slot).is_some());
        m.commit(&late);
    }

    #[test]
    fn snapshot_isolation_on_update() {
        let m = TransactionManager::new();
        let t = table();
        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, Some("original-value-here"), 10));
        m.commit(&setup);

        let reader = m.begin(); // snapshot before the update
        let writer = m.begin();
        let mut delta = ProjectedRow::new();
        delta.push_fixed(3, &Value::Integer(99));
        t.update(&writer, slot, &delta).unwrap();
        // Writer sees its own write; reader sees the old version.
        assert_eq!(t.select_values(&writer, slot).unwrap()[2], Value::Integer(99));
        assert_eq!(t.select_values(&reader, slot).unwrap()[2], Value::Integer(10));
        m.commit(&writer);
        // Reader's snapshot is stable even after commit.
        assert_eq!(t.select_values(&reader, slot).unwrap()[2], Value::Integer(10));
        m.commit(&reader);
        let late = m.begin();
        assert_eq!(t.select_values(&late, slot).unwrap()[2], Value::Integer(99));
        m.commit(&late);
    }

    #[test]
    fn write_write_conflict_detected() {
        let m = TransactionManager::new();
        let t = table();
        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, None, 0));
        m.commit(&setup);

        let t1 = m.begin();
        let t2 = m.begin();
        let mut d1 = ProjectedRow::new();
        d1.push_fixed(3, &Value::Integer(1));
        t.update(&t1, slot, &d1).unwrap();
        let mut d2 = ProjectedRow::new();
        d2.push_fixed(3, &Value::Integer(2));
        assert!(matches!(t.update(&t2, slot, &d2), Err(Error::WriteWriteConflict)));
        m.abort(&t2);
        m.commit(&t1);

        // A transaction that started before t1 committed also conflicts.
        let t3 = m.begin();
        m.commit(&t3); // (advance clock)
        let t4 = m.begin();
        let mut d4 = ProjectedRow::new();
        d4.push_fixed(3, &Value::Integer(4));
        t.update(&t4, slot, &d4).unwrap();
        m.commit(&t4);
    }

    #[test]
    fn conflict_when_committed_after_my_start() {
        let m = TransactionManager::new();
        let t = table();
        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, None, 0));
        m.commit(&setup);

        let early = m.begin(); // starts before writer commits
        let writer = m.begin();
        let mut d = ProjectedRow::new();
        d.push_fixed(3, &Value::Integer(5));
        t.update(&writer, slot, &d).unwrap();
        m.commit(&writer);
        // `early` must not overwrite a version it cannot see.
        let mut d2 = ProjectedRow::new();
        d2.push_fixed(3, &Value::Integer(6));
        assert!(matches!(t.update(&early, slot, &d2), Err(Error::WriteWriteConflict)));
        m.abort(&early);
    }

    #[test]
    fn rolled_back_write_never_conflicts() {
        let m = TransactionManager::new();
        let t = table();
        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, None, 0));
        m.commit(&setup);

        let early = m.begin();
        let aborted = m.begin();
        let mut d = ProjectedRow::new();
        d.push_fixed(3, &Value::Integer(5));
        t.update(&aborted, slot, &d).unwrap();
        m.abort(&aborted);
        // The rolled-back record (republished after `early` began) only
        // repeats the version `early` sees.
        t.update(&early, slot, &d).unwrap();
        m.commit(&early);
        let check = m.begin();
        assert_eq!(t.select_values(&check, slot).unwrap()[2], Value::Integer(5));
        m.commit(&check);
    }

    #[test]
    fn delete_respects_snapshots() {
        let m = TransactionManager::new();
        let t = table();
        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, Some("short"), 1));
        m.commit(&setup);

        let reader = m.begin();
        let deleter = m.begin();
        t.delete(&deleter, slot).unwrap();
        assert!(t.select_values(&deleter, slot).is_none()); // own delete
        assert!(t.select_values(&reader, slot).is_some()); // snapshot
        m.commit(&deleter);
        assert!(t.select_values(&reader, slot).is_some());
        m.commit(&reader);
        let late = m.begin();
        assert!(t.select_values(&late, slot).is_none());
        // Double delete is rejected.
        assert!(t.delete(&late, slot).is_err());
        m.abort(&late);
    }

    #[test]
    fn abort_restores_state() {
        let m = TransactionManager::new();
        let t = table();
        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, Some("the original long value"), 10));
        m.commit(&setup);

        let bad = m.begin();
        let mut d = ProjectedRow::new();
        d.push_varlen(2, VarlenEntry::from_bytes(b"the replacement long value"));
        d.push_fixed(3, &Value::Integer(-1));
        t.update(&bad, slot, &d).unwrap();
        t.delete(&bad, slot).unwrap();
        m.abort(&bad);

        let check = m.begin();
        let got = t.select_values(&check, slot).unwrap();
        assert_eq!(
            got,
            vec![Value::BigInt(1), Value::string("the original long value"), Value::Integer(10)]
        );
        m.commit(&check);
    }

    #[test]
    fn abort_insert_removes_tuple() {
        let m = TransactionManager::new();
        let t = table();
        let bad = m.begin();
        let slot = t.insert(&bad, &row(9, Some("a value that will be rolled back"), 0));
        m.abort(&bad);
        let check = m.begin();
        assert!(t.select_values(&check, slot).is_none());
        m.commit(&check);
    }

    #[test]
    fn update_nonexistent_fails() {
        let m = TransactionManager::new();
        let t = table();
        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, None, 0));
        t.delete(&setup, slot).unwrap();
        m.commit(&setup);
        let txn = m.begin();
        let mut d = ProjectedRow::new();
        d.push_fixed(3, &Value::Integer(1));
        assert!(matches!(t.update(&txn, slot, &d), Err(Error::TupleNotVisible)));
        m.abort(&txn);
    }

    #[test]
    fn multiple_updates_same_txn() {
        let m = TransactionManager::new();
        let t = table();
        let txn = m.begin();
        let slot = t.insert(&txn, &row(1, None, 0));
        for i in 1..=5 {
            let mut d = ProjectedRow::new();
            d.push_fixed(3, &Value::Integer(i));
            t.update(&txn, slot, &d).unwrap();
        }
        assert_eq!(t.select_values(&txn, slot).unwrap()[2], Value::Integer(5));
        m.commit(&txn);
        let check = m.begin();
        assert_eq!(t.select_values(&check, slot).unwrap()[2], Value::Integer(5));
        m.commit(&check);
    }

    #[test]
    fn null_transitions() {
        let m = TransactionManager::new();
        let t = table();
        let txn = m.begin();
        let slot = t.insert(&txn, &row(1, Some("not null initially..."), 0));
        m.commit(&txn);

        let t2 = m.begin();
        let mut d = ProjectedRow::new();
        d.push_null(2);
        t.update(&t2, slot, &d).unwrap();
        m.commit(&t2);

        let check = m.begin();
        assert_eq!(t.select_values(&check, slot).unwrap()[1], Value::Null);
        m.commit(&check);
    }

    #[test]
    fn scan_sees_committed_only() {
        let m = TransactionManager::new();
        let t = table();
        let setup = m.begin();
        for i in 0..100 {
            t.insert(&setup, &row(i, Some("abcdefgh"), i as i32));
        }
        m.commit(&setup);
        let pending = m.begin();
        for i in 100..150 {
            t.insert(&pending, &row(i, None, 0));
        }
        let reader = m.begin();
        assert_eq!(t.count_visible(&reader), 100);
        m.commit(&pending);
        m.commit(&reader);
        let late = m.begin();
        assert_eq!(t.count_visible(&late), 150);
        m.commit(&late);
    }

    #[test]
    fn inserts_spill_across_blocks() {
        // A fat schema to keep the per-block slot count small.
        let schema = Schema::new(vec![ColumnDef::new("pad", TypeId::Varchar)]);
        let t = DataTable::new(2, schema).unwrap();
        let m = TransactionManager::new();
        let txn = m.begin();
        let n = t.layout().num_slots() as i64 + 100;
        for i in 0..n {
            let r = ProjectedRow::from_values(
                &[TypeId::Varchar],
                &[Value::string(&format!("value-{i}"))],
            );
            t.insert(&txn, &r);
        }
        m.commit(&txn);
        assert!(t.num_blocks() >= 2);
        let check = m.begin();
        assert_eq!(t.count_visible(&check), n as usize);
        m.commit(&check);
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let mut handles = vec![];
        for tid in 0..4i64 {
            let m = Arc::clone(&m);
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let txn = m.begin();
                    t.insert(&txn, &row(tid * 1000 + i, Some("concurrent value"), 0));
                    m.commit(&txn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let check = m.begin();
        assert_eq!(t.count_visible(&check), 2000);
        m.commit(&check);
    }

    #[test]
    fn concurrent_counter_increments_are_serializable_under_ww_abort() {
        // 4 threads × 250 increments with write-write conflict retries must
        // produce exactly 1000 (lost updates are impossible under SI + WW
        // aborts for a single counter).
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let setup = m.begin();
        let slot = t.insert(&setup, &row(1, None, 0));
        m.commit(&setup);
        let mut handles = vec![];
        for _ in 0..4 {
            let m = Arc::clone(&m);
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                while done < 250 {
                    let txn = m.begin();
                    let cur = match t.select_values(&txn, slot) {
                        Some(v) => match &v[2] {
                            Value::Integer(x) => *x,
                            _ => unreachable!(),
                        },
                        None => unreachable!(),
                    };
                    let mut d = ProjectedRow::new();
                    d.push_fixed(3, &Value::Integer(cur + 1));
                    match t.update(&txn, slot, &d) {
                        Ok(()) => {
                            m.commit(&txn);
                            done += 1;
                        }
                        Err(_) => m.abort(&txn),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let check = m.begin();
        assert_eq!(t.select_values(&check, slot).unwrap()[2], Value::Integer(1000));
        m.commit(&check);
    }
}
