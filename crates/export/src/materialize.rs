//! Block → record batch conversion.
//!
//! Frozen blocks convert **in place**: the reader takes the Fig. 7 shared
//! lock (reader counter), copies each column's contiguous bytes once, and
//! wraps them as Arrow arrays — no per-value work. Hot blocks take the
//! §5 fallback: "the system needs to start a transaction and materialize a
//! snapshot of the block".

use mainline_arrowlite::array::{ColumnArray, DictionaryArray, PrimitiveArray, VarBinaryArray};
use mainline_arrowlite::batch::RecordBatch;
use mainline_arrowlite::buffer::Buffer;
use mainline_arrowlite::schema::ArrowSchema;
use mainline_arrowlite::ArrowType;
use mainline_common::bitmap::Bitmap;
use mainline_storage::access;
use mainline_storage::arrow_side::GatheredColumn;
use mainline_storage::block_state::{BlockState, BlockStateMachine};
use mainline_storage::raw_block::Block;
use mainline_transform::baselines::snapshot_block;
use mainline_txn::{DataTable, TransactionManager};

/// Convert one block to a batch. Returns the batch and whether the frozen
/// in-place path was used.
///
/// An evicted block is faulted back in first (export must see every row, and
/// a faulted block lands Frozen — the zero-transformation path still
/// applies); a block mid-fault is waited out the same way.
pub fn block_batch(
    manager: &TransactionManager,
    table: &DataTable,
    block: &Block,
) -> (RecordBatch, bool) {
    let h = block.header();
    loop {
        if BlockStateMachine::reader_acquire(h) {
            let batch = unsafe { frozen_batch(table, block) };
            BlockStateMachine::reader_release(h);
            return (batch, true);
        }
        match BlockStateMachine::state(h) {
            BlockState::Evicted | BlockState::Faulting => {
                // No error channel here, and skipping the block would
                // silently drop rows from the export.
                table
                    .ensure_resident(block.as_ptr())
                    .expect("fault-in failed during export materialization");
            }
            _ => {
                let txn = manager.begin_read_only();
                let (batch, _moved) = snapshot_block(table, &txn, block);
                manager.commit(&txn);
                return (batch, false);
            }
        }
    }
}

/// Build the Arrow projection of a frozen block directly from its memory —
/// the zero-transformation path shared by Flight export and the checkpoint
/// writer (both must produce the *same bytes* for the same frozen block;
/// the checkpoint tests assert it).
///
/// # Safety
/// Caller must hold the block's reader lock (state == Frozen).
pub unsafe fn frozen_batch(table: &DataTable, block: &Block) -> RecordBatch {
    let layout = table.layout();
    let ptr = block.as_ptr();
    let n = block.header().insert_head().min(layout.num_slots()) as usize;

    let mut arrays = Vec::with_capacity(table.all_cols().len());
    for (u, &col) in table.all_cols().iter().enumerate() {
        let ty = table.types()[u];
        // Arrow validity = allocated && !null (our in-block bitmap is
        // inverted relative to Arrow, and gaps project as NULL rows).
        let mut validity = Bitmap::new_zeroed(n);
        let mut any_null = false;
        for slot in 0..n as u32 {
            if access::is_allocated(ptr, layout, slot) && !access::is_null(ptr, layout, slot, col) {
                validity.set(slot as usize);
            } else {
                any_null = true;
            }
        }
        let validity = any_null.then_some(validity);

        let array = if layout.is_varlen(col) {
            match block.arrow.get(col).as_deref() {
                Some(GatheredColumn::Gathered { offsets, values, .. }) => {
                    // One memcpy per buffer: the in-place read the relaxed
                    // format was designed to make possible.
                    let offsets_buf = Buffer::from_values(&offsets[..=n]);
                    let end = offsets[n] as usize;
                    let values_buf = Buffer::from_slice(&values[..end]);
                    ColumnArray::VarBinary(VarBinaryArray::new(
                        n,
                        validity,
                        offsets_buf,
                        values_buf,
                    ))
                }
                Some(GatheredColumn::Dictionary { codes, dict_offsets, dict_values, .. }) => {
                    let codes_buf = Buffer::from_values(&codes[..n]);
                    let dict = VarBinaryArray::new(
                        dict_offsets.len() - 1,
                        None,
                        Buffer::from_values(dict_offsets),
                        Buffer::from_slice(dict_values),
                    );
                    ColumnArray::Dictionary(DictionaryArray::new(n, validity, codes_buf, dict))
                }
                None => {
                    // Frozen block without gathered side data (e.g. frozen
                    // with zero varlen rows): copy per entry.
                    let items: Vec<Option<Vec<u8>>> = (0..n as u32)
                        .map(|slot| {
                            if access::is_allocated(ptr, layout, slot)
                                && !access::is_null(ptr, layout, slot, col)
                            {
                                Some(access::read_varlen(ptr, layout, slot, col).to_vec())
                            } else {
                                None
                            }
                        })
                        .collect();
                    ColumnArray::VarBinary(VarBinaryArray::from_opt_slices(&items))
                }
            }
        } else {
            let width = layout.attr_size(col) as usize;
            let data =
                std::slice::from_raw_parts(ptr.add(layout.column_offset(col) as usize), n * width);
            ColumnArray::Primitive(PrimitiveArray::new(
                ArrowType::from_type_id(ty),
                n,
                validity,
                Buffer::from_slice(data),
            ))
        };
        arrays.push(array);
    }
    RecordBatch::new(ArrowSchema::from_table_schema(table.schema()), arrays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_common::schema::{ColumnDef, Schema};
    use mainline_common::value::{TypeId, Value};
    use mainline_storage::block_state::BlockState;
    use mainline_storage::ProjectedRow;
    use std::sync::Arc;

    fn setup(n: usize) -> (Arc<TransactionManager>, Arc<DataTable>) {
        let m = Arc::new(TransactionManager::new());
        let t = DataTable::new(
            1,
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::nullable("name", TypeId::Varchar),
            ]),
        )
        .unwrap();
        let txn = m.begin();
        for i in 0..n {
            t.insert(
                &txn,
                &ProjectedRow::from_values(
                    &[TypeId::BigInt, TypeId::Varchar],
                    &[
                        Value::BigInt(i as i64),
                        if i % 4 == 0 {
                            Value::Null
                        } else {
                            Value::string(&format!("export-materialize-{i:05}"))
                        },
                    ],
                ),
            );
        }
        m.commit(&txn);
        (m, t)
    }

    fn freeze(m: &Arc<TransactionManager>, t: &Arc<DataTable>) {
        let mut gc = mainline_gc::GarbageCollector::new(Arc::clone(m));
        gc.run();
        gc.run();
        let block = t.blocks()[0].clone();
        let h = block.header();
        assert!(BlockStateMachine::begin_cooling(h));
        assert!(BlockStateMachine::begin_freezing(h));
        unsafe {
            let d = mainline_transform::gather::gather_block(&block);
            BlockStateMachine::finish_freezing(h);
            d.free();
        }
    }

    #[test]
    fn hot_block_uses_snapshot_path() {
        let (m, t) = setup(50);
        let (batch, frozen) = block_batch(&m, &t, &t.blocks()[0]);
        assert!(!frozen);
        assert_eq!(batch.num_rows(), 50);
    }

    #[test]
    fn frozen_block_reads_in_place() {
        let (m, t) = setup(200);
        freeze(&m, &t);
        let block = t.blocks()[0].clone();
        assert_eq!(BlockStateMachine::state(block.header()), BlockState::Frozen);
        let (batch, frozen) = block_batch(&m, &t, &block);
        assert!(frozen);
        assert_eq!(batch.num_rows(), 200);
        // Spot check values.
        use mainline_arrowlite::batch::column_value;
        assert_eq!(column_value(batch.column(0), 7, TypeId::BigInt), Value::BigInt(7));
        assert_eq!(column_value(batch.column(1), 0, TypeId::Varchar), Value::Null);
        assert_eq!(
            column_value(batch.column(1), 7, TypeId::Varchar),
            Value::string("export-materialize-00007")
        );
        // Reader lock released.
        assert_eq!(block.header().reader_count(), 0);
    }

    #[test]
    fn frozen_and_snapshot_agree() {
        let (m, t) = setup(300);
        // Snapshot before freezing.
        let txn = m.begin();
        let (snap, _) = snapshot_block(&t, &txn, &t.blocks()[0]);
        m.commit(&txn);
        freeze(&m, &t);
        let (frozen, used_frozen) = block_batch(&m, &t, &t.blocks()[0]);
        assert!(used_frozen);
        // The frozen batch has one row per slot (fully dense here since no
        // deletes): shapes must match, and every cell must agree.
        assert_eq!(frozen.num_rows(), snap.num_rows());
        use mainline_arrowlite::batch::column_value;
        for r in 0..snap.num_rows() {
            for (c, ty) in [(0, TypeId::BigInt), (1, TypeId::Varchar)] {
                assert_eq!(
                    column_value(frozen.column(c), r, ty),
                    column_value(snap.column(c), r, ty),
                    "row {r} col {c}"
                );
            }
        }
    }
}
