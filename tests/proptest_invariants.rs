//! Property-based tests over the engine's core invariants (DESIGN.md §7).

use mainline::arrowlite::{csv, ipc};
use mainline::common::bitmap::Bitmap;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::index::key::prefix_upper_bound;
use mainline::index::{BPlusTree, KeyBuilder};
use mainline::storage::{BlockLayout, ProjectedRow, VarlenEntry, BLOCK_SIZE};
use mainline::txn::{DataTable, TransactionManager};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- bitmaps ----------------

    #[test]
    fn bitmap_matches_bool_vec(bools in proptest::collection::vec(any::<bool>(), 1..512)) {
        let bm = Bitmap::from_bools(&bools);
        prop_assert_eq!(bm.len(), bools.len());
        prop_assert_eq!(bm.count_ones(), bools.iter().filter(|&&b| b).count());
        for (i, &b) in bools.iter().enumerate() {
            prop_assert_eq!(bm.get(i), b);
        }
        // Flipping every bit inverts the counts.
        let mut inv = bm.clone();
        for (i, &b) in bools.iter().enumerate() {
            inv.put(i, !b);
        }
        prop_assert_eq!(inv.count_ones(), bm.count_zeros());
    }

    // ---------------- order-preserving keys ----------------

    #[test]
    fn key_encoding_preserves_i64_order(a in any::<i64>(), b in any::<i64>()) {
        let ka = KeyBuilder::new().add_i64(a).finish();
        let kb = KeyBuilder::new().add_i64(b).finish();
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
    }

    #[test]
    fn key_encoding_preserves_bytes_order(
        a in proptest::collection::vec(any::<u8>(), 0..32),
        b in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let ka = KeyBuilder::new().add_bytes(&a).finish();
        let kb = KeyBuilder::new().add_bytes(&b).finish();
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
    }

    #[test]
    fn key_encoding_preserves_composite_order(
        a in any::<i32>(), s1 in proptest::collection::vec(any::<u8>(), 0..16),
        b in any::<i32>(), s2 in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let ka = KeyBuilder::new().add_i32(a).add_bytes(&s1).finish();
        let kb = KeyBuilder::new().add_i32(b).add_bytes(&s2).finish();
        prop_assert_eq!((a, &s1).cmp(&(b, &s2)), ka.cmp(&kb));
    }

    #[test]
    fn prefix_upper_bound_is_tight(prefix in proptest::collection::vec(any::<u8>(), 1..24)) {
        if let Some(hi) = prefix_upper_bound(&prefix) {
            // Every extension of the prefix sorts below the bound...
            let mut extended = prefix.clone();
            extended.push(0xFF);
            extended.push(0xFF);
            prop_assert!(extended < hi);
            // ...and the bound itself does not start with the prefix.
            prop_assert!(!hi.starts_with(&prefix));
        } else {
            prop_assert!(prefix.iter().all(|&b| b == 0xFF));
        }
    }

    // ---------------- varlen entries ----------------

    #[test]
    fn varlen_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let e = VarlenEntry::from_bytes(&bytes);
        prop_assert_eq!(e.len(), bytes.len());
        prop_assert_eq!(e.is_inlined(), bytes.len() <= 12);
        prop_assert_eq!(unsafe { e.as_slice() }, &bytes[..]);
        let n = bytes.len().min(4);
        prop_assert_eq!(&e.prefix()[..n], &bytes[..n]);
        unsafe { e.free_buffer() };
    }

    // ---------------- block layouts ----------------

    #[test]
    fn layout_always_fits_and_aligns(
        sizes in proptest::collection::vec(prop_oneof![Just(1u16), Just(2), Just(4), Just(8), Just(16)], 1..24),
    ) {
        let mut attr_sizes = vec![8u16];
        attr_sizes.extend(&sizes);
        let varlen = vec![false; attr_sizes.len()];
        let layout = BlockLayout::from_attr_sizes(attr_sizes.clone(), varlen).unwrap();
        prop_assert!(layout.num_slots() >= 1);
        prop_assert!(layout.used_bytes() as usize <= BLOCK_SIZE);
        let mut prev_end = 0u32;
        for c in 0..layout.num_cols() as u16 {
            prop_assert_eq!(layout.bitmap_offset(c) % 8, 0);
            prop_assert_eq!(layout.column_offset(c) % 8, 0);
            prop_assert!(layout.column_offset(c) > layout.bitmap_offset(c));
            prop_assert!(layout.bitmap_offset(c) >= prev_end);
            prev_end = layout.column_offset(c)
                + layout.num_slots() * layout.attr_size(c) as u32;
        }
        // Maximality: one more slot must not fit (checked via a second call
        // with identical inputs being deterministic).
        let again = BlockLayout::from_attr_sizes(attr_sizes, vec![false; sizes.len() + 1]).unwrap();
        prop_assert_eq!(again.num_slots(), layout.num_slots());
    }

    // ---------------- B+tree vs BTreeMap model ----------------

    #[test]
    fn bptree_matches_model(ops in proptest::collection::vec((any::<u16>(), 0u8..3), 1..400)) {
        let tree: BPlusTree<u64> = BPlusTree::new();
        let mut model = std::collections::BTreeMap::new();
        for (k, op) in ops {
            let key = KeyBuilder::new().add_i32(k as i32).finish();
            match op {
                0 => {
                    let a = tree.insert_unique(&key, k as u64);
                    let b = !model.contains_key(&key);
                    if b { model.insert(key.clone(), k as u64); }
                    prop_assert_eq!(a, b);
                }
                1 => prop_assert_eq!(tree.remove(&key), model.remove(&key)),
                _ => prop_assert_eq!(tree.get(&key), model.get(&key).copied()),
            }
        }
        let all = tree.range_collect(&[], None, usize::MAX);
        let expect: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(all, expect);
    }

    // ---------------- Arrow IPC + CSV round-trips ----------------

    #[test]
    fn ipc_roundtrip_random_batches(
        rows in proptest::collection::vec((any::<i64>(), proptest::option::of("[a-z]{0,20}")), 0..200),
    ) {
        use mainline::arrowlite::array::{ColumnArray, PrimitiveArray, VarBinaryArray};
        use mainline::arrowlite::{ArrowField, ArrowSchema, ArrowType, RecordBatch};
        let ints: Vec<Option<i64>> = rows.iter().map(|(i, _)| Some(*i)).collect();
        let strs: Vec<Option<&str>> = rows.iter().map(|(_, s)| s.as_deref()).collect();
        let batch = RecordBatch::new(
            ArrowSchema::new(vec![
                ArrowField::new("i", ArrowType::Int64, false),
                ArrowField::new("s", ArrowType::VarBinary, true),
            ]),
            vec![
                ColumnArray::Primitive(PrimitiveArray::from_i64(&ints)),
                ColumnArray::VarBinary(VarBinaryArray::from_opt_slices(&strs)),
            ],
        );
        let back = ipc::decode_batch(&ipc::encode_batch(&batch)).unwrap();
        prop_assert_eq!(back, batch.clone());

        // CSV roundtrip over the same batch.
        let types = [TypeId::BigInt, TypeId::Varchar];
        let mut text = Vec::new();
        csv::write_csv(&batch, &types, &mut text).unwrap();
        let parsed = csv::read_csv(
            std::str::from_utf8(&text).unwrap(),
            batch.schema(),
            &types,
        ).unwrap();
        // CSV cannot distinguish NULL from empty string for varchar; compare
        // row counts and the integer column exactly.
        prop_assert_eq!(parsed.num_rows(), batch.num_rows());
        use mainline::arrowlite::batch::column_value;
        for r in 0..batch.num_rows() {
            prop_assert_eq!(
                column_value(parsed.column(0), r, TypeId::BigInt),
                column_value(batch.column(0), r, TypeId::BigInt)
            );
        }
    }

    // ---------------- pending-bytes backpressure gauge ----------------

    #[test]
    fn pending_gauge_matches_cooling_queues(
        ops in proptest::collection::vec((0u8..4, any::<u8>()), 1..25),
    ) {
        // Under random insert / delete / gc / tick sequences (freezes and
        // preemptions exercise dequeue), the gauge must (1) never
        // underflow, (2) always equal the sum of the queued entries'
        // measured sizes, and (3) return to zero once the pipeline drains.
        use mainline::gc::collector::ModificationObserver;
        use mainline::gc::GarbageCollector;
        use mainline::transform::{
            AccessObserver, NoopHook, TransformConfig, TransformCoordinator,
        };
        use std::sync::Arc;

        let manager = Arc::new(mainline::txn::TransactionManager::new());
        let mut gc = GarbageCollector::new(Arc::clone(&manager));
        let observer = Arc::new(AccessObserver::new());
        gc.add_observer(Arc::clone(&observer) as Arc<dyn ModificationObserver>);
        let pipeline = TransformCoordinator::new(
            Arc::clone(&manager),
            observer,
            gc.deferred(),
            TransformConfig { threshold_epochs: 1, group_size: 2, ..Default::default() },
        );
        // Wide fixed rows so a handful of inserts spans blocks.
        let table = mainline::txn::DataTable::new(
            1,
            mainline::workloads::stress::wide_schema(24),
        )
        .unwrap();
        pipeline.add_table(Arc::clone(&table), Arc::new(NoopHook));
        let types = vec![TypeId::BigInt; 24];

        let mut slots: Vec<mainline::storage::TupleSlot> = Vec::new();
        let mut next = 0i64;
        for (op, arg) in ops {
            match op {
                0 => {
                    let txn = manager.begin();
                    for _ in 0..600 {
                        let values = mainline::workloads::stress::wide_row(24, next);
                        slots.push(table.insert(&txn, &ProjectedRow::from_values(&types, &values)));
                        next += 1;
                    }
                    manager.commit(&txn);
                }
                1 => {
                    // Delete a scattering; slots may have been moved by
                    // compaction, in which case the delete fails — fine,
                    // the point is the churn.
                    let txn = manager.begin();
                    for slot in slots.iter().skip(arg as usize % 7).step_by(11) {
                        let _ = table.delete(&txn, *slot);
                    }
                    manager.commit(&txn);
                }
                2 => {
                    gc.run();
                }
                _ => {
                    pipeline.tick();
                }
            }
            let pending = pipeline.pending_bytes();
            prop_assert!(pending < 1 << 40, "gauge underflowed (wrapped): {pending}");
            let queued = pipeline.cooling_queue_bytes();
            prop_assert_eq!(pending, queued, "gauge must equal the sum of queued block sizes");
        }
        // Drain: let GC prune every version, then freeze whatever is parked.
        for _ in 0..15 {
            gc.run();
            pipeline.tick();
        }
        gc.run_to_quiescence();
        pipeline.drain_cooling(16);
        prop_assert_eq!(pipeline.pending_bytes(), 0, "gauge must return to 0 after drain");
        prop_assert_eq!(pipeline.cooling_queue_bytes(), 0);
    }

    // ---------------- MVCC vs sequential oracle ----------------

    #[test]
    fn mvcc_serial_history_matches_oracle(
        ops in proptest::collection::vec((0u8..3, 0u8..8, any::<i32>()), 1..120),
    ) {
        // Serial transactions over 8 keys must behave exactly like a map.
        let m = TransactionManager::new();
        let t = DataTable::new(1, Schema::new(vec![
            ColumnDef::new("k", TypeId::BigInt),
            ColumnDef::new("v", TypeId::Integer),
        ])).unwrap();
        let types = [TypeId::BigInt, TypeId::Integer];
        let mut slots: std::collections::HashMap<u8, mainline::storage::TupleSlot> = Default::default();
        let mut oracle: std::collections::HashMap<u8, i32> = Default::default();
        for (op, key, val) in ops {
            let txn = m.begin();
            match op {
                0 => {
                    // Upsert.
                    if let Some(&slot) = slots.get(&key) {
                        if oracle.contains_key(&key) {
                            let mut d = ProjectedRow::new();
                            d.push_fixed(2, &Value::Integer(val));
                            t.update(&txn, slot, &d).unwrap();
                        } else {
                            let row = ProjectedRow::from_values(&types,
                                &[Value::BigInt(key as i64), Value::Integer(val)]);
                            let s = t.insert(&txn, &row);
                            slots.insert(key, s);
                        }
                    } else {
                        let row = ProjectedRow::from_values(&types,
                            &[Value::BigInt(key as i64), Value::Integer(val)]);
                        let s = t.insert(&txn, &row);
                        slots.insert(key, s);
                    }
                    oracle.insert(key, val);
                }
                1 => {
                    // Delete if present.
                    if oracle.remove(&key).is_some() {
                        let slot = slots[&key];
                        t.delete(&txn, slot).unwrap();
                        slots.remove(&key);
                    }
                }
                _ => {
                    // Read.
                    let got = slots.get(&key)
                        .and_then(|&s| t.select_values(&txn, s))
                        .map(|v| match v[1] { Value::Integer(x) => x, _ => unreachable!() });
                    prop_assert_eq!(got, oracle.get(&key).copied());
                }
            }
            m.commit(&txn);
        }
        // Final state matches.
        let txn = m.begin();
        prop_assert_eq!(t.count_visible(&txn), oracle.len());
        m.commit(&txn);
    }
}
