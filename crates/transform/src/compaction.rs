//! Compaction: transactional tuple movement (paper §4.3, phase 1).
//!
//! Within a compaction group the algorithm makes tuples "logically
//! contiguous": with `t` live tuples and `s` slots per block, ⌊t/s⌋ blocks
//! end up full, one block `p` holds the remaining `t mod s` tuples in its
//! first slots, and the rest are emptied for recycling.
//!
//! Block selection: the **approximate** algorithm sorts blocks by emptiness
//! and takes the fullest ⌊t/s⌋ as the fill set `F`, an arbitrary next block
//! as `p`; it is within `t mod s` movements of optimal. The **optimal**
//! algorithm additionally tries every block as `p` (§4.3 proves the bound;
//! Fig. 13 measures the difference).

use mainline_common::{Error, Result};
use mainline_storage::access;
use mainline_storage::raw_block::Block;
use mainline_storage::{ProjectedRow, TupleSlot, VarlenEntry};
use mainline_txn::{DataTable, Transaction};
use std::sync::Arc;

/// A planned one-to-one tuple movement set over a compaction group.
#[derive(Debug)]
pub struct CompactionPlan {
    /// (source, destination) slot pairs.
    pub moves: Vec<(TupleSlot, TupleSlot)>,
    /// Blocks that will be empty after the moves (the `E` set, recyclable).
    pub emptied: Vec<*const u8>,
    /// Per-block insert-head values after compaction (block ptr, new head).
    pub new_heads: Vec<(*const u8, u32)>,
    /// Total live tuples in the group.
    pub live_tuples: usize,
}

/// Tuple-move counters for an executed compaction plan.
#[derive(Debug, Default, Clone, Copy)]
pub struct TupleMoveStats {
    /// Tuples physically moved (each costs one delete + one insert and the
    /// index write amplification of Fig. 13).
    pub tuples_moved: usize,
    /// Blocks emptied and detached for recycling.
    pub blocks_freed: usize,
    /// Undo records created by the compaction transaction (write-set size,
    /// Fig. 14b).
    pub write_set_size: usize,
}

struct BlockOccupancy {
    ptr: *const u8,
    filled: Vec<u32>,
    gaps: Vec<u32>,
}

fn scan_occupancy(blocks: &[Arc<Block>]) -> Vec<BlockOccupancy> {
    blocks
        .iter()
        .map(|b| {
            let layout = b.layout();
            let s = layout.num_slots();
            let mut filled = Vec::new();
            let mut gaps = Vec::new();
            unsafe {
                for slot in 0..s {
                    if access::is_allocated(b.as_ptr(), layout, slot) {
                        filled.push(slot);
                    } else {
                        gaps.push(slot);
                    }
                }
            }
            BlockOccupancy { ptr: b.as_ptr(), filled, gaps }
        })
        .collect()
}

/// Plan with the approximate block-selection algorithm.
pub fn plan_approximate(blocks: &[Arc<Block>]) -> CompactionPlan {
    let mut occ = scan_occupancy(blocks);
    // Sort by #empty ascending (fullest first).
    occ.sort_by_key(|o| o.gaps.len());
    plan_for_order(blocks, occ)
}

/// Plan with the optimal algorithm: try every block as the partial block `p`
/// and keep the cheapest plan.
pub fn plan_optimal(blocks: &[Arc<Block>]) -> CompactionPlan {
    let occ = scan_occupancy(blocks);
    let s = blocks.first().map(|b| b.layout().num_slots() as usize).unwrap_or(0);
    let t: usize = occ.iter().map(|o| o.filled.len()).sum();
    if s == 0 || t == 0 {
        return plan_for_order(blocks, occ);
    }
    let nf = t / s;
    let mut best: Option<CompactionPlan> = None;
    for p_idx in 0..occ.len() {
        // F = the nf fullest blocks other than p; then p; then the rest.
        let mut order: Vec<usize> = (0..occ.len()).filter(|&i| i != p_idx).collect();
        order.sort_by_key(|&i| occ[i].gaps.len());
        if order.len() < nf {
            continue; // p cannot be partial if every other block must fill
        }
        let mut arranged: Vec<usize> = order[..nf].to_vec();
        arranged.push(p_idx);
        arranged.extend_from_slice(&order[nf..]);
        let occ_arranged: Vec<BlockOccupancy> = arranged
            .iter()
            .map(|&i| BlockOccupancy {
                ptr: occ[i].ptr,
                filled: occ[i].filled.clone(),
                gaps: occ[i].gaps.clone(),
            })
            .collect();
        let plan = plan_for_order(blocks, occ_arranged);
        if best.as_ref().is_none_or(|b| plan.moves.len() < b.moves.len()) {
            best = Some(plan);
        }
    }
    best.unwrap_or_else(|| plan_for_order(blocks, scan_occupancy(blocks)))
}

/// Build the movement plan given an ordering where the first ⌊t/s⌋ blocks
/// are `F`, the next is `p`, and the rest are `E`.
fn plan_for_order(blocks: &[Arc<Block>], occ: Vec<BlockOccupancy>) -> CompactionPlan {
    let s = blocks.first().map(|b| b.layout().num_slots() as usize).unwrap_or(0);
    let t: usize = occ.iter().map(|o| o.filled.len()).sum();
    if s == 0 || t == 0 {
        return CompactionPlan {
            moves: vec![],
            emptied: occ.iter().map(|o| o.ptr).collect(),
            new_heads: occ.iter().map(|o| (o.ptr, 0)).collect(),
            live_tuples: 0,
        };
    }
    let nf = t / s;
    let rem = (t % s) as u32;

    let mut targets: Vec<TupleSlot> = Vec::new();
    let mut sources: Vec<TupleSlot> = Vec::new();
    let mut emptied = Vec::new();
    let mut new_heads = Vec::new();

    for (i, o) in occ.iter().enumerate() {
        if i < nf {
            // F: fill every gap.
            for &g in &o.gaps {
                targets.push(TupleSlot::new(o.ptr, g));
            }
            new_heads.push((o.ptr, s as u32));
        } else if i == nf {
            // p: fill gaps among the first `rem` slots; tuples beyond `rem`
            // become sources.
            for &g in o.gaps.iter().filter(|&&g| g < rem) {
                targets.push(TupleSlot::new(o.ptr, g));
            }
            for &f in o.filled.iter().filter(|&&f| f >= rem) {
                sources.push(TupleSlot::new(o.ptr, f));
            }
            new_heads.push((o.ptr, rem));
        } else {
            // E: everything moves out.
            for &f in &o.filled {
                sources.push(TupleSlot::new(o.ptr, f));
            }
            emptied.push(o.ptr);
            new_heads.push((o.ptr, 0));
        }
    }
    debug_assert_eq!(
        targets.len(),
        sources.len(),
        "§4.3 identity: |Gap'_p| + Σ|Gap_F| = |Filled'_p| + Σ|Filled_E|"
    );
    CompactionPlan {
        moves: sources.into_iter().zip(targets).collect(),
        emptied,
        new_heads,
        live_tuples: t,
    }
}

/// Execute a plan transactionally: each movement is a snapshot-consistent
/// read + insert-into-gap + delete, exactly the "delete followed by an
/// insert" of §4.3. Varlen values are deep-copied ("the system makes a copy
/// of any variable-length value rather than merely copying the pointer",
/// §4.4). `on_move` is the index-maintenance hook (Fig. 13's write
/// amplification); it sees the row over all user columns.
///
/// On any conflict the caller must abort the transaction and retry the group
/// later; the plan is then stale and must be re-computed. A yielding
/// transaction ([`TransactionManager::begin_yielding`]) that a user writer
/// asks to give way stops between moves with the same conflict error.
///
/// [`TransactionManager::begin_yielding`]: mainline_txn::TransactionManager::begin_yielding
pub fn execute_plan(
    table: &DataTable,
    txn: &Transaction,
    plan: &CompactionPlan,
    mut on_move: impl FnMut(&Transaction, TupleSlot, TupleSlot, &ProjectedRow) -> Result<()>,
) -> Result<TupleMoveStats> {
    let cols = table.all_cols();
    let layout = Arc::clone(table.layout());
    let mut stats = TupleMoveStats::default();
    for &(from, to) in &plan.moves {
        if txn.yield_requested() {
            return Err(Error::WriteWriteConflict);
        }
        let Some(row) = table.select(txn, from, &cols) else {
            // Deleted since planning; the gap simply stays.
            continue;
        };
        // Deep-copy varlen values into fresh owning entries.
        let mut copy = ProjectedRow::with_capacity(row.len());
        for a in row.attrs() {
            if a.null {
                copy.push_null(a.col);
            } else if layout.is_varlen(a.col) {
                let bytes = unsafe { a.as_varlen().to_vec() };
                copy.push_varlen(a.col, VarlenEntry::from_bytes(&bytes));
            } else {
                copy.push_raw(a.col, false, a.image);
            }
        }
        match table.insert_into(txn, to, &copy) {
            Ok(()) => {}
            Err(Error::DuplicateKey) | Err(Error::WriteWriteConflict) => {
                // Slot not reusable (stale plan); skip this move.
                continue;
            }
            Err(e) => return Err(e),
        }
        table.delete(txn, from)?;
        on_move(txn, from, to, &copy)?;
        stats.tuples_moved += 1;
    }
    stats.write_set_size = txn.write_set_size();
    Ok(stats)
}

/// After the compaction transaction commits, publish the new insert heads so
/// scans cover filled tail slots. Heads only grow: a transaction that began
/// before the commit still reads the moved tuples in their old slots, in
/// emptied blocks too, until those are detached.
pub fn publish_insert_heads(plan: &CompactionPlan) {
    for &(ptr, head) in &plan.new_heads {
        let h = unsafe { mainline_storage::raw_block::BlockHeader::new(ptr as *mut u8) };
        if h.insert_head() < head {
            h.set_insert_head(head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_common::rng::Xoshiro256;
    use mainline_common::schema::{ColumnDef, Schema};
    use mainline_common::value::{TypeId, Value};
    use mainline_gc::GarbageCollector;
    use mainline_txn::TransactionManager;

    fn table() -> Arc<DataTable> {
        DataTable::new(
            1,
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::new("val", TypeId::Varchar),
            ]),
        )
        .unwrap()
    }

    fn row(id: i64) -> ProjectedRow {
        ProjectedRow::from_values(
            &[TypeId::BigInt, TypeId::Varchar],
            &[Value::BigInt(id), Value::string(&format!("value-{id:010}-payload"))],
        )
    }

    /// Fill `nblocks` blocks then delete `empty_pct`% at random, then run the
    /// GC so the deleted slots' chains are pruned (compaction only reuses
    /// quiescent slots, §3.3).
    fn populate(
        m: &Arc<TransactionManager>,
        t: &DataTable,
        nblocks: usize,
        empty_pct: u32,
        seed: u64,
    ) -> usize {
        let s = t.layout().num_slots() as usize;
        let txn = m.begin();
        let mut slots = Vec::with_capacity(nblocks * s);
        for i in 0..(nblocks * s) {
            slots.push(t.insert(&txn, &row(i as i64)));
        }
        m.commit(&txn);
        let txn = m.begin();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut deleted = 0;
        for &slot in &slots {
            if rng.next_below(100) < empty_pct as u64 {
                t.delete(&txn, slot).unwrap();
                deleted += 1;
            }
        }
        m.commit(&txn);
        let mut gc = GarbageCollector::new(Arc::clone(m));
        gc.run();
        gc.run();
        slots.len() - deleted
    }

    #[test]
    fn plan_shape_matches_theory() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let live = populate(&m, &t, 3, 30, 7);
        let blocks = t.blocks();
        // Only consider fully-populated blocks (skip the fresh active one).
        let group: Vec<_> = blocks.into_iter().take(3).collect();
        let plan = plan_approximate(&group);
        assert_eq!(plan.live_tuples, live);
        let s = t.layout().num_slots() as usize;
        assert_eq!(plan.emptied.len(), 3 - (live / s) - 1);
        // Movement count can never exceed the tuples outside F∪{p}.
        assert!(plan.moves.len() <= live);
        // All targets distinct, all sources distinct.
        let mut tgt: Vec<_> = plan.moves.iter().map(|m| m.1).collect();
        tgt.sort_unstable();
        tgt.dedup();
        assert_eq!(tgt.len(), plan.moves.len());
    }

    #[test]
    fn optimal_never_worse_and_within_bound() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let live = populate(&m, &t, 3, 40, 11);
        let group: Vec<_> = t.blocks().into_iter().take(3).collect();
        let approx = plan_approximate(&group);
        let optimal = plan_optimal(&group);
        let s = t.layout().num_slots() as usize;
        assert!(optimal.moves.len() <= approx.moves.len());
        // §4.3: approx is within (t mod s) of optimal.
        assert!(approx.moves.len() - optimal.moves.len() <= live % s);
    }

    #[test]
    fn execute_compacts_and_preserves_data() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        let live = populate(&m, &t, 3, 35, 13);
        let group: Vec<_> = t.blocks().into_iter().take(3).collect();
        let plan = plan_approximate(&group);

        let txn = m.begin();
        let stats = execute_plan(&t, &txn, &plan, |_, _, _, _| Ok(())).unwrap();
        m.commit(&txn);
        publish_insert_heads(&plan);
        assert_eq!(stats.tuples_moved, plan.moves.len());
        // Two undo records (insert + delete) per move.
        assert_eq!(stats.write_set_size, 2 * stats.tuples_moved);

        // All data survives, now logically contiguous.
        let check = m.begin();
        assert_eq!(t.count_visible(&check), live);
        // Emptied blocks contain nothing visible.
        let layout = t.layout();
        for &ptr in &plan.emptied {
            unsafe {
                for slot in 0..layout.num_slots() {
                    assert!(!access::is_allocated(ptr as *mut u8, layout, slot));
                }
            }
        }
        // F blocks are completely full.
        let s = layout.num_slots();
        for (i, &(ptr, head)) in plan.new_heads.iter().enumerate() {
            if i < live / s as usize {
                assert_eq!(head, s);
                unsafe {
                    for slot in 0..s {
                        assert!(access::is_allocated(ptr as *mut u8, layout, slot));
                    }
                }
            }
        }
        m.commit(&check);
    }

    #[test]
    fn index_hook_sees_every_move() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        populate(&m, &t, 2, 50, 17);
        let group: Vec<_> = t.blocks().into_iter().take(2).collect();
        let plan = plan_approximate(&group);
        let txn = m.begin();
        let mut hook_calls = 0;
        let stats = execute_plan(&t, &txn, &plan, |_, from, to, row| {
            assert_ne!(from, to);
            assert_eq!(row.len(), 2);
            hook_calls += 1;
            Ok(())
        })
        .unwrap();
        m.commit(&txn);
        assert_eq!(hook_calls, stats.tuples_moved);
    }

    #[test]
    fn concurrent_update_aborts_compaction() {
        let m = Arc::new(TransactionManager::new());
        let t = table();
        populate(&m, &t, 2, 50, 23);
        let group: Vec<_> = t.blocks().into_iter().take(2).collect();
        let plan = plan_approximate(&group);
        assert!(!plan.moves.is_empty());
        let victim = plan.moves[0].0;

        // A user transaction updates one of the tuples compaction will move.
        let user = m.begin();
        let mut d = ProjectedRow::new();
        d.push_fixed(1, &Value::BigInt(-1));
        t.update(&user, victim, &d).unwrap();

        let ctxn = m.begin();
        let r = execute_plan(&t, &ctxn, &plan, |_, _, _, _| Ok(()));
        // The delete of the moved tuple hits the user's uncommitted version.
        assert!(r.is_err(), "compaction must conflict");
        m.abort(&ctxn);
        m.commit(&user);

        let check = m.begin();
        let got = t.select_values(&check, victim).unwrap();
        assert_eq!(got[0], Value::BigInt(-1));
        m.commit(&check);
    }

    #[test]
    fn empty_group_is_noop() {
        let t = table();
        let plan = plan_approximate(&t.blocks());
        assert!(plan.moves.is_empty());
        assert_eq!(plan.live_tuples, 0);
        let optimal = plan_optimal(&t.blocks());
        assert!(optimal.moves.is_empty());
    }
}
