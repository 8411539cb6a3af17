//! Shared scaffolding for the figure-regeneration benches.
//!
//! Every bench prints paper-style series as CSV-ish rows:
//! `figure,series,x,value[,unit]` — one row per plotted point — plus a
//! human-readable summary. Scale knobs come from environment variables so
//! `cargo bench` finishes in minutes on a laptop while larger runs remain a
//! variable away. These benches reproduce the paper's figures; the gated
//! before/after benchmark is `perfbench/` (see `perfbench/README.md`):
//!
//! * `MAINLINE_BLOCKS`  — blocks per transformation experiment (default 12)
//! * `MAINLINE_TPCC_SECONDS` — seconds per TPC-C cell (default 3)
//! * `MAINLINE_TPCC_THREADS` — comma list of worker counts (default "1,2,4")
//! * `MAINLINE_FIG1_ROWS` — LINEITEM rows for Fig. 1 (default 200000)

use mainline_common::rng::Xoshiro256;
use mainline_common::schema::{ColumnDef, Schema};
use mainline_common::value::{TypeId, Value};
use mainline_gc::GarbageCollector;
use mainline_storage::block_state::BlockStateMachine;
use mainline_storage::raw_block::Block;
use mainline_storage::{ProjectedRow, TupleSlot};
use mainline_txn::{DataTable, TransactionManager};
use std::sync::Arc;

/// Environment-variable scale knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Print one series point in the shared format.
pub fn emit(figure: &str, series: &str, x: impl std::fmt::Display, value: f64, unit: &str) {
    println!("{figure},{series},{x},{value:.3},{unit}");
}

/// The §6.2 micro-benchmark layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroLayout {
    /// 8-byte int + 12–24-byte varlen (the default "50% varlen columns").
    Mixed,
    /// Two 8-byte ints (Fig. 12c).
    Fixed,
    /// Two varlen columns (Fig. 12d).
    Varlen,
}

impl MicroLayout {
    /// Table schema for this layout.
    pub fn schema(self) -> Schema {
        match self {
            MicroLayout::Mixed => Schema::new(vec![
                ColumnDef::new("fixed", TypeId::BigInt),
                ColumnDef::new("var", TypeId::Varchar),
            ]),
            MicroLayout::Fixed => Schema::new(vec![
                ColumnDef::new("a", TypeId::BigInt),
                ColumnDef::new("b", TypeId::BigInt),
            ]),
            MicroLayout::Varlen => Schema::new(vec![
                ColumnDef::new("va", TypeId::Varchar),
                ColumnDef::new("vb", TypeId::Varchar),
            ]),
        }
    }

    /// One row with 12–24-byte varlen values (§6.2's distribution).
    pub fn row(self, rng: &mut Xoshiro256, i: i64) -> Vec<Value> {
        let var = |rng: &mut Xoshiro256| Value::Varchar(rng.alnum_string(12, 24));
        match self {
            MicroLayout::Mixed => vec![Value::BigInt(i), var(rng)],
            MicroLayout::Fixed => vec![Value::BigInt(i), Value::BigInt(i ^ 0x5555)],
            MicroLayout::Varlen => vec![var(rng), var(rng)],
        }
    }
}

/// Build the §6.2 table: `nblocks` full blocks, then delete `pct_empty`% of
/// tuples at random and GC-prune the chains — exactly the "data that has
/// become cold since the last invocation" setup.
pub fn build_micro_table(
    layout: MicroLayout,
    nblocks: usize,
    pct_empty: u32,
    seed: u64,
) -> (Arc<TransactionManager>, Arc<DataTable>, usize) {
    let manager = Arc::new(TransactionManager::new());
    let table = DataTable::new(1, layout.schema()).unwrap();
    let per_block = table.layout().num_slots() as usize;
    let types: Vec<TypeId> = table.types().to_vec();
    let mut rng = Xoshiro256::seed_from_u64(seed);

    let mut slots: Vec<TupleSlot> = Vec::with_capacity(nblocks * per_block);
    let txn = manager.begin();
    for i in 0..(nblocks * per_block) {
        let row = ProjectedRow::from_values(&types, &layout.row(&mut rng, i as i64));
        slots.push(table.insert(&txn, &row));
    }
    manager.commit(&txn);

    let mut live = slots.len();
    if pct_empty > 0 {
        let txn = manager.begin();
        for &slot in &slots {
            if rng.next_below(100) < pct_empty as u64 {
                table.delete(&txn, slot).unwrap();
                live -= 1;
            }
        }
        manager.commit(&txn);
    }
    // Prune version chains so compaction can reuse the gaps.
    let mut gc = GarbageCollector::new(Arc::clone(&manager));
    gc.run();
    gc.run();
    (manager, table, live)
}

/// Freeze one hot block directly (compaction-less: used when the block's
/// occupancy is already what the experiment wants). Assumes pruned chains.
pub fn force_freeze(block: &Arc<Block>, dictionary: bool) {
    let h = block.header();
    assert!(BlockStateMachine::begin_cooling(h), "block must be hot");
    assert!(BlockStateMachine::begin_freezing(h), "no writers expected");
    unsafe {
        let displaced = if dictionary {
            mainline_transform::dictionary::compress_block(block)
        } else {
            mainline_transform::gather::gather_block(block)
        };
        block.stamp_freeze();
        BlockStateMachine::finish_freezing(h);
        displaced.free();
    }
}

/// Convenient wall-clock timer.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}
