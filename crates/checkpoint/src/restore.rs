//! Checkpoint loading: the fast half of a two-phase restart.
//!
//! Cold segments are decoded and loaded **directly into frozen blocks** — a
//! column-at-a-time reconstruction (one memcpy per fixed column, one
//! gathered buffer per varlen column, per-slot 16-byte entry rewrites) with
//! no per-row MVCC inserts, no version chains, and no WAL records. This is
//! the restart-side face of the zero-transformation claim: cold data goes
//! disk → memory at buffer granularity.
//!
//! Delta segments are WAL-format redo streams and replay through the
//! ordinary recovery machinery ([`mainline_wal::recover_from`]).
//!
//! Both paths feed a slot map (`(table_id, old raw slot)` → new slot) so the
//! subsequent WAL-tail replay can resolve updates and deletes against rows
//! that came out of the checkpoint image.
//!
//! The frozen-block reconstruction is shared with the cold-block buffer
//! manager: [`fault_in_block`] rebuilds an **evicted** block's body in place
//! from its recorded [`ColdLocation`](mainline_storage::ColdLocation) —
//! same frame parse, same column installation
//! ([`populate_frozen_block`]) — so restart and demand paging are one code
//! path at two call sites.

use crate::manifest::{Manifest, SegmentKind};
use crate::writer::{COLD_MAGIC, DELTA_MAGIC};
use mainline_arrowlite::array::ColumnArray;
use mainline_arrowlite::batch::RecordBatch;
use mainline_arrowlite::ipc;
use mainline_common::{Error, Result, Timestamp};
use mainline_storage::arrow_side::GatheredColumn;
use mainline_storage::block_state::BlockState;
use mainline_storage::raw_block::Block;
use mainline_storage::{access, TupleSlot, VarlenEntry};
use mainline_txn::{DataTable, TransactionManager};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What a checkpoint load did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadStats {
    /// Frozen blocks reconstructed without row materialization.
    pub frozen_blocks: usize,
    /// Live rows inside those blocks (allocated slots).
    pub cold_rows: u64,
    /// Rows replayed from delta segments (per-row MVCC inserts).
    pub delta_rows: u64,
}

/// One parsed frame of a cold segment. Exposed so tests can verify the
/// payload is byte-identical to the Flight export of the same block.
#[derive(Debug, Clone)]
pub struct ColdFrame {
    /// Owning table.
    pub table_id: u32,
    /// Block base address in the checkpointed process (slot-remap key).
    pub old_base: u64,
    /// Freeze stamp of the captured content (0 = unknown). Together with
    /// `freeze_era` this is the frame's content identity: restart re-adopts
    /// it so the first post-restart checkpoint diffs incremental, and the
    /// fault path matches it against the block's live stamp.
    pub freeze_stamp: u64,
    /// Freeze-stamp era of the writing process (0 = unknown).
    pub freeze_era: u64,
    /// Insert head: number of slot-indexed rows in the payload.
    pub n: u32,
    /// Allocation bitmap over those `n` slots (bit set = live row).
    pub alloc: Vec<u8>,
    /// The raw Arrow IPC frame — exactly what Flight export emits.
    pub payload: Vec<u8>,
}

impl ColdFrame {
    /// Whether slot `i` held a live row.
    pub fn is_allocated(&self, i: u32) -> bool {
        self.alloc.get(i as usize / 8).is_some_and(|b| b & (1 << (i % 8)) != 0)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // `pos <= len` is an invariant, so this subtraction-form bounds
        // check cannot overflow even when a corrupt length field reads as
        // a near-`u64::MAX` value.
        if n > self.bytes.len() - self.pos {
            return Err(Error::Corrupt("truncated checkpoint segment".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Parse a cold segment file into its frames.
pub fn read_cold_frames(path: &Path) -> Result<Vec<ColdFrame>> {
    let bytes = std::fs::read(path)?;
    let mut c = Cursor { bytes: &bytes, pos: 0 };
    if c.take(8)? != COLD_MAGIC {
        return Err(Error::Corrupt("bad cold-segment magic".into()));
    }
    let table_id = c.u32()?;
    let mut frames = Vec::new();
    while !c.done() {
        let old_base = c.u64()?;
        let freeze_stamp = c.u64()?;
        let freeze_era = c.u64()?;
        let n = c.u32()?;
        let bitmap_len = c.u32()? as usize;
        let alloc = c.take(bitmap_len)?.to_vec();
        let payload_len = c.u64()? as usize;
        let payload = c.take(payload_len)?.to_vec();
        frames.push(ColdFrame { table_id, old_base, freeze_stamp, freeze_era, n, alloc, payload });
    }
    Ok(frames)
}

/// Resolve the live checkpoint under `root` via its `CURRENT` pointer and
/// read the manifest. Returns the checkpoint directory alongside it.
pub fn read_manifest(root: &Path) -> Result<(PathBuf, Manifest)> {
    let current = std::fs::read_to_string(root.join("CURRENT"))
        .map_err(|_| Error::NotFound(format!("no checkpoint CURRENT under {}", root.display())))?;
    let dir = root.join(current.trim());
    let manifest = Manifest::read_from(&dir.join("MANIFEST"))?;
    Ok((dir, manifest))
}

/// Load a checkpoint into freshly created tables (keyed by the manifest's
/// table ids). `slot_map` is filled with the old-slot → new-slot mapping of
/// every restored row; pass it on to [`mainline_wal::recover_from`] for the
/// tail replay.
///
/// `root` is the checkpoint root and `dir` the manifest's own directory (as
/// returned by [`read_manifest`]): an incremental manifest's `frame` lines
/// may point into *earlier* checkpoint directories under the same root, and
/// the loader resolves them there — the restore-time half of the
/// manifest-diff chain.
pub fn load_into(
    root: &Path,
    dir: &Path,
    manifest: &Manifest,
    manager: &TransactionManager,
    tables: &HashMap<u32, Arc<DataTable>>,
    slot_map: &mut HashMap<(u32, u64), TupleSlot>,
) -> Result<LoadStats> {
    let mut stats = LoadStats::default();

    // Cold image: the manifest's frame list, wherever each frame's bytes
    // live in the chain. Refs are grouped by file so each cold segment is
    // read, consumed, and dropped before the next — peak memory is one
    // file's frames, not the whole generation chain.
    let mut by_file: Vec<((String, String), Vec<&crate::manifest::FrameRef>)> = Vec::new();
    for frame_ref in &manifest.frames {
        let key = (frame_ref.dir.clone(), frame_ref.file.clone());
        match by_file.iter_mut().find(|(k, _)| *k == key) {
            Some((_, refs)) => refs.push(frame_ref),
            None => by_file.push((key, vec![frame_ref])),
        }
    }
    for ((dir_name, file), refs) in by_file {
        let frames = read_cold_frames(&root.join(&dir_name).join(&file))?;
        for frame_ref in refs {
            let table = tables.get(&frame_ref.table_id).ok_or_else(|| {
                Error::NotFound(format!("checkpoint table {}", frame_ref.table_id))
            })?;
            let frame = frames.get(frame_ref.index as usize).ok_or_else(|| {
                Error::Corrupt(format!(
                    "manifest references frame {} of {dir_name}/{file}, which has only {}",
                    frame_ref.index,
                    frames.len()
                ))
            })?;
            // Identity: the manifest's base matches the file's for frames
            // written in the manifest's own process. A reused frame that
            // crossed a restart carries the *current* process's base (so the
            // WAL slot map lines up) while the file still holds the writing
            // process's — there the freeze stamp, unique within the era, is
            // the identity.
            let stamp_match =
                frame.freeze_stamp != 0 && frame.freeze_stamp == frame_ref.freeze_stamp;
            if frame.table_id != frame_ref.table_id
                || (frame.old_base != frame_ref.old_base && !stamp_match)
            {
                return Err(Error::Corrupt(format!(
                    "frame {} of {dir_name}/{file} is (table {}, base {:#x}, stamp {}), manifest \
                     says (table {}, base {:#x}, stamp {})",
                    frame_ref.index,
                    frame.table_id,
                    frame.old_base,
                    frame.freeze_stamp,
                    frame_ref.table_id,
                    frame_ref.old_base,
                    frame_ref.freeze_stamp
                )));
            }
            let batch = ipc::decode_batch(&frame.payload)?;
            let live = rebuild_frozen_block(table, frame, frame_ref, &batch, slot_map)?;
            stats.frozen_blocks += 1;
            stats.cold_rows += live;
        }
    }

    // Delta segments always live in the manifest's own directory (hot-row
    // snapshots are never shared between generations). These streams are
    // written by the checkpoint writer and can never contain DDL.
    for seg in &manifest.segments {
        if seg.kind != SegmentKind::Delta {
            continue;
        }
        if !tables.contains_key(&seg.table_id) {
            return Err(Error::NotFound(format!("checkpoint table {}", seg.table_id)));
        }
        let path = dir.join(&seg.file);
        let bytes = std::fs::read(&path)?;
        if bytes.len() < 12 || &bytes[..8] != DELTA_MAGIC {
            return Err(Error::Corrupt("bad delta-segment magic".into()));
        }
        let rec = mainline_wal::recover_from(
            &bytes[12..],
            Timestamp::ZERO,
            manager,
            tables,
            slot_map,
            &mut mainline_wal::NoDdl,
        )?;
        stats.delta_rows += rec.ops_applied as u64;
    }
    Ok(stats)
}

/// Validate an i32 offsets array before raw pointers are derived from it:
/// non-negative, non-decreasing, and bounded by the value buffer's length.
fn check_offsets(offsets: &[i32], values_len: usize, col: u16, what: &str) -> Result<()> {
    let mut prev = 0i32;
    for &o in offsets {
        if o < prev || o as usize > values_len {
            return Err(Error::Corrupt(format!(
                "{what} column {col}: offset {o} invalid (prev {prev}, {values_len} value bytes)"
            )));
        }
        prev = o;
    }
    Ok(())
}

/// Install a cold frame's content into `block`'s memory: allocation bitmap,
/// null bitmaps, one memcpy per fixed column, and a canonical gathered side
/// buffer plus per-slot non-owning entries per varlen column — exactly the
/// layout `mainline_transform`'s freeze would have produced. Returns the
/// number of live rows.
///
/// The inverse of the gather pass, shared by the two consumers of the
/// checkpoint chain: restart's loader (into a fresh block) and the buffer
/// manager's fault path ([`fault_in_block`], back into an evicted block's
/// released body — the bitmap writes are idempotent over the still-resident
/// head page). The caller owns the block's state transitions.
pub fn populate_frozen_block(
    table: &DataTable,
    frame: &ColdFrame,
    batch: &RecordBatch,
    block: &Block,
) -> Result<u64> {
    let layout = Arc::clone(table.layout());
    let n = frame.n;
    if n > layout.num_slots() {
        return Err(Error::Corrupt(format!("cold frame claims {n} slots", n = n)));
    }
    if batch.num_rows() != n as usize || batch.num_columns() != layout.num_user_cols() {
        return Err(Error::Corrupt(format!(
            "cold frame shape {}x{} does not match table {} ({} slots, {} cols)",
            batch.num_rows(),
            batch.num_columns(),
            table.id(),
            n,
            layout.num_user_cols()
        )));
    }
    let ptr = block.as_ptr();
    let total_slots = layout.num_slots() as usize;

    // Allocation bitmap + per-column null bitmaps first: entry/value writes
    // below assume the slot population is settled.
    let mut live = 0u64;
    for slot in 0..n {
        if frame.is_allocated(slot) {
            unsafe { access::set_allocated(ptr, &layout, slot) };
            live += 1;
        }
    }
    for (u, &col) in table.all_cols().iter().enumerate() {
        let array = batch.column(u);
        for slot in 0..n {
            if frame.is_allocated(slot) {
                unsafe {
                    access::set_null(ptr, &layout, slot, col, !array.is_valid(slot as usize))
                };
            }
        }
        match array {
            ColumnArray::Primitive(a) => {
                let width = layout.attr_size(col) as usize;
                let values = a.values().as_slice();
                if values.len() != n as usize * width {
                    return Err(Error::Corrupt(format!(
                        "primitive column {col}: {} bytes for {n} slots of width {width}",
                        values.len()
                    )));
                }
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        values.as_ptr(),
                        ptr.add(layout.column_offset(col) as usize),
                        values.len(),
                    );
                }
            }
            ColumnArray::VarBinary(a) => {
                let short = a.offsets().typed::<i32>();
                if short.len() != n as usize + 1 {
                    return Err(Error::Corrupt(format!(
                        "varbinary column {col}: {} offsets for {n} slots",
                        short.len()
                    )));
                }
                // Extend to the full-slot shape the gather pass produces:
                // never-used tail slots get zero-length gaps.
                let mut offsets = short.to_vec();
                offsets.resize(total_slots + 1, *short.last().unwrap_or(&0));
                let values: Box<[u8]> = a.values().as_slice().into();
                // The entries below are raw pointers computed from these
                // offsets; a corrupt file must become an error here, not an
                // out-of-bounds pointer in a live block.
                check_offsets(&offsets, values.len(), col, "varbinary")?;
                let base = values.as_ptr();
                let mut valid = 0usize;
                for slot in 0..n {
                    let ok = frame.is_allocated(slot) && array.is_valid(slot as usize);
                    unsafe {
                        let entry = if ok {
                            valid += 1;
                            let start = offsets[slot as usize] as usize;
                            let len =
                                (offsets[slot as usize + 1] - offsets[slot as usize]) as usize;
                            VarlenEntry::from_gathered(base.add(start), len)
                        } else {
                            VarlenEntry::empty()
                        };
                        access::write_varlen(ptr, &layout, slot, col, entry);
                    }
                }
                let gathered =
                    GatheredColumn::Gathered { offsets, values, null_count: total_slots - valid };
                let _ = block.arrow.install(col, Arc::new(gathered));
            }
            ColumnArray::Dictionary(a) => {
                let short = a.codes().typed::<i32>();
                if short.len() != n as usize {
                    return Err(Error::Corrupt(format!(
                        "dictionary column {col}: {} codes for {n} slots",
                        short.len()
                    )));
                }
                let mut codes = short.to_vec();
                codes.resize(total_slots, -1);
                let dict_offsets = a.dictionary().offsets().typed::<i32>().to_vec();
                let dict_values: Box<[u8]> = a.dictionary().values().as_slice().into();
                check_offsets(&dict_offsets, dict_values.len(), col, "dictionary")?;
                let max_code = dict_offsets.len().saturating_sub(1) as i64;
                if codes.iter().any(|&c| (c as i64) >= max_code) {
                    return Err(Error::Corrupt(format!(
                        "dictionary column {col}: code out of range (dict has {max_code} entries)"
                    )));
                }
                let base = dict_values.as_ptr();
                let mut valid = 0usize;
                for slot in 0..n {
                    let code = codes[slot as usize];
                    let ok = frame.is_allocated(slot) && array.is_valid(slot as usize) && code >= 0;
                    unsafe {
                        let entry = if ok {
                            valid += 1;
                            let start = dict_offsets[code as usize] as usize;
                            let len = (dict_offsets[code as usize + 1]
                                - dict_offsets[code as usize])
                                as usize;
                            VarlenEntry::from_gathered(base.add(start), len)
                        } else {
                            VarlenEntry::empty()
                        };
                        access::write_varlen(ptr, &layout, slot, col, entry);
                    }
                }
                let compressed = GatheredColumn::Dictionary {
                    codes,
                    dict_offsets,
                    dict_values,
                    null_count: total_slots - valid,
                };
                let _ = block.arrow.install(col, Arc::new(compressed));
            }
        }
    }

    Ok(live)
}

/// Reconstruct one frozen block from its IPC payload + envelope and append
/// it to `table`'s block list (the restart path). Returns the number of
/// live rows.
///
/// Identity handling: when the frame carries a stamp from an adoptable era
/// (the manifest's — first adoption wins process-wide), the block re-adopts
/// it and records its chain location, so the first post-restart checkpoint
/// reuses the frame instead of rewriting it **and** the block is immediately
/// evictable. Otherwise the rebuilt content gets a fresh stamp and the next
/// checkpoint captures it anew. Slot-map keys use `frame_ref.old_base` — the
/// manifest's address, which is what the WAL tail references — not the
/// file's (they differ for frames reused across a restart).
fn rebuild_frozen_block(
    table: &Arc<DataTable>,
    frame: &ColdFrame,
    frame_ref: &crate::manifest::FrameRef,
    batch: &RecordBatch,
    slot_map: &mut HashMap<(u32, u64), TupleSlot>,
) -> Result<u64> {
    let block = Block::new(Arc::clone(table.layout()));
    let live = populate_frozen_block(table, frame, batch, &block)?;

    let h = block.header();
    h.set_insert_head(frame.n);
    let adopted = frame.freeze_stamp != 0
        && frame.freeze_era != 0
        && mainline_storage::raw_block::adopt_freeze_era(frame.freeze_era);
    if adopted {
        block.adopt_freeze_stamp(frame.freeze_stamp);
        block.set_cold_location(mainline_storage::ColdLocation {
            dir: frame_ref.dir.clone(),
            file: frame_ref.file.clone(),
            index: frame_ref.index,
            bytes: frame_ref.bytes,
            stamp: frame.freeze_stamp,
        });
    } else {
        // Fresh identity: the next incremental checkpoint in *this* process
        // diffs against its own chain, and the restored block is new content
        // as far as that chain is concerned.
        block.stamp_freeze();
    }
    h.set_state_raw(BlockState::Frozen as u32);

    for slot in 0..frame.n {
        if frame.is_allocated(slot) {
            slot_map.insert(
                (frame.table_id, frame_ref.old_base | slot as u64),
                TupleSlot::new(block.as_ptr(), slot),
            );
        }
    }
    table.blocks_handle().write().push(block);
    Ok(live)
}

/// Fault an **evicted** block's frozen content back into its released body —
/// the demand-paging half of the cold-block buffer manager. `root` is the
/// checkpoint root the block's [`ColdLocation`](mainline_storage::ColdLocation)
/// points into.
///
/// Claims the block (`Evicted → Faulting`, exclusive), reads its frame from
/// the chain, verifies identity (table, freeze stamp, insert head), and
/// installs the content via [`populate_frozen_block`] at the block's
/// original address — tuple slots and index entries never move. Publishes
/// `Faulting → Frozen` with a residency-version bump on success; on any
/// error the claim is reverted (`Faulting → Evicted`) and the error
/// propagates to the access that triggered the fault.
///
/// Returns `Ok(false)` without touching anything if the block is not
/// evicted — another thread won the fault race or a writer already thawed
/// it; the caller just retries its access.
pub fn fault_in_block(root: &Path, table: &DataTable, block: &Block) -> Result<bool> {
    use mainline_storage::block_state::BlockStateMachine;
    let h = block.header();
    if !BlockStateMachine::begin_fault(h) {
        return Ok(false);
    }
    let fault_start = std::time::Instant::now();
    let rebuild = (|| -> Result<()> {
        // The chain compactor may rewrite this frame concurrently: it
        // retargets the block's recorded location strictly *before* pruning
        // the old generation, so a read that loses the race (ENOENT, or a
        // mismatched frame behind a reused path) re-reads the location and
        // retries against the fresh copy. A failure with an *unchanged*
        // location is real corruption and propagates.
        let mut loc = block
            .cold_location()
            .ok_or_else(|| Error::Corrupt("evicted block has no cold location".into()))?;
        loop {
            if loc.stamp == 0 || loc.stamp != block.freeze_stamp() {
                return Err(Error::Corrupt(format!(
                    "evicted block location stamp {} != live stamp {}",
                    loc.stamp,
                    block.freeze_stamp()
                )));
            }
            let attempt = (|| -> Result<()> {
                let frames = read_cold_frames(&root.join(&loc.dir).join(&loc.file))?;
                let frame = frames.get(loc.index as usize).ok_or_else(|| {
                    Error::Corrupt(format!(
                        "cold location references frame {} of {}/{}, which has only {}",
                        loc.index,
                        loc.dir,
                        loc.file,
                        frames.len()
                    ))
                })?;
                let expected_n = h.insert_head().min(table.layout().num_slots());
                if frame.table_id != table.id()
                    || frame.freeze_stamp != loc.stamp
                    || frame.n != expected_n
                {
                    return Err(Error::Corrupt(format!(
                        "cold frame identity (table {}, stamp {}, n {}) does not match evicted \
                         block (table {}, stamp {}, n {expected_n})",
                        frame.table_id,
                        frame.freeze_stamp,
                        frame.n,
                        table.id(),
                        loc.stamp
                    )));
                }
                let batch = ipc::decode_batch(&frame.payload)?;
                populate_frozen_block(table, frame, &batch, block)?;
                Ok(())
            })();
            match attempt {
                Ok(()) => return Ok(()),
                Err(e) => match block.cold_location() {
                    // Moved under us — compaction retargeted it; retry there.
                    Some(fresh) if fresh != loc => loc = fresh,
                    // Nothing moved — the failure is genuine.
                    _ => return Err(e),
                },
            }
        }
    })();
    match rebuild {
        Ok(()) => {
            BlockStateMachine::finish_fault(h);
            let took = fault_start.elapsed();
            mainline_obs::record_event(
                mainline_obs::kind::FAULT_IN,
                block.charged_bytes(),
                took.as_nanos() as u64,
            );
            Ok(true)
        }
        Err(e) => {
            BlockStateMachine::abort_fault(h);
            Err(e)
        }
    }
}
