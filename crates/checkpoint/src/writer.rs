//! The online checkpoint writer.
//!
//! One checkpoint = one MVCC transaction held open across a walk of every
//! table's block list (see the crate docs for why the open transaction makes
//! the frozen-block fast path consistent). Writers keep running throughout —
//! the walk takes no locks beyond each frozen block's Fig. 7 reader counter.
//!
//! **Incremental:** before the walk, the writer reads the previous
//! checkpoint's manifest (via `CURRENT`) and indexes its cold frames by
//! `(table id, freeze stamp)` — stamps are process-unique per freeze, so
//! within one era they identify content on their own, and keying without
//! the block address lets a *restarted* process (which re-adopted the
//! stamps but rebuilt the blocks at new addresses) keep diffing
//! incrementally. A frozen block whose identity already appears there is
//! not re-encoded or re-written — its manifest `frame` line carries the
//! prior location forward (possibly several generations back) under the
//! block's **current** address, so the WAL slot remap stays correct.
//! Checkpoint cost is therefore bounded by *changed* data; pruning keeps
//! every directory the new manifest still references.
//!
//! **Evicted blocks** (cold-block buffer manager): a block whose body was
//! released is *by construction* already captured by the chain — its
//! recorded [`ColdLocation`] is emitted as
//! the frame reference without any I/O, and the referenced generation stays
//! in the manifest's keep-set, so pruning can never delete a generation an
//! evicted block still points into. Conversely, every frame this walk
//! writes (or reuses) is recorded back onto its block *after* the publish
//! rename — making the block evictable from then on.
//!
//! Segment encodings:
//!
//! * `table-<id>.cold` — `MLCKCLD2` + `u32 table_id`, then one frame per
//!   frozen block: `[u64 old_base][u64 freeze_stamp][u64 freeze_era]`
//!   `[u32 n][u32 bitmap_len][alloc bitmap]`
//!   `[u64 payload_len][payload]`, where `payload` is **exactly** the Arrow
//!   IPC frame Flight export would emit for the block
//!   ([`ipc::encode_batch`] of
//!   [`mainline_export::materialize::frozen_batch`]) — the
//!   zero-transformation claim, byte for byte. The envelope carries what the
//!   IPC payload cannot: the block's old base address (for WAL slot
//!   remapping) and the allocation bitmap (Arrow validity conflates a gap
//!   with an all-NULL row).
//! * `table-<id>.delta` — `MLCKDLT1` + `u32 table_id`, then a WAL-format
//!   redo stream: one insert frame per visible hot row (slot = the row's
//!   current physical slot, for the same remapping) and a single commit
//!   marker at the checkpoint timestamp. Restart replays it with the
//!   ordinary recovery machinery.
//!
//! Every externally visible file operation of the publish sequence consults
//! [`mainline_common::failpoint`], so the crash-matrix battery can kill the
//! sequence after any prefix and prove the surviving state restores.

use crate::manifest::{
    FrameRef, IndexManifest, Manifest, SegmentEntry, SegmentKind, TableManifest,
};
use mainline_arrowlite::ipc;
use mainline_common::{failpoint, Result, Timestamp};
use mainline_export::materialize::frozen_batch;
use mainline_storage::block_state::BlockStateMachine;
use mainline_storage::{access, ColdLocation, TupleSlot};
use mainline_txn::redo::{stamp, write_redo, OP_INSERT};
use mainline_txn::{DataTable, TransactionManager};
use mainline_wal::record::encode_commit;
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefixes of the two segment encodings. Cold v1 (`MLCKCLD1`, no
/// stamp/era in the envelope) is deliberately rejected rather than migrated
/// — checkpoints are regenerable artifacts, same policy as the manifest.
pub(crate) const COLD_MAGIC: &[u8; 8] = b"MLCKCLD2";
pub(crate) const DELTA_MAGIC: &[u8; 8] = b"MLCKDLT1";

/// Everything the writer needs to know about one table. `mainline-db` builds
/// these from its catalog; tests may hand-construct them.
pub struct TableCheckpointSpec {
    /// Table name (recorded for restart's catalog rebuild).
    pub name: String,
    /// Whether the table is registered with the transformation pipeline.
    pub transform: bool,
    /// Secondary-index definitions: `(name, user-column positions)`.
    pub indexes: Vec<(String, Vec<usize>)>,
    /// The data table itself.
    pub table: Arc<DataTable>,
}

/// What a checkpoint wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointStats {
    /// The checkpoint timestamp (WAL replay resumes strictly after it).
    pub checkpoint_ts: Timestamp,
    /// Frozen blocks newly captured via the zero-transformation IPC path
    /// (excluding frames reused from the previous checkpoint).
    pub frozen_blocks: usize,
    /// Frozen blocks whose `(base, freeze stamp)` already appeared in the
    /// previous checkpoint: referenced, not rewritten.
    pub frozen_blocks_reused: usize,
    /// Bytes of raw Arrow IPC payload written (excluding envelopes and
    /// reused frames).
    pub cold_bytes: u64,
    /// IPC payload bytes covered by reused frames — the incremental saving.
    pub cold_bytes_reused: u64,
    /// Hot rows materialized through the MVCC snapshot path.
    pub delta_rows: u64,
    /// Bytes of delta redo stream written.
    pub delta_bytes: u64,
    /// Tables captured.
    pub tables: usize,
    /// Wall-clock seconds the checkpoint took.
    pub duration_secs: f64,
    /// The published checkpoint directory.
    pub dir: PathBuf,
}

/// Name of the checkpoint subdirectory for a timestamp (zero-padded so
/// lexical order is timestamp order).
fn ckpt_dir_name(ts: Timestamp) -> String {
    format!("ckpt-{:020}", ts.0)
}

/// The previous checkpoint's cold frames, indexed by content identity, plus
/// an existence cache for the files they live in (defensive: a manually
/// deleted old segment must cause a fresh write, not a dangling reference).
struct PrevFrames {
    by_identity: HashMap<(u32, u64), FrameRef>,
    file_exists: HashMap<(String, String), bool>,
}

impl PrevFrames {
    fn load(root: &Path) -> PrevFrames {
        let by_identity = match crate::restore::read_manifest(root) {
            // Frame identities are only unique within one process's
            // freeze-stamp era: the counter restarts per process, so a
            // manifest written by a different era (a fresh engine over an
            // old root, or a restart that could not adopt the image's era)
            // is diffed as empty — the first checkpoint of a new era
            // rewrites everything rather than risking a stale-frame match.
            // Within the era, `(table, stamp)` alone identifies content:
            // restart re-adopts stamps onto blocks at *new* addresses, and
            // keying by stamp keeps those frames reusable.
            Ok((_, prev)) if prev.freeze_era == mainline_storage::raw_block::freeze_era() => prev
                .frames
                .into_iter()
                .filter(|f| f.freeze_stamp != 0)
                .map(|f| ((f.table_id, f.freeze_stamp), f))
                .collect(),
            _ => HashMap::new(),
        };
        PrevFrames { by_identity, file_exists: HashMap::new() }
    }

    /// A reusable prior frame for this identity, if its file still exists.
    fn reusable(&mut self, root: &Path, key: (u32, u64)) -> Option<FrameRef> {
        let frame = self.by_identity.get(&key)?.clone();
        let loc = (frame.dir.clone(), frame.file.clone());
        let exists = *self
            .file_exists
            .entry(loc)
            .or_insert_with(|| root.join(&frame.dir).join(&frame.file).is_file());
        exists.then_some(frame)
    }
}

/// Write a consistent online checkpoint of `specs` under `root` and publish
/// it via the `CURRENT` pointer. Frozen blocks already captured by the
/// previous checkpoint are *referenced* instead of rewritten (see the module
/// docs); checkpoints under `root` that the new manifest no longer
/// references are pruned after the new one is live. Callers that also want
/// WAL truncation do it *after* this returns, using
/// [`CheckpointStats::checkpoint_ts`].
pub fn write_checkpoint(
    manager: &TransactionManager,
    specs: &[TableCheckpointSpec],
    root: &Path,
) -> Result<CheckpointStats> {
    // The open transaction is the consistency anchor: hold it across the
    // entire walk (see the crate-level argument).
    let txn = manager.begin_read_only();
    write_checkpoint_anchored(manager, txn, specs, 0, root)
}

/// [`write_checkpoint`] with a caller-provided anchor transaction.
///
/// DDL and checkpointing race: the manifest's table set must equal the
/// catalog state *at the checkpoint timestamp*, or a `CREATE`/`DROP`
/// committing between the catalog snapshot and the anchor `begin()` would
/// be both missing from the manifest and skipped by the tail replay (its
/// commit ts ≤ checkpoint ts). The database layer therefore snapshots its
/// catalog and begins the anchor under the same catalog lock that orders
/// DDL commits, then hands both here. `next_table_id` (0 = unknown) is
/// recorded in the manifest so restart can tell a long-dropped table's
/// straggler records from corruption.
pub fn write_checkpoint_anchored(
    manager: &TransactionManager,
    txn: Arc<mainline_txn::Transaction>,
    specs: &[TableCheckpointSpec],
    next_table_id: u32,
    root: &Path,
) -> Result<CheckpointStats> {
    let t0 = std::time::Instant::now();
    std::fs::create_dir_all(root)?;
    let mut prev = PrevFrames::load(root);
    let checkpoint_ts = txn.start_ts();

    let dir_name = ckpt_dir_name(checkpoint_ts);
    let tmp_dir = root.join(format!("{dir_name}.tmp"));
    let final_dir = root.join(&dir_name);
    let _ = std::fs::remove_dir_all(&tmp_dir);
    std::fs::create_dir_all(&tmp_dir)?;

    let mut stats = CheckpointStats {
        checkpoint_ts,
        frozen_blocks: 0,
        frozen_blocks_reused: 0,
        cold_bytes: 0,
        cold_bytes_reused: 0,
        delta_rows: 0,
        delta_bytes: 0,
        tables: specs.len(),
        duration_secs: 0.0,
        dir: final_dir.clone(),
    };
    let mut manifest = Manifest {
        checkpoint_ts,
        next_table_id,
        freeze_era: mainline_storage::raw_block::freeze_era(),
        tables: Vec::new(),
        segments: Vec::new(),
        frames: Vec::new(),
    };

    // The walk may fail mid-way (full disk, injected crash); the anchor
    // transaction must be committed on every path, or it would pin GC
    // pruning forever.
    let mut pending_locations = Vec::new();
    let walk = walk_tables(
        specs,
        root,
        &tmp_dir,
        &dir_name,
        &txn,
        checkpoint_ts,
        &mut prev,
        &mut stats,
        &mut manifest,
        &mut pending_locations,
    );
    // The walk is complete (or abandoned): every byte that needed the
    // consistency anchor has been read. Release the transaction before the
    // (potentially slow) fsync/publish dance so GC pruning resumes as early
    // as possible.
    manager.commit(&txn);
    walk?;

    manifest.write_to(&tmp_dir.join("MANIFEST"))?;
    // The segment/MANIFEST *contents* are synced above; this makes their
    // directory entries durable before the directory is published.
    failpoint::check("ckpt.tmpdir.fsync")?;
    fsync_dir(&tmp_dir);
    let _ = std::fs::remove_dir_all(&final_dir);
    failpoint::check("ckpt.dir.rename")?;
    std::fs::rename(&tmp_dir, &final_dir)?;
    failpoint::check("ckpt.root.fsync")?;
    fsync_dir(root);

    // Publish: CURRENT names the live checkpoint (atomic rename), then prune
    // superseded checkpoints. The directory fsyncs make the renames durable
    // *before* anything is deleted — pruning (or the caller's WAL
    // truncation) ahead of the rename reaching the journal could leave a
    // crash with neither the old checkpoint nor the new one.
    let current_tmp = root.join("CURRENT.tmp");
    failpoint::check("ckpt.current.write")?;
    std::fs::write(&current_tmp, format!("{dir_name}\n"))?;
    failpoint::check("ckpt.current.fsync")?;
    std::fs::File::open(&current_tmp)?.sync_all()?;
    failpoint::check("ckpt.current.rename")?;
    std::fs::rename(&current_tmp, root.join("CURRENT"))?;
    failpoint::check("ckpt.root.fsync2")?;
    fsync_dir(root);

    // The checkpoint is live: record each captured frame's chain location on
    // its block, making it evictable. This must wait until after the publish
    // rename — a freshly written frame's location names the *final*
    // directory, which did not exist while the walk was still writing into
    // the tmp dir, and an eviction in that window would have recorded a
    // dangling fault path. (A block on the fresh-write path had no prior
    // recorded location, so it was not evictable mid-walk either way.)
    for (block, loc) in pending_locations {
        block.set_cold_location(loc);
    }

    // Keep every directory the *published* manifest still references — the
    // incremental chain — and the new checkpoint itself; prune the rest.
    let mut keep = manifest.referenced_dirs();
    keep.insert(dir_name);
    prune_old(root, &keep, "ckpt.prune.remove");

    stats.duration_secs = t0.elapsed().as_secs_f64();
    Ok(stats)
}

/// The table/block walk: everything that must happen while the anchor
/// transaction is open. Split out so [`write_checkpoint`] can commit the
/// transaction on the error path too.
#[allow(clippy::too_many_arguments)] // internal to write_checkpoint
fn walk_tables(
    specs: &[TableCheckpointSpec],
    root: &Path,
    tmp_dir: &Path,
    dir_name: &str,
    txn: &Arc<mainline_txn::Transaction>,
    checkpoint_ts: Timestamp,
    prev: &mut PrevFrames,
    stats: &mut CheckpointStats,
    manifest: &mut Manifest,
    pending_locations: &mut Vec<(Arc<mainline_storage::raw_block::Block>, ColdLocation)>,
) -> Result<()> {
    for spec in specs {
        let table = &spec.table;
        let id = table.id();
        manifest.tables.push(TableManifest {
            id,
            name: spec.name.clone(),
            transform: spec.transform,
            columns: table.schema().columns().to_vec(),
            indexes: spec
                .indexes
                .iter()
                .map(|(name, key_cols)| IndexManifest {
                    name: name.clone(),
                    key_cols: key_cols.clone(),
                })
                .collect(),
        });

        let layout = table.layout();
        let all_cols = table.all_cols();
        let file_name = format!("table-{id}.cold");
        let mut cold = SegmentWriter::new(tmp_dir, file_name.clone(), COLD_MAGIC, id)?;
        let mut delta = SegmentWriter::new(tmp_dir, format!("table-{id}.delta"), DELTA_MAGIC, id)?;
        let mut frames = Vec::new();

        'blocks: for block in table.blocks() {
            let h = block.header();
            loop {
                match BlockStateMachine::state(h) {
                    mainline_storage::BlockState::Evicted => {
                        // The body is released, but the content is *by
                        // construction* already in the chain: eviction
                        // required a fresh recorded location. Emit it as the
                        // frame reference — no I/O, no fault-in. Any
                        // concurrent fault-in + thaw + update commits after
                        // the anchor began (commit ts > checkpoint ts), so
                        // the stored frozen content IS the checkpoint-ts
                        // snapshot of this block. The referenced dir lands
                        // in the manifest's keep-set, so pruning cannot
                        // orphan the evicted block's fault path.
                        let Some(loc) = block.cold_location() else {
                            return Err(mainline_common::Error::Corrupt(format!(
                                "evicted block {:#x} of table {id} has no cold location",
                                block.as_ptr() as u64
                            )));
                        };
                        stats.frozen_blocks_reused += 1;
                        stats.cold_bytes_reused += loc.bytes;
                        manifest.frames.push(FrameRef {
                            table_id: id,
                            old_base: block.as_ptr() as u64,
                            freeze_stamp: loc.stamp,
                            index: loc.index,
                            bytes: loc.bytes,
                            dir: loc.dir,
                            file: loc.file,
                        });
                        continue 'blocks;
                    }
                    mainline_storage::BlockState::Faulting => {
                        // Exclusive rebuild in flight; it is short. Wait for
                        // a settled state rather than snapshotting a
                        // half-rebuilt body through the MVCC path.
                        std::hint::spin_loop();
                        continue;
                    }
                    _ => break,
                }
            }
            if BlockStateMachine::reader_acquire(h) {
                // Frozen. Content identity: the freeze stamp, stable while
                // we hold the reader count.
                let base = block.as_ptr() as u64;
                let stamp = block.freeze_stamp();
                if let Some(prior) = prev.reusable(root, (id, stamp)) {
                    // Incremental fast path: the chain already holds these
                    // exact bytes — reference, don't rewrite. The emitted
                    // ref carries the block's *current* base (after a
                    // restart the prior manifest's base is another
                    // process's address; the WAL slot remap needs ours).
                    BlockStateMachine::reader_release(h);
                    stats.frozen_blocks_reused += 1;
                    stats.cold_bytes_reused += prior.bytes;
                    pending_locations.push((
                        Arc::clone(&block),
                        ColdLocation {
                            dir: prior.dir.clone(),
                            file: prior.file.clone(),
                            index: prior.index,
                            bytes: prior.bytes,
                            stamp,
                        },
                    ));
                    manifest.frames.push(FrameRef { old_base: base, ..prior });
                    continue;
                }
                // Zero-transformation path: the payload is the exact IPC
                // frame export would produce; copy raw buffers, no per-row
                // work. The open txn guarantees the content is the
                // checkpoint-timestamp snapshot (crate docs).
                let n = h.insert_head().min(layout.num_slots());
                let payload = ipc::encode_batch(&unsafe { frozen_batch(table, &block) });
                let mut bitmap = vec![0u8; (n as usize).div_ceil(8)];
                for slot in 0..n {
                    if unsafe { access::is_allocated(block.as_ptr(), layout, slot) } {
                        bitmap[slot as usize / 8] |= 1 << (slot % 8);
                    }
                }
                BlockStateMachine::reader_release(h);
                cold.frame_header(base, stamp, n, &bitmap, payload.len() as u64)?;
                cold.write(&payload)?;
                pending_locations.push((
                    Arc::clone(&block),
                    ColdLocation {
                        dir: dir_name.to_string(),
                        file: file_name.clone(),
                        index: cold.count as u32,
                        bytes: payload.len() as u64,
                        stamp,
                    },
                ));
                manifest.frames.push(FrameRef {
                    table_id: id,
                    old_base: base,
                    freeze_stamp: stamp,
                    index: cold.count as u32,
                    bytes: payload.len() as u64,
                    dir: dir_name.to_string(),
                    file: file_name.clone(),
                });
                cold.count += 1;
                stats.frozen_blocks += 1;
                stats.cold_bytes += payload.len() as u64;
            } else {
                // Hot / cooling / freezing: materialize the checkpoint
                // snapshot of each visible row through the MVCC read path
                // into the delta redo stream, as the frames a transaction
                // inserting it would log.
                let upper = h.insert_head().min(layout.num_slots());
                frames.clear();
                for idx in 0..upper {
                    let slot = TupleSlot::new(block.as_ptr(), idx);
                    let Some(row) = table.select(txn, slot, &all_cols) else { continue };
                    // SAFETY: the open snapshot keeps the row's varlen
                    // buffers alive: the GC frees none it could still see.
                    write_redo(&mut frames, OP_INSERT, id, slot, unsafe {
                        row.value_bytes(layout)
                    });
                    delta.count += 1;
                }
                if !frames.is_empty() {
                    stamp(&mut frames, checkpoint_ts);
                    delta.write(&frames)?;
                }
            }
        }
        if delta.count > 0 {
            let mut commit = Vec::new();
            encode_commit(&mut commit, checkpoint_ts);
            delta.write(&commit)?;
        }
        stats.delta_rows += delta.count;
        stats.delta_bytes += delta.bytes;
        if let Some(entry) = cold.finish(SegmentKind::Cold)? {
            manifest.segments.push(entry);
        }
        if let Some(entry) = delta.finish(SegmentKind::Delta)? {
            manifest.segments.push(entry);
        }
    }
    Ok(())
}

/// Fsync a directory so the renames inside it are durable. Best-effort:
/// opening a directory for sync is POSIX behavior; on platforms where it
/// fails the renames are still atomic, just not crash-ordered.
pub(crate) fn fsync_dir(dir: &Path) {
    if let Ok(f) = std::fs::File::open(dir) {
        let _ = f.sync_all();
    }
}

/// Best-effort removal of checkpoint directories (and stale tmp dirs) that
/// the just-published manifest no longer references. Failures are ignored:
/// an orphan directory wastes disk, nothing more, and the next checkpoint
/// retries. An injected crash aborts the rest of the prune, exactly like a
/// real one. `label` is the failpoint checked per removal — the checkpoint
/// writer and the chain compactor share the walk but crash independently.
pub(crate) fn prune_old(root: &Path, keep: &BTreeSet<String>, label: &str) {
    let Ok(entries) = std::fs::read_dir(root) else { return };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with("ckpt-") && !keep.contains(&name) {
            if failpoint::check(label).is_err() {
                return;
            }
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

/// Lazily-created segment file: nothing touches disk until the first write,
/// so tables with no frozen blocks (or no hot rows) produce no file and no
/// manifest entry.
struct SegmentWriter {
    dir: PathBuf,
    file_name: String,
    magic: &'static [u8; 8],
    table_id: u32,
    out: Option<std::io::BufWriter<std::fs::File>>,
    count: u64,
    bytes: u64,
}

impl SegmentWriter {
    fn new(dir: &Path, file_name: String, magic: &'static [u8; 8], table_id: u32) -> Result<Self> {
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            file_name,
            magic,
            table_id,
            out: None,
            count: 0,
            bytes: 0,
        })
    }

    fn out(&mut self) -> Result<&mut std::io::BufWriter<std::fs::File>> {
        if self.out.is_none() {
            let f = std::fs::File::create(self.dir.join(&self.file_name))?;
            let mut w = std::io::BufWriter::new(f);
            w.write_all(self.magic)?;
            w.write_all(&self.table_id.to_le_bytes())?;
            self.out = Some(w);
        }
        Ok(self.out.as_mut().unwrap())
    }

    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        self.out()?.write_all(bytes)?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn frame_header(
        &mut self,
        old_base: u64,
        freeze_stamp: u64,
        n: u32,
        bitmap: &[u8],
        payload_len: u64,
    ) -> Result<()> {
        let w = self.out()?;
        w.write_all(&old_base.to_le_bytes())?;
        w.write_all(&freeze_stamp.to_le_bytes())?;
        w.write_all(&mainline_storage::raw_block::freeze_era().to_le_bytes())?;
        w.write_all(&n.to_le_bytes())?;
        w.write_all(&(bitmap.len() as u32).to_le_bytes())?;
        w.write_all(bitmap)?;
        w.write_all(&payload_len.to_le_bytes())?;
        self.bytes += 8 + 8 + 8 + 4 + 4 + bitmap.len() as u64 + 8;
        Ok(())
    }

    fn finish(mut self, kind: SegmentKind) -> Result<Option<SegmentEntry>> {
        let Some(mut w) = self.out.take() else { return Ok(None) };
        failpoint::check("ckpt.segment.sync")?;
        w.flush()?;
        w.get_ref().sync_all()?;
        Ok(Some(SegmentEntry {
            table_id: self.table_id,
            kind,
            count: self.count,
            file: self.file_name,
        }))
    }
}
