//! Size-tiered generation GC for the checkpoint chain — the copying
//! compactor (ISSUE 8, ROADMAP direction 3).
//!
//! Incremental checkpoints reference unchanged frames wherever they already
//! live, so a generation directory survives while *any* published frame —
//! including an evicted block's recorded
//! [`ColdLocation`] — still points into it.
//! Under churn that policy leaks: a generation whose frames are slowly
//! superseded keeps its full on-disk footprint for its last live frame, and
//! restart / fault-in walk an ever-deeper chain. This module bounds the
//! chain the way an LSM store bounds its runs (size-tiered, STCS-style):
//!
//! * **Accounting** ([`chain_generations`]): for every generation the live
//!   manifest references, live bytes = the payload bytes of the manifest
//!   frames still pointing there; total bytes = the directory's on-disk
//!   footprint (superseded frames, stale delta segments, and the old
//!   generation's own MANIFEST are all dead weight).
//! * **Bucketing** ([`CompactionPolicy`]): a generation becomes a victim on
//!   either trigger — its **dead ratio** crosses
//!   [`min_dead_ratio`](CompactionPolicy::min_dead_ratio) (space reclaim),
//!   or its **size tier** (power-of-two bucket of total bytes) accumulates
//!   [`tier_merge_count`](CompactionPolicy::tier_merge_count) generations
//!   (depth bound: many similarly-sized mostly-live generations merge into
//!   one, exactly the STCS compaction trigger).
//! * **Copying rewrite**: every *surviving* frame of every victim is copied
//!   — envelope verbatim, payload byte-identical — into a fresh generation
//!   directory (`ckpt-<ts>-gc<seq>`), so the zero-transformation claim is
//!   untouched: the rewritten frame still serves restarts, fault-ins, and
//!   Flight export with the exact bytes the freeze produced.
//! * **Atomic republish**: the live manifest is rewritten **in place**
//!   (tmp + rename inside the `CURRENT` directory — `CURRENT` itself never
//!   moves) with the victims' frame references retargeted to the fresh
//!   generation. A crash before the rename leaves the old manifest and an
//!   unreferenced new directory (garbage, pruned by the next pass); after
//!   the rename the chain is already consistent.
//! * **Retarget, then prune** — the liveness invariant: *no generation a
//!   published manifest or a recorded `ColdLocation` references is ever
//!   deleted.* After the republish, every block whose recorded location
//!   points at a rewritten frame is retargeted
//!   ([`Block::retarget_cold_location`]) under its stamp guard, and only
//!   then are the victims removed. A concurrent fault-in that captured the
//!   *old* location before the prune simply retries: it re-reads the
//!   location after the failed read, finds the retargeted one (retarget
//!   happens strictly before prune), and rebuilds from the fresh copy —
//!   see [`fault_in_block`](crate::restore::fault_in_block), and the
//!   `retarget_interleavings` model check that walks every interleaving of
//!   the two protocols.
//!
//! Every externally visible file operation goes through
//! [`mainline_common::failpoint`] (`compact.*` labels plus the shared
//! `manifest.*` ones), so the crash-matrix battery extends to the compactor:
//! a kill after any operation must leave `CURRENT` resolving to a whole
//! manifest whose every referenced frame still exists.
//!
//! [`Block::retarget_cold_location`]: mainline_storage::raw_block::Block::retarget_cold_location

use crate::manifest::FrameRef;
use crate::restore::read_cold_frames;
use crate::writer::{fsync_dir, prune_old, COLD_MAGIC};
use mainline_common::{failpoint, Error, Result};
use mainline_storage::ColdLocation;
use mainline_txn::DataTable;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// When to rewrite which generations (see the module docs for the two
/// triggers). Defaults are deliberately conservative; the database layer
/// takes tighter settings from the `compacted` engine profile for CI forcing.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionPolicy {
    /// Space trigger: a generation whose dead-byte fraction (1 − live/total)
    /// reaches this becomes a victim.
    pub min_dead_ratio: f64,
    /// Depth trigger: a power-of-two size tier holding this many generations
    /// is merged wholesale, live ratio notwithstanding (bounds chain depth
    /// to roughly `tier_merge_count · log₂(data)` generations). Clamped to
    /// at least 2 — merging single generations into themselves forever
    /// would be pure write amplification.
    pub tier_merge_count: usize,
    /// At most this many generations are rewritten per pass (bounds pass
    /// latency; the dirtiest victims go first, the rest wait their turn).
    pub max_batch: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { min_dead_ratio: 0.35, tier_merge_count: 4, max_batch: 8 }
    }
}

/// Per-generation accounting, as [`chain_generations`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationInfo {
    /// Directory name under the checkpoint root.
    pub dir: String,
    /// On-disk bytes of every file in the directory.
    pub total_bytes: u64,
    /// Payload bytes of the live manifest's frames that point here.
    pub live_bytes: u64,
    /// Number of live frames pointing here.
    pub live_frames: usize,
    /// Whether this is the `CURRENT` directory (holds the live manifest and
    /// delta segments; never a compaction victim).
    pub current: bool,
}

impl GenerationInfo {
    /// Live fraction of the on-disk footprint (1.0 for an empty directory).
    pub fn live_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            1.0
        } else {
            (self.live_bytes.min(self.total_bytes)) as f64 / self.total_bytes as f64
        }
    }

    /// Dead fraction — the reclaim available by rewriting the survivors.
    pub fn dead_ratio(&self) -> f64 {
        1.0 - self.live_ratio()
    }
}

/// What one compaction pass did (or found nothing to do).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompactionStats {
    /// Generations the pass examined (the live chain, minus `CURRENT`).
    pub generations_examined: usize,
    /// Victim generations rewritten and pruned.
    pub generations_compacted: usize,
    /// Surviving frames copied into the fresh generation.
    pub frames_rewritten: usize,
    /// Bytes written into the fresh generation (envelopes + payload).
    pub bytes_rewritten: u64,
    /// On-disk bytes of the victims, net of the rewrite — the reclaim.
    pub bytes_reclaimed: u64,
    /// Live-ratio histogram over the examined generations: bucket `i` counts
    /// generations with `live_ratio ∈ [i/10, (i+1)/10)` (bucket 9 includes
    /// fully live).
    pub live_ratio_histogram: [u64; 10],
    /// The fresh generation directory, when one was published.
    pub dir: Option<PathBuf>,
    /// Wall-clock seconds the pass took.
    pub duration_secs: f64,
}

/// Account every generation of the live chain under `root`: the directories
/// the `CURRENT` manifest references, plus the `CURRENT` directory itself.
/// Returns an empty list when no checkpoint has been published yet.
pub fn chain_generations(root: &Path) -> Result<Vec<GenerationInfo>> {
    let (cur_dir, manifest) = match crate::restore::read_manifest(root) {
        Ok(v) => v,
        Err(Error::NotFound(_)) => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let current_name =
        cur_dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let mut dirs: BTreeSet<String> = manifest.referenced_dirs();
    dirs.insert(current_name.clone());

    let mut live: BTreeMap<String, (u64, usize)> = BTreeMap::new();
    for f in &manifest.frames {
        let e = live.entry(f.dir.clone()).or_insert((0, 0));
        e.0 += f.bytes;
        e.1 += 1;
    }
    let mut out = Vec::new();
    for dir in dirs {
        let total = dir_bytes(&root.join(&dir));
        let (live_bytes, live_frames) = live.get(&dir).copied().unwrap_or((0, 0));
        out.push(GenerationInfo {
            current: dir == current_name,
            dir,
            total_bytes: total,
            live_bytes,
            live_frames,
        });
    }
    Ok(out)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Pick the victims of one pass. Pure policy, split out so tests (and the
/// stats surface) can interrogate it without touching disk beyond the
/// accounting.
pub fn plan_victims(policy: &CompactionPolicy, gens: &[GenerationInfo]) -> Vec<String> {
    let tier_merge = policy.tier_merge_count.max(2);
    let candidates: Vec<&GenerationInfo> = gens.iter().filter(|g| !g.current).collect();
    let mut victims: BTreeSet<&str> = candidates
        .iter()
        .filter(|g| g.dead_ratio() >= policy.min_dead_ratio)
        .map(|g| g.dir.as_str())
        .collect();
    // Size tiers: bucket by the bit length of total bytes (power-of-two
    // tiers, the classic STCS shape). A full tier merges wholesale.
    let mut tiers: BTreeMap<u32, Vec<&GenerationInfo>> = BTreeMap::new();
    for g in &candidates {
        tiers.entry(64 - g.total_bytes.max(1).leading_zeros()).or_default().push(g);
    }
    for members in tiers.values().filter(|m| m.len() >= tier_merge) {
        victims.extend(members.iter().map(|g| g.dir.as_str()));
    }
    // Dirtiest first, then older (lexically smaller) names, then cap.
    let mut ordered: Vec<&GenerationInfo> =
        candidates.iter().filter(|g| victims.contains(g.dir.as_str())).copied().collect();
    ordered.sort_by(|a, b| {
        let da = a.total_bytes.saturating_sub(a.live_bytes);
        let db = b.total_bytes.saturating_sub(b.live_bytes);
        db.cmp(&da).then_with(|| a.dir.cmp(&b.dir))
    });
    ordered.truncate(policy.max_batch);
    ordered.into_iter().map(|g| g.dir.clone()).collect()
}

/// One lazily-created cold segment of the fresh generation. Unlike the
/// checkpoint writer's segment writer this copies envelopes **verbatim** —
/// in particular each frame's original freeze *era*, which identifies the
/// process that froze the content, not the one compacting it.
struct RewriteSegment {
    path: PathBuf,
    file_name: String,
    table_id: u32,
    out: Option<std::io::BufWriter<std::fs::File>>,
    count: u32,
    bytes: u64,
}

impl RewriteSegment {
    fn new(dir: &Path, table_id: u32) -> RewriteSegment {
        let file_name = format!("table-{table_id}.cold");
        RewriteSegment {
            path: dir.join(&file_name),
            file_name,
            table_id,
            out: None,
            count: 0,
            bytes: 0,
        }
    }

    fn append(&mut self, frame: &crate::restore::ColdFrame) -> Result<u32> {
        if self.out.is_none() {
            failpoint::check("compact.segment.create")?;
            let mut w = std::io::BufWriter::new(std::fs::File::create(&self.path)?);
            w.write_all(COLD_MAGIC)?;
            w.write_all(&self.table_id.to_le_bytes())?;
            self.bytes += 12;
            self.out = Some(w);
        }
        failpoint::check("compact.frame.write")?;
        let w = self.out.as_mut().unwrap();
        w.write_all(&frame.old_base.to_le_bytes())?;
        w.write_all(&frame.freeze_stamp.to_le_bytes())?;
        w.write_all(&frame.freeze_era.to_le_bytes())?;
        w.write_all(&frame.n.to_le_bytes())?;
        w.write_all(&(frame.alloc.len() as u32).to_le_bytes())?;
        w.write_all(&frame.alloc)?;
        w.write_all(&(frame.payload.len() as u64).to_le_bytes())?;
        w.write_all(&frame.payload)?;
        self.bytes += 36 + frame.alloc.len() as u64 + frame.payload.len() as u64;
        let index = self.count;
        self.count += 1;
        Ok(index)
    }

    fn finish(self) -> Result<u64> {
        let Some(mut w) = self.out else { return Ok(0) };
        failpoint::check("compact.segment.sync")?;
        w.flush()?;
        w.get_ref().sync_all()?;
        Ok(self.bytes)
    }
}

/// Run one compaction pass over the chain under `root`.
///
/// `tables` is the live table set (the database layer's catalog snapshot):
/// after the republish, any of their blocks whose recorded
/// [`ColdLocation`] still points at a rewritten frame is retargeted to the
/// fresh copy *before* the victims are pruned — the buffer-manager half of
/// the liveness invariant. Runs with no checkpoint writer concurrently (the
/// database layer serializes both behind its checkpoint lock).
///
/// Returns zeroed stats when there is no published checkpoint or the policy
/// finds no victims; never an error for "nothing to do".
pub fn compact_chain(
    root: &Path,
    policy: &CompactionPolicy,
    tables: &[Arc<DataTable>],
) -> Result<CompactionStats> {
    let t0 = std::time::Instant::now();
    let mut stats = CompactionStats::default();
    let (cur_dir, manifest) = match crate::restore::read_manifest(root) {
        Ok(v) => v,
        Err(Error::NotFound(_)) => return Ok(stats),
        Err(e) => return Err(e),
    };
    let current_name =
        cur_dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();

    let gens = chain_generations(root)?;
    for g in gens.iter().filter(|g| !g.current) {
        stats.generations_examined += 1;
        let bucket = ((g.live_ratio() * 10.0) as usize).min(9);
        stats.live_ratio_histogram[bucket] += 1;
    }
    let victims: BTreeSet<String> = plan_victims(policy, &gens).into_iter().collect();
    if victims.is_empty() {
        stats.duration_secs = t0.elapsed().as_secs_f64();
        return Ok(stats);
    }
    let victim_bytes: u64 =
        gens.iter().filter(|g| victims.contains(&g.dir)).map(|g| g.total_bytes).sum();

    // Fresh generation name: monotonic `-gc<seq>` suffix past every existing
    // directory, so a retrying pass can never collide with (or resurrect the
    // name of) an earlier one that is still referenced.
    let seq = next_gc_seq(root)?;
    let new_name = format!("ckpt-{:020}-gc{seq}", manifest.checkpoint_ts.0);
    let tmp_dir = root.join(format!("{new_name}.tmp"));
    let final_dir = root.join(&new_name);
    let _ = std::fs::remove_dir_all(&tmp_dir);
    std::fs::create_dir_all(&tmp_dir)?;

    // Copy every surviving frame of every victim, grouped by source file so
    // each is read exactly once. Iteration order is the manifest's frame
    // order — deterministic, which the crash battery's op counting relies
    // on.
    let mut by_src: Vec<((String, String), Vec<usize>)> = Vec::new();
    for (i, f) in manifest.frames.iter().enumerate() {
        if !victims.contains(&f.dir) {
            continue;
        }
        let key = (f.dir.clone(), f.file.clone());
        match by_src.iter_mut().find(|(k, _)| *k == key) {
            Some((_, refs)) => refs.push(i),
            None => by_src.push((key, vec![i])),
        }
    }
    let mut new_manifest = manifest.clone();
    let mut segments: BTreeMap<u32, RewriteSegment> = BTreeMap::new();
    // (table, stamp) → fresh location, for the block retarget below.
    let mut retargets: HashMap<(u32, u64), ColdLocation> = HashMap::new();
    for ((dir_name, file), refs) in by_src {
        let frames = read_cold_frames(&root.join(&dir_name).join(&file))?;
        for i in refs {
            let fref = &manifest.frames[i];
            let frame = frames.get(fref.index as usize).ok_or_else(|| {
                Error::Corrupt(format!(
                    "compaction: manifest references frame {} of {dir_name}/{file}, which has \
                     only {}",
                    fref.index,
                    frames.len()
                ))
            })?;
            // Same identity rule as the loader: base must match unless the
            // (era-unique, nonzero) stamp does — a reused frame that crossed
            // a restart carries the current process's base in the manifest.
            let stamp_match = frame.freeze_stamp != 0 && frame.freeze_stamp == fref.freeze_stamp;
            if frame.table_id != fref.table_id || (frame.old_base != fref.old_base && !stamp_match)
            {
                return Err(Error::Corrupt(format!(
                    "compaction: frame {} of {dir_name}/{file} is (table {}, base {:#x}, stamp \
                     {}), manifest says (table {}, base {:#x}, stamp {})",
                    fref.index,
                    frame.table_id,
                    frame.old_base,
                    frame.freeze_stamp,
                    fref.table_id,
                    fref.old_base,
                    fref.freeze_stamp
                )));
            }
            let seg = segments
                .entry(fref.table_id)
                .or_insert_with(|| RewriteSegment::new(&tmp_dir, fref.table_id));
            let new_index = seg.append(frame)?;
            new_manifest.frames[i] = FrameRef {
                index: new_index,
                dir: new_name.clone(),
                file: seg.file_name.clone(),
                ..fref.clone()
            };
            if fref.freeze_stamp != 0 {
                retargets.insert(
                    (fref.table_id, fref.freeze_stamp),
                    ColdLocation {
                        dir: new_name.clone(),
                        file: seg.file_name.clone(),
                        index: new_index,
                        bytes: fref.bytes,
                        stamp: fref.freeze_stamp,
                    },
                );
            }
            stats.frames_rewritten += 1;
        }
    }
    for (_id, seg) in segments {
        stats.bytes_rewritten += seg.finish()?;
    }

    // Publish the fresh generation, then republish the manifest in place.
    // Order matters: the retargeted manifest must never reference a
    // directory that is not durably on disk.
    failpoint::check("compact.tmpdir.fsync")?;
    fsync_dir(&tmp_dir);
    let _ = std::fs::remove_dir_all(&final_dir);
    failpoint::check("compact.dir.rename")?;
    std::fs::rename(&tmp_dir, &final_dir)?;
    failpoint::check("compact.root.fsync")?;
    fsync_dir(root);
    new_manifest.write_to(&cur_dir.join("MANIFEST"))?;
    failpoint::check("compact.manifest.dirfsync")?;
    fsync_dir(&cur_dir);

    // The rewrite is live. Repoint every block whose recorded location still
    // names a rewritten frame — under the stamp guard, so a block that was
    // thawed/refrozen since keeps its own (stale-anyway) location — and only
    // *then* prune. A fault-in racing this window retries off the updated
    // location (see the module docs).
    for table in tables {
        let id = table.id();
        for block in table.blocks() {
            let Some(loc) = block.cold_location() else { continue };
            if !victims.contains(&loc.dir) {
                continue;
            }
            if let Some(new_loc) = retargets.get(&(id, loc.stamp)) {
                block.retarget_cold_location(loc.stamp, new_loc.clone());
            }
        }
    }

    let mut keep = new_manifest.referenced_dirs();
    keep.insert(current_name);
    prune_old(root, &keep, "compact.prune.remove");

    stats.generations_compacted = victims.len();
    stats.bytes_reclaimed = victim_bytes.saturating_sub(stats.bytes_rewritten);
    stats.dir = Some(final_dir);
    stats.duration_secs = t0.elapsed().as_secs_f64();
    Ok(stats)
}

/// The next unused `-gc<seq>` suffix under `root`: one past the largest seen
/// on any existing directory (pruned numbers are only reused once every
/// larger-numbered generation is gone too, and never while referenced —
/// `compact_chain` names strictly monotonically within a chain's lifetime).
fn next_gc_seq(root: &Path) -> Result<u64> {
    let mut max_seen = 0u64;
    for e in std::fs::read_dir(root)?.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let Some(pos) = name.rfind("-gc") else { continue };
        if let Ok(n) = name[pos + 3..].trim_end_matches(".tmp").parse::<u64>() {
            max_seen = max_seen.max(n + 1);
        }
    }
    Ok(max_seen.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(dir: &str, total: u64, live: u64, current: bool) -> GenerationInfo {
        GenerationInfo {
            dir: dir.into(),
            total_bytes: total,
            live_bytes: live,
            live_frames: (live > 0) as usize,
            current,
        }
    }

    #[test]
    fn dead_ratio_trigger_picks_mostly_dead_generations() {
        let policy = CompactionPolicy { min_dead_ratio: 0.5, tier_merge_count: 99, max_batch: 8 };
        let gens = vec![
            gen("ckpt-1", 1000, 100, false), // 90% dead
            gen("ckpt-2", 1000, 900, false), // 10% dead
            gen("ckpt-3", 1000, 400, false), // 60% dead
            gen("ckpt-4", 1000, 0, true),    // CURRENT: never a victim
        ];
        assert_eq!(plan_victims(&policy, &gens), vec!["ckpt-1".to_string(), "ckpt-3".into()]);
    }

    #[test]
    fn tier_trigger_merges_a_full_size_tier() {
        // Four ~1 KB generations, fully live: the ratio trigger never fires,
        // the tier trigger merges them all (depth bound).
        let policy = CompactionPolicy { min_dead_ratio: 0.9, tier_merge_count: 4, max_batch: 8 };
        let gens = vec![
            gen("ckpt-1", 1100, 1100, false),
            gen("ckpt-2", 1200, 1200, false),
            gen("ckpt-3", 1300, 1300, false),
            gen("ckpt-4", 1400, 1400, false),
            gen("ckpt-5", 1 << 20, 1 << 20, false), // different tier, alone
            gen("ckpt-6", 500, 0, true),
        ];
        let v = plan_victims(&policy, &gens);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(!v.contains(&"ckpt-5".to_string()));
    }

    #[test]
    fn max_batch_caps_a_pass_dirtiest_first() {
        let policy = CompactionPolicy { min_dead_ratio: 0.1, tier_merge_count: 99, max_batch: 2 };
        let gens = vec![
            gen("ckpt-1", 1000, 800, false), // 200 dead
            gen("ckpt-2", 1000, 100, false), // 900 dead
            gen("ckpt-3", 1000, 500, false), // 500 dead
        ];
        assert_eq!(plan_victims(&policy, &gens), vec!["ckpt-2".to_string(), "ckpt-3".into()]);
    }

    #[test]
    fn tier_merge_count_clamps_to_two() {
        // A pathological count of 1 would rewrite every generation on every
        // pass forever; the clamp keeps singleton tiers alone.
        let policy = CompactionPolicy { min_dead_ratio: 2.0, tier_merge_count: 1, max_batch: 8 };
        let gens = vec![gen("ckpt-1", 1000, 1000, false), gen("ckpt-2", 1 << 20, 1 << 20, false)];
        assert!(plan_victims(&policy, &gens).is_empty());
    }

    #[test]
    fn gc_seq_is_monotonic_past_existing_names() {
        let mut root = std::env::temp_dir();
        root.push(format!("mainline-gcseq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("ckpt-00000000000000000007-gc3.tmp")).unwrap();
        std::fs::create_dir_all(root.join("ckpt-00000000000000000009-gc11")).unwrap();
        std::fs::create_dir_all(root.join("ckpt-00000000000000000009")).unwrap();
        assert_eq!(next_gc_seq(&root).unwrap(), 12);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        assert_eq!(next_gc_seq(&root).unwrap(), 1, "fresh roots start at 1");
        let _ = std::fs::remove_dir_all(&root);
    }
}
