//! Cold-block residency: the storage half of the buffer manager.
//!
//! Frozen blocks are immutable, canonical Arrow — and once a checkpoint has
//! captured one, its bytes have a durable on-disk home in the checkpoint
//! generation chain. That makes residency *optional*: under memory pressure
//! the eviction clock releases a frozen block's column memory
//! ([`evict_block`]) and an access faults it back from its recorded
//! [`ColdLocation`] (the fault path lives in `mainline-checkpoint`, which
//! can read the chain; this crate only provides the latch transitions and
//! the memory release).
//!
//! **In-place eviction.** Tuple slots and index entries embed raw block
//! addresses, so an evicted block keeps its 1 MB virtual allocation and its
//! first page (header + leading bitmap bytes) resident; only the body pages
//! are released (`madvise(MADV_DONTNEED)` on Unix, explicit zeroing
//! elsewhere) together with the gathered Arrow side buffers, which hold all
//! frozen varlen payload. Fault-in rebuilds the same bytes at the same
//! address, so nothing pointing at the block ever moves.
//!
//! **Accounting.** A [`MemoryAccountant`] tracks the bytes charged for
//! frozen content against a configurable budget
//! (`DbConfig::memory_budget_bytes`, or the `evicted` engine profile). The transform
//! pipeline charges on freeze; thaw, eviction, fault-in, and table drop move
//! or release the charge. The eviction clock runs whenever the resident
//! gauge is over budget.

use crate::arrow_side::GatheredColumn;
use crate::block_state::BlockStateMachine;
use crate::raw_block::{Block, BLOCK_SIZE};
use mainline_obs::{Counter, MetricSet, MetricsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes of the block kept resident across eviction: the first page holds
/// the header (insert head, packed state word, counters, layout pointer) and
/// the leading bitmap bytes, all of which must survive while the body is
/// released.
pub const RESIDENT_HEAD_BYTES: usize = 4096;

/// Where a frozen block's bytes live in the checkpoint generation chain:
/// `(generation dir, segment file, frame index)` plus the payload size and
/// the freeze stamp the frame captured. Recorded by the checkpoint writer
/// (and by restart's loader); a block is evictable only while `stamp` still
/// equals its live freeze stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdLocation {
    /// Checkpoint directory name under the root (e.g. `ckpt-…`).
    pub dir: String,
    /// Cold segment file inside that directory.
    pub file: String,
    /// Frame index within the file.
    pub index: u32,
    /// IPC payload bytes of the frame.
    pub bytes: u64,
    /// Freeze stamp of the captured content.
    pub stamp: u64,
}

/// Point-in-time snapshot of the accountant (see
/// `Database::memory_stats()` at the database layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Configured budget in bytes (`u64::MAX` = unlimited).
    pub budget_bytes: u64,
    /// Bytes currently charged for resident frozen content.
    pub resident_bytes: u64,
    /// Bytes currently evicted (on disk only).
    pub evicted_bytes: u64,
    /// Blocks evicted since startup.
    pub evictions: u64,
    /// Blocks faulted back in since startup.
    pub faults: u64,
}

/// The per-database memory accountant: frozen-content bytes vs. budget.
/// It is also the buffer manager's [`MetricSet`]: the `memory_*` gauges
/// and the `buffer_evictions`/`buffer_faults` counters.
///
/// All updates are saturating — a racing thaw/refreeze pair can transiently
/// observe either order, and the gauges must never underflow.
#[derive(Debug)]
pub struct MemoryAccountant {
    budget: AtomicU64,
    resident: AtomicU64,
    evicted: AtomicU64,
    /// Blocks evicted since startup.
    evictions: Counter,
    /// Blocks faulted back in since startup.
    faults: Counter,
}

impl MemoryAccountant {
    /// New accountant; `None` = unlimited budget.
    pub fn new(budget: Option<u64>) -> Self {
        MemoryAccountant {
            budget: AtomicU64::new(budget.unwrap_or(u64::MAX)),
            resident: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            evictions: Counter::new("buffer_evictions"),
            faults: Counter::new("buffer_faults"),
        }
    }

    /// The configured budget (`u64::MAX` = unlimited).
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Bytes currently charged as resident frozen content.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Whether the resident gauge exceeds the budget — the eviction clock's
    /// trigger condition.
    pub fn over_budget(&self) -> bool {
        self.resident_bytes() > self.budget()
    }

    /// A block froze with `bytes` of content (charge enters the resident
    /// gauge).
    pub fn on_freeze(&self, bytes: u64) {
        self.resident.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A frozen block thawed back to Hot (charge leaves entirely — hot
    /// blocks are governed by the transform backpressure gauge instead).
    pub fn on_thaw(&self, bytes: u64) {
        saturating_sub(&self.resident, bytes);
    }

    /// A frozen block's memory was released (charge moves resident →
    /// evicted).
    pub fn on_evict(&self, bytes: u64) {
        saturating_sub(&self.resident, bytes);
        self.evicted.fetch_add(bytes, Ordering::Relaxed);
        self.evictions.inc();
        mainline_obs::record_event(mainline_obs::kind::EVICTION, bytes, 0);
    }

    /// An evicted block was faulted back in (charge moves evicted →
    /// resident).
    pub fn on_fault(&self, bytes: u64) {
        saturating_sub(&self.evicted, bytes);
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        self.faults.inc();
    }

    /// A charged block was dropped with its table; `evicted` says which
    /// gauge held the charge.
    pub fn on_drop(&self, bytes: u64, evicted: bool) {
        saturating_sub(if evicted { &self.evicted } else { &self.resident }, bytes);
    }

    /// Snapshot for stats surfaces.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            budget_bytes: self.budget(),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            evicted_bytes: self.evicted.load(Ordering::Relaxed),
            evictions: self.evictions.get(),
            faults: self.faults.get(),
        }
    }
}

impl MetricSet for MemoryAccountant {
    fn collect(&self, snap: &mut MetricsSnapshot) {
        let s = self.stats();
        snap.push_gauge("memory_budget_bytes", s.budget_bytes.min(i64::MAX as u64) as i64);
        snap.push_gauge("memory_resident_bytes", s.resident_bytes as i64);
        snap.push_gauge("memory_evicted_bytes", s.evicted_bytes as i64);
        self.evictions.collect(snap);
        self.faults.collect(snap);
    }
}

fn saturating_sub(gauge: &AtomicU64, bytes: u64) {
    let _ =
        gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(bytes)));
}

/// Release the body pages of a block, keeping the first
/// [`RESIDENT_HEAD_BYTES`] (header + leading bitmap bytes) resident.
///
/// On Unix this is `madvise(MADV_DONTNEED)` — the kernel reclaims the
/// physical pages and the next touch reads zeros. Elsewhere the body is
/// explicitly zeroed, which frees nothing but keeps the read-as-zero
/// semantics identical (and keeps the fault/validation protocol honest on
/// every platform).
///
/// # Safety
/// `base` must be the 1 MB-aligned base of a live block, and the caller must
/// hold the block in the exclusive `Evicted` state with all pinned readers
/// drained — concurrent *optimistic* readers are fine (they see zeros and
/// fail their version validation).
pub unsafe fn release_block_body(base: *mut u8) {
    let body = base.add(RESIDENT_HEAD_BYTES);
    let len = BLOCK_SIZE - RESIDENT_HEAD_BYTES;
    #[cfg(unix)]
    {
        const MADV_DONTNEED: core::ffi::c_int = 4;
        extern "C" {
            fn madvise(
                addr: *mut core::ffi::c_void,
                length: usize,
                advice: core::ffi::c_int,
            ) -> core::ffi::c_int;
        }
        if madvise(body.cast(), len, MADV_DONTNEED) == 0 {
            return;
        }
        // Fall through to zeroing if the kernel refused (e.g. locked
        // memory): semantics stay identical, only the reclaim is lost.
    }
    std::ptr::write_bytes(body, 0, len);
}

/// Evict one frozen block: claim it (Frozen → Faulting, version bump —
/// exclusive, so no concurrent fault-in can rebuild mid-teardown), drain
/// pinned readers, detach the gathered Arrow buffers, release the body
/// pages in place, and only then publish Evicted.
///
/// Returns the detached buffers on success — the **caller must defer-drop
/// them through the GC's epoch queue**, because optimistic readers that
/// began under an older residency version may still be copying out of them;
/// an open transaction pins the epoch until such readers finish. Returns
/// `None` (and does nothing) if the block is not evictable: not Frozen, not
/// yet captured by a checkpoint, captured under a stale freeze stamp, or
/// holding live MVCC versions the GC has yet to prune (the version column
/// must scan clean — the GC CASes version pointers through block memory, so
/// an evicted block must have *no versions to prune*; the claim is reverted
/// with [`BlockStateMachine::abort_evict`] and the clock hand moves on).
#[must_use = "detached buffers must be defer-dropped via the GC"]
pub fn evict_block(block: &Block) -> Option<Vec<Arc<GatheredColumn>>> {
    let loc = block.cold_location()?;
    if loc.stamp == 0 || loc.stamp != block.freeze_stamp() {
        return None; // thawed + refrozen since the checkpoint: frame is stale
    }
    let h = block.header();
    if !BlockStateMachine::begin_evict(h) {
        return None;
    }
    // A reader registered before our claim may still be mid-read; drain it
    // exactly like a thawing writer does. New readers fail (state is not
    // Frozen), so the count can only fall.
    while h.reader_count() > 0 {
        std::hint::spin_loop();
    }
    // With the block exclusively claimed, scan the version column. A frozen
    // block normally has none — freezing required a clean column — but a
    // writer may have thawed, updated, and refrozen concurrently with our
    // claim, or aborted leaving an undo record the GC still needs to unlink
    // through this memory. Any live version forbids the release.
    let layout = block.layout();
    let n = h.insert_head().min(layout.num_slots());
    for slot in 0..n {
        if unsafe { crate::access::load_version(block.as_ptr(), layout, slot) } != 0 {
            BlockStateMachine::abort_evict(h);
            return None;
        }
    }
    let buffers = block.arrow.take_all();
    unsafe { release_block_body(block.as_ptr()) };
    BlockStateMachine::finish_evict(h);
    Some(buffers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_state::{BlockState, BlockStateMachine};
    use crate::layout::BlockLayout;
    use crate::raw_block::HEADER_SIZE;
    use mainline_common::schema::{ColumnDef, Schema};
    use mainline_common::value::TypeId;

    fn frozen_block() -> Arc<Block> {
        let layout = Arc::new(
            BlockLayout::from_schema(&Schema::new(vec![ColumnDef::new("a", TypeId::BigInt)]))
                .unwrap(),
        );
        let b = Block::new(layout);
        let h = b.header();
        h.set_insert_head(4);
        BlockStateMachine::begin_cooling(h);
        BlockStateMachine::begin_freezing(h);
        b.stamp_freeze();
        BlockStateMachine::finish_freezing(h);
        b
    }

    fn location_for(b: &Block) -> ColdLocation {
        ColdLocation {
            dir: "ckpt-0".into(),
            file: "table-1.cold".into(),
            index: 0,
            bytes: 128,
            stamp: b.freeze_stamp(),
        }
    }

    #[test]
    fn accountant_gauges_move_and_saturate() {
        let acc = MemoryAccountant::new(Some(1000));
        assert!(!acc.over_budget());
        acc.on_freeze(600);
        acc.on_freeze(600);
        assert!(acc.over_budget());
        acc.on_evict(600);
        let s = acc.stats();
        assert_eq!((s.resident_bytes, s.evicted_bytes, s.evictions), (600, 600, 1));
        assert!(!acc.over_budget());
        acc.on_fault(600);
        let s = acc.stats();
        assert_eq!((s.resident_bytes, s.evicted_bytes, s.faults), (1200, 0, 1));
        // Saturation: a double-debit cannot underflow.
        acc.on_thaw(5000);
        assert_eq!(acc.stats().resident_bytes, 0);
        acc.on_drop(1, true);
        assert_eq!(acc.stats().evicted_bytes, 0);
    }

    #[test]
    fn evict_requires_fresh_location() {
        let b = frozen_block();
        // No location recorded: not evictable.
        assert!(evict_block(&b).is_none());
        // Stale stamp: not evictable.
        let mut loc = location_for(&b);
        loc.stamp = loc.stamp.wrapping_add(7);
        b.set_cold_location(loc);
        assert!(evict_block(&b).is_none());
        assert_eq!(BlockStateMachine::state(b.header()), BlockState::Frozen);
    }

    #[test]
    fn evict_releases_body_and_bumps_version() {
        let b = frozen_block();
        // Plant a recognizable byte in the body (past the resident head).
        unsafe { b.as_ptr().add(RESIDENT_HEAD_BYTES + 10).write(0xAB) };
        b.set_cold_location(location_for(&b));
        let h = b.header();
        let v0 = BlockStateMachine::optimistic_read_begin(h).unwrap();
        let bufs = evict_block(&b).expect("evictable");
        assert!(bufs.is_empty()); // no varlen columns were gathered
        assert_eq!(BlockStateMachine::state(h), BlockState::Evicted);
        // Version bumped: the pre-evict optimistic read must fail, and a new
        // one must refuse to start.
        assert!(!BlockStateMachine::optimistic_read_validate(h, v0));
        assert!(BlockStateMachine::optimistic_read_begin(h).is_none());
        // Body reads as zero; header survived.
        assert_eq!(unsafe { b.as_ptr().add(RESIDENT_HEAD_BYTES + 10).read() }, 0);
        assert_eq!(h.insert_head(), 4);
        // Second eviction is a no-op.
        assert!(evict_block(&b).is_none());
    }

    #[test]
    fn evict_aborts_on_live_versions() {
        // A nonzero version pointer means the GC still needs to prune
        // through this block's memory: the claim must be reverted and the
        // block must remain a readable, still-evictable Frozen block.
        let b = frozen_block();
        b.set_cold_location(location_for(&b));
        let h = b.header();
        unsafe {
            crate::access::version_ptr(b.as_ptr(), b.layout(), 2)
                .store(0xDEAD, std::sync::atomic::Ordering::Release)
        };
        assert!(evict_block(&b).is_none());
        assert_eq!(BlockStateMachine::state(h), BlockState::Frozen);
        // Once the column is clean again (GC pruned), eviction proceeds.
        unsafe {
            crate::access::version_ptr(b.as_ptr(), b.layout(), 2)
                .store(0, std::sync::atomic::Ordering::Release)
        };
        assert!(evict_block(&b).is_some());
        assert_eq!(BlockStateMachine::state(h), BlockState::Evicted);
    }

    #[test]
    fn fault_protocol_roundtrip() {
        let b = frozen_block();
        b.set_cold_location(location_for(&b));
        let h = b.header();
        let _ = evict_block(&b).unwrap();
        assert!(BlockStateMachine::begin_fault(h));
        assert!(!BlockStateMachine::begin_fault(h)); // exclusive
        assert_eq!(BlockStateMachine::state(h), BlockState::Faulting);
        // Readers and optimistic readers wait out the rebuild.
        assert!(!BlockStateMachine::reader_acquire(h));
        assert!(BlockStateMachine::optimistic_read_begin(h).is_none());
        BlockStateMachine::finish_fault(h);
        assert_eq!(BlockStateMachine::state(h), BlockState::Frozen);
        assert!(BlockStateMachine::reader_acquire(h));
        BlockStateMachine::reader_release(h);
    }

    #[test]
    fn abort_fault_returns_to_evicted() {
        let b = frozen_block();
        b.set_cold_location(location_for(&b));
        let _ = evict_block(&b).unwrap();
        let h = b.header();
        assert!(BlockStateMachine::begin_fault(h));
        BlockStateMachine::abort_fault(h);
        assert_eq!(BlockStateMachine::state(h), BlockState::Evicted);
        assert!(BlockStateMachine::begin_fault(h)); // still faultable
    }

    #[test]
    fn resident_head_preserves_leading_bitmap_bytes() {
        // Everything below RESIDENT_HEAD_BYTES must survive eviction; the
        // header plus the first bitmap bytes live there by construction.
        const { assert!(HEADER_SIZE < RESIDENT_HEAD_BYTES) }
        assert_eq!(RESIDENT_HEAD_BYTES % 4096, 0, "madvise needs page alignment");
    }
}
