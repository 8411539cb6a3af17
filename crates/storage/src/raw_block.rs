//! Raw 1 MB storage blocks, aligned at 1 MB boundaries (paper §3.2, Fig. 5).
//!
//! Alignment lets a [`crate::tuple_slot::TupleSlot`] pack the block pointer
//! and the slot offset into a single 64-bit word: the low 20 bits of any
//! block address are zero.
//!
//! The **block header** lives at the start of the block itself so the
//! transaction hot path never consults a side table:
//!
//! ```text
//! offset  0: u32  insert_head   (atomic) — next never-used slot
//! offset  4: u32  state word    (atomic) — packed residency latch:
//!                 bits 0–2  state (Hot/Cooling/Freezing/Frozen/Evicted/Faulting)
//!                 bit  3    clock reference bit (second-chance eviction)
//!                 bits 4–31 residency version (bumped on evict / fault-in)
//! offset  8: u32  reader_count  (atomic) — in-place Arrow readers (Fig. 7)
//! offset 12: u32  writer_count  (atomic) — in-flight in-place writers
//! offset 16: u64  layout pointer — *const BlockLayout owned by the table
//! offset 24: allocation bitmap, then per-column [null bitmap, data]
//! ```
//!
//! The state word is the `PageState`-style one-atomic-word latch: ordinary
//! state transitions (Hot ↔ Cooling ↔ Freezing ↔ Frozen) preserve the
//! version, while residency transitions (evict, fault-in) bump it — an
//! optimistic reader captures the word, reads block memory without pinning,
//! and re-validates the version afterwards; a version change means the bytes
//! it read may have been released mid-read and the copy must be retried.

use crate::layout::BlockLayout;
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide freeze-stamp counter (see [`Block::stamp_freeze`]). Starting
/// at 1 keeps 0 free as the "never frozen" sentinel.
static NEXT_FREEZE_STAMP: AtomicU64 = AtomicU64::new(1);

/// The process's freeze-stamp era, drawn lazily on first use (see
/// [`freeze_era`]) or adopted from a restored checkpoint manifest before
/// first use (see [`adopt_freeze_era`]).
static FREEZE_ERA: std::sync::OnceLock<u64> = std::sync::OnceLock::new();

/// A quasi-unique identifier of this *process's* freeze-stamp namespace.
///
/// Stamps are unique within one process but restart the counter at 1, and
/// block base addresses are raw allocations that can recur across runs — so
/// `(base, stamp)` alone could collide between a checkpoint manifest written
/// by a previous process and blocks frozen by this one, and an incremental
/// checkpoint would silently reuse a stale frame for different content. The
/// era (wall-clock nanos mixed with ASLR address entropy, drawn once per
/// process) is recorded in every manifest; the writer reuses frames only
/// from manifests of its own era, so cross-process diffs conservatively
/// rewrite everything.
pub fn freeze_era() -> u64 {
    *FREEZE_ERA.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let aslr = &NEXT_FREEZE_STAMP as *const _ as u64;
        // splitmix64 finalizer over the combined entropy; never 0 (the
        // "unknown era" sentinel in old/hand-built manifests).
        let mut z = nanos ^ aslr.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)).max(1)
    })
}

/// Adopt `era` as this process's freeze-stamp era. Returns `true` if the
/// process era now equals `era` — either because this call installed it
/// (restart path, called before anything froze a block) or because it was
/// already adopted earlier (e.g. a second database restored from the same
/// root).
///
/// Restart calls this with the restored manifest's era, together with
/// [`advance_freeze_stamps_past`] and [`Block::adopt_freeze_stamp`], so
/// restored blocks keep their on-disk identities and the first post-restart
/// checkpoint diffs incrementally instead of rewriting every frame. If the
/// process already drew (or adopted) a different era, adoption fails and the
/// caller must fall back to fresh stamps — conservative and correct: the
/// next checkpoint rewrites everything, exactly the pre-adoption behavior.
pub fn adopt_freeze_era(era: u64) -> bool {
    if era == 0 {
        return false;
    }
    FREEZE_ERA.set(era).is_ok() || *FREEZE_ERA.get().unwrap() == era
}

/// Advance the process-wide freeze-stamp counter past `stamp`, so stamps
/// drawn after a restart never collide with stamps adopted from the restored
/// checkpoint image (the two live in the same era after
/// [`adopt_freeze_era`]).
pub fn advance_freeze_stamps_past(stamp: u64) {
    NEXT_FREEZE_STAMP.fetch_max(stamp.saturating_add(1), Ordering::Relaxed);
}

/// Block size and alignment: 1 MB.
pub const BLOCK_SIZE: usize = 1 << 20;

/// Number of low-order zero bits in any block address.
pub const BLOCK_ALIGN_BITS: u32 = 20;

/// Bytes reserved for the fixed block header.
pub const HEADER_SIZE: usize = 24;

/// Byte offsets of the header fields.
mod header {
    pub const INSERT_HEAD: usize = 0;
    pub const STATE: usize = 4;
    pub const READER_COUNT: usize = 8;
    pub const WRITER_COUNT: usize = 12;
    pub const LAYOUT_PTR: usize = 16;
}

/// Mask of the state bits inside the packed state word.
pub const STATE_MASK: u32 = 0b111;

/// The clock/second-chance reference bit inside the packed state word. Set
/// on frozen-block access, cleared (and tested) by the eviction clock hand.
pub const REF_BIT: u32 = 1 << 3;

/// Bit position of the residency version inside the packed state word.
pub const VERSION_SHIFT: u32 = 4;

/// State bits of a packed state word.
#[inline]
pub fn word_state(word: u32) -> u32 {
    word & STATE_MASK
}

/// Residency version of a packed state word (28 bits, wrapping).
#[inline]
pub fn word_version(word: u32) -> u32 {
    word >> VERSION_SHIFT
}

/// The same word with its state bits replaced (version and reference bit
/// preserved) — ordinary lifecycle transitions.
#[inline]
pub fn word_with_state(word: u32, state: u32) -> u32 {
    (word & !STATE_MASK) | state
}

/// A word with the version bumped, the reference bit cleared, and the given
/// state bits — residency transitions (evict, fault-in completion).
#[inline]
pub fn word_bumped(word: u32, state: u32) -> u32 {
    (word_version(word).wrapping_add(1) << VERSION_SHIFT) | state
}

/// An owning handle to one raw, 1 MB-aligned, zero-initialized block.
pub struct RawBlock {
    ptr: NonNull<u8>,
}

unsafe impl Send for RawBlock {}
unsafe impl Sync for RawBlock {}

impl RawBlock {
    /// Allocate a zeroed block and stamp the layout pointer into its header.
    ///
    /// The caller must keep `layout` alive for as long as the block exists;
    /// tables guarantee this by owning both (blocks never outlive the table).
    pub fn new(layout: &Arc<BlockLayout>) -> Self {
        let mem_layout = Layout::from_size_align(BLOCK_SIZE, BLOCK_SIZE).unwrap();
        let raw = unsafe { alloc_zeroed(mem_layout) };
        let ptr = NonNull::new(raw).expect("block allocation failed");
        debug_assert_eq!(raw as usize % BLOCK_SIZE, 0, "allocator must honour 1MB alignment");
        let block = RawBlock { ptr };
        unsafe {
            (raw.add(header::LAYOUT_PTR) as *mut u64).write(Arc::as_ptr(layout) as usize as u64);
        }
        block
    }

    /// Base pointer of the block.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Recover the layout from the header.
    ///
    /// # Safety
    /// The layout Arc stamped at construction must still be alive.
    #[inline]
    pub unsafe fn layout<'a>(&self) -> &'a BlockLayout {
        layout_of(self.ptr.as_ptr())
    }
}

impl Drop for RawBlock {
    fn drop(&mut self) {
        unsafe {
            dealloc(self.ptr.as_ptr(), Layout::from_size_align(BLOCK_SIZE, BLOCK_SIZE).unwrap())
        }
    }
}

/// Read the layout pointer out of a raw block address.
///
/// # Safety
/// `block` must be a live block created by [`RawBlock::new`] whose layout is
/// still alive.
#[inline]
pub unsafe fn layout_of<'a>(block: *const u8) -> &'a BlockLayout {
    let raw = (block.add(header::LAYOUT_PTR) as *const u64).read() as usize;
    &*(raw as *const BlockLayout)
}

/// Typed access to the atomic header fields of a block address.
#[derive(Clone, Copy)]
pub struct BlockHeader {
    base: *mut u8,
}

unsafe impl Send for BlockHeader {}

impl BlockHeader {
    /// Wrap a block base address.
    ///
    /// # Safety
    /// `base` must point at a live block for the lifetime of all uses.
    #[inline]
    pub unsafe fn new(base: *mut u8) -> Self {
        BlockHeader { base }
    }

    #[inline]
    fn atomic(&self, off: usize) -> &AtomicU32 {
        unsafe { &*(self.base.add(off) as *const AtomicU32) }
    }

    /// The insert head: index of the next never-allocated slot.
    #[inline]
    pub fn insert_head(&self) -> u32 {
        self.atomic(header::INSERT_HEAD).load(Ordering::Acquire)
    }

    /// Claim `n` fresh slots; returns the first claimed index (may exceed
    /// `num_slots`, in which case the caller must try another block).
    #[inline]
    pub fn claim_slots(&self, n: u32) -> u32 {
        self.atomic(header::INSERT_HEAD).fetch_add(n, Ordering::AcqRel)
    }

    /// Set the insert head (used by recovery and compaction bookkeeping).
    #[inline]
    pub fn set_insert_head(&self, v: u32) {
        self.atomic(header::INSERT_HEAD).store(v, Ordering::Release)
    }

    /// Raw state flag (see [`crate::block_state::BlockState`]): the state
    /// bits of the packed word. SeqCst: see [`Self::writer_count`].
    #[inline]
    pub fn state_raw(&self) -> u32 {
        word_state(self.state_word())
    }

    /// The full packed state word (state bits + reference bit + residency
    /// version).
    #[inline]
    pub fn state_word(&self) -> u32 {
        self.atomic(header::STATE).load(Ordering::SeqCst)
    }

    /// Overwrite the entire packed state word (state bits + reference bit +
    /// residency version). Restore / model-checking use only — live
    /// transitions must go through the CAS helpers, which preserve the bits
    /// they do not own.
    #[inline]
    pub fn set_state_word(&self, w: u32) {
        self.atomic(header::STATE).store(w, Ordering::SeqCst);
    }

    /// Store the raw state flag, preserving the version and reference bit.
    #[inline]
    pub fn set_state_raw(&self, v: u32) {
        let _ = self
            .atomic(header::STATE)
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| Some(word_with_state(w, v)));
    }

    /// CAS on the state bits, preserving the version and reference bit.
    /// Retries internally if only the non-state bits changed underneath.
    #[inline]
    pub fn cas_state_raw(&self, from: u32, to: u32) -> bool {
        let a = self.atomic(header::STATE);
        let mut w = a.load(Ordering::SeqCst);
        loop {
            if word_state(w) != from {
                return false;
            }
            match a.compare_exchange(w, word_with_state(w, to), Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(cur) => w = cur,
            }
        }
    }

    /// CAS on the state bits that also bumps the residency version and
    /// clears the reference bit — the evict / fault-in transitions.
    #[inline]
    pub fn cas_state_bump(&self, from: u32, to: u32) -> bool {
        let a = self.atomic(header::STATE);
        let mut w = a.load(Ordering::SeqCst);
        loop {
            if word_state(w) != from {
                return false;
            }
            match a.compare_exchange(w, word_bumped(w, to), Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(cur) => w = cur,
            }
        }
    }

    /// Set the clock reference bit (recent frozen-block access).
    #[inline]
    pub fn set_ref_bit(&self) {
        self.atomic(header::STATE).fetch_or(REF_BIT, Ordering::Relaxed);
    }

    /// Clear the clock reference bit and report whether it was set — the
    /// second-chance test of the eviction clock hand.
    #[inline]
    pub fn take_ref_bit(&self) -> bool {
        self.atomic(header::STATE).fetch_and(!REF_BIT, Ordering::Relaxed) & REF_BIT != 0
    }

    /// Number of in-place readers currently in the block.
    #[inline]
    pub fn reader_count(&self) -> u32 {
        self.atomic(header::READER_COUNT).load(Ordering::Acquire)
    }

    /// Register an in-place reader.
    #[inline]
    pub fn inc_readers(&self) {
        self.atomic(header::READER_COUNT).fetch_add(1, Ordering::AcqRel);
    }

    /// Deregister an in-place reader.
    #[inline]
    pub fn dec_readers(&self) {
        self.atomic(header::READER_COUNT).fetch_sub(1, Ordering::AcqRel);
    }

    /// Number of writers currently mid-operation in the block.
    ///
    /// SeqCst pairs with the freeze path's state CAS: a writer that passed
    /// its post-increment state re-check is guaranteed visible to a freeze
    /// that follows, closing the Fig. 9 check-and-miss window even for
    /// blocks the compaction transaction never wrote to.
    #[inline]
    pub fn writer_count(&self) -> u32 {
        self.atomic(header::WRITER_COUNT).load(Ordering::SeqCst)
    }

    /// Register an in-flight writer.
    #[inline]
    pub fn inc_writers(&self) {
        self.atomic(header::WRITER_COUNT).fetch_add(1, Ordering::SeqCst);
    }

    /// Deregister an in-flight writer.
    #[inline]
    pub fn dec_writers(&self) {
        self.atomic(header::WRITER_COUNT).fetch_sub(1, Ordering::SeqCst);
    }
}

/// A block plus its side state: the owning handle used by tables.
///
/// The raw memory holds everything transactions touch; `arrow` holds the
/// canonical Arrow buffers installed by the gathering phase (§4.3), which
/// must live outside the 1 MB budget because varlen values have unbounded
/// total size.
pub struct Block {
    raw: RawBlock,
    layout: Arc<BlockLayout>,
    /// Canonical Arrow varlen storage per column, installed when frozen.
    pub arrow: crate::arrow_side::ArrowSide,
    /// Identity of the block's current frozen content: a process-unique
    /// stamp drawn on every freeze (0 = never frozen). A frozen block's
    /// bytes are immutable until a writer thaws it, and re-freezing draws a
    /// fresh stamp, so `(base address, stamp)` names one immutable content
    /// version — which is what lets incremental checkpoints skip blocks the
    /// previous checkpoint already captured. Process-wide uniqueness (one
    /// global counter, never per block) also makes the pair collision-free
    /// when an address is recycled by a later allocation.
    freeze_stamp: AtomicU64,
    /// Where this block's frozen bytes live in the checkpoint chain, if a
    /// checkpoint has captured them (see [`crate::residency`]). A block is
    /// evictable only while the recorded stamp matches [`Self::freeze_stamp`]
    /// — a thaw + refreeze makes the location stale until the next
    /// checkpoint records a fresh one.
    cold_location: parking_lot::Mutex<Option<crate::residency::ColdLocation>>,
    /// Bytes charged to the memory accountant for this block's frozen
    /// content (0 = not charged). Set at freeze, kept across evict/fault
    /// (the charge just moves between the resident and evicted gauges), and
    /// taken exactly once at thaw or table drop.
    charged_bytes: AtomicU64,
}

impl Block {
    /// Allocate a block for the given layout.
    pub fn new(layout: Arc<BlockLayout>) -> Arc<Block> {
        let raw = RawBlock::new(&layout);
        Arc::new(Block {
            raw,
            layout,
            arrow: crate::arrow_side::ArrowSide::new(),
            freeze_stamp: AtomicU64::new(0),
            cold_location: parking_lot::Mutex::new(None),
            charged_bytes: AtomicU64::new(0),
        })
    }

    /// The stamp of the current frozen content (0 if never frozen, stale if
    /// the block has been thawed since). Read it only while holding the
    /// block in a state that pins the content — e.g. under
    /// [`reader_acquire`](crate::block_state::BlockStateMachine::reader_acquire).
    #[inline]
    pub fn freeze_stamp(&self) -> u64 {
        self.freeze_stamp.load(Ordering::Acquire)
    }

    /// Draw a fresh process-unique stamp for this block's new frozen
    /// content. The freezer calls this after gathering, *before* publishing
    /// the `Frozen` state, so any reader that observes `Frozen` also
    /// observes the matching stamp.
    pub fn stamp_freeze(&self) -> u64 {
        let stamp = NEXT_FREEZE_STAMP.fetch_add(1, Ordering::Relaxed);
        self.freeze_stamp.store(stamp, Ordering::Release);
        stamp
    }

    /// Adopt a stamp restored from a checkpoint image (restart path, after a
    /// successful [`adopt_freeze_era`]): the block keeps its on-disk frozen
    /// identity, and the global counter is advanced past it so later fresh
    /// stamps cannot collide.
    pub fn adopt_freeze_stamp(&self, stamp: u64) {
        advance_freeze_stamps_past(stamp);
        self.freeze_stamp.store(stamp, Ordering::Release);
    }

    /// Where this block's frozen bytes live in the checkpoint chain, if
    /// recorded (see [`crate::residency::ColdLocation`]).
    pub fn cold_location(&self) -> Option<crate::residency::ColdLocation> {
        self.cold_location.lock().clone()
    }

    /// Record the checkpoint-chain location of this block's current frozen
    /// content. The caller must have captured `loc.stamp` while the content
    /// was pinned (reader count or exclusive state).
    pub fn set_cold_location(&self, loc: crate::residency::ColdLocation) {
        *self.cold_location.lock() = Some(loc);
    }

    /// Conditionally repoint the recorded chain location at a rewritten copy
    /// of the *same* frozen content — the chain compactor's half of the
    /// retarget protocol. The swap happens only while the currently recorded
    /// location still carries `stamp` (the content identity the compactor
    /// rewrote); a block that was thawed, refrozen, or re-checkpointed since
    /// the compactor planned keeps whatever newer location it has. Returns
    /// whether the location was replaced.
    ///
    /// The stamp guard means the replacement is an identity-preserving move:
    /// `new.stamp` must equal `stamp`, so evictability
    /// (`location stamp == live freeze stamp`) is unchanged by the swap, and
    /// a concurrent [`fault_in`]-style reader that captured the *old*
    /// location simply re-reads after its file disappears (the compactor
    /// retargets strictly before it prunes).
    ///
    /// [`fault_in`]: crate::block_state::BlockStateMachine::begin_fault
    pub fn retarget_cold_location(&self, stamp: u64, new: crate::residency::ColdLocation) -> bool {
        debug_assert_eq!(new.stamp, stamp, "retarget must preserve content identity");
        let mut slot = self.cold_location.lock();
        match slot.as_ref() {
            Some(cur) if stamp != 0 && cur.stamp == stamp => {
                *slot = Some(new);
                true
            }
            _ => false,
        }
    }

    /// Bytes currently charged to the memory accountant for this block.
    #[inline]
    pub fn charged_bytes(&self) -> u64 {
        self.charged_bytes.load(Ordering::Acquire)
    }

    /// Record the accountant charge (freeze path).
    #[inline]
    pub fn set_charged_bytes(&self, bytes: u64) {
        self.charged_bytes.store(bytes, Ordering::Release);
    }

    /// Take the accountant charge, zeroing it — idempotent, so racing
    /// thaw/drop paths debit the accountant exactly once.
    #[inline]
    pub fn take_charged_bytes(&self) -> u64 {
        self.charged_bytes.swap(0, Ordering::AcqRel)
    }

    /// Base address.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.raw.as_ptr()
    }

    /// The table layout (shared).
    #[inline]
    pub fn layout(&self) -> &Arc<BlockLayout> {
        &self.layout
    }

    /// Header accessor.
    #[inline]
    pub fn header(&self) -> BlockHeader {
        unsafe { BlockHeader::new(self.raw.as_ptr()) }
    }

    /// Measured byte footprint of this block's live contents: the
    /// fixed-size region reachable through the insert head (see
    /// [`BlockLayout::bytes_for_slots`](crate::layout::BlockLayout::bytes_for_slots))
    /// plus every out-of-line varlen buffer held by an allocated,
    /// non-NULL slot.
    ///
    /// The figure is a snapshot: concurrent writers may race the scan, so
    /// treat it as an estimate. Only the 16-byte varlen *entry* is read —
    /// never the buffer it points to — and each length is clamped to
    /// [`BLOCK_SIZE`] so a torn entry read cannot produce an absurd value.
    /// The transformation pipeline uses this to charge the pending-bytes
    /// backpressure gauge with real bytes instead of a flat 1 MB per block.
    pub fn live_bytes(&self) -> usize {
        let slots = self.header().insert_head().min(self.layout.num_slots());
        let mut bytes = self.layout.bytes_for_slots(slots);
        let base = self.as_ptr();
        for col in self.layout.varlen_cols() {
            for slot in 0..slots {
                unsafe {
                    if !crate::access::is_allocated(base, &self.layout, slot)
                        || crate::access::is_null(base, &self.layout, slot, col)
                    {
                        continue;
                    }
                    let e = crate::access::read_varlen(base, &self.layout, slot, col);
                    if !e.is_inlined() {
                        bytes += e.len().min(BLOCK_SIZE);
                    }
                }
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_common::schema::{ColumnDef, Schema};
    use mainline_common::value::TypeId;

    fn layout() -> Arc<BlockLayout> {
        Arc::new(
            BlockLayout::from_schema(&Schema::new(vec![
                ColumnDef::new("a", TypeId::BigInt),
                ColumnDef::new("b", TypeId::Varchar),
            ]))
            .unwrap(),
        )
    }

    #[test]
    fn alignment_invariant() {
        let l = layout();
        for _ in 0..4 {
            let b = RawBlock::new(&l);
            assert_eq!(b.as_ptr() as usize % BLOCK_SIZE, 0);
        }
    }

    #[test]
    fn zero_initialized() {
        let l = layout();
        let b = RawBlock::new(&l);
        let bytes = unsafe { std::slice::from_raw_parts(b.as_ptr().add(HEADER_SIZE), 4096) };
        assert!(bytes.iter().all(|&x| x == 0));
    }

    #[test]
    fn layout_pointer_roundtrip() {
        let l = layout();
        let b = RawBlock::new(&l);
        let got = unsafe { b.layout() };
        assert_eq!(got.num_slots(), l.num_slots());
        let via_fn = unsafe { layout_of(b.as_ptr()) };
        assert_eq!(via_fn.num_cols(), l.num_cols());
    }

    #[test]
    fn header_atomics() {
        let l = layout();
        let b = RawBlock::new(&l);
        let h = unsafe { BlockHeader::new(b.as_ptr()) };
        assert_eq!(h.insert_head(), 0);
        assert_eq!(h.claim_slots(3), 0);
        assert_eq!(h.claim_slots(1), 3);
        assert_eq!(h.insert_head(), 4);
        h.set_insert_head(10);
        assert_eq!(h.insert_head(), 10);

        assert_eq!(h.state_raw(), 0);
        assert!(h.cas_state_raw(0, 2));
        assert!(!h.cas_state_raw(0, 3));
        h.set_state_raw(1);
        assert_eq!(h.state_raw(), 1);

        assert_eq!(h.reader_count(), 0);
        h.inc_readers();
        h.inc_readers();
        assert_eq!(h.reader_count(), 2);
        h.dec_readers();
        assert_eq!(h.reader_count(), 1);
    }

    #[test]
    fn live_bytes_tracks_occupancy() {
        use crate::access;
        use crate::VarlenEntry;
        let b = Block::new(layout());
        // Empty block: just the header.
        assert_eq!(b.live_bytes(), HEADER_SIZE);
        let h = b.header();
        let l = b.layout().clone();
        // Claim 100 slots of fixed data: footprint is the slot prefix.
        h.claim_slots(100);
        let fixed_only = b.live_bytes();
        assert_eq!(fixed_only, l.bytes_for_slots(100));
        // An allocated out-of-line varlen adds its buffer; an inlined or
        // unallocated one does not.
        unsafe {
            access::set_allocated(b.as_ptr(), &l, 0);
            access::write_varlen(b.as_ptr(), &l, 0, 2, VarlenEntry::from_bytes(b"tiny"));
            assert_eq!(b.live_bytes(), fixed_only, "inlined varlen adds nothing");
            let long = vec![b'x'; 1000];
            let e = VarlenEntry::from_bytes(&long);
            access::write_varlen(b.as_ptr(), &l, 0, 2, e);
            assert_eq!(b.live_bytes(), fixed_only + 1000);
            // Same entry in an *unallocated* slot is not charged.
            access::write_varlen(b.as_ptr(), &l, 1, 2, e);
            assert_eq!(b.live_bytes(), fixed_only + 1000);
            e.free_buffer();
        }
    }

    #[test]
    fn concurrent_slot_claims_are_disjoint() {
        use std::collections::HashSet;
        let l = layout();
        let b = Arc::new(RawBlock::new(&l));
        let mut handles = vec![];
        for _ in 0..8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let h = unsafe { BlockHeader::new(b.as_ptr()) };
                (0..1000).map(|_| h.claim_slots(1)).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for s in h.join().unwrap() {
                assert!(seen.insert(s));
            }
        }
        assert_eq!(seen.len(), 8000);
    }
}
