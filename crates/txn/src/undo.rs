//! Undo buffers and undo records (paper §3.1).
//!
//! "The DBMS assigns each transaction an undo buffer as an append-only
//! row-store for deltas. [...] The system implements undo buffers as a linked
//! list of fixed-sized segments (currently 4096 bytes) and incrementally adds
//! new segments as needed." Records are never moved once written, because the
//! version chains point physically into the buffer.
//!
//! A record's wire-in-memory layout (8-byte aligned, all fields POD):
//!
//! ```text
//! 0..8   next       AtomicU64 — older record (0 = end of chain)
//! 8..16  timestamp  AtomicU64 — txn id while running, commit ts after
//! 16..24 slot       u64       — TupleSlot raw
//! 24..28 table_id   u32
//! 28..32 kind/ncols AtomicU16 (kind + flags) + u16
//! 32..   ncols × DeltaCol { col: u16, null: u8, pad: [u8;5], image: [u8;16] }
//! ```

use mainline_common::pool::{Segment, SegmentPool, SEGMENT_SIZE};
use mainline_common::Timestamp;
use mainline_storage::projected_row::AttrImage;
use mainline_storage::TupleSlot;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};

/// What a record undoes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum UndoKind {
    /// Before-image of an in-place attribute update.
    Update = 0,
    /// The tuple did not exist before (rollback clears the allocation bit).
    Insert = 1,
    /// The tuple existed before (rollback sets the allocation bit).
    Delete = 2,
}

const HEADER_SIZE: usize = 32;
const DELTA_COL_SIZE: usize = 24;

/// Flag bits beside the kind: the record's transaction yields to user
/// writers (compaction, §4.3); it aborted.
const YIELDS: u16 = 1 << 15;
const ABORTED: u16 = 1 << 14;
const KIND_MASK: u16 = ABORTED - 1;

/// One delta column inside an undo record.
#[repr(C)]
struct RawDeltaCol {
    col: u16,
    null: u8,
    /// 1 when the image is a `VarlenEntry` (the GC must not reinterpret
    /// fixed-length images as entries — a fixed value can look "owned").
    varlen: u8,
    _pad: [u8; 4],
    image: [u8; 16],
}

/// A non-owning reference to an undo record living in some undo buffer.
///
/// Records are only dereferenced while their owning transaction object is
/// alive (GC keeps transactions alive until no reader can reach them).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct UndoRecordRef(*mut u8);

unsafe impl Send for UndoRecordRef {}
unsafe impl Sync for UndoRecordRef {}

impl UndoRecordRef {
    /// Rebuild from a raw version-pointer value. `None` for 0.
    #[inline]
    pub fn from_raw(raw: u64) -> Option<Self> {
        if raw == 0 {
            None
        } else {
            Some(UndoRecordRef(raw as *mut u8))
        }
    }

    /// The raw pointer value stored in version-pointer columns.
    #[inline]
    pub fn as_raw(self) -> u64 {
        self.0 as u64
    }

    #[inline]
    fn next_cell(self) -> &'static AtomicU64 {
        unsafe { &*(self.0 as *const AtomicU64) }
    }

    #[inline]
    fn ts_cell(self) -> &'static AtomicU64 {
        unsafe { &*(self.0.add(8) as *const AtomicU64) }
    }

    /// Next (older) record in the chain.
    #[inline]
    pub fn next(self) -> Option<UndoRecordRef> {
        Self::from_raw(self.next_cell().load(Ordering::Acquire))
    }

    /// Overwrite the next pointer (GC truncation).
    #[inline]
    pub fn set_next_raw(self, raw: u64) {
        self.next_cell().store(raw, Ordering::Release)
    }

    /// The record's timestamp (txn id while uncommitted).
    #[inline]
    pub fn timestamp(self) -> Timestamp {
        Timestamp(self.ts_cell().load(Ordering::Acquire))
    }

    /// Publish a new timestamp (commit / abort-republish).
    #[inline]
    pub fn set_timestamp(self, ts: Timestamp) {
        self.ts_cell().store(ts.0, Ordering::Release)
    }

    /// Slot this record belongs to.
    #[inline]
    pub fn slot(self) -> TupleSlot {
        TupleSlot::from_raw(unsafe { (self.0.add(16) as *const u64).read() })
    }

    /// Table id (for the WAL and debugging).
    #[inline]
    pub fn table_id(self) -> u32 {
        unsafe { (self.0.add(24) as *const u32).read() }
    }

    #[inline]
    fn kind_cell(self) -> &'static AtomicU16 {
        // SAFETY: as for `ts_cell`: the record outlives every reference to
        // it, and bytes 28..30 are 2-aligned (records are 8-aligned).
        unsafe { &*(self.0.add(28) as *const AtomicU16) }
    }

    /// Record kind.
    #[inline]
    pub fn kind(self) -> UndoKind {
        match self.kind_cell().load(Ordering::Relaxed) & KIND_MASK {
            0 => UndoKind::Update,
            1 => UndoKind::Insert,
            2 => UndoKind::Delete,
            k => unreachable!("corrupt undo kind {k}"),
        }
    }

    #[inline]
    fn has(self, flag: u16) -> bool {
        self.kind_cell().load(Ordering::Acquire) & flag != 0
    }

    /// Whether the record's transaction yields to user writers.
    pub(crate) fn yields(self) -> bool {
        self.has(YIELDS)
    }

    /// Mark the record rolled back; set before the abort republishes its
    /// timestamp, so a reader of that timestamp sees the mark.
    pub(crate) fn mark_aborted(self) {
        self.kind_cell().fetch_or(ABORTED, Ordering::Release);
    }

    /// Whether the record's transaction rolled back.
    pub(crate) fn aborted(self) -> bool {
        self.has(ABORTED)
    }

    /// Number of delta columns.
    #[inline]
    pub fn ncols(self) -> usize {
        unsafe { (self.0.add(30) as *const u16).read() as usize }
    }

    #[inline]
    fn delta_ptr(self, i: usize) -> *mut RawDeltaCol {
        debug_assert!(i < self.ncols());
        unsafe { self.0.add(HEADER_SIZE + i * DELTA_COL_SIZE) as *mut RawDeltaCol }
    }

    /// Read delta column `i` as an attribute image.
    pub fn delta(self, i: usize) -> AttrImage {
        unsafe {
            let d = &*self.delta_ptr(i);
            AttrImage { col: d.col, null: d.null != 0, image: d.image }
        }
    }

    /// Whether delta `i`'s image is a varlen entry.
    pub fn delta_is_varlen(self, i: usize) -> bool {
        unsafe { (*self.delta_ptr(i)).varlen != 0 }
    }

    /// Clear the varlen ownership bit inside delta `i`'s image (used by the
    /// abort path after ownership of the buffer returns to the table).
    pub fn clear_delta_ownership(self, i: usize) {
        unsafe {
            let d = &mut *self.delta_ptr(i);
            // Image layout = VarlenEntry: size_and_flags is the first u32.
            let flags = u32::from_le_bytes(d.image[0..4].try_into().unwrap());
            d.image[0..4].copy_from_slice(&(flags & !(1u32 << 31)).to_le_bytes());
        }
    }

    /// Iterate all delta images.
    pub fn deltas(self) -> impl Iterator<Item = AttrImage> {
        (0..self.ncols()).map(move |i| self.delta(i))
    }

    /// Byte size of a record with `ncols` delta columns.
    pub fn byte_size(ncols: usize) -> usize {
        HEADER_SIZE + ncols * DELTA_COL_SIZE
    }
}

impl std::fmt::Debug for UndoRecordRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "UndoRecord({:p}, {:?}, {:?}, slot={:?}, ncols={})",
            self.0,
            self.kind(),
            self.timestamp(),
            self.slot(),
            self.ncols()
        )
    }
}

/// An append-only undo buffer: a linked list of pool segments.
pub struct UndoBuffer {
    segments: Vec<Segment>,
    /// Creation-ordered record pointers (for rollback and GC iteration).
    records: Vec<UndoRecordRef>,
}

impl UndoBuffer {
    /// Empty buffer (allocates lazily).
    pub fn new() -> Self {
        UndoBuffer { segments: Vec::new(), records: Vec::new() }
    }

    /// Reserve and initialize a record; returns its stable reference.
    ///
    /// `deltas` carries the before-images for `Update` records (empty for
    /// insert/delete records).
    #[allow(clippy::too_many_arguments)] // mirrors the undo-record header fields
    pub fn new_record(
        &mut self,
        pool: &SegmentPool,
        txn_id: Timestamp,
        slot: TupleSlot,
        table_id: u32,
        kind: UndoKind,
        yields: bool,
        deltas: &[AttrImage],
        varlen_flags: &[bool],
        next_raw: u64,
    ) -> UndoRecordRef {
        debug_assert_eq!(deltas.len(), varlen_flags.len());
        let size = UndoRecordRef::byte_size(deltas.len());
        assert!(size <= SEGMENT_SIZE, "delta too wide for a segment");
        let ptr = loop {
            if let Some(seg) = self.segments.last_mut() {
                if let Some(p) = seg.reserve(size, 8) {
                    break p;
                }
            }
            self.segments.push(pool.acquire());
        };
        unsafe {
            (ptr as *mut u64).write(next_raw);
            (ptr.add(8) as *mut u64).write(txn_id.0);
            (ptr.add(16) as *mut u64).write(slot.raw());
            (ptr.add(24) as *mut u32).write(table_id);
            (ptr.add(28) as *mut u16).write(kind as u16 | if yields { YIELDS } else { 0 });
            (ptr.add(30) as *mut u16).write(deltas.len() as u16);
            for (i, d) in deltas.iter().enumerate() {
                let dc = ptr.add(HEADER_SIZE + i * DELTA_COL_SIZE) as *mut RawDeltaCol;
                (*dc).col = d.col;
                (*dc).null = d.null as u8;
                (*dc).varlen = varlen_flags[i] as u8;
                (*dc)._pad = [0; 4];
                (*dc).image = d.image;
            }
        }
        let r = UndoRecordRef(ptr);
        self.records.push(r);
        r
    }

    /// Records in creation order.
    pub fn records(&self) -> &[UndoRecordRef] {
        &self.records
    }

    /// Forget the most recently created record (used when a version-pointer
    /// CAS loses the race and the record was never published — its segment
    /// space is simply abandoned, since records can never move).
    pub fn pop_last(&mut self) {
        self.records.pop();
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were written.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Return the backing segments to the pool. Only the GC may call this,
    /// once no chain or reader can reference the records.
    pub fn release_segments(&mut self, pool: &SegmentPool) {
        self.records.clear();
        for seg in self.segments.drain(..) {
            pool.release(seg);
        }
    }
}

impl Default for UndoBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot() -> TupleSlot {
        TupleSlot::from_raw(5 << 20 | 3)
    }

    #[test]
    fn record_roundtrip() {
        let pool = SegmentPool::default();
        let mut buf = UndoBuffer::new();
        let deltas = [
            AttrImage { col: 1, null: false, image: [7u8; 16] },
            AttrImage { col: 3, null: true, image: [0u8; 16] },
        ];
        let r = buf.new_record(
            &pool,
            Timestamp(9).as_txn_id(),
            slot(),
            42,
            UndoKind::Update,
            false,
            &deltas,
            &[false, false],
            0,
        );
        assert_eq!(r.kind(), UndoKind::Update);
        assert_eq!(r.slot(), slot());
        assert_eq!(r.table_id(), 42);
        assert_eq!(r.ncols(), 2);
        assert!(r.timestamp().is_uncommitted());
        assert_eq!(r.next(), None);
        let d0 = r.delta(0);
        assert_eq!((d0.col, d0.null), (1, false));
        assert_eq!(d0.image, [7u8; 16]);
        let d1 = r.delta(1);
        assert_eq!((d1.col, d1.null), (3, true));
    }

    #[test]
    fn chain_linking() {
        let pool = SegmentPool::default();
        let mut buf = UndoBuffer::new();
        let r1 = buf.new_record(
            &pool,
            Timestamp(1).as_txn_id(),
            slot(),
            0,
            UndoKind::Insert,
            false,
            &[],
            &[],
            0,
        );
        let r2 = buf.new_record(
            &pool,
            Timestamp(1).as_txn_id(),
            slot(),
            0,
            UndoKind::Update,
            false,
            &[],
            &[],
            r1.as_raw(),
        );
        assert_eq!(r2.next(), Some(r1));
        r2.set_next_raw(0);
        assert_eq!(r2.next(), None);
    }

    #[test]
    fn timestamp_publishing() {
        let pool = SegmentPool::default();
        let mut buf = UndoBuffer::new();
        let r = buf.new_record(
            &pool,
            Timestamp(5).as_txn_id(),
            slot(),
            0,
            UndoKind::Delete,
            false,
            &[],
            &[],
            0,
        );
        assert!(r.timestamp().is_uncommitted());
        r.set_timestamp(Timestamp(77));
        assert_eq!(r.timestamp(), Timestamp(77));
        assert!(!r.timestamp().is_uncommitted());
    }

    #[test]
    fn segment_overflow_allocates_more() {
        let pool = SegmentPool::default();
        let mut buf = UndoBuffer::new();
        // Each record is 32 + 24*4 = 128 bytes; 4096/128 = 32 per segment.
        let deltas = [AttrImage { col: 1, null: false, image: [0; 16] }; 4];
        let refs: Vec<_> = (0..100)
            .map(|_| {
                buf.new_record(
                    &pool,
                    Timestamp(1).as_txn_id(),
                    slot(),
                    0,
                    UndoKind::Update,
                    false,
                    &deltas,
                    &[false; 4],
                    0,
                )
            })
            .collect();
        assert!(buf.segments.len() >= 3, "segments: {}", buf.segments.len());
        // All records stay valid (stable addresses).
        for r in &refs {
            assert_eq!(r.ncols(), 4);
        }
        assert_eq!(buf.len(), 100);
        buf.release_segments(&pool);
        assert!(buf.is_empty());
        assert!(pool.retained() >= 3);
    }

    #[test]
    fn clear_delta_ownership_flips_only_top_bit() {
        use mainline_storage::VarlenEntry;
        let pool = SegmentPool::default();
        let mut buf = UndoBuffer::new();
        let e = VarlenEntry::from_bytes(b"a value long enough to be owned");
        assert!(e.owns_buffer());
        let img = mainline_storage::projected_row::AttrImage::from_varlen(2, false, e);
        let r = buf.new_record(
            &pool,
            Timestamp(1).as_txn_id(),
            slot(),
            0,
            UndoKind::Update,
            false,
            &[img],
            &[true],
            0,
        );
        assert!(r.delta_is_varlen(0));
        assert!(!r.delta_is_varlen(0) || r.delta(0).as_varlen().owns_buffer());
        r.clear_delta_ownership(0);
        let after = r.delta(0).as_varlen();
        assert!(!after.owns_buffer());
        assert_eq!(after.len(), e.len());
        assert_eq!(unsafe { after.as_slice() }, unsafe { e.as_slice() });
        unsafe { e.free_buffer() };
    }
}
