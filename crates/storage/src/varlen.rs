//! The 16-byte `VarlenEntry` of the relaxed columnar format (paper Fig. 6).
//!
//! ```text
//! ┌──────────────┬──────────────┬────────────────────────────┐
//! │ size: u32    │ prefix: 4 B  │ pointer / inline suffix 8 B │
//! │ (top bit =   │ (first bytes │ (heap pointer, or bytes    │
//! │  ownership)  │  for filter) │  5..12 when inlined)       │
//! └──────────────┴──────────────┴────────────────────────────┘
//! ```
//!
//! * Values of ≤ 12 bytes are stored **entirely within the entry**, using
//!   the prefix and pointer fields as payload ("use the pointer field to
//!   write the suffix if the entire varlen fits within 12 bytes").
//! * Longer values keep a 4-byte prefix for fast filtering plus a pointer to
//!   an out-of-line buffer.
//! * One bit records **buffer ownership**: entries created by transactions
//!   own their heap buffer (it is freed when the superseding undo record is
//!   GC'd); entries rewritten by the gathering phase point into the block's
//!   canonical Arrow buffer and do not own it.
//!
//! Entries are plain-old-data: they are copied bitwise into undo records and
//! written back on rollback. All reclamation is coordinated by the GC, so the
//! entry itself has no `Drop`.

/// Maximum length that is stored inline (prefix 4 B + pointer field 8 B).
pub const INLINE_THRESHOLD: usize = 12;

/// Ownership bit in the size field.
const OWNED_BIT: u32 = 1 << 31;

/// A 16-byte relaxed-format varlen entry. POD; see module docs for layout.
#[derive(Clone, Copy)]
#[repr(C, align(8))]
pub struct VarlenEntry {
    size_and_flags: u32,
    prefix: [u8; 4],
    pointer: u64,
}

// The entry is POD; the pointed-to buffer's thread-safety is the engine's
// responsibility (coordinated through MVCC + GC).
unsafe impl Send for VarlenEntry {}
unsafe impl Sync for VarlenEntry {}

impl VarlenEntry {
    /// An entry for the empty string.
    pub fn empty() -> Self {
        VarlenEntry { size_and_flags: 0, prefix: [0; 4], pointer: 0 }
    }

    /// Create an entry holding `value`. Values over [`INLINE_THRESHOLD`]
    /// bytes are copied to a fresh heap buffer **owned by the entry**.
    pub fn from_bytes(value: &[u8]) -> Self {
        assert!(value.len() < (1usize << 31), "varlen too large");
        if value.len() <= INLINE_THRESHOLD {
            let mut e =
                VarlenEntry { size_and_flags: value.len() as u32, prefix: [0; 4], pointer: 0 };
            let n1 = value.len().min(4);
            e.prefix[..n1].copy_from_slice(&value[..n1]);
            if value.len() > 4 {
                // Write the suffix into the pointer field.
                let mut suffix = [0u8; 8];
                suffix[..value.len() - 4].copy_from_slice(&value[4..]);
                e.pointer = u64::from_le_bytes(suffix);
            }
            e
        } else {
            let boxed: Box<[u8]> = value.into();
            let ptr = Box::into_raw(boxed) as *mut u8;
            let mut e = VarlenEntry {
                size_and_flags: value.len() as u32 | OWNED_BIT,
                prefix: [0; 4],
                pointer: ptr as u64,
            };
            e.prefix.copy_from_slice(&value[..4]);
            e
        }
    }

    /// Create a non-owning entry pointing into an external (gathered Arrow)
    /// buffer. The caller guarantees `ptr[..len]` outlives all readers —
    /// the engine does this by keeping gathered buffers alive until a GC
    /// deferred action proves no reader can remain (§4.4).
    ///
    /// Values at or under the inline threshold are inlined instead (cheaper
    /// and removes the lifetime concern entirely).
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reads of `len` bytes, and the buffer must
    /// outlive every reader of the returned entry (see above).
    pub unsafe fn from_gathered(ptr: *const u8, len: usize) -> Self {
        if len <= INLINE_THRESHOLD {
            let slice = unsafe { std::slice::from_raw_parts(ptr, len) };
            return Self::from_bytes(slice);
        }
        let mut e = VarlenEntry {
            size_and_flags: len as u32, // not owned
            prefix: [0; 4],
            pointer: ptr as u64,
        };
        unsafe {
            std::ptr::copy_nonoverlapping(ptr, e.prefix.as_mut_ptr(), 4);
        }
        e
    }

    /// Logical length of the value in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        (self.size_and_flags & !OWNED_BIT) as usize
    }

    /// True for the empty value.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the value is stored entirely inside the entry.
    #[inline]
    pub fn is_inlined(&self) -> bool {
        self.len() <= INLINE_THRESHOLD
    }

    /// True when the entry owns its out-of-line buffer.
    #[inline]
    pub fn owns_buffer(&self) -> bool {
        self.size_and_flags & OWNED_BIT != 0
    }

    /// The 4-byte prefix (zero-padded), usable for fast filtering.
    #[inline]
    pub fn prefix(&self) -> [u8; 4] {
        self.prefix
    }

    /// View the value's bytes.
    ///
    /// # Safety
    /// For non-inlined entries the out-of-line buffer must still be alive
    /// (guaranteed by MVCC + GC while the entry is reachable).
    #[inline]
    pub unsafe fn as_slice(&self) -> &[u8] {
        let len = self.len();
        if len <= INLINE_THRESHOLD {
            // Inline: bytes 0..4 in prefix, 4.. in the pointer field. The
            // two fields are contiguous in this repr(C) struct.
            std::slice::from_raw_parts(self.prefix.as_ptr(), len)
        } else {
            std::slice::from_raw_parts(self.pointer as *const u8, len)
        }
    }

    /// View the bytes of the value whose entry image is `image`, borrowing
    /// `image` itself when the value is inlined (where [`Self::as_slice`]
    /// would borrow a copy of the entry).
    ///
    /// # Safety
    /// Same contract as [`Self::as_slice`].
    #[inline]
    pub unsafe fn image_bytes(image: &[u8; 16]) -> &[u8] {
        // Inline values fill the prefix field and run on into the pointer
        // field (see `as_slice`).
        const PREFIX_AT: usize = std::mem::offset_of!(VarlenEntry, prefix);
        // SAFETY: the entry is 16 bytes of plain integers; every bit
        // pattern is a valid value.
        let e = std::mem::transmute::<[u8; 16], VarlenEntry>(*image);
        let len = e.len();
        if len <= INLINE_THRESHOLD {
            &image[PREFIX_AT..PREFIX_AT + len]
        } else {
            // SAFETY: the caller keeps the out-of-line buffer alive.
            std::slice::from_raw_parts(e.pointer as *const u8, len)
        }
    }

    /// Copy the value out.
    ///
    /// # Safety
    /// Same contract as [`Self::as_slice`].
    pub unsafe fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Raw out-of-line pointer (0 when inlined). For GC bookkeeping.
    #[inline]
    pub fn buffer_ptr(&self) -> *mut u8 {
        if self.is_inlined() {
            std::ptr::null_mut()
        } else {
            self.pointer as *mut u8
        }
    }

    /// Free the owned out-of-line buffer, if any.
    ///
    /// # Safety
    /// Must be called at most once per owned buffer, and only when no other
    /// entry/undo-record copy can still dereference it (the GC's deferred
    /// reclamation provides this guarantee).
    pub unsafe fn free_buffer(&self) {
        if self.owns_buffer() && !self.is_inlined() {
            let len = self.len();
            let ptr = self.pointer as *mut u8;
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)));
        }
    }

    /// Bitwise equality of the 16-byte entry (not deep value equality).
    pub fn bits_eq(&self, other: &VarlenEntry) -> bool {
        self.size_and_flags == other.size_and_flags
            && self.prefix == other.prefix
            && self.pointer == other.pointer
    }
}

impl std::fmt::Debug for VarlenEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VarlenEntry(len={}, inlined={}, owned={})",
            self.len(),
            self.is_inlined(),
            self.owns_buffer()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_is_16_bytes_and_8_aligned() {
        assert_eq!(std::mem::size_of::<VarlenEntry>(), 16);
        assert_eq!(std::mem::align_of::<VarlenEntry>(), 8);
    }

    #[test]
    fn inline_roundtrip_all_lengths() {
        for len in 0..=INLINE_THRESHOLD {
            let value: Vec<u8> = (0..len as u8).map(|b| b + 1).collect();
            let e = VarlenEntry::from_bytes(&value);
            assert!(e.is_inlined());
            assert!(!e.owns_buffer());
            assert_eq!(e.len(), len);
            assert_eq!(unsafe { e.as_slice() }, &value[..]);
            assert!(e.buffer_ptr().is_null());
        }
    }

    #[test]
    fn fig6_example_inline() {
        // Fig. 6: "Database4all" (12 chars) fits entirely within the entry.
        let e = VarlenEntry::from_bytes(b"Database4all");
        assert!(e.is_inlined());
        assert_eq!(&e.prefix(), b"Data");
        assert_eq!(unsafe { e.as_slice() }, b"Database4all");
    }

    #[test]
    fn fig6_example_outline() {
        // Fig. 6: "Transactions on Arrow" (21 bytes) goes out of line with
        // prefix "Tran".
        let e = VarlenEntry::from_bytes(b"Transactions on Arrow");
        assert!(!e.is_inlined());
        assert!(e.owns_buffer());
        assert_eq!(e.len(), 21);
        assert_eq!(&e.prefix(), b"Tran");
        assert_eq!(unsafe { e.as_slice() }, b"Transactions on Arrow");
        unsafe { e.free_buffer() };
    }

    #[test]
    fn gathered_entries_do_not_own() {
        let backing = b"hello world, this is gathered".to_vec();
        let e = unsafe { VarlenEntry::from_gathered(backing.as_ptr(), backing.len()) };
        assert!(!e.owns_buffer());
        assert!(!e.is_inlined());
        assert_eq!(unsafe { e.as_slice() }, &backing[..]);
        // free_buffer on a non-owned entry is a no-op.
        unsafe { e.free_buffer() };
        assert_eq!(unsafe { e.as_slice() }, &backing[..]);
    }

    #[test]
    fn gathered_short_values_inline() {
        let backing = b"short".to_vec();
        let e = unsafe { VarlenEntry::from_gathered(backing.as_ptr(), backing.len()) };
        assert!(e.is_inlined());
        drop(backing); // inlined: no dangling reference
        assert_eq!(unsafe { e.as_slice() }, b"short");
    }

    #[test]
    fn empty_entry() {
        let e = VarlenEntry::empty();
        assert!(e.is_empty());
        assert!(e.is_inlined());
        assert_eq!(unsafe { e.as_slice() }, b"");
    }

    #[test]
    fn pod_copy_semantics() {
        let e = VarlenEntry::from_bytes(b"a longer-than-twelve value");
        let copy = e;
        assert!(copy.bits_eq(&e));
        assert_eq!(unsafe { copy.as_slice() }, unsafe { e.as_slice() });
        unsafe { e.free_buffer() };
    }

    #[test]
    fn prefix_padding_for_short_values() {
        let e = VarlenEntry::from_bytes(b"ab");
        assert_eq!(e.prefix(), [b'a', b'b', 0, 0]);
    }
}
