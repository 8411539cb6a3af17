//! Tuple-access strategy: raw readers/writers over `(block, layout, slot)`.
//!
//! All data inside a block is reached through these functions. Attribute
//! addresses are computed in constant time from the pre-calculated layout
//! (paper §3.2). Every attribute and bitmap is 8-byte aligned, which is what
//! makes the gathering phase's concurrent in-place pointer rewrites safe
//! ("a write to any aligned 8-byte address is atomic on a modern
//! architecture", §4.3).

use crate::layout::BlockLayout;
use crate::varlen::VarlenEntry;
use mainline_common::bitmap::atomic as abit;
use mainline_common::prefetch::prefetch;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pointer to the attribute of column `col` in slot `slot`.
///
/// # Safety
/// `block` must be a live block using `layout`; `slot < layout.num_slots()`;
/// `col < layout.num_cols()`.
#[inline]
pub unsafe fn attr_ptr(block: *mut u8, layout: &BlockLayout, slot: u32, col: u16) -> *mut u8 {
    debug_assert!(slot < layout.num_slots());
    block.add(layout.column_offset(col) as usize + slot as usize * layout.attr_size(col) as usize)
}

/// The version-pointer cell of a slot, viewed as an `AtomicU64` (§3.1: the
/// version chain head lives in a hidden column).
///
/// # Safety
/// Same contract as [`attr_ptr`].
#[inline]
pub unsafe fn version_ptr(block: *mut u8, layout: &BlockLayout, slot: u32) -> &'static AtomicU64 {
    &*(attr_ptr(block, layout, slot, crate::layout::VERSION_COL) as *const AtomicU64)
}

/// Hint the cache lines a read of `slot` starts with: its version word and
/// the attributes of `cols`. The addresses are computed without
/// dereferencing anything, and a prefetch never faults, so the hint is
/// harmless on an evicted block body; on targets other than x86-64 it does
/// nothing.
#[inline]
pub fn prefetch_tuple(block: *const u8, layout: &BlockLayout, slot: u32, cols: &[u16]) {
    if slot >= layout.num_slots() {
        return;
    }
    let attr = |col: u16| {
        let off =
            layout.column_offset(col) as usize + slot as usize * layout.attr_size(col) as usize;
        block.wrapping_add(off)
    };
    prefetch(attr(crate::layout::VERSION_COL));
    for &col in cols {
        prefetch(attr(col));
    }
}

/// Read an attribute's raw image (up to 16 bytes) into `out`.
///
/// # Safety
/// Same contract as [`attr_ptr`].
#[inline]
pub unsafe fn read_attr(
    block: *mut u8,
    layout: &BlockLayout,
    slot: u32,
    col: u16,
    out: &mut [u8; 16],
) {
    let p = attr_ptr(block, layout, slot, col);
    let n = layout.attr_size(col) as usize;
    std::ptr::copy_nonoverlapping(p, out.as_mut_ptr(), n);
}

/// Write an attribute's raw image from `img`.
///
/// # Safety
/// Same contract as [`attr_ptr`]. Concurrency safety comes from the MVCC
/// protocol: only the version-chain owner writes a tuple in place.
#[inline]
pub unsafe fn write_attr(
    block: *mut u8,
    layout: &BlockLayout,
    slot: u32,
    col: u16,
    img: &[u8; 16],
) {
    let p = attr_ptr(block, layout, slot, col);
    let n = layout.attr_size(col) as usize;
    std::ptr::copy_nonoverlapping(img.as_ptr(), p, n);
}

/// Read a varlen entry by value.
///
/// # Safety
/// Same contract as [`attr_ptr`]; `col` must be a varlen column.
#[inline]
pub unsafe fn read_varlen(
    block: *mut u8,
    layout: &BlockLayout,
    slot: u32,
    col: u16,
) -> VarlenEntry {
    debug_assert!(layout.is_varlen(col));
    (attr_ptr(block, layout, slot, col) as *const VarlenEntry).read()
}

/// Overwrite a varlen entry.
///
/// # Safety
/// Same contract as [`read_varlen`].
#[inline]
pub unsafe fn write_varlen(
    block: *mut u8,
    layout: &BlockLayout,
    slot: u32,
    col: u16,
    e: VarlenEntry,
) {
    (attr_ptr(block, layout, slot, col) as *mut VarlenEntry).write(e);
}

/// NULL bit of `(slot, col)`: true = NULL.
///
/// Stored inverted relative to Arrow (Arrow bitmaps mark *valid* entries);
/// the block-to-Arrow projection flips it. A zeroed block therefore starts
/// with every attribute non-NULL, matching "insert fills all attributes".
///
/// # Safety
/// Same contract as [`attr_ptr`].
#[inline]
pub unsafe fn is_null(block: *mut u8, layout: &BlockLayout, slot: u32, col: u16) -> bool {
    abit::get(block.add(layout.bitmap_offset(col) as usize), slot as usize)
}

/// Set/clear the NULL bit.
///
/// # Safety
/// Same contract as [`attr_ptr`].
#[inline]
pub unsafe fn set_null(block: *mut u8, layout: &BlockLayout, slot: u32, col: u16, null: bool) {
    let base = block.add(layout.bitmap_offset(col) as usize);
    if null {
        abit::fetch_set(base, slot as usize);
    } else {
        abit::fetch_clear(base, slot as usize);
    }
}

/// Allocation bit of a slot: true = slot holds a (latest-version) tuple.
///
/// # Safety
/// Same contract as [`attr_ptr`].
#[inline]
pub unsafe fn is_allocated(block: *mut u8, layout: &BlockLayout, slot: u32) -> bool {
    abit::get(block.add(layout.alloc_bitmap_offset() as usize), slot as usize)
}

/// Atomically set the allocation bit; returns the previous value.
///
/// # Safety
/// Same contract as [`attr_ptr`].
#[inline]
pub unsafe fn set_allocated(block: *mut u8, layout: &BlockLayout, slot: u32) -> bool {
    abit::fetch_set(block.add(layout.alloc_bitmap_offset() as usize), slot as usize)
}

/// Atomically clear the allocation bit; returns the previous value.
///
/// # Safety
/// Same contract as [`attr_ptr`].
#[inline]
pub unsafe fn clear_allocated(block: *mut u8, layout: &BlockLayout, slot: u32) -> bool {
    abit::fetch_clear(block.add(layout.alloc_bitmap_offset() as usize), slot as usize)
}

/// Load the version-chain head with acquire ordering.
///
/// # Safety
/// Same contract as [`attr_ptr`].
#[inline]
pub unsafe fn load_version(block: *mut u8, layout: &BlockLayout, slot: u32) -> u64 {
    version_ptr(block, layout, slot).load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw_block::RawBlock;
    use mainline_common::schema::{ColumnDef, Schema};
    use mainline_common::value::TypeId;
    use std::sync::Arc;

    fn setup() -> (Arc<BlockLayout>, RawBlock) {
        let l = Arc::new(
            BlockLayout::from_schema(&Schema::new(vec![
                ColumnDef::new("a", TypeId::BigInt),
                ColumnDef::nullable("v", TypeId::Varchar),
                ColumnDef::new("c", TypeId::Integer),
            ]))
            .unwrap(),
        );
        let b = RawBlock::new(&l);
        (l, b)
    }

    #[test]
    fn attr_addresses_disjoint_and_aligned() {
        let (l, b) = setup();
        unsafe {
            let mut seen = std::collections::HashSet::new();
            for slot in [0u32, 1, 2, l.num_slots() - 1] {
                for col in 0..l.num_cols() as u16 {
                    let p = attr_ptr(b.as_ptr(), &l, slot, col) as usize;
                    assert_eq!(p % (l.attr_size(col).min(8) as usize), 0);
                    assert!(seen.insert(p), "aliased attribute address");
                    assert!(
                        p + l.attr_size(col) as usize
                            <= b.as_ptr() as usize + crate::raw_block::BLOCK_SIZE
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_attr_roundtrip() {
        let (l, b) = setup();
        unsafe {
            let mut img = [0u8; 16];
            img[..8].copy_from_slice(&0x1122334455667788u64.to_le_bytes());
            write_attr(b.as_ptr(), &l, 5, 1, &img);
            let mut out = [0u8; 16];
            read_attr(b.as_ptr(), &l, 5, 1, &mut out);
            assert_eq!(out[..8], img[..8]);
            // Neighbouring slots untouched.
            read_attr(b.as_ptr(), &l, 4, 1, &mut out);
            assert_eq!(out[..8], [0u8; 8]);
            read_attr(b.as_ptr(), &l, 6, 1, &mut out);
            assert_eq!(out[..8], [0u8; 8]);
        }
    }

    #[test]
    fn varlen_attr_roundtrip() {
        let (l, b) = setup();
        unsafe {
            let e = VarlenEntry::from_bytes(b"hello arrow storage!");
            write_varlen(b.as_ptr(), &l, 7, 2, e);
            let got = read_varlen(b.as_ptr(), &l, 7, 2);
            assert!(got.bits_eq(&e));
            assert_eq!(got.as_slice(), b"hello arrow storage!");
            e.free_buffer();
        }
    }

    #[test]
    fn null_bits() {
        let (l, b) = setup();
        unsafe {
            assert!(!is_null(b.as_ptr(), &l, 3, 2));
            set_null(b.as_ptr(), &l, 3, 2, true);
            assert!(is_null(b.as_ptr(), &l, 3, 2));
            assert!(!is_null(b.as_ptr(), &l, 2, 2));
            assert!(!is_null(b.as_ptr(), &l, 4, 2));
            set_null(b.as_ptr(), &l, 3, 2, false);
            assert!(!is_null(b.as_ptr(), &l, 3, 2));
        }
    }

    #[test]
    fn allocation_bits() {
        let (l, b) = setup();
        unsafe {
            assert!(!is_allocated(b.as_ptr(), &l, 0));
            assert!(!set_allocated(b.as_ptr(), &l, 0));
            assert!(is_allocated(b.as_ptr(), &l, 0));
            assert!(set_allocated(b.as_ptr(), &l, 0)); // idempotent, reports prior
            assert!(clear_allocated(b.as_ptr(), &l, 0));
            assert!(!is_allocated(b.as_ptr(), &l, 0));
        }
    }

    #[test]
    fn version_pointer_atomic() {
        let (l, b) = setup();
        unsafe {
            let v = version_ptr(b.as_ptr(), &l, 9);
            assert_eq!(v.load(Ordering::Relaxed), 0);
            v.store(0xABCD, Ordering::Release);
            assert_eq!(load_version(b.as_ptr(), &l, 9), 0xABCD);
            // Distinct per slot.
            assert_eq!(load_version(b.as_ptr(), &l, 8), 0);
        }
    }
}
