//! Cache prefetch hints for walks that know their next addresses early.
//!
//! A batched point read (the B+-tree's `probe_many` and the table layer's
//! `lookup_many_cols`) knows the next node or row of every key in its group
//! one step before it reads it. Hinting those lines lets the group's cache
//! misses overlap instead of being paid one after another. A hint never
//! faults, so any address is fine, even one into an evicted block body; on
//! targets other than x86-64 the hints compile to nothing.

/// Bytes per cache line on the targets the hint is emitted for.
pub const CACHE_LINE: usize = 64;

/// Hint that the cache line holding `p` will be read soon.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint; it never faults or reads into Rust's
    // view of memory, whatever the address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Hint every cache line of `[p, p + len)`.
#[inline(always)]
pub fn prefetch_bytes(p: *const u8, len: usize) {
    let mut off = 0;
    while off < len {
        prefetch(p.wrapping_add(off));
        off += CACHE_LINE;
    }
}
