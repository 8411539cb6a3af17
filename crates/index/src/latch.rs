//! Versioned node latches and the append-only key arena that back the
//! B+-tree's optimistic lock coupling.
//!
//! # The latch word
//!
//! [`VersionLatch`] packs an exclusive lock bit and a modification version
//! into one `AtomicU64` — the same packed-word discipline
//! `mainline-storage`'s residency word uses (bit 0 = lock, upper bits =
//! version, stride 2 so the version never collides with the lock bit).
//!
//! * **Readers take no latch.** They [`optimistic`](VersionLatch::optimistic)-
//!   read the word (restarting if locked), read the node through atomic
//!   loads, and then [`validate`](VersionLatch::validate) that the word is
//!   unchanged. A concurrent writer either holds the lock bit (the
//!   optimistic read refuses to start) or has already bumped the version
//!   (validation fails) — either way the reader restarts instead of acting
//!   on a torn view.
//! * **Writers** acquire the lock bit with
//!   [`try_lock_at`](VersionLatch::try_lock_at) against the exact version
//!   they validated (so a writer never locks a node that changed under its
//!   descent), mutate, and release with
//!   [`unlock_modified`](VersionLatch::unlock_modified) (version bump —
//!   this bump is what invalidates in-flight optimistic readers; the
//!   interleaving model checker in `tests/olc_interleavings.rs` proves the
//!   protocol collapses without it) or
//!   [`unlock_clean`](VersionLatch::unlock_clean) when nothing changed.
//!
//! # The key arena
//!
//! Optimistic readers dereference key bytes *before* validating, so key
//! storage must stay readable even while a racing writer rearranges the
//! node: [`KeyArena`] is an append-only bump allocator whose bytes are
//! immutable once written and freed only when the tree drops. A node slot
//! holds a `(ptr, len)` pair packed into a single `AtomicU64` (48-bit
//! pointer, 16-bit length), so a reader can never observe a torn pointer /
//! length combination — any word it loads names bytes that were once a
//! complete, published key. Removed keys' bytes are retained until the
//! tree drops (epoch-based arena reclamation is a recorded follow-up).

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};

const LOCKED: u64 = 1;
/// Versions advance by 2, keeping bit 0 free for the lock flag.
const VERSION_STRIDE: u64 = 2;

/// An exclusive latch fused with a modification version (see module docs).
#[derive(Debug, Default)]
pub struct VersionLatch {
    word: AtomicU64,
}

impl VersionLatch {
    /// A fresh, unlocked latch at version 0.
    pub const fn new() -> Self {
        VersionLatch { word: AtomicU64::new(0) }
    }

    /// Begin an optimistic read: returns the current version, or `None`
    /// when a writer holds the lock bit (the caller should restart).
    #[inline(always)]
    pub fn optimistic(&self) -> Option<u64> {
        let w = self.word.load(Ordering::Acquire);
        if w & LOCKED != 0 {
            None
        } else {
            Some(w)
        }
    }

    /// Finish an optimistic read: `true` iff the word still equals the
    /// version returned by [`optimistic`](Self::optimistic) — i.e. no
    /// writer locked or modified the node while the caller was reading.
    ///
    /// The acquire fence orders the caller's preceding data loads before
    /// the re-read (the seqlock read-side barrier).
    #[inline(always)]
    pub fn validate(&self, version: u64) -> bool {
        fence(Ordering::Acquire);
        self.word.load(Ordering::Relaxed) == version
    }

    /// Try to acquire the lock *at* the validated version: succeeds only
    /// if the word still equals `version`, so the caller knows the node is
    /// exactly what it read optimistically. On failure the caller restarts.
    #[inline(always)]
    pub fn try_lock_at(&self, version: u64) -> bool {
        debug_assert_eq!(version & LOCKED, 0, "validated versions are never locked");
        self.word
            .compare_exchange(version, version | LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Acquire the lock unconditionally (spin). Used only by the locked
    /// scan fallback, which never holds another latch while spinning — so
    /// this cannot deadlock.
    pub fn lock(&self) {
        loop {
            let w = self.word.load(Ordering::Relaxed);
            if w & LOCKED == 0
                && self
                    .word
                    .compare_exchange_weak(w, w | LOCKED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// Release the lock after a modification: clears the lock bit and
    /// bumps the version, failing every optimistic read that overlapped
    /// the critical section.
    #[inline(always)]
    pub fn unlock_modified(&self) {
        let w = self.word.load(Ordering::Relaxed);
        debug_assert_ne!(w & LOCKED, 0, "unlocking an unlocked latch");
        self.word.store((w & !LOCKED) + VERSION_STRIDE, Ordering::Release);
    }

    /// Release the lock without bumping the version — for critical
    /// sections that ended up not modifying the node (duplicate-key
    /// insert, remove of an absent key, the locked scan fallback).
    /// Readers that overlapped only the lock window still observed
    /// unchanged data, so letting them validate is sound.
    #[inline(always)]
    pub fn unlock_clean(&self) {
        let w = self.word.load(Ordering::Relaxed);
        debug_assert_ne!(w & LOCKED, 0, "unlocking an unlocked latch");
        self.word.store(w & !LOCKED, Ordering::Release);
    }

    /// Raw word access for the interleaving model checker (restore/capture
    /// of explored configurations). Not part of the latch protocol.
    #[doc(hidden)]
    pub fn raw(&self) -> u64 {
        self.word.load(Ordering::SeqCst)
    }

    /// See [`raw`](Self::raw).
    #[doc(hidden)]
    pub fn set_raw(&self, w: u64) {
        self.word.store(w, Ordering::SeqCst);
    }
}

/// Chunk size for the arena (oversized keys get a dedicated chunk).
const CHUNK_BYTES: usize = 64 << 10;

struct ArenaChunk {
    buf: Box<[UnsafeCell<u8>]>,
    used: AtomicUsize,
}

impl ArenaChunk {
    fn with_capacity(cap: usize) -> Box<ArenaChunk> {
        let buf: Vec<UnsafeCell<u8>> = (0..cap).map(|_| UnsafeCell::new(0)).collect();
        Box::new(ArenaChunk { buf: buf.into_boxed_slice(), used: AtomicUsize::new(0) })
    }
}

/// Append-only byte arena for index keys (see module docs): bytes are
/// written once, before the slot word naming them is published, and stay
/// valid until the arena drops — so optimistic readers may dereference a
/// slot word without holding any latch.
pub struct KeyArena {
    current: AtomicPtr<ArenaChunk>,
    /// Every chunk ever allocated (owned; freed on drop). Touched only on
    /// chunk rollover, never on the per-key fast path.
    chunks: Mutex<Vec<*mut ArenaChunk>>,
}

// SAFETY: the arena hands out raw pointers into heap chunks it owns until
// drop; allocation reserves disjoint ranges via `fetch_add`, and readers
// only dereference ranges published to them through release/acquire slot
// words — there is no unsynchronized aliasing.
unsafe impl Send for KeyArena {}
unsafe impl Sync for KeyArena {}

impl KeyArena {
    /// An arena with one empty chunk.
    pub fn new() -> Self {
        let first = Box::into_raw(ArenaChunk::with_capacity(CHUNK_BYTES));
        KeyArena { current: AtomicPtr::new(first), chunks: Mutex::new(vec![first]) }
    }

    /// Copy `bytes` into the arena; the returned pointer stays valid (and
    /// the bytes immutable) until the arena drops.
    pub fn alloc(&self, bytes: &[u8]) -> *const u8 {
        loop {
            let chunk_ptr = self.current.load(Ordering::Acquire);
            // SAFETY: chunks are never freed before the arena drops.
            let chunk = unsafe { &*chunk_ptr };
            let off = chunk.used.fetch_add(bytes.len(), Ordering::Relaxed);
            if off + bytes.len() <= chunk.buf.len() {
                let dst = chunk.buf[off].get();
                // SAFETY: [off, off+len) was exclusively reserved by the
                // fetch_add above; nobody else writes this range, and no
                // reader sees it before the caller publishes a slot word
                // (release) naming it.
                unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len()) };
                return dst;
            }
            // Chunk exhausted (the overshoot of `used` is harmless — every
            // later reservation fails the same way): install a fresh one.
            self.grow(chunk_ptr, bytes.len());
        }
    }

    fn grow(&self, exhausted: *mut ArenaChunk, need: usize) {
        let mut chunks = self.chunks.lock();
        // Someone else already rolled the chunk while we waited.
        if self.current.load(Ordering::Acquire) != exhausted {
            return;
        }
        let fresh = Box::into_raw(ArenaChunk::with_capacity(CHUNK_BYTES.max(need)));
        chunks.push(fresh);
        self.current.store(fresh, Ordering::Release);
    }

    /// Total bytes handed out (diagnostics; includes rollover overshoot
    /// slack of at most one reservation per exhausted chunk).
    pub fn allocated_bytes(&self) -> usize {
        let chunks = self.chunks.lock();
        chunks
            .iter()
            .map(|&c| {
                let c = unsafe { &*c };
                c.used.load(Ordering::Relaxed).min(c.buf.len())
            })
            .sum()
    }
}

impl Default for KeyArena {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for KeyArena {
    fn drop(&mut self) {
        let chunks = self.chunks.get_mut();
        for &c in chunks.iter() {
            // SAFETY: every pointer in `chunks` came from Box::into_raw and
            // is dropped exactly once, here.
            drop(unsafe { Box::from_raw(c) });
        }
        chunks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn latch_optimistic_read_sees_lock_and_bump() {
        let l = VersionLatch::new();
        let v = l.optimistic().unwrap();
        assert!(l.validate(v));
        assert!(l.try_lock_at(v));
        assert_eq!(l.optimistic(), None, "locked latch must refuse optimistic reads");
        assert!(!l.validate(v), "validation must fail while locked");
        l.unlock_modified();
        assert!(!l.validate(v), "validation must fail after a modifying unlock");
        let v2 = l.optimistic().unwrap();
        assert!(v2 > v);
    }

    #[test]
    fn latch_clean_unlock_preserves_version() {
        let l = VersionLatch::new();
        let v = l.optimistic().unwrap();
        assert!(l.try_lock_at(v));
        l.unlock_clean();
        assert!(l.validate(v), "clean unlock must let overlapping readers validate");
        // A second lock attempt at the same version still works.
        assert!(l.try_lock_at(v));
        l.unlock_modified();
        assert!(!l.try_lock_at(v), "stale version must not lock");
    }

    #[test]
    fn arena_bytes_stable_across_growth() {
        let a = KeyArena::new();
        let mut ptrs = Vec::new();
        for i in 0..5000usize {
            let bytes = vec![(i % 251) as u8; 64];
            ptrs.push((a.alloc(&bytes), bytes));
        }
        // Every allocation — including ones before chunk rollovers — must
        // still read back exactly.
        for (p, bytes) in &ptrs {
            let got = unsafe { std::slice::from_raw_parts(*p, bytes.len()) };
            assert_eq!(got, &bytes[..]);
        }
        assert!(a.allocated_bytes() >= 5000 * 64);
    }

    #[test]
    fn arena_concurrent_alloc_disjoint() {
        let a = Arc::new(KeyArena::new());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut ptrs = Vec::new();
                for i in 0..2000usize {
                    let bytes = vec![t.wrapping_mul(31).wrapping_add(i as u8); 1 + (i % 40)];
                    ptrs.push((a.alloc(&bytes) as usize, bytes));
                }
                ptrs
            }));
        }
        for h in handles {
            for (p, bytes) in h.join().unwrap() {
                let got = unsafe { std::slice::from_raw_parts(p as *const u8, bytes.len()) };
                assert_eq!(got, &bytes[..]);
            }
        }
    }

    #[test]
    fn arena_oversized_key_gets_dedicated_chunk() {
        let a = KeyArena::new();
        let big = vec![7u8; CHUNK_BYTES * 2];
        let p = a.alloc(&big);
        let got = unsafe { std::slice::from_raw_parts(p, big.len()) };
        assert_eq!(got, &big[..]);
    }
}
