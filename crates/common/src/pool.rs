//! Fixed-size buffer-segment pool (paper §3.1, §3.4).
//!
//! Undo and redo buffers are linked lists of fixed-size segments "drawn from a
//! global object pool" so that installing a delta never moves earlier records.
//! The pool recycles segments to avoid allocator churn on the transaction hot
//! path.

use parking_lot::Mutex;

/// Size in bytes of one undo/redo buffer segment (paper: 4096 bytes).
pub const SEGMENT_SIZE: usize = 4096;

/// A reusable byte segment. Records are bump-allocated from `data[..len]`.
pub struct Segment {
    data: Box<[u8; SEGMENT_SIZE]>,
    len: usize,
}

impl Segment {
    fn new() -> Self {
        Segment { data: Box::new([0u8; SEGMENT_SIZE]), len: 0 }
    }

    /// Try to reserve `n` bytes aligned to `align`; returns a stable pointer.
    ///
    /// The pointer stays valid until the segment is returned to the pool
    /// (segments are never moved or resized — that is the whole point).
    pub fn reserve(&mut self, n: usize, align: usize) -> Option<*mut u8> {
        debug_assert!(align.is_power_of_two());
        let base = self.data.as_ptr() as usize;
        let start = (base + self.len + align - 1) & !(align - 1);
        let end = start - base + n;
        if end > SEGMENT_SIZE {
            return None;
        }
        self.len = end;
        Some((start) as *mut u8)
    }

    /// Bytes used so far.
    pub fn used(&self) -> usize {
        self.len
    }

    /// Reset for reuse.
    fn reset(&mut self) {
        self.len = 0;
    }
}

/// Global pool of [`Segment`]s with an upper bound on retained free segments.
pub struct SegmentPool {
    free: Mutex<Vec<Segment>>,
    max_retained: usize,
}

impl SegmentPool {
    /// Pool retaining at most `max_retained` free segments.
    pub fn new(max_retained: usize) -> Self {
        SegmentPool { free: Mutex::new(Vec::new()), max_retained }
    }

    /// Take a segment (reused if available, freshly allocated otherwise).
    pub fn acquire(&self) -> Segment {
        if let Some(mut s) = self.free.lock().pop() {
            s.reset();
            return s;
        }
        Segment::new()
    }

    /// Return a segment to the pool; drops it if the pool is full.
    pub fn release(&self, seg: Segment) {
        let mut free = self.free.lock();
        if free.len() < self.max_retained {
            free.push(seg);
        }
    }

    /// Number of retained free segments (for tests/metrics).
    pub fn retained(&self) -> usize {
        self.free.lock().len()
    }
}

impl Default for SegmentPool {
    fn default() -> Self {
        // Enough to absorb a burst of a few thousand transactions.
        SegmentPool::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_within_segment() {
        let mut s = Segment::new();
        let a = s.reserve(100, 8).unwrap();
        let b = s.reserve(100, 8).unwrap();
        assert_ne!(a, b);
        assert!(s.used() >= 200);
        // Alignment respected.
        assert_eq!(a as usize % 8, 0);
        assert_eq!(b as usize % 8, 0);
    }

    #[test]
    fn reserve_exhaustion() {
        let mut s = Segment::new();
        assert!(s.reserve(SEGMENT_SIZE, 1).is_some());
        assert!(s.reserve(1, 1).is_none());
    }

    #[test]
    fn reserve_pointer_is_stable_and_writable() {
        let mut s = Segment::new();
        let p = s.reserve(8, 8).unwrap();
        unsafe {
            (p as *mut u64).write(0xDEADBEEF);
        }
        let _ = s.reserve(64, 8).unwrap();
        unsafe {
            assert_eq!((p as *const u64).read(), 0xDEADBEEF);
        }
    }

    #[test]
    fn pool_recycles() {
        let pool = SegmentPool::new(2);
        let mut s = pool.acquire();
        s.reserve(100, 1).unwrap();
        pool.release(s);
        assert_eq!(pool.retained(), 1);
        let s2 = pool.acquire();
        assert_eq!(s2.used(), 0, "segment must be reset on reuse");
        assert_eq!(pool.retained(), 0);
    }

    #[test]
    fn pool_bounds_retention() {
        let pool = SegmentPool::new(1);
        let a = pool.acquire();
        let b = pool.acquire();
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.retained(), 1);
    }

    #[test]
    fn pool_concurrent_acquire_release() {
        use std::sync::Arc;
        let pool = Arc::new(SegmentPool::new(64));
        let mut handles = vec![];
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let mut s = pool.acquire();
                    let p = s.reserve(16, 8).unwrap();
                    unsafe { (p as *mut u64).write(7) };
                    pool.release(s);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
