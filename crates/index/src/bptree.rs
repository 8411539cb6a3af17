//! Concurrent B+-tree with optimistic lock coupling (OLC).
//!
//! # Concurrency protocol
//!
//! Every node carries a [`VersionLatch`] — one
//! word packing an exclusive lock bit with a modification version — and the
//! root *pointer* carries its own latch, closing the stale-root window the
//! old crabbing tree had (it released the root-pointer lock before latching
//! the root node, so a racing root split could strand a reader in the stale
//! left half and lose a present key).
//!
//! * **Readers take no latches.** A descent reads each node through atomic
//!   loads under an optimistic version, and the child handshake is:
//!   obtain the child's version, then re-validate the parent — so the child
//!   pointer is known to have been current. Any conflict (locked latch or
//!   bumped version) restarts the descent from the root. Restart cost is
//!   bounded by tree height; restarts are counted in
//!   `index_descent_restarts`.
//! * **Writers descend optimistically too**, then latch just the leaf (at
//!   its validated version, so a changed leaf fails the lock and restarts).
//!   Structural changes are *preemptive*: a writer that is about to enter a
//!   full child latches parent + child (both at validated versions), splits,
//!   and restarts — so descents never enter a full node and a leaf latch
//!   always has room for the insert. A full root is split under the
//!   root-pointer latch, which is version-bumped exactly like a node so
//!   in-flight readers of the old root pointer fail validation.
//! * **Deletes are lazy** (no merging), so a leaf's low bound is immutable:
//!   splits only move a leaf's *upper* half right, which is what makes the
//!   leaf-level next-pointer chain safe to walk during scans.
//! * **Scans** capture one leaf at a time: snapshot the packed slot words
//!   under an optimistic version, validate, then emit — so the user
//!   callback never runs on a torn view and never needs undoing. After a
//!   few failed optimistic captures a scan takes the leaf latch briefly
//!   (`index_scan_fallbacks`) instead of restarting forever.
//!
//! # Why latch-free reads are sound here
//!
//! All reader-visible node state is atomic, and nothing a reader can load
//! ever dangles:
//!
//! * a key slot is one `AtomicU64` packing `(len << 48) | ptr` into the
//!   append-only [`KeyArena`], so a reader can
//!   never see a torn pointer/length pair, and the bytes behind any
//!   once-published word are immutable and live until the tree drops;
//! * child/next pointers only ever hold nodes that are never freed before
//!   the tree drops (splits allocate, deletes don't rebalance);
//! * values are single `u64` words ([`IndexValue`]).
//!
//! A reader acting on a stale mixture of those words is caught by version
//! validation and restarts; the point of the invariants above is that the
//! stale read itself is memory-safe.
//!
//! # Inner-node comparisons: head truncation
//!
//! Each slot also stores the key's *head* — its first 8 bytes, zero-padded,
//! as a big-endian `u64`. Unequal heads order exactly like the full keys
//! (the head is a zero-padded prefix, and `KeyBuilder`'s encoding is
//! memcmp-ordered), so a binary-search probe is usually one integer compare
//! and only falls back to full key bytes on equal heads.

use crate::latch::{KeyArena, VersionLatch};
use crate::obs::{lookup_done, lookup_done_each, lookup_sample, IndexMetrics};
use mainline_common::prefetch::{prefetch, prefetch_bytes};
use mainline_obs::Counter;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Max keys per node before a preemptive split.
const NODE_CAPACITY: usize = 64;

/// Optimistic capture attempts per leaf before a scan takes the latch.
const SCAN_OPTIMISTIC_TRIES: usize = 3;

/// Keys that [`BPlusTree::probe_many`] walks down the tree together: enough
/// independent misses to fill the core's outstanding-miss slots, few enough
/// that a key's prefetched lines are still cached when its turn comes.
pub const PROBE_GROUP: usize = 16;

type Key = Vec<u8>;

/// One leaf's captured `(key word, value word)` pairs.
type LeafSnap = [(u64, u64); NODE_CAPACITY];

/// A value storable in the tree: packed into one atomic 64-bit word so
/// readers can load it without latching. The engine's indexes map keys to
/// `TupleSlot` ids (`u64`), which is exactly this shape.
pub trait IndexValue: Copy + Send + Sync + 'static {
    /// Pack into the slot word.
    fn to_word(self) -> u64;
    /// Unpack from the slot word (inverse of [`to_word`](Self::to_word)).
    fn from_word(w: u64) -> Self;
}

/// What [`BPlusTree::probe_many`] decided for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<V> {
    /// The value of the first entry at or after the key; that entry's key
    /// starts with the probe key.
    Found(V),
    /// No entry's key starts with the probe key.
    Absent,
    /// The walk could not decide: a validation failed, or the first entry
    /// at or after the key would lie past the leaf it captured. Seek the
    /// key on its own ([`BPlusTree::seek_prefix`]).
    Undecided,
}

/// Where one key of a batched probe stands. Each stage ends by prefetching
/// what the next one reads, so a group's misses are in flight together.
#[derive(Clone, Copy)]
enum Stage {
    /// At a node whose version is held and whose heads are prefetched:
    /// search it.
    Search,
    /// Load child pointer `idx` of the current inner node.
    Child(usize),
    /// The handshake into this child: its version, then the parent's
    /// validation.
    Enter(*const Node),
    /// Read leaf value `pos` and validate the leaf.
    Value(usize),
    Done,
}

impl IndexValue for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> Self {
        w
    }
}

impl IndexValue for u32 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as u32
    }
}

impl IndexValue for i64 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as i64
    }
}

impl IndexValue for usize {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as usize
    }
}

/// First 8 key bytes, zero-padded, as a big-endian word (see module docs).
#[inline]
fn head_of(key: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = key.len().min(8);
    b[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(b)
}

/// Pack an arena key reference into one word: `(len << 48) | ptr`.
#[inline]
fn pack_key(ptr: *const u8, len: usize) -> u64 {
    assert!(len < (1 << 16), "index keys are limited to 64 KiB");
    let p = ptr as u64;
    debug_assert_eq!(p >> 48, 0, "userspace pointers fit in 48 bits");
    ((len as u64) << 48) | p
}

/// Reconstruct the key slice a packed word names.
///
/// # Safety
/// `w` must be zero or a word produced by [`pack_key`] over bytes that are
/// still live — which every word ever stored into a tree slot is, because
/// arena bytes outlive the tree.
#[inline]
unsafe fn unpack_key<'a>(w: u64) -> &'a [u8] {
    if w == 0 {
        &[]
    } else {
        let ptr = (w & ((1 << 48) - 1)) as *const u8;
        let len = (w >> 48) as usize;
        std::slice::from_raw_parts(ptr, len)
    }
}

/// Kind-specific node storage. The discriminant is fixed at allocation
/// (splits create new nodes; a node never changes kind), so readers may
/// match on it without holding the latch.
enum Body {
    Leaf {
        /// Packed value words, parallel to `keys`.
        vals: Box<[AtomicU64]>,
        /// Right sibling (null at the rightmost leaf). Low bounds are
        /// immutable, so this chain only ever grows rightward.
        next: AtomicPtr<Node>,
    },
    Inner {
        /// `children[i]` holds keys `< keys[i]`; `children[count]` the rest.
        /// `NODE_CAPACITY + 1` slots.
        children: Box<[AtomicPtr<Node>]>,
    },
}

struct Node {
    latch: VersionLatch,
    /// Live slots in `[0, NODE_CAPACITY]`. Readers clamp before indexing;
    /// a torn count is caught by validation.
    count: AtomicUsize,
    /// Head-truncated keys (first 8 bytes, big-endian, zero-padded).
    heads: Box<[AtomicU64]>,
    /// Packed arena references for the full keys.
    keys: Box<[AtomicU64]>,
    body: Body,
}

fn atomic_u64_array(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

fn atomic_ptr_array(n: usize) -> Box<[AtomicPtr<Node>]> {
    (0..n).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect()
}

impl Node {
    fn new(leaf: bool) -> Box<Node> {
        Box::new(Node {
            latch: VersionLatch::new(),
            count: AtomicUsize::new(0),
            heads: atomic_u64_array(NODE_CAPACITY),
            keys: atomic_u64_array(NODE_CAPACITY),
            body: if leaf {
                Body::Leaf {
                    vals: atomic_u64_array(NODE_CAPACITY),
                    next: AtomicPtr::new(std::ptr::null_mut()),
                }
            } else {
                Body::Inner { children: atomic_ptr_array(NODE_CAPACITY + 1) }
            },
        })
    }

    fn is_full(&self) -> bool {
        self.count.load(Ordering::Relaxed) >= NODE_CAPACITY
    }

    /// Binary search over the live slots. Under optimism the result may be
    /// garbage (torn view) — callers validate before trusting it, and every
    /// index it produces is in bounds either way.
    fn search(&self, key: &[u8], probe_head: u64) -> Result<usize, usize> {
        let n = self.count.load(Ordering::Relaxed).min(NODE_CAPACITY);
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let h = self.heads[mid].load(Ordering::Relaxed);
            let ord = match h.cmp(&probe_head) {
                std::cmp::Ordering::Equal => {
                    let w = self.keys[mid].load(Ordering::Acquire);
                    // SAFETY: slot words name live arena bytes (module docs).
                    unsafe { unpack_key(w) }.cmp(key)
                }
                o => o,
            };
            match ord {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Child slot to descend into for `key` (equal separators go right).
    fn child_index(&self, key: &[u8], probe_head: u64) -> usize {
        match self.search(key, probe_head) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }
}

/// A thread-safe ordered map from byte keys to word-sized values, built on
/// optimistic lock coupling (see module docs for the protocol).
pub struct BPlusTree<V> {
    /// Versioned latch over the root *pointer* slot: bumped on every root
    /// replacement, validated by every descent's handshake.
    root_latch: VersionLatch,
    root: AtomicPtr<Node>,
    /// Exact live-entry count: only ever updated while the owning leaf's
    /// latch is held, so it is linearizable with the structural change.
    len: AtomicUsize,
    arena: KeyArena,
    /// Every node ever allocated (splits never free); reclaimed in `Drop`.
    nodes: Mutex<Vec<*mut Node>>,
    metrics: Arc<IndexMetrics>,
    _marker: PhantomData<fn() -> V>,
}

// SAFETY: all shared state is atomics or lock-protected; raw node pointers
// are owned by the tree and freed only in `Drop` (which takes `&mut self`);
// values cross threads as plain `u64` words (`IndexValue: Send + Sync`).
unsafe impl<V> Send for BPlusTree<V> {}
unsafe impl<V> Sync for BPlusTree<V> {}

impl<V: IndexValue> Default for BPlusTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: IndexValue> BPlusTree<V> {
    /// Empty tree with a metric set of its own.
    pub fn new() -> Self {
        Self::with_metrics(Arc::default())
    }

    /// Empty tree recording into `metrics`, which other trees may share.
    pub fn with_metrics(metrics: Arc<IndexMetrics>) -> Self {
        let root = Box::into_raw(Node::new(true));
        BPlusTree {
            root_latch: VersionLatch::new(),
            root: AtomicPtr::new(root),
            len: AtomicUsize::new(0),
            arena: KeyArena::new(),
            nodes: Mutex::new(vec![root]),
            metrics,
            _marker: PhantomData,
        }
    }

    /// The metric set this tree records into.
    pub fn metrics(&self) -> &Arc<IndexMetrics> {
        &self.metrics
    }

    /// Number of live entries. Exact: the counter is updated while the
    /// owning leaf's latch is held, so it is linearizable with the insert
    /// or remove it reflects.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a node and record it for reclamation at drop.
    fn alloc_node(&self, leaf: bool) -> *mut Node {
        let p = Box::into_raw(Node::new(leaf));
        self.nodes.lock().push(p);
        p
    }

    /// The descent handshake at the root: returns `(root node, its
    /// version, root-pointer version)` or `None` on conflict. Validating
    /// the root latch *after* obtaining the node's version is what closes
    /// the stale-root window — a root swap in between bumps the root latch
    /// and fails the validation.
    #[inline]
    fn enter_root(&self) -> Option<(&Node, u64, u64)> {
        let v_root = self.root_latch.optimistic()?;
        let ptr = self.root.load(Ordering::Acquire);
        // SAFETY: nodes live until the tree drops.
        let node = unsafe { &*ptr };
        let v = node.latch.optimistic()?;
        if !self.root_latch.validate(v_root) {
            return None;
        }
        Some((node, v, v_root))
    }

    /// Count a restart and, every so often, yield so a preempted latch
    /// holder can finish (matters on oversubscribed cores).
    #[cold]
    fn note_restart(&self, attempt: u32) {
        self.metrics.descent_restarts.inc();
        if attempt.is_multiple_of(64) {
            std::thread::yield_now();
        }
    }

    /// Point lookup (sampled into `index_lookup_nanos`).
    pub fn get(&self, key: &[u8]) -> Option<V> {
        let t0 = lookup_sample();
        let r = self.get_inner(key);
        lookup_done(&self.metrics.lookup_nanos, t0);
        r
    }

    fn get_inner(&self, key: &[u8]) -> Option<V> {
        let probe_head = head_of(key);
        let mut attempt = 0u32;
        'restart: loop {
            attempt += 1;
            if attempt > 1 {
                self.note_restart(attempt);
            }
            let Some((mut node, mut v, _)) = self.enter_root() else { continue 'restart };
            loop {
                match &node.body {
                    Body::Inner { children } => {
                        let idx = node.child_index(key, probe_head).min(NODE_CAPACITY);
                        let child_ptr = children[idx].load(Ordering::Acquire);
                        if child_ptr.is_null() {
                            continue 'restart; // torn view of an in-progress split
                        }
                        // SAFETY: nodes live until the tree drops.
                        let child = unsafe { &*child_ptr };
                        let Some(v_child) = child.latch.optimistic() else { continue 'restart };
                        if !node.latch.validate(v) {
                            continue 'restart;
                        }
                        node = child;
                        v = v_child;
                    }
                    Body::Leaf { vals, .. } => {
                        let r = match node.search(key, probe_head) {
                            Ok(i) => Some(vals[i].load(Ordering::Relaxed)),
                            Err(_) => None,
                        };
                        if !node.latch.validate(v) {
                            continue 'restart;
                        }
                        return r.map(V::from_word);
                    }
                }
            }
        }
    }

    /// Insert if the key is absent. Returns `false` (and leaves the tree
    /// unchanged) if the key is already present — the unique-constraint path.
    pub fn insert_unique(&self, key: &[u8], val: V) -> bool {
        let w = val.to_word();
        self.update_leaf(key, |leaf, pos| match pos {
            Ok(_) => (false, false),
            Err(i) => {
                self.leaf_insert(leaf, i, key, w);
                self.len.fetch_add(1, Ordering::Relaxed);
                (true, true)
            }
        })
    }

    /// Insert or overwrite; returns the previous value if any.
    pub fn upsert(&self, key: &[u8], val: V) -> Option<V> {
        let w = val.to_word();
        self.update_leaf(key, |leaf, pos| match pos {
            Ok(i) => {
                let Body::Leaf { vals, .. } = &leaf.body else { unreachable!("leaf") };
                let old = vals[i].load(Ordering::Relaxed);
                vals[i].store(w, Ordering::Relaxed);
                (Some(V::from_word(old)), true)
            }
            Err(i) => {
                self.leaf_insert(leaf, i, key, w);
                self.len.fetch_add(1, Ordering::Relaxed);
                (None, true)
            }
        })
    }

    /// Remove a key; returns its value if it was present.
    pub fn remove(&self, key: &[u8]) -> Option<V> {
        self.update_leaf(key, |leaf, pos| match pos {
            Ok(i) => {
                let old = Self::leaf_remove(leaf, i);
                self.len.fetch_sub(1, Ordering::Relaxed);
                (Some(V::from_word(old)), true)
            }
            Err(_) => (None, false),
        })
    }

    /// Optimistic write descent: split-ahead on full nodes, then run `op`
    /// on the latched leaf with the key's search position. `op` returns
    /// `(result, modified)`; it is called exactly once, restarts happen
    /// only before the leaf latch is taken. The leaf is never full when
    /// `op` runs (preemptive splits), so inserts always have room.
    fn update_leaf<R>(
        &self,
        key: &[u8],
        mut op: impl FnMut(&Node, Result<usize, usize>) -> (R, bool),
    ) -> R {
        let probe_head = head_of(key);
        let mut attempt = 0u32;
        'restart: loop {
            attempt += 1;
            if attempt > 1 {
                self.note_restart(attempt);
            }
            let Some((root, v_root_node, v_root)) = self.enter_root() else { continue 'restart };
            if root.is_full() {
                // Split the root under the root-pointer latch + node latch.
                if self.root_latch.try_lock_at(v_root) {
                    if root.latch.try_lock_at(v_root_node) {
                        self.split_root(root);
                        root.latch.unlock_modified();
                        self.root_latch.unlock_modified();
                    } else {
                        self.root_latch.unlock_clean();
                    }
                }
                continue 'restart;
            }
            let mut node = root;
            let mut v = v_root_node;
            loop {
                match &node.body {
                    Body::Inner { children } => {
                        let idx = node.child_index(key, probe_head).min(NODE_CAPACITY);
                        let child_ptr = children[idx].load(Ordering::Acquire);
                        if child_ptr.is_null() {
                            continue 'restart;
                        }
                        // SAFETY: nodes live until the tree drops.
                        let child = unsafe { &*child_ptr };
                        let Some(v_child) = child.latch.optimistic() else { continue 'restart };
                        if !node.latch.validate(v) {
                            continue 'restart;
                        }
                        if child.is_full() {
                            // Preemptive split: latch parent then child, both
                            // at their validated versions (single try each —
                            // no hold-and-spin, so no deadlock).
                            if node.latch.try_lock_at(v) {
                                if child.latch.try_lock_at(v_child) {
                                    let (sep_head, sep_word, right) = self.split_node(child);
                                    Self::insert_separator(node, idx, sep_head, sep_word, right);
                                    child.latch.unlock_modified();
                                    node.latch.unlock_modified();
                                } else {
                                    node.latch.unlock_clean();
                                }
                            }
                            continue 'restart;
                        }
                        node = child;
                        v = v_child;
                    }
                    Body::Leaf { .. } => {
                        if !node.latch.try_lock_at(v) {
                            continue 'restart;
                        }
                        let pos = node.search(key, probe_head);
                        let (r, modified) = op(node, pos);
                        if modified {
                            node.latch.unlock_modified();
                        } else {
                            node.latch.unlock_clean();
                        }
                        return r;
                    }
                }
            }
        }
    }

    /// Insert a key/value into a latched, non-full leaf at slot `i`,
    /// shifting greater slots right. Requires the leaf latch held.
    fn leaf_insert(&self, leaf: &Node, i: usize, key: &[u8], val_word: u64) {
        let n = leaf.count.load(Ordering::Relaxed);
        debug_assert!(n < NODE_CAPACITY, "preemptive splits keep leaves non-full");
        let Body::Leaf { vals, .. } = &leaf.body else { unreachable!("leaf") };
        let mut j = n;
        while j > i {
            leaf.heads[j].store(leaf.heads[j - 1].load(Ordering::Relaxed), Ordering::Relaxed);
            leaf.keys[j].store(leaf.keys[j - 1].load(Ordering::Acquire), Ordering::Release);
            vals[j].store(vals[j - 1].load(Ordering::Relaxed), Ordering::Relaxed);
            j -= 1;
        }
        let ptr = self.arena.alloc(key);
        leaf.heads[i].store(head_of(key), Ordering::Relaxed);
        // Release-publishing the packed word orders the arena byte copy
        // before any acquire-load of this slot.
        leaf.keys[i].store(pack_key(ptr, key.len()), Ordering::Release);
        vals[i].store(val_word, Ordering::Relaxed);
        leaf.count.store(n + 1, Ordering::Relaxed);
    }

    /// Remove slot `i` from a latched leaf, shifting greater slots left.
    /// Returns the removed value word. Requires the leaf latch held.
    fn leaf_remove(leaf: &Node, i: usize) -> u64 {
        let n = leaf.count.load(Ordering::Relaxed);
        debug_assert!(i < n);
        let Body::Leaf { vals, .. } = &leaf.body else { unreachable!("leaf") };
        let old = vals[i].load(Ordering::Relaxed);
        for j in i..n - 1 {
            leaf.heads[j].store(leaf.heads[j + 1].load(Ordering::Relaxed), Ordering::Relaxed);
            leaf.keys[j].store(leaf.keys[j + 1].load(Ordering::Acquire), Ordering::Release);
            vals[j].store(vals[j + 1].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        leaf.count.store(n - 1, Ordering::Relaxed);
        old
    }

    /// Split a latched, full node; returns the separator (head + packed
    /// word) and the new right sibling. For leaves the separator is the
    /// right node's first key; for inner nodes `keys[mid]` moves up.
    /// Requires `node`'s latch held (plus the parent's, at the call sites).
    fn split_node(&self, node: &Node) -> (u64, u64, *mut Node) {
        let n = node.count.load(Ordering::Relaxed);
        debug_assert_eq!(n, NODE_CAPACITY);
        let mid = n / 2;
        match &node.body {
            Body::Leaf { vals, next } => {
                let right_ptr = self.alloc_node(true);
                // SAFETY: freshly allocated, unpublished — we are the only
                // accessor until the stores below publish it.
                let right = unsafe { &*right_ptr };
                let Body::Leaf { vals: rvals, next: rnext } = &right.body else {
                    unreachable!("leaf")
                };
                for j in mid..n {
                    right.heads[j - mid]
                        .store(node.heads[j].load(Ordering::Relaxed), Ordering::Relaxed);
                    right.keys[j - mid]
                        .store(node.keys[j].load(Ordering::Acquire), Ordering::Release);
                    rvals[j - mid].store(vals[j].load(Ordering::Relaxed), Ordering::Relaxed);
                }
                rnext.store(next.load(Ordering::Acquire), Ordering::Release);
                right.count.store(n - mid, Ordering::Relaxed);
                let sep_head = node.heads[mid].load(Ordering::Relaxed);
                let sep_word = node.keys[mid].load(Ordering::Acquire);
                next.store(right_ptr, Ordering::Release);
                node.count.store(mid, Ordering::Relaxed);
                (sep_head, sep_word, right_ptr)
            }
            Body::Inner { children } => {
                let right_ptr = self.alloc_node(false);
                // SAFETY: freshly allocated, unpublished (as above).
                let right = unsafe { &*right_ptr };
                let Body::Inner { children: rchildren } = &right.body else {
                    unreachable!("inner")
                };
                // keys[mid] moves up; right gets keys[mid+1..n] and
                // children[mid+1..=n].
                for j in mid + 1..n {
                    right.heads[j - mid - 1]
                        .store(node.heads[j].load(Ordering::Relaxed), Ordering::Relaxed);
                    right.keys[j - mid - 1]
                        .store(node.keys[j].load(Ordering::Acquire), Ordering::Release);
                }
                for j in mid + 1..=n {
                    rchildren[j - mid - 1]
                        .store(children[j].load(Ordering::Acquire), Ordering::Release);
                }
                right.count.store(n - mid - 1, Ordering::Relaxed);
                let sep_head = node.heads[mid].load(Ordering::Relaxed);
                let sep_word = node.keys[mid].load(Ordering::Acquire);
                node.count.store(mid, Ordering::Relaxed);
                (sep_head, sep_word, right_ptr)
            }
        }
    }

    /// Insert a separator + right child into a latched, non-full inner
    /// node at key slot `idx` / child slot `idx + 1`. Requires the latch.
    fn insert_separator(parent: &Node, idx: usize, sep_head: u64, sep_word: u64, right: *mut Node) {
        let n = parent.count.load(Ordering::Relaxed);
        debug_assert!(n < NODE_CAPACITY, "descents never enter a full node");
        let Body::Inner { children } = &parent.body else { unreachable!("inner") };
        let mut j = n;
        while j > idx {
            parent.heads[j].store(parent.heads[j - 1].load(Ordering::Relaxed), Ordering::Relaxed);
            parent.keys[j].store(parent.keys[j - 1].load(Ordering::Acquire), Ordering::Release);
            j -= 1;
        }
        let mut j = n + 1;
        while j > idx + 1 {
            children[j].store(children[j - 1].load(Ordering::Acquire), Ordering::Release);
            j -= 1;
        }
        parent.heads[idx].store(sep_head, Ordering::Relaxed);
        parent.keys[idx].store(sep_word, Ordering::Release);
        children[idx + 1].store(right, Ordering::Release);
        parent.count.store(n + 1, Ordering::Relaxed);
    }

    /// Replace a full root with a fresh inner node over its two halves.
    /// Requires both the root-pointer latch and the root node's latch;
    /// the caller's `unlock_modified` on both publishes the swap.
    fn split_root(&self, root: &Node) {
        let (sep_head, sep_word, right) = self.split_node(root);
        let new_root_ptr = self.alloc_node(false);
        // SAFETY: freshly allocated, unpublished until the store below.
        let new_root = unsafe { &*new_root_ptr };
        let Body::Inner { children } = &new_root.body else { unreachable!("inner") };
        new_root.heads[0].store(sep_head, Ordering::Relaxed);
        new_root.keys[0].store(sep_word, Ordering::Release);
        children[0].store(root as *const Node as *mut Node, Ordering::Release);
        children[1].store(right, Ordering::Release);
        new_root.count.store(1, Ordering::Relaxed);
        self.root.store(new_root_ptr, Ordering::Release);
    }

    /// Optimistic descent to the leaf whose range covers `key` (or one to
    /// its left, if a racing split just moved the range right — the scan's
    /// next-chain walk absorbs that).
    fn find_leaf(&self, key: &[u8]) -> *const Node {
        let probe_head = head_of(key);
        let mut attempt = 0u32;
        'restart: loop {
            attempt += 1;
            if attempt > 1 {
                self.note_restart(attempt);
            }
            let Some((mut node, mut v, _)) = self.enter_root() else { continue 'restart };
            loop {
                match &node.body {
                    Body::Inner { children } => {
                        let idx = node.child_index(key, probe_head).min(NODE_CAPACITY);
                        let child_ptr = children[idx].load(Ordering::Acquire);
                        if child_ptr.is_null() {
                            continue 'restart;
                        }
                        // SAFETY: nodes live until the tree drops.
                        let child = unsafe { &*child_ptr };
                        let Some(v_child) = child.latch.optimistic() else { continue 'restart };
                        if !node.latch.validate(v) {
                            continue 'restart;
                        }
                        node = child;
                        v = v_child;
                    }
                    Body::Leaf { .. } => return node as *const Node,
                }
            }
        }
    }

    /// Snapshot a leaf's live `(key word, value word)` pairs into `snap`,
    /// starting at the first key `>= from` (all of them when `from` is
    /// `None`), and return its next pointer and the pair count. Caller
    /// synchronizes (optimistic + validate, or the latch).
    fn capture_into(leaf: &Node, from: Option<&[u8]>, snap: &mut LeafSnap) -> (*mut Node, usize) {
        let Body::Leaf { vals, next } = &leaf.body else { unreachable!("leaf") };
        let n = leaf.count.load(Ordering::Relaxed).min(NODE_CAPACITY);
        let start = from.map_or(0, |lo| match leaf.search(lo, head_of(lo)) {
            Ok(i) | Err(i) => i.min(n),
        });
        for (pair, i) in snap.iter_mut().zip(start..n) {
            *pair = (leaf.keys[i].load(Ordering::Acquire), vals[i].load(Ordering::Relaxed));
        }
        (next.load(Ordering::Acquire), n - start)
    }

    /// Capture one leaf for a scan: a few optimistic tries, then the
    /// locked fallback (counted in `index_scan_fallbacks`) — scans never
    /// restart from the root once they are emitting. Returns the captured
    /// next pointer and how many pairs of `snap` hold the leaf (from the
    /// first key `>= from`).
    fn capture_leaf(
        fallbacks: &Counter,
        leaf: &Node,
        from: Option<&[u8]>,
        snap: &mut LeafSnap,
    ) -> (*mut Node, usize) {
        for _ in 0..SCAN_OPTIMISTIC_TRIES {
            let Some(v) = leaf.latch.optimistic() else {
                std::hint::spin_loop();
                continue;
            };
            let captured = Self::capture_into(leaf, from, snap);
            if leaf.latch.validate(v) {
                return captured;
            }
        }
        fallbacks.inc();
        leaf.latch.lock();
        let captured = Self::capture_into(leaf, from, snap);
        leaf.latch.unlock_clean();
        captured
    }

    /// Range scan over `[lo, hi)` (hi `None` = unbounded). Calls `f(key, val)`
    /// for each entry in order; stop early by returning `false`.
    ///
    /// Each leaf is emitted from a validated snapshot (held on the stack),
    /// so `f` never sees a torn node and is never re-invoked for the same
    /// snapshot. Entries inserted behind the scan cursor after their leaf
    /// was captured may be missed (same non-snapshot semantics as the
    /// crabbing tree).
    pub fn scan_range(&self, lo: &[u8], hi: Option<&[u8]>, mut f: impl FnMut(&[u8], &V) -> bool) {
        let mut cur = self.find_leaf(lo);
        let mut snap: LeafSnap = [(0, 0); NODE_CAPACITY];
        // The first leaf is captured from `lo`'s position on; a split
        // racing the descent can still leave smaller keys in the leaves
        // after it, hence the `k < lo` check below.
        let mut from = Some(lo);
        while !cur.is_null() {
            // SAFETY: nodes live until the tree drops.
            let leaf = unsafe { &*cur };
            let (next, n) =
                Self::capture_leaf(&self.metrics.scan_fallbacks, leaf, from.take(), &mut snap);
            for &(kw, vw) in &snap[..n] {
                // SAFETY: validated slot words name live arena bytes.
                let k = unsafe { unpack_key(kw) };
                if k < lo {
                    continue;
                }
                if let Some(hi) = hi {
                    if k >= hi {
                        return;
                    }
                }
                let v = V::from_word(vw);
                if !f(k, &v) {
                    return;
                }
            }
            cur = next;
        }
    }

    /// Walk the entries at or after `lo` whose key starts with `within`,
    /// in order, until `f` returns `false` — the point-access probe: a
    /// lookup is a walk from the key's prefix that stops at the first match
    /// the caller accepts, with no bound key and no heap allocation. `lo`
    /// must itself start with `within` (or sort after every such key).
    ///
    /// Sampled into `index_lookup_nanos` like [`get`](Self::get): the
    /// sample is the time to the first emitted entry (or to the end of a
    /// walk that finds none), i.e. the descent plus the first leaf capture.
    pub fn seek_prefix(&self, lo: &[u8], within: &[u8], mut f: impl FnMut(&[u8], &V) -> bool) {
        let lookup_nanos = &self.metrics.lookup_nanos;
        let mut t0 = lookup_sample();
        self.scan_range(lo, None, |k, v| {
            lookup_done(lookup_nanos, t0.take());
            k.starts_with(within) && f(k, v)
        });
        lookup_done(lookup_nanos, t0);
    }

    /// Batched point probe: for each key, the value of the first entry at
    /// or after it when that entry's key starts with the probe key — the
    /// entry [`seek_prefix`](Self::seek_prefix) from the key would offer
    /// first — else [`Probe::Absent`] or [`Probe::Undecided`].
    ///
    /// The keys are independent, so their descents are interleaved: each
    /// group of [`PROBE_GROUP`] keys moves down one step per key at a
    /// time, and every step prefetches what that key's next step reads
    /// (the child slot, the child node, the child's heads, the leaf value).
    /// A group's cache misses are then in flight together instead of being
    /// paid one after another. Each key keeps the single descent's
    /// handshake (a child's version is read before its parent is
    /// validated) and validates its leaf after reading its entry, so a
    /// decided answer held at that validation. A key whose validation
    /// fails is not retried: it comes back undecided and counts as a
    /// descent restart.
    ///
    /// Sampled into `index_lookup_nanos` once per group, as the group's
    /// time per key.
    pub fn probe_many<K: AsRef<[u8]>>(&self, keys: &[K]) -> Vec<Probe<V>> {
        let mut out = Vec::with_capacity(keys.len());
        for group in keys.chunks(PROBE_GROUP) {
            let t0 = lookup_sample();
            self.probe_group(group, &mut out);
            lookup_done_each(&self.metrics.lookup_nanos, t0, group.len());
        }
        out
    }

    /// Whether the key in slot `pos` of `leaf` starts with `key`.
    fn starts_with(leaf: &Node, pos: usize, key: &[u8]) -> bool {
        let w = leaf.keys[pos].load(Ordering::Acquire);
        // SAFETY: slot words name live arena bytes (module docs).
        unsafe { unpack_key(w) }.starts_with(key)
    }

    /// One group of [`probe_many`](Self::probe_many): appends one outcome
    /// per key to `out`.
    fn probe_group<K: AsRef<[u8]>>(&self, keys: &[K], out: &mut Vec<Probe<V>>) {
        let base = out.len();
        out.resize(base + keys.len(), Probe::Undecided);
        let out = &mut out[base..];
        let Some((root, v_root, _)) = self.enter_root() else {
            self.metrics.descent_restarts.inc();
            return;
        };
        let mut at = [(root, v_root, Stage::Search); PROBE_GROUP];
        let mut pending = keys.len();
        while pending > 0 {
            for ((key, (node, v, stage)), out) in keys.iter().zip(&mut at).zip(out.iter_mut()) {
                let key = key.as_ref();
                let next = match *stage {
                    Stage::Done => continue,
                    Stage::Search => match &node.body {
                        Body::Inner { children } => {
                            let idx = node.child_index(key, head_of(key)).min(NODE_CAPACITY);
                            prefetch(&children[idx]);
                            Stage::Child(idx)
                        }
                        Body::Leaf { vals, .. } => {
                            let n = node.count.load(Ordering::Relaxed).min(NODE_CAPACITY);
                            let (Ok(pos) | Err(pos)) = node.search(key, head_of(key));
                            if pos >= n {
                                // The candidate lies in a later leaf.
                                Stage::Done
                            } else if Self::starts_with(node, pos, key) {
                                prefetch(&vals[pos]);
                                Stage::Value(pos)
                            } else {
                                if node.latch.validate(*v) {
                                    *out = Probe::Absent;
                                } else {
                                    self.metrics.descent_restarts.inc();
                                }
                                Stage::Done
                            }
                        }
                    },
                    Stage::Child(idx) => {
                        let Body::Inner { children } = &node.body else { unreachable!("inner") };
                        let child = children[idx].load(Ordering::Acquire);
                        if child.is_null() {
                            self.metrics.descent_restarts.inc();
                            Stage::Done
                        } else {
                            prefetch(child);
                            Stage::Enter(child)
                        }
                    }
                    Stage::Enter(child) => {
                        // SAFETY: nodes live until the tree drops.
                        let child = unsafe { &*child };
                        match child.latch.optimistic() {
                            Some(v_child) if node.latch.validate(*v) => {
                                let n = child.count.load(Ordering::Relaxed).min(NODE_CAPACITY);
                                prefetch_bytes(child.heads.as_ptr().cast(), n * 8);
                                *node = child;
                                *v = v_child;
                                Stage::Search
                            }
                            _ => {
                                self.metrics.descent_restarts.inc();
                                Stage::Done
                            }
                        }
                    }
                    Stage::Value(pos) => {
                        let Body::Leaf { vals, .. } = &node.body else { unreachable!("leaf") };
                        let w = vals[pos].load(Ordering::Relaxed);
                        if node.latch.validate(*v) {
                            *out = Probe::Found(V::from_word(w));
                        } else {
                            self.metrics.descent_restarts.inc();
                        }
                        Stage::Done
                    }
                };
                if matches!(next, Stage::Done) {
                    pending -= 1;
                }
                *stage = next;
            }
        }
    }

    /// Collect up to `limit` entries in `[lo, hi)`.
    pub fn range_collect(&self, lo: &[u8], hi: Option<&[u8]>, limit: usize) -> Vec<(Key, V)> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        self.scan_range(lo, hi, |k, v| {
            out.push((k.to_vec(), *v));
            out.len() < limit
        });
        out
    }

    /// First entry at or after `lo` (useful for min-lookups, e.g. the oldest
    /// NEW_ORDER in TPC-C Delivery).
    pub fn first_at_or_after(&self, lo: &[u8]) -> Option<(Key, V)> {
        let mut out = None;
        self.scan_range(lo, None, |k, v| {
            out = Some((k.to_vec(), *v));
            false
        });
        out
    }

    /// Depth of the tree (test/debug aid; optimistic walk down the left
    /// edge, restarting on conflict like any other descent).
    pub fn depth(&self) -> usize {
        let mut attempt = 0u32;
        'restart: loop {
            attempt += 1;
            if attempt > 1 {
                self.note_restart(attempt);
            }
            let Some((mut node, mut v, _)) = self.enter_root() else { continue 'restart };
            let mut d = 1;
            loop {
                match &node.body {
                    Body::Leaf { .. } => return d,
                    Body::Inner { children } => {
                        let child_ptr = children[0].load(Ordering::Acquire);
                        if child_ptr.is_null() {
                            continue 'restart;
                        }
                        // SAFETY: nodes live until the tree drops.
                        let child = unsafe { &*child_ptr };
                        let Some(v_child) = child.latch.optimistic() else { continue 'restart };
                        if !node.latch.validate(v) {
                            continue 'restart;
                        }
                        node = child;
                        v = v_child;
                        d += 1;
                    }
                }
            }
        }
    }
}

impl<V> Drop for BPlusTree<V> {
    fn drop(&mut self) {
        let nodes = self.nodes.get_mut();
        for &p in nodes.iter() {
            // SAFETY: every pointer came from `Box::into_raw` in
            // `alloc_node`/`new` and is dropped exactly once, here.
            drop(unsafe { Box::from_raw(p) });
        }
        nodes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;
    use std::sync::Arc;

    fn key(i: i64) -> Vec<u8> {
        KeyBuilder::new().add_i64(i).finish()
    }

    #[test]
    fn empty_tree() {
        let t: BPlusTree<u64> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&key(1)), None);
        assert_eq!(t.remove(&key(1)), None);
        assert_eq!(t.range_collect(&key(0), None, 10), vec![]);
    }

    #[test]
    fn insert_get_many() {
        let t = BPlusTree::new();
        let n = 10_000i64;
        for i in 0..n {
            assert!(t.insert_unique(&key(i * 7 % n), i as u64));
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.depth() > 1, "tree should have split");
        for i in 0..n {
            assert_eq!(t.get(&key(i * 7 % n)), Some(i as u64), "key {i}");
        }
        assert_eq!(t.get(&key(n + 1)), None);
    }

    #[test]
    fn unique_rejects_duplicates() {
        let t = BPlusTree::new();
        assert!(t.insert_unique(&key(5), 1u64));
        assert!(!t.insert_unique(&key(5), 2u64));
        assert_eq!(t.get(&key(5)), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn upsert_overwrites() {
        let t = BPlusTree::new();
        assert_eq!(t.upsert(&key(1), 10u64), None);
        assert_eq!(t.upsert(&key(1), 20u64), Some(10));
        assert_eq!(t.get(&key(1)), Some(20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_and_reinsert() {
        let t = BPlusTree::new();
        for i in 0..1000 {
            t.insert_unique(&key(i), i as u64);
        }
        for i in (0..1000).step_by(2) {
            assert_eq!(t.remove(&key(i)), Some(i as u64));
        }
        assert_eq!(t.len(), 500);
        for i in 0..1000 {
            assert_eq!(t.get(&key(i)).is_some(), i % 2 == 1);
        }
        for i in (0..1000).step_by(2) {
            assert!(t.insert_unique(&key(i), 999));
        }
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn range_scan_ordered() {
        let t = BPlusTree::new();
        let mut ids: Vec<i64> = (0..5000).collect();
        // Insert in a scrambled order.
        let mut rng = mainline_common::rng::Xoshiro256::seed_from_u64(1);
        rng.shuffle(&mut ids);
        for &i in &ids {
            t.insert_unique(&key(i), i as u64);
        }
        let got = t.range_collect(&key(100), Some(&key(200)), usize::MAX);
        assert_eq!(got.len(), 100);
        for (i, (k, v)) in got.iter().enumerate() {
            assert_eq!(*k, key(100 + i as i64));
            assert_eq!(*v, 100 + i as u64);
        }
    }

    #[test]
    fn range_scan_limit_and_early_stop() {
        let t = BPlusTree::new();
        for i in 0..100 {
            t.insert_unique(&key(i), i as u64);
        }
        assert_eq!(t.range_collect(&key(0), None, 7).len(), 7);
        assert_eq!(t.first_at_or_after(&key(50)).unwrap().1, 50);
        assert_eq!(t.first_at_or_after(&key(1000)), None);
    }

    #[test]
    fn prefix_scan_composite() {
        let t = BPlusTree::new();
        for d in 0..10i32 {
            for o in 0..20i64 {
                let k = KeyBuilder::new().add_i32(d).add_i64(o).finish();
                t.insert_unique(&k, (d as u64) * 100 + o as u64);
            }
        }
        let prefix = KeyBuilder::new().add_i32(4).finish();
        let mut got = Vec::new();
        t.seek_prefix(&prefix, &prefix, |_, v| {
            got.push(*v);
            true
        });
        assert_eq!(got, (400..420).collect::<Vec<u64>>());
        // From a key inside the prefix, stopping early.
        let from = KeyBuilder::new().add_i32(4).add_i64(15).finish();
        got.clear();
        t.seek_prefix(&from, &prefix, |_, v| {
            got.push(*v);
            got.len() < 3
        });
        assert_eq!(got, [415, 416, 417]);
        // The last prefix: the walk ends at the tree's end.
        let last = KeyBuilder::new().add_i32(9).finish();
        got.clear();
        t.seek_prefix(&last, &last, |_, v| {
            got.push(*v);
            true
        });
        assert_eq!(got.len(), 20);
    }

    #[test]
    fn matches_btreemap_model_random_ops() {
        use std::collections::BTreeMap;
        let t = BPlusTree::new();
        let mut model = BTreeMap::new();
        let mut rng = mainline_common::rng::Xoshiro256::seed_from_u64(42);
        for _ in 0..20_000 {
            let k = key(rng.int_range(0, 500));
            match rng.next_below(3) {
                0 => {
                    let inserted = t.insert_unique(&k, 7u64);
                    let model_inserted = !model.contains_key(&k);
                    if model_inserted {
                        model.insert(k.clone(), 7u64);
                    }
                    assert_eq!(inserted, model_inserted);
                }
                1 => {
                    assert_eq!(t.remove(&k), model.remove(&k));
                }
                _ => {
                    assert_eq!(t.get(&k), model.get(&k).copied());
                }
            }
        }
        assert_eq!(t.len(), model.len());
        let all = t.range_collect(&[], None, usize::MAX);
        let model_all: Vec<_> = model.into_iter().collect();
        assert_eq!(all, model_all);
    }

    /// A composite entry `prefix ‖ suffix`, probed by its prefix the way
    /// the table layer probes `key ‖ slot` entries.
    fn entry(prefix: i32, suffix: i64) -> Vec<u8> {
        KeyBuilder::new().add_i32(prefix).add_i64(suffix).finish()
    }

    fn prefix(p: i32) -> Vec<u8> {
        KeyBuilder::new().add_i32(p).finish()
    }

    /// The model's answer: the first entry at or after `key` if it starts
    /// with `key`.
    fn model_first(model: &std::collections::BTreeMap<Vec<u8>, u64>, key: &[u8]) -> Option<u64> {
        let (k, v) = model.range(key.to_vec()..).next()?;
        k.starts_with(key).then_some(*v)
    }

    /// An undecided key settled the way the table layer settles it.
    fn seek_first(t: &BPlusTree<u64>, key: &[u8]) -> Option<u64> {
        let mut found = None;
        t.seek_prefix(key, key, |_, v| {
            found = Some(*v);
            false
        });
        found
    }

    #[test]
    fn probe_many_matches_btreemap_model() {
        use std::collections::BTreeMap;
        let t = BPlusTree::new();
        let mut model = BTreeMap::new();
        let mut rng = mainline_common::rng::Xoshiro256::seed_from_u64(28);
        // Even prefixes only, some with two entries, some removed again.
        for _ in 0..16_000 {
            let k = entry(2 * rng.int_range(0, 4_000) as i32, rng.int_range(0, 1) * 77);
            if rng.next_below(5) == 0 {
                assert_eq!(t.remove(&k), model.remove(&k));
            } else {
                let v = rng.next_u64() >> 1;
                assert_eq!(t.upsert(&k, v), model.insert(k, v));
            }
        }
        assert!(t.depth() >= 3, "the model needs many leaves");
        // Every prefix (present, removed, odd so never present, past the
        // last key), twice each in one batch of ~16 000 — far longer than a
        // group — then in short batches that split groups unevenly.
        let mut keys: Vec<Vec<u8>> = (-1..=8_001).map(prefix).collect();
        keys.extend((-1..=8_001).rev().map(prefix));
        let mut past_leaf = 0;
        for batch in [&keys[..], &keys[..PROBE_GROUP + 3], &keys[5..7]] {
            let probes = t.probe_many(batch);
            assert_eq!(probes.len(), batch.len());
            for (key, probe) in batch.iter().zip(probes) {
                let want = model_first(&model, key);
                match probe {
                    Probe::Found(v) => assert_eq!(Some(v), want, "key {key:02x?}"),
                    Probe::Absent => assert_eq!(None, want, "key {key:02x?}"),
                    Probe::Undecided => {
                        // Quiescent tree: undecided only when the first
                        // candidate lies past the leaf the descent reaches.
                        // SAFETY: nodes live until the tree drops.
                        let leaf = unsafe { &*t.find_leaf(key) };
                        let mut snap = [(0, 0); NODE_CAPACITY];
                        let (_, n) = BPlusTree::<u64>::capture_into(leaf, Some(key), &mut snap);
                        assert_eq!(n, 0, "undecided key {key:02x?} has a candidate in its leaf");
                        assert_eq!(seek_first(&t, key), want, "key {key:02x?}");
                        past_leaf += 1;
                    }
                }
            }
        }
        assert!(past_leaf > 0, "some prefix must sort past its leaf's last entry");
        assert_eq!(t.probe_many::<Vec<u8>>(&[]), vec![]);
    }

    #[test]
    fn probe_many_finds_exact_keys_and_keys_past_a_leaf() {
        let t = BPlusTree::new();
        for i in 0..1_000i64 {
            t.insert_unique(&key(i), i as u64);
        }
        // Exact keys are their own prefix; a key sorting between two
        // leaves' entries is absent or undecided, never found.
        let exact: Vec<Vec<u8>> = (0..1_000).map(key).collect();
        for (i, probe) in t.probe_many(&exact).into_iter().enumerate() {
            let got = match probe {
                Probe::Undecided => seek_first(&t, &exact[i]),
                Probe::Found(v) => Some(v),
                Probe::Absent => None,
            };
            assert_eq!(got, Some(i as u64));
        }
        let between: Vec<Vec<u8>> =
            (0..1_000).map(|i| KeyBuilder::new().add_i64(i).add_i64(0).finish()).collect();
        assert!(t.probe_many(&between).iter().all(|p| !matches!(p, Probe::Found(_))));
    }

    /// A probe key that runs `hook` the first time the walk reads it, after
    /// the walk has entered the root: a deterministic point to interleave a
    /// writer at.
    struct Hooked<'a> {
        key: Vec<u8>,
        hook: std::cell::Cell<Option<Box<dyn FnOnce() + 'a>>>,
    }

    impl AsRef<[u8]> for Hooked<'_> {
        fn as_ref(&self) -> &[u8] {
            if let Some(hook) = self.hook.take() {
                hook();
            }
            &self.key
        }
    }

    #[test]
    fn probe_many_validates_the_parent_of_every_child_it_enters() {
        // Sequential inserts: leaves [0, 32), [32, 64), ... and a last one
        // holding [160, 200), all children of the root.
        let t = BPlusTree::new();
        for i in 0..200 {
            t.insert_unique(&key(i), i as u64);
        }
        assert_eq!(t.depth(), 2);
        // SAFETY: nodes live until the tree drops.
        let root = unsafe { &*t.root.load(Ordering::Acquire) };
        let probe = key(150);
        let c = root.child_index(&probe, head_of(&probe));
        assert!(
            c >= 1 && c < root.count.load(Ordering::Relaxed),
            "150 has neighbours on both sides"
        );
        // A writer inserting a separator in front of child `c`, caught
        // where `insert_separator` has shifted the heads and keys but not
        // yet the children: a search for 150 now picks child c + 1, whose
        // leaf starts at 160, and only the root's version says so.
        let shift = |right: bool| {
            let n = root.count.load(Ordering::Relaxed);
            let slots: Vec<usize> = if right { (c..=n).rev().collect() } else { (c..n).collect() };
            for j in slots {
                let from = if right { j - 1 } else { j + 1 };
                root.heads[j].store(root.heads[from].load(Ordering::Relaxed), Ordering::Relaxed);
                root.keys[j].store(root.keys[from].load(Ordering::Acquire), Ordering::Release);
            }
        };
        let torn = Hooked {
            key: probe.clone(),
            hook: std::cell::Cell::new(Some(Box::new(|| {
                let v = root.latch.optimistic().unwrap();
                assert!(root.latch.try_lock_at(v));
                shift(true);
            }))),
        };
        assert_eq!(t.probe_many(&[torn]), vec![Probe::Undecided]);
        // Undo the half-done insert and release the latch with a version
        // bump, as after any modification.
        shift(false);
        root.latch.unlock_modified();
        assert_eq!(t.probe_many(&[probe]), vec![Probe::Found(150)]);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = Arc::new(BPlusTree::new());
        let threads = 8;
        let per = 5000;
        let mut handles = vec![];
        for tid in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = key((tid * per + i) as i64);
                    assert!(t.insert_unique(&k, (tid * per + i) as u64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), threads * per);
        for i in 0..(threads * per) as i64 {
            assert_eq!(t.get(&key(i)), Some(i as u64), "key {i}");
        }
    }

    #[test]
    fn concurrent_mixed_readers_writers_scanners() {
        let t = Arc::new(BPlusTree::new());
        for i in 0..2000 {
            t.insert_unique(&key(i), i as u64);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = vec![];
        // Writers insert/remove high keys.
        for tid in 0..3u64 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let k = key(10_000 + (tid as i64) * 1_000_000 + i);
                    t.insert_unique(&k, i as u64);
                    if i % 2 == 0 {
                        t.remove(&k);
                    }
                    i += 1;
                }
            }));
        }
        // Scanners check the stable low range is intact and ordered.
        for _ in 0..3 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let got = t.range_collect(&key(0), Some(&key(2000)), usize::MAX);
                    assert_eq!(got.len(), 2000);
                    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn duplicate_insert_race_exactly_one_wins() {
        let t = Arc::new(BPlusTree::new());
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let wins = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for tid in 0..8u64 {
            let t = Arc::clone(&t);
            let barrier = Arc::clone(&barrier);
            let wins = Arc::clone(&wins);
            handles.push(std::thread::spawn(move || {
                for i in 0..500i64 {
                    if i % 50 == 0 {
                        barrier.wait();
                    }
                    if t.insert_unique(&key(i), tid) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::Relaxed), 500);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn head_truncation_orders_colliding_and_short_keys() {
        // Keys sharing an 8+ byte prefix force the equal-heads full-compare
        // path; sub-8-byte keys exercise zero padding; an 8-byte-boundary
        // pair checks the prefix property (head("longerXY") vs "longer").
        let t: BPlusTree<u64> = BPlusTree::new();
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for i in 0..500u64 {
            keys.push(format!("shared-prefix-beyond-eight-bytes-{i:05}").into_bytes());
        }
        keys.push(b"a".to_vec());
        keys.push(b"ab".to_vec());
        keys.push(b"abcdefgh".to_vec());
        keys.push(b"abcdefghi".to_vec());
        keys.push(Vec::new()); // empty key
        for (i, k) in keys.iter().enumerate() {
            assert!(t.insert_unique(k, i as u64), "insert {i}");
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "get {i}");
        }
        let all = t.range_collect(&[], None, usize::MAX);
        assert_eq!(all.len(), keys.len());
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "memcmp order preserved");
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(all.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn len_is_exact_after_concurrent_churn() {
        // Satellite: len() is linearizable — the counter moves inside the
        // leaf latch, so paired insert+remove churn must land back exactly.
        let t = Arc::new(BPlusTree::new());
        for i in 0..512 {
            t.insert_unique(&key(i), i as u64);
        }
        let mut handles = vec![];
        for tid in 0..4i64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for round in 0..300i64 {
                    let k = key(100_000 + tid * 1_000_000 + round);
                    assert!(t.insert_unique(&k, 1));
                    assert_eq!(t.remove(&k), Some(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 512);
    }

    #[test]
    fn reader_restarts_deterministically_while_root_latch_held() {
        // Deterministic restart: hold the root-pointer latch; a get() must
        // spin in restarts (counted) until release, then still answer right.
        let t = Arc::new(BPlusTree::new());
        for i in 0..100 {
            t.insert_unique(&key(i), i as u64);
        }
        let before = t.metrics().descent_restarts.get();
        let v = t.root_latch.optimistic().unwrap();
        assert!(t.root_latch.try_lock_at(v));
        let reader = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.get(&key(63)))
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        t.root_latch.unlock_clean();
        assert_eq!(reader.join().unwrap(), Some(63));
        assert!(
            t.metrics().descent_restarts.get() > before,
            "the blocked reader must have restarted at least once"
        );
    }

    #[test]
    fn scan_takes_locked_fallback_when_leaf_latch_held() {
        // Deterministic fallback: hold a leaf latch; capture_leaf must burn
        // its optimistic tries, count a fallback, then block in lock() until
        // release — and still capture a complete snapshot.
        let t: BPlusTree<u64> = BPlusTree::new();
        for i in 0..10 {
            t.insert_unique(&key(i), i as u64);
        }
        // Ten keys fit in one leaf, so the root *is* the leaf.
        let leaf: &'static Node = unsafe { &*t.root.load(Ordering::Acquire) };
        let v = leaf.latch.optimistic().unwrap();
        assert!(leaf.latch.try_lock_at(v));
        let before = t.metrics().scan_fallbacks.get();
        let metrics = Arc::clone(t.metrics());
        let capturer = std::thread::spawn(move || {
            let mut snap = [(0, 0); NODE_CAPACITY];
            let (next, n) =
                BPlusTree::<u64>::capture_leaf(&metrics.scan_fallbacks, leaf, None, &mut snap);
            (n, next.is_null())
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        leaf.latch.unlock_clean();
        let (n, next_null) = capturer.join().unwrap();
        assert_eq!(n, 10, "fallback capture must see the whole leaf");
        assert!(next_null, "single-leaf tree has no right sibling");
        assert!(
            t.metrics().scan_fallbacks.get() > before,
            "the blocked capture must have taken the locked fallback"
        );
    }

    #[test]
    fn values_of_other_word_types_round_trip() {
        let t: BPlusTree<i64> = BPlusTree::new();
        t.insert_unique(&key(1), -42i64);
        assert_eq!(t.get(&key(1)), Some(-42));
        let t: BPlusTree<u32> = BPlusTree::new();
        t.upsert(&key(1), 7u32);
        assert_eq!(t.get(&key(1)), Some(7));
        let t: BPlusTree<usize> = BPlusTree::new();
        t.insert_unique(&key(1), usize::MAX);
        assert_eq!(t.get(&key(1)), Some(usize::MAX));
    }
}
