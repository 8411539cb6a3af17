//! Concurrency battery for the OLC B+-tree, run against the real tree
//! (the exhaustive schedule-level proof lives in `olc_interleavings.rs`).
//!
//! * the stale-root regression: readers hammer a key in the *upper half*
//!   of a root leaf that is exactly full, while a writer triggers the root
//!   split that moves the key into the new right sibling — the interleaving
//!   the old crabbing tree lost reads on;
//! * a multi-threaded proptest pitting the tree against `BTreeMap` with
//!   overlapping key ranges (the in-crate model test is single-threaded);
//! * an `index_descent_restarts > 0` check, so CI proves the optimistic
//!   path actually restarts under contention instead of silently
//!   degenerating into an always-valid (i.e. untested) fast path;
//! * batched probes (`probe_many`) racing a writer whose leaf splits keep
//!   shifting the separators and child slots the probes descend through.

use mainline_common::rng::Xoshiro256;
use mainline_index::{BPlusTree, KeyBuilder, Probe, PROBE_GROUP};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn key(i: i64) -> Vec<u8> {
    KeyBuilder::new().add_i64(i).finish()
}

/// The tree's own `index_descent_restarts`.
fn restarts(t: &BPlusTree<u64>) -> u64 {
    t.metrics().descent_restarts.get()
}

/// The stale-root race, end to end: key 63 sits in the upper half of a
/// root leaf holding exactly NODE_CAPACITY (64) keys, so the *next* insert
/// splits the root and moves 63 into the new right sibling. Readers race
/// that split; with the old protocol (root-pointer lock released before
/// latching the root node) a reader stranded in the stale left half
/// returned `None` for a key that was present the whole time. Many short
/// rounds maximize the chance of landing a reader inside the split window.
#[test]
fn root_split_never_loses_the_migrating_key() {
    for round in 0..200 {
        let t = Arc::new(BPlusTree::new());
        for i in 0..64 {
            assert!(t.insert_unique(&key(i), i as u64));
        }
        let barrier = Arc::new(Barrier::new(3));
        let split_done = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let barrier = Arc::clone(&barrier);
            let split_done = Arc::clone(&split_done);
            readers.push(std::thread::spawn(move || {
                barrier.wait();
                let mut polls = 0u32;
                // Keep reading through the split and a little beyond it.
                while !split_done.load(Ordering::Acquire) || polls < 64 {
                    assert_eq!(
                        t.get(&key(63)),
                        Some(63),
                        "round {round}: lost key 63 during the root split"
                    );
                    polls += 1;
                }
            }));
        }
        let splitter = {
            let t = Arc::clone(&t);
            let barrier = Arc::clone(&barrier);
            let split_done = Arc::clone(&split_done);
            std::thread::spawn(move || {
                barrier.wait();
                assert!(t.insert_unique(&key(64), 64)); // forces the root split
                assert!(t.depth() > 1, "round {round}: insert 65th key must split the root");
                split_done.store(true, Ordering::Release);
            })
        };
        splitter.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(t.get(&key(63)), Some(63));
        assert_eq!(t.len(), 65);
    }
}

/// Contention must actually exercise the restart path: three writers
/// hammering one leaf (same few keys) plus a reader guarantee overlapping
/// critical sections eventually; the restart counter must move. Bounded
/// retry keeps this robust on a single-core runner, where overlap needs a
/// preemption to land mid-critical-section.
#[test]
fn descent_restarts_observed_under_contention() {
    let t = Arc::new(BPlusTree::new());
    for i in 0..8 {
        t.insert_unique(&key(i), i as u64);
    }
    let before = restarts(&t);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while restarts(&t) == before {
        assert!(
            std::time::Instant::now() < deadline,
            "no descent restart observed under sustained same-leaf contention"
        );
        let mut handles = Vec::new();
        for tid in 0..3u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    t.upsert(&key((i % 8) as i64), tid * 1_000_000 + i);
                }
            }));
        }
        {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    assert!(t.get(&key((i % 8) as i64)).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
    assert!(restarts(&t) > before);
}

/// Batched probes race leaf splits. Each round preloads the even keys of
/// an upper range, then a writer fills a lower range in ascending order, so
/// every leaf split inserts a separator in front of the upper range's and
/// shifts the child slots the readers descend through. A probe may come
/// back undecided, but a decided answer must be exact: a present key is
/// found with its value, an absent one is absent. Batches of one key up to
/// two groups keep both the lone walk and full groups in the race.
#[test]
fn batched_probes_stay_exact_while_leaves_split() {
    const BASE: i64 = 1_000_000;
    const STABLE: i64 = 1_000;
    const FILL: i64 = 1_500;
    let probes: Vec<Vec<u8>> = (0..2 * STABLE).map(|j| key(BASE + j)).collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    for round in 0..400u64 {
        if round >= 20 && std::time::Instant::now() > deadline {
            break;
        }
        let t = BPlusTree::new();
        for i in 0..STABLE {
            assert!(t.insert_unique(&key(BASE + 2 * i), i as u64));
        }
        let filled = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..FILL {
                    assert!(t.insert_unique(&key(i), i as u64));
                }
                filled.store(true, Ordering::Release);
            });
            for r in 0..2u64 {
                let (t, filled, probes) = (&t, &filled, &probes);
                s.spawn(move || {
                    let mut rng = Xoshiro256::seed_from_u64(round * 2 + r);
                    while !filled.load(Ordering::Acquire) {
                        let n = 1 + rng.next_below(2 * PROBE_GROUP as u64) as usize;
                        let lo = rng.int_range(0, (probes.len() - n) as i64) as usize;
                        for (j, probe) in (lo..).zip(t.probe_many(&probes[lo..lo + n])) {
                            let want = (j % 2 == 0).then_some(j as u64 / 2);
                            match probe {
                                Probe::Found(v) => assert_eq!(Some(v), want, "round {round}: {j}"),
                                Probe::Absent => assert_eq!(None, want, "round {round}: {j}"),
                                Probe::Undecided => {}
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(t.len() as i64, STABLE + FILL);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Multi-threaded model check with overlapping key ranges: ops are
    /// striped across three writers **by key** (all ops for one key run on
    /// one thread, in program order), which keeps the final state
    /// deterministic while the threads' *ranges* fully overlap — every
    /// leaf sees all three writers. Concurrent readers and scanners run
    /// unchecked during the churn (they must merely never tear or panic);
    /// the final tree must equal the sequential model exactly, including
    /// `len()`.
    #[test]
    fn concurrent_striped_ops_match_btreemap(
        ops in proptest::collection::vec((0u16..96, 0u8..2), 60..400),
    ) {
        let t = Arc::new(BPlusTree::new());
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(3));

        // Sequential model: per-key program order equals per-thread order.
        let mut model = std::collections::BTreeMap::new();
        for &(k, op) in &ops {
            let kb = key(k as i64);
            match op {
                0 => { model.insert(kb, k as u64); }
                _ => { model.remove(&kb); }
            }
        }

        let mut aux = Vec::new();
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            aux.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = t.get(&key(17));
                    let got = t.range_collect(&key(0), Some(&key(96)), usize::MAX);
                    // Snapshot-per-leaf emission must stay strictly sorted.
                    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
                    let _ = t.first_at_or_after(&key(48));
                }
            }));
        }

        let mut writers = Vec::new();
        for stripe in 0..3u16 {
            let t = Arc::clone(&t);
            let barrier = Arc::clone(&barrier);
            let my_ops: Vec<(u16, u8)> =
                ops.iter().copied().filter(|(k, _)| k % 3 == stripe).collect();
            writers.push(std::thread::spawn(move || {
                barrier.wait();
                for (k, op) in my_ops {
                    let kb = key(k as i64);
                    match op {
                        0 => { t.upsert(&kb, k as u64); }
                        _ => { t.remove(&kb); }
                    }
                }
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for a in aux {
            a.join().unwrap();
        }

        let all = t.range_collect(&[], None, usize::MAX);
        let expect: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(t.len(), expect.len(), "len() must be exact after the churn");
        prop_assert_eq!(all, expect);
    }
}
