//! Concurrency properties of the record path (ISSUE 9 satellite): counters
//! are monotonic and exact under racing recorders, histogram bucket totals
//! always sum to the observation count, and gauges settle back to zero
//! after a symmetric drain. Metrics here are local `static`s — the record
//! path under test is identical to the instrumented engine paths.

use mainline_obs::{Counter, Event, EventRing, Gauge, Histogram};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn counters_exact_under_racing_recorders(
        threads in 2usize..8,
        per_thread in 1u64..2000,
    ) {
        static C: Counter = Counter::new("race_counter");
        let before = C.get();
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    barrier.wait();
                    for _ in 0..per_thread {
                        C.inc();
                    }
                });
            }
        });
        // Exact: no lost updates, ever.
        prop_assert_eq!(C.get() - before, threads as u64 * per_thread);
    }

    #[test]
    fn counter_monotonic_while_recording(rounds in 1u64..500) {
        static C: Counter = Counter::new("mono_counter");
        static HIGH: AtomicU64 = AtomicU64::new(0);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for _ in 0..rounds {
                    C.add(3);
                }
            });
            // A racing reader must never observe the value going backwards.
            let reader = s.spawn(|| {
                let mut last = C.get();
                loop {
                    let now = C.get();
                    assert!(now >= last, "counter went backwards: {last} -> {now}");
                    last = now;
                    HIGH.fetch_max(now, Ordering::Relaxed);
                    if now >= rounds {
                        break;
                    }
                    std::hint::spin_loop();
                }
            });
            writer.join().unwrap();
            reader.join().unwrap();
        });
        prop_assert!(HIGH.load(Ordering::Relaxed) >= rounds);
    }

    #[test]
    fn histogram_bucket_sum_equals_observation_count(
        threads in 2usize..6,
        values in proptest::collection::vec(any::<u64>(), 1..400),
    ) {
        static H: Histogram = Histogram::new("race_hist");
        let before = H.snapshot();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for &v in &values {
                        H.observe(v);
                    }
                });
            }
        });
        let after = H.snapshot();
        let recorded = after.count - before.count;
        prop_assert_eq!(recorded, (threads * values.len()) as u64);
        // count is *defined* as the bucket sum; assert it against the raw
        // buckets anyway so a future cached-count optimization can't skew.
        let bucket_sum: u64 = after.buckets.iter().sum();
        prop_assert_eq!(after.count, bucket_sum);
        let expected_sum: u64 =
            values.iter().fold(0u64, |acc, &v| acc.wrapping_add(v)).wrapping_mul(threads as u64);
        prop_assert_eq!(after.sum.wrapping_sub(before.sum), expected_sum);
    }

    #[test]
    fn gauge_settles_to_zero_after_drain(
        threads in 2usize..8,
        deltas in proptest::collection::vec(1i64..10_000, 1..200),
    ) {
        static G: Gauge = Gauge::new("race_gauge");
        // Every thread adds each delta then subtracts it: whatever the
        // interleaving, a drained gauge reads exactly zero.
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for &d in &deltas {
                        G.add(d);
                    }
                    for &d in &deltas {
                        G.sub(d);
                    }
                });
            }
        });
        prop_assert_eq!(G.get(), 0);
    }

    #[test]
    fn event_ring_sequences_are_dense_under_races(
        threads in 2usize..6,
        per_thread in 1u64..300,
    ) {
        let ring = EventRing::new(usize::MAX >> 1, true);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..per_thread {
                        ring.record("race", i, 0);
                    }
                });
            }
        });
        let snap: Vec<Event> = ring.snapshot();
        prop_assert_eq!(snap.len() as u64, threads as u64 * per_thread);
        // Sequence numbers are dense from 0 and timestamps are monotonic in
        // sequence order.
        for (i, e) in snap.iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64);
        }
        prop_assert!(snap.windows(2).all(|w| w[0].micros <= w[1].micros));
    }
}
