//! Memory-leak regression for the transformation path: a database opened
//! with transformation, loaded with TPC-C, shut down and dropped must hand
//! back what it allocated. A counting global allocator measures live heap
//! bytes (pure Rust, no allocator introspection). This file holds a single
//! test so nothing else in its binary allocates concurrently.

use mainline::db::{Database, DbConfig};
use mainline::transform::TransformConfig;
use mainline::workloads::tpcc::{Tpcc, TpccConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Open with transformation, load, let some blocks freeze, shut down, drop.
fn cycle(seed: u64) {
    let db = Database::open(DbConfig {
        transform: Some(TransformConfig { threshold_epochs: 1, workers: 1, ..Default::default() }),
        gc_interval: Duration::from_millis(2),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    })
    .unwrap();
    let tpcc = Tpcc::create(&db, TpccConfig::bench(1), true).unwrap();
    tpcc.load(&db, seed).unwrap();
    let pipeline = db.pipeline().expect("transformation is on");
    let deadline = Instant::now() + Duration::from_secs(20);
    while pipeline.metrics().blocks_frozen.get() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(pipeline.metrics().blocks_frozen.get() > 0, "nothing froze: {:?}", pipeline.metrics());
    db.shutdown();
    drop(tpcc);
    drop(db);
}

fn live_mb() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

#[test]
fn dropped_transforming_database_returns_its_heap() {
    // The first cycle also initialises process-wide statics (the event
    // ring, thread-locals); the baseline is taken after it.
    cycle(1);
    let baseline = live_mb();
    for seed in 2..=3 {
        cycle(seed);
        let live = live_mb();
        assert!(
            live - baseline < 1.0,
            "cycle {seed}: {live:.1} MB live after drop against a {baseline:.1} MB baseline"
        );
    }
}
