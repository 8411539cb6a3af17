//! Compaction backs off from user transactions (paper §4.3): it never
//! commits a tuple move under a user transaction that began before it, and
//! a user write that meets its uncommitted record makes it yield instead of
//! failing. It does not wait for read-only transactions, and it never
//! holds user begins back behind an old user transaction. The tests drive
//! the coordinator or the manager by hand, so each outcome is fixed.

use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::common::Result;
use mainline::gc::collector::ModificationObserver;
use mainline::gc::GarbageCollector;
use mainline::storage::{access, ProjectedRow, TupleSlot};
use mainline::transform::{AccessObserver, NoopHook, TransformConfig, TransformCoordinator};
use mainline::txn::{DataTable, Transaction, TransactionManager};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Harness {
    manager: Arc<TransactionManager>,
    gc: GarbageCollector,
    pipeline: TransformCoordinator,
    table: Arc<DataTable>,
}

/// Two blocks three-quarters deleted (so compaction has tuples to move)
/// behind a fresh active block, cold enough to compact. Returns the
/// surviving slots.
fn cold_gappy_table() -> (Harness, Vec<TupleSlot>) {
    let manager = Arc::new(TransactionManager::new());
    let mut gc = GarbageCollector::new(Arc::clone(&manager));
    let observer = Arc::new(AccessObserver::new());
    gc.add_observer(Arc::clone(&observer) as Arc<dyn ModificationObserver>);
    let config = TransformConfig { threshold_epochs: 1, workers: 1, ..Default::default() };
    let pipeline = TransformCoordinator::new(Arc::clone(&manager), observer, gc.deferred(), config);
    let schema = Schema::new(vec![
        ColumnDef::new("id", TypeId::BigInt),
        ColumnDef::new("val", TypeId::Varchar),
    ]);
    let table = DataTable::new(1, schema).unwrap();
    pipeline.add_table(Arc::clone(&table), Arc::new(NoopHook));

    let row = |i: usize| {
        ProjectedRow::from_values(
            &[TypeId::BigInt, TypeId::Varchar],
            &[Value::BigInt(i as i64), Value::string(&format!("yield-test-value-{i:07}"))],
        )
    };
    let per_block = table.layout().num_slots() as usize;
    let txn = manager.begin();
    let slots: Vec<TupleSlot> = (0..2 * per_block).map(|i| table.insert(&txn, &row(i))).collect();
    manager.commit(&txn);
    let txn = manager.begin();
    let mut live = Vec::new();
    for (i, &s) in slots.iter().enumerate() {
        if i % 4 == 0 {
            live.push(s);
        } else {
            table.delete(&txn, s).unwrap();
        }
    }
    table.insert(&txn, &row(usize::MAX >> 1));
    manager.commit(&txn);
    for _ in 0..3 {
        gc.run();
    }
    (Harness { manager, gc, pipeline, table }, live)
}

fn touch(h: &Harness, txn: &Transaction, slot: TupleSlot) -> Result<()> {
    let mut d = ProjectedRow::new();
    d.push_fixed(1, &Value::BigInt(-1));
    h.table.update(txn, slot, &d)
}

/// Once the user is gone, compaction succeeds and nothing was lost.
fn compacts_once_alone(h: &mut Harness, live: usize) {
    for _ in 0..30 {
        h.gc.run();
        h.pipeline.tick();
    }
    assert!(h.pipeline.metrics().tuples_moved.get() > 0, "{:?}", h.pipeline.metrics());
    let check = h.manager.begin();
    assert_eq!(h.table.count_visible(&check), live + 1);
    h.manager.commit(&check);
}

#[test]
fn compaction_never_commits_under_a_running_user_transaction() {
    // The pass cannot commit alone while the user runs, so it gives up;
    // its rolled-back records must not count as writes committed after the
    // user's snapshot.
    let (mut h, live) = cold_gappy_table();
    let user = h.manager.begin();
    h.pipeline.tick();
    for &slot in &live {
        touch(&h, &user, slot).expect("a tuple compaction tried to move stays writable");
    }
    h.manager.commit(&user);
    let stats = h.pipeline.metrics();
    assert_eq!(stats.groups_compacted.get(), 0, "{stats:?}");
    assert!(stats.groups_aborted.get() >= 1, "{stats:?}");
    compacts_once_alone(&mut h, live.len());
}

#[test]
fn user_write_makes_a_running_compaction_yield() {
    let (mut h, live) = cold_gappy_table();
    let user = h.manager.begin();
    let layout = Arc::clone(h.table.layout());
    std::thread::scope(|scope| {
        let compactor = scope.spawn(|| h.pipeline.tick());
        // A moved tuple's source slot loses its allocation bit in place as
        // soon as compaction deletes it, uncommitted.
        let deadline = Instant::now() + Duration::from_secs(10);
        let moved = loop {
            // SAFETY: every slot is in a block of `h.table`, alive for the
            // whole test, and the allocation bitmap is read atomically.
            let gone = live
                .iter()
                .find(|s| unsafe { !access::is_allocated(s.block(), &layout, s.offset()) });
            if let Some(&slot) = gone {
                break slot;
            }
            assert!(Instant::now() < deadline, "compaction never moved a tuple");
            std::hint::spin_loop();
        };
        touch(&h, &user, moved).expect("compaction must yield to the user write");
        compactor.join().unwrap();
    });
    h.manager.commit(&user);
    assert_eq!(h.pipeline.metrics().groups_compacted.get(), 0);
    compacts_once_alone(&mut h, live.len());
}

#[test]
fn an_old_user_transaction_never_holds_begins_back() {
    // Compaction cannot commit while `long` runs. It must find that out
    // with user begins flowing, not by closing its gate on them.
    let (h, live) = cold_gappy_table();
    let long = h.manager.begin();
    std::thread::sleep(Duration::from_millis(20));
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut begins = Vec::new();
    std::thread::scope(|scope| {
        let compactor = scope.spawn(|| {
            let mut attempts = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let txn = h.manager.begin_yielding();
                touch(&h, &txn, live[0]).unwrap();
                let committed = h.manager.commit_alone(&txn, Duration::from_millis(10), || {});
                assert!(committed.is_none(), "committed while a user transaction ran");
                h.manager.abort(&txn);
                attempts += 1;
            }
            attempts
        });
        let until = Instant::now() + Duration::from_millis(300);
        while Instant::now() < until {
            let t0 = Instant::now();
            let txn = h.manager.begin();
            begins.push(t0.elapsed());
            h.manager.commit(&txn);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(compactor.join().unwrap() > 0);
    });
    h.manager.commit(&long);
    // Time lost in begins that took 1 ms or more. A closed gate holds them
    // for nearly all of the 300 ms; preemption by the other tests running
    // beside this one costs tens of ms on two cores.
    let waited: Duration = begins.iter().filter(|b| **b >= Duration::from_millis(1)).sum();
    assert!(waited < Duration::from_millis(150), "begins waited {waited:?} of 300 ms");
}

#[test]
fn compaction_commits_under_a_long_read_only_transaction() {
    // A reader (a checkpoint's anchor, an export) cannot conflict with a
    // tuple move, so compaction does not wait for it, and it still reads
    // its snapshot through the old slots.
    let (mut h, live) = cold_gappy_table();
    let reader = h.manager.begin_read_only();
    let before = h.table.count_visible(&reader);
    compacts_once_alone(&mut h, live.len());
    assert_eq!(h.table.count_visible(&reader), before);
    // The emptied blocks wait for the reader; later sweeps must not pick
    // them again before they are detached.
    let freed = h.pipeline.metrics().blocks_freed.get();
    for _ in 0..10 {
        h.gc.run();
        h.pipeline.tick();
    }
    assert_eq!(h.pipeline.metrics().blocks_freed.get(), freed);
    assert_eq!(h.table.count_visible(&reader), before);
    h.manager.commit(&reader);
    compacts_once_alone(&mut h, live.len());
}
