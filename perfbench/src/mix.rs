//! The TPC-C standard mix, driven from one closed-loop client.
//!
//! Same roll logic as `Tpcc::run_one` (45/43/4/4/4, admission control
//! consulted at the transaction boundary), but the outcome accounting is the
//! benchmark's own: the spec's 1 % NewOrder rollback (`Ok(false)`) is a
//! completed transaction, every `Err` is a failed one, and nothing is
//! retried.

use crate::trace;
use mainline_common::rng::Xoshiro256;
use mainline_db::{Admission, Database};
use mainline_workloads::tpcc::Tpcc;
use std::time::Instant;

/// Transaction types in mix order.
pub const TYPES: [&str; 5] = ["new_order", "payment", "order_status", "delivery", "stock_level"];
const SPANS: [&str; 5] = [
    "workloads.new_order",
    "workloads.payment",
    "workloads.order_status",
    "workloads.delivery",
    "workloads.stock_level",
];

/// Outcomes and per-type latencies of a run of the mix.
#[derive(Default)]
pub struct MixStats {
    pub attempted: u64,
    pub failed: u64,
    pub rollbacks: u64,
    pub throttled: u64,
    /// Latency in nanoseconds of every completed call, per type.
    pub latency_ns: [Vec<f64>; 5],
    /// Distinct failure messages with their counts.
    pub errors: std::collections::BTreeMap<String, u64>,
}

impl MixStats {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Add `other`'s outcomes and samples to these.
    pub fn merge(&mut self, other: MixStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rollbacks += other.rollbacks;
        self.throttled += other.throttled;
        for (mine, theirs) in self.latency_ns.iter_mut().zip(other.latency_ns) {
            mine.extend(theirs);
        }
        for (e, n) in other.errors {
            *self.errors.entry(e).or_default() += n;
        }
    }
}

/// Run `count` transactions of the mix against warehouse 1.
pub fn run(tpcc: &Tpcc, db: &Database, rng: &mut Xoshiro256, count: u64, stats: &mut MixStats) {
    for _ in 0..count {
        if db.admission().admit() != Admission::Admitted {
            stats.throttled += 1;
        }
        let roll = rng.next_below(100);
        let ty = match roll {
            0..=44 => 0,
            45..=87 => 1,
            88..=91 => 2,
            92..=95 => 3,
            _ => 4,
        };
        let start = Instant::now();
        let outcome = trace::span(SPANS[ty], || match ty {
            0 => tpcc.new_order(db, rng, 1).map(|committed| !committed),
            1 => tpcc.payment(db, rng, 1).map(|_| false),
            2 => tpcc.order_status(db, rng, 1).map(|_| false),
            3 => tpcc.delivery(db, rng, 1).map(|_| false),
            _ => tpcc.stock_level(db, rng, 1).map(|_| false),
        });
        let ns = start.elapsed().as_nanos() as f64;
        stats.attempted += 1;
        match outcome {
            Ok(rolled_back) => {
                stats.latency_ns[ty].push(ns);
                stats.rollbacks += rolled_back as u64;
            }
            Err(e) => {
                stats.failed += 1;
                *stats.errors.entry(format!("{}: {e}", TYPES[ty])).or_default() += 1;
            }
        }
    }
}
