//! The yardstick: a fixed pointer chase that measures how fast the machine
//! runs memory-bound code right now, so that timings taken while the host
//! is busy can be scaled back to a nominal machine.
//!
//! On a shared host the speed of memory-bound code drifts by up to 2x over
//! tens of seconds, with other tenants' load, while compute-bound code
//! barely moves. The engine's transactions follow the drift, and so does a
//! chase through a random cycle over 32 MiB, but less steeply: regressing
//! log chunk time on log chase time gave slopes of 1-2.5 within runs and
//! about 2 across runs. Timings are therefore scaled by the square of the
//! chase's slowdown. The chase is the benchmark's own code and does not
//! change with the engine.

use std::time::Instant;

/// Entries in the chase cycle (32 MiB of `u32`).
const ENTRIES: usize = 8 << 20;
/// Steps per probe (about 8 ms).
const STEPS: usize = 50_000;
/// Nanoseconds per step that scaled timings are scaled to: about the
/// median on the 2-vCPU VM the benchmark was written on.
pub const NOMINAL_NS_PER_STEP: f64 = 145.0;
/// Power of the chase's slowdown that a timing is scaled by (see above).
pub const EXPONENT: i32 = 2;

pub struct Yardstick {
    next: Vec<u32>,
    at: u32,
}

impl Yardstick {
    /// A random single cycle through every entry (Sattolo's algorithm).
    pub fn new(seed: u64) -> Yardstick {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = seed | 1;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Yardstick { next, at: 0 }
    }

    /// Nanoseconds per step of one probe.
    pub fn probe(&mut self) -> f64 {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
        start.elapsed().as_nanos() as f64 / STEPS as f64
    }

    /// The factor that scales a duration measured between `before` and
    /// `after` probes to the nominal machine.
    pub fn factor(before: f64, after: f64) -> f64 {
        (NOMINAL_NS_PER_STEP / (0.5 * (before + after))).powi(EXPONENT)
    }
}
