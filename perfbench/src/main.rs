//! Fixed-work TPC-C benchmark of the mainline engine.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Both workloads run the same phases on one warehouse at spec scale, from
//! one closed-loop client thread, and differ only in whether the TPC-C cold
//! tables are transformed (see `README.md`): set-up (repeated, median
//! reported), an untimed warm-up, a seeded transaction stream timed in
//! chunks, Flight and PG-wire exports of ORDER_LINE with every block
//! resident, a checkpoint, a short WAL tail, a crash image, a Flight export
//! under the memory budget, and a restart from the crash image. The amount
//! of work is fixed by `--seconds` and does not depend on how fast it runs.
//! Timings are scaled to a nominal machine by the yardstick measured next
//! to them (see [`yardstick`]). The last stdout line is a JSON object: the
//! end-to-end metrics, or with `--trace 1` the per-layer ones.

mod export;
mod layers;
mod mix;
mod probe;
mod trace;
mod yardstick;

use mainline_common::rng::Xoshiro256;
use mainline_db::{CheckpointConfig, Database, DbConfig};
use mainline_obs::MetricsSnapshot;
use mainline_transform::TransformConfig;
use mainline_workloads::tpcc::{Tpcc, TpccConfig};
use mix::MixStats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{median, percentile};
use yardstick::Yardstick;

/// Transactions of the mix run after the load, as part of set-up.
const WARMUP_TXNS: u64 = 2_000;
/// Transactions run untimed after set-up, before the timed stream: the first
/// ~12 000 transactions on a fresh database run up to 40 % slower than the
/// rest, whatever the seed.
const PRESTREAM_TXNS: u64 = 15_000;
/// Transactions in the timed stream per `--seconds` (about a second's
/// worth on a 2-vCPU VM).
const TXNS_PER_SECOND: u64 = 10_000;
/// The timed stream is measured in chunks of this many transactions.
const CHUNK_TXNS: u64 = 1_000;
/// Set-ups per run (reported as their median).
const SETUP_REPS: usize = 3;
/// Resident export requests per run: DoGets, then SELECTs.
const DOGETS: usize = 4;
const SELECTS: usize = 2;
/// Transactions committed after the last checkpoint, replayed on restart.
const TAIL_TXNS: u64 = 300;
/// Probe transactions of each shape in traced runs.
const PROBE_TXNS: u64 = 2_000;
/// Frozen-content budget of both workloads. It binds only in `htap`, where
/// ~70 MiB end up frozen, so that once a checkpoint gives frozen blocks a
/// frame to fault back from, the clock evicts every evictable block and
/// each DoGet faults all of ORDER_LINE. With room for part of the frozen
/// data, which blocks stay resident depends on the order the clock visits
/// tables (the catalog's `HashMap` order, random per process), and DoGet
/// throughput split into two levels 1.5x apart from run to run. `oltp`
/// freezes nothing, so nothing there can be evicted.
const BUDGET_BYTES: u64 = 4 << 20;
/// Longest wait for background work to reach a fixed state.
const SETTLE_DEADLINE: Duration = Duration::from_secs(60);
/// A census unchanged for this long counts as settled.
const SETTLE_QUIET: Duration = Duration::from_millis(300);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Oltp,
    Htap,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Oltp => "oltp",
            Workload::Htap => "htap",
        }
    }
    fn transforms(self) -> bool {
        self == Workload::Htap
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: mainline-perfbench --workload <oltp|htap> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = match get("--workload")?.as_str() {
        "oltp" => Workload::Oltp,
        "htap" => Workload::Htap,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if flags.len() != 4 {
        return Err("unexpected arguments".into());
    }
    Ok(Args { workload, seed: num("--seed")?, seconds, trace })
}

/// An independent random stream per phase, all derived from `--seed`.
fn stream(seed: u64, phase: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn err(what: &str) -> impl Fn(mainline_common::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Engine configuration: WAL on without fsync, manual checkpoints only, one
/// transform worker, a frozen-content budget, and transformation of the
/// TPC-C cold tables on for `htap` only.
fn db_config(w: Workload, dir: &Path) -> DbConfig {
    DbConfig {
        log_path: Some(dir.join("db").join("wal")),
        fsync: false,
        wal_segment_bytes: Some(16 << 20),
        checkpoint: Some(CheckpointConfig {
            dir: dir.join("ckpt"),
            wal_growth_bytes: u64::MAX,
            poll_interval: Duration::from_millis(100),
            truncate_wal: true,
        }),
        transform: w.transforms().then(|| TransformConfig {
            workers: 1,
            backpressure_bytes: 64 << 20,
            ..Default::default()
        }),
        memory_budget_bytes: Some(BUDGET_BYTES),
        observability: Some(false),
        ..Default::default()
    }
}

/// A loaded database with its TPC-C handles.
struct Env {
    db: Arc<Database>,
    tpcc: Tpcc,
}

/// Open, load spec TPC-C (1 warehouse), run the warm-up prefix, and for
/// `htap` wait for a settled block census.
///
/// The first checkpoint comes after the timed stream and the resident
/// export: until a checkpoint gives frozen blocks a frame to fault back
/// from, nothing is evictable, so those run without eviction. Under
/// eviction the clock also evicts read-hot ITEM blocks whenever re-frozen,
/// not yet checkpointed blocks push residency over budget, and NewOrder
/// latency then follows the clock's timing (the WAL tail reports those
/// faults).
fn setup(args: &Args, dir: &Path, warm: &mut MixStats) -> Result<Env, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("db"))
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    let w = args.workload;
    let db = Database::open(db_config(w, dir)).map_err(err("open"))?;
    let tpcc = Tpcc::create(&db, TpccConfig::spec(1), w.transforms()).map_err(err("create"))?;
    tpcc.load(&db, args.seed).map_err(err("load"))?;
    mix::run(&tpcc, &db, &mut stream(args.seed, 1), WARMUP_TXNS, warm);
    if w.transforms() {
        settle(&db)?;
    }
    Ok(Env { db, tpcc })
}

type Census = (usize, usize, usize, usize, usize);

/// Wait until the block census has stopped changing with nothing cooling or
/// freezing; fail past the deadline.
fn settle(db: &Database) -> Result<Census, String> {
    let pipeline = db.pipeline().ok_or("settle: transformation is off")?;
    let deadline = Instant::now() + SETTLE_DEADLINE;
    let mut last = pipeline.block_state_census();
    let mut quiet_since = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = pipeline.block_state_census();
        if now != last {
            last = now;
            quiet_since = Instant::now();
        } else if now.1 == 0 && now.2 == 0 && quiet_since.elapsed() >= SETTLE_QUIET {
            return Ok(now);
        }
        if Instant::now() > deadline {
            return Err(format!("census did not settle within {SETTLE_DEADLINE:?}: {now:?}"));
        }
    }
}

/// Wait until resident frozen bytes are at or under the budget.
fn await_budget(db: &Database) -> Result<(), String> {
    let deadline = Instant::now() + SETTLE_DEADLINE;
    loop {
        let m = db.memory_stats();
        if m.resident_bytes <= m.budget_bytes {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "residency {} B did not reach the {} B budget within {SETTLE_DEADLINE:?}",
                m.resident_bytes, m.budget_bytes
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `d_next_o_id` of every district of warehouse 1.
fn next_order_ids(db: &Database, tpcc: &Tpcc) -> Result<Vec<i64>, String> {
    use mainline_common::value::Value;
    let txn = db.manager().begin();
    let ids = (1..=tpcc.config.districts as i32)
        .map(|d| {
            let (_, row) = tpcc
                .district
                .lookup(&txn, "pk", &[Value::Integer(1), Value::Integer(d)])
                .map_err(err("district lookup"))?
                .ok_or_else(|| format!("district {d} missing"))?;
            row[9].as_i64().ok_or_else(|| "d_next_o_id is not an integer".to_string())
        })
        .collect();
    db.manager().commit(&txn);
    ids
}

/// TPC-C handles over a restarted database's catalog.
fn attach(db: &Database) -> Result<Tpcc, String> {
    let t = |name: &str| db.catalog().table(name).map_err(err("restarted catalog"));
    Ok(Tpcc {
        config: TpccConfig::spec(1),
        warehouse: t("warehouse")?,
        district: t("district")?,
        customer: t("customer")?,
        history: t("history")?,
        new_order: t("new_order")?,
        order: t("order")?,
        order_line: t("order_line")?,
        item: t("item")?,
        stock: t("stock")?,
    })
}

/// Copy a directory tree (the crash image: the files as the crash left them).
fn copy_tree(from: &Path, to: &Path) -> std::io::Result<u64> {
    std::fs::create_dir_all(to)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            bytes += copy_tree(&entry.path(), &target)?;
        } else {
            bytes += std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(bytes)
}

/// Everything a run measured.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    errors: BTreeMap<String, u64>,
    end_to_end: Vec<(&'static str, f64, &'static str, String)>,
    /// Timings too unsteady across runs to gate (see `README.md`): per-layer
    /// metrics that untraced runs print too.
    timed_layers: Vec<(&'static str, f64, &'static str, String)>,
    layers: BTreeMap<&'static str, f64>,
    state: Vec<String>,
}

impl Run {
    fn absorb(&mut self, m: &MixStats) {
        self.attempted += m.attempted;
        self.failed += m.failed;
        for (e, n) in &m.errors {
            *self.errors.entry(e.clone()).or_default() += n;
        }
    }
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.end_to_end.push((name, value, unit, note));
    }
    fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
    fn timed_layer(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.layers.insert(name, value);
        self.timed_layers.push((name, value, unit, note));
    }
}

/// A timed sample scaled to the nominal machine: its raw value and the
/// yardstick factor of its time (see [`yardstick`]). Durations are
/// multiplied by the factor, rates divided by it.
#[derive(Clone, Copy)]
pub(crate) struct Scaled {
    pub raw: f64,
    pub factor: f64,
}

/// Interquartile range of scaled rates over their median.
fn rate_spread(xs: &[Scaled]) -> f64 {
    let mut scaled: Vec<f64> = xs.iter().map(|x| x.raw / x.factor).collect();
    let q1 = percentile(&mut scaled, 0.25);
    let q3 = percentile(&mut scaled, 0.75);
    (q3 - q1) / median(&mut scaled)
}

/// Median of scaled rates, and of the raw ones.
pub(crate) fn median_rate(xs: &[Scaled]) -> (f64, f64) {
    let mut scaled: Vec<f64> = xs.iter().map(|x| x.raw / x.factor).collect();
    let mut raw: Vec<f64> = xs.iter().map(|x| x.raw).collect();
    (median(&mut scaled), median(&mut raw))
}

pub(crate) fn busy_pct(cpu_s: f64, wall_s: f64) -> f64 {
    100.0 * cpu_s / wall_s
}

fn run(args: &Args, dir: &Path) -> Result<Run, String> {
    let w = args.workload;
    let mut out = Run::default();
    let t0 = Instant::now();
    let progress = |what: &str| eprintln!("[{:7.2} s] {what}", t0.elapsed().as_secs_f64());

    // --- Set-up, repeated; the last one is kept. -------------------------
    let mut setup_s = Vec::new();
    let mut env = None;
    for rep in 0..SETUP_REPS {
        let mut warm = MixStats::default();
        let start = Instant::now();
        let e = setup(args, &dir.join("live"), &mut warm)?;
        setup_s.push(start.elapsed().as_secs_f64());
        out.absorb(&warm);
        progress(&format!("set-up {}/{SETUP_REPS}", rep + 1));
        if rep + 1 < SETUP_REPS {
            e.db.shutdown();
        } else {
            env = Some(e);
        }
    }
    let env = env.expect("at least one set-up");
    let db = Arc::clone(&env.db);
    let log = Arc::clone(db.log_manager().ok_or("WAL is off")?);
    let mut warm = MixStats::default();
    mix::run(&env.tpcc, &db, &mut stream(args.seed, 5), PRESTREAM_TXNS, &mut warm);
    out.absorb(&warm);
    progress("warm-up");
    if args.trace {
        trace::enable();
    }

    // --- Transaction stream, in chunks. ----------------------------------
    // A yardstick probe before the stream and after every chunk scales each
    // chunk's rate and latencies to the nominal machine.
    let txns = TXNS_PER_SECOND * args.seconds;
    let mut stats = MixStats::default();
    let mut chunks: Vec<(Scaled, bool)> = Vec::new();
    let mut latency: [Vec<Scaled>; 2] = Default::default();
    let mut rng = stream(args.seed, 2);
    let mut yard = Yardstick::new(args.seed);
    let (cpu0, own0, snap0, wal0) =
        (trace::thread_cpu(), trace::own_cpu(), db.metrics_snapshot(), log.bytes_written());
    let admission0 = db.admission_stats();
    let start = Instant::now();
    let mut probe = yard.probe();
    let mut done = 0;
    while done < txns {
        let n = CHUNK_TXNS.min(txns - done);
        // Traced runs alternate traced and untraced chunks to measure
        // tracing overhead against the same database state.
        let traced = (done / CHUNK_TXNS).is_multiple_of(2);
        if args.trace {
            trace::set_paused(!traced);
        }
        let mut chunk = MixStats::default();
        let t = Instant::now();
        mix::run(&env.tpcc, &db, &mut rng, n, &mut chunk);
        let secs = t.elapsed().as_secs_f64();
        let next = yard.probe();
        let factor = Yardstick::factor(probe, next);
        probe = next;
        chunks.push((Scaled { raw: chunk.completed() as f64 / secs, factor }, traced));
        for (ty, samples) in latency.iter_mut().enumerate() {
            samples.extend(chunk.latency_ns[ty].iter().map(|&raw| Scaled { raw, factor }));
        }
        stats.merge(chunk);
        done += n;
    }
    trace::set_paused(false);
    let txn_wall = start.elapsed().as_secs_f64();
    let (cpu1, own1, snap1, wal1) =
        (trace::thread_cpu(), trace::own_cpu(), db.metrics_snapshot(), log.bytes_written());
    out.absorb(&stats);
    progress("transaction stream");
    env.tpcc.check_consistency(&db).map_err(err("consistency after the transaction stream"))?;

    let rates: Vec<Scaled> = chunks.iter().map(|c| c.0).collect();
    let (txn_per_s, raw_txn_per_s) = median_rate(&rates);
    out.metric(
        "txn_per_s",
        txn_per_s,
        "1/s",
        format!(
            "median of {} chunks (IQR {:.3} of it), raw {raw_txn_per_s:.0}; {} completed of {} in {txn_wall:.2} s, {} rollbacks, 1 client",
            chunks.len(),
            rate_spread(&rates),
            stats.completed(),
            stats.attempted,
            stats.rollbacks
        ),
    );
    for (name, ty, q, gated) in [
        ("new_order_p50_us", 0, 0.5, true),
        ("workloads.new_order_p99_us", 0, 0.99, false),
        ("payment_p50_us", 1, 0.5, true),
    ] {
        let mut scaled: Vec<f64> = latency[ty].iter().map(|x| x.raw * x.factor).collect();
        let mut raw: Vec<f64> = latency[ty].iter().map(|x| x.raw).collect();
        let n = raw.len();
        let value = percentile(&mut scaled, q) / 1e3;
        let note = format!("n={n}, raw {:.1} us", percentile(&mut raw, q) / 1e3);
        if gated {
            out.metric(name, value, "us", note);
        } else {
            out.timed_layer(name, value, "us", note);
        }
    }

    if args.trace {
        let mean = |traced: bool| {
            let xs: Vec<f64> =
                chunks.iter().filter(|c| c.1 == traced).map(|c| c.0.factor / c.0.raw).collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        out.layer("trace.overhead_pct", 100.0 * (mean(true) / mean(false) - 1.0));
        let restarts = |s: &MetricsSnapshot| s.counter("index_descent_restarts").unwrap_or(0);
        out.layer("index.descent_restarts", (restarts(&snap1) - restarts(&snap0)) as f64);
        out.layer(
            "wal.busy_pct",
            busy_pct(trace::cpu_delta(&cpu0, &cpu1, "log-manager"), txn_wall),
        );
        out.layer("wal.bytes_per_txn", (wal1 - wal0) as f64 / stats.attempted as f64);
        out.layer(
            "wal.group_commit_txns",
            snap1.histogram("wal_group_commit_txns").map(|h| h.mean() as f64).unwrap_or(0.0),
        );
        out.layer("gc.busy_pct", busy_pct(trace::cpu_delta(&cpu0, &cpu1, "gc"), txn_wall));
        out.layer("client.busy_pct", busy_pct(own1 - own0, txn_wall));
        out.layer(
            "transform.busy_pct",
            busy_pct(trace::cpu_delta(&cpu0, &cpu1, "transform-"), txn_wall),
        );
        out.layer(
            "admission.stalls",
            (db.admission_stats().stall_count - admission0.stall_count) as f64,
        );

        // OLTP probe: NewOrder/Payment shapes with a span per layer call.
        let mut rng = stream(args.seed, 3);
        for _ in 0..PROBE_TXNS {
            let a = trace::span("probe.new_order", || probe::new_order(&env.tpcc, &db, &mut rng));
            let b = trace::span("probe.payment", || probe::payment(&env.tpcc, &db, &mut rng));
            out.attempted += 2;
            for r in [a, b] {
                if let Err(e) = r {
                    out.failed += 1;
                    *out.errors.entry(format!("probe: {e}")).or_default() += 1;
                }
            }
        }
    }

    progress("consistency check");

    // --- Settle, then export with every block resident. -------------------
    let census = if w.transforms() {
        let start = Instant::now();
        let c = settle(&db)?;
        out.layer("transform.settle_s", start.elapsed().as_secs_f64());
        Some(c)
    } else {
        out.layer("transform.settle_s", 0.0);
        None
    };
    let snap = db.metrics_snapshot();
    let frozen = snap.counter("transform_blocks_frozen").unwrap_or(0);
    out.layer("transform.blocks_frozen", frozen as f64);
    out.layer(
        "transform.groups_compacted",
        snap.counter("transform_groups_compacted").unwrap_or(0) as f64,
    );
    out.state.push(format!("census={census:?}"));
    out.state.push(format!("blocks_frozen={frozen}"));
    let resident = export::run(&db, &mut yard, DOGETS, SELECTS, || Ok(()))?;
    progress("resident export");
    let (flight, raw_flight) = median_rate(&resident.flight_rows_per_s);
    out.timed_layer(
        "export.flight_rows_per_s",
        flight,
        "1/s",
        format!(
            "median of {DOGETS}, raw {raw_flight:.0}; {} rows, {} frozen / {} hot blocks",
            resident.rows, resident.frozen_blocks, resident.hot_blocks
        ),
    );
    let (pg, raw_pg) = median_rate(&resident.pg_rows_per_s);
    out.timed_layer(
        "export.pgwire_rows_per_s",
        pg,
        "1/s",
        format!("median of {SELECTS}, raw {raw_pg:.0}; {} rows", resident.rows),
    );
    out.state.push(format!(
        "resident export rows={} frames={} frozen_blocks={} hot_blocks={}",
        resident.rows, resident.frames, resident.frozen_blocks, resident.hot_blocks
    ));
    if args.trace {
        layers::resident_layers(&mut out, &db, &resident)?;
    }

    // --- Checkpoint (the restart image), WAL tail, crash image. -----------
    let start = Instant::now();
    let ckpt = db.checkpoint().map_err(err("checkpoint"))?;
    out.layer("checkpoint.pass_s", start.elapsed().as_secs_f64());
    out.layer("checkpoint.cold_bytes", ckpt.cold_bytes as f64);
    out.layer("checkpoint.delta_bytes", ckpt.delta_bytes as f64);
    out.state.push(format!(
        "checkpoint cold_bytes={} delta_rows={} delta_bytes={}",
        ckpt.cold_bytes, ckpt.delta_rows, ckpt.delta_bytes
    ));
    let mut tail = MixStats::default();
    let faults0 = db.memory_stats().faults;
    mix::run(&env.tpcc, &db, &mut stream(args.seed, 4), TAIL_TXNS, &mut tail);
    let tail_faults = db.memory_stats().faults - faults0;
    out.absorb(&tail);
    out.layer("storage.tail_faults", tail_faults as f64);
    if w.transforms() {
        settle(&db)?;
    }
    progress("checkpoint + WAL tail");
    let acked = next_order_ids(&db, &env.tpcc)?;
    log.flush();
    out.state.push(format!("wal_bytes={}", log.bytes_written()));
    // The crash image is a copy of the files as they stand once every
    // acknowledged commit is flushed. The live engine goes on to the export
    // under the budget and is then stopped rather than leaked, so its
    // threads do not run beside the restart.
    let crash = dir.join("crash");
    let disk_bytes =
        copy_tree(&dir.join("live"), &crash).map_err(|e| format!("crash image: {e}"))?;
    out.metric(
        "disk_mb",
        disk_bytes as f64 / (1 << 20) as f64,
        "MB",
        "WAL + checkpoint chain at the crash".into(),
    );
    out.state.push(format!("disk_bytes={disk_bytes}"));
    progress("crash image");

    // --- Export under the budget. ------------------------------------------
    // A second checkpoint gives the blocks frozen during the tail a frame
    // too, so the clock can bring residency under the budget.
    db.checkpoint().map_err(err("checkpoint"))?;
    await_budget(&db)?;
    let mem = db.memory_stats();
    out.state
        .push(format!("resident_bytes={} evicted_bytes={}", mem.resident_bytes, mem.evicted_bytes));
    let mem0 = db.memory_stats();
    let evicted = export::run(&db, &mut yard, 1, 0, || await_budget(&db))?;
    let mem1 = db.memory_stats();
    progress("export under the budget");
    let (flight, raw_flight) = median_rate(&evicted.flight_rows_per_s);
    out.timed_layer(
        "export.flight_evicted_rows_per_s",
        flight,
        "1/s",
        format!(
            "raw {raw_flight:.0}; {} rows, {} frozen / {} hot blocks",
            evicted.rows, evicted.frozen_blocks, evicted.hot_blocks
        ),
    );
    out.state.push(format!(
        "export under the budget frames={} faults={} evictions={}",
        evicted.frames,
        mem1.faults - mem0.faults,
        mem1.evictions - mem0.evictions
    ));
    if args.trace {
        layers::evicted_layers(&mut out, &db, &evicted, &mem0, &mem1)?;
    }
    db.shutdown();
    drop(env);
    drop(db);
    drop(log);

    // --- Restart. --------------------------------------------------------------
    let config = DbConfig {
        memory_budget_bytes: Some(u64::MAX),
        observability: Some(false),
        ..Default::default()
    };
    let probe = yard.probe();
    let start = Instant::now();
    let (rdb, rs) = Database::open_from_checkpoint(
        config,
        &crash.join("ckpt"),
        Some(&crash.join("db").join("wal")),
    )
    .map_err(err("restart"))?;
    let secs = start.elapsed().as_secs_f64();
    let factor = Yardstick::factor(probe, yard.probe());
    out.timed_layer("restart.open_s", secs * factor, "s", format!("raw {secs:.3}"));
    let tpcc = attach(&rdb)?;
    tpcc.check_consistency(&rdb).map_err(err("consistency after restart"))?;
    let recovered = next_order_ids(&rdb, &tpcc)?;
    if recovered != acked {
        return Err(format!("acknowledged NewOrders lost: d_next_o_id {recovered:?} after restart, {acked:?} before the crash"));
    }
    rdb.shutdown();
    progress("restart");
    out.state.push(format!(
        "restart frozen_blocks_loaded={} cold_rows_loaded={} delta_rows_loaded={} tail_txns_replayed={} index_entries_rebuilt={}",
        rs.frozen_blocks_loaded, rs.cold_rows_loaded, rs.delta_rows_loaded, rs.tail.txns_replayed, rs.index_entries_rebuilt
    ));
    out.layer("restart.frozen_blocks_loaded", rs.frozen_blocks_loaded as f64);
    out.layer("restart.delta_rows_loaded", rs.delta_rows_loaded as f64);
    out.layer("restart.tail_txns_replayed", rs.tail.txns_replayed as f64);
    out.layer("restart.index_entries_rebuilt", rs.index_entries_rebuilt as f64);

    out.metric(
        "setup_s",
        median(&mut setup_s.clone()),
        "s",
        format!("median of {SETUP_REPS}: {setup_s:.3?}"),
    );
    out.metric("peak_rss_mb", trace::peak_rss_mb(), "MB", "VmHWM".into());

    if args.trace {
        let spans = trace::take_spans();
        layers::span_layers(&mut out, &spans);
        let path = PathBuf::from(WORK_DIR).join(format!("trace-{}.csv", w.name()));
        let header = format!("workload={} seed={} seconds={}", w.name(), args.seed, args.seconds);
        trace::write_spans(&path, &header, &spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", spans.len(), path.display());
    }
    Ok(out)
}

/// Scratch space for databases and trace files, inside the benchmark's
/// directory.
const WORK_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/work");

fn json_result(run: &Run, metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    match result {
        Ok(run) => {
            for s in &run.state {
                println!("state: {s}");
            }
            println!("operations: attempted={} failed={}", run.attempted, run.failed);
            for (e, n) in &run.errors {
                println!("failure: {n} x {e}");
            }
            let metrics: Vec<(String, f64, String)> = if args.trace {
                layers::print_table(&run, args.workload.name())
            } else {
                for (name, value, unit, note) in &run.timed_layers {
                    println!("per-layer {name} = {value:.4} {unit}  ({note})");
                }
                run.end_to_end
                    .iter()
                    .map(|(name, value, unit, note)| {
                        println!("{name} = {value:.4} {unit}  ({note})");
                        (name.to_string(), *value, unit.to_string())
                    })
                    .collect()
            };
            println!("{}", json_result(&run, &metrics));
        }
        Err(e) => {
            eprintln!("FAILED: {e}");
            std::process::exit(1);
        }
    }
}
