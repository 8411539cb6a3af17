//! Per-layer metrics of the traced mode: what each one measures, which
//! end-to-end metric it should move on which workload, and how the traced
//! run fills it in.

use crate::export::{ExportStats, TABLE};
use crate::trace::{self, span, Span};
use crate::{busy_pct, Run};
use mainline_db::Database;
use mainline_export::{flight, materialize, postgres};
use mainline_storage::block_state::BlockStateMachine;
use mainline_storage::{BlockState, MemoryStats};

/// `(name, unit, should move -> on)`, in report order. `BENCHMARK.json`'s
/// `per_layer` list is this table.
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("workloads.new_order_us", "us", "txn_per_s, new_order_p50_us -> oltp, htap"),
    ("workloads.payment_us", "us", "txn_per_s, payment_p50_us -> oltp, htap"),
    ("workloads.order_status_us", "us", "txn_per_s -> oltp, htap"),
    ("workloads.delivery_us", "us", "txn_per_s -> oltp, htap"),
    ("workloads.stock_level_us", "us", "txn_per_s -> oltp, htap"),
    ("workloads.new_order_p99_us", "us", "txn_per_s -> oltp, htap"),
    ("txn.begin_ns", "ns", "payment_p50_us -> oltp"),
    ("txn.commit_ns", "ns", "payment_p50_us -> oltp"),
    ("db.lookup_ns", "ns", "new_order_p50_us -> oltp"),
    ("db.update_ns", "ns", "new_order_p50_us -> oltp"),
    ("db.insert_ns", "ns", "new_order_p50_us -> oltp"),
    ("db.scan_prefix_ns", "ns", "payment_p50_us, txn_per_s -> oltp"),
    ("probe.new_order_us", "us", "new_order_p50_us -> oltp"),
    ("probe.new_order_layers_us", "us", "new_order_p50_us -> oltp"),
    ("probe.payment_us", "us", "payment_p50_us -> oltp"),
    ("probe.payment_layers_us", "us", "payment_p50_us -> oltp"),
    ("index.descent_restarts", "count", "workloads.new_order_p99_us -> htap"),
    ("wal.busy_pct", "%", "txn_per_s -> oltp"),
    ("wal.bytes_per_txn", "B", "txn_per_s -> oltp; disk_mb -> oltp, htap"),
    ("wal.group_commit_txns", "count", "txn_per_s -> oltp"),
    ("gc.busy_pct", "%", "workloads.new_order_p99_us -> oltp"),
    ("client.busy_pct", "%", "txn_per_s -> oltp (share lost to preemption)"),
    ("transform.busy_pct", "%", "txn_per_s -> htap (oltp: 0)"),
    ("transform.blocks_frozen", "count", "export.flight_rows_per_s -> htap"),
    ("transform.groups_compacted", "count", "txn_per_s -> htap"),
    ("transform.settle_s", "s", "setup_s -> htap"),
    ("admission.stalls", "count", "workloads.new_order_p99_us -> htap"),
    ("export.flight_rows_per_s", "1/s", "(timed, ungated) resident DoGet -> htap; oltp: hot"),
    ("export.pgwire_rows_per_s", "1/s", "(timed, ungated) SELECT over PG wire -> oltp, htap"),
    ("export.flight_evicted_rows_per_s", "1/s", "(timed, ungated) faulting DoGet -> htap"),
    ("export.encode_block_us", "us", "export.flight_rows_per_s -> htap (oltp: hot)"),
    ("export.pg_encode_us", "us", "export.pgwire_rows_per_s -> htap"),
    ("export.frozen_block_share", "fraction", "export.flight_rows_per_s -> htap (oltp: 0)"),
    ("arrowlite.decode_us", "us", "export.flight_rows_per_s -> htap"),
    ("server.busy_pct", "%", "export.flight_rows_per_s, export.pgwire_rows_per_s -> htap"),
    ("server.query_ns_p50", "ns", "export.pgwire_rows_per_s -> htap"),
    ("server.do_get_ms", "ms", "export.flight_rows_per_s -> htap"),
    ("storage.faults", "count", "export.flight_evicted_rows_per_s -> htap (oltp: 0)"),
    ("storage.evictions", "count", "export.flight_evicted_rows_per_s -> htap (oltp: 0)"),
    ("storage.evictor_busy_pct", "%", "export.flight_evicted_rows_per_s -> htap"),
    ("storage.tail_faults", "count", "none timed: OLTP faults under the budget -> htap (oltp: 0)"),
    ("checkpoint.pass_s", "s", "none timed: disk_mb -> oltp, htap"),
    ("checkpoint.cold_bytes", "B", "disk_mb -> htap"),
    ("checkpoint.delta_bytes", "B", "disk_mb, restart.open_s -> oltp"),
    ("checkpoint.fault_in_us", "us", "export.flight_evicted_rows_per_s -> htap"),
    ("restart.open_s", "s", "(timed, ungated) open_from_checkpoint -> oltp, htap"),
    ("restart.frozen_blocks_loaded", "count", "restart.open_s -> htap"),
    ("restart.delta_rows_loaded", "count", "restart.open_s -> oltp"),
    ("restart.tail_txns_replayed", "count", "restart.open_s -> oltp, htap"),
    ("restart.index_entries_rebuilt", "count", "restart.open_s -> oltp, htap"),
    ("trace.overhead_pct", "%", "(traced minus untraced time per transaction)"),
];

/// Export-side layers of the resident export, measured after it: server
/// thread CPU, the frozen share DoGet reported, the server's query latency,
/// and in-process encode spans over the same table, every block resident.
pub fn resident_layers(out: &mut Run, db: &Database, resident: &ExportStats) -> Result<(), String> {
    out.layer("server.busy_pct", busy_pct(resident.server_cpu_s, resident.wall_s));
    let blocks = (resident.frozen_blocks + resident.hot_blocks).max(1);
    out.layer("export.frozen_block_share", resident.frozen_blocks as f64 / blocks as f64);
    let snap = db.metrics_snapshot();
    out.layer(
        "server.query_ns_p50",
        snap.histogram("server_query_nanos").map(|h| h.quantile(0.5) as f64).unwrap_or(0.0),
    );
    let handle = db.catalog().table(TABLE).map_err(|e| format!("catalog: {e}"))?;
    let table = handle.table();
    let types = table.types().to_vec();
    let mut buf = Vec::new();
    for block in table.blocks() {
        span("export.encode_block", || flight::encode_block(db.manager(), table, &block));
        span("export.pg_encode", || {
            buf.clear();
            let (batch, _) = materialize::block_batch(db.manager(), table, &block);
            postgres::data_rows(&batch, &types, &mut buf)
        });
    }
    Ok(())
}

/// Layers of the export under the budget, measured after it: evictor CPU,
/// buffer-manager deltas over the export (`mem0` to `mem1`), and fault-in
/// spans over every block evicted once residency is back under budget.
pub fn evicted_layers(
    out: &mut Run,
    db: &Database,
    evicted: &ExportStats,
    mem0: &MemoryStats,
    mem1: &MemoryStats,
) -> Result<(), String> {
    out.layer("storage.evictor_busy_pct", busy_pct(evicted.evictor_cpu_s, evicted.wall_s));
    out.layer("storage.faults", (mem1.faults - mem0.faults) as f64);
    out.layer("storage.evictions", (mem1.evictions - mem0.evictions) as f64);
    let handle = db.catalog().table(TABLE).map_err(|e| format!("catalog: {e}"))?;
    let table = handle.table();
    crate::await_budget(db)?;
    for block in table.blocks() {
        if BlockStateMachine::state(block.header()) == BlockState::Evicted {
            span("checkpoint.fault_in", || table.ensure_resident(block.as_ptr()))
                .map_err(|e| format!("fault-in: {e}"))?;
        }
    }
    Ok(())
}

/// Layers read off the span list: medians of each call site, and the
/// probe's split between layer calls and the client's own time.
pub fn span_layers(out: &mut Run, spans: &[Span]) {
    let s = trace::summarize(spans);
    let med = |name: &str, scale: f64| s.get(name).map(|x| x.median_ns / scale).unwrap_or(0.0);
    for (layer, name, scale) in [
        ("workloads.new_order_us", "workloads.new_order", 1e3),
        ("workloads.payment_us", "workloads.payment", 1e3),
        ("workloads.order_status_us", "workloads.order_status", 1e3),
        ("workloads.delivery_us", "workloads.delivery", 1e3),
        ("workloads.stock_level_us", "workloads.stock_level", 1e3),
        ("txn.begin_ns", "txn.begin", 1.0),
        ("txn.commit_ns", "txn.commit", 1.0),
        ("db.lookup_ns", "db.lookup", 1.0),
        ("db.update_ns", "db.update", 1.0),
        ("db.insert_ns", "db.insert", 1.0),
        ("db.scan_prefix_ns", "db.scan_prefix", 1.0),
        ("probe.new_order_us", "probe.new_order", 1e3),
        ("probe.payment_us", "probe.payment", 1e3),
        ("arrowlite.decode_us", "arrowlite.decode", 1e3),
        ("server.do_get_ms", "server.do_get", 1e6),
        ("export.encode_block_us", "export.encode_block", 1e3),
        ("export.pg_encode_us", "export.pg_encode", 1e3),
        ("checkpoint.fault_in_us", "checkpoint.fault_in", 1e3),
    ] {
        out.layer(layer, med(name, scale));
    }
    // A probe transaction's time inside layer calls: its duration minus its
    // self time (the client's own work between calls).
    for (layer, name) in [
        ("probe.new_order_layers_us", "probe.new_order"),
        ("probe.payment_layers_us", "probe.payment"),
    ] {
        let covered = s.get(name).map(|x| (x.median_ns - x.self_median_ns) / 1e3).unwrap_or(0.0);
        out.layer(layer, covered);
    }
}

/// Print the per-layer table and return it as JSON metrics, in
/// [`LAYERS`] order.
pub fn print_table(run: &Run, workload: &str) -> Vec<(String, f64, String)> {
    let get = |name: &str| run.layers.get(name).copied().unwrap_or(0.0);
    println!("per-layer metrics, workload {workload} (traced run):");
    println!("  {:<32} {:>14} {:<8} should move -> on", "metric", "value", "unit");
    let mut metrics = Vec::new();
    for (name, unit, moves) in LAYERS {
        let v = get(name);
        println!("  {name:<32} {v:>14.3} {unit:<8} {moves}");
        metrics.push((name.to_string(), v, unit.to_string()));
    }
    for (shape, mix_name) in
        [("new_order", "workloads.new_order_us"), ("payment", "workloads.payment_us")]
    {
        let total = get(&format!("probe.{shape}_us"));
        let layers = get(&format!("probe.{shape}_layers_us"));
        let measured = get(mix_name);
        println!(
            "probe {shape}: {total:.1} us = {layers:.1} us in txn/db calls + {:.1} us client; \
             mix {shape} median {measured:.1} us, gap {:.1} us",
            total - layers,
            measured - total
        );
    }
    println!(
        "tracing overhead: {:+.2} % per transaction (traced vs untraced chunks)",
        get("trace.overhead_pct")
    );
    metrics
}
