//! The export phase: repeated Flight `DoGet("order_line")` calls alternating
//! with PG-wire `SELECT * FROM order_line`, over loopback against a served
//! database, with every result checked against `count_visible`.

use crate::trace::{self, span};
use crate::yardstick::Yardstick;
use crate::Scaled;
use mainline_arrowlite::ipc;
use mainline_db::Database;
use mainline_server::client::{FlightClient, PgClient};
use mainline_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TABLE: &str = "order_line";

#[derive(Default)]
pub struct ExportStats {
    /// Rows per second of each DoGet's wall time.
    pub flight_rows_per_s: Vec<Scaled>,
    /// Rows per second of each simple query's wall time (text parsing in
    /// the client included).
    pub pg_rows_per_s: Vec<Scaled>,
    pub rows: u64,
    pub frames: u64,
    pub frozen_blocks: u32,
    pub hot_blocks: u32,
    /// Wall seconds of the whole phase (busy-share denominator).
    pub wall_s: f64,
    /// CPU seconds of the server's threads (`server-*`) and of the eviction
    /// clock (`evictor`) over the phase.
    pub server_cpu_s: f64,
    pub evictor_cpu_s: f64,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Serve `db` with one worker thread and run `dogets` DoGets, then
/// `selects` SELECTs. Alternating the two made every DoGet after a SELECT
/// run at half speed. `before_each` runs (untimed) before every request;
/// the export under the budget uses it to wait for the evictor to bring
/// residency back under it. A yardstick probe before and after each
/// request scales its rate.
pub fn run(
    db: &Arc<Database>,
    yard: &mut Yardstick,
    dogets: usize,
    selects: usize,
    mut before_each: impl FnMut() -> Result<(), String>,
) -> Result<ExportStats, String> {
    let expected = {
        let handle = db.catalog().table(TABLE).map_err(|e| io_err("catalog", e))?;
        let txn = db.manager().begin();
        let n = handle.table().count_visible(&txn) as u64;
        db.manager().commit(&txn);
        n
    };
    let server = Server::start(Arc::clone(db), ServerConfig { workers: 1, ..Default::default() })
        .map_err(|e| io_err("server start", e))?;
    let result = (|| {
        let timeout = Some(Duration::from_secs(60));
        let mut flight =
            FlightClient::connect(server.addr()).map_err(|e| io_err("flight connect", e))?;
        flight.set_read_timeout(timeout).map_err(|e| io_err("flight", e))?;
        let mut pg = PgClient::connect(server.addr()).map_err(|e| io_err("pg connect", e))?;
        pg.set_read_timeout(timeout).map_err(|e| io_err("pg", e))?;
        let mut stats = ExportStats { rows: expected, ..Default::default() };
        let phase = Instant::now();
        let cpu0 = trace::thread_cpu();
        for _ in 0..dogets {
            before_each()?;
            let probe = yard.probe();
            let start = Instant::now();
            let got =
                span("server.do_get", || flight.do_get(TABLE)).map_err(|e| io_err("DoGet", e))?;
            let secs = start.elapsed().as_secs_f64();
            if let Some(err) = got.error {
                return Err(format!("DoGet error frame: {err}"));
            }
            if got.rows != expected {
                return Err(format!(
                    "DoGet delivered {} rows, count_visible is {expected}",
                    got.rows
                ));
            }
            let mut decoded = 0u64;
            for (_, frame) in &got.batches {
                let batch = span("arrowlite.decode", || ipc::decode_batch(frame))
                    .map_err(|e| io_err("IPC frame does not decode", e))?;
                decoded += (0..batch.num_rows())
                    .filter(|&r| batch.columns().iter().any(|c| c.is_valid(r)))
                    .count() as u64;
            }
            if decoded != expected {
                return Err(format!(
                    "decoded frames hold {decoded} rows, count_visible is {expected}"
                ));
            }
            stats.frames = got.batches.len() as u64;
            stats.frozen_blocks = got.frozen_blocks;
            stats.hot_blocks = got.hot_blocks;
            let factor = Yardstick::factor(probe, yard.probe());
            stats.flight_rows_per_s.push(Scaled { raw: expected as f64 / secs, factor });
        }
        for _ in 0..selects {
            before_each()?;
            let probe = yard.probe();
            let start = Instant::now();
            let out = span("server.pg_select", || pg.query(&format!("SELECT * FROM {TABLE}")))
                .map_err(|e| io_err("SELECT", e))?;
            let secs = start.elapsed().as_secs_f64();
            if let Some(err) = out.error {
                return Err(format!("SELECT error {}: {}", err.code, err.message));
            }
            if out.rows.len() as u64 != expected {
                return Err(format!(
                    "SELECT returned {} rows, count_visible is {expected}",
                    out.rows.len()
                ));
            }
            let factor = Yardstick::factor(probe, yard.probe());
            stats.pg_rows_per_s.push(Scaled { raw: expected as f64 / secs, factor });
        }
        stats.wall_s = phase.elapsed().as_secs_f64();
        let cpu1 = trace::thread_cpu();
        stats.server_cpu_s = trace::cpu_delta(&cpu0, &cpu1, "server-");
        stats.evictor_cpu_s = trace::cpu_delta(&cpu0, &cpu1, "evictor");
        let _ = pg.terminate();
        Ok(stats)
    })();
    server.shutdown();
    result
}
