//! Per-connection state machine: protocol detection, request execution, and
//! streaming with send backpressure.
//!
//! A connection is owned by exactly one worker thread, so nothing here
//! locks. Long responses (SELECT / DoGet) become a [`StreamJob`]: blocks are
//! encoded one at a time, only while the outbound queue is below the
//! configured send budget — a slow reader holds back encoding, not memory.

use crate::proto::{self, FlightRequest, Parsed, PgRequest, PgStartup};
use crate::server::ServerCore;
use crate::sql;
use mainline_common::value::{TypeId, Value};
use mainline_db::Admission;
use mainline_export::{flight, materialize, postgres};
use mainline_storage::raw_block::Block;
use mainline_txn::DataTable;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outbound byte queue: cheap chunk pushes (a moved IPC frame is never
/// re-copied), drained by non-blocking writes.
#[derive(Default)]
pub(crate) struct OutQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Offset into the front chunk already written.
    head: usize,
    /// Total unwritten bytes.
    len: usize,
}

impl OutQueue {
    fn push(&mut self, chunk: Vec<u8>) {
        if chunk.is_empty() {
            return;
        }
        self.len += chunk.len();
        self.chunks.push_back(chunk);
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What a long-running response still has to produce.
struct StreamJob {
    kind: JobKind,
    table: Arc<DataTable>,
    blocks: Vec<Arc<Block>>,
    next: usize,
    rows: u64,
    frozen: u32,
    hot: u32,
    /// Request arrival; the wire-latency histogram observes parse through
    /// the final response byte *encoded* (flush excluded — a slow reader is
    /// the client's latency, not the server's).
    started: Instant,
}

enum JobKind {
    /// PG SELECT: DataRow messages, then CommandComplete + ReadyForQuery.
    Pg { types: Vec<TypeId> },
    /// Flight DoGet: IPC batch frames, then an end frame.
    Flight,
}

#[derive(Debug, PartialEq, Eq)]
enum ConnState {
    /// Nothing decided yet: first bytes pick PG startup vs Flight magic.
    Detect,
    /// PG session, startup done, accepting Query messages.
    PgReady,
    /// Flight session, handshake done, accepting request frames.
    Flight,
}

/// One client connection (single-owner, driven by readiness events).
pub(crate) struct Conn {
    pub(crate) stream: mio::net::TcpStream,
    pub(crate) token: mio::Token,
    state: ConnState,
    inbuf: Vec<u8>,
    out: OutQueue,
    job: Option<StreamJob>,
    last_activity: Instant,
    /// Peer sent EOF; finish writing what is queued, then close.
    peer_eof: bool,
    /// Stop reading; close once the out queue drains (error or Terminate).
    close_after_flush: bool,
    /// Server is draining: no new requests, finish the in-flight response.
    draining: bool,
    /// Fully done; the worker reaps it.
    pub(crate) closed: bool,
}

impl Conn {
    pub(crate) fn new(stream: mio::net::TcpStream, token: mio::Token) -> Conn {
        Conn {
            stream,
            token,
            state: ConnState::Detect,
            inbuf: Vec::new(),
            out: OutQueue::default(),
            job: None,
            last_activity: Instant::now(),
            peer_eof: false,
            close_after_flush: false,
            draining: false,
            closed: false,
        }
    }

    /// Enter drain mode: stop reading new requests; the in-flight response
    /// (if any) still runs to completion and flushes.
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// True if the connection has been idle (no reads, nothing to write, no
    /// stream in flight) longer than `timeout`.
    pub(crate) fn idle_expired(&self, now: Instant, timeout: Duration) -> bool {
        self.job.is_none()
            && self.out.is_empty()
            && now.duration_since(self.last_activity) > timeout
    }

    /// React to a readiness event, then make all possible progress.
    pub(crate) fn handle_event(&mut self, readable: bool, core: &ServerCore) {
        if readable && !self.close_after_flush && !self.draining && !self.peer_eof {
            self.read_input(core);
        }
        self.advance(core);
    }

    /// Drive parsing, streaming, and flushing as far as they will go.
    pub(crate) fn advance(&mut self, core: &ServerCore) {
        if self.closed {
            return;
        }
        loop {
            if !self.close_after_flush {
                self.process_input(core);
            }
            self.pump(core);
            self.flush(core);
            if self.closed {
                return;
            }
            // A fast local client can consume as quickly as we encode: keep
            // streaming until the job ends or the socket pushes back.
            if self.job.is_some() && self.out.is_empty() {
                continue;
            }
            break;
        }
        // Close once everything owed is on the wire: after an error or
        // Terminate, after peer EOF, or at drain (queued-but-unprocessed
        // requests are dropped; the in-flight response above was finished).
        if self.out.is_empty()
            && self.job.is_none()
            && (self.close_after_flush || self.peer_eof || self.draining)
        {
            self.closed = true;
        }
    }

    /// The interest this connection currently needs, or `None` when the
    /// worker should reap it.
    pub(crate) fn interest(&self) -> Option<mio::Interest> {
        if self.closed {
            return None;
        }
        let reading = !self.close_after_flush && !self.draining && !self.peer_eof
            // While a stream is in flight, requests queue in the kernel
            // buffer: back-pressure to the client instead of to memory.
            && self.job.is_none();
        match (reading, !self.out.is_empty()) {
            (true, true) => Some(mio::Interest::READABLE | mio::Interest::WRITABLE),
            (true, false) => Some(mio::Interest::READABLE),
            (false, true) => Some(mio::Interest::WRITABLE),
            // Nothing to do but wait for the stream job to produce output —
            // keep READABLE so a vanished peer still surfaces.
            (false, false) => Some(mio::Interest::READABLE),
        }
    }

    fn read_input(&mut self, core: &ServerCore) {
        let mut chunk = [0u8; 16384];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    return;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    core.metrics.bytes_received.add(n as u64);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }

    /// Parse and execute complete requests from the input buffer. Stops when
    /// bytes run out, a stream job starts (requests are strictly
    /// sequential), or an error closes the connection.
    fn process_input(&mut self, core: &ServerCore) {
        while !self.closed && !self.close_after_flush && self.job.is_none() && !self.draining {
            let consumed = match self.state {
                ConnState::Detect => {
                    if self.inbuf.len() >= 4 && &self.inbuf[0..4] == proto::FLIGHT_MAGIC {
                        match proto::parse_flight_handshake(&self.inbuf) {
                            Parsed::Incomplete => return,
                            Parsed::Malformed(msg) => {
                                self.flight_fail(core, &msg);
                                return;
                            }
                            Parsed::Complete { consumed, .. } => {
                                self.out.push(proto::flight_handshake_ack());
                                self.state = ConnState::Flight;
                                consumed
                            }
                        }
                    } else {
                        match proto::parse_pg_startup(&self.inbuf) {
                            Parsed::Incomplete => return,
                            Parsed::Malformed(msg) => {
                                self.pg_fail(core, "08P01", &msg);
                                return;
                            }
                            Parsed::Complete { value, consumed } => {
                                match value {
                                    PgStartup::Ssl => self.out.push(b"N".to_vec()),
                                    PgStartup::Startup => {
                                        self.out.push(proto::pg_auth_ok());
                                        self.out.push(proto::pg_ready_for_query());
                                        self.state = ConnState::PgReady;
                                    }
                                    PgStartup::Cancel => {
                                        // Nothing to cancel: just close.
                                        self.close_after_flush = true;
                                    }
                                }
                                consumed
                            }
                        }
                    }
                }
                ConnState::PgReady => match proto::parse_pg_message(&self.inbuf) {
                    Parsed::Incomplete => return,
                    Parsed::Malformed(msg) => {
                        self.pg_fail(core, "08P01", &msg);
                        return;
                    }
                    Parsed::Complete { value, consumed } => {
                        self.inbuf.drain(..consumed);
                        match value {
                            PgRequest::Query(q) => self.execute_pg(core, &q),
                            PgRequest::Terminate => self.close_after_flush = true,
                            PgRequest::Other(t) => {
                                self.pg_fail(
                                    core,
                                    "08P01",
                                    &format!("unsupported message type {:?}", t as char),
                                );
                            }
                        }
                        continue;
                    }
                },
                ConnState::Flight => match proto::parse_flight_request(&self.inbuf) {
                    Parsed::Incomplete => return,
                    Parsed::Malformed(msg) => {
                        self.flight_fail(core, &msg);
                        return;
                    }
                    Parsed::Complete { value, consumed } => {
                        self.inbuf.drain(..consumed);
                        let FlightRequest::DoGet { table } = value;
                        self.execute_flight(core, &table);
                        continue;
                    }
                },
            };
            self.inbuf.drain(..consumed);
        }
    }

    /// Protocol error on a PG (or undecided) connection: ErrorResponse,
    /// then close after flush.
    fn pg_fail(&mut self, core: &ServerCore, code: &str, msg: &str) {
        core.metrics.protocol_errors.inc();
        mainline_obs::record_event(mainline_obs::kind::CONN_ERROR, self.token.0 as u64, 0);
        self.out.push(proto::pg_error(code, msg));
        self.close_after_flush = true;
    }

    /// Protocol error on a Flight connection: error frame, then close.
    fn flight_fail(&mut self, core: &ServerCore, msg: &str) {
        core.metrics.protocol_errors.inc();
        mainline_obs::record_event(mainline_obs::kind::CONN_ERROR, self.token.0 as u64, 1);
        self.out.push(proto::flight_error_frame(msg));
        self.close_after_flush = true;
    }

    fn execute_pg(&mut self, core: &ServerCore, sql_text: &str) {
        core.metrics.queries.inc();
        let started = Instant::now();
        match sql::parse(sql_text) {
            Err(msg) => {
                self.out.push(proto::pg_error("42601", &msg));
                self.out.push(proto::pg_ready_for_query());
            }
            // Introspection virtual tables first: they shadow any real table
            // of the same name and are answered synchronously (tiny result
            // sets — no stream job, no snapshot transaction).
            Ok(sql::Command::Select { table }) if table == "mainline_metrics" => {
                self.serve_metrics(core)
            }
            Ok(sql::Command::Select { table }) if table == "mainline_events" => self.serve_events(),
            Ok(sql::Command::Select { table }) => match core.db.catalog().table(&table) {
                Err(_) => {
                    self.out.push(proto::pg_error(
                        "42P01",
                        &format!("relation \"{table}\" does not exist"),
                    ));
                    self.out.push(proto::pg_ready_for_query());
                }
                Ok(handle) => {
                    let t = Arc::clone(handle.table());
                    self.out.push(postgres::row_description(&t));
                    self.job = Some(StreamJob {
                        kind: JobKind::Pg { types: t.types().to_vec() },
                        blocks: t.blocks(),
                        table: t,
                        next: 0,
                        rows: 0,
                        frozen: 0,
                        hot: 0,
                        started,
                    });
                }
            },
            Ok(sql::Command::Insert { table, rows }) => self.execute_insert(core, &table, &rows),
        }
        // Streaming SELECTs observe at job completion (in `pump`); every
        // synchronous outcome — INSERT, virtual table, error — is fully
        // encoded right here.
        if self.job.is_none() {
            core.metrics.query_nanos.observe_duration(started.elapsed());
        }
    }

    /// `SELECT * FROM mainline_metrics`: every counter, gauge, and histogram
    /// in the served database's registry — its subsystems' sets plus every
    /// server's `server_*` set — as text rows `(name, kind, value, detail)`.
    /// Histograms surface their observation count as `value` and the
    /// distribution as `detail`.
    fn serve_metrics(&mut self, core: &ServerCore) {
        let snap = core.db.metrics_snapshot();
        self.out.push(postgres::named_row_description(&["name", "kind", "value", "detail"]));
        let mut buf = Vec::new();
        let mut rows = 0u64;
        for (name, v) in snap.counters() {
            postgres::text_data_row(
                &[name.clone(), "counter".into(), v.to_string(), String::new()],
                &mut buf,
            );
            rows += 1;
        }
        for (name, v) in snap.gauges() {
            postgres::text_data_row(
                &[name.clone(), "gauge".into(), v.to_string(), String::new()],
                &mut buf,
            );
            rows += 1;
        }
        for (name, h) in snap.histograms() {
            let detail = format!(
                "sum={} mean={:.0} p50={} p99={} max~{}",
                h.sum,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max_bound(),
            );
            postgres::text_data_row(
                &[name.clone(), "histogram".into(), h.count.to_string(), detail],
                &mut buf,
            );
            rows += 1;
        }
        self.out.push(buf);
        self.out.push(postgres::command_complete(&format!("SELECT {rows}")));
        self.out.push(proto::pg_ready_for_query());
    }

    /// `SELECT * FROM mainline_events`: the structured trace ring as text
    /// rows `(seq, micros, kind, a, b)`, oldest first. Empty unless event
    /// tracing is enabled (`DbConfig::observability` / the `observed` profile).
    fn serve_events(&mut self) {
        let events = mainline_obs::events_snapshot();
        self.out.push(postgres::named_row_description(&["seq", "micros", "kind", "a", "b"]));
        let mut buf = Vec::new();
        for e in &events {
            postgres::text_data_row(
                &[
                    e.seq.to_string(),
                    e.micros.to_string(),
                    e.kind.to_string(),
                    e.a.to_string(),
                    e.b.to_string(),
                ],
                &mut buf,
            );
        }
        self.out.push(buf);
        self.out.push(postgres::command_complete(&format!("SELECT {}", events.len())));
        self.out.push(proto::pg_ready_for_query());
    }

    fn execute_insert(&mut self, core: &ServerCore, table: &str, rows: &[Vec<sql::Literal>]) {
        // Per-request admission at the connection boundary, mirroring the
        // TPC-C driver: the controller may yield or stall this worker thread
        // (bounded), which is exactly the backpressure the paper's control
        // loop wants the client to feel.
        match core.db.admission().admit() {
            Admission::Admitted => {}
            Admission::Yielded | Admission::Stalled => {
                core.metrics.admission_throttles.inc();
            }
        }
        let handle = match core.db.catalog().table(table) {
            Ok(h) => h,
            Err(_) => {
                self.out.push(proto::pg_error(
                    "42P01",
                    &format!("relation \"{table}\" does not exist"),
                ));
                self.out.push(proto::pg_ready_for_query());
                return;
            }
        };
        // Validate + coerce every row before touching the transaction, so a
        // bad literal never leaves a half-applied multi-row insert.
        let columns = handle.table().schema().columns().to_vec();
        let mut coerced: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != columns.len() {
                self.out.push(proto::pg_error(
                    "42601",
                    &format!("expected {} values, got {}", columns.len(), row.len()),
                ));
                self.out.push(proto::pg_ready_for_query());
                return;
            }
            let mut vals = Vec::with_capacity(row.len());
            for (lit, col) in row.iter().zip(&columns) {
                match sql::coerce(lit, col) {
                    Ok(v) => vals.push(v),
                    Err((code, msg)) => {
                        self.out.push(proto::pg_error(code, &msg));
                        self.out.push(proto::pg_ready_for_query());
                        return;
                    }
                }
            }
            coerced.push(vals);
        }
        let txn = core.db.manager().begin();
        for vals in &coerced {
            handle.insert(&txn, vals);
        }
        core.db.manager().commit(&txn);
        // The engine acks commits asynchronously (group commit); the wire
        // protocol withholds CommandComplete until the write is durable, so
        // an acked insert survives any crash-after-ack.
        if let Some(log) = core.db.log_manager() {
            if !txn.is_durable() {
                log.flush();
            }
        }
        core.metrics.rows_inserted.add(coerced.len() as u64);
        self.out.push(postgres::command_complete(&format!("INSERT 0 {}", coerced.len())));
        self.out.push(proto::pg_ready_for_query());
    }

    fn execute_flight(&mut self, core: &ServerCore, table: &str) {
        match core.db.catalog().table(table) {
            Err(_) => {
                // Stream-level error; the connection stays usable.
                self.out
                    .push(proto::flight_error_frame(&format!("table \"{table}\" does not exist")));
            }
            Ok(handle) => {
                let t = Arc::clone(handle.table());
                self.job = Some(StreamJob {
                    kind: JobKind::Flight,
                    blocks: t.blocks(),
                    table: t,
                    next: 0,
                    rows: 0,
                    frozen: 0,
                    hot: 0,
                    started: Instant::now(),
                });
            }
        }
    }

    /// Encode stream-job blocks into the out queue, but only while below the
    /// send budget: a slow reader throttles encoding, not server memory.
    fn pump(&mut self, core: &ServerCore) {
        loop {
            if self.job.is_none() || self.out.len() >= core.cfg.send_buffer_bytes {
                return;
            }
            let finished = {
                let job = self.job.as_ref().unwrap();
                job.next >= job.blocks.len()
            };
            if finished {
                let job = self.job.take().unwrap();
                core.metrics.query_nanos.observe_duration(job.started.elapsed());
                core.metrics.streams.inc();
                core.metrics.rows_served.add(job.rows);
                core.metrics.frozen_blocks_served.add(job.frozen as u64);
                core.metrics.hot_blocks_served.add(job.hot as u64);
                match job.kind {
                    JobKind::Pg { .. } => {
                        self.out.push(postgres::command_complete(&format!("SELECT {}", job.rows)));
                        self.out.push(proto::pg_ready_for_query());
                    }
                    JobKind::Flight => {
                        self.out.push(proto::flight_end_frame(job.rows, job.frozen, job.hot));
                    }
                }
                return;
            }
            let job = self.job.as_mut().unwrap();
            let block = Arc::clone(&job.blocks[job.next]);
            job.next += 1;
            match &job.kind {
                JobKind::Pg { types } => {
                    // Evicted blocks fault in inside block_batch.
                    let (batch, frozen) =
                        materialize::block_batch(core.db.manager(), &job.table, &block);
                    let mut buf = Vec::new();
                    job.rows += postgres::data_rows(&batch, types, &mut buf);
                    if frozen {
                        job.frozen += 1;
                    } else {
                        job.hot += 1;
                    }
                    self.out.push(buf);
                }
                JobKind::Flight => {
                    // Frozen path: the IPC frame is built straight from block
                    // memory (one memcpy) and the Vec is moved to the socket
                    // queue — no re-encode between block and wire.
                    let (ipc, frozen, rows) =
                        flight::encode_block(core.db.manager(), &job.table, &block);
                    job.rows += rows;
                    if frozen {
                        job.frozen += 1;
                    } else {
                        job.hot += 1;
                    }
                    self.out.push(proto::flight_batch_header(frozen, ipc.len()));
                    self.out.push(ipc);
                }
            }
        }
    }

    /// Write queued bytes until the socket pushes back.
    fn flush(&mut self, core: &ServerCore) {
        while let Some(front) = self.out.chunks.front() {
            match self.stream.write(&front[self.out.head..]) {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => {
                    core.metrics.bytes_sent.add(n as u64);
                    self.last_activity = Instant::now();
                    self.out.head += n;
                    self.out.len -= n;
                    if self.out.head == front.len() {
                        self.out.chunks.pop_front();
                        self.out.head = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }
}
