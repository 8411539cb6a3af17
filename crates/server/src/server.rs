//! The listener: an accept thread plus N poll-driven worker threads, with
//! graceful drain wired into the database's shutdown ordering.
//!
//! Topology: the accept thread owns the `TcpListener` and hands accepted
//! sockets round-robin to workers through per-worker injection queues (waking
//! the worker's poll). Each worker owns its connections outright — no shared
//! connection state, no locks on the data path. Drain follows PR 2's
//! worker-drain discipline: flip the stop flag, wake everyone; the accept
//! thread closes the listener, workers finish in-flight responses (bounded
//! by `drain_timeout`), flush, close, and join.

use crate::conn::Conn;
use crossbeam::queue::SegQueue;
use mainline_db::Database;
use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Token reserved for each thread's waker.
const WAKER_TOKEN: Token = Token(0);
/// Token for the listener on the accept thread's poll.
const LISTENER_TOKEN: Token = Token(1);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port (read it back with
    /// [`Server::addr`]).
    pub addr: SocketAddr,
    /// Worker threads (connections are partitioned across them).
    pub workers: usize,
    /// Hard cap on simultaneously open connections; beyond it, accepts are
    /// dropped immediately.
    pub max_connections: usize,
    /// Per-connection send budget: a stream job stops encoding further
    /// blocks while this many bytes are queued unsent (backpressure to the
    /// encoder, not server memory).
    pub send_buffer_bytes: usize,
    /// Connections idle longer than this (no request, nothing in flight)
    /// are closed.
    pub idle_timeout: Duration,
    /// Upper bound on graceful drain: connections still busy past the
    /// deadline are force-closed.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("static addr"),
            workers: 2,
            max_connections: 128,
            send_buffer_bytes: 256 << 10,
            idle_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

mainline_obs::metric_set! {
    /// What a server records, from its accept and worker threads. The set
    /// is registered with the served database when the server starts and
    /// stays there after it stops, so the database's snapshot (and the
    /// `SELECT * FROM mainline_metrics` virtual table) keeps its counts.
    pub struct ServerMetrics {
        connections_accepted:
            Counter("server_connections_accepted", "connections accepted and handed to a worker"),
        connections_open: Gauge("server_connections_open", "connections currently open"),
        connections_rejected:
            Counter("server_connections_rejected", "dropped at accept: max_connections reached"),
        connections_idle_closed:
            Counter("server_connections_idle_closed", "connections closed by the idle timeout"),
        bytes_received: Counter("server_bytes_received", "request bytes read off sockets"),
        bytes_sent: Counter("server_bytes_sent", "response bytes written to sockets"),
        queries: Counter("server_queries", "PG Query messages executed, errors included"),
        rows_inserted: Counter("server_rows_inserted", "rows inserted by acked INSERT statements"),
        streams: Counter("server_streams", "completed streaming responses (PG SELECT + Flight)"),
        rows_served: Counter("server_rows_served", "rows delivered by streaming responses"),
        frozen_blocks_served:
            Counter("server_frozen_blocks_served", "blocks served zero-copy from frozen Arrow"),
        hot_blocks_served:
            Counter("server_hot_blocks_served", "blocks served from a hot transactional snapshot"),
        admission_throttles:
            Counter("server_admission_throttles", "writes that admission yielded or stalled"),
        protocol_errors:
            Counter("server_protocol_errors", "malformed frames answered with an error + close"),
        query_nanos:
            Histogram("server_query_nanos", "PG Query parse to final encode, or one Flight stream"),
    }
}

struct WorkerLink {
    /// Accepted sockets waiting for this worker to adopt them.
    inbox: SegQueue<TcpStream>,
    waker: Waker,
}

/// State shared by the accept thread, the workers, and the handle.
pub(crate) struct ServerCore {
    pub(crate) cfg: ServerConfig,
    pub(crate) db: Arc<Database>,
    pub(crate) metrics: Arc<ServerMetrics>,
    stop: AtomicBool,
    workers: Vec<WorkerLink>,
    accept_waker: Waker,
    threads: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServerCore {
    /// Flip the stop flag, wake every thread, and join them. Idempotent and
    /// safe to race: the joiner is whoever drains the handle vector first;
    /// later callers block on the lock until the drain has finished.
    fn shutdown_and_join(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.accept_waker.wake();
        for w in &self.workers {
            let _ = w.waker.wake();
        }
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Handle to a running server. Dropping it (or calling
/// [`shutdown`](Server::shutdown)) drains gracefully; `Database::shutdown`
/// also drains it first via a pre-shutdown hook, so in-flight responses
/// always finish against a fully-running engine.
pub struct Server {
    core: Arc<ServerCore>,
}

impl Server {
    /// Bind and start serving `db` per `config`.
    pub fn start(db: Arc<Database>, config: ServerConfig) -> io::Result<Server> {
        let workers = config.workers.max(1);
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;

        let mut worker_polls = Vec::with_capacity(workers);
        let mut links = Vec::with_capacity(workers);
        for _ in 0..workers {
            let poll = Poll::new()?;
            let waker = Waker::new(poll.registry(), WAKER_TOKEN)?;
            worker_polls.push(poll);
            links.push(WorkerLink { inbox: SegQueue::new(), waker });
        }
        let accept_poll = Poll::new()?;
        let accept_waker = Waker::new(accept_poll.registry(), WAKER_TOKEN)?;
        accept_poll.registry().register(&listener, LISTENER_TOKEN, Interest::READABLE)?;

        let core = Arc::new(ServerCore {
            cfg: ServerConfig { addr, ..config },
            db: Arc::clone(&db),
            metrics: Arc::default(),
            stop: AtomicBool::new(false),
            workers: links,
            accept_waker,
            threads: parking_lot::Mutex::new(Vec::new()),
        });

        let mut threads = Vec::with_capacity(workers + 1);
        {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name("server-accept".into())
                    .spawn(move || accept_loop(core, accept_poll, listener))
                    .expect("spawn accept thread"),
            );
        }
        for (i, poll) in worker_polls.into_iter().enumerate() {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("server-worker-{i}"))
                    .spawn(move || worker_loop(core, i, poll))
                    .expect("spawn server worker"),
            );
        }
        *core.threads.lock() = threads;

        // Drain before the engine tears down: Database::shutdown runs this
        // hook before stopping any engine thread. Weak, so a server the
        // user already dropped (and joined) is skipped, and the hook itself
        // never keeps the core alive.
        let weak: Weak<ServerCore> = Arc::downgrade(&core);
        db.register_pre_shutdown(Box::new(move || {
            if let Some(core) = weak.upgrade() {
                core.shutdown_and_join();
            }
        }));

        db.metrics().add(core.metrics.clone());
        Ok(Server { core })
    }

    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.core.cfg.addr
    }

    /// This server's metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.core.metrics
    }

    /// Graceful drain: stop accepting, finish in-flight responses (bounded
    /// by `drain_timeout`), then join every server thread. Idempotent.
    pub fn shutdown(&self) {
        self.core.shutdown_and_join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.core.shutdown_and_join();
    }
}

/// `Database::serve(config)` — the ergonomic entry point.
pub trait DatabaseServe {
    /// Start a network frontend over this database.
    fn serve(&self, config: ServerConfig) -> io::Result<Server>;
}

impl DatabaseServe for Arc<Database> {
    fn serve(&self, config: ServerConfig) -> io::Result<Server> {
        Server::start(Arc::clone(self), config)
    }
}

fn accept_loop(core: Arc<ServerCore>, mut poll: Poll, listener: TcpListener) {
    let mut events = Events::with_capacity(8);
    let mut rr = 0usize;
    while !core.stop.load(Ordering::SeqCst) {
        let _ = poll.poll(&mut events, Some(Duration::from_millis(200)));
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // The open-connection gauge moves here (not in the
                    // worker) so this cap check never lags an accept burst.
                    let m = &core.metrics;
                    if m.connections_open.get() >= core.cfg.max_connections as i64 {
                        m.connections_rejected.inc();
                        continue; // stream drops: peer sees a reset/EOF
                    }
                    m.connections_open.add(1);
                    m.connections_accepted.inc();
                    let (accepted, open) =
                        (m.connections_accepted.get(), m.connections_open.get() as u64);
                    mainline_obs::record_event(mainline_obs::kind::CONN_OPEN, accepted, open);
                    // Responses go out as several small chunks; without
                    // NODELAY, Nagle + the peer's delayed ACK adds ~40 ms
                    // to every request/response exchange.
                    let _ = stream.set_nodelay(true);
                    let link = &core.workers[rr % core.workers.len()];
                    rr += 1;
                    link.inbox.push(stream);
                    let _ = link.waker.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
    // Listener drops here: the port closes before any connection drains.
}

fn worker_loop(core: Arc<ServerCore>, idx: usize, mut poll: Poll) {
    let mut events = Events::with_capacity(256);
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_token = 2usize; // 0 = waker, 1 = (unused) listener token space
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if core.stop.load(Ordering::SeqCst) && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + core.cfg.drain_timeout);
            for conn in conns.values_mut() {
                conn.begin_drain();
                conn.advance(&core);
            }
        }
        if let Some(deadline) = drain_deadline {
            if conns.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                // Drain budget exhausted: force-close whatever is left.
                for (_, conn) in conns.drain() {
                    let _ = poll.registry().deregister(&conn.stream);
                    core.metrics.connections_open.sub(1);
                }
                break;
            }
        }

        let _ = poll.poll(&mut events, Some(Duration::from_millis(50)));

        // Adopt newly accepted sockets.
        while let Some(stream) = core.workers[idx].inbox.pop() {
            if drain_deadline.is_some() {
                core.metrics.connections_open.sub(1);
                continue; // raced the drain: drop it
            }
            let token = Token(next_token);
            next_token += 1;
            let conn = Conn::new(stream, token);
            if poll.registry().register(&conn.stream, token, Interest::READABLE).is_ok() {
                conns.insert(token.0, conn);
            } else {
                core.metrics.connections_open.sub(1);
            }
        }

        for ev in events.iter() {
            if ev.token() == WAKER_TOKEN {
                continue;
            }
            if let Some(conn) = conns.get_mut(&ev.token().0) {
                conn.handle_event(ev.is_readable(), &core);
            }
        }

        // Sweep: idle timeout, drain progress (draining connections advance
        // on the tick even without events), interest updates, reaping.
        let now = Instant::now();
        let mut dead = Vec::new();
        for (key, conn) in conns.iter_mut() {
            if drain_deadline.is_some() && !conn.closed {
                conn.advance(&core);
            }
            if !conn.closed && conn.idle_expired(now, core.cfg.idle_timeout) {
                conn.closed = true;
                core.metrics.connections_idle_closed.inc();
            }
            match conn.interest() {
                None => dead.push(*key),
                Some(interest) => {
                    let _ = poll.registry().reregister(&conn.stream, conn.token, interest);
                }
            }
        }
        for key in dead {
            if let Some(conn) = conns.remove(&key) {
                let _ = poll.registry().deregister(&conn.stream);
                core.metrics.connections_open.sub(1);
            }
        }
    }
}
