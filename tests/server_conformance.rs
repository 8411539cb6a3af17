//! Protocol conformance for the network frontend (ISSUE 7, satellite 1).
//!
//! Two layers of proof, both over real sockets:
//!
//! * **Golden byte vectors** — a hand-rolled client (raw `TcpStream`, no
//!   helper code from the server crate) asserts the exact bytes of the
//!   startup exchange, the SSLRequest refusal, the ErrorResponse layout,
//!   and the Flight handshake echo. If the wire format drifts, these fail
//!   with a byte diff, not a behavioral symptom.
//! * **Decode ≡ transactional scan** — everything served through PG text
//!   rows and Flight IPC frames, decoded client-side, must equal the
//!   relation a transactional scan sees, including frozen blocks.

mod common;

use common::relation;
use mainline::arrowlite::batch::column_value;
use mainline::arrowlite::ipc;
use mainline::common::schema::{ColumnDef, Schema};
use mainline::common::value::{TypeId, Value};
use mainline::db::{Database, DbConfig};
use mainline::server::client::{FlightClient, PgClient};
use mainline::server::{DatabaseServe, ServerConfig};
use mainline::transform::TransformConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serve_default() -> (Arc<Database>, mainline::server::Server) {
    let db = Database::open(DbConfig::default()).unwrap();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::new("id", TypeId::BigInt),
            ColumnDef::nullable("name", TypeId::Varchar),
        ]),
        vec![],
        false,
    )
    .unwrap();
    let server = db.serve(ServerConfig::default()).unwrap();
    (db, server)
}

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// The 9-byte minimal v3 StartupMessage: length, protocol 196608, empty
/// parameter list terminator.
fn startup_packet() -> Vec<u8> {
    let mut msg = Vec::new();
    msg.extend_from_slice(&9u32.to_be_bytes());
    msg.extend_from_slice(&196608u32.to_be_bytes());
    msg.push(0);
    msg
}

fn read_exact(s: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut buf = vec![0u8; n];
    s.read_exact(&mut buf).unwrap();
    buf
}

/// AuthenticationOk + ReadyForQuery(idle), exactly as PG v3 writes them.
const STARTUP_REPLY: &[u8] = b"R\x00\x00\x00\x08\x00\x00\x00\x00Z\x00\x00\x00\x05I";

#[test]
fn startup_reply_matches_golden_bytes() {
    let (db, server) = serve_default();
    let mut s = raw_connect(server.addr());
    s.write_all(&startup_packet()).unwrap();
    assert_eq!(read_exact(&mut s, STARTUP_REPLY.len()), STARTUP_REPLY);
    server.shutdown();
    db.shutdown();
}

#[test]
fn ssl_request_is_refused_with_n_then_startup_proceeds() {
    let (db, server) = serve_default();
    let mut s = raw_connect(server.addr());
    let mut ssl = Vec::new();
    ssl.extend_from_slice(&8u32.to_be_bytes());
    ssl.extend_from_slice(&80877103u32.to_be_bytes());
    s.write_all(&ssl).unwrap();
    assert_eq!(read_exact(&mut s, 1), b"N");
    // Like libpq, retry in the clear on the same connection.
    s.write_all(&startup_packet()).unwrap();
    assert_eq!(read_exact(&mut s, STARTUP_REPLY.len()), STARTUP_REPLY);
    server.shutdown();
    db.shutdown();
}

#[test]
fn cancel_request_closes_without_a_reply() {
    let (db, server) = serve_default();
    let mut s = raw_connect(server.addr());
    let mut cancel = Vec::new();
    cancel.extend_from_slice(&16u32.to_be_bytes());
    cancel.extend_from_slice(&80877102u32.to_be_bytes());
    cancel.extend_from_slice(&[0u8; 8]); // pid + secret, ignored
    s.write_all(&cancel).unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(s.read(&mut buf).unwrap(), 0, "CancelRequest must close silently");
    server.shutdown();
    db.shutdown();
}

/// A rejected statement must produce this exact ErrorResponse — severity,
/// SQLSTATE, message, field terminators — followed by ReadyForQuery. The
/// expected bytes are built by hand, independent of the server's builders.
#[test]
fn error_response_bytes_are_exact() {
    let (db, server) = serve_default();
    let mut s = raw_connect(server.addr());
    s.write_all(&startup_packet()).unwrap();
    let _ = read_exact(&mut s, STARTUP_REPLY.len());

    let sql = "DROP TABLE t";
    let mut q = vec![b'Q'];
    q.extend_from_slice(&((4 + sql.len() + 1) as u32).to_be_bytes());
    q.extend_from_slice(sql.as_bytes());
    q.push(0);
    s.write_all(&q).unwrap();

    let mut expected: Vec<u8> = Vec::new();
    let mut body: Vec<u8> = Vec::new();
    body.extend_from_slice(b"SERROR\0");
    body.extend_from_slice(b"C42601\0");
    body.extend_from_slice(b"Monly SELECT and INSERT are supported\0");
    body.push(0);
    expected.push(b'E');
    expected.extend_from_slice(&((4 + body.len()) as u32).to_be_bytes());
    expected.extend_from_slice(&body);
    expected.extend_from_slice(b"Z\x00\x00\x00\x05I");
    assert_eq!(read_exact(&mut s, expected.len()), expected);

    // The session survived the error: a valid query still answers.
    let sql = "SELECT * FROM t";
    let mut q = vec![b'Q'];
    q.extend_from_slice(&((4 + sql.len() + 1) as u32).to_be_bytes());
    q.extend_from_slice(sql.as_bytes());
    q.push(0);
    s.write_all(&q).unwrap();
    assert_eq!(read_exact(&mut s, 1), b"T");
    server.shutdown();
    db.shutdown();
}

#[test]
fn flight_handshake_echo_and_bad_version_rejection() {
    let (db, server) = serve_default();
    // Golden echo: the 6 greeting bytes come back verbatim.
    let mut s = raw_connect(server.addr());
    s.write_all(b"MLFL\x01\x00").unwrap();
    assert_eq!(read_exact(&mut s, 6), b"MLFL\x01\x00");

    // Unknown version: an error frame, then close.
    let mut s = raw_connect(server.addr());
    s.write_all(b"MLFL\x02\x00").unwrap();
    let header = read_exact(&mut s, 5);
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    assert_eq!(header[4], 2, "kind must be the error frame");
    let msg = read_exact(&mut s, len - 1);
    assert_eq!(std::str::from_utf8(&msg).unwrap(), "unsupported flight version 2");
    let mut buf = [0u8; 8];
    assert_eq!(s.read(&mut buf).unwrap(), 0, "connection must close after the error");
    server.shutdown();
    db.shutdown();
}

/// Send one simple query on an already-started raw connection.
fn send_query(s: &mut TcpStream, sql: &str) {
    let mut q = vec![b'Q'];
    q.extend_from_slice(&((4 + sql.len() + 1) as u32).to_be_bytes());
    q.extend_from_slice(sql.as_bytes());
    q.push(0);
    s.write_all(&q).unwrap();
}

/// Read one complete `(type, body)` message off a raw connection.
fn read_message(s: &mut TcpStream) -> (u8, Vec<u8>) {
    let hdr = read_exact(s, 5);
    let len = u32::from_be_bytes(hdr[1..5].try_into().unwrap()) as usize;
    (hdr[0], read_exact(s, len - 4))
}

/// Hand-built v3 RowDescription for an ad-hoc text column list (zero OIDs,
/// variable typlen, text format) — independent of the server's builders.
fn golden_row_description(names: &[&str]) -> Vec<u8> {
    let mut body: Vec<u8> = Vec::new();
    body.extend_from_slice(&(names.len() as u16).to_be_bytes());
    for name in names {
        body.extend_from_slice(name.as_bytes());
        body.push(0);
        body.extend_from_slice(&0u32.to_be_bytes());
        body.extend_from_slice(&0u16.to_be_bytes());
        body.extend_from_slice(&0u32.to_be_bytes());
        body.extend_from_slice(&(-1i16).to_be_bytes());
        body.extend_from_slice(&(-1i32).to_be_bytes());
        body.extend_from_slice(&0u16.to_be_bytes());
    }
    let mut msg = vec![b'T'];
    msg.extend_from_slice(&((4 + body.len()) as u32).to_be_bytes());
    msg.extend_from_slice(&body);
    msg
}

/// Hand-built v3 DataRow with text fields.
fn golden_data_row(fields: &[&str]) -> Vec<u8> {
    let mut body: Vec<u8> = Vec::new();
    body.extend_from_slice(&(fields.len() as u16).to_be_bytes());
    for f in fields {
        body.extend_from_slice(&(f.len() as i32).to_be_bytes());
        body.extend_from_slice(f.as_bytes());
    }
    let mut msg = vec![b'D'];
    msg.extend_from_slice(&((4 + body.len()) as u32).to_be_bytes());
    msg.extend_from_slice(&body);
    msg
}

/// `SELECT * FROM mainline_metrics` (ISSUE 9): the RowDescription must match
/// the hand-built golden bytes, and a counter row whose value is
/// deterministic on a fresh server (`server_protocol_errors` = 0) must match
/// a hand-built golden DataRow — the full message, length prefix included.
#[test]
fn metrics_virtual_table_golden_bytes() {
    let (db, server) = serve_default();
    let mut s = raw_connect(server.addr());
    s.write_all(&startup_packet()).unwrap();
    let _ = read_exact(&mut s, STARTUP_REPLY.len());

    send_query(&mut s, "SELECT * FROM mainline_metrics");
    let (ty, body) = read_message(&mut s);
    let golden_t = golden_row_description(&["name", "kind", "value", "detail"]);
    let mut got_t = vec![ty];
    got_t.extend_from_slice(&((4 + body.len()) as u32).to_be_bytes());
    got_t.extend_from_slice(&body);
    assert_eq!(got_t, golden_t, "RowDescription bytes drifted");

    // Walk the DataRows to CommandComplete, keeping each full message.
    let mut rows: Vec<Vec<u8>> = Vec::new();
    let tag = loop {
        let (ty, body) = read_message(&mut s);
        match ty {
            b'D' => {
                let mut msg = vec![b'D'];
                msg.extend_from_slice(&((4 + body.len()) as u32).to_be_bytes());
                msg.extend_from_slice(&body);
                rows.push(msg);
            }
            b'C' => break String::from_utf8_lossy(&body[..body.len() - 1]).into_owned(),
            other => panic!("unexpected message {:?}", other as char),
        }
    };
    let (ty, _) = read_message(&mut s);
    assert_eq!(ty, b'Z', "ReadyForQuery must follow CommandComplete");
    assert_eq!(tag, format!("SELECT {}", rows.len()), "tag must count the rows served");

    // This server has answered exactly one query and seen no errors: the
    // protocol-errors counter row is fully deterministic, golden-comparable
    // down to the length prefix.
    let golden = golden_data_row(&["server_protocol_errors", "counter", "0", ""]);
    assert!(
        rows.iter().any(|r| r == &golden),
        "no DataRow matched the hand-built server_protocol_errors row"
    );
    // And the engine-side rows are present (values are workload-dependent,
    // so presence is the assertion here).
    let have = |name: &str| {
        rows.iter().any(|r| {
            // field 1 starts at: 'D' + len(4) + nfields(2) + flen(4) = 11
            r.len() >= 11 + name.len() && &r[11..11 + name.len()] == name.as_bytes()
        })
    };
    // This database has no log, so no `wal_*` rows — the logging case is
    // covered by tests/obs_snapshot.rs.
    for name in ["db_writes", "buffer_faults", "admission_yields", "server_queries"] {
        assert!(have(name), "metric {name} missing from mainline_metrics");
    }
    assert!(!have("wal_"), "an unlogged database served wal_* rows");
    server.shutdown();
    db.shutdown();
}

/// `mainline_events` serves the trace ring with its own golden
/// RowDescription; an unknown `mainline_*` name is NOT a virtual table and
/// must fail with the ordinary undefined-table SQLSTATE, byte-exact.
#[test]
fn events_virtual_table_and_unknown_virtual_table_sqlstate() {
    let (db, server) = serve_default();
    let mut s = raw_connect(server.addr());
    s.write_all(&startup_packet()).unwrap();
    let _ = read_exact(&mut s, STARTUP_REPLY.len());

    send_query(&mut s, "SELECT * FROM mainline_events");
    let (ty, body) = read_message(&mut s);
    let golden_t = golden_row_description(&["seq", "micros", "kind", "a", "b"]);
    let mut got_t = vec![ty];
    got_t.extend_from_slice(&((4 + body.len()) as u32).to_be_bytes());
    got_t.extend_from_slice(&body);
    assert_eq!(got_t, golden_t, "RowDescription bytes drifted");
    loop {
        let (ty, _) = read_message(&mut s);
        if ty == b'Z' {
            break;
        }
    }

    // Unknown virtual table: the exact ErrorResponse an unknown relation
    // gets, followed by ReadyForQuery — the session survives.
    send_query(&mut s, "SELECT * FROM mainline_nope");
    let mut body: Vec<u8> = Vec::new();
    body.extend_from_slice(b"SERROR\0");
    body.extend_from_slice(b"C42P01\0");
    body.extend_from_slice(b"Mrelation \"mainline_nope\" does not exist\0");
    body.push(0);
    let mut expected = vec![b'E'];
    expected.extend_from_slice(&((4 + body.len()) as u32).to_be_bytes());
    expected.extend_from_slice(&body);
    expected.extend_from_slice(b"Z\x00\x00\x00\x05I");
    assert_eq!(read_exact(&mut s, expected.len()), expected);

    send_query(&mut s, "SELECT * FROM t");
    assert_eq!(read_exact(&mut s, 1), b"T", "session must survive the 42P01");
    server.shutdown();
    db.shutdown();
}

// ------------------------------------------------------------------------
// Decode ≡ transactional scan, over real sockets, with frozen blocks in the
// mix (the transformation pipeline runs while the server is up).

fn parse_text_rows(rows: &[Vec<Option<String>>], types: &[TypeId]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .zip(types)
                .map(|(cell, ty)| match cell {
                    None => Value::Null,
                    Some(s) => match ty {
                        TypeId::BigInt => Value::BigInt(s.parse().unwrap()),
                        TypeId::Integer => Value::Integer(s.parse().unwrap()),
                        TypeId::Varchar => Value::Varchar(s.as_bytes().to_vec()),
                        other => panic!("unexpected column type {other:?}"),
                    },
                })
                .collect()
        })
        .collect()
}

#[test]
fn served_streams_equal_transactional_scan() {
    let db = Database::open(DbConfig {
        transform: Some(TransformConfig { threshold_epochs: 1, ..Default::default() }),
        gc_interval: Duration::from_millis(1),
        transform_interval: Duration::from_millis(2),
        ..Default::default()
    })
    .unwrap();
    let t = db
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", TypeId::BigInt),
                ColumnDef::nullable("payload", TypeId::Varchar),
                ColumnDef::new("version", TypeId::Integer),
            ]),
            vec![],
            true,
        )
        .unwrap();
    let per_block = t.table().layout().num_slots() as i64;
    let txn = db.manager().begin();
    for i in 0..3 * per_block {
        t.insert(
            &txn,
            &[
                Value::BigInt(i),
                if i % 7 == 0 { Value::Null } else { Value::string(&format!("p-{i}")) },
                Value::Integer((i % 100) as i32),
            ],
        );
    }
    db.manager().commit(&txn);
    // Let the pipeline freeze the full blocks so both served paths cross
    // the frozen encoder too.
    let deadline = Instant::now() + Duration::from_secs(20);
    while db.pipeline().unwrap().metrics().blocks_frozen.get() < 2 {
        assert!(Instant::now() < deadline, "transform pipeline never froze two blocks");
        std::thread::sleep(Duration::from_millis(5));
    }

    let expected = relation(db.manager(), t.table());
    let types = t.table().types().to_vec();
    let server = db.serve(ServerConfig::default()).unwrap();

    // PG wire: text rows parsed back into typed values.
    let mut pg = PgClient::connect(server.addr()).unwrap();
    pg.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let out = pg.query("SELECT * FROM t").unwrap();
    assert_eq!(out.error, None);
    assert_eq!(out.tag.as_deref(), Some(format!("SELECT {}", expected.len()).as_str()));
    let mut via_pg = parse_text_rows(&out.rows, &types);
    via_pg.sort_by_key(|r| r[0].as_i64().unwrap());
    assert_eq!(via_pg, expected, "PG text decode diverged from the transactional scan");
    pg.terminate().unwrap();

    // Flight: IPC frames deep-decoded into values.
    let mut fl = FlightClient::connect(server.addr()).unwrap();
    fl.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let got = fl.do_get("t").unwrap();
    assert_eq!(got.error, None);
    assert_eq!(got.rows, expected.len() as u64);
    assert!(got.frozen_blocks >= 2, "stream must include frozen blocks: {got:?}");
    let mut via_flight = Vec::new();
    for (_, bytes) in &got.batches {
        let decoded = ipc::decode_batch(bytes).unwrap();
        for r in 0..decoded.num_rows() {
            if decoded.columns().iter().any(|c| c.is_valid(r)) {
                via_flight.push(
                    (0..types.len())
                        .map(|c| column_value(decoded.column(c), r, types[c]))
                        .collect::<Vec<_>>(),
                );
            }
        }
    }
    via_flight.sort_by_key(|r| r[0].as_i64().unwrap());
    assert_eq!(via_flight, expected, "Flight IPC decode diverged from the transactional scan");

    server.shutdown();
    db.shutdown();
}
