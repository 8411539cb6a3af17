//! Crate-level smoke test: boot an in-memory database, serve it, and run
//! both protocols over real sockets.

use mainline_common::schema::{ColumnDef, Schema};
use mainline_common::value::TypeId;
use mainline_db::{Database, DbConfig};
use mainline_server::client::{FlightClient, PgClient};
use mainline_server::{DatabaseServe, ServerConfig};
use std::time::Duration;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", TypeId::BigInt),
        ColumnDef::nullable("name", TypeId::Varchar),
    ])
}

#[test]
fn pg_and_flight_roundtrip() {
    let db = Database::open(DbConfig::default()).unwrap();
    db.create_table("t", schema(), vec![], false).unwrap();
    let server = db.serve(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let mut pg = PgClient::connect(addr).unwrap();
    pg.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // INSERT, including NULL and an escaped quote.
    let out = pg.query("INSERT INTO t VALUES (1, 'alpha'), (2, NULL), (3, 'o''k')").unwrap();
    assert_eq!(out.error, None);
    assert_eq!(out.tag.as_deref(), Some("INSERT 0 3"));

    // SELECT them back.
    let out = pg.query("SELECT * FROM t").unwrap();
    assert_eq!(out.error, None);
    assert_eq!(out.columns, vec!["id", "name"]);
    assert_eq!(out.tag.as_deref(), Some("SELECT 3"));
    let mut rows = out.rows.clone();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            vec![Some("1".into()), Some("alpha".into())],
            vec![Some("2".into()), None],
            vec![Some("3".into()), Some("o'k".into())],
        ]
    );

    // Errors keep the session usable.
    let out = pg.query("SELECT * FROM missing").unwrap();
    assert_eq!(out.error.as_ref().unwrap().code, "42P01");
    let out = pg.query("DELETE FROM t").unwrap();
    assert_eq!(out.error.as_ref().unwrap().code, "42601");
    let out = pg.query("SELECT * FROM t").unwrap();
    assert_eq!(out.tag.as_deref(), Some("SELECT 3"));
    pg.terminate().unwrap();

    // Flight side.
    let mut fl = FlightClient::connect(addr).unwrap();
    fl.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let got = fl.do_get("t").unwrap();
    assert_eq!(got.error, None);
    assert_eq!(got.rows, 3);
    assert_eq!(got.frozen_blocks + got.hot_blocks, got.batches.len() as u32);
    let total: usize = got
        .batches
        .iter()
        .map(|(_, ipc)| {
            let batch = mainline_arrowlite::ipc::decode_batch(ipc).unwrap();
            (0..batch.num_rows()).filter(|&r| batch.columns().iter().any(|c| c.is_valid(r))).count()
        })
        .sum();
    assert_eq!(total, 3);
    let missing = fl.do_get("nope").unwrap();
    assert!(missing.error.is_some());
    // Stream again on the same connection after the error.
    let again = fl.do_get("t").unwrap();
    assert_eq!(again.rows, 3);

    let stats = server.metrics();
    assert!(stats.connections_accepted.get() >= 2);
    assert_eq!(stats.rows_inserted.get(), 3);
    assert!(stats.streams.get() >= 3);
    server.shutdown();
    db.shutdown();
}
