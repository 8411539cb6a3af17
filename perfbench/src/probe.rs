//! The OLTP probe (traced mode only): NewOrder- and Payment-shaped
//! transactions issued against the loaded TPC-C tables through
//! `TransactionManager::{begin, commit}` and `TableHandle::*` directly, with
//! a span around every call, so a transaction's time splits into `txn` and
//! `db` (index probe + tuple access) layers.
//!
//! Key distributions and written values follow `Tpcc::new_order` and
//! `Tpcc::payment` (single warehouse, no rollback), so the database stays
//! TPC-C consistent and the probe's rows are ordinary ones.

use crate::trace::span;
use mainline_common::rng::Xoshiro256;
use mainline_common::value::Value;
use mainline_common::{Error, Result};
use mainline_db::Database;
use mainline_txn::Transaction;
use mainline_workloads::tpcc::{last_name, Tpcc};
use std::sync::Arc;

const W: Value = Value::Integer(1);

fn int(v: i64) -> Value {
    Value::Integer(v as i32)
}

/// One NewOrder-shaped transaction.
pub fn new_order(t: &Tpcc, db: &Database, rng: &mut Xoshiro256) -> Result<()> {
    let m = db.manager();
    let txn = span("txn.begin", || m.begin());
    let mut body = || -> Result<()> {
        let d_id = int(rng.int_range(1, t.config.districts as i64));
        let c_id = int(rng.int_range(1, t.config.customers as i64));
        span("db.lookup", || t.warehouse.lookup(&txn, "pk", &[W]))?
            .ok_or(Error::TupleNotVisible)?;
        let (d_slot, drow) =
            span("db.lookup", || t.district.lookup(&txn, "pk", &[W, d_id.clone()]))?
                .ok_or(Error::TupleNotVisible)?;
        let o_id = drow[9].as_i64().expect("d_next_o_id is BIGINT");
        span("db.update", || t.district.update(&txn, d_slot, &[(9, Value::BigInt(o_id + 1))]))?;
        span("db.lookup", || t.customer.lookup(&txn, "pk", &[W, d_id.clone(), c_id.clone()]))?
            .ok_or(Error::TupleNotVisible)?;
        let ol_cnt = rng.int_range(5, 15);
        let order = [
            W,
            d_id.clone(),
            Value::BigInt(o_id),
            c_id,
            Value::BigInt(o_id),
            int(0),
            int(ol_cnt),
            int(1),
        ];
        span("db.insert", || t.order.insert(&txn, &order));
        span("db.insert", || t.new_order.insert(&txn, &[W, d_id.clone(), Value::BigInt(o_id)]));
        for n in 1..=ol_cnt {
            let i_id = int(rng.int_range(1, t.config.items as i64));
            let (_, irow) =
                span("db.lookup", || t.item.lookup(&txn, "pk", std::slice::from_ref(&i_id)))?
                    .ok_or(Error::TupleNotVisible)?;
            let (s_slot, srow) =
                span("db.lookup", || t.stock.lookup(&txn, "pk", &[W, i_id.clone()]))?
                    .ok_or(Error::TupleNotVisible)?;
            let qty = rng.int_range(1, 10);
            let s_qty = srow[2].as_i64().expect("s_quantity is INTEGER");
            let new_qty = if s_qty >= qty + 10 { s_qty - qty } else { s_qty - qty + 91 };
            let delta = [
                (2, int(new_qty)),
                (4, Value::Double(srow[4].as_f64().expect("s_ytd is DOUBLE") + qty as f64)),
                (5, int(srow[5].as_i64().expect("s_order_cnt is INTEGER") + 1)),
                (6, int(srow[6].as_i64().expect("s_remote_cnt is INTEGER"))),
            ];
            span("db.update", || t.stock.update(&txn, s_slot, &delta))?;
            let amount = qty as f64 * irow[3].as_f64().expect("i_price is DOUBLE");
            let line = [
                W,
                d_id.clone(),
                Value::BigInt(o_id),
                int(n),
                i_id,
                W,
                Value::BigInt(0),
                int(qty),
                Value::Double(amount),
                Value::Varchar(rng.alnum_string(24, 24)),
            ];
            span("db.insert", || t.order_line.insert(&txn, &line));
        }
        Ok(())
    };
    finish(db, &txn, body())
}

/// One Payment-shaped transaction.
pub fn payment(t: &Tpcc, db: &Database, rng: &mut Xoshiro256) -> Result<()> {
    let m = db.manager();
    let txn = span("txn.begin", || m.begin());
    let mut body = || -> Result<()> {
        let d_id = int(rng.int_range(1, t.config.districts as i64));
        let amount = rng.int_range(100, 500_000) as f64 / 100.0;
        let (w_slot, wrow) = span("db.lookup", || t.warehouse.lookup(&txn, "pk", &[W]))?
            .ok_or(Error::TupleNotVisible)?;
        let w_ytd = wrow[8].as_f64().expect("w_ytd is DOUBLE") + amount;
        span("db.update", || t.warehouse.update(&txn, w_slot, &[(8, Value::Double(w_ytd))]))?;
        let (d_slot, drow) =
            span("db.lookup", || t.district.lookup(&txn, "pk", &[W, d_id.clone()]))?
                .ok_or(Error::TupleNotVisible)?;
        let d_ytd = drow[8].as_f64().expect("d_ytd is DOUBLE") + amount;
        span("db.update", || t.district.update(&txn, d_slot, &[(8, Value::Double(d_ytd))]))?;
        let by_name = rng.next_below(100) < 60;
        let mut found = None;
        if by_name {
            let name = Value::string(&last_name(rng.int_range(0, 999) as u64));
            let mut matches = span("db.scan_prefix", || {
                t.customer.scan_prefix(&txn, "by_last", &[W, d_id.clone(), name], usize::MAX)
            })?;
            if !matches.is_empty() {
                let mid = matches.len() / 2;
                found = Some(matches.swap_remove(mid));
            }
        }
        let (c_slot, crow) = match found {
            Some(hit) => hit,
            None => {
                let c_id = int(rng.int_range(1, t.config.customers as i64));
                span("db.lookup", || t.customer.lookup(&txn, "pk", &[W, d_id.clone(), c_id]))?
                    .ok_or(Error::TupleNotVisible)?
            }
        };
        let delta = [
            (15, Value::Double(crow[15].as_f64().expect("c_balance is DOUBLE") - amount)),
            (16, Value::Double(crow[16].as_f64().expect("c_ytd_payment is DOUBLE") + amount)),
            (17, int(crow[17].as_i64().expect("c_payment_cnt is INTEGER") + 1)),
        ];
        span("db.update", || t.customer.update(&txn, c_slot, &delta))?;
        let history = [
            crow[2].clone(),
            crow[1].clone(),
            crow[0].clone(),
            d_id,
            W,
            Value::BigInt(1),
            Value::Double(amount),
            Value::Varchar(rng.alnum_string(12, 24)),
        ];
        span("db.insert", || t.history.insert(&txn, &history));
        Ok(())
    };
    finish(db, &txn, body())
}

fn finish(db: &Database, txn: &Arc<Transaction>, result: Result<()>) -> Result<()> {
    let m = db.manager();
    match result {
        Ok(()) => {
            span("txn.commit", || m.commit(txn));
            Ok(())
        }
        Err(e) => {
            m.abort(txn);
            Err(e)
        }
    }
}
