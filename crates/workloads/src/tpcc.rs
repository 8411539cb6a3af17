//! TPC-C (revision 5.9-style) against the mainline storage engine.
//!
//! The paper's §6.1 runs TPC-C with one warehouse per worker, JIT-compiled
//! stored procedures, and the block transformation targeting the cold-data
//! tables ORDER, ORDER_LINE, HISTORY, and ITEM. Here the five transactions
//! are Rust functions over the `TableHandle` API (same role as compiled
//! stored procedures), with the standard mix.

use mainline_common::rng::Xoshiro256;
use mainline_common::schema::{ColumnDef, Schema};
use mainline_common::value::{TypeId, Value};
use mainline_common::{Error, Result};
use mainline_db::{Database, IndexSpec, TableHandle};
use std::sync::Arc;

/// Scale knobs. `TpccConfig::spec()` follows the TPC-C sizes; tests use
/// `TpccConfig::mini()`.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: u32,
    /// Items in the catalog (spec: 100_000).
    pub items: u32,
    /// Districts per warehouse (spec: 10).
    pub districts: u32,
    /// Customers per district (spec: 3_000).
    pub customers: u32,
    /// Initial orders per district (spec: 3_000).
    pub orders: u32,
}

impl TpccConfig {
    /// Spec-faithful sizes (heavy: ~500 K rows per warehouse).
    pub fn spec(warehouses: u32) -> Self {
        TpccConfig { warehouses, items: 100_000, districts: 10, customers: 3_000, orders: 3_000 }
    }

    /// Bench sizes: full shape at ~1/10 volume per warehouse.
    pub fn bench(warehouses: u32) -> Self {
        TpccConfig { warehouses, items: 10_000, districts: 10, customers: 300, orders: 300 }
    }

    /// Tiny sizes for unit tests.
    pub fn mini(warehouses: u32) -> Self {
        TpccConfig { warehouses, items: 200, districts: 2, customers: 30, orders: 20 }
    }
}

/// Handles to the nine TPC-C tables.
pub struct Tpcc {
    /// Scale configuration.
    pub config: TpccConfig,
    /// WAREHOUSE.
    pub warehouse: Arc<TableHandle>,
    /// DISTRICT.
    pub district: Arc<TableHandle>,
    /// CUSTOMER.
    pub customer: Arc<TableHandle>,
    /// HISTORY (cold: transformation target).
    pub history: Arc<TableHandle>,
    /// NEW_ORDER.
    pub new_order: Arc<TableHandle>,
    /// ORDER (cold: transformation target).
    pub order: Arc<TableHandle>,
    /// ORDER_LINE (cold: transformation target).
    pub order_line: Arc<TableHandle>,
    /// ITEM (read-only: transformation target).
    pub item: Arc<TableHandle>,
    /// STOCK.
    pub stock: Arc<TableHandle>,
}

/// Per-driver counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct TpccStats {
    /// Committed transactions by type: [NewOrder, Payment, OrderStatus, Delivery, StockLevel].
    pub committed: [u64; 5],
    /// Aborts (write-write conflicts + the 1% NewOrder rollbacks).
    pub aborted: u64,
    /// Transactions whose admission was throttled (yielded or stalled)
    /// because the transformation pipeline fell behind (§4.4's control
    /// loop; always 0 when transformation or backpressure is disabled).
    pub throttled: u64,
}

impl TpccStats {
    /// Total committed transactions.
    pub fn total(&self) -> u64 {
        self.committed.iter().sum()
    }
}

const V: fn(&str) -> Value = Value::string;

/// The item id a rolled-back NEW-ORDER asks for (spec 2.4.1.4): no ITEM
/// row has it.
pub const UNUSED_ITEM: i32 = -1;

/// One order line of a [`NewOrderInput`].
#[derive(Debug, Clone, PartialEq)]
pub struct OrderLineInput {
    /// `ol_i_id`; [`UNUSED_ITEM`] on a rollback order's last line, whose
    /// other fields are then unused.
    pub i_id: i32,
    /// `ol_supply_w_id`.
    pub supply_w_id: i32,
    /// `ol_quantity`.
    pub quantity: i32,
    /// `ol_dist_info`.
    pub dist_info: Vec<u8>,
}

/// Everything a NEW-ORDER draws from the terminal's RNG (spec 2.4.1), so a
/// transaction can be run from inputs a caller chose.
#[derive(Debug, Clone, PartialEq)]
pub struct NewOrderInput {
    /// Home warehouse.
    pub w_id: i32,
    /// District.
    pub d_id: i32,
    /// Customer.
    pub c_id: i32,
    /// The order lines (`o_ol_cnt` of them), in line-number order.
    pub lines: Vec<OrderLineInput>,
}

/// STOCK columns a NEW-ORDER line reads: s_quantity, s_ytd, s_order_cnt,
/// s_remote_cnt.
const NEW_ORDER_STOCK_COLS: [usize; 4] = [2, 4, 5, 6];

impl Tpcc {
    /// Create the TPC-C tables. `transform_cold_tables` registers ORDER,
    /// ORDER_LINE, HISTORY, and ITEM with the transformation pipeline
    /// (§6.1's target set).
    pub fn create(db: &Database, config: TpccConfig, transform_cold_tables: bool) -> Result<Tpcc> {
        use TypeId::*;
        let warehouse = db.create_table(
            "warehouse",
            Schema::new(vec![
                ColumnDef::new("w_id", Integer),
                ColumnDef::new("w_name", Varchar),
                ColumnDef::new("w_street_1", Varchar),
                ColumnDef::new("w_street_2", Varchar),
                ColumnDef::new("w_city", Varchar),
                ColumnDef::new("w_state", Varchar),
                ColumnDef::new("w_zip", Varchar),
                ColumnDef::new("w_tax", Double),
                ColumnDef::new("w_ytd", Double),
            ]),
            vec![IndexSpec::new("pk", &[0])],
            false,
        )?;
        let district = db.create_table(
            "district",
            Schema::new(vec![
                ColumnDef::new("d_w_id", Integer),
                ColumnDef::new("d_id", Integer),
                ColumnDef::new("d_name", Varchar),
                ColumnDef::new("d_street_1", Varchar),
                ColumnDef::new("d_city", Varchar),
                ColumnDef::new("d_state", Varchar),
                ColumnDef::new("d_zip", Varchar),
                ColumnDef::new("d_tax", Double),
                ColumnDef::new("d_ytd", Double),
                ColumnDef::new("d_next_o_id", BigInt),
            ]),
            vec![IndexSpec::new("pk", &[0, 1])],
            false,
        )?;
        let customer = db.create_table(
            "customer",
            Schema::new(vec![
                ColumnDef::new("c_w_id", Integer),
                ColumnDef::new("c_d_id", Integer),
                ColumnDef::new("c_id", Integer),
                ColumnDef::new("c_first", Varchar),
                ColumnDef::new("c_middle", Varchar),
                ColumnDef::new("c_last", Varchar),
                ColumnDef::new("c_street_1", Varchar),
                ColumnDef::new("c_city", Varchar),
                ColumnDef::new("c_state", Varchar),
                ColumnDef::new("c_zip", Varchar),
                ColumnDef::new("c_phone", Varchar),
                ColumnDef::new("c_since", BigInt),
                ColumnDef::new("c_credit", Varchar),
                ColumnDef::new("c_credit_lim", Double),
                ColumnDef::new("c_discount", Double),
                ColumnDef::new("c_balance", Double),
                ColumnDef::new("c_ytd_payment", Double),
                ColumnDef::new("c_payment_cnt", Integer),
                ColumnDef::new("c_delivery_cnt", Integer),
                ColumnDef::new("c_data", Varchar),
            ]),
            vec![IndexSpec::new("pk", &[0, 1, 2]), IndexSpec::new("by_last", &[0, 1, 5])],
            false,
        )?;
        let history = db.create_table(
            "history",
            Schema::new(vec![
                ColumnDef::new("h_c_id", Integer),
                ColumnDef::new("h_c_d_id", Integer),
                ColumnDef::new("h_c_w_id", Integer),
                ColumnDef::new("h_d_id", Integer),
                ColumnDef::new("h_w_id", Integer),
                ColumnDef::new("h_date", BigInt),
                ColumnDef::new("h_amount", Double),
                ColumnDef::new("h_data", Varchar),
            ]),
            vec![],
            transform_cold_tables,
        )?;
        let new_order = db.create_table(
            "new_order",
            Schema::new(vec![
                ColumnDef::new("no_w_id", Integer),
                ColumnDef::new("no_d_id", Integer),
                ColumnDef::new("no_o_id", BigInt),
            ]),
            vec![IndexSpec::new("pk", &[0, 1, 2])],
            false,
        )?;
        let order = db.create_table(
            "order",
            Schema::new(vec![
                ColumnDef::new("o_w_id", Integer),
                ColumnDef::new("o_d_id", Integer),
                ColumnDef::new("o_id", BigInt),
                ColumnDef::new("o_c_id", Integer),
                ColumnDef::new("o_entry_d", BigInt),
                ColumnDef::new("o_carrier_id", Integer),
                ColumnDef::new("o_ol_cnt", Integer),
                ColumnDef::new("o_all_local", Integer),
            ]),
            vec![IndexSpec::new("pk", &[0, 1, 2]), IndexSpec::new("by_customer", &[0, 1, 3, 2])],
            transform_cold_tables,
        )?;
        let order_line = db.create_table(
            "order_line",
            Schema::new(vec![
                ColumnDef::new("ol_w_id", Integer),
                ColumnDef::new("ol_d_id", Integer),
                ColumnDef::new("ol_o_id", BigInt),
                ColumnDef::new("ol_number", Integer),
                ColumnDef::new("ol_i_id", Integer),
                ColumnDef::new("ol_supply_w_id", Integer),
                ColumnDef::new("ol_delivery_d", BigInt),
                ColumnDef::new("ol_quantity", Integer),
                ColumnDef::new("ol_amount", Double),
                ColumnDef::new("ol_dist_info", Varchar),
            ]),
            vec![IndexSpec::new("pk", &[0, 1, 2, 3])],
            transform_cold_tables,
        )?;
        let item = db.create_table(
            "item",
            Schema::new(vec![
                ColumnDef::new("i_id", Integer),
                ColumnDef::new("i_im_id", Integer),
                ColumnDef::new("i_name", Varchar),
                ColumnDef::new("i_price", Double),
                ColumnDef::new("i_data", Varchar),
            ]),
            vec![IndexSpec::new("pk", &[0])],
            transform_cold_tables,
        )?;
        let stock = db.create_table(
            "stock",
            Schema::new(vec![
                ColumnDef::new("s_w_id", Integer),
                ColumnDef::new("s_i_id", Integer),
                ColumnDef::new("s_quantity", Integer),
                ColumnDef::new("s_dist_info", Varchar),
                ColumnDef::new("s_ytd", Double),
                ColumnDef::new("s_order_cnt", Integer),
                ColumnDef::new("s_remote_cnt", Integer),
                ColumnDef::new("s_data", Varchar),
            ]),
            vec![IndexSpec::new("pk", &[0, 1])],
            false,
        )?;
        Ok(Tpcc {
            config,
            warehouse,
            district,
            customer,
            history,
            new_order,
            order,
            order_line,
            item,
            stock,
        })
    }

    /// Load initial data (one transaction per warehouse region + one for
    /// items, mirroring the usual loader granularity).
    pub fn load(&self, db: &Database, seed: u64) -> Result<()> {
        let cfg = &self.config;
        let m = db.manager();
        let mut rng = Xoshiro256::seed_from_u64(seed);

        // ITEM.
        let txn = m.begin();
        for i in 1..=cfg.items {
            self.item.insert(
                &txn,
                &[
                    Value::Integer(i as i32),
                    Value::Integer(rng.int_range(1, 10_000) as i32),
                    Value::Varchar(rng.alnum_string(14, 24)),
                    Value::Double(rng.int_range(100, 10_000) as f64 / 100.0),
                    Value::Varchar(rng.alnum_string(26, 50)),
                ],
            );
        }
        m.commit(&txn);

        for w in 1..=cfg.warehouses as i32 {
            let txn = m.begin();
            self.warehouse.insert(
                &txn,
                &[
                    Value::Integer(w),
                    Value::Varchar(rng.alnum_string(6, 10)),
                    Value::Varchar(rng.alnum_string(10, 20)),
                    Value::Varchar(rng.alnum_string(10, 20)),
                    Value::Varchar(rng.alnum_string(10, 20)),
                    Value::Varchar(rng.alnum_string(2, 2)),
                    Value::Varchar(rng.alnum_string(9, 9)),
                    Value::Double(rng.int_range(0, 2000) as f64 / 10_000.0),
                    Value::Double(300_000.0),
                ],
            );
            // STOCK.
            for i in 1..=cfg.items {
                self.stock.insert(
                    &txn,
                    &[
                        Value::Integer(w),
                        Value::Integer(i as i32),
                        Value::Integer(rng.int_range(10, 100) as i32),
                        Value::Varchar(rng.alnum_string(24, 24)),
                        Value::Double(0.0),
                        Value::Integer(0),
                        Value::Integer(0),
                        Value::Varchar(rng.alnum_string(26, 50)),
                    ],
                );
            }
            for d in 1..=cfg.districts as i32 {
                self.district.insert(
                    &txn,
                    &[
                        Value::Integer(w),
                        Value::Integer(d),
                        Value::Varchar(rng.alnum_string(6, 10)),
                        Value::Varchar(rng.alnum_string(10, 20)),
                        Value::Varchar(rng.alnum_string(10, 20)),
                        Value::Varchar(rng.alnum_string(2, 2)),
                        Value::Varchar(rng.alnum_string(9, 9)),
                        Value::Double(rng.int_range(0, 2000) as f64 / 10_000.0),
                        Value::Double(30_000.0),
                        Value::BigInt(cfg.orders as i64 + 1),
                    ],
                );
                for c in 1..=cfg.customers as i32 {
                    self.customer.insert(
                        &txn,
                        &[
                            Value::Integer(w),
                            Value::Integer(d),
                            Value::Integer(c),
                            Value::Varchar(rng.alnum_string(8, 16)),
                            V("OE"),
                            Value::string(&last_name((c as u64 - 1) % 1000)),
                            Value::Varchar(rng.alnum_string(10, 20)),
                            Value::Varchar(rng.alnum_string(10, 20)),
                            Value::Varchar(rng.alnum_string(2, 2)),
                            Value::Varchar(rng.alnum_string(9, 9)),
                            Value::Varchar(rng.alnum_string(16, 16)),
                            Value::BigInt(0),
                            if rng.next_below(10) == 0 { V("BC") } else { V("GC") },
                            Value::Double(50_000.0),
                            Value::Double(rng.int_range(0, 5000) as f64 / 10_000.0),
                            Value::Double(-10.0),
                            Value::Double(10.0),
                            Value::Integer(1),
                            Value::Integer(0),
                            Value::Varchar(rng.alnum_string(100, 200)),
                        ],
                    );
                    self.history.insert(
                        &txn,
                        &[
                            Value::Integer(c),
                            Value::Integer(d),
                            Value::Integer(w),
                            Value::Integer(d),
                            Value::Integer(w),
                            Value::BigInt(0),
                            Value::Double(10.0),
                            Value::Varchar(rng.alnum_string(12, 24)),
                        ],
                    );
                }
                // Initial orders: each customer has exactly one, scrambled.
                let mut cust_ids: Vec<i32> = (1..=cfg.customers as i32).collect();
                rng.shuffle(&mut cust_ids);
                for o in 1..=cfg.orders as i64 {
                    let c_id = cust_ids[(o as usize - 1) % cust_ids.len()];
                    let ol_cnt = rng.int_range(5, 15) as i32;
                    let delivered = o <= (cfg.orders as i64 * 7 / 10);
                    self.order.insert(
                        &txn,
                        &[
                            Value::Integer(w),
                            Value::Integer(d),
                            Value::BigInt(o),
                            Value::Integer(c_id),
                            Value::BigInt(o),
                            Value::Integer(if delivered { rng.int_range(1, 10) as i32 } else { 0 }),
                            Value::Integer(ol_cnt),
                            Value::Integer(1),
                        ],
                    );
                    if !delivered {
                        self.new_order.insert(
                            &txn,
                            &[Value::Integer(w), Value::Integer(d), Value::BigInt(o)],
                        );
                    }
                    for n in 1..=ol_cnt {
                        self.order_line.insert(
                            &txn,
                            &[
                                Value::Integer(w),
                                Value::Integer(d),
                                Value::BigInt(o),
                                Value::Integer(n),
                                Value::Integer(rng.int_range(1, cfg.items as i64) as i32),
                                Value::Integer(w),
                                Value::BigInt(if delivered { o } else { 0 }),
                                Value::Integer(5),
                                Value::Double(if delivered {
                                    0.0
                                } else {
                                    rng.int_range(1, 999_999) as f64 / 100.0
                                }),
                                Value::Varchar(rng.alnum_string(24, 24)),
                            ],
                        );
                    }
                }
            }
            m.commit(&txn);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// NEW-ORDER: [`draw_new_order`](Self::draw_new_order), then
    /// [`run_new_order`](Self::run_new_order).
    pub fn new_order(&self, db: &Database, rng: &mut Xoshiro256, w_id: i32) -> Result<bool> {
        let input = self.draw_new_order(rng, w_id);
        self.run_new_order(db, input)
    }

    /// Draw a NEW-ORDER's inputs for home warehouse `w_id`. Each line draws
    /// its item, supplying warehouse, quantity and dist-info in that order;
    /// the unused item of a rollback order (1 %) draws nothing more.
    pub fn draw_new_order(&self, rng: &mut Xoshiro256, w_id: i32) -> NewOrderInput {
        let cfg = &self.config;
        let d_id = rng.int_range(1, cfg.districts as i64) as i32;
        let c_id = rng.int_range(1, cfg.customers as i64) as i32;
        let ol_cnt = rng.int_range(5, 15) as i32;
        // 1% of NEW-ORDERs roll back on an unused item id (spec 2.4.1.4).
        let rollback = rng.next_below(100) == 0;
        let lines = (1..=ol_cnt)
            .map(|n| {
                if rollback && n == ol_cnt {
                    return OrderLineInput {
                        i_id: UNUSED_ITEM,
                        supply_w_id: w_id,
                        quantity: 0,
                        dist_info: Vec::new(),
                    };
                }
                let i_id = rng.int_range(1, cfg.items as i64) as i32;
                // 1% remote warehouse when multi-warehouse.
                let supply_w_id = if cfg.warehouses > 1 && rng.next_below(100) == 0 {
                    let mut o = rng.int_range(1, cfg.warehouses as i64) as i32;
                    if o == w_id {
                        o = o % cfg.warehouses as i32 + 1;
                    }
                    o
                } else {
                    w_id
                };
                let quantity = rng.int_range(1, 10) as i32;
                OrderLineInput { i_id, supply_w_id, quantity, dist_info: rng.alnum_string(24, 24) }
            })
            .collect();
        NewOrderInput { w_id, d_id, c_id, lines }
    }

    /// Run a NEW-ORDER from its inputs. Returns `Ok(false)` when it rolled
    /// back because a line names no item (spec 2.4.2.3), and `Err` on a
    /// write-write conflict; either way the transaction is aborted.
    ///
    /// The lines' ITEM reads are one batch and their STOCK reads another
    /// ([`TableHandle::lookup_many_cols`]), so their cache misses overlap.
    /// A line whose stock row an earlier line already updated reads it
    /// again, and so sees that update.
    pub fn run_new_order(&self, db: &Database, input: NewOrderInput) -> Result<bool> {
        let NewOrderInput { w_id, d_id, c_id, lines } = input;
        let m = db.manager();
        let txn = m.begin();
        let result = (|| -> Result<bool> {
            let (_, [w_tax]) = self
                .warehouse
                .lookup_cols(&txn, "pk", &[Value::Integer(w_id)], [7])?
                .ok_or(Error::TupleNotVisible)?;
            let w_tax = w_tax.as_f64().unwrap();

            let (d_slot, [d_tax, d_next_o_id]) = self
                .district
                .lookup_cols(&txn, "pk", &[Value::Integer(w_id), Value::Integer(d_id)], [7, 9])?
                .ok_or(Error::TupleNotVisible)?;
            let d_tax = d_tax.as_f64().unwrap();
            let o_id = d_next_o_id.as_i64().unwrap();
            self.district.update(&txn, d_slot, &[(9, Value::BigInt(o_id + 1))])?;

            let (_, [c_discount]) = self
                .customer
                .lookup_cols(
                    &txn,
                    "pk",
                    &[Value::Integer(w_id), Value::Integer(d_id), Value::Integer(c_id)],
                    [14],
                )?
                .ok_or(Error::TupleNotVisible)?;
            let c_discount = c_discount.as_f64().unwrap();

            self.order.insert(
                &txn,
                &[
                    Value::Integer(w_id),
                    Value::Integer(d_id),
                    Value::BigInt(o_id),
                    Value::Integer(c_id),
                    Value::BigInt(o_id),
                    Value::Integer(0),
                    Value::Integer(lines.len() as i32),
                    Value::Integer(1),
                ],
            );
            self.new_order
                .insert(&txn, &[Value::Integer(w_id), Value::Integer(d_id), Value::BigInt(o_id)]);

            let item_keys: Vec<[Value; 1]> =
                lines.iter().map(|l| [Value::Integer(l.i_id)]).collect();
            let mut prices = Vec::with_capacity(lines.len());
            for item in self.item.lookup_many_cols(&txn, "pk", &item_keys, [3])? {
                let Some((_, [i_price])) = item else {
                    // Spec rollback.
                    return Ok(false);
                };
                prices.push(i_price.as_f64().unwrap());
            }
            let stock_keys: Vec<[Value; 2]> = lines
                .iter()
                .map(|l| [Value::Integer(l.supply_w_id), Value::Integer(l.i_id)])
                .collect();
            let stocks =
                self.stock.lookup_many_cols(&txn, "pk", &stock_keys, NEW_ORDER_STOCK_COLS)?;

            let mut total = 0.0;
            for (n, ((line, i_price), stock)) in
                lines.into_iter().zip(prices).zip(stocks).enumerate()
            {
                let repeats = stock_keys[..n].contains(&stock_keys[n]);
                let stock = if repeats {
                    self.stock.lookup_cols(&txn, "pk", &stock_keys[n], NEW_ORDER_STOCK_COLS)?
                } else {
                    stock
                };
                let (s_slot, [s_qty, s_ytd, s_order_cnt, s_remote_cnt]) =
                    stock.ok_or(Error::TupleNotVisible)?;
                let qty = line.quantity;
                let s_qty = s_qty.as_i64().unwrap() as i32;
                let new_qty = if s_qty >= qty + 10 { s_qty - qty } else { s_qty - qty + 91 };
                self.stock.update(
                    &txn,
                    s_slot,
                    &[
                        (2, Value::Integer(new_qty)),
                        (4, Value::Double(s_ytd.as_f64().unwrap() + qty as f64)),
                        (5, Value::Integer(s_order_cnt.as_i64().unwrap() as i32 + 1)),
                        (
                            6,
                            Value::Integer(
                                s_remote_cnt.as_i64().unwrap() as i32
                                    + if line.supply_w_id != w_id { 1 } else { 0 },
                            ),
                        ),
                    ],
                )?;

                let amount = qty as f64 * i_price;
                total += amount;
                self.order_line.insert(
                    &txn,
                    &[
                        Value::Integer(w_id),
                        Value::Integer(d_id),
                        Value::BigInt(o_id),
                        Value::Integer(n as i32 + 1),
                        Value::Integer(line.i_id),
                        Value::Integer(line.supply_w_id),
                        Value::BigInt(0),
                        Value::Integer(qty),
                        Value::Double(amount),
                        Value::Varchar(line.dist_info),
                    ],
                );
            }
            let _ = total * (1.0 + w_tax + d_tax) * (1.0 - c_discount);
            Ok(true)
        })();
        match result {
            Ok(true) => {
                m.commit(&txn);
                Ok(true)
            }
            Ok(false) | Err(_) => {
                m.abort(&txn);
                result
            }
        }
    }

    /// PAYMENT.
    pub fn payment(&self, db: &Database, rng: &mut Xoshiro256, w_id: i32) -> Result<()> {
        let cfg = &self.config;
        let m = db.manager();
        let txn = m.begin();
        let result = (|| -> Result<()> {
            let d_id = rng.int_range(1, cfg.districts as i64) as i32;
            let amount = rng.int_range(100, 500_000) as f64 / 100.0;

            let (w_slot, [w_ytd]) = self
                .warehouse
                .lookup_cols(&txn, "pk", &[Value::Integer(w_id)], [8])?
                .ok_or(Error::TupleNotVisible)?;
            self.warehouse.update(
                &txn,
                w_slot,
                &[(8, Value::Double(w_ytd.as_f64().unwrap() + amount))],
            )?;

            let (d_slot, [d_ytd]) = self
                .district
                .lookup_cols(&txn, "pk", &[Value::Integer(w_id), Value::Integer(d_id)], [8])?
                .ok_or(Error::TupleNotVisible)?;
            self.district.update(
                &txn,
                d_slot,
                &[(8, Value::Double(d_ytd.as_f64().unwrap() + amount))],
            )?;

            // c_w_id, c_d_id, c_id, c_balance, c_ytd_payment, c_payment_cnt.
            const C_COLS: [usize; 6] = [0, 1, 2, 15, 16, 17];
            let by_id = |rng: &mut Xoshiro256| {
                let c_id = rng.int_range(1, cfg.customers as i64) as i32;
                self.customer
                    .lookup_cols(
                        &txn,
                        "pk",
                        &[Value::Integer(w_id), Value::Integer(d_id), Value::Integer(c_id)],
                        C_COLS,
                    )?
                    .ok_or(Error::TupleNotVisible)
            };
            // 60% by last name, 40% by id (spec 2.5.1.2).
            let (c_slot, [c_w_id, c_d_id, c_id, c_balance, c_ytd, c_payment_cnt]) =
                if rng.next_below(100) < 60 {
                    let name = last_name(rng.int_range(0, 999) as u64 % 1000);
                    // Visibility only: the matching customers' slots, in
                    // index order; only the middle one is materialized.
                    let matches = self.customer.scan_prefix_cols(
                        &txn,
                        "by_last",
                        &[Value::Integer(w_id), Value::Integer(d_id), Value::string(&name)],
                        usize::MAX,
                        [],
                    )?;
                    if matches.is_empty() {
                        // Name not present at this scale: fall back to id.
                        by_id(rng)?
                    } else {
                        // Middle match, rounded up.
                        let (slot, []) = matches[matches.len() / 2];
                        let row = self.customer.read_cols(&txn, slot, C_COLS);
                        (slot, row.ok_or(Error::TupleNotVisible)?)
                    }
                } else {
                    by_id(rng)?
                };
            self.customer.update(
                &txn,
                c_slot,
                &[
                    (15, Value::Double(c_balance.as_f64().unwrap() - amount)),
                    (16, Value::Double(c_ytd.as_f64().unwrap() + amount)),
                    (17, Value::Integer(c_payment_cnt.as_i64().unwrap() as i32 + 1)),
                ],
            )?;

            self.history.insert(
                &txn,
                &[
                    c_id,
                    c_d_id,
                    c_w_id,
                    Value::Integer(d_id),
                    Value::Integer(w_id),
                    Value::BigInt(1),
                    Value::Double(amount),
                    Value::Varchar(rng.alnum_string(12, 24)),
                ],
            );
            Ok(())
        })();
        match result {
            Ok(()) => {
                m.commit(&txn);
                Ok(())
            }
            Err(e) => {
                m.abort(&txn);
                Err(e)
            }
        }
    }

    /// ORDER-STATUS. It only reads, so it runs as a read-only transaction:
    /// it neither waits at nor holds back compaction's gate.
    pub fn order_status(&self, db: &Database, rng: &mut Xoshiro256, w_id: i32) -> Result<()> {
        let cfg = &self.config;
        let m = db.manager();
        let txn = m.begin_read_only();
        let result = (|| -> Result<()> {
            let d_id = rng.int_range(1, cfg.districts as i64) as i32;
            let c_id = rng.int_range(1, cfg.customers as i64) as i32;
            // c_first, c_middle, c_last, c_balance.
            let Some(_) = self.customer.lookup_cols(
                &txn,
                "pk",
                &[Value::Integer(w_id), Value::Integer(d_id), Value::Integer(c_id)],
                [3, 4, 5, 15],
            )?
            else {
                return Ok(());
            };
            // Most recent order for this customer: o_id, o_entry_d,
            // o_carrier_id, o_ol_cnt.
            let orders = self.order.scan_prefix_cols(
                &txn,
                "by_customer",
                &[Value::Integer(w_id), Value::Integer(d_id), Value::Integer(c_id)],
                usize::MAX,
                [2, 4, 5, 6],
            )?;
            if let Some((_, [o_id, _, _, ol_cnt])) = orders.last() {
                // ol_i_id, ol_supply_w_id, ol_delivery_d, ol_quantity,
                // ol_amount.
                let lines = self.order_line.scan_prefix_cols(
                    &txn,
                    "pk",
                    &[Value::Integer(w_id), Value::Integer(d_id), o_id.clone()],
                    usize::MAX,
                    [4, 5, 6, 7, 8],
                )?;
                // Consistency: ol count matches o_ol_cnt.
                debug_assert_eq!(lines.len() as i64, ol_cnt.as_i64().unwrap());
            }
            Ok(())
        })();
        // Read-only: always commits (and still gets a commit record, §3.4).
        match result {
            Ok(()) => {
                m.commit(&txn);
                Ok(())
            }
            Err(e) => {
                m.abort(&txn);
                Err(e)
            }
        }
    }

    /// DELIVERY: deliver the oldest undelivered order in every district.
    pub fn delivery(&self, db: &Database, rng: &mut Xoshiro256, w_id: i32) -> Result<()> {
        let cfg = &self.config;
        let m = db.manager();
        let carrier = rng.int_range(1, 10) as i32;
        let txn = m.begin();
        let result = (|| -> Result<()> {
            for d_id in 1..=cfg.districts as i32 {
                let Some((no_slot, [o_id])) = self.new_order.first_at_or_after_cols(
                    &txn,
                    "pk",
                    &[Value::Integer(w_id), Value::Integer(d_id), Value::BigInt(0)],
                    &[Value::Integer(w_id), Value::Integer(d_id)],
                    [2],
                )?
                else {
                    continue; // no undelivered orders in this district
                };
                self.new_order.delete(&txn, no_slot)?;

                let order_key = [Value::Integer(w_id), Value::Integer(d_id), o_id];
                let (o_slot, [c_id]) = self
                    .order
                    .lookup_cols(&txn, "pk", &order_key, [3])?
                    .ok_or(Error::TupleNotVisible)?;
                self.order.update(&txn, o_slot, &[(5, Value::Integer(carrier))])?;

                let lines =
                    self.order_line.scan_prefix_cols(&txn, "pk", &order_key, usize::MAX, [8])?;
                let mut amount_sum = 0.0;
                for (ol_slot, [ol_amount]) in &lines {
                    amount_sum += ol_amount.as_f64().unwrap();
                    self.order_line.update(&txn, *ol_slot, &[(6, Value::BigInt(1))])?;
                }

                let (c_slot, [c_balance, c_delivery_cnt]) = self
                    .customer
                    .lookup_cols(
                        &txn,
                        "pk",
                        &[Value::Integer(w_id), Value::Integer(d_id), c_id],
                        [15, 18],
                    )?
                    .ok_or(Error::TupleNotVisible)?;
                self.customer.update(
                    &txn,
                    c_slot,
                    &[
                        (15, Value::Double(c_balance.as_f64().unwrap() + amount_sum)),
                        (18, Value::Integer(c_delivery_cnt.as_i64().unwrap() as i32 + 1)),
                    ],
                )?;
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                m.commit(&txn);
                Ok(())
            }
            Err(e) => {
                m.abort(&txn);
                Err(e)
            }
        }
    }

    /// STOCK-LEVEL. It only reads, so it runs as a read-only transaction
    /// (see [`order_status`](Self::order_status)). The distinct items of
    /// the district's last 20 orders are read from STOCK in one batch.
    pub fn stock_level(&self, db: &Database, rng: &mut Xoshiro256, w_id: i32) -> Result<()> {
        let cfg = &self.config;
        let m = db.manager();
        let txn = m.begin_read_only();
        let result = (|| -> Result<()> {
            let d_id = rng.int_range(1, cfg.districts as i64) as i32;
            let threshold = rng.int_range(10, 20) as i32;
            let (_, [next_o]) = self
                .district
                .lookup_cols(&txn, "pk", &[Value::Integer(w_id), Value::Integer(d_id)], [9])?
                .ok_or(Error::TupleNotVisible)?;
            let next_o = next_o.as_i64().unwrap();
            let mut items = Vec::new();
            for o_id in (next_o - 20).max(1)..next_o {
                let lines = self.order_line.scan_prefix_cols(
                    &txn,
                    "pk",
                    &[Value::Integer(w_id), Value::Integer(d_id), Value::BigInt(o_id)],
                    usize::MAX,
                    [4],
                )?;
                items.extend(
                    lines
                        .iter()
                        .map(|(_, [i_id])| i_id.as_i64().unwrap() as i32)
                        .filter(|&i| i >= 0),
                );
            }
            items.sort_unstable();
            items.dedup();
            let keys: Vec<[Value; 2]> =
                items.iter().map(|&i| [Value::Integer(w_id), Value::Integer(i)]).collect();
            let low = self
                .stock
                .lookup_many_cols(&txn, "pk", &keys, [2])?
                .into_iter()
                .flatten()
                .filter(|(_, [s_qty])| (s_qty.as_i64().unwrap() as i32) < threshold)
                .count();
            let _ = low;
            Ok(())
        })();
        match result {
            Ok(()) => {
                m.commit(&txn);
                Ok(())
            }
            Err(e) => {
                m.abort(&txn);
                Err(e)
            }
        }
    }

    /// Run one transaction from the standard mix (45/43/4/4/4), recording
    /// the outcome (committed per type / aborted / failed) into `stats`.
    ///
    /// The driver consults admission control at the transaction boundary —
    /// the safest point to pause, before any version-chain entry is created
    /// — so a backlogged transformation pipeline throttles the whole mix,
    /// not just individual writes inside open transactions.
    pub fn run_one(&self, db: &Database, rng: &mut Xoshiro256, w_id: i32, stats: &mut TpccStats) {
        if db.admission().admit() != mainline_db::Admission::Admitted {
            stats.throttled += 1;
        }
        let roll = rng.next_below(100);
        let outcome = if roll < 45 {
            self.new_order(db, rng, w_id).map(|committed| committed.then_some(0))
        } else if roll < 88 {
            self.payment(db, rng, w_id).map(|_| Some(1))
        } else if roll < 92 {
            self.order_status(db, rng, w_id).map(|_| Some(2))
        } else if roll < 96 {
            self.delivery(db, rng, w_id).map(|_| Some(3))
        } else {
            self.stock_level(db, rng, w_id).map(|_| Some(4))
        };
        match outcome {
            Ok(Some(ty)) => stats.committed[ty] += 1,
            Ok(None) | Err(_) => stats.aborted += 1,
        }
    }

    /// Consistency check (TPC-C §3.3.2.1-ish): for every district,
    /// `d_next_o_id - 1` equals the max order id, and order-line counts
    /// match their orders.
    pub fn check_consistency(&self, db: &Database) -> Result<()> {
        let m = db.manager();
        let txn = m.begin();
        for w in 1..=self.config.warehouses as i32 {
            for d in 1..=self.config.districts as i32 {
                let (_, [next_o]) = self
                    .district
                    .lookup_cols(&txn, "pk", &[Value::Integer(w), Value::Integer(d)], [9])?
                    .ok_or(Error::TupleNotVisible)?;
                let next_o = next_o.as_i64().unwrap();
                let orders = self.order.scan_prefix_cols(
                    &txn,
                    "pk",
                    &[Value::Integer(w), Value::Integer(d)],
                    usize::MAX,
                    [2, 6],
                )?;
                let max_o = orders.iter().map(|(_, [o, _])| o.as_i64().unwrap()).max().unwrap_or(0);
                if max_o != next_o - 1 {
                    return Err(Error::Corrupt(format!(
                        "w{w}d{d}: max order {max_o} vs next_o_id {next_o}"
                    )));
                }
                for (_, [o_id, ol_cnt]) in orders {
                    let ol_cnt = ol_cnt.as_i64().unwrap();
                    let lines = self.order_line.scan_prefix_cols(
                        &txn,
                        "pk",
                        &[Value::Integer(w), Value::Integer(d), o_id.clone()],
                        usize::MAX,
                        [],
                    )?;
                    if lines.len() as i64 != ol_cnt {
                        return Err(Error::Corrupt(format!(
                            "w{w}d{d}o{}: {} lines vs o_ol_cnt {ol_cnt}",
                            o_id.as_i64().unwrap(),
                            lines.len(),
                        )));
                    }
                }
            }
        }
        m.commit(&txn);
        Ok(())
    }
}

/// TPC-C last-name generator (spec 4.3.2.3).
pub fn last_name(num: u64) -> String {
    const SYLLABLES: [&str; 10] =
        ["BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"];
    format!(
        "{}{}{}",
        SYLLABLES[(num / 100 % 10) as usize],
        SYLLABLES[(num / 10 % 10) as usize],
        SYLLABLES[(num % 10) as usize]
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_db::DbConfig;

    fn mini_db() -> (Arc<Database>, Tpcc) {
        let db = Database::open(DbConfig::default()).unwrap();
        let tpcc = Tpcc::create(&db, TpccConfig::mini(2), false).unwrap();
        tpcc.load(&db, 42).unwrap();
        (db, tpcc)
    }

    #[test]
    fn loader_populates_consistent_state() {
        let (db, tpcc) = mini_db();
        tpcc.check_consistency(&db).unwrap();
        let txn = db.manager().begin();
        let cfg = &tpcc.config;
        assert_eq!(
            tpcc.customer.table().count_visible(&txn),
            (cfg.warehouses * cfg.districts * cfg.customers) as usize
        );
        assert_eq!(
            tpcc.order.table().count_visible(&txn),
            (cfg.warehouses * cfg.districts * cfg.orders) as usize
        );
        db.manager().commit(&txn);
    }

    #[test]
    fn new_order_advances_district_counter() {
        let (db, tpcc) = mini_db();
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut done = 0;
        while done < 20 {
            if tpcc.new_order(&db, &mut rng, 1).unwrap_or(false) {
                done += 1;
            }
        }
        tpcc.check_consistency(&db).unwrap();
    }

    /// s_quantity, s_ytd, s_order_cnt of STOCK row (w 1, `i_id`).
    fn stock_of(db: &Database, tpcc: &Tpcc, i_id: i32) -> (i64, f64, i64) {
        let txn = db.manager().begin();
        let (_, [qty, ytd, cnt]) = tpcc
            .stock
            .lookup_cols(&txn, "pk", &[Value::Integer(1), Value::Integer(i_id)], [2, 4, 5])
            .unwrap()
            .unwrap();
        db.manager().commit(&txn);
        (qty.as_i64().unwrap(), ytd.as_f64().unwrap(), cnt.as_i64().unwrap())
    }

    /// d_next_o_id of district (1, 1).
    fn next_order_id(db: &Database, tpcc: &Tpcc) -> i64 {
        let txn = db.manager().begin();
        let (_, [next]) = tpcc
            .district
            .lookup_cols(&txn, "pk", &[Value::Integer(1), Value::Integer(1)], [9])
            .unwrap()
            .unwrap();
        db.manager().commit(&txn);
        next.as_i64().unwrap()
    }

    fn line(i_id: i32, quantity: i32) -> OrderLineInput {
        OrderLineInput { i_id, supply_w_id: 1, quantity, dist_info: vec![b'd'; 24] }
    }

    #[test]
    fn new_order_line_repeating_an_item_sees_its_own_stock_update() {
        let (db, tpcc) = mini_db();
        let (qty0, ytd0, cnt0) = stock_of(&db, &tpcc, 7);
        let o_id = next_order_id(&db, &tpcc);
        let input = NewOrderInput {
            w_id: 1,
            d_id: 1,
            c_id: 1,
            lines: vec![line(7, 5), line(8, 3), line(7, 9)],
        };
        assert!(tpcc.run_new_order(&db, input).unwrap());
        // The quantity rule, applied once per line in line order.
        let rule = |s: i64, q: i64| if s >= q + 10 { s - q } else { s - q + 91 };
        let (qty, ytd, cnt) = stock_of(&db, &tpcc, 7);
        assert_eq!(qty, rule(rule(qty0, 5), 9));
        assert_eq!(ytd, ytd0 + 14.0);
        assert_eq!(cnt, cnt0 + 2);
        let txn = db.manager().begin();
        let lines = tpcc
            .order_line
            .scan_prefix_cols(
                &txn,
                "pk",
                &[Value::Integer(1), Value::Integer(1), Value::BigInt(o_id)],
                usize::MAX,
                [4, 7],
            )
            .unwrap();
        db.manager().commit(&txn);
        let lines: Vec<_> = lines.into_iter().map(|(_, cols)| cols).collect();
        assert_eq!(
            lines,
            [(7, 5), (8, 3), (7, 9)].map(|(i, q)| [Value::Integer(i), Value::Integer(q)])
        );
        tpcc.check_consistency(&db).unwrap();
    }

    #[test]
    fn new_order_naming_an_unused_item_rolls_back_every_row() {
        let (db, tpcc) = mini_db();
        let stock_before = stock_of(&db, &tpcc, 7);
        let o_id = next_order_id(&db, &tpcc);
        let input = NewOrderInput {
            w_id: 1,
            d_id: 1,
            c_id: 1,
            lines: vec![line(7, 5), line(8, 3), line(UNUSED_ITEM, 0)],
        };
        assert!(!tpcc.run_new_order(&db, input).unwrap());
        assert_eq!(next_order_id(&db, &tpcc), o_id);
        assert_eq!(stock_of(&db, &tpcc, 7), stock_before);
        let txn = db.manager().begin();
        let order_key = [Value::Integer(1), Value::Integer(1), Value::BigInt(o_id)];
        assert!(tpcc.order.lookup_cols(&txn, "pk", &order_key, []).unwrap().is_none());
        assert!(tpcc.new_order.lookup_cols(&txn, "pk", &order_key, []).unwrap().is_none());
        let lines =
            tpcc.order_line.scan_prefix_cols(&txn, "pk", &order_key, usize::MAX, []).unwrap();
        assert!(lines.is_empty());
        db.manager().commit(&txn);
        tpcc.check_consistency(&db).unwrap();
    }

    #[test]
    fn payment_accumulates_ytd() {
        let (db, tpcc) = mini_db();
        let mut rng = Xoshiro256::seed_from_u64(2);
        for _ in 0..20 {
            let _ = tpcc.payment(&db, &mut rng, 1);
        }
        let txn = db.manager().begin();
        let (_, wrow) = tpcc.warehouse.lookup(&txn, "pk", &[Value::Integer(1)]).unwrap().unwrap();
        assert!(wrow[8].as_f64().unwrap() > 300_000.0);
        // Warehouse YTD == sum of district YTDs (TPC-C consistency cond. 1).
        let districts =
            tpcc.district.scan_prefix(&txn, "pk", &[Value::Integer(1)], usize::MAX).unwrap();
        let d_sum: f64 = districts.iter().map(|(_, d)| d[8].as_f64().unwrap()).sum();
        let expected = wrow[8].as_f64().unwrap() - 300_000.0 + 30_000.0 * districts.len() as f64;
        assert!((d_sum - expected).abs() < 1e-6, "{d_sum} vs {expected}");
        db.manager().commit(&txn);
    }

    #[test]
    fn delivery_consumes_new_orders() {
        let (db, tpcc) = mini_db();
        let mut rng = Xoshiro256::seed_from_u64(3);
        let txn = db.manager().begin();
        let before = tpcc.new_order.table().count_visible(&txn);
        db.manager().commit(&txn);
        assert!(before > 0);
        tpcc.delivery(&db, &mut rng, 1).unwrap();
        let txn = db.manager().begin();
        let after = tpcc.new_order.table().count_visible(&txn);
        db.manager().commit(&txn);
        assert_eq!(after, before - tpcc.config.districts as usize);
        tpcc.check_consistency(&db).unwrap();
    }

    #[test]
    fn order_status_and_stock_level_are_read_only() {
        let (db, tpcc) = mini_db();
        let mut rng = Xoshiro256::seed_from_u64(11);
        let txn = db.manager().begin();
        let orders_before = tpcc.order.table().count_visible(&txn);
        db.manager().commit(&txn);
        for _ in 0..10 {
            tpcc.order_status(&db, &mut rng, 1).unwrap();
            tpcc.stock_level(&db, &mut rng, 2).unwrap();
        }
        let txn = db.manager().begin();
        assert_eq!(tpcc.order.table().count_visible(&txn), orders_before);
        db.manager().commit(&txn);
        tpcc.check_consistency(&db).unwrap();
    }

    #[test]
    fn payment_by_last_name_selects_middle_customer() {
        let (db, tpcc) = mini_db();
        // Directly exercise the by-name index path used by Payment.
        let txn = db.manager().begin();
        let name = last_name(0); // "BARBARBAR": c_id 1 in every district
        let matches = tpcc
            .customer
            .scan_prefix(
                &txn,
                "by_last",
                &[Value::Integer(1), Value::Integer(1), Value::string(&name)],
                usize::MAX,
            )
            .unwrap();
        assert!(!matches.is_empty());
        assert!(matches.iter().all(|(_, c)| c[5] == Value::string(&name)));
        db.manager().commit(&txn);
    }

    #[test]
    fn full_mix_runs_clean() {
        let (db, tpcc) = mini_db();
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut stats = TpccStats::default();
        for _ in 0..300 {
            let w = 1 + rng.next_below(2) as i32;
            tpcc.run_one(&db, &mut rng, w, &mut stats);
        }
        assert!(stats.total() > 250, "stats: {stats:?}");
        assert!(stats.committed[0] > 0 && stats.committed[1] > 0);
        tpcc.check_consistency(&db).unwrap();
    }

    #[test]
    fn concurrent_workers_stay_consistent() {
        let db = Database::open(DbConfig {
            gc_interval: std::time::Duration::from_millis(2),
            ..Default::default()
        })
        .unwrap();
        let tpcc = Arc::new(Tpcc::create(&db, TpccConfig::mini(4), false).unwrap());
        tpcc.load(&db, 7).unwrap();
        let mut handles = vec![];
        for w in 1..=4i32 {
            let db = Arc::clone(&db);
            let tpcc = Arc::clone(&tpcc);
            handles.push(std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(w as u64);
                let mut stats = TpccStats::default();
                for _ in 0..150 {
                    tpcc.run_one(&db, &mut rng, w, &mut stats);
                }
                stats
            }));
        }
        let mut total = 0;
        for h in handles {
            total += h.join().unwrap().total();
        }
        assert!(total > 400);
        tpcc.check_consistency(&db).unwrap();
        db.shutdown();
    }

    #[test]
    fn last_name_spec_examples() {
        assert_eq!(last_name(0), "BARBARBAR");
        assert_eq!(last_name(371), "PRICALLYOUGHT");
        assert_eq!(last_name(999), "EINGEINGEING");
    }
}
