//! `mainline-db` — the system facade: catalog, indexed tables, and the
//! background machinery (GC thread, log manager, transformation pipeline)
//! wired together the way Fig. 4 + Fig. 8 describe.
//!
//! Index maintenance under MVCC follows the multi-version index discipline:
//! index entries are `(key ‖ slot)` pairs inserted eagerly and deleted
//! *lazily* — a delete is deferred through the GC's epoch queue so that
//! readers with old snapshots can still find the old version's entry;
//! lookups filter candidates through tuple visibility. Aborts compensate
//! eager inserts via transaction end-actions.
//!
//! # Example
//!
//! ```
//! use mainline_common::schema::{ColumnDef, Schema};
//! use mainline_common::value::{TypeId, Value};
//! use mainline_db::{Database, DbConfig, IndexSpec};
//!
//! let db = Database::open(DbConfig::default()).unwrap();
//! let orders = db
//!     .create_table(
//!         "orders",
//!         Schema::new(vec![
//!             ColumnDef::new("id", TypeId::BigInt),
//!             ColumnDef::new("item", TypeId::Varchar),
//!         ]),
//!         vec![IndexSpec::new("pk", &[0])],
//!         false, // not registered for hot→cold transformation
//!     )
//!     .unwrap();
//!
//! let txn = db.manager().begin();
//! orders.insert(&txn, &[Value::BigInt(1), Value::string("anvil")]);
//! db.manager().commit(&txn);
//!
//! let txn = db.manager().begin();
//! let (_slot, row) = orders.lookup(&txn, "pk", &[Value::BigInt(1)]).unwrap().unwrap();
//! assert_eq!(row[1], Value::string("anvil"));
//! db.manager().commit(&txn);
//! db.shutdown();
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod catalog;
pub mod database;
pub mod restart;
pub mod table_handle;

pub use admission::{Admission, AdmissionController, AdmissionStats};
pub use catalog::Catalog;
pub use database::{CheckpointConfig, Database, DbConfig};
pub use mainline_checkpoint::CompactionPolicy;
pub use restart::RestartStats;
pub use table_handle::{IndexSpec, TableHandle};
