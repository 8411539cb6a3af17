//! `mainline-server` — the network frontend.
//!
//! Turns the paper's §5 export story into an end-to-end wire property: a
//! multi-threaded, poll-driven TCP listener speaking two protocols whose
//! encoders already live in `crates/export` —
//!
//! * **PG wire** (`export/postgres.rs` shapes) for point/OLTP clients:
//!   startup, simple `Query` with a mini-SQL (`SELECT * FROM t`,
//!   multi-row `INSERT`), text `DataRow`s, SQLSTATE error responses.
//! * **Flight-style Arrow IPC** (`export/flight.rs`) for analytics readers:
//!   a `DoGet` streams one IPC frame per block. Frozen blocks are encoded
//!   straight from block memory (one memcpy into the frame) and the frame
//!   `Vec` is *moved* to the socket queue — no re-encode between block and
//!   wire, and the bytes equal the block's checkpoint cold segment.
//!   Evicted blocks fault in through the buffer manager on the way.
//!
//! Lifecycle: per-connection protocol detection, multiplexed sequential
//! request framing, per-connection send backpressure (a stream encodes
//! blocks only while the unsent queue is under budget), idle timeout, and
//! graceful drain on shutdown — registered as a `Database` pre-shutdown
//! hook, so in-flight responses finish while the engine is still fully up.
//! Write requests consult the shared `AdmissionController`; acked INSERTs
//! are durable (CommandComplete is withheld until the WAL says so).
//!
//! Entry points: [`DatabaseServe::serve`] (`db.serve(config)`) or
//! [`Server::start`]; observe with [`Server::metrics`].

#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod proto;
mod server;
pub mod sql;

pub use server::{DatabaseServe, Server, ServerConfig, ServerMetrics};
