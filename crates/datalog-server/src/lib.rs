//! # datalog-server
//!
//! A long-lived query service for the existential-Datalog toolkit,
//! built only on `std::net` + `std::thread` (the build is offline and
//! dependency-free by design).
//!
//! The paper's observation that motivates this crate: the adorned,
//! optimized program `P^{e,ad}` (§2–§3 of *Optimizing Existential Datalog
//! Queries*) depends only on the query *form* — rule set, query predicate,
//! existential adornment — not on the concrete query atom or the EDB. A
//! service that answers many queries against a persistent, growing fact
//! base should therefore optimize each form **once** and reuse it. The
//! pieces:
//!
//! * **prepared-query cache** ([`cache`]): forms map to fully optimized
//!   programs (`datalog_opt::prepare`); repeats skip the optimizer, which
//!   is observable as zero new `PhaseEvent`s in the `TRACE` output;
//! * **snapshot-isolated reads** (`datalog_engine::shared`): connection
//!   threads evaluate against consistent watermark snapshots of the
//!   append-only EDB while `FACT`/`LOAD` ingest concurrently;
//! * **resident forms** ([`cache::Entry::resident`]): stratifiable forms,
//!   negation included, keep their fixpoint and absorb new facts stratum by
//!   stratum (`maintain.rs` drains
//!   them, and a form whose drain fails is rebuilt by its next query;
//!   `ingest.rs` is the one `FACT`/`LOAD` path, one critical section per
//!   ingest under the log's lock). A resident keeps its last rendered read
//!   of each form it answers until a propagation loads rows, so a repeated
//!   query text is answered without re-rendering; a cold form evaluates
//!   on every query.
//!
//! Start it with `xdl serve [--port P] [--max-conns N]` and talk to it with
//! `xdl query --connect ADDR` or any line-oriented TCP client (see
//! [`protocol`] for the grammar). Each connection is served on its own
//! thread, up to `--max-conns` at once. `QUERY` responses are
//! byte-identical to `xdl run` on the same program and facts, and always
//! fresh: an answer reflects every ingest acknowledged before the query,
//! and names the frontier version it was read at.

pub mod cache;
pub mod client;
mod conn;
pub mod fault;
mod ingest;
mod maintain;
pub mod metrics;
pub mod protocol;
mod query;
pub mod server;
pub mod wal;

pub use cache::{FormKey, PreparedCache};
pub use client::Client;
pub use conn::Server;
pub use fault::FaultPlan;
pub use metrics::ServerMetrics;
pub use protocol::{ErrCode, Request, Response, PROTOCOL_VERSION};
pub use server::{render_answers, ServerConfig, ServerState};
pub use wal::{FsyncPolicy, Recovery, RunBatch, Wal, WalOp};
