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
//! * **dependency-scoped answer memos**: a memoized answer is valid while
//!   the relations its form's optimized program transitively reads sit at
//!   the watermarks it was rendered at, so a new fact outdates only the
//!   forms that read its predicate — and ingestion never touches the cache
//!   for it;
//! * **resident forms** ([`cache::Entry::resident`]): monotone forms keep
//!   their fixpoint and absorb new facts as deltas (`maintain.rs` drains
//!   them, and a form whose drain fails is rebuilt by its next query;
//!   `ingest.rs` is the one `FACT`/`LOAD` path).
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

pub use cache::{CachedAnswers, FormKey, PreparedCache};
pub use client::Client;
pub use conn::Server;
pub use fault::FaultPlan;
pub use metrics::ServerMetrics;
pub use protocol::{ErrCode, Request, Response, PROTOCOL_VERSION};
pub use server::{render_answers, ServerConfig, ServerState};
pub use wal::{FsyncPolicy, Recovery, RunBatch, Wal, WalOp};
