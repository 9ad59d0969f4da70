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
//! * **snapshot-isolated reads** (`datalog_engine::shared`): worker
//!   threads evaluate against consistent watermark snapshots of the
//!   append-only EDB while `FACT`/`LOAD` ingest concurrently;
//! * **dependency-scoped answer memos**: a memoized answer is valid while
//!   the relations its form's optimized program transitively reads sit at
//!   the watermarks it was rendered at, so a new fact outdates only the
//!   forms that read its predicate — and ingestion never touches the cache
//!   for it;
//! * **resident forms** ([`cache::Residency`]): monotone forms keep their
//!   fixpoint and absorb new facts as deltas (`maintain.rs` drains and
//!   rebuilds them; `ingest.rs` is the one `FACT`/`LOAD` path).
//!
//! Start it with `xdl serve [--port P] [--threads N]` and talk to it with
//! `xdl query --connect ADDR` or any line-oriented TCP client (see
//! [`protocol`] for the grammar). `QUERY` responses are byte-identical to
//! `xdl run` on the same program and facts.
//!
//! Protocol v4 adds **bounded-staleness serving**: `QUERY` accepts a
//! consistency mode (`fresh` | `staleness=<ms>` | `any`), every response
//! carries the frontier version it was served at plus an upper staleness
//! bound, and costly resident drains are deferred to a maintenance thread
//! while readers keep answering off the last published frontier.

pub mod cache;
pub mod client;
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
pub use fault::FaultPlan;
pub use metrics::ServerMetrics;
pub use protocol::{Consistency, ErrCode, Request, Response, PROTOCOL_VERSION};
pub use server::{render_answers, Server, ServerConfig, ServerState};
pub use wal::{FsyncPolicy, Recovery, RunBatch, Wal, WalOp};
