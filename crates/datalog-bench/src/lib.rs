//! # datalog-bench
//!
//! Workload generators and the experiment harness that regenerates every
//! claim-backed table of the reproduction (DESIGN.md §5, EXPERIMENTS.md).
//!
//! *Why a harness and not a timing framework?* The paper (PODS 1988, a
//! theory paper) reports no absolute numbers; its performance claims are
//! about machine-independent work — facts derived, duplicate-elimination
//! hits, join scans. The harness prints those counters next to wall time
//! so the *shape* of each claim (who wins, by how much, where it crosses
//! over) is visible and reproducible. End-to-end timing with a stated noise
//! floor is the load benchmark's job (`bench/`).
//!
//! Run everything:
//!
//! ```text
//! cargo run -p datalog-bench --release --bin harness -- all
//! cargo run -p datalog-bench --release --bin harness -- e3 --json
//! ```

pub mod experiments;
pub mod fuzz;
pub mod measure;
pub mod workloads;

pub use experiments::{all, by_id};
pub use measure::{measure, ExperimentResult, Measurement};
