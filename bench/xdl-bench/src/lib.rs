//! # xdl-bench
//!
//! The load benchmark for `xdl`: seeded generators, an independent
//! oracle, a closed-loop TCP driver, and the report. This crate depends on
//! nothing in the repository — it speaks the wire protocol and the CLI —
//! so an internal rename can never break the end-to-end numbers. The layer
//! probes (`xdl-bench-layers`) reuse the generators from here and link the
//! repository's crates themselves.

pub mod batch;
pub mod batchrun;
pub mod cli;
pub mod metrics;
pub mod org;
pub mod proc;
pub mod report;
pub mod rng;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod wire;
pub mod workload;

/// What every report starts with: how the load is applied and on what.
pub fn header(workload: &str, seed: u64, seconds: f64, clients: usize) -> String {
    let (nproc, kernel) = host();
    format!(
        "# workload={workload} seed={seed} seconds={seconds} loop=closed clients={clients} \
         fsync=always nproc={nproc} kernel={kernel}"
    )
}

/// `nproc` and the kernel release: recorded with every result, because a
/// number that depends on threads means nothing without them.
pub fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    (nproc, kernel.trim().to_string())
}

/// `path` against the current directory (the server resolves `LOAD` paths
/// against its own working directory, so children get absolute ones).
pub fn absolute(path: &std::path::Path) -> Result<std::path::PathBuf, String> {
    std::env::current_dir()
        .map(|cwd| cwd.join(path))
        .map_err(|e| format!("current directory: {e}"))
}
