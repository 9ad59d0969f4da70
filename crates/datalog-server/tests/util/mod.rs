//! Shared integration-test fixtures.
//!
//! [`no_optimize_reference`] is the byte-identity reference of the server
//! suites: the program as written, never the optimizer's output, so an
//! optimizer that loses answers cannot vouch for itself.
//!
//! Every test gets its own temp directory — keyed by pid, thread, and a
//! label — removed on drop even when the test panics. This replaces the
//! old `temp_file` helper, which shared one directory per process and
//! leaked it on exit.

use std::path::{Path, PathBuf};

use datalog_ast::parse_program;
use datalog_engine::{query_answers_full, EvalOptions};
use datalog_server::render_answers;

/// What `xdl run --no-optimize <src>` prints on stdout: the program as
/// written, evaluated with the boolean cut.
#[allow(dead_code)] // used by protocol.rs and faults.rs; this module is shared per test binary
pub fn no_optimize_reference(src: &str) -> String {
    let parsed = parse_program(src).unwrap();
    let opts = EvalOptions {
        boolean_cut: true,
        ..EvalOptions::default()
    };
    let (answers, _) = query_answers_full(&parsed.program, parsed.facts, &opts).unwrap();
    render_answers(&answers)
}

/// A unique-per-test temp directory with drop-guard cleanup.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create (or wipe and recreate) the directory for this test.
    pub fn new(label: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "datalog-server-it-{}-{label}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create test temp dir");
        TempDir { path }
    }

    /// The directory path.
    #[allow(dead_code)] // used by faults.rs; this module is shared per test binary
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write `content` to `name` inside the directory, returning its path.
    #[allow(dead_code)] // used by protocol.rs; this module is shared per test binary
    pub fn file(&self, name: &str, content: &str) -> PathBuf {
        let p = self.path.join(name);
        std::fs::write(&p, content).expect("write fixture file");
        p
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
