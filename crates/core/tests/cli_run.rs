//! `xdl run` as a process: what it writes, how it exits. Each case spawns
//! the built binary on a program written to a temp directory.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A program file, removed on drop.
struct Program(PathBuf);

impl Program {
    fn new(name: &str, text: &str) -> Program {
        let path =
            std::env::temp_dir().join(format!("xdl-cli-run-{}-{name}.dl", std::process::id()));
        std::fs::write(&path, text).expect("write program");
        Program(path)
    }

    fn run(&self, extra: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_xdl"))
            .arg("run")
            .arg(&self.0)
            .args(extra)
            .output()
            .expect("spawn xdl")
    }
}

impl Drop for Program {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn string_constants_print_as_their_utf8_bytes() {
    let p = Program::new("utf8", "p(\"café\").\np(\"a b\").\n?- p(X).\n");
    let out = p.run(&[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let mut want = b"X\n".to_vec();
    for line in ["café", "a b"] {
        want.extend_from_slice(line.as_bytes());
        want.push(b'\n');
    }
    // Sorted by symbol, which is first-seen order: `café` before `a b`.
    assert_eq!(
        out.stdout,
        want,
        "{:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn mixed_arity_facts_are_an_error_not_a_panic() {
    // `p` appears in no rule: only the loader sees its two arities.
    let p = Program::new("mixed", "p(1).\np(1, 2).\nq(X) :- r(X).\nr(3).\n?- q(X).\n");
    let out = p.run(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("xdl: evaluation: fact for p has arity"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn a_reader_that_stops_early_ends_the_run_cleanly() {
    // 80 000 answers: far more than a pipe holds, so `xdl` is still
    // writing when the reader goes away.
    let mut text = String::new();
    for i in 0..80_000 {
        text.push_str(&format!("p({i}).\n"));
    }
    text.push_str("?- p(X).\n");
    let p = Program::new("pipe", &text);
    let mut child = Command::new(env!("CARGO_BIN_EXE_xdl"))
        .arg("run")
        .arg(&p.0)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xdl");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert_eq!(first, "X\n");
    // The reader (and with it the pipe) is dropped here.
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
