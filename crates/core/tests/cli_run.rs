//! `xdl run` as a process: what it writes, how it exits. Each case spawns
//! the built binary on a program written to a temp directory.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn xdl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xdl"))
        .args(args)
        .output()
        .expect("spawn xdl")
}

const TC: &str = "a(X, Y) :- p(X, Y).\n\
                  a(X, Y) :- p(X, Z), a(Z, Y).\n\
                  p(1, 2).\np(2, 3).\np(3, 4).\n\
                  ?- a(X, Y).\n";

/// A program file, removed on drop.
struct Program(PathBuf);

impl Program {
    fn new(name: &str, text: &str) -> Program {
        let path =
            std::env::temp_dir().join(format!("xdl-cli-run-{}-{name}.dl", std::process::id()));
        std::fs::write(&path, text).expect("write program");
        Program(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp paths are UTF-8")
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

/// A usage error: exit 2, the offending option named on stderr, nothing on
/// stdout.
fn assert_unknown_option(out: &Output, option: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with(&format!("xdl: unknown option '{option}'\nusage:")),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn run_refuses_a_misspelled_option_instead_of_ignoring_it() {
    let p = Program::new("budjet", TC);
    assert_unknown_option(&p.run(&["--budjet", "1"]), "--budjet");
    // An option that no longer exists fails as loudly.
    assert_unknown_option(&p.run(&["--threads", "2"]), "--threads");
}

#[test]
fn serve_refuses_a_misspelled_option_instead_of_serving_without_it() {
    // Before the fix this served with no WAL at all; bound the wait so a
    // regression fails instead of hanging.
    let dir = std::env::temp_dir().join(format!("xdl-cli-wall-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_xdl"))
        .args(["serve", "--port", "0", "--wall"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xdl");
    let t0 = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if t0.elapsed() > Duration::from_secs(10) {
            child.kill().unwrap();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    assert_unknown_option(&out, "--wall");
    assert!(!dir.exists(), "no WAL directory is created");
}

#[test]
fn an_option_before_the_file_is_read_as_an_option() {
    let p = Program::new("before", TC);
    let plain = p.run(&[]);
    assert_eq!(plain.status.code(), Some(0), "{plain:?}");
    // The value `100` is the limit's, and the file is still the program.
    let out = xdl(&["run", "--max-iterations", "100", "--no-cut", p.path()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(out.stdout, plain.stdout);
    // `--budget 1` before the file applies: the run trips, it does not try
    // to read a file named `1`.
    let out = xdl(&["run", "--budget", "1", p.path()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("exceeded its budget of 1"), "{stderr}");
    assert!(!stderr.contains("cannot read"), "{stderr}");
    // An option with no value left is an error, not a silent default.
    let out = xdl(&["run", p.path(), "--budget"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget takes a value"));
}

#[test]
fn check_reads_an_option_between_its_two_files() {
    let a = Program::new("check-a", TC);
    let b = Program::new("check-b", TC);
    let out = xdl(&["check", a.path(), "--instances", "3", b.path()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        stdout.contains("no difference found on 3 random instances"),
        "{stdout}"
    );
    let out = xdl(&["check", "--instances", "3", a.path(), b.path()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
