//! Values at the edges of a cell's inline int range, and a symbol whose
//! text reads like an int, survive every path a value takes: parsed and
//! printed by `xdl run`, and through a served `FACT`, the WAL, a compaction
//! snapshot and a SIGKILL restart before a `QUERY`. Either way the answers
//! come out in one order: ints by value, then symbols.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

/// Both sides of both edges of the inline range [−2^61, 2^61), both ends
/// of `i64`, and zero's neighbourhood, in no particular order.
const INTS: [i64; 8] = [
    i64::MAX,
    0,
    -(1 << 61) - 1,
    1 << 61,
    -1,
    (1 << 61) - 1,
    i64::MIN,
    -(1 << 61),
];

/// The facts, one a line: the ints, then the symbol `"42"`.
fn facts() -> Vec<String> {
    INTS.iter()
        .map(|i| format!("v({i})."))
        .chain(["v(\"42\").".to_owned()])
        .collect()
}

/// What `?- v(X).` prints: the ints ascending, then the symbol.
fn expected() -> String {
    let mut ints = INTS;
    ints.sort();
    let mut out = String::from("X\n");
    for i in ints {
        out.push_str(&format!("{i}\n"));
    }
    out.push_str("42\n");
    out
}

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("xdl-values-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn xdl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xdl"))
        .args(args)
        .output()
        .expect("spawn xdl")
}

fn stdout(out: Output) -> String {
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn boundary_values_parse_and_print_in_the_old_order() {
    let dir = Scratch::new("run");
    let file = dir.0.join("v.dl");
    std::fs::write(&file, facts().join("\n") + "\n?- v(X).\n").unwrap();
    let file = file.to_str().unwrap();
    assert_eq!(stdout(xdl(&["run", file])), expected());
    assert_eq!(stdout(xdl(&["run", "--no-optimize", file])), expected());
}

/// A server process, SIGKILLed on drop.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A WAL-backed server with a snapshot every four records, and what it
/// printed before its address: `(server, address, earlier lines)`.
fn serve(wal: &Path) -> (Server, String, Vec<String>) {
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_xdl"))
            .args(["serve", "--port", "0", "--compact-every", "4", "--wal"])
            .arg(wal)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn xdl serve"),
    );
    let mut out = BufReader::new(server.0.stdout.take().unwrap());
    let mut before = Vec::new();
    let mut line = String::new();
    while out.read_line(&mut line).expect("server stdout") > 0 {
        if let Some(addr) = line.trim_end().strip_prefix("listening on ") {
            let addr = addr.to_owned();
            // Keep reading, so that the server never blocks on a full pipe.
            std::thread::spawn(move || std::io::copy(&mut out, &mut std::io::sink()));
            return (server, addr, before);
        }
        before.push(std::mem::take(&mut line));
    }
    panic!("the server exited without an address: {before:?}");
}

#[test]
fn boundary_values_survive_the_wal_a_snapshot_and_a_sigkill() {
    let dir = Scratch::new("serve");
    let wal = dir.0.join("wal");
    let (server, addr, _) = serve(&wal);
    let mut args = vec!["query", "--connect", &addr];
    let facts = facts();
    for fact in &facts {
        args.extend(["--fact", fact]);
    }
    stdout(xdl(&args));
    assert_eq!(
        stdout(xdl(&["query", "--connect", &addr, "?- v(X)."])),
        expected()
    );
    // Nine records with a snapshot every four: both files hold some.
    assert!(wal.join("snapshot.log").exists());
    // SIGKILL: no shutdown, no flush.
    drop(server);

    let (_server, addr, before) = serve(&wal);
    let recovered = before
        .iter()
        .find(|line| line.starts_with("recovered "))
        .expect("a recovered line");
    assert!(recovered.contains("\"skipped\":0"), "{recovered}");
    assert!(!recovered.contains("\"from_snapshot\":0"), "{recovered}");
    assert!(!recovered.contains("\"from_log\":0"), "{recovered}");
    assert_eq!(
        stdout(xdl(&["query", "--connect", &addr, "?- v(X)."])),
        expected()
    );
    stdout(xdl(&["query", "--connect", &addr, "--shutdown"]));
}
