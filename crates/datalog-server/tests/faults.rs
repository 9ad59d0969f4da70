//! Fault-injection suite: the server under deliberate misbehavior.
//!
//! Each test drives one fault from the harness against a real server on
//! an ephemeral port and asserts the two robustness invariants: the
//! failing request gets a *structured* answer (a coded `ERR`, never a
//! hang or a torn response), and the server keeps serving afterwards.
//! Faults covered: injected fsync failure, a torn WAL tail, a handler
//! panic mid-query, a deadline storm, a byte-at-a-time slow client,
//! budget exhaustion, connection/admission shedding, and a draining
//! shutdown racing an in-flight query. All of it runs under plain
//! `cargo test` — no root, no containers, no signals.

mod util;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datalog_ast::parse_program;
use datalog_engine::{query_answers_full, EvalOptions};
use datalog_opt::{optimize, OptimizerConfig};
use datalog_server::{
    render_answers, Client, ErrCode, FaultPlan, Request, Response, Server, ServerConfig,
    ServerState,
};
use util::TempDir;

/// What `xdl run <src>` prints on stdout (same pipeline as the binary).
fn xdl_run_reference(src: &str) -> String {
    let parsed = parse_program(src).unwrap();
    parsed.program.validate().unwrap();
    let out = optimize(&parsed.program, &OptimizerConfig::default()).unwrap();
    let opts = EvalOptions {
        boolean_cut: true,
        ..EvalOptions::default()
    };
    let (answers, _) = query_answers_full(&out.program, parsed.facts, &opts).unwrap();
    render_answers(&answers)
}

const TC_RULES: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n";
const TC_FACTS: &str = "p(1, 2).\np(2, 3).\np(3, 4).\n";

/// A dense graph plus a cross-product rule: enough work to outlive any
/// small deadline and to blow small budgets, in debug and release alike.
fn pathological(n: usize) -> String {
    let mut text = String::from(
        "a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).\n\
         big(X, Y, Z, W) :- a(X, Y), a(Z, W).\n",
    );
    for i in 0..n {
        for j in 0..n {
            text.push_str(&format!("p({i}, {j}).\n"));
        }
    }
    text
}

#[test]
fn fsync_failure_refuses_the_write_and_recovers_when_disarmed() {
    let dir = TempDir::new("fsync");
    let fault = Arc::new(FaultPlan::new());
    let server = Server::spawn(&ServerConfig {
        wal_dir: Some(dir.path().join("wal")),
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.fact("p(1, 2).").unwrap().ok);

    fault.fail_fsync(true);
    let resp = c.fact("p(2, 3).").unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.code, Some(ErrCode::Internal), "{}", resp.error);
    assert!(resp.error.contains("wal"), "{}", resp.error);

    // The refused fact was not applied: only the durable one answers.
    let resp = c.query("?- p(X, _).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.payload, vec!["X", "1"]);

    // Disarmed, the same write goes through on the same connection.
    fault.fail_fsync(false);
    assert!(c.fact("p(2, 3).").unwrap().ok);
    let resp = c.query("?- p(X, _).").unwrap();
    assert_eq!(resp.payload, vec!["X", "1", "2"]);
    assert!(fault.fired() >= 1);

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn torn_wal_tail_recovers_byte_identical_acknowledged_state() {
    let dir = TempDir::new("torn");
    let wal_dir = dir.path().join("wal");
    let rules = dir.file("tc.dl", TC_RULES);

    // Phase 1: ingest, remember the answer, stop without compaction.
    let reference = {
        let server = Server::spawn(&ServerConfig {
            wal_dir: Some(wal_dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.load(rules.to_str().unwrap()).unwrap().ok);
        for f in ["p(1, 2).", "p(2, 3).", "p(3, 4)."] {
            assert!(c.fact(f).unwrap().ok);
        }
        let resp = c.query("?- a(1, X).").unwrap();
        assert!(resp.ok, "{}", resp.error);
        c.shutdown().unwrap();
        server.join();
        resp.payload_text()
    };

    // Crash simulation: a half-written record at the tail of the log.
    let log = wal_dir.join("wal.log");
    let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
    f.write_all(&64u32.to_le_bytes()).unwrap();
    f.write_all(b"\xde\xad\xbe\xefF p(9,").unwrap();
    drop(f);

    // Phase 2: restart truncates the torn tail and serves the exact same
    // answer bytes.
    let server = Server::spawn(&ServerConfig {
        wal_dir: Some(wal_dir),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let resp = c.query("?- a(1, X).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.payload_text(), reference, "recovered answers differ");
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"truncated_bytes\":"), "{stats}");
    assert!(!stats.contains("\"truncated_bytes\":0,"), "{stats}");

    // And the recovered server still accepts writes.
    assert!(c.fact("p(4, 5).").unwrap().ok);
    c.shutdown().unwrap();
    server.join();
}

#[test]
fn mid_query_panic_answers_internal_and_service_continues() {
    let dir = TempDir::new("panic");
    let fault = Arc::new(FaultPlan::new());
    let server = Server::spawn(&ServerConfig {
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    fault.panic_on_query("a");
    let resp = c.query("?- a(X, _).").unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.code, Some(ErrCode::Internal), "{}", resp.error);

    // Same connection, same query: the one-shot fault fired, state is
    // intact, the answer is correct.
    let resp = c.query("?- a(X, _).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.payload, vec!["X", "1", "2", "3"]);

    // A different connection is equally unaffected.
    let mut c2 = Client::connect(server.addr()).unwrap();
    assert!(c2.query("?- a(2, _).").unwrap().ok);

    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"panics_recovered\":1"), "{stats}");
    assert!(stats.contains("\"kind\":\"panic\""), "{stats}");

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn deadline_storm_sheds_each_query_while_cheap_queries_complete() {
    let dir = TempDir::new("storm");
    let server = Server::spawn(&ServerConfig {
        deadline_ms: Some(40),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    let file = dir.file("heavy.dl", &pathological(40));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    // Three stormers hammer the expensive query; every attempt must come
    // back as a structured deadline error (with partial stats), never a
    // hang, and never a wrong table.
    let stormers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..3 {
                    let resp = c.query("?- big(1, X, Y, Z).").unwrap();
                    assert!(!resp.ok);
                    assert_eq!(resp.code, Some(ErrCode::Deadline), "{}", resp.error);
                    assert!(resp.error.contains("partial:"), "{}", resp.error);
                }
            })
        })
        .collect();

    // Meanwhile a cheap query on its own connection completes normally.
    for _ in 0..5 {
        let resp = c.query("?- p(1, X).").unwrap();
        assert!(resp.ok, "cheap query starved: {}", resp.error);
    }
    for s in stormers {
        s.join().unwrap();
    }

    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"deadline_trips\":9"), "{stats}");
    c.shutdown().unwrap();
    server.join();
}

#[test]
fn slow_client_dribbling_bytes_gets_a_full_answer() {
    let dir = TempDir::new("slow");
    let server = Server::spawn(&ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    // One byte at a time, with pauses that trip the server's 200ms read
    // timeout several times mid-line: the request must still parse whole.
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    for (i, b) in b"QUERY ?- a(1, X).\n".iter().enumerate() {
        writer.write_all(std::slice::from_ref(b)).unwrap();
        writer.flush().unwrap();
        if i % 4 == 0 {
            std::thread::sleep(Duration::from_millis(250));
        }
    }
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    assert!(header.starts_with("OK 4 "), "{header}");

    // The dribbler did not wedge another connection.
    assert!(c.query("?- a(X, _).").unwrap().ok);
    c.shutdown().unwrap();
    server.join();
}

#[test]
fn over_long_request_line_gets_one_err_and_the_connection_closes() {
    let server = Server::spawn(&ServerConfig::default()).unwrap();
    // One byte past the limit and no newline in sight: the server must
    // stop buffering, say why, and hang up. (Exactly the bytes it will
    // read, so the close is a clean FIN and the `ERR` is not lost to a
    // reset.)
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(&vec![b'a'; datalog_server::protocol::MAX_REQUEST_LINE + 1])
        .unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("ERR request line exceeds "), "{reply}");
    assert_eq!(reply.lines().count(), 1, "one ERR, then EOF: {reply}");

    // A line of exactly the limit is still a request (here: an unknown
    // command), and the server serves on.
    let mut line = vec![b'a'; datalog_server::protocol::MAX_REQUEST_LINE];
    *line.last_mut().unwrap() = b'\n';
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(&line).unwrap();
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    assert!(header.starts_with("ERR unknown command"), "{header:.80}");
    drop((writer, reader));

    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.fact("p(1, 2).").unwrap().ok);
    c.shutdown().unwrap();
    server.join();
}

/// Connect and send `STATS` until the server admits the connection (an
/// `OK` header, not `ERR busy`), for at most `within`.
fn admitted(addr: SocketAddr, within: Duration) -> TcpStream {
    let deadline = Instant::now() + within;
    loop {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(within)).unwrap();
        // A shed connection may already be closed: the answer tells.
        let _ = (&stream).write_all(b"STATS\n");
        let mut header = String::new();
        let _ = BufReader::new(&stream).read_line(&mut header);
        if header.starts_with("OK ") {
            return stream;
        }
        assert!(
            header.is_empty() || header.starts_with("ERR busy"),
            "{header}"
        );
        assert!(Instant::now() < deadline, "not admitted within {within:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn client_that_stops_reading_frees_its_worker() {
    let dir = TempDir::new("noread");
    let server = Server::spawn(&ServerConfig {
        max_conns: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    // ~3 MB per answer: 150 long symbols, all pairs.
    let mut src = String::from("pair(X, Y) :- w(X), w(Y).\n");
    for i in 0..150 {
        src.push_str(&format!("w(s{i:03}_{}).\n", "x".repeat(56)));
    }
    let file = dir.file("pairs.dl", &src);
    {
        // The one slot serves one connection at a time: set up, then hang
        // up so the next client is admitted.
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.load(file.to_str().unwrap()).unwrap().ok);
        let warm = c.query("?- pair(X, Y).").unwrap();
        assert_eq!(warm.payload.len(), 1 + 150 * 150);
    }

    // A hundred pipelined queries (~300 MB of answers, far past what loopback
    // socket buffers hold) from a client that never reads another byte: once
    // the buffers fill, its thread's write makes no progress.
    let mut hog = admitted(server.addr(), Duration::from_secs(5));
    hog.write_all("QUERY ?- pair(X, Y).\n".repeat(100).as_bytes())
        .unwrap();

    // A second client is shed while the hog holds the only slot. It must be
    // admitted once the write timeout closes the hog's connection.
    let second = admitted(server.addr(), Duration::from_secs(20));
    drop((hog, second));

    server.shutdown();
    server.join();
}

/// Eight idle clients hold eight threads, not the server: the ninth is
/// answered at once.
#[test]
fn idle_connections_do_not_starve_the_next_client() {
    let server = Server::spawn(&ServerConfig::default()).unwrap();
    let idle: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    let next = TcpStream::connect(server.addr()).unwrap();
    next.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    (&next).write_all(b"STATS\n").unwrap();
    let mut header = String::new();
    BufReader::new(&next)
        .read_line(&mut header)
        .expect("idle connections starved the next client");
    assert!(header.starts_with("OK "), "{header}");
    drop((idle, next));

    server.shutdown();
    server.join();
}

/// Idle clients that fill the connection cap do not stop the cap from
/// being enforced: the next client is shed at once.
#[test]
fn a_full_cap_of_idle_connections_sheds_the_next_with_busy() {
    let server = Server::spawn(&ServerConfig {
        max_conns: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let idle: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    let shed = TcpStream::connect(server.addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut line = String::new();
    BufReader::new(&shed)
        .read_line(&mut line)
        .expect("a full cap of idle connections left no one to shed");
    assert!(line.starts_with("ERR busy"), "{line}");
    drop((idle, shed));

    server.shutdown();
    server.join();
}

#[test]
fn arity_refused_fact_and_load_leave_wal_and_database_untouched() {
    let dir = TempDir::new("arity");
    let wal_dir = dir.path().join("wal");
    let cfg = ServerConfig {
        wal_dir: Some(wal_dir.clone()),
        ..ServerConfig::default()
    };
    let facts_of = |stats: &str| -> String {
        let at = stats.find("\"facts\":").expect("STATS has a facts count");
        stats[at..].split(',').next().unwrap().to_string()
    };
    {
        let server = Server::spawn(&cfg).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let rules = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
        assert!(c.load(rules.to_str().unwrap()).unwrap().ok);
        assert_eq!(c.query("?- a(1, X).").unwrap().get("cache"), Some("miss"));
        let log_len = std::fs::metadata(wal_dir.join("wal.log")).unwrap().len();
        let facts = facts_of(&c.stats().unwrap().payload_text());

        // `p` is stored at arity 2. The refused FACT...
        let resp = c.fact("p(7).").unwrap();
        assert!(!resp.ok);
        assert!(resp.error.contains("arity"), "{}", resp.error);
        // ...and a LOAD whose clash sorts *after* facts it could apply
        // (`n` < `p`) — and after one that extends a memoized form.
        let bad = dir.file("bad.dl", "n(1).\np(8, 9).\np(1, 2, 3).\n");
        let resp = c.load(bad.to_str().unwrap()).unwrap();
        assert!(!resp.ok);
        assert!(resp.error.contains("arity"), "{}", resp.error);
        // A file that disagrees with itself about a new predicate, too.
        let bad = dir.file("self.dl", "m(1).\nm(1, 2).\n");
        assert!(!c.load(bad.to_str().unwrap()).unwrap().ok);

        // Nothing was logged, nothing applied, no memo staled.
        assert_eq!(
            std::fs::metadata(wal_dir.join("wal.log")).unwrap().len(),
            log_len
        );
        let stats = c.stats().unwrap().payload_text();
        assert_eq!(facts_of(&stats), facts, "{stats}");
        assert_eq!(
            c.query("?- a(1, X).").unwrap().get("cache"),
            Some("answers")
        );
        c.shutdown().unwrap();
        server.join();
    }
    let server = Server::spawn(&cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"skipped\":0"), "{stats}");
    c.shutdown().unwrap();
    server.join();
}

/// `LOAD` reads only regular files: a device that never ends is refused
/// before a byte is read, and nothing is logged or applied.
#[test]
fn load_of_a_non_regular_file_is_refused_before_reading() {
    let dir = TempDir::new("devzero");
    let wal_dir = dir.path().join("wal");
    let server = Server::spawn(&ServerConfig {
        wal_dir: Some(wal_dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let rules = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(rules.to_str().unwrap()).unwrap().ok);
    let log_len = || std::fs::metadata(wal_dir.join("wal.log")).unwrap().len();
    let before = (log_len(), stat(&c.stats().unwrap().payload_text(), "facts"));

    let started = Instant::now();
    let resp = c.load("/dev/zero").unwrap();
    assert!(!resp.ok);
    assert!(
        resp.error.contains("/dev/zero") && resp.error.contains("not a regular file"),
        "{}",
        resp.error
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "{:?}",
        started.elapsed()
    );
    let after = (log_len(), stat(&c.stats().unwrap().payload_text(), "facts"));
    assert_eq!(after, before);

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn budget_trip_is_coded_counted_and_never_memoized() {
    let dir = TempDir::new("budget");
    let server = Server::spawn(&ServerConfig {
        fact_budget: Some(3),
        // Bound-aware admission would predict the blow-up and refuse with
        // `ERR bound` before evaluation ever starts (covered in
        // tests/bounds.rs); this test exercises the engine-side backstop,
        // so the pre-flight check is switched off.
        bound_admission: false,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    // The full closure derives 6 facts; budget 3 trips. (The existential
    // form `a(X, _)` would not: arity reduction shrinks it to 3 facts —
    // the paper's optimization visibly changes what the budget measures.)
    // Twice: if the first trip were memoized, the second would come back
    // OK with a truncated table — the one unacceptable outcome.
    for _ in 0..2 {
        let resp = c.query("?- a(X, Y).").unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.code, Some(ErrCode::Budget), "{}", resp.error);
        assert!(resp.error.contains("facts_derived="), "{}", resp.error);
    }
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"budget_trips\":2"), "{stats}");
    assert!(stats.contains("\"answer_hits\":0"), "{stats}");

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn connection_limit_sheds_with_busy_and_admitted_clients_are_unaffected() {
    let dir = TempDir::new("shed");
    let server = Server::spawn(&ServerConfig {
        max_conns: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut admitted = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(admitted.load(file.to_str().unwrap()).unwrap().ok);

    // The admitted connection holds the single slot; the next connection
    // is refused with one coded line instead of waiting in the backlog.
    let shed = TcpStream::connect(server.addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut line = String::new();
    BufReader::new(shed).read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR busy"), "{line}");

    // The admitted client never noticed.
    assert!(admitted.query("?- a(X, _).").unwrap().ok);
    let stats = admitted.stats().unwrap().payload_text();
    assert!(stats.contains("\"shed_connections\":1"), "{stats}");
    assert!(stats.contains("\"max_conns\":1"), "{stats}");

    admitted.shutdown().unwrap();
    server.join();
}

#[test]
fn shutdown_drains_in_flight_query_to_completion_or_clean_error() {
    let dir = TempDir::new("drain");
    let server = Server::spawn(&ServerConfig {
        grace_ms: 150,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    let file = dir.file("heavy.dl", &pathological(45));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    // A long query starts, then SHUTDOWN arrives from another client. The
    // in-flight query must end in one of exactly two ways: a complete OK
    // response, or a clean coded shutdown error — never a dropped
    // connection mid-payload.
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let started = Instant::now();
        let resp = c.query("?- big(1, X, Y, Z).").unwrap();
        (resp, started.elapsed())
    });
    std::thread::sleep(Duration::from_millis(50));
    assert!(c.shutdown().unwrap().ok);
    server.join();

    let (resp, elapsed) = worker.join().unwrap();
    if resp.ok {
        assert!(!resp.payload.is_empty(), "complete response has rows");
    } else {
        assert_eq!(resp.code, Some(ErrCode::Shutdown), "{}", resp.error);
        assert!(resp.error.contains("partial:"), "{}", resp.error);
    }
    // Bounded drain: well under eval-to-completion time for this input.
    assert!(elapsed < Duration::from_secs(30), "drain took {elapsed:?}");
}

#[test]
fn crash_without_shutdown_loses_nothing_fsync_always() {
    // Process-internal stand-in for the SIGKILL smoke in check.sh: the
    // first server is dropped without SHUTDOWN (workers and WAL file just
    // cease), then a second server recovers from the same directory.
    let dir = TempDir::new("crash");
    let wal_dir = dir.path().join("wal");
    let rules = dir.file("tc.dl", TC_RULES);

    let reference = {
        let server = Server::spawn(&ServerConfig {
            wal_dir: Some(wal_dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.load(rules.to_str().unwrap()).unwrap().ok);
        for f in ["p(1, 2).", "p(2, 3).", "p(3, 4).", "p(4, 5)."] {
            assert!(c.fact(f).unwrap().ok);
        }
        let resp = c.query("?- a(1, X).").unwrap();
        assert!(resp.ok, "{}", resp.error);
        // No SHUTDOWN: the Server is leaked (threads park in accept) and
        // the WAL's durability must carry the state alone.
        std::mem::forget(server);
        resp.payload_text()
    };

    let server = Server::spawn(&ServerConfig {
        wal_dir: Some(wal_dir),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let resp = c.query("?- a(1, X).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.payload_text(), reference);
    c.shutdown().unwrap();
    server.join();
}

/// A logged fact or rule is its rendering, so a quoted constant must come
/// back as the same constant: `"Alice"` not as a variable, `"a b"` not as
/// a parse error, `"42"` not as an integer.
#[test]
fn quoted_constants_survive_a_crash_restart() {
    let dir = TempDir::new("quoted");
    let wal_dir = dir.path().join("wal");
    let rules = "named(X) :- p(X), q(X, \"A\").\n";
    let facts = [
        "p(\"Alice\").",
        "p(\"a b\").",
        "p(\"café\").",
        "p(\"42\").",
        "p(bob).",
        "q(\"Alice\", \"A\").",
        "q(\"a b\", \"A\").",
        "q(bob, a).",
    ];
    let queries = ["?- p(X).", "?- named(X).", "?- q(X, Y)."];
    let cfg = ServerConfig {
        wal_dir: Some(wal_dir),
        ..ServerConfig::default()
    };
    let before: Vec<String> = {
        let server = Server::spawn(&cfg).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(
            c.load(dir.file("named.dl", rules).to_str().unwrap())
                .unwrap()
                .ok
        );
        for f in facts {
            let resp = c.fact(f).unwrap();
            assert!(resp.ok, "{f}: {}", resp.error);
        }
        let answers = queries.map(|q| c.query(q).unwrap().payload_text());
        // No SHUTDOWN: the log alone must carry the state.
        std::mem::forget(server);
        answers.into()
    };
    let src = |q: &str| format!("{rules}{}\n{q}\n", facts.join("\n"));
    for (q, served) in queries.iter().zip(&before) {
        assert_eq!(*served, xdl_run_reference(&src(q)), "{q}");
    }
    assert_eq!(before[1].lines().count(), 3, "{}", before[1]);

    let server = Server::spawn(&cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"skipped\":0"), "{stats}");
    for (q, served) in queries.iter().zip(&before) {
        assert_eq!(&c.query(q).unwrap().payload_text(), served, "{q}");
    }
    c.shutdown().unwrap();
    server.join();
}

#[test]
fn compaction_under_load_preserves_every_acknowledged_fact() {
    let dir = TempDir::new("compact");
    let wal_dir = dir.path().join("wal");
    let rules = dir.file("tc.dl", TC_RULES);
    {
        let server = Server::spawn(&ServerConfig {
            wal_dir: Some(wal_dir.clone()),
            compact_every: 8,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.load(rules.to_str().unwrap()).unwrap().ok);
        for i in 0..30 {
            assert!(c.fact(&format!("p({i}, {}).", i + 1)).unwrap().ok);
        }
        let stats = c.stats().unwrap().payload_text();
        assert!(
            !stats.contains("\"snapshots\":0"),
            "no compaction ran: {stats}"
        );
        c.shutdown().unwrap();
        server.join();
    }
    let server = Server::spawn(&ServerConfig {
        wal_dir: Some(wal_dir),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let resp = c.query("?- p(X, _).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    // Header + the 30 distinct sources.
    assert_eq!(resp.payload.len(), 31, "{:?}", resp.payload);
    c.shutdown().unwrap();
    server.join();
}

/// Ingest-burst storm: a `FACT` flood and a `LOAD` flood run against
/// query clients pinned to each protocol v4 mode word. Every answer is
/// fresh whatever the word: the reference rendering of a prefix of the
/// chain writer's order that holds every fact acknowledged before the
/// query was sent, with `staleness_us=0`. Answers never shrink per
/// connection, and after the storm the resident state is intact: no
/// poisonings, and every mode reads the full-chain reference.
#[test]
fn ingest_burst_storm_honors_every_consistency_mode() {
    const CHAIN: i64 = 14;
    const MODES: [&str; 4] = ["", "fresh ", "staleness=50 ", "any "];
    let dir = TempDir::new("burst");
    let server = Server::spawn(&ServerConfig::default()).unwrap();
    let addr = server.addr();

    let mut setup = Client::connect(addr).unwrap();
    let rules = dir.file("rules.dl", TC_RULES);
    assert!(setup.load(rules.to_str().unwrap()).unwrap().ok);
    assert!(setup.fact("p(0, 1).").unwrap().ok);
    // Warm the form so a resident frontier exists before the burst.
    assert!(setup.query("?- a(0, X).").unwrap().ok);

    // Each valid payload and the prefix of the chain writer's order it
    // renders. The LOAD flood writes a disjoint value range (1000+), which
    // never reaches a(0, _), so it cannot perturb this map.
    let prefix_of: BTreeMap<String, i64> = (1..=CHAIN)
        .map(|k| {
            let facts: String = (0..k).map(|i| format!("p({i}, {}).\n", i + 1)).collect();
            (
                xdl_run_reference(&format!("{TC_RULES}{facts}?- a(0, X).")),
                k,
            )
        })
        .collect();

    // Chain facts acknowledged so far: p(0, 1) .. p(acked - 1, acked).
    let acked = Arc::new(AtomicI64::new(1));
    let chain_writer = {
        let acked = Arc::clone(&acked);
        std::thread::spawn(move || {
            let mut w = Client::connect(addr).unwrap();
            for i in 1..CHAIN {
                let resp = w.fact(&format!("p({i}, {}).", i + 1)).unwrap();
                assert!(resp.ok, "{}", resp.error);
                acked.store(i + 1, Ordering::SeqCst);
            }
        })
    };
    let load_files: Vec<_> = (0..8)
        .map(|j| {
            let base = 1000 + 10 * j;
            dir.file(
                &format!("burst{j}.dl"),
                &format!("p({base}, {}).\np({}, {}).\n", base + 1, base + 1, base + 2),
            )
        })
        .collect();
    let load_writer = std::thread::spawn(move || {
        let mut w = Client::connect(addr).unwrap();
        for f in &load_files {
            let resp = w.load(f.to_str().unwrap()).unwrap();
            assert!(resp.ok, "{}", resp.error);
        }
    });

    let readers: Vec<_> = MODES
        .into_iter()
        .map(|mode| {
            let prefix_of = prefix_of.clone();
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut last = 0;
                for _ in 0..25 {
                    let before = acked.load(Ordering::SeqCst);
                    let resp = c.request(&format!("QUERY {mode}?- a(0, X).")).unwrap();
                    assert!(resp.ok, "{mode}: {}", resp.error);
                    assert_eq!(resp.get("staleness_us"), Some("0"), "{mode}");
                    let k = *prefix_of.get(&resp.payload_text()).unwrap_or_else(|| {
                        panic!(
                            "{mode}read is not a prefix rendering:\n{}",
                            resp.payload_text()
                        )
                    });
                    assert!(
                        k >= before,
                        "{mode}read misses acknowledged facts: {k} < {before}"
                    );
                    // Answers only grow on one connection.
                    assert!(k >= last, "answers shrank under {mode}");
                    last = k;
                    resp.get("frontier").unwrap().parse::<u64>().unwrap();
                }
            })
        })
        .collect();

    chain_writer.join().unwrap();
    load_writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    // Quiescent: every mode reads the full chain.
    for mode in MODES {
        let resp = setup.request(&format!("QUERY {mode}?- a(0, X).")).unwrap();
        assert_eq!(prefix_of.get(&resp.payload_text()), Some(&CHAIN), "{mode}");
    }

    // No poison leak: the storm never killed the resident state.
    let stats = setup.stats().unwrap().payload_text();
    assert!(stats.contains("\"resident_poisonings\":0"), "{stats}");
    assert!(!stats.contains("\"resident_forms\":0"), "{stats}");

    setup.shutdown().unwrap();
    server.join();
}

/// Self-healing: a drain that fails repeatedly poisons the resident
/// form, and the maintenance thread rebuilds it with capped exponential
/// backoff — no restart, no query in the loop — until the fault clears.
#[test]
fn repeatedly_poisoned_resident_heals_via_backoff_rebuilds() {
    let dir = TempDir::new("heal");
    let fault = Arc::new(FaultPlan::new());
    let server = Server::spawn(&ServerConfig {
        rebuild_ms: 5,
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);
    assert!(c.query("?- a(1, X).").unwrap().ok);

    // Three failures in a row: the inline drain poisons the form, then
    // the first two background rebuild attempts fail too. Attempt three
    // (after 5ms << 1 and << 2 backoffs) succeeds.
    fault.fail_drains(3);
    assert!(c.fact("p(4, 5).").unwrap().ok);

    // Poll STATS only — no query touches the form, so the heal is driven
    // entirely by the background rebuild loop.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats().unwrap().payload_text();
        if stats.contains("\"resident_rebuilds\":1") && !stats.contains("\"resident_forms\":0") {
            assert!(stats.contains("\"resident_poisonings\":3"), "{stats}");
            break;
        }
        assert!(Instant::now() < deadline, "resident never healed: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The healed frontier is caught up: a fresh query serves off it and
    // sees the fact whose drain originally failed.
    let resp = c.query("?- a(1, X).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.payload, vec!["X", "2", "3", "4", "5"]);
    let resp = c.query("?- a(4, _).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.payload, vec!["true"]);

    c.shutdown().unwrap();
    server.join();
}

/// One unsigned field of a `STATS` document.
fn stat(stats: &str, key: &str) -> u64 {
    let at = stats
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("STATS has no {key}: {stats}"));
    let digits = &stats[at + key.len() + 3..];
    digits[..digits.find(|c: char| !c.is_ascii_digit()).unwrap()]
        .parse()
        .unwrap()
}

/// Poll `STATS` until `key` reaches `want` (the maintenance thread moves
/// it), failing after five seconds.
fn await_stat(stats: &mut dyn FnMut() -> String, key: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while stat(&stats(), key) != want {
        assert!(Instant::now() < deadline, "{key} never reached {want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One form through every residency state and back: after each step the
/// `cache=` tag and the `STATS` values that count residency transitions.
/// In-process, with the maintenance thread started by the test, so each
/// state is reached deterministically.
#[test]
fn residency_walks_every_state_with_its_tag_and_counters() {
    let dir = TempDir::new("walk");
    let fault = Arc::new(FaultPlan::new());
    let state = Arc::new(
        ServerState::from_config(&ServerConfig {
            resident_forms: 1,
            rebuild_ms: 2000,
            fault: Arc::clone(&fault),
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let maintenance = state.start_maintenance().expect("residency is enabled");
    let file = dir.file(
        "two.dl",
        &format!("{TC_RULES}b(X, Y) :- q(X, Y).\np(1, 2).\nq(7, 8).\n"),
    );
    assert!(state.handle(&Request::Load(file.display().to_string())).ok);
    let mut stats = || state.handle(&Request::Stats).payload_text();
    let counters = |stats: &str| {
        [
            "resident_forms",
            "resident_poisonings",
            "resident_rebuilds",
            "fallback_recomputes",
        ]
        .map(|key| stat(stats, key))
    };
    // Every answer is fresh.
    let ask = |text: &str| -> Response {
        let resp = state.handle(&Request::query(text));
        assert!(resp.ok, "{text}: {}", resp.error);
        assert_eq!(resp.get("staleness_us"), Some("0"), "{text}");
        resp
    };

    // Cold: nothing pinned, nothing counted.
    assert_eq!(counters(&stats()), [0, 0, 0, 0]);

    // Cold → Live: the cold miss pins what it built.
    assert_eq!(ask("?- a(1, X).").get("cache"), Some("miss"));
    assert_eq!(counters(&stats()), [1, 0, 0, 0]);

    // Live → Live: the ingest drains the form before it is acknowledged.
    assert!(state.handle(&Request::Fact("p(2, 3).".into())).ok);
    let resp = ask("?- a(1, X).");
    assert_eq!(resp.get("cache"), Some("resident"));
    assert_eq!(resp.payload, vec!["X", "2", "3"]);
    assert_eq!(counters(&stats()), [1, 0, 0, 0]);

    // Live → poisoned → Lost: the ingest's drain fails, and so does the
    // first background rebuild; the second is four seconds of backoff away.
    fault.fail_drains(2);
    assert!(state.handle(&Request::Fact("p(3, 4).".into())).ok);
    await_stat(&mut stats, "resident_poisonings", 2);
    assert_eq!(counters(&stats()), [0, 2, 0, 0]);

    // Lost → rebuilt: a query does not wait for the backoff. It recomputes
    // from cold and pins the result.
    let resp = ask("?- a(1, X).");
    assert_eq!(resp.get("cache"), Some("hit"));
    assert_eq!(resp.payload, vec!["X", "2", "3", "4"]);
    assert_eq!(counters(&stats()), [1, 2, 1, 1]);
    assert_eq!(ask("?- a(2, X).").get("cache"), Some("resident"));

    // Live → evicted: the single resident slot goes to another form.
    assert_eq!(ask("?- b(7, X).").get("cache"), Some("miss"));
    assert_eq!(counters(&stats()), [1, 2, 1, 1]);

    // Evicted → re-pinned, the same way a lost form comes back.
    assert_eq!(ask("?- a(3, X).").get("cache"), Some("hit"));
    assert_eq!(counters(&stats()), [1, 2, 2, 2]);
    let resp = ask("?- a(2, X).");
    assert_eq!(resp.get("cache"), Some("resident"));
    assert_eq!(resp.payload, vec!["X", "3", "4"]);

    assert!(state.handle(&Request::Shutdown).ok);
    maintenance.join().unwrap();
}

#[test]
fn shutdown_does_not_wait_out_a_rebuild_backoff() {
    let dir = TempDir::new("backoff-join");
    let fault = Arc::new(FaultPlan::new());
    let server = Server::spawn(&ServerConfig {
        rebuild_ms: 2000,
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}p(1, 2).\n"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);
    assert!(c.query("?- a(1, X).").unwrap().ok);
    // The ingest's drain poisons the form and the first rebuild fails:
    // the next attempt is four seconds away.
    fault.fail_drains(2);
    assert!(c.fact("p(2, 3).").unwrap().ok);
    await_stat(
        &mut || c.stats().unwrap().payload_text(),
        "resident_poisonings",
        2,
    );
    let started = Instant::now();
    c.shutdown().unwrap();
    server.join();
    // Well inside the 2 s grace period, let alone the 4 s backoff.
    assert!(
        started.elapsed() < Duration::from_millis(1500),
        "join took {:?}",
        started.elapsed()
    );
}

#[test]
fn shed_reader_never_blocks_forever() {
    // Defensive companion to the shed test: even a client that only reads
    // (never writes) gets the busy line promptly, because shedding happens
    // at accept time, not at request time.
    let server = Server::spawn(&ServerConfig {
        max_conns: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut hold = Client::connect(server.addr()).unwrap();
    assert!(hold.stats().unwrap().ok);

    let shed = TcpStream::connect(server.addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let mut r = BufReader::new(shed);
    r.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("ERR busy"), "{text}");

    hold.shutdown().unwrap();
    server.join();
}
