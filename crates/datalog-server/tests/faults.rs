//! Fault-injection suite: the server under deliberate misbehavior.
//!
//! Each test drives one fault from the harness against a real server on
//! an ephemeral port and asserts the two robustness invariants: the
//! failing request gets a *structured* answer (a coded `ERR`, never a
//! hang or a torn response), and the server keeps serving afterwards.
//! Faults covered: injected fsync failure (and that a refused write stays
//! refused across a restart), ingests racing for one predicate, a torn WAL
//! tail, a handler panic mid-query, a deadline storm, a byte-at-a-time slow
//! client, budget exhaustion, connection/admission shedding, poisoned
//! resident forms healed by queries, and a draining shutdown racing an
//! in-flight query. All of it runs under plain `cargo test` — no root, no
//! containers, no signals.

mod util;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use datalog_server::{
    Client, ErrCode, FaultPlan, Request, Response, Server, ServerConfig, ServerState,
};
use util::{no_optimize_reference, TempDir};

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
    assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "1"]);

    // Disarmed, the same write goes through on the same connection.
    fault.fail_fsync(false);
    assert!(c.fact("p(2, 3).").unwrap().ok);
    let resp = c.query("?- p(X, _).").unwrap();
    assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "1", "2"]);
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
    assert_eq!(
        resp.payload_lines().collect::<Vec<_>>(),
        ["X", "1", "2", "3"]
    );

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
        assert_eq!(warm.line_count(), 1 + 150 * 150);
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
        // (`n` < `p`) — and after one that extends a resident form.
        let bad = dir.file("bad.dl", "n(1).\np(8, 9).\np(1, 2, 3).\n");
        let resp = c.load(bad.to_str().unwrap()).unwrap();
        assert!(!resp.ok);
        assert!(resp.error.contains("arity"), "{}", resp.error);
        // A file that disagrees with itself about a new predicate, too.
        let bad = dir.file("self.dl", "m(1).\nm(1, 2).\n");
        assert!(!c.load(bad.to_str().unwrap()).unwrap().ok);

        // Nothing was logged, nothing applied, no kept read cleared.
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
    // Bound-aware admission would predict the blow-up and refuse with
    // `ERR bound` before evaluation ever starts (covered in
    // tests/bounds.rs); this test exercises the engine-side backstop, so
    // the pre-flight check is skipped.
    let fault = Arc::new(FaultPlan::new());
    fault.skip_bound_admission(true);
    let server = Server::spawn(&ServerConfig {
        fact_budget: Some(3),
        fault,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    // The full closure derives 6 facts; budget 3 trips. (The existential
    // form `a(X, _)` would not: arity reduction shrinks it to 3 facts —
    // the paper's optimization visibly changes what the budget measures.)
    // Twice: if the first trip were kept, the second would come back OK
    // with a truncated table — the one unacceptable outcome.
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
        assert!(resp.line_count() > 0, "complete response has rows");
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
        assert_eq!(*served, no_optimize_reference(&src(q)), "{q}");
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
    assert_eq!(resp.line_count(), 31, "{}", resp.body());
    c.shutdown().unwrap();
    server.join();
}

/// Every file in `dir` with its bytes.
fn contents(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// One flipped byte in a snapshot is damage the server refuses to start
/// on, naming the file and touching nothing. Serving without the damaged
/// rows would answer `?- q(X).` with no rows, and the next compaction
/// would make that loss permanent.
#[test]
fn a_damaged_snapshot_never_serves_a_partial_table() {
    let dir = TempDir::new("damaged-snapshot");
    let wal_dir = dir.path().join("wal");
    let cfg = ServerConfig {
        wal_dir: Some(wal_dir.clone()),
        compact_every: 4,
        ..ServerConfig::default()
    };
    {
        let state = ServerState::from_config(&cfg).unwrap();
        for f in ["p(1).", "p(2).", "q(1).", "q(2)."] {
            assert!(state.handle(&Request::Fact(f.into())).ok, "{f}");
        }
        let resp = state.handle(&Request::query("?- q(X)."));
        assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "1", "2"]);
    }
    let names: Vec<String> = contents(&wal_dir).into_keys().collect();
    assert_eq!(names, ["snapshot.log", "wal.log"]);
    // The last byte is q's last value.
    let snapshot = wal_dir.join("snapshot.log");
    let mut bytes = std::fs::read(&snapshot).unwrap();
    *bytes.last_mut().unwrap() ^= 0xFF;
    std::fs::write(&snapshot, &bytes).unwrap();
    let before = contents(&wal_dir);
    let err = ServerState::from_config(&cfg)
        .err()
        .expect("a damaged snapshot was served");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("snapshot.log"), "{err}");
    assert_eq!(
        contents(&wal_dir),
        before,
        "a refused start changed the directory"
    );
}

/// A compaction whose directory fsync fails leaves `wal.log` whole: the
/// fact that triggered it is acknowledged, the failure is counted, and a
/// restart reads the log on top of the snapshot renamed in before the
/// failure, losing and skipping nothing.
#[test]
fn a_compaction_whose_directory_fsync_fails_keeps_the_log() {
    let dir = TempDir::new("dir-fsync");
    let fault = Arc::new(FaultPlan::new());
    let cfg = ServerConfig {
        wal_dir: Some(dir.path().join("wal")),
        compact_every: 4,
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    };
    let log = dir.path().join("wal").join("wal.log");
    {
        let state = ServerState::from_config(&cfg).unwrap();
        for f in ["p(1).", "p(2).", "q(1)."] {
            assert!(state.handle(&Request::Fact(f.into())).ok, "{f}");
        }
        let logged = std::fs::metadata(&log).unwrap().len();
        // The append's fsync and the snapshot's pass; the directory's fails.
        fault.fail_fsync_after(2);
        let resp = state.handle(&Request::Fact("q(2).".into()));
        fault.fail_fsync(false);
        assert!(resp.ok, "{}", resp.error);
        let stats = state.handle(&Request::Stats).payload_text();
        assert_eq!(stat(&stats, "wal_errors"), 1, "{stats}");
        assert_eq!(stat(&stats, "snapshots"), 0, "{stats}");
        assert!(std::fs::metadata(&log).unwrap().len() > logged, "log cut");
    }
    let state = ServerState::from_config(&cfg).unwrap();
    let stats = state.handle(&Request::Stats).payload_text();
    assert_eq!(stat(&stats, "from_snapshot"), 2, "{stats}");
    assert_eq!(stat(&stats, "from_log"), 4, "{stats}");
    assert_eq!(stat(&stats, "skipped"), 0, "{stats}");
    for (q, rows) in [("?- p(X).", ["X", "1", "2"]), ("?- q(X).", ["X", "1", "2"])] {
        let resp = state.handle(&Request::query(q));
        assert_eq!(resp.payload_lines().collect::<Vec<_>>(), rows, "{q}");
    }
}

/// Ingest-burst storm: a `FACT` flood and a `LOAD` flood run against
/// query clients pinned to each `QUERY` mode word. Every answer is fresh
/// whatever the word: the reference rendering of a prefix of the chain
/// writer's order that holds every fact acknowledged before the query was
/// sent. Answers never shrink per connection, and after the storm the
/// resident state is intact: no poisonings, and every mode reads the
/// full-chain reference.
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
                no_optimize_reference(&format!("{TC_RULES}{facts}?- a(0, X).")),
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

/// Self-healing with nothing in the background: five times over, a failed
/// drain poisons the resident form and the next query of the form rebuilds
/// it. Every answer is `xdl run`'s over the acknowledged facts, and the
/// last rebuild serves resident reads.
#[test]
fn repeatedly_poisoned_resident_heals_through_queries_alone() {
    let dir = TempDir::new("heal");
    let fault = Arc::new(FaultPlan::new());
    let server = Server::spawn(&ServerConfig {
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);
    let mut facts = TC_FACTS.to_string();
    let reference =
        |facts: &str, q: &str| no_optimize_reference(&format!("{TC_RULES}{facts}{q}\n"));
    let q = "?- a(1, X).";
    assert_eq!(c.query(q).unwrap().payload_text(), reference(&facts, q));

    for i in 4..9 {
        fault.fail_drains(1);
        let fact = format!("p({i}, {}).\n", i + 1);
        assert!(c.fact(fact.trim_end()).unwrap().ok);
        facts.push_str(&fact);
        let resp = c.query(q).unwrap();
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.get("cache"), Some("hit"), "after {fact}");
        assert_eq!(resp.payload_text(), reference(&facts, q), "after {fact}");
    }
    let stats = c.stats().unwrap().payload_text();
    assert_eq!(stat(&stats, "resident_poisonings"), 5, "{stats}");
    assert_eq!(stat(&stats, "resident_rebuilds"), 5, "{stats}");

    // A new text of the same form reads the rebuilt resident.
    let q = "?- a(2, X).";
    let resp = c.query(q).unwrap();
    assert_eq!(resp.get("cache"), Some("resident"));
    assert_eq!(resp.payload_text(), reference(&facts, q));

    c.shutdown().unwrap();
    server.join();
}

/// A refused ingest stays refused across a restart. One request's records
/// are one all-or-nothing WAL append, so neither a `LOAD` nor a `FACT`
/// whose fsync failed leaves a record for recovery to replay.
#[test]
fn a_refused_ingest_does_not_come_back_after_a_restart() {
    let dir = TempDir::new("refused-restart");
    let fault = Arc::new(FaultPlan::new());
    let cfg = ServerConfig {
        wal_dir: Some(dir.path().join("wal")),
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    };
    let counts = |c: &mut Client| {
        let stats = c.stats().unwrap().payload_text();
        (stat(&stats, "rules"), stat(&stats, "facts"))
    };
    let file = dir.file(
        "tc.dl",
        "a(X, Y) :- p(X, Y).\np(1, 2).\np(2, 3).\np(3, 4).\n",
    );
    {
        let server = Server::spawn(&cfg).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        fault.fail_fsync(true);
        for resp in [c.load(file.to_str().unwrap()), c.fact("q(1).")] {
            let resp = resp.unwrap();
            assert!(!resp.ok);
            assert_eq!(resp.code, Some(ErrCode::Internal), "{}", resp.error);
            assert!(resp.error.contains("write not applied"), "{}", resp.error);
        }
        assert_eq!(counts(&mut c), (0, 0));
        fault.fail_fsync(false);
        c.shutdown().unwrap();
        server.join();
    }
    let server = Server::spawn(&cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(counts(&mut c), (0, 0));
    c.shutdown().unwrap();
    server.join();
}

/// Run `left` and `right` on two threads released together by a barrier;
/// whether each was acknowledged.
fn race(state: &ServerState, left: &Request, right: &Request) -> (bool, bool) {
    let barrier = Barrier::new(2);
    let go = |req: &Request| {
        barrier.wait();
        state.handle(req).ok
    };
    std::thread::scope(|s| {
        let left = s.spawn(|| go(left));
        let right = go(right);
        (left.join().unwrap(), right)
    })
}

/// The races of `outcomes` that acknowledged both sides, and those that
/// acknowledged neither.
fn both_and_neither(outcomes: &[(bool, bool)]) -> (usize, usize) {
    let both = outcomes.iter().filter(|&&(l, r)| l && r).count();
    let neither = outcomes.iter().filter(|&&(l, r)| !l && !r).count();
    (both, neither)
}

/// A `LOAD` of `p_i(X) :- q(X).` and a `FACT p_i(1).` released together:
/// §1.1 (the IDB holds no facts) admits only one of them, so exactly one
/// is acknowledged. The database holds the acknowledged side and nothing
/// of the refused one, live and after a restart from the log.
#[test]
fn a_rule_load_and_a_fact_for_its_head_are_never_both_acknowledged() {
    const RACES: usize = 50;
    let dir = TempDir::new("race-rule-fact");
    let cfg = ServerConfig {
        wal_dir: Some(dir.path().join("wal")),
        ..ServerConfig::default()
    };
    let state = ServerState::from_config(&cfg).unwrap();
    assert!(state.handle(&Request::Fact("q(2).".into())).ok);
    let outcomes: Vec<(bool, bool)> = (0..RACES)
        .map(|i| {
            let file = dir.file(&format!("p{i}.dl"), &format!("p{i}(X) :- q(X).\n"));
            race(
                &state,
                &Request::Load(file.display().to_string()),
                &Request::Fact(format!("p{i}(1).")),
            )
        })
        .collect();
    let (both, neither) = both_and_neither(&outcomes);
    assert_eq!(
        both, 0,
        "{both} of {RACES} races acknowledged the rule and the fact"
    );
    assert_eq!(
        neither, 0,
        "{neither} of {RACES} races acknowledged neither"
    );

    let check = |state: &ServerState, when: &str| {
        let loads = outcomes.iter().filter(|&&(load, _)| load).count() as u64;
        let stats = state.handle(&Request::Stats).payload_text();
        assert_eq!(stat(&stats, "rules"), loads, "{when}: {stats}");
        assert_eq!(
            stat(&stats, "facts"),
            1 + RACES as u64 - loads,
            "{when}: {stats}"
        );
        for (i, &(load, _)) in outcomes.iter().enumerate() {
            let held = if load {
                format!("p{i}(X) :- q(X).")
            } else {
                format!("p{i}(1).")
            };
            let query = format!("?- p{i}(X).");
            let resp = state.handle(&Request::query(&query));
            assert!(resp.ok, "{when}: {query} {}", resp.error);
            let reference = no_optimize_reference(&format!("{held}\nq(2).\n{query}\n"));
            assert_eq!(resp.payload_text(), reference, "{when}: {held}");
        }
    };
    check(&state, "live");
    drop(state);
    let state = ServerState::from_config(&cfg).unwrap();
    let stats = state.handle(&Request::Stats).payload_text();
    assert_eq!(stat(&stats, "skipped"), 0, "{stats}");
    check(&state, "after a restart");
}

/// The first facts of `a_i` at two arities, released together: exactly one
/// is acknowledged, and the refused one leaves no record in the log, so a
/// restart skips nothing and serves the acknowledged fact.
#[test]
fn racing_first_facts_of_two_arities_leave_no_refused_record() {
    const RACES: usize = 50;
    let dir = TempDir::new("race-arity");
    let cfg = ServerConfig {
        wal_dir: Some(dir.path().join("wal")),
        ..ServerConfig::default()
    };
    let state = ServerState::from_config(&cfg).unwrap();
    let outcomes: Vec<(bool, bool)> = (0..RACES)
        .map(|i| {
            race(
                &state,
                &Request::Fact(format!("a{i}(1).")),
                &Request::Fact(format!("a{i}(1, 2).")),
            )
        })
        .collect();
    let (both, neither) = both_and_neither(&outcomes);
    assert_eq!((both, neither), (0, 0), "of {RACES} races: both, neither");

    let check = |state: &ServerState, when: &str| {
        let stats = state.handle(&Request::Stats).payload_text();
        assert_eq!(stat(&stats, "facts"), RACES as u64, "{when}: {stats}");
        for (i, &(unary, _)) in outcomes.iter().enumerate() {
            let (fact, query) = if unary {
                (format!("a{i}(1)."), format!("?- a{i}(X)."))
            } else {
                (format!("a{i}(1, 2)."), format!("?- a{i}(X, Y)."))
            };
            let resp = state.handle(&Request::query(&query));
            assert!(resp.ok, "{when}: {query} {}", resp.error);
            let reference = no_optimize_reference(&format!("{fact}\n{query}\n"));
            assert_eq!(resp.payload_text(), reference, "{when}: {fact}");
        }
    };
    check(&state, "live");
    drop(state);
    let state = ServerState::from_config(&cfg).unwrap();
    let stats = state.handle(&Request::Stats).payload_text();
    assert_eq!(
        stat(&stats, "skipped"),
        0,
        "refused records were logged: {stats}"
    );
    check(&state, "after a restart");
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

/// One form through every residency state and back: after each step the
/// `cache=` tag and the `STATS` values that count residency transitions.
/// In-process, so each state is reached deterministically.
#[test]
fn residency_walks_every_state_with_its_tag_and_counters() {
    let dir = TempDir::new("walk");
    let fault = Arc::new(FaultPlan::new());
    let state = ServerState::from_config(&ServerConfig {
        resident_forms: 1,
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .unwrap();
    let file = dir.file(
        "two.dl",
        &format!("{TC_RULES}b(X, Y) :- q(X, Y).\np(1, 2).\nq(7, 8).\n"),
    );
    assert!(state.handle(&Request::Load(file.display().to_string())).ok);
    let counters = || {
        let stats = state.handle(&Request::Stats).payload_text();
        [
            "resident_forms",
            "resident_poisonings",
            "resident_rebuilds",
            "fallback_recomputes",
        ]
        .map(|key| stat(&stats, key))
    };
    let ask = |text: &str| -> Response {
        let resp = state.handle(&Request::query(text));
        assert!(resp.ok, "{text}: {}", resp.error);
        resp
    };

    // Cold: nothing pinned, nothing counted.
    assert_eq!(counters(), [0, 0, 0, 0]);

    // Cold → Live: the cold miss pins what it built.
    assert_eq!(ask("?- a(1, X).").get("cache"), Some("miss"));
    assert_eq!(counters(), [1, 0, 0, 0]);

    // Live → Live: the ingest drains the form before it is acknowledged.
    assert!(state.handle(&Request::Fact("p(2, 3).".into())).ok);
    let resp = ask("?- a(1, X).");
    assert_eq!(resp.get("cache"), Some("resident"));
    assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "2", "3"]);
    assert_eq!(counters(), [1, 0, 0, 0]);

    // Live → poisoned → Cold: the ingest's drain fails.
    fault.fail_drains(1);
    assert!(state.handle(&Request::Fact("p(3, 4).".into())).ok);
    assert_eq!(counters(), [0, 1, 0, 0]);

    // Cold → rebuilt: the next query recomputes from cold and pins the
    // result.
    let resp = ask("?- a(1, X).");
    assert_eq!(resp.get("cache"), Some("hit"));
    assert_eq!(
        resp.payload_lines().collect::<Vec<_>>(),
        ["X", "2", "3", "4"]
    );
    assert_eq!(counters(), [1, 1, 1, 1]);
    assert_eq!(ask("?- a(2, X).").get("cache"), Some("resident"));

    // Live → evicted: the single resident slot goes to another form.
    assert_eq!(ask("?- b(7, X).").get("cache"), Some("miss"));
    assert_eq!(counters(), [1, 1, 1, 1]);

    // Evicted → re-pinned, the same way a poisoned form comes back.
    assert_eq!(ask("?- a(3, X).").get("cache"), Some("hit"));
    assert_eq!(counters(), [1, 1, 2, 2]);
    let resp = ask("?- a(2, X).");
    assert_eq!(resp.get("cache"), Some("resident"));
    assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "3", "4"]);
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

/// A form a live form covers is answered off the covering form's frontier
/// from its first sighting: the optimizer still runs for it (its `TRACE`
/// carries the phase events), but nothing is built, and the read is tagged
/// `resident` with the covering form named in `served_by`.
#[test]
fn a_covered_first_sighting_reads_the_covering_resident() {
    let dir = TempDir::new("cover-first");
    let state = ServerState::from_config(&ServerConfig::default()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(state.handle(&Request::Load(file.display().to_string())).ok);
    let reference = |q: &str| no_optimize_reference(&format!("{TC_RULES}{TC_FACTS}{q}\n"));
    let q = "?- a(X, Y).";
    let resp = state.handle(&Request::query(q));
    assert_eq!(resp.get("cache"), Some("miss"));
    assert_eq!(resp.payload_text(), reference(q));

    let q = "?- a(1, _).";
    let resp = state.handle(&Request::query(q));
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.get("cache"), Some("resident"));
    assert_eq!(resp.payload_text(), reference(q));
    let doc = state.handle(&Request::Trace).payload_text();
    assert!(doc.contains("\"cache\":\"resident\""), "{doc}");
    assert!(doc.contains("\"new_events\":[{"), "optimizer ran: {doc}");
    assert!(
        doc.contains("\"adornment\":\"nd\"},\"served_by\":{"),
        "{doc}"
    );
    assert!(doc.contains("\"adornment\":\"nn\"},\"cache\""), "{doc}");

    // Every other form of `a` reads the same resident, and a repeat is a
    // kept read off the covering form's slot for the covered form.
    for q in ["?- a(_, 3).", "?- a(_, _).", "?- a(X, _).", "?- a(7, _)."] {
        let resp = state.handle(&Request::query(q));
        assert_eq!(resp.get("cache"), Some("resident"), "{q}");
        assert_eq!(resp.payload_text(), reference(q), "{q}");
    }
    let resp = state.handle(&Request::query("?- a(7, _)."));
    assert_eq!(resp.get("cache"), Some("answers"));
    let stats = state.handle(&Request::Stats).payload_text();
    assert_eq!(stat(&stats, "covered_reads"), 5, "{stats}");
    assert_eq!(stat(&stats, "resident_forms"), 1, "{stats}");
    assert_eq!(stat(&stats, "cache_misses"), 4, "{stats}");
    for counter in [
        "covered_retired",
        "fallback_recomputes",
        "resident_rebuilds",
    ] {
        assert_eq!(stat(&stats, counter), 0, "{counter}: {stats}");
    }
}

/// Ingest poisons the covering form; the covered form's next query is a
/// cold `hit` of its *own* program, which it pins, and the read after that
/// is its own resident's.
#[test]
fn a_poisoned_cover_hands_the_covered_form_back_to_its_own_program() {
    let dir = TempDir::new("cover-poison");
    let fault = Arc::new(FaultPlan::new());
    let state = ServerState::from_config(&ServerConfig {
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(state.handle(&Request::Load(file.display().to_string())).ok);
    let mut facts = TC_FACTS.to_string();
    let ask = |q: &str, facts: &str| {
        let resp = state.handle(&Request::query(q));
        assert!(resp.ok, "{q}: {}", resp.error);
        let want = no_optimize_reference(&format!("{TC_RULES}{facts}{q}\n"));
        assert_eq!(resp.payload_text(), want, "{q}");
        resp.get("cache").unwrap().to_string()
    };
    assert_eq!(ask("?- a(X, Y).", &facts), "miss");
    assert_eq!(ask("?- a(2, _).", &facts), "resident");

    fault.fail_drains(1);
    assert!(state.handle(&Request::Fact("p(4, 5).".into())).ok);
    facts.push_str("p(4, 5).\n");
    let stats = state.handle(&Request::Stats).payload_text();
    assert_eq!(stat(&stats, "resident_poisonings"), 1, "{stats}");
    assert_eq!(stat(&stats, "resident_forms"), 0, "{stats}");

    assert_eq!(ask("?- a(1, _).", &facts), "hit");
    let doc = state.handle(&Request::Trace).payload_text();
    assert!(doc.contains("\"served_by\":null"), "{doc}");
    assert_eq!(ask("?- a(4, _).", &facts), "resident");
    assert_eq!(ask("?- a(9, _).", &facts), "resident");
    let stats = state.handle(&Request::Stats).payload_text();
    assert_eq!(stat(&stats, "resident_forms"), 1, "{stats}");
    assert_eq!(stat(&stats, "covered_reads"), 1, "{stats}");
}
