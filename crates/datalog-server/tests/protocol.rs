//! End-to-end protocol tests against a real server on an ephemeral port.
//!
//! The reference for byte-identity is the `xdl run` pipeline, recomputed
//! in-process: parse → `optimize` with the default config → evaluate with
//! the boolean cut → render (`true`/`false` for boolean queries, else the
//! column header plus sorted rows).

mod util;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use datalog_ast::parse_program;
use datalog_engine::{query_answers_full, EvalOptions};
use datalog_opt::{optimize, OptimizerConfig};
use datalog_server::{render_answers, Client, Server, ServerConfig};
use util::TempDir;

/// What `xdl run <src>` prints on stdout, computed via the same library
/// calls the binary makes.
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

fn spawn() -> Server {
    Server::spawn(&ServerConfig::default()).expect("bind ephemeral port")
}

const TC_RULES: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n";
const TC_FACTS: &str = "p(1, 2).\np(2, 3).\np(3, 4).\n";

#[test]
fn roundtrip_matches_xdl_run_byte_for_byte() {
    let dir = TempDir::new("roundtrip");
    let server = spawn();
    let mut c = Client::connect(server.addr()).unwrap();

    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    let resp = c.load(file.to_str().unwrap()).unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.get("rules"), Some("2"));
    assert_eq!(resp.get("new_facts"), Some("3"));

    for query in ["?- a(X, _).", "?- a(X, Y).", "?- a(1, _).", "?- a(_, _)."] {
        let resp = c.query(query).unwrap();
        assert!(resp.ok, "{query}: {}", resp.error);
        let reference = xdl_run_reference(&format!("{TC_RULES}{TC_FACTS}{query}"));
        assert_eq!(
            resp.payload_text(),
            reference,
            "server and xdl run disagree on {query}"
        );
    }

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn predicate_read_only_through_negation_is_served_whole() {
    // The boolean cut used to retire `flagged` (consumed only by a negated
    // literal) after the seed round, and every employee came back clean.
    let dir = TempDir::new("negation");
    let server = spawn();
    let mut c = Client::connect(server.addr()).unwrap();
    let src = "above(X, Y) :- boss(X, Y).\nabove(X, Y) :- boss(X, Z), above(Z, Y).\n\
               flagged(X) :- above(X, Y), bad(Y).\nclean(X) :- emp(X), not flagged(X).\n\
               boss(1, 2).\nboss(2, 3).\nboss(3, 4).\nboss(5, 6).\nbad(4).\n\
               emp(1).\nemp(2).\nemp(3).\nemp(5).\n";
    let file = dir.file("clean.dl", src);
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);
    let resp = c.query("?- clean(X).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.payload_text(), "X\n5\n");
    assert_eq!(
        resp.payload_text(),
        xdl_run_reference(&format!("{src}?- clean(X)."))
    );
    c.shutdown().unwrap();
    server.join();
}

#[test]
fn repeat_query_form_hits_cache_with_zero_new_events() {
    let dir = TempDir::new("repeat");
    let server = spawn();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    // Cold: full optimizer run, phase events present.
    let first = c.query("?- a(X, _).").unwrap();
    assert_eq!(first.get("cache"), Some("miss"));
    let trace = c.trace().unwrap();
    assert!(trace.ok);
    let doc = trace.payload_text();
    assert!(doc.contains("\"cache\":\"miss\""), "{doc}");
    assert!(
        doc.contains("\"new_events\":[{"),
        "cold run must report phase events: {doc}"
    );

    // Identical query: memoized answers, nothing re-run at all.
    let second = c.query("?- a(X, _).").unwrap();
    assert_eq!(second.get("cache"), Some("answers"));
    assert_eq!(second.payload, first.payload);
    let doc = c.trace().unwrap().payload_text();
    assert!(doc.contains("\"new_events\":[]"), "{doc}");

    // Same form, different constant: prepared program reused (no
    // optimizer), answers extracted from the resident frontier the cold
    // miss pinned — no re-evaluation either.
    let third = c.query("?- a(2, _).").unwrap();
    assert_eq!(third.get("cache"), Some("resident"));
    assert_eq!(third.payload_text(), "true\n");
    let doc = c.trace().unwrap().payload_text();
    assert!(doc.contains("\"cache\":\"resident\""), "{doc}");
    assert!(doc.contains("\"new_events\":[]"), "{doc}");

    // First-seen adornment of the same predicate: full trace again.
    let fourth = c.query("?- a(X, Y).").unwrap();
    assert_eq!(fourth.get("cache"), Some("miss"));
    let doc = c.trace().unwrap().payload_text();
    assert!(doc.contains("\"new_events\":[{"), "{doc}");

    let stats = c.stats().unwrap();
    let doc = stats.payload_text();
    assert!(doc.contains("\"cache_misses\":2"), "{doc}");
    assert!(doc.contains("\"answer_hits\":1"), "{doc}");
    assert!(doc.contains("\"prepared_forms\":2"), "{doc}");

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn ingestion_invalidates_only_dependent_forms() {
    let dir = TempDir::new("invalidate");
    let server = spawn();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file(
        "two.dl",
        "a(X, Y) :- p(X, Y).\nb(X, Y) :- q(X, Y).\np(1, 2).\nq(7, 8).\n",
    );
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    // Warm both forms, then serve both from the answer cache.
    assert_eq!(c.query("?- a(X, _).").unwrap().get("cache"), Some("miss"));
    assert_eq!(c.query("?- b(X, _).").unwrap().get("cache"), Some("miss"));
    assert_eq!(
        c.query("?- a(X, _).").unwrap().get("cache"),
        Some("answers")
    );
    assert_eq!(
        c.query("?- b(X, _).").unwrap().get("cache"),
        Some("answers")
    );

    // A fact for p touches only the form over a.
    let resp = c.fact("p(5, 6).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.get("new"), Some("true"));
    let a = c.query("?- a(X, _).").unwrap();
    assert_eq!(
        a.get("cache"),
        Some("resident"),
        "a re-serves from its caught-up resident frontier"
    );
    assert!(a.payload.contains(&"5".to_string()), "{:?}", a.payload);
    assert_eq!(
        c.query("?- b(X, _).").unwrap().get("cache"),
        Some("answers"),
        "b does not depend on p"
    );

    // Duplicate fact: no new version, no invalidation.
    let resp = c.fact("p(5, 6).").unwrap();
    assert_eq!(resp.get("new"), Some("false"));
    assert_eq!(
        c.query("?- a(X, _).").unwrap().get("cache"),
        Some("answers")
    );

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn errors_keep_the_connection_usable() {
    let server = spawn();
    let mut c = Client::connect(server.addr()).unwrap();

    // Parse error carries line:col and the connection survives.
    let resp = c.query("?- a(X, _").unwrap();
    assert!(!resp.ok);
    assert!(resp.error.starts_with("query:1:"), "{}", resp.error);

    let resp = c.request("FROBNICATE now").unwrap();
    assert!(!resp.ok);
    assert!(resp.error.contains("unknown command"), "{}", resp.error);

    let resp = c.fact("p(1, X).").unwrap();
    assert!(!resp.ok);
    assert!(resp.error.contains("not ground"), "{}", resp.error);

    // TRACE before any query is an error, not a crash.
    let resp = c.trace().unwrap();
    assert!(!resp.ok);

    // Still alive: a well-formed exchange succeeds on the same connection.
    assert!(c.fact("p(1, 2).").unwrap().ok);
    let resp = c.query("?- p(X, _).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.payload, vec!["X", "1"]);

    c.shutdown().unwrap();
    server.join();
}

/// ≥4 concurrent clients querying while a writer ingests: every response
/// must equal the reference rendering of *some* prefix of the ingestion
/// order — snapshot isolation means no torn reads, ever.
#[test]
fn concurrent_clients_with_interleaved_ingestion_see_consistent_prefixes() {
    const CHAIN: i64 = 12;
    let dir = TempDir::new("concurrent");
    let server = spawn();
    let addr = server.addr();

    let mut setup = Client::connect(addr).unwrap();
    let file = dir.file("rules-only.dl", TC_RULES);
    assert!(setup.load(file.to_str().unwrap()).unwrap().ok);
    assert!(setup.fact("p(0, 1).").unwrap().ok);

    // Reference payloads for every prefix p(0,1)..p(k,k+1), k = 0..CHAIN-1.
    let valid: BTreeSet<String> = (1..=CHAIN)
        .map(|k| {
            let facts: String = (0..k).map(|i| format!("p({i}, {}).\n", i + 1)).collect();
            xdl_run_reference(&format!("{TC_RULES}{facts}?- a(X, _)."))
        })
        .collect();

    let writer = std::thread::spawn(move || {
        let mut w = Client::connect(addr).unwrap();
        for i in 1..CHAIN {
            let resp = w.fact(&format!("p({i}, {}).", i + 1)).unwrap();
            assert!(resp.ok, "{}", resp.error);
        }
    });

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let valid = valid.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut last_len = 0usize;
                for _ in 0..30 {
                    let resp = c.query("?- a(X, _).").unwrap();
                    assert!(resp.ok, "{}", resp.error);
                    let payload = resp.payload_text();
                    assert!(
                        valid.contains(&payload),
                        "response is not a prefix rendering:\n{payload}"
                    );
                    // Answers only grow: the EDB is append-only.
                    assert!(resp.payload.len() >= last_len, "answers shrank");
                    last_len = resp.payload.len();
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    // Quiescent: the final answer is the full-chain reference.
    let mut c = Client::connect(addr).unwrap();
    let full: String = (0..CHAIN)
        .map(|i| format!("p({i}, {}).\n", i + 1))
        .collect();
    let reference = xdl_run_reference(&format!("{TC_RULES}{full}?- a(X, _)."));
    let resp = c.query("?- a(X, _).").unwrap();
    assert_eq!(resp.payload_text(), reference);

    c.shutdown().unwrap();
    server.join();
}

/// Protocol v4's mode words are accepted and discarded: while a second
/// client streams `FACT`s, a query with any mode word, or none, answers
/// fresh. Each payload is `xdl run`'s at a prefix of the stream that holds
/// every fact acknowledged before the query was sent, under the same
/// header keys, with `staleness_us=0` and never a `stale` tag or
/// `ERR stale`. A malformed bound is still an `ERR`.
#[test]
fn consistency_modes_round_trip_with_frontier_headers() {
    const CHAIN: i64 = 16;
    const MODES: [&str; 5] = ["", "fresh ", "any ", "staleness=50 ", "staleness=0 "];
    let dir = TempDir::new("consistency");
    let server = spawn();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    let file = dir.file("rules-only.dl", TC_RULES);
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);
    assert!(c.fact("p(0, 1).").unwrap().ok);
    let q = "?- a(0, X).";
    // The prefix p(0, 1) .. p(k - 1, k) each payload stands for.
    let prefix_of: BTreeMap<String, i64> = (1..=CHAIN)
        .map(|k| {
            let facts: String = (0..k).map(|i| format!("p({i}, {}).\n", i + 1)).collect();
            (xdl_run_reference(&format!("{TC_RULES}{facts}{q}")), k)
        })
        .collect();
    // Warm the form, so the stream is drained through a resident.
    assert_eq!(c.query(q).unwrap().get("cache"), Some("miss"));

    // Facts acknowledged so far: p(0, 1) .. p(acked - 1, acked).
    let acked = Arc::new(AtomicI64::new(1));
    let writer = {
        let acked = Arc::clone(&acked);
        std::thread::spawn(move || {
            let mut w = Client::connect(addr).unwrap();
            for i in 1..CHAIN {
                assert!(w.fact(&format!("p({i}, {}).", i + 1)).unwrap().ok);
                acked.store(i + 1, Ordering::SeqCst);
            }
        })
    };
    let mut rounds = 0;
    while rounds < 10 || !writer.is_finished() {
        for mode in MODES {
            let before = acked.load(Ordering::SeqCst);
            let resp = c.request(&format!("QUERY {mode}{q}")).unwrap();
            assert!(resp.ok, "{mode}: {}", resp.error);
            let keys: Vec<&str> = resp.info.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["cache", "answers", "frontier", "staleness_us", "wall_us"],
                "{mode}"
            );
            assert_eq!(resp.get("staleness_us"), Some("0"), "{mode}");
            assert!(!resp.get("cache").unwrap().starts_with("stale"), "{mode}");
            let k = prefix_of
                .get(&resp.payload_text())
                .unwrap_or_else(|| panic!("{mode}: not a prefix:\n{}", resp.payload_text()));
            assert!(
                *k >= before,
                "{mode}: prefix {k} misses acknowledged {before}"
            );
        }
        rounds += 1;
    }
    writer.join().unwrap();
    for mode in MODES {
        let resp = c.request(&format!("QUERY {mode}{q}")).unwrap();
        assert_eq!(prefix_of.get(&resp.payload_text()), Some(&CHAIN), "{mode}");
    }

    let bad = c.request(&format!("QUERY staleness=abc {q}")).unwrap();
    assert!(!bad.ok);
    assert_eq!(bad.code, None, "{}", bad.error);
    assert!(bad.error.contains("staleness"), "{}", bad.error);

    c.shutdown().unwrap();
    server.join();
}

/// A request line with a line break would reach the server as two
/// requests and leave every later response one behind. The client refuses
/// it before writing, and the connection stays in step.
#[test]
fn a_line_break_in_a_request_is_refused_and_the_connection_stays_in_step() {
    let server = spawn();
    let mut c = Client::connect(server.addr()).unwrap();
    for line in [
        "FACT p(1).\nSHUTDOWN",
        "FACT p(2).\rSTATS",
        "QUERY ?- p(X).\n",
    ] {
        let err = c.request(line).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{line:?}");
    }
    // Nothing was sent: no fact stored, no shutdown, and each next request
    // gets its own answer.
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"facts\":0,"), "{stats}");
    assert!(c.fact("p(3).").unwrap().ok);
    let resp = c.query("?- p(X).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(resp.payload, vec!["X", "3"]);

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn load_rejects_rules_over_stored_facts_and_idb_facts() {
    let dir = TempDir::new("reject");
    let server = spawn();
    let mut c = Client::connect(server.addr()).unwrap();

    assert!(c.fact("a(1, 2).").unwrap().ok);
    // A rule whose head already has stored facts violates the IDB-empty
    // convention the optimizer relies on.
    let file = dir.file("clash.dl", "a(X, Y) :- p(X, Y).\n");
    let resp = c.load(file.to_str().unwrap()).unwrap();
    assert!(!resp.ok);
    assert!(
        resp.error.contains("facts already stored"),
        "{}",
        resp.error
    );

    // Facts for an IDB predicate inside a loaded file are rejected whole.
    let file = dir.file("idbfact.dl", "b(X, Y) :- q(X, Y).\nb(1, 2).\n");
    let resp = c.load(file.to_str().unwrap()).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.contains("derived by rules"), "{}", resp.error);

    c.shutdown().unwrap();
    server.join();
}
