//! End-to-end protocol tests against a real server on an ephemeral port.
//!
//! The reference for byte-identity is the `xdl run` pipeline, recomputed
//! in-process: parse → `optimize` with the default config → evaluate with
//! the boolean cut → render (`true`/`false` for boolean queries, else the
//! column header plus sorted rows).

mod util;

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use datalog_ast::parse_program;
use datalog_engine::{query_answers_full, EvalOptions, FactSet};
use datalog_opt::{optimize, OptimizerConfig};
use datalog_server::{
    render_answers, Client, Consistency, ErrCode, FaultPlan, Server, ServerConfig,
};
use util::TempDir;

/// What `xdl run <src>` prints on stdout, computed via the same library
/// calls the binary makes.
fn xdl_run_reference(src: &str) -> String {
    let parsed = parse_program(src).unwrap();
    parsed.program.validate().unwrap();
    let facts = FactSet::from_parsed(&parsed.facts);
    let out = optimize(&parsed.program, &OptimizerConfig::default()).unwrap();
    let opts = EvalOptions {
        boolean_cut: true,
        ..EvalOptions::default()
    };
    let (answers, _) = query_answers_full(&out.program, &facts, &opts).unwrap();
    render_answers(&answers)
}

fn spawn(threads: usize) -> Server {
    Server::spawn(&ServerConfig {
        threads,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

const TC_RULES: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n";
const TC_FACTS: &str = "p(1, 2).\np(2, 3).\np(3, 4).\n";

#[test]
fn roundtrip_matches_xdl_run_byte_for_byte() {
    let dir = TempDir::new("roundtrip");
    let server = spawn(2);
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
    let server = spawn(1);
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
    let server = spawn(2);
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
    let server = spawn(2);
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
    let server = spawn(1);
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
    let server = spawn(6);
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

/// Protocol v4: the three consistency modes round-trip over TCP with
/// frontier/staleness headers, and `fresh` stays byte-identical to
/// `xdl run` even while a deferred drain is still in flight.
#[test]
fn consistency_modes_round_trip_with_frontier_headers() {
    let dir = TempDir::new("consistency");
    let fault = Arc::new(FaultPlan::default());
    // drain_sync_cost = 0 forces every post-ingest drain onto the
    // maintenance thread, so there is a real stale window to observe.
    let server = Server::spawn(&ServerConfig {
        threads: 2,
        drain_sync_cost: 0,
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut c = Client::connect(server.addr()).unwrap();

    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    // Warm the form: the cold miss pins a resident frontier and already
    // reports version + zero staleness.
    let q = "?- a(1, X).";
    let cold = c.query(q).unwrap();
    assert!(cold.ok, "{}", cold.error);
    assert_eq!(cold.get("cache"), Some("miss"));
    let v0: u64 = cold.get("frontier").unwrap().parse().unwrap();
    assert_eq!(cold.get("staleness_us"), Some("0"));
    let old_payload = cold.payload_text();

    // Ingest while drains are slow: the background catch-up sleeps
    // holding the form lock, keeping the published frontier behind.
    fault.slow_drains(300);
    assert!(c.fact("p(4, 5).").unwrap().ok);

    // `any` serves immediately off the old frontier with an honest bound.
    let any = c.query_at(Consistency::Any, q).unwrap();
    assert!(any.ok, "{}", any.error);
    let tag = any.get("cache").unwrap();
    assert!(
        tag == "stale" || tag == "stale_answers",
        "expected a stale serve, got {tag}"
    );
    assert_eq!(any.payload_text(), old_payload);
    assert_eq!(any.get("frontier").unwrap().parse::<u64>().unwrap(), v0);
    let bound_us: u64 = any.get("staleness_us").unwrap().parse().unwrap();
    assert!(bound_us > 0, "a stale serve must report a nonzero bound");

    // A generous budget is also happy with the old frontier.
    let loose = c.query_at(Consistency::Bounded(60_000), q).unwrap();
    assert!(loose.ok, "{}", loose.error);
    assert_eq!(loose.payload_text(), old_payload);

    // A 1 ms budget cannot be met once the frontier is >10 ms old:
    // the server refuses with `ERR stale <bound_ms>` instead of blocking.
    std::thread::sleep(Duration::from_millis(20));
    let tight = c.query_at(Consistency::Bounded(1), q).unwrap();
    assert!(!tight.ok, "over-budget read must be refused");
    assert_eq!(tight.code, Some(ErrCode::Stale));
    let bound_ms = tight.stale_bound_ms().expect("ERR stale carries a bound");
    assert!(bound_ms >= 10, "reported bound {bound_ms} ms is too low");

    // `fresh` (the default) waits out the drain and matches `xdl run`
    // byte for byte — staleness zero, frontier advanced.
    fault.slow_drains(0);
    let fresh = c.query(q).unwrap();
    assert!(fresh.ok, "{}", fresh.error);
    let reference = xdl_run_reference(&format!("{TC_RULES}{TC_FACTS}p(4, 5).\n{q}"));
    assert_eq!(fresh.payload_text(), reference);
    assert_eq!(fresh.get("staleness_us"), Some("0"));
    assert!(fresh.get("frontier").unwrap().parse::<u64>().unwrap() > v0);

    // Once drained, `any` is current again: zero staleness, new frontier.
    let settled = c.query_at(Consistency::Any, q).unwrap();
    assert!(settled.ok, "{}", settled.error);
    assert_eq!(settled.payload_text(), reference);
    assert_eq!(settled.get("staleness_us"), Some("0"));

    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"stale_refusals\":1"), "{stats}");

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn load_rejects_rules_over_stored_facts_and_idb_facts() {
    let dir = TempDir::new("reject");
    let server = spawn(1);
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
