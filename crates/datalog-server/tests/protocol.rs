//! End-to-end protocol tests against a real server on an ephemeral port.
//!
//! The reference for byte-identity is `xdl run --no-optimize`, recomputed
//! in-process ([`util::no_optimize_reference`]): the program as written,
//! evaluated with the boolean cut and rendered (`true`/`false` for boolean
//! queries, else the column header plus sorted rows).

mod util;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use datalog_server::{Client, FaultPlan, Server, ServerConfig};
use util::{no_optimize_reference, TempDir};

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
        let reference = no_optimize_reference(&format!("{TC_RULES}{TC_FACTS}{query}"));
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
        no_optimize_reference(&format!("{src}?- clean(X)."))
    );
    c.shutdown().unwrap();
    server.join();
}

/// A payload line is the rendered table's bytes up to its `\n`: a symbol
/// that ends in `\r`, holds a space, is not ASCII, or even holds a `\n`
/// comes back from every source exactly as `xdl run` prints it.
#[test]
fn symbols_with_carriage_returns_spaces_and_utf8_cross_the_wire_verbatim() {
    const SRC: &str = "p(\"ab\r\").\np(\"c d\").\np(\"\u{c5}ngstr\u{f6}m\").\n\
                       p(\"\u{65e5}\u{672c} \u{8a9e}\r\").\np(\"x\ny\").\np(\"\r\").\n\
                       q(X) :- p(X).\n";
    let dir = TempDir::new("verbatim");
    let server = spawn();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("symbols.dl", SRC);
    let resp = c.load(file.to_str().unwrap()).unwrap();
    assert!(resp.ok, "{}", resp.error);
    for (query, cache) in [
        ("?- p(X).", "miss"),
        ("?- p(X).", "answers"),
        ("?- q(X).", "miss"),
        ("?- q(Y).", "resident"),
        ("?- q(Y).", "answers"),
    ] {
        let resp = c.query(query).unwrap();
        assert!(resp.ok, "{query}: {}", resp.error);
        assert_eq!(resp.get("cache"), Some(cache), "{query}");
        let reference = no_optimize_reference(&format!("{SRC}{query}"));
        assert!(reference.contains("ab\r\n"), "{reference:?}");
        assert_eq!(resp.body(), reference, "{query} ({cache})");
        assert_eq!(resp.line_count(), reference.matches('\n').count());
    }
    c.shutdown().unwrap();
    server.join();
}

/// A table of thousands of lines crosses the socket byte for byte from
/// every source: the cold evaluation that builds the resident, a resident
/// read, and the resident's kept read.
#[test]
fn a_large_table_is_byte_identical_from_every_source() {
    const NODES: usize = 101;
    let facts: String = (1..NODES)
        .map(|i| format!("p({i}, {}).\n", i + 1))
        .collect();
    let src = format!("{TC_RULES}{facts}");
    let dir = TempDir::new("large");
    let server = spawn();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("chain.dl", &src);
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);
    let mut references = BTreeMap::new();
    for (query, cache) in [
        ("?- a(X, Y).", "miss"),
        ("?- a(U, V).", "resident"),
        ("?- a(X, Y).", "resident"),
        ("?- a(X, Y).", "answers"),
    ] {
        let resp = c.query(query).unwrap();
        assert!(resp.ok, "{query}: {}", resp.error);
        assert_eq!(resp.get("cache"), Some(cache), "{query}");
        let reference = references
            .entry(query)
            .or_insert_with(|| no_optimize_reference(&format!("{src}{query}")));
        // The header line plus one row per pair of the chain.
        assert_eq!(resp.line_count(), 1 + NODES * (NODES - 1) / 2);
        assert!(
            resp.body() == reference.as_str(),
            "{query} ({cache}) differs"
        );
    }
    c.shutdown().unwrap();
    server.join();
}

/// `clean` negates `flagged`. Its form is kept resident anyway: a FACT
/// that grows `flagged` recomputes the `clean` stratum, one that does not
/// propagates through it, and every answer — before and after a restart —
/// is what the unoptimized program answers from cold.
#[test]
fn org_clean_is_resident_through_facts_that_grow_its_negation_and_a_restart() {
    const ORG: &str = "above(X, Y) :- mgr(X, Y).\nabove(X, Y) :- mgr(X, Z), above(Z, Y).\n\
                       peer(X, Y) :- mgr(Z, X), mgr(Z, Y).\nskip(X, Y) :- mgr(X, Z), mgr(Z, Y).\n\
                       flagged(X) :- above(X, Y), audit(Y).\n\
                       clean(X) :- emp(X), not flagged(X).\n\
                       clean(X) :- flagged(X), cleared(X).\n";
    const Q: &str = "?- clean(X).";
    let dir = TempDir::new("org-clean");
    let cfg = ServerConfig {
        wal_dir: Some(dir.path().join("wal")),
        ..ServerConfig::default()
    };
    // 1 manages 2 and 5, 2 manages 3, 3 manages 4; 3 is audited.
    let mut facts = String::from(
        "mgr(2, 1).\nmgr(3, 2).\nmgr(4, 3).\nmgr(5, 1).\n\
         emp(1).\nemp(2).\nemp(3).\nemp(4).\nemp(5).\naudit(3).\ncleared(4).\n",
    );
    let file = dir.file("org.dl", &format!("{ORG}{facts}"));
    let ask = |c: &mut Client, facts: &str, cache: &str| -> String {
        let resp = c.query(Q).unwrap();
        assert!(resp.ok, "{}", resp.error);
        let reference = no_optimize_reference(&format!("{ORG}{facts}{Q}"));
        assert_eq!(resp.payload_text(), reference, "after {facts}");
        assert_eq!(resp.get("cache"), Some(cache), "after {facts}");
        reference
    };
    let server = Server::spawn(&cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);
    let mut answers = vec![ask(&mut c, &facts, "miss")];
    // Whether each FACT grows `flagged`.
    for (f, grows) in [
        ("emp(6).", false),
        ("mgr(6, 5).", false),
        ("audit(1).", true),
        ("cleared(2).", false),
        ("mgr(7, 4).", true),
        ("emp(7).", false),
        ("audit(5).", false),
    ] {
        let resp = c.fact(f).unwrap();
        assert!(resp.ok, "{f}: {}", resp.error);
        facts.push_str(f);
        facts.push('\n');
        let flagged = |facts: &str| no_optimize_reference(&format!("{ORG}{facts}?- flagged(X)."));
        let before = facts.strip_suffix(&format!("{f}\n")).unwrap();
        assert_eq!(flagged(&facts) != flagged(before), grows, "{f}");
        answers.push(ask(&mut c, &facts, "resident"));
    }
    assert!(
        answers.windows(2).any(|w| w[0] != w[1]),
        "answers never moved"
    );
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"resident_poisonings\":0"), "{stats}");
    c.shutdown().unwrap();
    server.join();

    // Recovered from the log: the same bytes, and resident again.
    let server = Server::spawn(&cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(&ask(&mut c, &facts, "miss"), answers.last().unwrap());
    for f in ["audit(2).", "emp(8)."] {
        assert!(c.fact(f).unwrap().ok);
        facts.push_str(f);
        facts.push('\n');
        ask(&mut c, &facts, "resident");
    }
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

    // Identical query: the resident's kept read, nothing re-run at all.
    let second = c.query("?- a(X, _).").unwrap();
    assert_eq!(second.get("cache"), Some("answers"));
    assert_eq!(second.body(), first.body());
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

    // Warm both forms, then serve both from their residents' kept reads.
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
    assert!(a.payload_lines().any(|l| l == "5"), "{}", a.body());
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
    assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "1"]);

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
            no_optimize_reference(&format!("{TC_RULES}{facts}?- a(X, _)."))
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
                    assert!(resp.line_count() >= last_len, "answers shrank");
                    last_len = resp.line_count();
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
    let reference = no_optimize_reference(&format!("{TC_RULES}{full}?- a(X, _)."));
    let resp = c.query("?- a(X, _).").unwrap();
    assert_eq!(resp.payload_text(), reference);

    c.shutdown().unwrap();
    server.join();
}

/// The `QUERY` mode words are accepted and discarded: while a second
/// client streams `FACT`s, a query with any mode word, or none, answers
/// fresh. Each payload is `xdl run`'s at a prefix of the stream that holds
/// every fact acknowledged before the query was sent, under the same
/// header keys, and never a `stale` tag or `ERR stale`. A malformed bound
/// is still an `ERR`.
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
            (no_optimize_reference(&format!("{TC_RULES}{facts}{q}")), k)
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
            assert_eq!(keys, ["cache", "answers", "frontier", "wall_us"], "{mode}");
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

/// `frontier=` is the store version of the query's snapshot, whichever
/// source answers: a cold evaluation, a resident form, a form covered by
/// another one, a resident's kept read, or a form rebuilt after a failed
/// drain poisoned it. So it always equals the `version=` of the latest acknowledged
/// ingest, and never goes down.
#[test]
fn frontier_is_the_latest_acknowledged_version_from_every_source() {
    const RULES: &str = "a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).\n\
                         n(X) :- p(X, Y), not a(Y, X).\n";
    let dir = TempDir::new("frontier");
    let fault = Arc::new(FaultPlan::new());
    let server = Server::spawn(&ServerConfig {
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut c = Client::connect(server.addr()).unwrap();
    let mut facts = String::from("p(1, 2).\np(2, 3).\n");
    let file = dir.file("frontier.dl", &format!("{RULES}{facts}"));
    let load = c.load(file.to_str().unwrap()).unwrap();
    assert!(load.ok, "{}", load.error);
    let mut version: u64 = load.get("version").unwrap().parse().unwrap();
    let mut last_frontier = 0;
    let mut ask = |c: &mut Client, q: &str, facts: &str, version: u64| -> String {
        let resp = c.query(q).unwrap();
        assert!(resp.ok, "{q}: {}", resp.error);
        let frontier: u64 = resp.get("frontier").unwrap().parse().unwrap();
        let cache = resp.get("cache").unwrap().to_string();
        assert_eq!(frontier, version, "{q} ({cache})");
        assert!(frontier >= last_frontier, "{q} ({cache}) went back");
        last_frontier = frontier;
        let reference = no_optimize_reference(&format!("{RULES}{facts}{q}"));
        assert_eq!(resp.payload_text(), reference, "{q} ({cache})");
        cache
    };
    let fact = |c: &mut Client, f: &str, facts: &mut String| -> u64 {
        let resp = c.fact(f).unwrap();
        assert!(resp.ok, "{f}: {}", resp.error);
        facts.push_str(f);
        facts.push('\n');
        resp.get("version").unwrap().parse().unwrap()
    };
    // `n` negates `a`: it pins a resident of its own. Then `a`'s resident
    // form and a form it covers.
    assert_eq!(ask(&mut c, "?- n(X).", &facts, version), "miss");
    assert_eq!(ask(&mut c, "?- a(X, Y).", &facts, version), "miss");
    assert_eq!(ask(&mut c, "?- a(X, _).", &facts, version), "resident");
    version = fact(&mut c, "p(3, 4).", &mut facts);
    for q in ["?- a(X, _).", "?- n(X).", "?- a(X, Y).", "?- a(1, Y)."] {
        ask(&mut c, q, &facts, version);
    }
    // The next drain fails: the resident is poisoned, and the next query
    // of its form rebuilds it from cold.
    fault.fail_drains(1);
    version = fact(&mut c, "p(4, 5).", &mut facts);
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"resident_poisonings\":1"), "{stats}");
    assert_eq!(ask(&mut c, "?- a(X, Y).", &facts, version), "hit");
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"resident_rebuilds\":1"), "{stats}");
    for q in ["?- a(X, _).", "?- a(2, Y).", "?- a(X, Y).", "?- n(X)."] {
        ask(&mut c, q, &facts, version);
    }
    version = fact(&mut c, "p(5, 1).", &mut facts);
    for q in ["?- a(X, _).", "?- a(X, Y).", "?- n(X)."] {
        ask(&mut c, q, &facts, version);
    }
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
    assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "3"]);

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
