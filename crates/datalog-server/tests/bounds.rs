//! Bound-aware admission, end to end: a real server with a fact budget
//! refuses a query whose *static* derivation bound (the `datalog-lint`
//! bounds analysis carried by every prepared form, evaluated against the
//! snapshot's live EDB cardinalities) already exceeds the budget — with a
//! coded `ERR bound`, before a single evaluation iteration runs. Admitted
//! workloads must serve byte-identical answers whether or not the
//! pre-flight check is enabled, and forms the analysis classifies
//! unbounded must never pin resident incremental state.

mod util;

use std::sync::Arc;

use datalog_server::{Client, ErrCode, FaultPlan, Server, ServerConfig};
use util::TempDir;

const TC_RULES: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n";
const TC_FACTS: &str = "p(1, 2).\np(2, 3).\np(3, 4).\n";

#[test]
fn bound_rejection_happens_before_any_evaluation() {
    let dir = TempDir::new("bound-admission");
    let server = Server::spawn(&ServerConfig {
        fact_budget: Some(3),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    // The closure over 3 edges is statically bounded by |p|² = 9 facts;
    // the budget is 3, so the trip is certain — admission refuses up
    // front, and keeps refusing on the prepared-cache hit path.
    for _ in 0..2 {
        let resp = c.query("?- a(X, Y).").unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.code, Some(ErrCode::Bound), "{}", resp.error);
        assert!(
            resp.error.contains("refused before evaluation"),
            "{}",
            resp.error
        );
    }

    // Zero evaluation iterations ran: the eval-phase histogram never
    // recorded a span, and the engine-side budget never tripped. The
    // refusals are counted on their own series.
    let scrape = c.metrics(false).unwrap().payload_text();
    assert!(
        scrape.contains("xdl_query_phase_seconds_count{phase=\"eval\"} 0"),
        "{scrape}"
    );
    assert!(
        scrape.contains("xdl_admission_rejected_total 2"),
        "{scrape}"
    );
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"admission_rejected\":2"), "{stats}");
    assert!(stats.contains("\"budget_trips\":0"), "{stats}");

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn admitted_workload_serves_byte_identical_answers() {
    // The same workload against two servers — bound admission on and off,
    // budget comfortably above every form's bound — must produce
    // byte-identical payloads: the pre-flight check may only refuse, never
    // perturb an admitted answer.
    let dir = TempDir::new("bound-identical");
    let file = dir.file("tc.dl", &format!("{TC_RULES}{TC_FACTS}"));
    let queries = ["?- a(X, Y).", "?- a(1, X).", "?- a(X, _).", "?- a(_, 4)."];
    let mut payloads: Vec<Vec<String>> = Vec::new();
    for skip_admission in [false, true] {
        let fault = Arc::new(FaultPlan::new());
        fault.skip_bound_admission(skip_admission);
        let server = Server::spawn(&ServerConfig {
            fact_budget: Some(10_000),
            fault,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.load(file.to_str().unwrap()).unwrap().ok);
        let mut got = Vec::new();
        for q in queries {
            let resp = c.query(q).unwrap();
            assert!(resp.ok, "{q}: {}", resp.error);
            got.push(resp.payload_text());
        }
        payloads.push(got);
        c.shutdown().unwrap();
        server.join();
    }
    assert_eq!(payloads[0], payloads[1]);
}

#[test]
fn unbounded_form_is_never_pinned_resident() {
    // Nonlinear TC: no column traceable past the recursion, so the bounds
    // analysis certifies nothing tighter than the active-domain fallback
    // and classifies the form unbounded. Resident admission must refuse to
    // pin it even though the rule shape is otherwise supported.
    let dir = TempDir::new("bound-resident");
    // Resident forms are on by default.
    let server = Server::spawn(&ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let file = dir.file(
        "nl.dl",
        "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, Z), t(Z, Y).\ne(1, 2).\ne(2, 3).\n",
    );
    assert!(c.load(file.to_str().unwrap()).unwrap().ok);

    assert_eq!(c.query("?- t(1, X).").unwrap().get("cache"), Some("miss"));
    // A pinned form would serve the second query as `resident`; the
    // unbounded classification keeps it on the plain prepared-hit path.
    assert_eq!(c.query("?- t(2, X).").unwrap().get("cache"), Some("hit"));
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"resident_forms\":0"), "{stats}");

    c.shutdown().unwrap();
    server.join();
}
