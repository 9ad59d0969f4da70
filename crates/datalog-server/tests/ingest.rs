//! `LOAD` of a file whose facts disagree about a predicate's arity is
//! refused with an exact error: the arity expected is the stored one,
//! else the first fact's in source order, and the arity reported is that
//! of the first fact that disagrees.
//!
//! And the org schema's residency: one live form per defining closure,
//! through ingest and a poisoned holder.

mod util;

use std::sync::Arc;

use datalog_server::{Client, FaultPlan, Request, Server, ServerConfig, ServerState};
use util::{no_optimize_reference, TempDir};

#[test]
fn a_mixed_arity_load_is_refused_with_its_exact_error() {
    let dir = TempDir::new("mixed-arity");
    let server = Server::spawn(&ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let stored = dir.file("stored.dl", "p(1, 2).\n");
    assert!(c.load(stored.to_str().unwrap()).unwrap().ok);
    for (name, text, error) in [
        (
            "a.dl",
            "m(1).\nm(1, 2).\n",
            "fact for m has arity 2, relation registered with 1",
        ),
        (
            "b.dl",
            "m(1, 2).\nm(1).\n",
            "fact for m has arity 1, relation registered with 2",
        ),
        (
            "c.dl",
            "m(2).\nm(1, 2).\nm(3, 4, 5).\n",
            "fact for m has arity 2, relation registered with 1",
        ),
        (
            "d.dl",
            "m(3, 4, 5).\nm(2).\nm(1, 2).\n",
            "fact for m has arity 1, relation registered with 3",
        ),
        (
            "f.dl",
            "q(9).\np(1, 2, 3).\np(7).\n",
            "fact for p has arity 3, relation registered with 2",
        ),
    ] {
        let path = dir.file(name, text);
        let resp = c.load(path.to_str().unwrap()).unwrap();
        assert!(!resp.ok, "{name}");
        assert_eq!(resp.error, format!("{}: {error}", path.display()), "{name}");
    }
    // Nothing of the refused files was applied: the store holds `p(1, 2)`
    // alone.
    let resp = c.query("?- q(X).").unwrap();
    assert_eq!(resp.get("answers"), Some("0"));
    assert_eq!(resp.get("frontier"), Some("1"));
    server.shutdown();
    server.join();
}

/// The org schema of the load benchmark: `clean[n]`'s optimized program
/// contains `flagged[n]`'s, which contains `above[nn]`'s.
const ORG: &str = "above(X, Y) :- mgr(X, Y).
above(X, Y) :- mgr(X, Z), above(Z, Y).
peer(X, Y) :- mgr(Z, X), mgr(Z, Y).
skip(X, Y) :- mgr(X, Z), mgr(Z, Y).
flagged(X) :- above(X, Y), audit(Y).
clean(X) :- emp(X), not flagged(X).
clean(X) :- flagged(X), cleared(X).
";

/// The read benchmark's warm-up order on a 21-employee org — its ten hot
/// texts, then one text of each of its six rotating forms — leaves one
/// resident per closure: `clean[n]` (which holds `flagged[n]` and
/// `above[nn]`), `peer[nn]` and `skip[nn]`. Every answer equals the
/// unoptimized evaluation, through ingest, and after the holder is
/// poisoned the held form evaluates and pins its own program.
#[test]
fn the_org_warm_up_leaves_one_resident_per_closure() {
    let dir = TempDir::new("org-residency");
    let fault = Arc::new(FaultPlan::new());
    let state = ServerState::from_config(&ServerConfig {
        fault: Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut facts: String = (1..21)
        .map(|i| format!("mgr({}, {i}).\n", (i - 1) / 4))
        .collect();
    facts += &(0..21).map(|i| format!("emp({i}).\n")).collect::<String>();
    facts += "audit(6).\naudit(17).\ncleared(1).\n";
    let file = dir.file("org.dl", &format!("{ORG}{facts}"));
    assert!(state.handle(&Request::Load(file.display().to_string())).ok);
    let ask = |q: &str, facts: &str| {
        let resp = state.handle(&Request::query(q));
        assert!(resp.ok, "{q}: {}", resp.error);
        let want = no_optimize_reference(&format!("{ORG}{facts}{q}\n"));
        assert_eq!(resp.payload_text(), want, "{q}");
        let trace = state.handle(&Request::Trace).payload_text();
        let served_by = trace.split("\"served_by\":").nth(1).unwrap();
        let clean = served_by.contains("\"pred\":\"clean\",\"adornment\":\"n\"}");
        (resp.get("cache").unwrap().to_string(), clean)
    };
    let stat = |key: &str| {
        let stats = state.handle(&Request::Stats).payload_text();
        let at = stats.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        let digits = &stats[at..];
        digits[..digits.find(|c: char| !c.is_ascii_digit()).unwrap()]
            .parse::<u64>()
            .unwrap()
    };
    const HOT: [&str; 10] = [
        "?- above(_, _).",
        "?- peer(X, _).",
        "?- peer(_, Y).",
        "?- peer(_, _).",
        "?- skip(X, _).",
        "?- skip(_, Y).",
        "?- skip(_, _).",
        "?- flagged(_).",
        "?- clean(X).",
        "?- clean(_).",
    ];
    const ROTATING: [&str; 6] = [
        "?- above(X, 17).",
        "?- above(3, _).",
        "?- above(_, 9).",
        "?- peer(7, Y).",
        "?- skip(1, Y).",
        "?- flagged(2).",
    ];
    for q in HOT.iter().chain(&ROTATING) {
        ask(q, &facts);
    }
    assert_eq!(stat("resident_forms"), 3);
    // `above[dd]` was retired when `clean[n]` first answered `above[nn]`,
    // and its kept text read again off `clean[n]`.
    assert_eq!(ask(HOT[0], &facts), ("answers".to_string(), true));
    for q in ["?- above(X, 6).", "?- flagged(1).", "?- above(2, _)."] {
        assert_eq!(ask(q, &facts), ("resident".to_string(), true), "{q}");
    }
    // Ingest drains the one holder; held reads stay fresh.
    assert!(state.handle(&Request::Fact("mgr(17, 30).".into())).ok);
    facts += "mgr(17, 30).\n";
    for q in [
        "?- above(X, 30).",
        "?- above(X, 6).",
        "?- flagged(X).",
        "?- clean(X).",
    ] {
        assert_eq!(ask(q, &facts).1, q != "?- clean(X).", "{q}");
    }
    // The holder is the first live form the next drain reaches: poisoned,
    // `above[nn]` evaluates its own program and pins it.
    fault.fail_drains(1);
    assert!(state.handle(&Request::Fact("mgr(30, 31).".into())).ok);
    facts += "mgr(30, 31).\n";
    assert_eq!(stat("resident_poisonings"), 1);
    assert_eq!(ask("?- above(X, 31).", &facts), ("hit".to_string(), false));
    assert_eq!(
        ask("?- above(X, 6).", &facts),
        ("resident".to_string(), false)
    );
    assert_eq!(stat("resident_forms"), 3);
    assert!(stat("covered_reads") > 0);
}
