//! `LOAD` of a file whose facts disagree about a predicate's arity is
//! refused with an exact error: the arity expected is the stored one,
//! else the first fact's in source order, and the arity reported is that
//! of the first fact that disagrees.

mod util;

use datalog_server::{Client, Server, ServerConfig};
use util::TempDir;

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
