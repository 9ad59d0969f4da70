//! `batch-run`'s input files: the paper's own path (`xdl run <file>`), at
//! sizes where a file takes a tenth of a second or more instead of
//! microseconds.
//!
//! Every generator is a function of `(size, seed)`: the seed shuffles the
//! fact order and picks labels and chords, but never changes how many
//! answers the query has, so each file carries a closed-form answer count
//! and the work is the same for every seed. (`org-clean` is the exception:
//! its count comes from the org model and moves by a fraction of a percent
//! with where the audit marks fall.) A *twin* is the same generator at a
//! small size, cheap enough to cross-check against `xdl run --no-optimize`.

use crate::org::{Org, Pred};
use crate::rng::SplitMix64;

/// Which layers a file exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The optimizer wins: parse + optimize + a small fixpoint.
    Existential,
    /// Irreducible: join + dedup + render dominate.
    Fixpoint,
}

/// One generated `.dl` file.
#[derive(Debug, Clone)]
pub struct BatchFile {
    pub name: &'static str,
    pub family: Family,
    /// Rules, facts and the query.
    pub text: String,
    /// Answer rows `xdl run` must print (header excluded), or `None` for a
    /// boolean query, which must print `true`.
    pub answers: Option<usize>,
    /// Facts outside the file's EDB that extend it consistently — what the
    /// ingest-side layer probes insert.
    pub extra: Vec<String>,
}

/// Right-recursive transitive closure (the paper's Example 1).
const TC: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n";
/// Left-recursive transitive closure (Examples 5/6).
const TC_LEFT: &str = "a(X, Y) :- a(X, Z), p(Z, Y).\na(X, Y) :- p(X, Y).\n";
/// Example 2: an existential subquery behind a boolean.
const BOM: &str =
    "q(X, Y) :- sub(X, Z), q(Z, Y), certified(W).\nq(X, Y) :- sub(X, Y), certified(W).\n";
/// Example 12, before adornment.
const UPDOWN: &str = "query(X, Y) :- p(X, Y, Z).\n\
p(X, Y, Z) :- up(X, X1), p(X1, Y1, Z), dn(Y1, Y), c(Z).\n\
p(X, Y, Z) :- b(X, Y, Z).\n";

/// Rules, then the facts in a seeded order, then the query.
fn assemble(rules: &str, mut facts: Vec<String>, query: &str, seed: u64, tag: &str) -> String {
    let mut rng = SplitMix64::stream(seed, tag);
    for i in (1..facts.len()).rev() {
        facts.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut text = String::with_capacity(rules.len() + facts.len() * 16 + query.len() + 1);
    text.push_str(rules);
    for f in &facts {
        text.push_str(f);
        text.push('\n');
    }
    text.push_str(query);
    text.push('\n');
    text
}

fn chain(n: u64) -> Vec<String> {
    (0..n).map(|i| format!("p({i}, {}).", i + 1)).collect()
}

/// `n` nodes on a ring plus one seeded chord per node: strongly connected
/// for every seed, so the closure is exactly `n * n`.
fn ring_with_chords(n: u64, seed: u64, tag: &str) -> Vec<String> {
    let mut rng = SplitMix64::stream(seed, tag);
    let mut edges: Vec<String> = Vec::with_capacity(2 * n as usize);
    for i in 0..n {
        edges.push(format!("p({i}, {}).", (i + 1) % n));
        // A chord that is neither a loop nor the ring edge.
        let j = (i + 2 + rng.below(n - 2)) % n;
        edges.push(format!("p({i}, {j})."));
    }
    edges
}

fn e1_chain(n: u64, seed: u64) -> BatchFile {
    BatchFile {
        name: "e1-chain",
        family: Family::Existential,
        text: assemble(TC, chain(n), "?- a(X, _).", seed, "e1-chain"),
        answers: Some(n as usize),
        extra: (n..n + 64).map(|i| format!("p({i}, {}).", i + 1)).collect(),
    }
}

fn e1_digraph(n: u64, seed: u64) -> BatchFile {
    BatchFile {
        name: "e1-digraph",
        family: Family::Existential,
        text: assemble(
            TC,
            ring_with_chords(n, seed, "e1-digraph.edges"),
            "?- a(X, _).",
            seed,
            "e1-digraph",
        ),
        // Every node has an out-edge.
        answers: Some(n as usize),
        extra: (0..64).map(|i| format!("p({}, {i}).", n + i)).collect(),
    }
}

fn e2_bom(parts: u64, certified: u64, seed: u64) -> BatchFile {
    let fanout = 2;
    let mut facts = Vec::new();
    let mut with_subparts = 0;
    for p in 0..parts {
        let before = facts.len();
        for k in 1..=fanout {
            let q = p * fanout + k;
            if q < parts {
                facts.push(format!("sub({p}, {q})."));
            }
        }
        if facts.len() > before {
            with_subparts += 1;
        }
    }
    facts.extend((0..certified).map(|s| format!("certified({s}).")));
    BatchFile {
        name: "e2-bom",
        family: Family::Existential,
        text: assemble(BOM, facts, "?- q(X, _).", seed, "e2-bom"),
        answers: Some(with_subparts),
        extra: (0..64)
            .map(|i| format!("certified({}).", certified + i))
            .collect(),
    }
}

fn e3_leftrec(n: u64, seed: u64) -> BatchFile {
    BatchFile {
        name: "e3-leftrec",
        family: Family::Existential,
        text: assemble(TC_LEFT, chain(n), "?- a(X, _).", seed, "e3-leftrec"),
        answers: Some(n as usize),
        extra: (n..n + 64).map(|i| format!("p({i}, {}).", i + 1)).collect(),
    }
}

/// Transitive closure carrying four dead payload columns (§3.2, E7).
fn e7_padded(n: u64, seed: u64) -> BatchFile {
    let rules = "a(X, Y, E1, E2, E3, E4) :- p(X, Z, F1, F2, F3, F4), a(Z, Y, E1, E2, E3, E4).\n\
                 a(X, Y, E1, E2, E3, E4) :- p(X, Y, E1, E2, E3, E4).\n";
    let mut rng = SplitMix64::stream(seed, "e7-padded.payload");
    let mut pad = |i: u64| {
        let cols: Vec<String> = (0..4).map(|_| rng.below(8).to_string()).collect();
        format!("p({i}, {}, {}).", i + 1, cols.join(", "))
    };
    let facts: Vec<String> = (0..n).map(&mut pad).collect();
    let extra = (n..n + 64).map(&mut pad).collect();
    BatchFile {
        name: "e7-padded",
        family: Family::Existential,
        text: assemble(rules, facts, "?- a(X, _, _, _, _, _).", seed, "e7-padded"),
        answers: Some(n as usize),
        extra,
    }
}

fn tc_allpairs(n: u64, seed: u64) -> BatchFile {
    BatchFile {
        name: "tc-allpairs",
        family: Family::Fixpoint,
        text: assemble(
            TC,
            ring_with_chords(n, seed, "tc.edges"),
            "?- a(X, Y).",
            seed,
            "tc-allpairs",
        ),
        answers: Some((n * n) as usize),
        extra: (0..64).map(|i| format!("p({}, {i}).", n + i)).collect(),
    }
}

/// The E6 shape: one bound constant. `xdl run` has no magic-sets path, so
/// it computes the whole closure; this file is the before-number for one.
fn tc_bound(n: u64, seed: u64) -> BatchFile {
    BatchFile {
        name: "tc-bound",
        family: Family::Fixpoint,
        // The same graph as `tc-allpairs`.
        text: assemble(
            TC,
            ring_with_chords(n, seed, "tc.edges"),
            "?- a(5, Y).",
            seed,
            "tc-bound",
        ),
        answers: Some(n as usize),
        extra: (0..64).map(|i| format!("p({}, {i}).", n + i)).collect(),
    }
}

/// Example 12's towers: `levels` up-edges and down-edges per column,
/// `width` columns joined at the base, three quarters of them passing `c`.
fn updown(levels: u64, width: u64, seed: u64) -> BatchFile {
    let node = |l: u64, off: u64| l * width + off;
    let dnode = |l: u64, off: u64| 1_000_000 + l * width + off;
    let z = |off: u64| 2_000_000 + off;
    let mut facts = Vec::new();
    for l in 0..levels {
        for off in 0..width {
            facts.push(format!("up({}, {}).", node(l, off), node(l + 1, off)));
            facts.push(format!("dn({}, {}).", dnode(l + 1, off), dnode(l, off)));
        }
    }
    for off in 0..width {
        facts.push(format!(
            "b({}, {}, {}).",
            node(levels, off),
            dnode(levels, off),
            z(off)
        ));
    }
    let passing = (width * 3 / 4) as usize;
    let mut rng = SplitMix64::stream(seed, "updown.c");
    let chosen = rng.sample(0, width, passing);
    facts.extend(chosen.iter().map(|&off| format!("c({}).", z(off))));
    let extra = (0..width)
        .filter(|off| !chosen.contains(off))
        .map(|off| format!("c({}).", z(off)))
        .collect();
    BatchFile {
        name: "updown",
        family: Family::Fixpoint,
        text: assemble(UPDOWN, facts, "?- query(X, Y).", seed, "updown"),
        // A passing column answers at every level, the others at the base.
        answers: Some(passing * levels as usize + width as usize),
        extra,
    }
}

fn org_clean(levels: u32, seed: u64) -> BatchFile {
    let org = Org::generate(levels, seed);
    BatchFile {
        name: "org-clean",
        family: Family::Fixpoint,
        text: assemble(
            crate::org::RULES,
            org.fact_lines(),
            "?- clean(X).",
            seed,
            "org-clean",
        ),
        answers: Some(org.derived_count(Pred::Clean)),
        extra: (0..64)
            .map(|i| format!("mgr({i}, {}).", 1_000_000 + i))
            .collect(),
    }
}

/// Sizes of the timed files, or of their twins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Twin,
}

/// The nine files, existential family first.
pub fn files(seed: u64, scale: Scale) -> Vec<BatchFile> {
    let full = scale == Scale::Full;
    let pick = |f: u64, t: u64| if full { f } else { t };
    vec![
        e1_chain(pick(80_000, 48), seed),
        e1_digraph(pick(40_000, 40), seed),
        e2_bom(pick(256, 32), pick(150_000, 50), seed),
        e3_leftrec(pick(80_000, 48), seed),
        e7_padded(pick(50_000, 40), seed),
        tc_allpairs(pick(384, 24), seed),
        updown(pick(224, 8), pick(32, 8), seed),
        org_clean(if full { 8 } else { 3 }, seed),
        tc_bound(pick(384, 24), seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fnv1a64;

    #[test]
    fn files_are_seeded_and_named_once() {
        let a = files(1, Scale::Twin);
        let b = files(1, Scale::Twin);
        let c = files(2, Scale::Twin);
        assert_eq!(a.len(), 9);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.text, y.text, "{} repeats for one seed", x.name);
            assert_ne!(x.text, z.text, "{} differs across seeds", x.name);
            // The seed never changes the amount of work.
            if x.name != "org-clean" {
                assert_eq!(x.text.lines().count(), z.text.lines().count());
                assert_eq!(x.answers, z.answers, "{}", x.name);
            }
        }
        let names: std::collections::BTreeSet<&str> = a.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), 9);
        assert_eq!(
            a.iter().filter(|f| f.family == Family::Existential).count(),
            5
        );
    }

    #[test]
    fn closed_forms_on_twins() {
        let t = files(1, Scale::Twin);
        let by = |n: &str| t.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by("e1-chain").answers, Some(48));
        assert_eq!(by("e1-digraph").answers, Some(40));
        // Parts 0..=15 of 32 have a subpart 2p+1 < 32.
        assert_eq!(by("e2-bom").answers, Some(16));
        assert_eq!(by("tc-allpairs").answers, Some(24 * 24));
        assert_eq!(by("tc-bound").answers, Some(24));
        // 6 of 8 columns pass c: 6 * 8 levels + 8 base pairs.
        assert_eq!(by("updown").answers, Some(6 * 8 + 8));
        assert!(by("org-clean").answers.unwrap() > 15);
    }

    #[test]
    fn ring_chords_are_never_loops_or_ring_edges() {
        for e in ring_with_chords(10, 3, "t").chunks(2) {
            let parse = |s: &str| -> (u64, u64) {
                let inner = &s[2..s.len() - 2];
                let (a, b) = inner.split_once(", ").unwrap();
                (a.parse().unwrap(), b.parse().unwrap())
            };
            let (i, next) = parse(&e[0]);
            let (i2, j) = parse(&e[1]);
            assert_eq!(i, i2);
            assert_eq!(next, (i + 1) % 10);
            assert!(j != i && j != next);
        }
    }

    /// Byte length and FNV-1a of every generated file for seed 1.
    #[test]
    fn full_size_files_are_pinned_for_seed_one() {
        let got: Vec<(&str, usize, u64)> = files(1, Scale::Full)
            .iter()
            .map(|f| (f.name, f.text.len(), fnv1a64(f.text.as_bytes())))
            .collect();
        assert_eq!(got, PINNED);
    }
    const PINNED: [(&str, usize, u64); 9] = [
        ("e1-chain", 1337845, 15411401878603948546),
        ("e1-digraph", 1315671, 9931390585374708652),
        ("e2-bom", 2742480, 7622245361646461691),
        ("e3-leftrec", 1337845, 7525774538520284154),
        ("e7-padded", 1427937, 8331755102830332368),
        ("tc-allpairs", 9603, 11313411207178481957),
        ("updown", 271515, 7000803495096726064),
        ("org-clean", 632000, 5275133958130050790),
        ("tc-bound", 9603, 5295913245919631928),
    ];
}
