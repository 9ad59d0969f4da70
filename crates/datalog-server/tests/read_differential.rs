//! The compiled read against the implementation it replaced.
//!
//! `extract_answers` and `ResidentEval::answers` execute a read plan
//! (membership test, index probe, or projection-only scan — through a
//! planned index, a lazily created read index with an uncovered tail, or no
//! index at all). `oracle::extract_by_matching` is the old extraction:
//! unify the query atom with every stored fact. For every atom shape, in
//! every storage situation a served relation can be in, the two must return
//! the same `AnswerSet` and `render_answers` the same bytes.
//!
//! A server also reads a query off a live form that *covers* the query's
//! own (Lemma 3.2): the last test holds every such read to the covered
//! form's own cold evaluation.

use datalog_ast::{parse_program, Adornment, Atom, PredRef, Program, Term, Value, Var};
use datalog_engine::incremental::{DeltaLimits, Fact, ResidentEval};
use datalog_engine::oracle::extract_by_matching;
use datalog_engine::storage::TAIL_LIMIT;
use datalog_engine::{
    evaluate, extract_answers, query_answers_full, AnswerSet, Database, EvalOptions, FactSet,
};
use datalog_opt::{prepare, OptimizerConfig};
use datalog_server::render_answers;

/// Arities 1, 2 (base and derived) and 3.
const RULES: &str = "a(X, Y) :- e(X, Y).\n\
                     a(X, Y) :- e(X, Z), a(Z, Y).\n\
                     t(X, Y, Z) :- e(X, Y), e(Y, Z).\n\
                     n(X) :- e(X, _).\n\
                     ?- a(X, Y).";

/// No recursion, so a few thousand edges stay a few thousand facts.
const FLAT_RULES: &str = "t(X, Y, Z) :- e(X, Y), e(Y, Z).\n\
                          n(X) :- e(X, _).\n\
                          ?- t(X, Y, Z).";

const PREDS: [(&str, usize); 4] = [("e", 2), ("a", 2), ("t", 3), ("n", 1)];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Node `i`: mostly integers, every fifth a symbol.
fn node(i: usize) -> Value {
    if i % 5 == 4 {
        Value::sym(&format!("n{i}"))
    } else {
        Value::int(i as i64)
    }
}

/// `count` random edges over `nodes` nodes, duplicates removed, in draw
/// order.
fn edges(nodes: usize, count: usize, rng: &mut Rng) -> Vec<Fact> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    while out.len() < count {
        let (x, y) = (rng.below(nodes), rng.below(nodes));
        if seen.insert((x, y)) {
            out.push(Fact::new(PredRef::new("e"), vec![node(x), node(y)]));
        }
    }
    out
}

fn factset(facts: &[Fact]) -> FactSet {
    facts
        .iter()
        .map(|f| (f.pred.clone(), f.tuple.clone()))
        .collect()
}

fn program(src: &str) -> Program {
    parse_program(src).unwrap().program
}

/// Every query shape over `pred`: each position is a constant drawn from
/// the relation (`present`), a constant nothing stores, one of three named
/// variables (so any two positions may repeat one), or a wildcard — 6^arity
/// atoms: all free, fully bound, one and two bound columns, a repeated
/// variable with and without a constant beside it.
fn atoms(db: &Database, pred: &str, arity: usize, rng: &mut Rng) -> Vec<Atom> {
    let rel = db.pred_id(&PredRef::new(pred)).map(|id| db.relation(id));
    let domain: Vec<Value> = db.active_domain().into_iter().collect();
    let absent = [Value::int(-7), Value::sym("nobody")];
    let mut out = Vec::new();
    for shape in 0..6usize.pow(arity as u32) {
        // Half the atoms take their constants from one stored row, so that
        // two bound columns can both hit; the rest draw from the domain.
        let from_row = rel
            .filter(|r| !r.is_empty() && rng.below(2) == 0)
            .map(|r| r.row(rng.below(r.len())).to_vec());
        let terms = (0..arity)
            .map(|col| match shape / 6usize.pow(col as u32) % 6 {
                0 => Term::Const(match &from_row {
                    Some(row) => row[col],
                    None if domain.is_empty() => absent[0],
                    None => domain[rng.below(domain.len())],
                }),
                1 => Term::Const(absent[rng.below(2)]),
                2 => Term::var("X"),
                3 => Term::var("Y"),
                4 => Term::var("Z"),
                _ => Term::Var(Var::fresh_wildcard()),
            })
            .collect();
        out.push(Atom::new(PredRef::new(pred), terms));
    }
    out
}

fn all_atoms(db: &Database, rng: &mut Rng) -> Vec<Atom> {
    PREDS
        .iter()
        .flat_map(|&(pred, arity)| atoms(db, pred, arity, rng))
        .collect()
}

/// One read, against the oracle on the same database.
fn check(label: &str, q: &Atom, db: &Database, got: AnswerSet) {
    let want = extract_by_matching(q, db);
    assert_eq!(got, want, "{label}: ?- {q}.");
    assert_eq!(
        render_answers(&got),
        render_answers(&want),
        "{label}: ?- {q}."
    );
}

fn filled_slots(db: &Database) -> Vec<(String, usize, usize, usize)> {
    let mut out = Vec::new();
    for p in 0..db.pred_count() {
        let id = datalog_engine::PredId(p as u32);
        let rel = db.relation(id);
        for col in 0..rel.arity() {
            if let Some(covered) = rel.read_index_covered(col) {
                out.push((db.pred_ref(id).to_string(), col, covered, rel.len()));
            }
        }
    }
    out
}

#[test]
fn cold_reads_match_the_oracle_and_create_nothing() {
    for seed in 1..=3u64 {
        let mut rng = Rng(seed);
        let input = factset(&edges(12, 30, &mut rng));
        let out = evaluate(&program(RULES), &input, &EvalOptions::default()).unwrap();
        for q in all_atoms(&out.database, &mut rng) {
            let got = extract_answers(&q, &out.database);
            check(&format!("cold seed={seed}"), &q, &out.database, got);
        }
        assert_eq!(
            filled_slots(&out.database),
            [],
            "a cold read sorted a relation"
        );
    }
    // Nothing stored at all: every relation empty or unregistered.
    let out = evaluate(&program(RULES), &FactSet::new(), &EvalOptions::default()).unwrap();
    for q in all_atoms(&out.database, &mut Rng(9)) {
        let got = extract_answers(&q, &out.database);
        check("cold empty", &q, &out.database, got);
    }
}

#[test]
fn resident_reads_match_the_oracle_with_an_uncovered_tail_and_after_its_fold() {
    let mut rng = Rng(0xfeed);
    let facts = edges(48, 150, &mut rng);
    let (loaded, rest) = facts.split_at(40);
    let mut r =
        ResidentEval::new(&program(RULES), &factset(loaded), &EvalOptions::default()).unwrap();
    let read_all = |label: &str, r: &ResidentEval, rng: &mut Rng| {
        for q in all_atoms(r.database(), rng) {
            check(label, &q, r.database(), r.answers(&q));
        }
    };
    // First reads: every slot a constant asks for is created, fully
    // covering.
    read_all("resident first reads", &r, &mut rng);
    let created = filled_slots(r.database());
    assert!(!created.is_empty());
    assert!(created.iter().all(|(_, _, covered, len)| covered == len));
    let covered_of = |r: &ResidentEval, pred: &str, col: usize| {
        let slots = filled_slots(r.database());
        let slot = slots.iter().find(|s| s.0 == pred && s.1 == col);
        slot.map(|s| (s.2, s.3)).expect("slot stays filled")
    };
    // `a` on column 1 is the slot this test follows: no rule probes it, and
    // the closure grows by thousands of rows, one edge per batch.
    let (start, _) = covered_of(&r, "a", 1);
    let (mut read_with_tail, mut read_after_fold) = (false, false);
    for (i, f) in rest.iter().enumerate() {
        r.apply_deltas(std::slice::from_ref(f), &DeltaLimits::default())
            .unwrap();
        let (covered, len) = covered_of(&r, "a", 1);
        assert!(
            len - covered < TAIL_LIMIT,
            "a seal left {} rows",
            len - covered
        );
        if covered == start && len > covered && !read_with_tail {
            read_all("resident uncovered tail", &r, &mut rng);
            read_with_tail = true;
        } else if covered > start && !read_after_fold {
            read_all("resident after the fold", &r, &mut rng);
            read_after_fold = true;
        } else {
            // Between the checkpoints: a rotating sample after every batch.
            let sample = all_atoms(r.database(), &mut rng);
            for q in sample.iter().skip(i % 23).step_by(23) {
                check("resident single-fact batch", q, r.database(), r.answers(q));
            }
        }
    }
    assert!(read_with_tail && read_after_fold, "the run never folded");
    read_all("resident final", &r, &mut rng);
    // Reads never touched the planned indexes' columns.
    for (pred, col, _, _) in filled_slots(r.database()) {
        let id = r.database().pred_id(&PredRef::new(&pred)).unwrap();
        assert!(!r.database().relation(id).has_index(&[col]));
    }
}

#[test]
fn reads_match_the_oracle_across_the_tail_limit_and_after_consolidation() {
    let mut rng = Rng(0xbeef);
    let facts = edges(400, 2600, &mut rng);
    let (loaded, rest) = facts.split_at(1400);
    // `load_input` crosses TAIL_LIMIT on `e` (inserts seal on their own),
    // the fixpoint crosses it on `t`.
    let mut r = ResidentEval::new(
        &program(FLAT_RULES),
        &factset(loaded),
        &EvalOptions::default(),
    )
    .unwrap();
    assert!(r.storage_runs() >= 2);
    let read_sample = |label: &str, db: &Database, read: &dyn Fn(&Atom) -> AnswerSet| {
        let mut rng = Rng(label.len() as u64);
        for q in all_atoms(db, &mut rng).iter().step_by(2) {
            check(label, q, db, read(q));
        }
    };
    read_sample("past the limit", r.database(), &|q| r.answers(q));
    assert!(filled_slots(r.database()).len() >= 4);
    // One bulk batch: more than TAIL_LIMIT rows arrive between two reads,
    // so the slots are folded by the seals inside the propagation.
    r.apply_deltas(rest, &DeltaLimits::default()).unwrap();
    for (pred, col, covered, len) in filled_slots(r.database()) {
        assert!(
            len - covered < TAIL_LIMIT,
            "{pred}[{col}]: {covered} of {len}"
        );
    }
    read_sample("after a bulk batch", r.database(), &|q| r.answers(q));
    // A few more single facts, then full consolidation of a copy: every
    // slot covers its whole relation and `extract_answers` — which never
    // creates a slot — reads through the ones the copy carried over.
    for f in edges(400, 2700, &mut Rng(0xbeef)).iter().skip(2600).take(5) {
        r.apply_deltas(std::slice::from_ref(f), &DeltaLimits::default())
            .unwrap();
    }
    let mut copy = r.database().clone();
    for p in 0..copy.pred_count() {
        copy.relation_mut(datalog_engine::PredId(p as u32))
            .consolidate();
    }
    assert_eq!(copy.storage_runs(), 3, "one run per non-empty relation");
    let slots = filled_slots(&copy);
    assert_eq!(slots.len(), filled_slots(r.database()).len());
    assert!(slots.iter().all(|(_, _, covered, len)| covered == len));
    read_sample("consolidated", &copy, &|q| extract_answers(q, &copy));
    assert_eq!(filled_slots(&copy), slots);
}

/// Every atom of `pred`'s form `adornment`: each `d` position a wildcard,
/// each `n` position a constant of `row`, a constant nothing stores, or a
/// variable.
fn form_atoms(pred: &str, adornment: &str, row: &[Value]) -> Vec<Atom> {
    let needed: Vec<usize> = (adornment.bytes().enumerate())
        .filter_map(|(i, b)| (b == b'n').then_some(i))
        .collect();
    (0..3usize.pow(needed.len() as u32))
        .map(|shape| {
            let mut terms: Vec<Term> = (0..adornment.len())
                .map(|_| Term::Var(Var::fresh_wildcard()))
                .collect();
            for (k, &col) in needed.iter().enumerate() {
                terms[col] = match shape / 3usize.pow(k as u32) % 3 {
                    0 => Term::Const(row[col]),
                    1 => Term::Const(Value::int(-7)),
                    _ => Term::var(&format!("V{col}")),
                };
            }
            Atom::new(PredRef::new(pred), terms)
        })
        .collect()
}

#[test]
fn covered_reads_match_the_covered_forms_own_cold_evaluation() {
    let rules = program(RULES).rules;
    let opts = EvalOptions {
        boolean_cut: true,
        reorder_joins: true,
        ..EvalOptions::default()
    };
    let facts = edges(10, 24, &mut Rng(0xc0de));
    let (loaded, batch) = facts.split_at(16);
    for (pred, arity) in [("a", 2usize), ("t", 3)] {
        let prep = |ad: &Adornment| {
            prepare(&rules, &PredRef::new(pred), ad, &OptimizerConfig::default()).unwrap()
        };
        let cover = prep(&Adornment::all_needed(arity));
        let mut resident = ResidentEval::new(&cover.program, &factset(loaded), &opts).unwrap();
        for (label, input) in [("loaded", loaded), ("after a batch", &facts[..])] {
            if label != "loaded" {
                resident
                    .apply_deltas(batch, &DeltaLimits::default())
                    .unwrap();
            }
            let input = factset(input);
            // Constants of one stored row, so that bound columns can all hit.
            let cold = evaluate(&program(RULES), &input, &EvalOptions::default()).unwrap();
            let id = cold.database.pred_id(&PredRef::new(pred)).unwrap();
            let row = cold.database.relation(id).row(0).to_vec();
            for bits in 0..1usize << arity {
                let adornment: String = (0..arity)
                    .map(|i| if bits >> i & 1 == 1 { 'n' } else { 'd' })
                    .collect();
                let own = prep(&Adornment::parse(&adornment).unwrap());
                for atom in form_atoms(pred, &adornment, &row) {
                    let covered = resident.answers(&cover.instantiate_atom(&atom).unwrap());
                    let program = own.instantiate(&atom).unwrap();
                    let (want, _) = query_answers_full(&program, &input, &opts).unwrap();
                    assert_eq!(
                        render_answers(&covered),
                        render_answers(&want),
                        "{label}: ?- {atom}. read off {pred}[{}] as {pred}[{adornment}]",
                        cover.adornment
                    );
                }
            }
        }
    }
}
