//! Differential fuzzing: random safe programs × random instances, evaluated
//! under every engine/optimizer configuration; any disagreement is a bug.
//!
//! The logic lives here (not in the `fuzz` binary) so the test suite can run
//! a small fixed-seed smoke round on every `cargo test`, keeping the
//! differential oracle exercised without a separate manual step.

use datalog_ast::{Ad, Adornment, Atom, PredRef, Term, Value, Var};
use datalog_engine::incremental::{DeltaLimits, Fact, ResidentEval};
use datalog_engine::oracle::{check_indexes, extract_by_matching};
use datalog_engine::{
    evaluate, extract_answers, query_answers, query_answers_full, Database, EvalOptions, PredId,
    Strategy,
};
use datalog_opt::{optimize, prepare, OptimizerConfig};

use crate::workloads::{edb_for, random_program, random_stratified_program};

/// Selective reads of `q`: its first variable bound to a constant the
/// instance stores, its last variable bound to one nothing stores, and —
/// with two variable positions — the last one repeating the first. (A query
/// without variables is already a point read and is returned as is.)
fn point_reads(q: &Atom, instance: &datalog_engine::FactSet) -> Vec<Atom> {
    let vars: Vec<usize> = (0..q.terms.len())
        .filter(|&i| q.terms[i].is_var())
        .collect();
    let (Some(&first), Some(&last)) = (vars.first(), vars.last()) else {
        return vec![q.clone()];
    };
    let domain = instance.active_domain();
    let stored = domain.iter().nth(domain.len() / 2).copied();
    let bind = |at: usize, term: Term| {
        let mut atom = q.clone();
        atom.terms[at] = term;
        atom
    };
    let mut reads: Vec<Atom> = stored
        .map(|c| bind(first, Term::Const(c)))
        .into_iter()
        .collect();
    reads.push(bind(last, Term::Const(Value::int(-1))));
    if first != last {
        reads.push(bind(last, q.terms[first]));
    }
    reads
}

/// Point-read arm, cold side: after a cold fixpoint the compiled read
/// (planned index or scan) must return what unifying the atom with every
/// stored fact returns. Returns disagreements found.
fn point_read_differential(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    mut complain: impl FnMut(&str),
) -> u64 {
    let (Some(q), Ok(cold)) = (
        &program.query,
        evaluate(program, instance, &EvalOptions::default()),
    ) else {
        return 0; // the reference arm already complained
    };
    let mut failures = 0;
    for atom in point_reads(&q.atom, instance) {
        if extract_answers(&atom, &cold.database) != extract_by_matching(&atom, &cold.database) {
            complain(&format!(
                "point read ?- {atom}. diverges from matching (cold)"
            ));
            failures += 1;
        }
    }
    failures
}

/// Facts the single-fact pass of [`incremental_differential`] holds back.
const SINGLE_FACT_TAIL: usize = 4;

/// Incremental maintenance arm: load part of the instance cold into
/// resident semi-naive state, then ingest the rest in batches. After every
/// batch the resident's storage must pass [`check_storage`], and its
/// frontier must match a cold full fixpoint over everything applied so far
/// — set-identical database dump and byte-identical query answers, for the
/// program's query and for its [`point_reads`] (resident, cold and the
/// matching oracle all agreeing; the resident reads create read indexes
/// that later batches grow).
///
/// Two passes: half the instance in batches of three (deltas about as long
/// as the relations, so variants keep the base join order), and all but the
/// last [`SINGLE_FACT_TAIL`] facts followed by one fact per batch (one-row
/// deltas against nearly full relations, so variants start from the delta).
/// Returns disagreements found.
fn incremental_differential(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    mut complain: impl FnMut(&str),
) -> u64 {
    if !ResidentEval::supports(program) {
        return 0; // unstratifiable programs fall outside the resident path
    }
    // FactSet iteration is BTreeMap-ordered, so the splits are deterministic.
    let facts: Vec<Fact> = instance
        .iter()
        .map(|(pred, tuple)| Fact::new(pred.clone(), tuple.clone()))
        .collect();
    let tail = facts.len().saturating_sub(SINGLE_FACT_TAIL);
    incremental_pass(program, &facts, facts.len() / 2, 3, &mut complain)
        + incremental_pass(program, &facts, tail, 1, &mut complain)
}

/// One pass of [`incremental_differential`]: `facts[..split]` loaded cold,
/// the rest ingested `chunk` facts per batch.
fn incremental_pass(
    program: &datalog_ast::Program,
    facts: &[Fact],
    split: usize,
    chunk: usize,
    mut complain: impl FnMut(&str),
) -> u64 {
    let mut failures = 0u64;
    let opts = EvalOptions {
        record_provenance: true,
        ..EvalOptions::default()
    };
    let mut loaded = datalog_engine::FactSet::new();
    for f in &facts[..split] {
        loaded.insert(f.pred.clone(), f.tuple.clone());
    }
    let mut r1 = match ResidentEval::new(program, &loaded, &opts) {
        Ok(r) => r,
        Err(e) => {
            complain(&format!("incremental: construction failed: {e}"));
            return failures + 1;
        }
    };
    for batch in facts[split..].chunks(chunk) {
        if let Err(e) = r1.apply_deltas(batch, &DeltaLimits::default()) {
            complain(&format!("incremental: propagation failed: {e}"));
            return failures + 1;
        }
        failures += check_storage(r1.database(), "incremental: storage", &mut complain);
        // Cold identity: a from-scratch fixpoint over everything applied so
        // far must reach the same model and the same rendered answers.
        for f in batch {
            loaded.insert(f.pred.clone(), f.tuple.clone());
        }
        let cold = match evaluate(program, &loaded, &opts) {
            Ok(out) => out,
            Err(e) => {
                complain(&format!("incremental: cold reference failed: {e}"));
                return failures + 1;
            }
        };
        if cold.database.dump() != r1.dump() {
            complain("incremental: resident frontier diverges from cold fixpoint");
            failures += 1;
        }
        if let Some(q) = &program.query {
            if extract_answers(&q.atom, &cold.database) != r1.answers(&q.atom) {
                complain("incremental: resident answers diverge from cold answers");
                failures += 1;
            }
            for atom in point_reads(&q.atom, &loaded) {
                let resident = r1.answers(&atom);
                if resident != extract_answers(&atom, &cold.database)
                    || resident != extract_by_matching(&atom, r1.database())
                {
                    complain(&format!(
                        "incremental: point read ?- {atom}. diverges (resident / cold / matching)"
                    ));
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// Covered- and held-read arm: a query server answers a form off a live
/// form that covers it (Lemma 3.2), or whose program holds it or a form
/// covering it (derives the form's answer relation by the same rules).
/// Prepare the query predicate's all-`n` form and make it resident over
/// the instance. Then, for the query predicate and every other derived
/// predicate whose all-`n` form the resident holds, read each of the
/// predicate's forms through it — the plain atom and its
/// [`point_reads`], with each `d` position a wildcard, spliced into the
/// form's own program when the resident holds that, else into the
/// predicate's all-`n` program. Each read must be byte-identical to the
/// form's own cold evaluation (its prepared program, instantiated with the
/// atom). Returns disagreements found.
fn covered_read_differential(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    mut complain: impl FnMut(&str),
) -> u64 {
    let (Some(q), Ok(arities)) = (&program.query, program.arities()) else {
        return 0;
    };
    let config = OptimizerConfig::default();
    // What the server runs every fixpoint with.
    let opts = EvalOptions {
        boolean_cut: true,
        reorder_joins: true,
        ..EvalOptions::default()
    };
    let prep = |pred: &PredRef, adornment: &Adornment| {
        prepare(&program.rules, pred, adornment, &config)
            .map_err(|e| format!("covered read: preparing {pred}[{adornment}] failed: {e}"))
    };
    let query_pred = &q.atom.pred;
    let cover = match prep(query_pred, &Adornment::all_needed(q.atom.arity())) {
        Ok(p) => p,
        Err(msg) => {
            complain(&msg);
            return 1;
        }
    };
    if !ResidentEval::supports(&cover.program) {
        return 0; // unstratifiable forms are never resident
    }
    let resident = match ResidentEval::new(&cover.program, instance, &opts) {
        Ok(r) => r,
        Err(e) => {
            complain(&format!("covered read: resident construction failed: {e}"));
            return 1;
        }
    };
    let mut failures = 0;
    for pred in program.idb_preds() {
        let arity = arities[&pred];
        let all_needed = Adornment::all_needed(arity);
        let held = if pred == *query_pred {
            cover.clone()
        } else {
            match prep(&pred, &all_needed) {
                Ok(p) if cover.holds(&p) => p,
                Ok(_) => continue,
                Err(msg) => {
                    complain(&msg);
                    failures += 1;
                    continue;
                }
            }
        };
        let full = Atom::new(
            pred.clone(),
            (0..arity).map(|i| Term::var(&format!("V{i}"))).collect(),
        );
        let mut reads = point_reads(&full, instance);
        reads.push(full);
        // Every adornment, `n` where `bits` has a one; the query
        // predicate's all-`n` form is the resident itself.
        for bits in 0..1usize << arity {
            let adornment: Adornment = (0..arity)
                .map(|i| if bits >> i & 1 == 1 { Ad::N } else { Ad::D })
                .collect();
            if pred == *query_pred && adornment == all_needed {
                continue;
            }
            let own = match prep(&pred, &adornment) {
                Ok(p) => p,
                Err(msg) => {
                    complain(&msg);
                    failures += 1;
                    continue;
                }
            };
            let via = if cover.holds(&own) { &own } else { &held };
            for read in &reads {
                let mut atom = read.clone();
                for i in adornment.existential_positions() {
                    atom.terms[i] = Term::Var(Var::fresh_wildcard());
                }
                let (Some(spliced), Some(own_program)) =
                    (via.instantiate_atom(&atom), own.instantiate(&atom))
                else {
                    complain(&format!("covered read: ?- {atom}. does not instantiate"));
                    failures += 1;
                    continue;
                };
                let covered = resident.answers(&spliced);
                match query_answers_full(&own_program, instance, &opts) {
                    Ok((want, _)) if want.to_string() == covered.to_string() => {}
                    Ok((want, _)) => {
                        complain(&format!(
                            "covered read: ?- {atom}. off {query_pred}[{}] as {}[{}] gives\n\
                             {covered}\nits own form [{adornment}] gives\n{want}\nprogram:\n{}",
                            cover.adornment,
                            via.program.query.as_ref().map_or(&pred, |q| &q.atom.pred),
                            via.adornment,
                            program.to_text()
                        ));
                        failures += 1;
                    }
                    Err(e) => {
                        complain(&format!(
                            "covered read: ?- {atom}. own evaluation failed: {e}"
                        ));
                        failures += 1;
                    }
                }
            }
        }
    }
    failures
}

/// Storage self-check: every relation of `db` against a scan of its own
/// rows ([`check_indexes`]) — each planned index probed with every stored
/// key and one absent key over the full id range, an empty one, an
/// interior one and a short suffix — then the same on a copy grown by one
/// fresh row, so each index also answers for a row inserted after it was
/// built. Returns the number of disagreements found.
fn check_storage(db: &Database, label: &str, mut complain: impl FnMut(&str)) -> u64 {
    let mut failures = 0;
    for p in 0..db.pred_count() {
        let id = PredId(p as u32);
        let rel = db.relation(id);
        // The generator stores small integers, so this row is fresh.
        let mut grown = rel.clone();
        grown.insert(&vec![Value::int(i64::MAX); rel.arity()]);
        for (copy, r) in [("", rel), (", grown", &grown)] {
            let n = r.len();
            let ranges = [
                (0, n),
                (n / 2, n / 2),
                (n / 3, 2 * n / 3),
                (n - n.min(3), n),
            ];
            if let Err(e) = check_indexes(r, &ranges) {
                complain(&format!("{label}: {}{copy}: {e}", db.pred_ref(id)));
                failures += 1;
            }
        }
    }
    failures
}

/// Storage arm: [`check_storage`] on the cold database (the incremental
/// arm checks each resident after every batch). Returns the number of
/// disagreements found.
fn storage_self_check(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    complain: impl FnMut(&str),
) -> u64 {
    // An evaluation failure is the reference arm's to report.
    match evaluate(program, instance, &EvalOptions::default()) {
        Ok(out) => check_storage(&out.database, "storage", complain),
        Err(_) => 0,
    }
}

/// Bound-soundness arm: the static size-bound analysis must never
/// under-approximate. Analyze the program, evaluate its bounds at the
/// instance's *true* EDB cardinalities, run the full fixpoint, and require
/// every derived predicate's actual fact count to sit at or under its
/// certified bound. Also checks the admission contract: a form the
/// analysis classifies unbounded must never be admitted to resident
/// incremental state. Returns the number of violations found.
fn bounds_soundness(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    mut complain: impl FnMut(&str),
) -> u64 {
    let report = match datalog_lint::analyze_bounds(program) {
        Ok(r) => r,
        Err(e) => {
            complain(&format!("bounds: analysis failed on a valid program: {e}"));
            return 1;
        }
    };
    let cards: std::collections::BTreeMap<String, u64> = report
        .edb
        .iter()
        .map(|p| (p.to_string(), instance.count(p) as u64))
        .collect();
    let out = match evaluate(program, instance, &EvalOptions::default()) {
        Ok(o) => o,
        // The reference arm already complained about the failure.
        Err(_) => return 0,
    };
    let mut failures = 0;
    for pred in &report.idb {
        let actual = out
            .database
            .pred_id(pred)
            .map_or(0, |id| out.database.relation(id).len()) as u64;
        let Some(bound) = report.eval_count(pred, &cards) else {
            complain(&format!("bounds: derived predicate {pred} has no verdict"));
            failures += 1;
            continue;
        };
        if actual > bound {
            complain(&format!(
                "bounds: {pred} derived {actual} facts, certified bound is {bound}"
            ));
            failures += 1;
        }
        if report.class_of(pred) == datalog_trace::BoundClass::Unbounded
            && ResidentEval::admits_bound_class(report.class_of(pred))
        {
            complain(&format!(
                "bounds: unbounded-classified {pred} admitted to resident state"
            ));
            failures += 1;
        }
    }
    failures
}

/// Rounds and base seed of the fixed `--smoke` configuration. Small enough
/// for a debug-profile test run, deterministic so failures reproduce.
pub const SMOKE_ROUNDS: u64 = 25;
/// Base seed used by `--smoke`.
pub const SMOKE_BASE_SEED: u64 = 1;

/// Run `rounds` differential rounds starting at `base` seed; returns the
/// number of failures. When `verbose` is false, per-failure diagnostics are
/// suppressed (the caller only wants the count).
pub fn run_rounds(rounds: u64, base: u64, verbose: bool) -> u64 {
    let mut failures = 0u64;
    macro_rules! complain {
        ($($arg:tt)*) => {
            if verbose {
                eprintln!($($arg)*);
            }
        };
    }
    for round in 0..rounds {
        let seed = base.wrapping_add(round);
        let program = random_program(seed);
        if program.validate().is_err() {
            complain!("seed {seed}: generator produced an invalid program");
            failures += 1;
            continue;
        }
        let instance = edb_for(&program, 4, 12, seed ^ 0xabcdef);
        let reference = match query_answers(&program, &instance, &EvalOptions::default()) {
            Ok((a, _)) => a.rows,
            Err(e) => {
                complain!("seed {seed}: reference evaluation failed: {e}");
                failures += 1;
                continue;
            }
        };
        let check =
            |label: &str, rows: &std::collections::BTreeSet<Vec<datalog_ast::Value>>| -> u64 {
                if *rows != reference {
                    complain!(
                        "seed {seed}: {label} disagrees with reference\nprogram:\n{}",
                        program.to_text()
                    );
                    1
                } else {
                    0
                }
            };
        // Naive strategy.
        let (a, _) = query_answers(
            &program,
            &instance,
            &EvalOptions {
                strategy: Strategy::Naive,
                ..EvalOptions::default()
            },
        )
        .expect("naive evaluates");
        failures += check("naive", &a.rows);
        // Reordered joins.
        let (a, _) = query_answers(
            &program,
            &instance,
            &EvalOptions {
                reorder_joins: true,
                ..EvalOptions::default()
            },
        )
        .expect("reordered evaluates");
        failures += check("reorder_joins", &a.rows);
        // Profiled evaluation must not change answers (and partitions the
        // global counters — checked in depth by the engine's tests).
        let (a, _) = query_answers(
            &program,
            &instance,
            &EvalOptions {
                profile: true,
                ..EvalOptions::default()
            },
        )
        .expect("profiled evaluates");
        failures += check("profiled", &a.rows);
        // Point reads of the query off the cold database vs the matching
        // oracle.
        failures += point_read_differential(&program, &instance, |msg| {
            complain!("seed {seed}: {msg}");
        });
        // Incremental maintenance: resident frontier vs cold fixpoint after
        // every ingested batch.
        failures += incremental_differential(&program, &instance, |msg| {
            complain!("seed {seed}: {msg}");
        });
        // Stratified incremental maintenance: the same arm over a program
        // with negation, unoptimized, so batches that grow a negated
        // predicate recompute the strata above it.
        let stratified = random_stratified_program(seed);
        let strat_instance = edb_for(&stratified, 4, 12, seed ^ 0x5712_a71f);
        failures += incremental_differential(&stratified, &strat_instance, |msg| {
            complain!(
                "seed {seed}: stratified {msg}\nprogram:\n{}",
                stratified.to_text()
            );
        });
        // Covered and held reads: every other form of the query predicate,
        // and every form of a predicate it holds, read off its resident
        // all-`n` form vs that form's own cold evaluation.
        failures += covered_read_differential(&program, &instance, |msg| {
            complain!("seed {seed}: {msg}");
        });
        // Storage: every index of the cold databases against a scan.
        failures += storage_self_check(&program, &instance, |msg| {
            complain!("seed {seed}: {msg}");
        });
        // Static size bounds: actual derived counts never exceed the
        // certified bound at the instance's true cardinalities.
        failures += bounds_soundness(&program, &instance, |msg| {
            complain!("seed {seed}: {msg}");
        });
        // Full optimizer (+ cut).
        match optimize(&program, &OptimizerConfig::default()) {
            Ok(out) => {
                let (a, _) = query_answers(
                    &out.program,
                    &instance,
                    &EvalOptions {
                        boolean_cut: true,
                        ..EvalOptions::default()
                    },
                )
                .expect("optimized evaluates");
                failures += check("optimizer", &a.rows);
            }
            Err(e) => {
                complain!("seed {seed}: optimizer failed: {e}");
                failures += 1;
            }
        }
        // Aggressive optimizer (auto-fold).
        match optimize(&program, &OptimizerConfig::aggressive()) {
            Ok(out) => {
                let (a, _) = query_answers(
                    &out.program,
                    &instance,
                    &EvalOptions {
                        boolean_cut: true,
                        ..EvalOptions::default()
                    },
                )
                .expect("aggressive evaluates");
                failures += check("aggressive-optimizer", &a.rows);
            }
            Err(e) => {
                complain!("seed {seed}: aggressive optimizer failed: {e}");
                failures += 1;
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixed-seed smoke configuration must stay green: it is the same
    /// oracle the `fuzz --smoke` binary invocation runs.
    #[test]
    fn smoke_rounds_find_no_disagreements() {
        assert_eq!(run_rounds(SMOKE_ROUNDS, SMOKE_BASE_SEED, true), 0);
    }
}
