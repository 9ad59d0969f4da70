//! Differential fuzzing: random safe programs × random instances, evaluated
//! under every engine/optimizer configuration; any disagreement is a bug.
//!
//! The logic lives here (not in the `fuzz` binary) so the test suite can run
//! a small fixed-seed smoke round on every `cargo test`, keeping the
//! differential oracle exercised without a separate manual step.

use datalog_ast::{Atom, Term, Value};
use datalog_engine::incremental::{DeltaLimits, Fact, ResidentEval};
use datalog_engine::oracle::{check_indexes, extract_by_matching};
use datalog_engine::{
    evaluate, extract_answers, query_answers, Database, EvalOptions, PredId, Strategy,
};
use datalog_opt::{optimize, OptimizerConfig};

use crate::workloads::{edb_for, random_program};

/// Parallel determinism arm: evaluate one program at 1, 2 and 8 threads —
/// profiled and unprofiled — and require *byte* identity: every relation's
/// rows in insertion order (not just the answer set), the full stats
/// partition, provenance, and (walls aside, which legitimately vary) the
/// profile counters. Returns the number of disagreements found.
fn thread_differential(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    mut complain: impl FnMut(&str),
) -> u64 {
    let mut failures = 0u64;
    for profile in [false, true] {
        let opts = |threads: usize| EvalOptions {
            threads,
            profile,
            record_provenance: true,
            ..EvalOptions::default()
        };
        let serial = evaluate(program, instance, &opts(1)).expect("serial evaluates");
        for threads in [2usize, 8] {
            let label = format!("threads={threads} profile={profile}");
            let par = match evaluate(program, instance, &opts(threads)) {
                Ok(out) => out,
                Err(e) => {
                    complain(&format!("{label}: evaluation failed: {e}"));
                    failures += 1;
                    continue;
                }
            };
            if par.stats != serial.stats {
                complain(&format!(
                    "{label}: stats diverge\n serial: {:?}\n parallel: {:?}",
                    serial.stats, par.stats
                ));
                failures += 1;
            }
            if par.provenance != serial.provenance {
                complain(&format!("{label}: provenance diverges"));
                failures += 1;
            }
            let rows_match = (0..serial.database.pred_count()).all(|p| {
                let id = datalog_engine::PredId(p as u32);
                serial
                    .database
                    .relation(id)
                    .iter()
                    .eq(par.database.relation(id).iter())
            });
            if serial.database.pred_count() != par.database.pred_count() || !rows_match {
                complain(&format!("{label}: databases diverge (row-id order)"));
                failures += 1;
            }
            let sp = serial.profile.as_ref().map(|p| p.counters_only());
            let pp = par.profile.as_ref().map(|p| p.counters_only());
            if sp != pp {
                complain(&format!("{label}: profile counters diverge"));
                failures += 1;
            }
        }
    }
    failures
}

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
/// resident semi-naive state at 1 and 4 threads, then ingest the rest in
/// batches. After every batch the two resident frontiers must be *byte*
/// identical (rows in insertion order, provenance, per-batch reports modulo
/// wall time, cumulative stats), and the 1-thread frontier must match a
/// cold full fixpoint over everything applied so far — set-identical
/// database dump and byte-identical query answers, for the program's query
/// and for its [`point_reads`] (resident, cold and the matching oracle
/// all agreeing; the resident reads create read indexes that later batches
/// leave with uncovered rows).
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
        return 0; // non-monotone programs fall outside the resident path
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
    let opts = |threads: usize| EvalOptions {
        threads,
        record_provenance: true,
        ..EvalOptions::default()
    };
    let mut loaded = datalog_engine::FactSet::new();
    for f in &facts[..split] {
        loaded.insert(f.pred.clone(), f.tuple.clone());
    }
    let mut residents = Vec::new();
    for threads in [1usize, 4] {
        match ResidentEval::new(program, &loaded, &opts(threads)) {
            Ok(r) => residents.push(r),
            Err(e) => {
                complain(&format!("incremental: construction@{threads} failed: {e}"));
                return failures + 1;
            }
        }
    }
    let [ref mut r1, ref mut r4] = residents[..] else {
        unreachable!()
    };
    for batch in facts[split..].chunks(chunk) {
        let limits = DeltaLimits::default();
        let (rep1, rep4) = match (
            r1.apply_deltas(batch, &limits),
            r4.apply_deltas(batch, &limits),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                complain(&format!("incremental: propagation failed: {a:?} / {b:?}"));
                return failures + 1;
            }
        };
        // Thread identity: reports agree field-for-field (walls aside).
        let strip = |r: &datalog_engine::incremental::DeltaReport| {
            let mut r = *r;
            r.wall_ns = 0;
            r
        };
        if strip(&rep1) != strip(&rep4) {
            complain(&format!(
                "incremental: batch reports diverge across threads\n 1: {rep1:?}\n 4: {rep4:?}"
            ));
            failures += 1;
        }
        if r1.cumulative_stats() != r4.cumulative_stats() {
            complain("incremental: cumulative stats diverge across threads");
            failures += 1;
        }
        if r1.provenance() != r4.provenance() {
            complain("incremental: provenance diverges across threads");
            failures += 1;
        }
        let rows_match = (0..r1.database().pred_count()).all(|p| {
            let id = datalog_engine::PredId(p as u32);
            r1.database()
                .relation(id)
                .iter()
                .eq(r4.database().relation(id).iter())
        });
        if r1.database().pred_count() != r4.database().pred_count() || !rows_match {
            complain("incremental: resident databases diverge (row-id order)");
            failures += 1;
        }
        for (threads, r) in [(1, &*r1), (4, &*r4)] {
            let label = format!("incremental: storage@threads={threads}");
            failures += check_storage(r.database(), &label, &mut complain);
        }
        // Cold identity: a from-scratch fixpoint over everything applied so
        // far must reach the same model and the same rendered answers.
        for f in batch {
            loaded.insert(f.pred.clone(), f.tuple.clone());
        }
        let cold = match evaluate(program, &loaded, &opts(1)) {
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

/// Storage self-check: every relation of `db` against a scan of its own
/// rows ([`check_indexes`]) — each planned index probed with every stored
/// key and one absent key over the full id range, an empty one, an
/// interior one and a short suffix — then the same on a copy grown by one
/// fresh row, so each index also answers from its mutable tail. Returns
/// the number of disagreements found.
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

/// Storage arm: [`check_storage`] on the cold databases at 1 and 4
/// threads (the incremental arm checks each resident after every batch).
/// Returns the number of disagreements found.
fn storage_self_check(
    program: &datalog_ast::Program,
    instance: &datalog_engine::FactSet,
    mut complain: impl FnMut(&str),
) -> u64 {
    let mut failures = 0;
    for threads in [1usize, 4] {
        let opts = EvalOptions {
            threads,
            ..EvalOptions::default()
        };
        // An evaluation failure is the reference arm's to report.
        if let Ok(out) = evaluate(program, instance, &opts) {
            let label = format!("storage@threads={threads}");
            failures += check_storage(&out.database, &label, &mut complain);
        }
    }
    failures
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
        // Parallel determinism: byte-identical databases, stats partitions,
        // provenance, and profile counters at 1 vs 2 vs 8 threads.
        failures += thread_differential(&program, &instance, |msg| {
            complain!("seed {seed}: {msg}");
        });
        // Incremental maintenance: resident frontier vs cold fixpoint, at
        // 1 and 4 threads, after every ingested batch.
        failures += incremental_differential(&program, &instance, |msg| {
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
