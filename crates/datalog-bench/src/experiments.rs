//! The experiment suite (E1–E10). See DESIGN.md §5 for the index
//! mapping each experiment to its paper anchor, and EXPERIMENTS.md for
//! recorded results and shape expectations.
//!
//! Every experiment compares *the same answers computed with less work*:
//! rows report facts derived, duplicate hits, tuples scanned, iterations
//! and median wall time for each program variant on each workload.

use datalog_ast::{parse_program, Program};
use datalog_engine::{EvalOptions, Strategy};
use datalog_magic::magic_rewrite;
use datalog_opt::paper;
use datalog_opt::{optimize, OptimizerConfig};

use crate::measure::{measure, ExperimentResult};
use crate::workloads;

fn parse(src: &str) -> Program {
    parse_program(src)
        .expect("experiment program parses")
        .program
}

fn optimized(src: &str) -> Program {
    optimize(&parse(src), &OptimizerConfig::default())
        .expect("experiment program optimizes")
        .program
}

const RUNS: usize = 3;

/// E1 — Examples 1/3: projection pushing turns binary transitive closure
/// into unary reachability.
pub fn e1(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e1",
        "projection pushing: binary TC vs unary reachability (Examples 1/3/4)",
    );
    r.note("expect: optimized derives O(n) facts vs O(n^2); gap grows with n");
    let original = parse(paper::EXAMPLE_1);
    let opt = optimized(paper::EXAMPLE_1);
    r.note(format!(
        "optimized program: {}",
        opt.to_text().replace('\n', "  ")
    ));
    let sizes: &[i64] = if quick {
        &[32, 64]
    } else {
        &[128, 256, 512, 1024]
    };
    for &n in sizes {
        let edb = workloads::chain("p", n);
        let params = format!("chain n={n}");
        measure(
            &mut r,
            "original",
            &params,
            &original,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "optimized",
            &params,
            &opt,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    let gsizes: &[(i64, usize)] = if quick {
        &[(64, 128)]
    } else {
        &[(256, 512), (512, 1024)]
    };
    for &(n, m) in gsizes {
        let edb = workloads::random_digraph("p", n, m, 42);
        let params = format!("rand n={n} m={m}");
        measure(
            &mut r,
            "original",
            &params,
            &original,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "optimized",
            &params,
            &opt,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    r
}

/// E2 — Example 2 / §3.1: boolean-cut retirement of existential subqueries.
pub fn e2(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e2",
        "boolean cut: existential subquery fenced behind a boolean (Example 2, section 3.1)",
    );
    r.note(
        "expect: original rescans `certified` per binding; optimized proves b1 once and retires it",
    );
    const SRC: &str = "q(X, Y) :- sub(X, Z), q(Z, Y), certified(W).\n\
                       q(X, Y) :- sub(X, Y), certified(W).\n\
                       ?- q(X, _).";
    let original = parse(SRC);
    let opt = optimized(SRC);
    let cut_opts = EvalOptions {
        boolean_cut: true,
        ..EvalOptions::default()
    };
    let certs: &[i64] = if quick {
        &[100, 1000]
    } else {
        &[100, 1000, 10_000, 100_000]
    };
    for &c in certs {
        let mut edb = workloads::bom(if quick { 64 } else { 256 }, 2, c);
        edb.extend(&workloads::chain("unused", 0));
        let params = format!("bom certified={c}");
        measure(
            &mut r,
            "original",
            &params,
            &original,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "optimized+cut",
            &params,
            &opt,
            &edb,
            &cut_opts,
            RUNS,
        );
    }
    r
}

/// E3 — Examples 5/6 / §4: uniform query equivalence eliminates the
/// recursion that uniform equivalence cannot touch.
pub fn e3(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e3",
        "uniform query equivalence: left-recursive TC collapses to its exit rule (Examples 5/6)",
    );
    r.note("expect: uniform-only keeps all four adorned rules; UQE leaves one non-recursive rule");
    const SRC: &str = "a(X, Y) :- a(X, Z), p(Z, Y).\n\
                       a(X, Y) :- p(X, Y).\n\
                       ?- a(X, _).";
    let original = parse(SRC);
    let full = optimized(SRC);
    let uniform_only = {
        let mut cfg = OptimizerConfig::default();
        cfg.freeze.uqe = false;
        cfg.summary.add_cover_unit_rules = false;
        optimize(&original, &cfg).unwrap().program
    };
    r.note(format!(
        "uniform-only: {} rule(s); full: {} rule(s)",
        uniform_only.rules.len(),
        full.rules.len()
    ));
    let sizes: &[i64] = if quick {
        &[32, 64]
    } else {
        &[128, 256, 512, 1024]
    };
    for &n in sizes {
        let edb = workloads::chain("p", n);
        let params = format!("chain n={n}");
        measure(
            &mut r,
            "original",
            &params,
            &original,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "uniform-only",
            &params,
            &uniform_only,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "uqe-full",
            &params,
            &full,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    r
}

/// E4 — Examples 7/8/10: summary-based deletion (Lemmas 5.1/5.3,
/// Algorithms 5.1/5.2) on the paper's own programs.
pub fn e4(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e4",
        "summary-based rule deletion on the paper's programs (Examples 7/8/10)",
    );
    let n: i64 = if quick { 16 } else { 64 };
    let per: usize = if quick { 64 } else { 512 };
    for name in ["example_7", "example_8", "example_10"] {
        let original = paper::parse_example(name).unwrap();
        let out = optimize(&original, &OptimizerConfig::default()).unwrap();
        r.note(format!(
            "{name}: {} -> {} rules (weakest level {})",
            out.report.rules_before,
            out.report.rules_after,
            out.report.weakest_level()
        ));
        let edb = workloads::edb_for(&original, n, per, 11);
        let params = format!("{name} n={n} per_rel={per}");
        measure(
            &mut r,
            "original",
            &params,
            &original,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "optimized",
            &params,
            &out.program,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    r
}

/// E5 — Example 12 / §6: the literal-moving transformation reduces the
/// recursive predicate's arity from 3 to 2.
pub fn e5(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e5",
        "Example 12: moving c(Z) out of the recursion (arity 3 -> 2)",
    );
    r.note("expect: transformed scans c once per base triple instead of once per recursive step");
    let adorned = parse(paper::EXAMPLE_12_ADORNED);
    let transformed = parse(paper::EXAMPLE_12_TRANSFORMED);
    let shapes: &[(i64, i64, f64)] = if quick {
        &[(16, 8, 0.5)]
    } else {
        &[(64, 32, 1.0), (64, 32, 0.5), (64, 32, 0.1), (256, 32, 0.5)]
    };
    for &(levels, width, sel) in shapes {
        let edb = workloads::updown(levels, width, sel, 5);
        let params = format!("updown levels={levels} width={width} c_sel={sel}");
        measure(
            &mut r,
            "adorned(3-ary)",
            &params,
            &adorned,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "transformed(2-ary)",
            &params,
            &transformed,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    r
}

/// E6 — §1/§6 orthogonality: existential optimization composes with Magic
/// Sets on a bound existential query.
pub fn e6(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e6",
        "orthogonality: existential optimization x Magic Sets (bound existential query)",
    );
    r.note("expect: each rewriting helps alone; the composition does least work");
    const SRC: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                       a(X, Y) :- p(X, Y).\n\
                       ?- a(0, _).";
    let original = parse(SRC);
    let magic_only = magic_rewrite(&original).unwrap().program;
    let exist_only = optimized(SRC);
    let both = magic_rewrite(&exist_only).unwrap().program;
    let sizes: &[i64] = if quick { &[64] } else { &[256, 512, 1024] };
    for &n in sizes {
        // Chain starting at n/2 so magic can skip half the graph; query
        // binds node 0 which reaches everything -> worst case for magic,
        // so also use a random graph where 0 reaches a fraction.
        let edb = workloads::random_digraph("p", n, (n as usize) * 2, 9);
        let params = format!("rand n={n} m={}", n * 2);
        measure(
            &mut r,
            "original",
            &params,
            &original,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "magic",
            &params,
            &magic_only,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "existential",
            &params,
            &exist_only,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "both",
            &params,
            &both,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    r
}

/// Build a TC program whose predicates carry `k` extra payload columns that
/// the query does not need.
fn padded_tc(k: usize) -> String {
    let es: Vec<String> = (1..=k).map(|i| format!("E{i}")).collect();
    let fs: Vec<String> = (1..=k).map(|i| format!("F{i}")).collect();
    let tail = |v: &[String]| {
        if v.is_empty() {
            String::new()
        } else {
            format!(", {}", v.join(", "))
        }
    };
    format!(
        "a(X, Y{e}) :- p(X, Z{f}), a(Z, Y{e}).\n\
         a(X, Y{e}) :- p(X, Y{e}).\n\
         ?- a(X, _{w}).",
        e = tail(&es),
        f = tail(&fs),
        w = ", _".repeat(k),
    )
}

/// E7 — §3.2 scaling: the cost of carrying `k` dead columns through a
/// recursion, vs projecting them away.
pub fn e7(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e7",
        "arity scaling: k dead payload columns through TC vs projected (section 3.2)",
    );
    r.note("expect: original cost grows with k (wider tuples, more dedup); optimized is flat (always unary)");
    let ks: &[usize] = if quick { &[0, 2] } else { &[0, 1, 2, 3, 4] };
    let n: i64 = if quick { 64 } else { 256 };
    for &k in ks {
        let src = padded_tc(k);
        let original = parse(&src);
        let opt = optimized(&src);
        let edb = workloads::padded_edges("p", n, k, 3);
        let params = format!("chain n={n} k={k}");
        measure(
            &mut r,
            "original",
            &params,
            &original,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "optimized",
            &params,
            &opt,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    r
}

/// E8 — Theorem 3.3: regular chain programs admit a monadic equivalent;
/// the palindromic program does not (not certifiably regular).
pub fn e8(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e8",
        "Theorem 3.3 boundary: monadic rewriting for regular chain grammars",
    );
    const RIGHT: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                         a(X, Y) :- p(X, Y).\n\
                         ?- a(X, Y).";
    const PAL: &str = "s(X, Y) :- up(X, A), s(A, B), dn(B, Y).\n\
                       s(X, Y) :- up(X, A), flat(A, B), dn(B, Y).\n\
                       ?- s(X, Y).";
    use datalog_grammar::regular::{monadic_equivalent, KeptArg};
    let right = parse(RIGHT);
    let rewrite = monadic_equivalent(&right, KeptArg::First)
        .unwrap()
        .expect("right-linear TC is regular");
    r.note(format!(
        "right-linear TC: regular, DFA states = {}; palindrome grammar: {}",
        rewrite.dfa_states,
        match monadic_equivalent(&parse(PAL), KeptArg::First).unwrap() {
            Some(_) => "unexpectedly regular?!",
            None => "not certifiably regular (monadic rewrite refused)",
        }
    ));
    // Compare π1(a) via the binary program vs the synthesized monadic one.
    let mut projected = right.clone();
    projected.query = Some(datalog_ast::Query::new(
        datalog_ast::parse_atom("a(X, _)").unwrap(),
    ));
    let sizes: &[i64] = if quick { &[64] } else { &[256, 512, 1024] };
    for &n in sizes {
        let edb = workloads::chain("p", n);
        let params = format!("chain n={n}");
        measure(
            &mut r,
            "binary-TC",
            &params,
            &projected,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "monadic(Thm3.3)",
            &params,
            &rewrite.program,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    r
}

/// E9 — substrate sanity (§1.1 bottom-up model): naive vs semi-naive.
pub fn e9(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new("e9", "engine baseline: naive vs semi-naive fixpoint");
    r.note("expect: semi-naive does asymptotically fewer derivations; identical answers");
    const SRC: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                       a(X, Y) :- p(X, Y).\n\
                       ?- a(X, Y).";
    let p = parse(SRC);
    let naive = EvalOptions {
        strategy: Strategy::Naive,
        ..EvalOptions::default()
    };
    let sizes: &[i64] = if quick { &[32] } else { &[64, 128, 256] };
    for &n in sizes {
        let edb = workloads::chain("p", n);
        let params = format!("chain n={n}");
        measure(&mut r, "naive", &params, &p, &edb, &naive, RUNS);
        measure(
            &mut r,
            "semi-naive",
            &params,
            &p,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    let gr: &[(i64, usize)] = if quick {
        &[(48, 96)]
    } else {
        &[(128, 256), (192, 768)]
    };
    for &(n, m) in gr {
        let edb = workloads::random_digraph("p", n, m, 21);
        let params = format!("rand n={n} m={m}");
        measure(&mut r, "naive", &params, &p, &edb, &naive, RUNS);
        measure(
            &mut r,
            "semi-naive",
            &params,
            &p,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
    }
    r
}

/// E10 — pipeline ablation: cumulative phases on the flagship program.
pub fn e10(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e10",
        "ablation: adorn-only / +components / +projection / +deletion (flagship program)",
    );
    const SRC: &str = "query(X) :- a(X, Y), audit(W).\n\
                       a(X, Y) :- p(X, Z), a(Z, Y).\n\
                       a(X, Y) :- p(X, Y).\n\
                       ?- query(X).";
    let original = parse(SRC);
    let stage = |components: bool, projection: bool, deletion: bool| -> Program {
        let mut cfg = OptimizerConfig::rewrite_only();
        cfg.components = components;
        cfg.projection = projection;
        if deletion {
            cfg = OptimizerConfig::default();
        }
        optimize(&original, &cfg).unwrap().program
    };
    // NOTE: projection=false forbids components from dangling heads; the
    // adorn-only and components-only stages are therefore conservative.
    let adorn_only = stage(false, false, false);
    let components_only = stage(true, false, false);
    let projected = stage(true, true, false);
    let full = stage(true, true, true);
    r.note(format!(
        "rules: original={} adorned={} +components={} +projection={} full={}",
        original.rules.len(),
        adorn_only.rules.len(),
        components_only.rules.len(),
        projected.rules.len(),
        full.rules.len()
    ));
    let sizes: &[i64] = if quick { &[64] } else { &[256, 512] };
    let cut = EvalOptions {
        boolean_cut: true,
        ..EvalOptions::default()
    };
    for &n in sizes {
        let mut edb = workloads::chain("p", n);
        edb.extend(&workloads::unary("audit", 128));
        let params = format!("chain n={n} + audit");
        measure(
            &mut r,
            "original",
            &params,
            &original,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "adorned",
            &params,
            &adorn_only,
            &edb,
            &EvalOptions::default(),
            RUNS,
        );
        measure(
            &mut r,
            "+components",
            &params,
            &components_only,
            &edb,
            &cut,
            RUNS,
        );
        measure(&mut r, "+projection", &params, &projected, &edb, &cut, RUNS);
        measure(&mut r, "full", &params, &full, &edb, &cut, RUNS);
    }
    r
}

/// An experiment: run it, in quick mode or not.
pub type Experiment = fn(bool) -> ExperimentResult;

/// Every experiment, in order: the one table `all`, `by_id`, `harness
/// list` and the harness usage line read.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
];

/// All experiments in order.
pub fn all(quick: bool) -> Vec<ExperimentResult> {
    EXPERIMENTS.iter().map(|(_, run)| run(quick)).collect()
}

/// Look up one experiment by id.
pub fn by_id(id: &str, quick: bool) -> Option<ExperimentResult> {
    let (_, run) = EXPERIMENTS.iter().find(|(name, _)| *name == id)?;
    Some(run(quick))
}

/// The experiment ids, space-separated.
fn ids() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    ids.join(" ")
}

/// What `harness list` prints.
pub fn list_text() -> String {
    format!("available experiments: {} (or `all`)\n", ids())
}

/// The harness usage line.
pub fn usage() -> String {
    format!("usage: harness <all | {} ...> [--quick] [--json]", ids())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each experiment runs in quick mode and the optimized variant never
    /// does more derivation work than the original on the same workload.
    #[test]
    fn quick_experiments_run_and_improve() {
        for result in all(true) {
            assert!(!result.rows.is_empty(), "{} empty", result.id);
            // Group rows by params: the first variant is the baseline.
            let mut by_params: std::collections::BTreeMap<&str, Vec<&crate::measure::Measurement>> =
                std::collections::BTreeMap::new();
            for row in &result.rows {
                by_params.entry(&row.params).or_default().push(row);
            }
            for (params, rows) in by_params {
                let baseline = rows[0];
                for r in &rows[1..] {
                    assert_eq!(
                        r.answers, baseline.answers,
                        "{} {params}: answers differ ({} vs {})",
                        result.id, r.label, baseline.label
                    );
                }
            }
        }
    }

    #[test]
    fn padded_tc_generates_valid_programs() {
        for k in 0..4 {
            let p = parse(&padded_tc(k));
            p.validate().unwrap();
            assert_eq!(p.rules[0].head.arity(), 2 + k);
        }
    }

    #[test]
    fn by_id_dispatch() {
        assert!(by_id("e1", true).is_some());
        assert!(by_id("e42", true).is_none());
    }

    #[test]
    fn the_table_has_unique_ids_and_list_prints_exactly_it() {
        let table: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        let unique: std::collections::BTreeSet<&str> = table.iter().copied().collect();
        assert_eq!(unique.len(), table.len(), "duplicate id in {table:?}");
        let listed = list_text();
        let listed = listed
            .strip_prefix("available experiments: ")
            .and_then(|l| l.strip_suffix(" (or `all`)\n"))
            .expect("list framing");
        assert_eq!(listed.split(' ').collect::<Vec<_>>(), table);
        assert!(usage().contains(listed), "{}", usage());
    }
}
