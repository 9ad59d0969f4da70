//! The experiment suite (E1–E15). See DESIGN.md §5 for the index mapping
//! each experiment to its paper anchor, and EXPERIMENTS.md for recorded
//! results and shape expectations.
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

/// E11 — the query server: prepared-form cache vs the cold optimizer
/// path, answer memoization, and throughput at 1/4/8 concurrent clients.
///
/// Engine counters (facts/dups/scanned/iters) do not apply to the wire
/// measurements and are reported as 0; `wall_us` is the client-observed
/// median round trip, except for the `throughput` rows where it is the
/// total wall time of the whole run (queries/sec goes in the notes).
pub fn e11(quick: bool) -> ExperimentResult {
    use datalog_server::{Client, Server, ServerConfig};
    use std::time::Instant;

    let mut r = ExperimentResult::new(
        "e11",
        "server: prepared-query cache vs cold optimizer; qps at 1/4/8 clients",
    );
    r.note("expect: warm-prepared ≪ cold-miss (skips §2 adornment + §3 pipeline);");
    r.note("answers-memo ≪ warm-prepared (skips evaluation too); qps holds under concurrency");

    let n: i64 = if quick { 64 } else { 256 };
    let per_client: usize = if quick { 50 } else { 200 };
    let repeats: usize = if quick { 20 } else { 60 };

    // Rules + a chain EDB, served from a file exactly as a client would.
    let mut src = String::from("a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n");
    for i in 0..n {
        src.push_str(&format!("p({i}, {}).\n", i + 1));
    }
    let dir = std::env::temp_dir().join(format!("datalog-bench-e11-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for e11");
    let file = dir.join("chain.dl");
    std::fs::write(&file, &src).expect("write e11 workload");
    let path = file.to_str().expect("utf-8 temp path").to_string();

    let median_us = |mut walls: Vec<u128>| -> u128 {
        walls.sort();
        walls[walls.len() / 2]
    };
    let row = |r: &mut ExperimentResult, label: &str, params: &str, answers: usize, us: u128| {
        r.rows.push(crate::measure::Measurement {
            label: label.into(),
            params: params.into(),
            answers,
            facts: 0,
            duplicates: 0,
            scanned: 0,
            iterations: 0,
            retired: 0,
            wall_us: us,
            rules: Vec::new(),
        });
    };
    let params = format!("chain n={n}");

    // Cold misses: the first sighting of each adornment form pays the full
    // optimizer (visible as PhaseEvents in TRACE); fresh server per sample
    // so every form is genuinely cold.
    {
        let mut walls = Vec::new();
        let mut answers = 0;
        for _ in 0..3 {
            let server = Server::spawn(&ServerConfig::default()).expect("bind");
            let mut c = Client::connect(server.addr()).expect("connect");
            assert!(c.load(&path).expect("load").ok);
            for q in ["?- a(X, _).", "?- a(X, Y).", "?- a(_, Y)."] {
                let t0 = Instant::now();
                let resp = c.query(q).expect("query");
                walls.push(t0.elapsed().as_micros());
                assert_eq!(resp.get("cache"), Some("miss"), "{q} was not cold");
                answers = resp
                    .get("answers")
                    .and_then(|a| a.parse().ok())
                    .unwrap_or(0);
            }
            c.shutdown().expect("shutdown");
            server.join();
        }
        let p = format!("{params} first-seen form");
        row(&mut r, "cold-miss", &p, answers, median_us(walls));
    }

    // Residency off: E11 measures prepared-form reuse and answer
    // memoization in isolation; the resident frontier is E14's subject.
    let server = Server::spawn(&ServerConfig {
        threads: 8,
        resident_forms: 0,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let mut c = Client::connect(addr).expect("connect");
    assert!(c.load(&path).expect("load").ok);
    assert_eq!(
        c.query("?- a(X, _).").expect("warm").get("cache"),
        Some("miss")
    );

    // Warm prepared: same form, rotating constants — the optimized program
    // is reused, only evaluation runs (the answer slot misses on purpose).
    {
        let mut walls = Vec::new();
        let mut answers = 0;
        for i in 0..repeats {
            let q = format!("?- a({}, _).", i as i64 % n);
            let t0 = Instant::now();
            let resp = c.query(&q).expect("query");
            walls.push(t0.elapsed().as_micros());
            assert_eq!(resp.get("cache"), Some("hit"), "{q} missed the cache");
            answers = resp
                .get("answers")
                .and_then(|a| a.parse().ok())
                .unwrap_or(0);
        }
        let p = format!("{params} rotating const");
        row(&mut r, "warm-prepared", &p, answers, median_us(walls));
    }

    // Answer memoization: the identical query text is served straight from
    // the watermark-validated answer slot.
    {
        let mut walls = Vec::new();
        let mut answers = 0;
        let _ = c.query("?- a(X, _).").expect("prime");
        for _ in 0..repeats {
            let t0 = Instant::now();
            let resp = c.query("?- a(X, _).").expect("query");
            walls.push(t0.elapsed().as_micros());
            assert_eq!(resp.get("cache"), Some("answers"));
            answers = resp
                .get("answers")
                .and_then(|a| a.parse().ok())
                .unwrap_or(0);
        }
        let p = format!("{params} repeat text");
        row(&mut r, "answers-memo", &p, answers, median_us(walls));
    }

    // Throughput: C clients hammer the warm prepared form concurrently.
    for clients in [1usize, 4, 8] {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|tid| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for i in 0..per_client {
                        let q = format!("?- a({}, _).", (tid * per_client + i) as i64 % n);
                        let resp = c.query(&q).expect("query");
                        assert!(resp.ok, "{}", resp.error);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        let total = t0.elapsed();
        let qps = (clients * per_client) as f64 / total.as_secs_f64();
        r.note(format!("clients={clients}: {qps:.0} queries/sec"));
        row(
            &mut r,
            "throughput",
            &format!("clients={clients} q={per_client} each"),
            0,
            total.as_micros(),
        );
    }

    c.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    r
}

/// E12 — scaling: the parallel semi-naive fan-out at 1/2/4/8 threads on
/// recursive workloads (transitive closure over a dense digraph, BOM
/// subpart reachability). Every thread count computes byte-identical
/// results; only wall time may move, and only as far as the host's cores
/// allow — the recorded `host parallelism` note is the ceiling.
pub fn e12(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e12",
        "scaling: parallel semi-naive at 1/2/4/8 threads (frozen-index fan-out)",
    );
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.note(format!(
        "host parallelism: {host} (speedup is bounded by this; 1 core => ~1x everywhere)"
    ));
    r.note("expect: identical answers/facts/scans at every thread count (determinism);");
    r.note("wall time drops on iteration-heavy workloads as threads approach host cores");

    const TC: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                      a(X, Y) :- p(X, Y).\n\
                      ?- a(X, _).";
    const BOM: &str = "reach(X, Y) :- sub(X, Z), reach(Z, Y).\n\
                       reach(X, Y) :- sub(X, Y).\n\
                       ?- reach(X, _).";
    let (n, m, parts) = if quick {
        (96i64, 384usize, 1024i64)
    } else {
        (384, 1536, 16384)
    };
    let cases = [
        (
            parse(TC),
            workloads::random_digraph("p", n, m, 7),
            format!("tc digraph n={n} m={m}"),
        ),
        (
            parse(BOM),
            workloads::bom(parts, 4, 0),
            format!("bom parts={parts} fanout=4"),
        ),
    ];
    for (program, edb, params) in &cases {
        let mut base_us: u128 = 0;
        for threads in [1usize, 2, 4, 8] {
            measure(
                &mut r,
                &format!("threads={threads}"),
                params,
                program,
                edb,
                &EvalOptions {
                    threads,
                    ..EvalOptions::default()
                },
                RUNS,
            );
            let wall = r.rows.last().expect("measure pushed a row").wall_us;
            if threads == 1 {
                base_us = wall;
            } else if wall > 0 {
                r.note(format!(
                    "{params}: threads={threads} speedup {:.2}x",
                    base_us as f64 / wall as f64
                ));
            }
        }
    }
    r
}

/// E13 — telemetry overhead: the identical server workload with the
/// metrics registry enabled (the default) vs the no-op baseline
/// (`metrics: false` — histograms reduce to one branch, counters still
/// count). Reported per client count (1/4/8): qps and the client-observed
/// p99 round trip. The acceptance budget is <2% qps regression with
/// instrumentation on.
///
/// `wall_us` per row is the total wall time of the run; qps and p99 go in
/// the notes (engine counters do not apply to wire measurements).
pub fn e13(quick: bool) -> ExperimentResult {
    use datalog_server::{Client, Server, ServerConfig};
    use std::time::Instant;

    let mut r = ExperimentResult::new(
        "e13",
        "telemetry overhead: metrics on vs no-op registry; qps + p99 at 1/4/8 clients",
    );
    r.note("expect: <2% qps regression with the registry enabled (the always-on budget);");
    r.note("per request the cost is a few relaxed fetch_adds + two Instant::now() per span");

    let n: i64 = if quick { 64 } else { 256 };
    let per_client: usize = if quick { 100 } else { 400 };

    let mut src = String::from("a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n");
    for i in 0..n {
        src.push_str(&format!("p({i}, {}).\n", i + 1));
    }
    let dir = std::env::temp_dir().join(format!("datalog-bench-e13-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for e13");
    let file = dir.join("chain.dl");
    std::fs::write(&file, &src).expect("write e13 workload");
    let path = file.to_str().expect("utf-8 temp path").to_string();

    let row = |r: &mut ExperimentResult, label: &str, params: &str, us: u128| {
        r.rows.push(crate::measure::Measurement {
            label: label.into(),
            params: params.into(),
            answers: 0,
            facts: 0,
            duplicates: 0,
            scanned: 0,
            iterations: 0,
            retired: 0,
            wall_us: us,
            rules: Vec::new(),
        });
    };

    // One run: a server with the given registry mode, C clients hammering
    // the warm prepared form with rotating constants (the answer slot
    // misses on purpose, so every request records the full span set).
    // Returns (total wall, p99 of per-request round trips).
    let run = |enabled: bool, clients: usize| -> (std::time::Duration, u128) {
        let server = Server::spawn(&ServerConfig {
            threads: 8,
            metrics: enabled,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let mut c = Client::connect(addr).expect("connect");
        assert!(c.load(&path).expect("load").ok);
        // Warm the form cache so every timed request takes the same path.
        assert!(c.query("?- a(0, _).").expect("warm").ok);
        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|tid| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut walls = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let q = format!("?- a({}, _).", (tid * per_client + i) as i64 % n);
                        let t = Instant::now();
                        let resp = c.query(&q).expect("query");
                        walls.push(t.elapsed().as_micros());
                        assert!(resp.ok, "{}", resp.error);
                    }
                    walls
                })
            })
            .collect();
        let mut walls: Vec<u128> = Vec::new();
        for h in handles {
            walls.extend(h.join().expect("client thread"));
        }
        let total = t0.elapsed();
        walls.sort();
        let p99 = walls[(walls.len() * 99) / 100 - 1];
        c.shutdown().expect("shutdown");
        server.join();
        (total, p99)
    };

    let trials: usize = if quick { 2 } else { 3 };
    for clients in [1usize, 4, 8] {
        let queries = (clients * per_client) as f64;
        // Interleave the two modes and keep each mode's best trial: on a
        // shared host, comparing peak capability is what isolates the
        // instrumentation cost from scheduler noise.
        let (mut off_best, mut on_best) = (
            None::<(std::time::Duration, u128)>,
            None::<(std::time::Duration, u128)>,
        );
        for _ in 0..trials {
            let off = run(false, clients);
            let on = run(true, clients);
            if off_best.map_or(true, |b| off.0 < b.0) {
                off_best = Some(off);
            }
            if on_best.map_or(true, |b| on.0 < b.0) {
                on_best = Some(on);
            }
        }
        let (off_total, off_p99) = off_best.expect("at least one trial");
        let (on_total, on_p99) = on_best.expect("at least one trial");
        let qps_off = queries / off_total.as_secs_f64();
        let qps_on = queries / on_total.as_secs_f64();
        let overhead = (qps_off - qps_on) / qps_off * 100.0;
        r.note(format!(
            "clients={clients}: enabled {qps_on:.0} qps p99={on_p99}us; \
             no-op {qps_off:.0} qps p99={off_p99}us; qps delta {overhead:+.2}% \
             (best of {trials})"
        ));
        let params = format!("clients={clients} q={per_client} each");
        row(&mut r, "metrics-enabled", &params, on_total.as_micros());
        row(&mut r, "metrics-noop", &params, off_total.as_micros());
    }

    let _ = std::fs::remove_dir_all(&dir);
    r
}

/// E14 — incremental serving: an ingest-heavy mix (every client alternates
/// one FACT with one query on the warm form) served from the resident
/// semi-naive frontier (`resident_forms: 8`, the default) vs the
/// invalidate-and-recompute baseline (`resident_forms: 0`). Reported per
/// client count (1/4/8): query qps and the client-observed p99 round trip.
/// Answers are byte-identical either way — the delta propagation only
/// changes *when* the fixpoint work happens, never what it produces.
///
/// `wall_us` per row is the total wall time of the run; qps and p99 go in
/// the notes (engine counters do not apply to wire measurements).
pub fn e14(quick: bool) -> ExperimentResult {
    use datalog_server::{Client, Server, ServerConfig};
    use std::time::Instant;

    let mut r = ExperimentResult::new(
        "e14",
        "incremental serving: resident delta propagation vs invalidate-recompute \
         under an ingest-heavy mix; qps + p99 at 1/4/8 clients",
    );
    r.note("expect: resident wins grow with the saturated database size — each ingested");
    r.note("fact costs one small delta propagation instead of a full recomputation per query");

    let n: i64 = if quick { 64 } else { 256 };
    let per_client: usize = if quick { 25 } else { 100 };

    let mut src = String::from("a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n");
    for i in 0..n {
        src.push_str(&format!("p({i}, {}).\n", i + 1));
    }
    let dir = std::env::temp_dir().join(format!("datalog-bench-e14-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for e14");
    let file = dir.join("chain.dl");
    std::fs::write(&file, &src).expect("write e14 workload");
    let path = file.to_str().expect("utf-8 temp path").to_string();

    let row = |r: &mut ExperimentResult, label: &str, params: &str, us: u128| {
        r.rows.push(crate::measure::Measurement {
            label: label.into(),
            params: params.into(),
            answers: 0,
            facts: 0,
            duplicates: 0,
            scanned: 0,
            iterations: 0,
            retired: 0,
            wall_us: us,
            rules: Vec::new(),
        });
    };

    // One run: every client interleaves a fresh FACT (isolated edge, far
    // from the chain — it invalidates the form without growing the closure
    // much) with a query on the warm form. Queries rotate constants so the
    // answer slot never hits; the contested path is resident catch-up vs
    // full recomputation. Returns (total wall, p99 of query round trips).
    let run = |resident_forms: usize, clients: usize| -> (std::time::Duration, u128) {
        let server = Server::spawn(&ServerConfig {
            threads: 8,
            resident_forms,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let mut c = Client::connect(addr).expect("connect");
        assert!(c.load(&path).expect("load").ok);
        // Warm the form cache (and pin the resident, when enabled).
        assert!(c.query("?- a(0, _).").expect("warm").ok);
        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|tid| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut walls = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let x = 1_000_000 + (tid * per_client + i) as i64;
                        let resp = c.fact(&format!("p({x}, {}).", x + 1)).expect("fact");
                        assert!(resp.ok, "{}", resp.error);
                        let q = format!("?- a({}, _).", (tid * per_client + i) as i64 % n);
                        let t = Instant::now();
                        let resp = c.query(&q).expect("query");
                        walls.push(t.elapsed().as_micros());
                        assert!(resp.ok, "{}", resp.error);
                    }
                    walls
                })
            })
            .collect();
        let mut walls: Vec<u128> = Vec::new();
        for h in handles {
            walls.extend(h.join().expect("client thread"));
        }
        let total = t0.elapsed();
        walls.sort();
        let p99 = walls[(walls.len() * 99) / 100 - 1];
        c.shutdown().expect("shutdown");
        server.join();
        (total, p99)
    };

    let trials: usize = if quick { 2 } else { 3 };
    for clients in [1usize, 4, 8] {
        let queries = (clients * per_client) as f64;
        // Interleave the two modes and keep each mode's best trial (same
        // rationale as E13: peak capability isolates the mechanism under
        // test from scheduler noise on a shared host).
        let (mut cold_best, mut inc_best) = (
            None::<(std::time::Duration, u128)>,
            None::<(std::time::Duration, u128)>,
        );
        for _ in 0..trials {
            let cold = run(0, clients);
            let inc = run(8, clients);
            if cold_best.map_or(true, |b| cold.0 < b.0) {
                cold_best = Some(cold);
            }
            if inc_best.map_or(true, |b| inc.0 < b.0) {
                inc_best = Some(inc);
            }
        }
        let (cold_total, cold_p99) = cold_best.expect("at least one trial");
        let (inc_total, inc_p99) = inc_best.expect("at least one trial");
        let qps_cold = queries / cold_total.as_secs_f64();
        let qps_inc = queries / inc_total.as_secs_f64();
        let speedup = qps_inc / qps_cold;
        r.note(format!(
            "clients={clients}: incremental {qps_inc:.0} qps p99={inc_p99}us; \
             recompute {qps_cold:.0} qps p99={cold_p99}us; speedup {speedup:.2}x \
             (best of {trials})"
        ));
        let params = format!("clients={clients} q={per_client} each");
        row(&mut r, "incremental", &params, inc_total.as_micros());
        row(
            &mut r,
            "invalidate-recompute",
            &params,
            cold_total.as_micros(),
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    r
}

/// E15 — bounded-staleness serving: query tail latency under an ingest
/// burst. A dedicated writer floods isolated `FACT`s for the whole
/// measurement window while 1/4/8 clients time query round trips on the
/// warm recursive form, under three serving disciplines:
///
/// * `recompute-baseline` — `resident_forms: 0`: every query re-runs the
///   fixpoint after each invalidation (the pre-incremental server);
/// * `fresh-sync` — resident frontier with synchronous catch-up: each
///   query pays the pending delta drain before answering (protocol v4
///   `fresh`, the default — byte-identical answers, staleness 0);
/// * `bounded-stale` — `drain_sync_cost: 0` defers every drain to the
///   maintenance thread and clients ask for `staleness=50`: reads come
///   off the last published frontier while drains run behind.
///
/// Reported per client count: p50/p99 round trip per discipline plus the
/// number of `ERR stale` refusals (bounded reads whose budget could not
/// be met). `wall_us` per row is the run's total wall time.
pub fn e15(quick: bool) -> ExperimentResult {
    use datalog_server::{Client, Consistency, Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let mut r = ExperimentResult::new(
        "e15",
        "bounded-staleness serving: query p50/p99 under a FACT flood; \
         recompute baseline vs synchronous fresh vs staleness=50 at 1/4/8 clients",
    );
    r.note("expect: bounded-stale trims the ingest-burst tail — queries stop paying");
    r.note("for drains they did not cause; fresh keeps byte-identity and pays catch-up");

    let n: i64 = if quick { 64 } else { 256 };
    let per_client: usize = if quick { 25 } else { 100 };

    let mut src = String::from("a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n");
    for i in 0..n {
        src.push_str(&format!("p({i}, {}).\n", i + 1));
    }
    let dir = std::env::temp_dir().join(format!("datalog-bench-e15-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for e15");
    let file = dir.join("chain.dl");
    std::fs::write(&file, &src).expect("write e15 workload");
    let path = file.to_str().expect("utf-8 temp path").to_string();

    let row = |r: &mut ExperimentResult, label: &str, params: &str, us: u128| {
        r.rows.push(crate::measure::Measurement {
            label: label.into(),
            params: params.into(),
            answers: 0,
            facts: 0,
            duplicates: 0,
            scanned: 0,
            iterations: 0,
            retired: 0,
            wall_us: us,
            rules: Vec::new(),
        });
    };

    // Isolated-edge source shared by every burst writer across runs, so
    // no run ever re-ingests a duplicate (duplicates skip invalidation
    // and would quietly relax the burst).
    let next_edge = Arc::new(AtomicI64::new(10_000_000));
    // The burst is a fixed-size salvo, not an open faucet: an unbounded
    // writer grows the database (and the recompute bill) without limit,
    // turning the baseline run into a measurement of the flood instead
    // of the serving discipline.
    let burst: usize = if quick { 250 } else { 1500 };

    // One run: a writer floods a fixed burst of FACTs while clients time
    // query round trips at the given consistency. Returns
    // (total, p50, p99, stale refusals).
    let run = |resident_forms: usize,
               drain_sync_cost: u64,
               mode: Consistency,
               clients: usize|
     -> (std::time::Duration, u128, u128, usize) {
        let server = Server::spawn(&ServerConfig {
            threads: 8,
            resident_forms,
            drain_sync_cost,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let mut c = Client::connect(addr).expect("connect");
        assert!(c.load(&path).expect("load").ok);
        assert!(c.query("?- a(0, _).").expect("warm").ok);

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            let next_edge = Arc::clone(&next_edge);
            std::thread::spawn(move || {
                let mut w = Client::connect(addr).expect("writer connect");
                for _ in 0..burst {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let x = next_edge.fetch_add(2, Ordering::Relaxed);
                    let resp = w.fact(&format!("p({x}, {}).", x + 1)).expect("fact");
                    assert!(resp.ok, "{}", resp.error);
                }
            })
        };

        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|tid| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut walls = Vec::with_capacity(per_client);
                    let mut refused = 0usize;
                    for i in 0..per_client {
                        let q = format!("?- a({}, _).", (tid * per_client + i) as i64 % n);
                        let t = Instant::now();
                        let resp = c.query_at(mode, &q).expect("query");
                        walls.push(t.elapsed().as_micros());
                        if !resp.ok {
                            // Only a bounded budget may refuse, and only
                            // with the structured stale code.
                            assert!(resp.stale_bound_ms().is_some(), "{}: {}", q, resp.error);
                            refused += 1;
                        }
                    }
                    (walls, refused)
                })
            })
            .collect();
        let mut walls: Vec<u128> = Vec::new();
        let mut refused = 0usize;
        for h in handles {
            let (w, rf) = h.join().expect("client thread");
            walls.extend(w);
            refused += rf;
        }
        let total = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread");
        walls.sort();
        let p50 = walls[walls.len() / 2];
        let p99 = walls[(walls.len() * 99) / 100 - 1];
        c.shutdown().expect("shutdown");
        server.join();
        (total, p50, p99, refused)
    };

    let trials: usize = if quick { 2 } else { 3 };
    let disciplines: [(&str, usize, u64, Consistency); 3] = [
        ("recompute-baseline", 0, u64::MAX, Consistency::Fresh),
        ("fresh-sync", 8, u64::MAX, Consistency::Fresh),
        ("bounded-stale", 8, 0, Consistency::Bounded(50)),
    ];
    for clients in [1usize, 4, 8] {
        let params = format!("clients={clients} q={per_client} each");
        for (label, forms, sync_cost, mode) in disciplines {
            // Best-of-trials, same rationale as E13/E14: peak capability
            // isolates the serving discipline from scheduler noise.
            let mut best: Option<(std::time::Duration, u128, u128, usize)> = None;
            for _ in 0..trials {
                let t = run(forms, sync_cost, mode, clients);
                if best.as_ref().map_or(true, |b| t.0 < b.0) {
                    best = Some(t);
                }
            }
            let (total, p50, p99, refused) = best.expect("at least one trial");
            let qps = (clients * per_client) as f64 / total.as_secs_f64();
            r.note(format!(
                "clients={clients} {label}: {qps:.0} qps p50={p50}us p99={p99}us \
                 refusals={refused} (best of {trials})"
            ));
            row(&mut r, label, &params, total.as_micros());
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
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
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("e14", e14),
    ("e15", e15),
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
