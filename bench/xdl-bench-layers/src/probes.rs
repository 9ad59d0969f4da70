//! Stand-alone layer probes: each times calls into one layer's public
//! functions on a scenario's inputs. The functions named here are
//! load-bearing for the benchmark — a change that removes one re-points
//! its probe in a benchmark issue.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use datalog_adorn::{adorn, query_adornment};
use datalog_ast::{parse_atom, parse_program, Atom, ParsedProgram, PredRef, Program, Query, Value};
use datalog_engine::incremental::{DeltaLimits, Fact as DeltaFact, ResidentEval};
use datalog_engine::{
    extract_answers, query_answers_full, storage_counters, DbSnapshot, EvalOptions, FactSet,
    Relation, SharedDatabase,
};
use datalog_lint::bounds;
use datalog_magic::magic_rewrite;
use datalog_opt::{
    canonical_query_atom, optimize, prepare, validate, OptimizerConfig, PreparedProgram,
};
use datalog_server::{render_answers, FaultPlan, FsyncPolicy, Response, RunBatch, Wal, WalOp};
use datalog_trace::Histogram;

use xdl_bench::spans::{Recorder, SpanId};

use crate::pool::Pool;
use crate::scenario::{ReplayOp, Scenario};

fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// The evaluation options the server's query path uses by default.
pub fn serving_opts() -> EvalOptions {
    EvalOptions {
        boolean_cut: true,
        reorder_joins: true,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..EvalOptions::default()
    }
}

/// A scenario's `LOAD` texts parsed and merged: its rules and its EDB.
pub struct Loaded {
    pub program: Program,
    pub facts: BTreeMap<PredRef, Vec<Vec<Value>>>,
}

/// `ast.parse_file_mb_s`: `parse_program` over every load file, three
/// times; the first parse is also a span under `root`.
pub fn load(
    pool: &mut Pool,
    rec: &mut Recorder,
    root: Option<(SpanId, u32)>,
    sc: &Scenario,
) -> Loaded {
    let mut rules = Vec::new();
    let mut facts: BTreeMap<PredRef, Vec<Vec<Value>>> = BTreeMap::new();
    for text in &sc.load_files {
        let mut parsed: Option<ParsedProgram> = None;
        for i in 0..3 {
            let span = root
                .filter(|_| i == 0)
                .map(|(id, op)| rec.open("ast.parse_file", Some(id), op));
            let t0 = Instant::now();
            let p = parse_program(black_box(text)).expect("generated files parse");
            let secs = t0.elapsed().as_secs_f64();
            if let Some(span) = span {
                rec.close(span);
            }
            pool.sample("ast.parse_file_mb_s", text.len() as f64 / 1e6 / secs);
            parsed = Some(p);
        }
        let parsed = parsed.expect("three parses");
        rules.extend(parsed.program.rules);
        for (pred, tuples) in parsed.facts {
            facts.entry(pred).or_default().extend(tuples);
        }
    }
    Loaded {
        program: Program::new(rules),
        facts,
    }
}

/// The distinct query texts of a scenario's ops, in first-seen order, one
/// per form (predicate + adornment).
pub fn form_queries(sc: &Scenario) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for op in &sc.ops {
        let ReplayOp::Query { line, .. } = op else {
            continue;
        };
        let text = query_text(line);
        let parsed = parse_program(text).expect("generated queries parse");
        let query = parsed.program.query.expect("a query");
        let ad = query_adornment(&query).expect("adornable");
        if seen.insert((query.atom.pred.to_string(), ad.to_string())) {
            out.push(text.to_string());
        }
    }
    out
}

/// The `?- ...` part of a `QUERY [mode] ?- ...` line.
pub fn query_text(line: &str) -> &str {
    &line[line.find("?-").expect("a QUERY line carries ?-")..]
}

/// The scenario's EDB in a shared database, as the server holds it.
pub fn shared_db(loaded: &Loaded) -> SharedDatabase {
    let db = SharedDatabase::new();
    for (pred, tuples) in &loaded.facts {
        for t in tuples {
            db.insert(pred, t).expect("consistent arities");
        }
    }
    db
}

/// Per-form probes: `adorn`, `optimize`, `validate`, `prepare`,
/// `bounds::analyze`, `magic_rewrite`, and one cold evaluation of the
/// prepared program with its exact counters. `root` parents the spans of
/// the path `xdl run` takes, for the batch walk.
pub fn forms(
    pool: &mut Pool,
    rec: &mut Recorder,
    root: Option<(SpanId, u32)>,
    loaded: &Loaded,
    queries: &[String],
) {
    let db = shared_db(loaded);
    let snapshot = db.snapshot();
    let facts = snapshot.to_factset();
    let (parent, op_id) = match root {
        Some((id, op)) => (Some(id), op),
        None => (None, 0),
    };
    let (mut duplicates, mut derivations) = (0u64, 0u64);
    for text in queries {
        let query = parse_program(text)
            .expect("generated queries parse")
            .program
            .query
            .expect("a query");
        let adornment = query_adornment(&query).expect("adornable");
        // The form, as the server optimizes it: constants and named
        // variables alike become the canonical atom's variables.
        let canonical = canonical_query_atom(&query.atom.pred, &adornment);
        let program = Program::with_query(loaded.program.rules.clone(), Query::new(canonical));

        let (adorned, ns) = rec.time("adorn.adorn", parent, op_id, || adorn(&program));
        adorned.expect("generated programs adorn");
        pool.time("adorn.adorn_ms", ns as f64);

        let cfg = OptimizerConfig::default();
        let (out, ns) = rec.time("opt.optimize", parent, op_id, || optimize(&program, &cfg));
        let out = out.expect("generated programs optimize");
        pool.time("opt.optimize_ms", ns as f64);
        pool.count("opt.rules_out", out.program.rules.len() as u64);
        let arities = out.program.arities().expect("consistent arities");
        let idb_arity: usize = out.program.idb_preds().iter().map(|p| arities[p]).sum();
        pool.count("opt.idb_arity_out", idb_arity as u64);

        let t0 = Instant::now();
        let validation = validate(&out.report);
        pool.time("opt.validate_ms", ns_since(t0));
        assert!(validation.ok(), "translation validation failed for {text}");

        let (report, ns) = rec.time("lint.bounds", parent, op_id, || {
            bounds::analyze(&out.program)
        });
        report.expect("bounds analysis");
        pool.time("lint.bounds_ms", ns as f64);

        let t0 = Instant::now();
        let prepared: PreparedProgram =
            prepare(&loaded.program.rules, &query.atom.pred, &adornment, &cfg)
                .expect("generated forms prepare");
        pool.time("opt.prepare_ms", ns_since(t0));

        // One cold evaluation of the prepared program: the engine's exact
        // counters, and the bound the analysis promised against the facts
        // actually derived.
        let instantiated = prepared.instantiate(&query.atom).expect("form arity");
        let opts = serving_opts();
        let ((answers, evaluated), ns) = rec.time("eval.cold", parent, op_id, || {
            query_answers_full(&instantiated, &facts, &opts).expect("cold evaluation")
        });
        pool.time("eval.cold_ms", ns as f64);
        let stats = evaluated.stats;
        pool.count("eval.facts_derived", stats.facts_derived);
        pool.count("eval.duplicates", stats.duplicates);
        pool.count("eval.tuples_scanned", stats.tuples_scanned);
        pool.count("eval.iterations", stats.iterations as u64);
        duplicates += stats.duplicates;
        derivations += stats.derivations;
        if stats.facts_derived > 0 {
            let cards: BTreeMap<String, u64> = prepared
                .bounds
                .edb
                .iter()
                .map(|p| (p.to_string(), snapshot.count(&p.base()) as u64))
                .collect();
            pool.sample(
                "lint.bound_over_actual",
                prepared.bounds.eval_total(&cards) as f64 / stats.facts_derived as f64,
            );
        }
        let q_atom = instantiated
            .query
            .as_ref()
            .expect("instantiated")
            .atom
            .clone();
        let t0 = Instant::now();
        black_box(extract_answers(&q_atom, &evaluated.database));
        pool.time("eval.extract_us", ns_since(t0));

        let (payload, ns) = rec.time("server.render", parent, op_id, || render_answers(&answers));
        pool.time("server.render_us", ns as f64);
        write_response(pool, rec, parent, op_id, &payload, answers.len());

        // Magic sets wants a bound argument and a negation-free program;
        // the prepared program holds only the rules the form reaches.
        let t0 = Instant::now();
        if magic_rewrite(&instantiated).is_ok() {
            pool.time("magic.rewrite_ms", ns_since(t0));
        }
    }
    // Wasted work: derivations whose head fact already existed.
    if derivations > 0 {
        pool.sample("eval.dup_ratio", duplicates as f64 / derivations as f64);
    }
}

/// `Response::write_to` into a sink, as the connection loop does.
pub fn write_response(
    pool: &mut Pool,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    op_id: u32,
    payload: &str,
    answers: usize,
) {
    let mut sink = Vec::with_capacity(payload.len() + 64);
    let ((), ns) = rec.time("protocol.response_write", parent, op_id, || {
        Response::ok()
            .with_info("cache", "resident")
            .with_info("answers", answers)
            .with_info("frontier", 1)
            .with_info("staleness_us", 0)
            .with_info("wall_us", 0)
            .with_payload_text(payload)
            .write_to(&mut sink)
            .expect("writing to memory");
    });
    pool.time("protocol.response_write_us", ns as f64);
    pool.sample("protocol.response_bytes", sink.len() as f64);
}

/// `datalog-engine::shared`: insert, snapshot, the two snapshot copies.
pub fn shared(pool: &mut Pool, loaded: &Loaded, ingest: &[String]) {
    let db = shared_db(loaded);
    for text in ingest {
        let atom = parse_atom(text).expect("generated facts parse");
        let values = atom.ground_values().expect("ground");
        let t0 = Instant::now();
        let fresh = db.insert(&atom.pred, &values).expect("consistent arity");
        pool.time("shared.insert_us", ns_since(t0));
        assert!(fresh, "ingest facts are new");
    }
    for _ in 0..64 {
        let t0 = Instant::now();
        black_box(db.snapshot());
        pool.time("shared.snapshot_us", ns_since(t0));
    }
    let snapshot = db.snapshot();
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(snapshot.to_factset());
        pool.time("shared.to_factset_ms", ns_since(t0));
        // The support-restricted copy a resident form is built from.
        let t0 = Instant::now();
        for pred in snapshot.preds() {
            black_box(snapshot.rows(&pred));
        }
        pool.time("shared.rows_ms", ns_since(t0));
    }
}

/// `datalog-engine::relation` / `storage`, on the scenario's largest EDB
/// relation.
pub fn relation(pool: &mut Pool, loaded: &Loaded) {
    let Some(tuples) = loaded.facts.values().max_by_key(|t| t.len()) else {
        return;
    };
    let arity = tuples[0].len();
    let n = tuples.len();
    for _ in 0..3 {
        let mut rel = Relation::new(arity);
        let t0 = Instant::now();
        for t in tuples {
            rel.insert(t);
        }
        pool.time("relation.insert_ns", ns_since(t0) / n as f64);
        rel.ensure_index(&[0]);
        let t0 = Instant::now();
        rel.seal();
        rel.consolidate();
        pool.time("relation.consolidate_ms", ns_since(t0));
        pool.sample(
            "storage.overhead_bytes_per_fact",
            rel.overhead_bytes_estimate() as f64 / n as f64,
        );

        let probes = n.min(20_000);
        let t0 = Instant::now();
        let mut hits = 0;
        for t in tuples.iter().take(probes) {
            hits += rel.probe_range(&[0], &t[..1], 0, n).len();
        }
        pool.time("relation.probe_hit_ns", ns_since(t0) / probes as f64);
        assert!(hits >= probes, "every present key is found");

        // Absent keys: the bloom filters should turn most of them away
        // before any binary search.
        let before = storage_counters();
        let t0 = Instant::now();
        let mut misses = 0;
        for i in 0..probes {
            let key = [Value::int(-1 - i as i64)];
            misses += rel.probe_range(&[0], &key, 0, n).len();
        }
        pool.time("relation.probe_miss_ns", ns_since(t0) / probes as f64);
        assert_eq!(misses, 0, "no absent key is found");
        let after = storage_counters();
        let probed = after.bloom_probes - before.bloom_probes;
        if probed > 0 {
            pool.sample(
                "storage.bloom_skip_ratio",
                (after.bloom_skips - before.bloom_skips) as f64 / probed as f64,
            );
        }
    }
}

/// The support-restricted copy a resident form is built from.
pub fn support_rows(prepared: &PreparedProgram, snapshot: &DbSnapshot) -> FactSet {
    let mut input = FactSet::new();
    for pred in &prepared.support {
        for row in snapshot.rows(pred) {
            input.insert(pred.clone(), row);
        }
    }
    input
}

/// `datalog-engine::incremental`: build each monotone form resident, push
/// the ingest facts through one at a time, read answers off the frontier.
pub fn incremental(pool: &mut Pool, loaded: &Loaded, queries: &[String], ingest: &[String]) {
    let db = shared_db(loaded);
    let snapshot = db.snapshot();
    let cfg = OptimizerConfig::default();
    let batch: Vec<DeltaFact> = ingest
        .iter()
        .map(|text| {
            let atom = parse_atom(text).expect("generated facts parse");
            DeltaFact::new(atom.pred.clone(), atom.ground_values().expect("ground"))
        })
        .collect();
    for text in queries {
        let query = parse_program(text)
            .expect("generated queries parse")
            .program
            .query
            .expect("a query");
        let adornment = query_adornment(&query).expect("adornable");
        let prepared = prepare(&loaded.program.rules, &query.atom.pred, &adornment, &cfg)
            .expect("generated forms prepare");
        if !ResidentEval::supports(&prepared.program)
            || !ResidentEval::admits_bound_class(prepared.bound_class)
        {
            continue;
        }
        let input = support_rows(&prepared, &snapshot);
        let t0 = Instant::now();
        let mut resident = ResidentEval::new(&prepared.program, &input, &serving_opts())
            .expect("resident construction");
        pool.time("incremental.new_ms", ns_since(t0));
        let q_atom: Atom = prepared.instantiate_atom(&query.atom).expect("form arity");
        for fact in batch.iter().filter(|f| prepared.depends_on(&f.pred)) {
            let t0 = Instant::now();
            let report = resident
                .apply_deltas(std::slice::from_ref(fact), &DeltaLimits::default())
                .expect("delta propagation");
            pool.time("incremental.apply_delta_us", ns_since(t0));
            pool.count(
                "incremental.delta_facts",
                report.new_facts as u64 + report.derived_facts,
            );
        }
        for _ in 0..8 {
            let t0 = Instant::now();
            black_box(resident.answers(&q_atom));
            pool.time("incremental.answers_us", ns_since(t0));
        }
    }
}

/// The full state as manifest material, the way the server hands it to
/// `Wal::compact`.
pub fn run_batches(loaded: &Loaded) -> (Vec<String>, Vec<RunBatch>) {
    let rules = loaded.program.rules.iter().map(|r| r.to_string()).collect();
    let batches = loaded
        .facts
        .iter()
        .filter(|(_, tuples)| !tuples.is_empty())
        .map(|(pred, tuples)| RunBatch {
            pred: pred.to_string(),
            arity: tuples[0].len(),
            rows: tuples
                .iter()
                .map(|t| t.clone().into_boxed_slice())
                .collect(),
        })
        .collect();
    (rules, batches)
}

/// `datalog-server::wal`: append with and without fsync (the difference is
/// the device's share), compaction of the full state, reopening.
pub fn wal(pool: &mut Pool, dir: &Path, loaded: &Loaded, ingest: &[String]) {
    let ops: Vec<WalOp> = ingest
        .iter()
        .map(|t| WalOp::Fact(t.trim_end_matches('.').to_string()))
        .collect();
    if ops.is_empty() {
        return;
    }
    let open = |sub: &str, policy: FsyncPolicy| {
        let dir = dir.join(sub);
        let _ = std::fs::remove_dir_all(&dir);
        Wal::open(&dir, policy, 0, Arc::new(FaultPlan::new())).expect("opening a fresh WAL")
    };
    let (mut nosync, _) = open("wal-nosync", FsyncPolicy::Never);
    for op in &ops {
        let t0 = Instant::now();
        nosync.append(op).expect("append");
        pool.time("wal.append_nosync_us", ns_since(t0));
    }
    let (mut sync, _) = open("wal-sync", FsyncPolicy::Always);
    for op in &ops {
        let t0 = Instant::now();
        sync.append(op).expect("append + fsync");
        pool.time("wal.append_sync_us", ns_since(t0));
    }
    let log_bytes = std::fs::metadata(sync.log_file()).map_or(0, |m| m.len());
    pool.sample(
        "wal.log_bytes_per_fact",
        log_bytes as f64 / ops.len() as f64,
    );

    let (rules, batches) = run_batches(loaded);
    let t0 = Instant::now();
    sync.compact(&rules, &batches).expect("compaction");
    pool.time("wal.compact_ms", ns_since(t0));
    // A log tail on top of the manifest, then recovery reads both.
    for op in &ops {
        sync.append(op).expect("append + fsync");
    }
    drop(sync);
    for _ in 0..3 {
        let t0 = Instant::now();
        let (_, recovery) = Wal::open(
            &dir.join("wal-sync"),
            FsyncPolicy::Always,
            0,
            Arc::new(FaultPlan::new()),
        )
        .expect("reopening the WAL");
        pool.time("wal.open_ms", ns_since(t0));
        assert_eq!(recovery.from_log, ops.len() as u64, "the log tail replays");
    }
}

/// `datalog-trace`: what one always-on histogram sample costs.
pub fn trace(pool: &mut Pool) {
    const N: u64 = 1_000_000;
    let h = Histogram::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        for v in 0..N {
            h.record(black_box(v));
        }
        pool.time("trace.histogram_record_ns", ns_since(t0) / N as f64);
    }
}
