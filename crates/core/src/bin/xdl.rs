//! `xdl` — command-line front end for the existential-datalog toolkit.
//!
//! ```text
//! xdl run <file.dl> [--no-optimize] [--no-cut] [--stats] [--report] [--profile[=json]] [--json]
//!         [--max-iterations <n>] [--deadline-ms <ms>] [--budget <n>] [--threads <n>]
//! xdl profile <file.dl> [--json] [--no-optimize] [--no-cut] [--top <n>] [--threads <n>]
//! xdl optimize <file.dl> [--rewrite-only] [--aggressive]
//! xdl lint <file.dl>... [--json] [--bounds] [--deny-warnings]
//! xdl verify-opt <file.dl>... [--json]
//! xdl analyze <file.dl> [--json]
//! xdl explain <file.dl> <fact>
//! xdl grammar <file.dl> [--words <len>] [--monadic first|second]
//! xdl check <file1.dl> <file2.dl> [--instances <n>] [--seed-idb]
//! xdl serve [--port <p>] [--threads <n>] [--verify] [--wal <dir>]
//!           [--fsync always|batch|never] [--compact-every <n>]
//!           [--max-conns <n>] [--max-inflight <n>] [--deadline-ms <ms>]
//!           [--budget <n>] [--grace-ms <ms>] [--slow-query-ms <ms>]
//!           [--resident-forms <n>] [--rebuild-ms <ms>]
//! xdl query --connect <addr> [--load <file.dl>]... [--fact <atom.>]...
//!           [--stats] [--trace] [--shutdown] ['?- atom.']
//! xdl metrics --connect <addr> [--json | --watch]
//! ```
//!
//! `--threads <n>` fans each fixpoint iteration's rule applications out
//! over `n` worker threads; answers, stats, provenance, and profile
//! counters are byte-identical to `--threads 1` at any `n`. For `serve`,
//! `--threads` sets each query's evaluation threads (when omitted, the
//! machine's available parallelism), each connection is served on its own
//! thread up to `--max-conns` (default 64; the next one gets `ERR busy`),
//! joins are always greedily reordered, and `--resident-forms <n>` bounds
//! the incrementally maintained query forms (0 disables; default 8).
//! `--rebuild-ms <ms>` sets the base backoff between rebuild attempts for
//! a poisoned resident. `query` answers are byte-identical to `xdl run`.
//!
//! Exit codes: 0 on success; 1 when `lint` reports an error-severity
//! diagnostic or `verify-opt` fails a check; 2 on usage or I/O errors.
//!
//! A `.dl` file holds rules, facts (ground atoms) and one `?- query.`:
//!
//! ```text
//! % which nodes reach anything?
//! a(X, Y) :- p(X, Z), a(Z, Y).
//! a(X, Y) :- p(X, Y).
//! p(1, 2).  p(2, 3).
//! ?- a(X, _).
//! ```

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

use existential_datalog::engine::oracle::{bounded_equiv_check, EquivCheckConfig};
use existential_datalog::grammar::regular::{monadic_equivalent, KeptArg};
use existential_datalog::grammar::{bounded_language, program_to_grammar};
use existential_datalog::prelude::*;
use existential_datalog::server::{Client, FsyncPolicy, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xdl: {msg}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage:\n  \
     xdl run <file.dl> [--no-optimize] [--no-cut] [--stats] [--report] [--profile[=json]] \
     [--json] [--max-iterations <n>] [--deadline-ms <ms>] [--budget <n>] [--threads <n>]\n  \
     xdl profile <file.dl> [--json] [--no-optimize] [--no-cut] [--top <n>] [--threads <n>]\n  \
     xdl optimize <file.dl> [--rewrite-only] [--aggressive]\n  \
     xdl lint <file.dl>... [--json] [--bounds] [--deny-warnings]\n  \
     xdl verify-opt <file.dl>... [--json]\n  \
     xdl analyze <file.dl> [--json]\n  \
     xdl explain <file.dl> <fact>\n  \
     xdl grammar <file.dl> [--words <len>] [--monadic first|second]\n  \
     xdl check <file1.dl> <file2.dl> [--instances <n>] [--seed-idb]\n  \
     xdl serve [--port <p>] [--threads <n>] [--verify] [--wal <dir>] \
     [--fsync always|batch|never] [--compact-every <n>] [--max-conns <n>] \
     [--max-inflight <n>] [--deadline-ms <ms>] [--budget <n>] [--grace-ms <ms>] \
     [--slow-query-ms <ms>] [--resident-forms <n>] [--rebuild-ms <ms>]\n  \
     xdl query --connect <addr> [--load <file.dl>]... [--fact <atom.>]... \
     [--stats] [--trace] [--shutdown] ['?- atom.']\n  \
     xdl metrics --connect <addr> [--json | --watch]"
        .to_owned()
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    let rest: Vec<&String> = it.collect();
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "run" => done(cmd_run(&rest)),
        "profile" => done(cmd_profile(&rest)),
        "optimize" => done(cmd_optimize(&rest)),
        "lint" => cmd_lint(&rest),
        "verify-opt" => cmd_verify_opt(&rest),
        "analyze" => done(cmd_analyze(&rest)),
        "explain" => done(cmd_explain(&rest)),
        "grammar" => done(cmd_grammar(&rest)),
        "check" => done(cmd_check(&rest)),
        "serve" => done(cmd_serve(&rest)),
        "query" => done(cmd_query(&rest)),
        "metrics" => done(cmd_metrics(&rest)),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn flag(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| a.as_str() == name)
}

fn option_value<'a>(rest: &'a [&String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a.as_str() == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

fn positionals<'a>(rest: &'a [&String]) -> Vec<&'a str> {
    rest.iter()
        .filter(|a| !a.starts_with("--"))
        // Skip values that follow a --option.
        .scan(false, |skip, a| {
            let was_skip = *skip;
            *skip = false;
            Some((was_skip, a))
        })
        .filter(|(skip, _)| !skip)
        .map(|(_, a)| a.as_str())
        .collect()
}

fn positional<'a>(rest: &'a [&String], idx: usize) -> Option<&'a str> {
    positionals(rest).get(idx).copied()
}

/// A file's facts as the parser groups them: what `run`, `profile` and
/// `explain` hand the engine as their input, unconverted.
type Facts = BTreeMap<PredRef, Vec<Vec<Value>>>;

fn load(path: &str) -> Result<(Program, Facts), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // `file:line:col: message` — the shape editors and CI annotate from.
    let parsed = parse_program(&text).map_err(|e| e.render_at(path))?;
    parsed
        .program
        .validate()
        .map_err(|e| format!("{path}: {e}"))?;
    Ok((parsed.program, parsed.facts))
}

/// Load, optionally optimize, and evaluate one `.dl` file with the given
/// profiling switch. Shared by `run` and `profile`.
fn prepare_and_eval(
    rest: &[&String],
    profile: bool,
) -> Result<
    (
        AnswerSet,
        existential_datalog::engine::EvalOutput,
        Option<Report>,
    ),
    String,
> {
    let path = positional(rest, 0).ok_or_else(usage)?;
    let (program, facts) = load(path)?;
    if program.query.is_none() {
        return Err(format!("{path}: no query (`?- ...`) in file"));
    }
    let (program, report) = if flag(rest, "--no-optimize") {
        (program, None)
    } else {
        let out = optimize(&program, &OptimizerConfig::default())
            .map_err(|e| format!("optimizer: {e}"))?;
        (out.program, Some(out.report))
    };
    let mut opts = EvalOptions {
        boolean_cut: !flag(rest, "--no-cut"),
        profile,
        ..EvalOptions::default()
    };
    if let Some(n) = option_value(rest, "--max-iterations") {
        opts.max_iterations = n.parse().map_err(|_| "--max-iterations takes a number")?;
    }
    if let Some(ms) = option_value(rest, "--deadline-ms") {
        let ms: u64 = ms.parse().map_err(|_| "--deadline-ms takes milliseconds")?;
        opts.deadline = Some(std::time::Instant::now() + std::time::Duration::from_millis(ms));
    }
    if let Some(n) = option_value(rest, "--budget") {
        opts.fact_budget = Some(n.parse().map_err(|_| "--budget takes a number")?);
    }
    if let Some(n) = option_value(rest, "--threads") {
        opts.threads = n.parse().map_err(|_| "--threads takes a number")?;
    }
    let (answers, out) = query_answers_full(&program, facts, &opts).map_err(|e| {
        // Resource-limit trips report how far the evaluation got; other
        // errors pass through unchanged.
        match e.partial_stats() {
            Some(s) => format!(
                "evaluation: {e} (partial: iterations={} facts_derived={} tuples_scanned={})",
                s.iterations, s.facts_derived, s.tuples_scanned
            ),
            None => format!("evaluation: {e}"),
        }
    })?;
    Ok((answers, out, report))
}

fn cmd_run(rest: &[&String]) -> Result<(), String> {
    // `--profile` prints the human table, `--profile=json` the JSON export.
    if let Some(bad) = rest
        .iter()
        .find(|a| a.starts_with("--profile=") && a.as_str() != "--profile=json")
    {
        return Err(format!(
            "unknown profile format '{}' (use --profile or --profile=json)",
            &bad["--profile=".len()..]
        ));
    }
    let profile_json = flag(rest, "--profile=json");
    let profile = profile_json || flag(rest, "--profile");
    let (answers, out, report) = prepare_and_eval(rest, profile)?;
    // One buffer, flushed once: a large answer set is a few writes, not
    // one per line. Stdout is flushed before anything goes to stderr, so
    // the two interleave as they always have.
    let shown_report = report.as_ref().filter(|_| flag(rest, "--report"));
    let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
    match write_run_output(&mut stdout, shown_report, &answers) {
        Ok(()) => {}
        // A reader that stopped early (`xdl run … | head -1`) ends the
        // output, not the run.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => return Err(format!("cannot write answers: {e}")),
    }
    if flag(rest, "--stats") {
        if flag(rest, "--json") {
            eprintln!("{}", out.stats.to_json().to_pretty());
        } else {
            eprintln!("{}", out.stats);
        }
    }
    if let Some(p) = &out.profile {
        if profile_json {
            eprintln!(
                "{}",
                profile_json_doc(p, &out.stats, report.as_ref()).to_pretty()
            );
        } else {
            eprintln!("hot rules:");
            eprint!("{}", p.hot_rules_table(None));
        }
    }
    Ok(())
}

/// What `run` prints on stdout: the optimizer report when asked for, then
/// the answers.
fn write_run_output(
    out: &mut impl std::io::Write,
    report: Option<&Report>,
    answers: &AnswerSet,
) -> std::io::Result<()> {
    if let Some(r) = report {
        writeln!(out, "{}", r.to_text())?;
    }
    match answers.as_bool() {
        Some(b) => writeln!(out, "{b}")?,
        None => write!(out, "{answers}")?,
    }
    out.flush()
}

/// The full JSON document `profile --json` / `run --profile=json` emit:
/// global stats, per-rule profiles, per-iteration timeline, and (when the
/// optimizer ran) the structured phase-event trace.
fn profile_json_doc(
    p: &existential_datalog::prelude::EvalProfile,
    stats: &EvalStats,
    report: Option<&Report>,
) -> existential_datalog::prelude::Json {
    let mut doc = existential_datalog::prelude::Json::obj()
        .with("stats", stats.to_json())
        .with("profile", p.to_json());
    if let Some(r) = report {
        doc = doc.with("optimizer", r.to_json());
    }
    doc
}

fn cmd_profile(rest: &[&String]) -> Result<(), String> {
    let top = match option_value(rest, "--top") {
        Some(n) => Some(n.parse::<usize>().map_err(|_| "--top takes a number")?),
        None => None,
    };
    let (answers, out, report) = prepare_and_eval(rest, true)?;
    let p = out.profile.as_ref().expect("profiling was requested");
    if flag(rest, "--json") {
        println!(
            "{}",
            profile_json_doc(p, &out.stats, report.as_ref()).to_pretty()
        );
        return Ok(());
    }
    println!("answers: {}", answers.len());
    println!("stats:   {}", out.stats);
    println!();
    println!("hot rules (ranked by wall time):");
    print!("{}", p.hot_rules_table(top));
    println!();
    println!("iteration timeline:");
    print!("{}", p.timeline_table());
    if let Some(r) = &report {
        println!();
        println!("optimizer trace:");
        print!("{}", r.to_text());
    }
    Ok(())
}

fn cmd_optimize(rest: &[&String]) -> Result<(), String> {
    let path = positional(rest, 0).ok_or_else(usage)?;
    let (program, _) = load(path)?;
    let cfg = if flag(rest, "--rewrite-only") {
        OptimizerConfig::rewrite_only()
    } else if flag(rest, "--aggressive") {
        OptimizerConfig::aggressive()
    } else {
        OptimizerConfig::default()
    };
    let out = optimize(&program, &cfg).map_err(|e| format!("optimizer: {e}"))?;
    eprintln!("{}", out.report.to_text());
    print!("{}", out.program.to_text());
    Ok(())
}

fn cmd_lint(rest: &[&String]) -> Result<ExitCode, String> {
    let files = positionals(rest);
    if files.is_empty() {
        return Err(format!("lint needs at least one file\n{}", usage()));
    }
    let json = flag(rest, "--json");
    // `--bounds` restricts the run to the size-bound analysis: only the
    // bound-* diagnostics, plus the per-predicate bound table.
    let bounds_only = flag(rest, "--bounds");
    let deny_warnings = flag(rest, "--deny-warnings");
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut docs: Vec<existential_datalog::prelude::Json> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (diags, table) = if bounds_only {
            match existential_datalog::ast::parse_program(&text) {
                Ok(parsed) => {
                    let table = existential_datalog::lint::analyze_bounds(&parsed.program)
                        .map(|r| r.to_text())
                        .ok();
                    (
                        existential_datalog::lint::bounds_diagnostics(&parsed),
                        table,
                    )
                }
                Err(e) => (
                    vec![Diagnostic::error("parse", (e.line, e.col), e.message)],
                    None,
                ),
            }
        } else {
            (existential_datalog::lint::lint_source(&text), None)
        };
        for d in &diags {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
            if json {
                docs.push(d.to_json(path));
            } else {
                println!("{}", d.render_at(path));
            }
        }
        if let Some(table) = table {
            if !json {
                print!("{path}:\n{table}");
            }
        }
    }
    if json {
        println!(
            "{}",
            existential_datalog::prelude::Json::obj()
                .with("errors", errors)
                .with("warnings", warnings)
                .with("deny_warnings", deny_warnings)
                .with("diagnostics", existential_datalog::prelude::Json::Arr(docs))
                .to_pretty()
        );
    } else {
        eprintln!(
            "{} file(s): {errors} error(s), {warnings} warning(s)",
            files.len()
        );
    }
    Ok(if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_verify_opt(rest: &[&String]) -> Result<ExitCode, String> {
    let files = positionals(rest);
    if files.is_empty() {
        return Err(format!("verify-opt needs at least one file\n{}", usage()));
    }
    let json = flag(rest, "--json");
    let mut all_ok = true;
    let mut docs: Vec<existential_datalog::prelude::Json> = Vec::new();
    for path in &files {
        let (program, _) = load(path)?;
        if program.query.is_none() {
            return Err(format!("{path}: no query (`?- ...`) in file"));
        }
        let out = optimize(&program, &OptimizerConfig::default())
            .map_err(|e| format!("{path}: optimizer: {e}"))?;
        let v = validate(&out.report);
        all_ok &= v.ok();
        if json {
            docs.push(
                existential_datalog::prelude::Json::obj()
                    .with("file", *path)
                    .with("validation", v.to_json()),
            );
        } else {
            println!("{path}: {}", if v.ok() { "ok" } else { "FAIL" });
            for line in v.to_text().lines() {
                println!("  {line}");
            }
        }
    }
    if json {
        println!(
            "{}",
            existential_datalog::prelude::Json::obj()
                .with("ok", all_ok)
                .with("files", existential_datalog::prelude::Json::Arr(docs))
                .to_pretty()
        );
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_analyze(rest: &[&String]) -> Result<(), String> {
    let path = positional(rest, 0).ok_or_else(usage)?;
    let (program, _) = load(path)?;
    let findings = existential_datalog::opt::analyze(&program);
    let bounds = existential_datalog::lint::analyze_bounds(&program).ok();
    if flag(rest, "--json") {
        let arr = existential_datalog::prelude::Json::Arr(
            findings
                .iter()
                .map(|f| {
                    existential_datalog::prelude::Json::obj()
                        .with("kind", f.kind.to_string())
                        .with("message", f.message.as_str())
                })
                .collect(),
        );
        let doc = existential_datalog::prelude::Json::obj()
            .with("findings", arr)
            .with(
                "bounds",
                bounds.map_or(existential_datalog::prelude::Json::Null, |b| b.to_json()),
            );
        println!("{}", doc.to_pretty());
    } else {
        print!("{}", existential_datalog::opt::analyze::render(&findings));
        if let Some(b) = bounds {
            println!("derivation bounds (worst class: {}):", b.worst_class());
            print!("{}", b.to_text());
        }
    }
    Ok(())
}

fn cmd_explain(rest: &[&String]) -> Result<(), String> {
    let path = positional(rest, 0).ok_or_else(usage)?;
    let fact_text = positional(rest, 1).ok_or("explain needs a fact, e.g. 'a(1, 3)'")?;
    let (program, facts) = load(path)?;
    let fact = parse_atom(fact_text).map_err(|e| format!("bad fact '{fact_text}': {e}"))?;
    let values = fact
        .ground_values()
        .ok_or_else(|| format!("'{fact_text}' is not ground"))?;
    let out = existential_datalog::engine::evaluate(
        &program,
        facts,
        &EvalOptions {
            record_provenance: true,
            ..EvalOptions::default()
        },
    )
    .map_err(|e| format!("evaluation: {e}"))?;
    let pred = out
        .database
        .pred_id(&fact.pred)
        .ok_or_else(|| format!("unknown predicate {}", fact.pred))?;
    let prov = out.provenance.as_ref().expect("provenance was requested");
    match prov.derivation_tree(&out.database, pred, &values) {
        Some(tree) => {
            print!("{}", tree.render());
            Ok(())
        }
        None => Err(format!("{fact_text} is not derivable")),
    }
}

fn cmd_grammar(rest: &[&String]) -> Result<(), String> {
    let path = positional(rest, 0).ok_or_else(usage)?;
    let (program, _) = load(path)?;
    let cfg = program_to_grammar(&program).map_err(|e| format!("{e}"))?;
    print!("{}", cfg.to_text());
    if let Some(len) = option_value(rest, "--words") {
        let len: usize = len.parse().map_err(|_| "--words takes a number")?;
        let words = bounded_language(&cfg, len).map_err(|e| format!("{e}"))?;
        println!("language up to length {len} ({} words):", words.len());
        for w in &words {
            let s: Vec<String> = w.iter().map(|t| t.as_str()).collect();
            println!("  {}", s.join(" "));
        }
    }
    if let Some(which) = option_value(rest, "--monadic") {
        let kept = match which {
            "first" => KeptArg::First,
            "second" => KeptArg::Second,
            _ => return Err("--monadic takes 'first' or 'second'".into()),
        };
        match monadic_equivalent(&program, kept).map_err(|e| format!("{e}"))? {
            Some(rw) => {
                println!(
                    "regular: monadic equivalent via a {}-state DFA (Theorem 3.3):",
                    rw.dfa_states
                );
                print!("{}", rw.program.to_text());
            }
            None => println!("not certifiably regular: no monadic rewrite."),
        }
    }
    Ok(())
}

fn cmd_serve(rest: &[&String]) -> Result<(), String> {
    let port: u16 = match option_value(rest, "--port") {
        Some(p) => p.parse().map_err(|_| "--port takes a port number")?,
        None => 7654,
    };
    let mut cfg = ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        verify: flag(rest, "--verify"),
        ..ServerConfig::default()
    };
    if let Some(n) = option_value(rest, "--threads") {
        cfg.eval_threads = n.parse().map_err(|_| "--threads takes a number")?;
    }
    if let Some(n) = option_value(rest, "--resident-forms") {
        cfg.resident_forms = n.parse().map_err(|_| "--resident-forms takes a number")?;
    }
    if let Some(dir) = option_value(rest, "--wal") {
        cfg.wal_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(word) = option_value(rest, "--fsync") {
        cfg.fsync = FsyncPolicy::parse(word).ok_or("--fsync takes always, batch or never")?;
    }
    if let Some(n) = option_value(rest, "--compact-every") {
        cfg.compact_every = n.parse().map_err(|_| "--compact-every takes a number")?;
    }
    if let Some(n) = option_value(rest, "--max-conns") {
        cfg.max_conns = n.parse().map_err(|_| "--max-conns takes a number")?;
    }
    if let Some(n) = option_value(rest, "--max-inflight") {
        cfg.max_inflight = n.parse().map_err(|_| "--max-inflight takes a number")?;
    }
    if let Some(ms) = option_value(rest, "--deadline-ms") {
        cfg.deadline_ms = Some(ms.parse().map_err(|_| "--deadline-ms takes milliseconds")?);
    }
    if let Some(n) = option_value(rest, "--budget") {
        cfg.fact_budget = Some(n.parse().map_err(|_| "--budget takes a number")?);
    }
    if let Some(ms) = option_value(rest, "--grace-ms") {
        cfg.grace_ms = ms.parse().map_err(|_| "--grace-ms takes milliseconds")?;
    }
    if let Some(ms) = option_value(rest, "--slow-query-ms") {
        cfg.slow_query_ms = Some(
            ms.parse()
                .map_err(|_| "--slow-query-ms takes milliseconds")?,
        );
    }
    if let Some(ms) = option_value(rest, "--rebuild-ms") {
        cfg.rebuild_ms = ms.parse().map_err(|_| "--rebuild-ms takes milliseconds")?;
    }
    let server = Server::spawn(&cfg).map_err(|e| format!("cannot start on {}: {e}", cfg.addr))?;
    if let Some(rec) = server.state().recovery() {
        // One machine-readable line before "listening": what the WAL replay
        // restored (scripts and the crash-recovery smoke read this).
        println!("recovered {rec}");
    }
    // Scripts poll for this line to learn the resolved (ephemeral) port.
    println!("listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    server.join();
    Ok(())
}

fn cmd_query(rest: &[&String]) -> Result<(), String> {
    let addr = option_value(rest, "--connect").ok_or("query needs --connect <addr>")?;
    // Collect repeated --load/--fact in order, plus the one query positional.
    let mut loads: Vec<&str> = Vec::new();
    let mut facts: Vec<&str> = Vec::new();
    let mut query_text: Option<&str> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--connect" => i += 1,
            "--load" => {
                loads.push(rest.get(i + 1).ok_or("--load takes a file path")?);
                i += 1;
            }
            "--fact" => {
                facts.push(rest.get(i + 1).ok_or("--fact takes a ground atom")?);
                i += 1;
            }
            "--stats" | "--trace" | "--shutdown" => {}
            s if s.starts_with("--") => return Err(format!("unknown option '{s}'\n{}", usage())),
            s => {
                if query_text.replace(s).is_some() {
                    return Err("query takes at most one '?- atom.'".into());
                }
            }
        }
        i += 1;
    }
    if loads.is_empty()
        && facts.is_empty()
        && query_text.is_none()
        && !flag(rest, "--stats")
        && !flag(rest, "--trace")
        && !flag(rest, "--shutdown")
    {
        return Err(
            "nothing to do: give a query, --load, --fact, --stats, --trace or --shutdown".into(),
        );
    }
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut send = |line: String| -> Result<existential_datalog::server::Response, String> {
        let resp = client.request(&line).map_err(|e| format!("{addr}: {e}"))?;
        if resp.ok {
            Ok(resp)
        } else {
            Err(resp.error)
        }
    };
    for path in loads {
        send(format!("LOAD {path}"))?;
    }
    for atom in facts {
        send(format!("FACT {atom}"))?;
    }
    if let Some(q) = query_text {
        let resp = send(format!("QUERY {q}"))?;
        // Byte-identical to `xdl run` on the same program and facts.
        print!("{}", resp.payload_text());
    }
    if flag(rest, "--stats") {
        println!("{}", send("STATS".to_string())?.payload_text().trim_end());
    }
    if flag(rest, "--trace") {
        println!("{}", send("TRACE".to_string())?.payload_text().trim_end());
    }
    if flag(rest, "--shutdown") {
        send("SHUTDOWN".to_string())?;
    }
    Ok(())
}

/// `xdl metrics --connect <addr>`: scrape a running server's METRICS
/// endpoint. Default prints the Prometheus text exposition once; `--json`
/// prints the JSON readout instead; `--watch` re-scrapes every 2 seconds
/// until interrupted (each scrape redraws the screen).
fn cmd_metrics(rest: &[&String]) -> Result<(), String> {
    let addr = option_value(rest, "--connect").ok_or("metrics needs --connect <addr>")?;
    let json = flag(rest, "--json");
    let watch = flag(rest, "--watch");
    if json && watch {
        return Err("metrics takes --json or --watch, not both".into());
    }
    if let Some(bad) = rest
        .iter()
        .find(|a| a.starts_with("--") && !matches!(a.as_str(), "--connect" | "--json" | "--watch"))
    {
        return Err(format!("unknown option '{bad}'\n{}", usage()));
    }
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    loop {
        let resp = client.metrics(json).map_err(|e| format!("{addr}: {e}"))?;
        if !resp.ok {
            return Err(resp.error);
        }
        if watch {
            // Clear + home, then the fresh scrape: a cheap top(1)-style view.
            print!("\x1b[2J\x1b[H");
            println!("xdl metrics — {addr} (refreshes every 2s, ^C to stop)\n");
        }
        print!("{}", resp.payload_text());
        let _ = std::io::stdout().flush();
        if !watch {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(2));
    }
}

fn cmd_check(rest: &[&String]) -> Result<(), String> {
    let p1 = positional(rest, 0).ok_or_else(usage)?;
    let p2 = positional(rest, 1).ok_or_else(usage)?;
    let (prog1, _) = load(p1)?;
    let (prog2, _) = load(p2)?;
    let mut cfg = EquivCheckConfig::default();
    if let Some(n) = option_value(rest, "--instances") {
        cfg.instances = n.parse().map_err(|_| "--instances takes a number")?;
    }
    cfg.seed_idb = flag(rest, "--seed-idb");
    match bounded_equiv_check(&prog1, &prog2, &cfg).map_err(|e| format!("{e}"))? {
        None => {
            println!(
                "no difference found on {} random instances (not a proof)",
                cfg.instances
            );
            Ok(())
        }
        Some(w) => {
            println!("NOT equivalent. Witness instance:");
            print!("{}", w.instance.to_text());
            println!("answers of {p1}: {:?}", w.answers1);
            println!("answers of {p2}: {:?}", w.answers2);
            Err("programs differ".into())
        }
    }
}
