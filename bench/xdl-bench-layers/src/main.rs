//! `xdl-bench-layers`: the traced run.
//!
//! ```text
//! xdl-bench-layers --workload <name> --out <dir> [--seed N] [--seconds S]
//! ```
//!
//! Regenerates the untraced driver's inputs from the same seed, replays
//! the op stream in-process through `ServerState::handle`, walks every op
//! layer by layer, and runs the stand-alone probes. Spans stay in memory
//! and are written to `<out>/trace-<workload>.json` at exit. The last line
//! of standard output is the benchmark contract's JSON object with every
//! per-layer metric listed in `BENCHMARK.json`.

mod pool;
mod probes;
mod scenario;
mod walk;

use std::process::ExitCode;

use xdl_bench::batch::Family;
use xdl_bench::cli::Args;
use xdl_bench::metrics;
use xdl_bench::proc::RunDir;
use xdl_bench::report::Report;
use xdl_bench::spans::{self, Recorder};
use xdl_bench::workload::{self, SERVE_INGEST, SERVE_READ, SERVE_RECOMPUTE};

use pool::Pool;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("xdl-bench-layers: {msg}");
            ExitCode::from(2)
        }
    }
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The workload-separation check: the design of each workload, asserted
/// from the traced shares. A violation is a warning with the measured
/// numbers — the fix is the workload, not the assertion.
fn separation(report: &mut Report, workload: &str, shares: &walk::Shares, batch: &BatchShares) {
    let mut assert_share = |what: &str, measured: f64, ok: bool, want: &str| {
        report.push(&format!("separation.{what}"), Some(measured), "ratio", 1);
        if !ok {
            report.warnings.push(format!(
                "separation: {what} is {measured:.3}, design wants {want}"
            ));
        }
    };
    let fixpoint = share(shares.query_fixpoint_ns, shares.query_handle_ns);
    let ingest = share(shares.fact_ingest_ns, shares.fact_handle_ns);
    match workload {
        SERVE_READ => assert_share(
            "cold_fixpoint_share_of_query",
            fixpoint,
            fixpoint == 0.0,
            "0",
        ),
        SERVE_RECOMPUTE => assert_share(
            "cold_fixpoint_share_of_query",
            fixpoint,
            fixpoint >= 0.5,
            ">= 0.5",
        ),
        SERVE_INGEST => assert_share(
            "ingest_layers_share_of_fact",
            ingest,
            ingest >= 0.5,
            ">= 0.5",
        ),
        _ => {
            let e = share(batch.front_ns[0], batch.total_ns[0]);
            let f = share(batch.front_ns[1], batch.total_ns[1]);
            assert_share("front_end_share_existential", e, e >= 0.5, ">= 0.5");
            assert_share("front_end_share_fixpoint", f, f <= 0.1, "<= 0.1");
        }
    }
}

/// Walk time of the batch files by family (`[existential, fixpoint]`):
/// all of it, and the front end's part (`ast.*`, `adorn.*`, `opt.*`).
#[derive(Default)]
struct BatchShares {
    front_ns: [u64; 2],
    total_ns: [u64; 2],
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = Args(args);
    let name = args.workload()?.ok_or("missing --workload")?;
    let seed = args.seed()?;
    let seconds = args.seconds(f64::from(metrics::RUN_SECONDS))?;
    let out = args.path("--out")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut run_dir = RunDir::create(&out)?;
    let dir = run_dir.path.clone();
    println!(
        "{} traced=1",
        xdl_bench::header(name, seed, seconds, workload::client_count())
    );

    let (walked, served) = scenario::scenarios(name, seed, seconds);
    let mut pool = Pool::default();
    let mut rec = Recorder::new();
    let mut report = Report::new(name);
    let mut next_op: u32 = 0;
    let mut batch = BatchShares::default();

    // batch-run's own path, at full size: parse → adorn → optimize →
    // analyze → evaluate → render, one root span per file.
    for sc in &walked {
        let root = rec.open("batch.run", None, next_op);
        let first_child = rec.spans().len();
        let loaded = probes::load(&mut pool, &mut rec, Some((root, next_op)), sc);
        let queries = probes::form_queries(sc);
        probes::forms(
            &mut pool,
            &mut rec,
            Some((root, next_op)),
            &loaded,
            &queries,
        );
        rec.close(root);
        let family = match sc.family {
            Some(Family::Existential) => 0,
            _ => 1,
        };
        for s in &rec.spans()[first_child..] {
            let ns = s.duration_ns();
            batch.total_ns[family] += ns;
            if ["ast.", "adorn.", "opt."]
                .iter()
                .any(|p| s.name.starts_with(p))
            {
                batch.front_ns[family] += ns;
            }
        }
        probes::shared(&mut pool, &loaded, &sc.ingest);
        probes::relation(&mut pool, &loaded);
        next_op += 1;
    }

    let mut shares = walk::Shares::default();
    for sc in &served {
        let loaded = probes::load(&mut pool, &mut rec, None, sc);
        let queries = probes::form_queries(sc);
        probes::forms(&mut pool, &mut rec, None, &loaded, &queries);
        probes::shared(&mut pool, &loaded, &sc.ingest);
        probes::relation(&mut pool, &loaded);
        probes::incremental(&mut pool, &loaded, &queries, &sc.ingest);
        probes::wal(&mut pool, &dir, &loaded, &sc.ingest);
        shares.absorb(walk::replay(
            &mut pool,
            &mut rec,
            &mut report,
            &dir,
            sc,
            &loaded,
            next_op,
        ));
        next_op += sc.ops.len() as u32;
        walk::wire_overhead(&mut pool, &dir, sc);
    }
    probes::trace(&mut pool);

    pool.fill(&mut report);
    shares.push_sources(&mut report);
    separation(&mut report, name, &shares, &batch);
    // Where the time went, by span name: self times sum to the traced wall.
    let mut by_name: std::collections::BTreeMap<&str, (u64, usize)> = Default::default();
    for (span, self_ns) in rec.spans().iter().zip(spans::self_times_ns(rec.spans())) {
        let e = by_name.entry(span.name).or_default();
        e.0 += self_ns;
        e.1 += 1;
    }
    for (name, (ns, n)) in by_name {
        report.push(&format!("self_ms.{name}"), Some(ns as f64 / 1e6), "ms", n);
    }

    let trace_path = out.join(format!("trace-{name}.json"));
    std::fs::write(&trace_path, spans::to_json(rec.spans()))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    print!("{}", report.table());
    println!("# spans written to {}", trace_path.display());
    report.write_tsv(&out.join(format!("{name}-layers.tsv")))?;
    let listed: Vec<&str> = metrics::listed_layers().map(|m| m.name).collect();
    println!("{}", report.contract_json(&listed)?);
    if !report.correct() {
        run_dir.keep();
    }
    Ok(report.correct())
}
