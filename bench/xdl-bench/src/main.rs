//! `xdl-bench`: the untraced driver and the suite.
//!
//! ```text
//! xdl-bench run --workload <name> --xdl <binary> --out <dir> [--seed N] [--seconds S]
//! xdl-bench suite --xdl <binary> --layers <binary> --out <dir>
//!                 [--workload <name>] [--seed N] [--seconds S] [--repeat N]
//!                 [--quick] [--check-noise]
//! xdl-bench manifest
//! ```
//!
//! `run` measures one workload with tracing off and ends with the
//! benchmark contract's JSON line. `suite` is what `bench/run.sh` runs by
//! default: every workload untraced, then traced (`xdl-bench-layers`),
//! each in its own process.

use std::path::Path;
use std::process::{Command, ExitCode};

use xdl_bench::cli::Args;
use xdl_bench::metrics::{self, Source, END_TO_END, PER_LAYER};
use xdl_bench::proc::RunDir;
use xdl_bench::report::{parse_tsv, TsvRow};
use xdl_bench::workload::{self, BATCH_RUN, WORKLOADS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&Args(&args[1..])),
        Some("suite") => cmd_suite(&Args(&args[1..])),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err("usage: xdl-bench run|suite|manifest ... (see bench/README.md)".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("xdl-bench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn require_binary(path: &Path) -> Result<(), String> {
    if path.is_file() {
        Ok(())
    } else {
        Err(format!(
            "{} is missing: build it first (bench/run.sh does: cargo build --release)",
            path.display()
        ))
    }
}

/// One untraced run. `Ok(false)` when an output check failed.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let name = args.workload()?.ok_or("run needs --workload")?;
    let seed = args.seed()?;
    let seconds = args.seconds(f64::from(metrics::RUN_SECONDS))?;
    let xdl = args.path("--xdl")?;
    require_binary(&xdl)?;
    let out = args.path("--out")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut run_dir = RunDir::create(&out)?;
    let clients = workload::client_count();
    println!("{}", xdl_bench::header(name, seed, seconds, clients));
    let report = if name == BATCH_RUN {
        xdl_bench::batchrun::run(&xdl, &mut run_dir, seed, seconds)?
    } else {
        let plan = workload::serve_plan(name, seed, seconds, clients);
        xdl_bench::serve::run(&xdl, &mut run_dir, &plan)?
    };
    print!("{}", report.table());
    report.write_tsv(&out.join(format!("{name}-e2e.tsv")))?;
    let gated: Vec<&str> = metrics::gated().map(|m| m.name).collect();
    println!("{}", report.contract_json(&gated)?);
    Ok(report.correct())
}

fn child(binary: &Path, args: &[String]) -> Result<bool, String> {
    let status = Command::new(binary)
        .args(args)
        .status()
        .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    Ok(status.success())
}

/// Every selected workload untraced, then traced; `Ok(false)` if any
/// output check failed. Returns the rows of both modes.
fn run_set(
    args: &Args,
    names: &[&'static str],
    seed: u64,
    seconds: f64,
    rows: &mut Vec<TsvRow>,
) -> Result<bool, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let xdl = args.path("--xdl")?;
    let layers = args.path("--layers")?;
    require_binary(&xdl)?;
    require_binary(&layers)?;
    let out = args.path("--out")?;
    let common = |name: &str| -> Vec<String> {
        [
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--out",
            &out.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    };
    let mut ok = true;
    for traced in [false, true] {
        for name in names {
            let mut a = common(name);
            let (binary, file) = if traced {
                (&layers, format!("{name}-layers.tsv"))
            } else {
                a.insert(0, "run".to_string());
                a.extend(["--xdl".to_string(), xdl.display().to_string()]);
                (&me, format!("{name}-e2e.tsv"))
            };
            ok &= child(binary, &a)?;
            let path = out.join(file);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            rows.extend(parse_tsv(&text));
            println!();
        }
    }
    Ok(ok)
}

fn lookup(rows: &[TsvRow], workload: &str, metric: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.workload == workload && r.metric == metric)
        .and_then(|r| r.value)
}

/// Two sets of the same code: every gated metric must agree within its
/// bound and every exact count must repeat. Ungated end-to-end metrics are
/// shown with their difference.
fn compare_sets(names: &[&'static str], a: &[TsvRow], b: &[TsvRow]) -> bool {
    let mut ok = true;
    println!("# check-noise: set 1 vs set 2 (same code, same seed, same host)");
    for name in names {
        for m in END_TO_END.iter().filter(|m| m.workloads.contains(name)) {
            let (Some(x), Some(y)) = (lookup(a, name, m.name), lookup(b, name, m.name)) else {
                continue;
            };
            let base = x.abs().min(y.abs());
            let diff = if base > 0.0 {
                (x - y).abs() / base
            } else {
                (x - y).abs()
            };
            let verdict = match (diff <= m.bound, m.gated) {
                (true, _) => "ok",
                (false, true) => {
                    ok = false;
                    "FAIL: beyond its bound"
                }
                (false, false) => "noisy (not gated)",
            };
            println!(
                "{name:<16} {:<22} {x:>12.5} {y:>12.5} diff={:>6.2}% bound={:>5.1}% {verdict}",
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Count) {
            let (x, y) = (lookup(a, name, m.name), lookup(b, name, m.name));
            if x != y {
                ok = false;
                println!(
                    "{name:<16} {:<22} {x:?} != {y:?} FAIL: exact count moved",
                    m.name
                );
            }
        }
    }
    ok
}

fn cmd_suite(args: &Args) -> Result<bool, String> {
    let names: Vec<&'static str> = match args.workload()? {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let seed = args.seed()?;
    // --quick: about a tenth of the op counts. The percentile rule still
    // holds, so p99 prints as n/a.
    let default_seconds = if args.flag("--quick") {
        1.0
    } else {
        f64::from(metrics::RUN_SECONDS)
    };
    let seconds = args.seconds(default_seconds)?;
    let repeat: usize = args.parsed("--repeat", 1)?;
    let sets = if args.flag("--check-noise") {
        2
    } else {
        repeat.max(1)
    };
    let mut ok = true;
    let mut all: Vec<Vec<TsvRow>> = Vec::new();
    for set in 0..sets {
        if sets > 1 {
            println!("# set {} of {sets}", set + 1);
        }
        let mut rows = Vec::new();
        ok &= run_set(args, &names, seed, seconds, &mut rows)?;
        all.push(rows);
    }
    if args.flag("--check-noise") {
        ok &= compare_sets(&names, &all[0], &all[1]);
    }
    // The last set, as one document (what bench/baseline/ records).
    let out = args.path("--out")?;
    let report = out.join("report.json");
    std::fs::write(
        &report,
        suite_json(seed, seconds, all.last().expect("sets > 0")),
    )
    .map_err(|e| format!("{}: {e}", report.display()))?;
    println!("# wrote {}", report.display());
    println!(
        "# {}",
        if ok {
            "all output checks passed"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn suite_json(seed: u64, seconds: f64, rows: &[TsvRow]) -> String {
    let (nproc, kernel) = xdl_bench::host();
    let mut s = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds:?},\n  \"loop\": \"closed\",\n  \
         \"clients\": {},\n  \"fsync\": \"always\",\n  \"nproc\": {nproc},\n  \
         \"kernel\": \"{kernel}\",\n  \"metrics\": [\n",
        workload::client_count(),
    );
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let v = r.value.map_or("null".to_string(), |v| format!("{v:?}"));
            format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"value\": {v}, \
                 \"unit\": \"{}\", \"n\": {}}}",
                r.workload, r.metric, r.unit, r.n
            )
        })
        .collect();
    s.push_str(&lines.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
