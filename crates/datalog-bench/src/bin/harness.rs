//! Experiment harness: regenerates the tables of EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! harness all [--quick] [--json]
//! harness e1 e3 [--quick] [--json]
//! harness list
//! ```

use std::io::Write as _;

use datalog_bench::experiments;

/// Print to stdout, exiting quietly on a broken pipe (e.g. `harness all | head`).
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("stdout: {e}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if ids.iter().any(|a| a.as_str() == "list") {
        emit(&experiments::list_text());
        return;
    }
    if ids.is_empty() {
        eprintln!("{}", experiments::usage());
        std::process::exit(2);
    }

    let results = if ids.iter().any(|a| a.as_str() == "all") {
        experiments::all(quick)
    } else {
        let mut out = Vec::new();
        for id in &ids {
            match experiments::by_id(id, quick) {
                Some(r) => out.push(r),
                None => {
                    eprintln!("unknown experiment '{id}' (try `harness list`)");
                    std::process::exit(2);
                }
            }
        }
        out
    };

    if json {
        let doc = datalog_trace::Json::Arr(results.iter().map(|r| r.to_json()).collect());
        emit(&doc.to_pretty());
        emit("\n");
    } else {
        for r in &results {
            emit(&r.to_table());
            emit("\n");
        }
    }
}
