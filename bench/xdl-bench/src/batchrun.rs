//! The `batch-run` runner: `xdl run <file>` as a child process, no server.
//!
//! Set-up is file generation (five times, median). The timed section runs
//! every file `repeats` times, interleaved, and takes the median wall time
//! per file. Outputs are checked three ways: identical bytes across the
//! repeats, the answer count against the generator's closed form, and a
//! small twin of each file byte for byte against `xdl run --no-optimize`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::batch::{self, BatchFile, Family, Scale};
use crate::proc::{self, RunDir};
use crate::report::Report;
use crate::stats::{median, percentile, sorted};
use crate::workload::BATCH_RUN;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Runs of each file for a run of `seconds`: three at the default ten.
pub fn repeats(seconds: f64) -> usize {
    ((seconds * 0.3).round() as usize).max(1)
}

fn write_files(dir: &Path, files: &[BatchFile], suffix: &str) -> Result<Vec<PathBuf>, String> {
    files
        .iter()
        .map(|f| {
            let path = dir.join(format!("{}{suffix}.dl", f.name));
            std::fs::write(&path, &f.text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// Answer rows in `xdl run` output: a table has a header line, a boolean
/// is the single line `true`/`false`.
fn check_answers(file: &BatchFile, stdout: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "output is not UTF-8".to_string())?;
    match file.answers {
        None if text == "true\n" => Ok(()),
        None => Err(format!("expected true, got {:?}", text.lines().next())),
        Some(want) => {
            let got = text.lines().count().saturating_sub(1);
            if got == want {
                Ok(())
            } else {
                Err(format!("{got} answers, closed form says {want}"))
            }
        }
    }
}

pub fn run(xdl: &Path, run_dir: &mut RunDir, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::new(BATCH_RUN);
    let dir = run_dir.path.clone();

    let mut setups = Vec::new();
    let mut generated = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let files = batch::files(seed, Scale::Full);
        let twins = batch::files(seed, Scale::Twin);
        let paths = write_files(&dir, &files, "")?;
        let twin_paths = write_files(&dir, &twins, "-twin")?;
        setups.push(t0.elapsed().as_secs_f64());
        generated = Some((files, paths, twins, twin_paths));
    }
    let (files, paths, twins, twin_paths) = generated.expect("SETUP_REPEATS > 0");

    // Timed section.
    let n_repeats = repeats(seconds);
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); files.len()];
    let mut first_output: Vec<Option<Vec<u8>>> = vec![None; files.len()];
    let before = proc::children_usage();
    let t0 = Instant::now();
    for _ in 0..n_repeats {
        for (i, (file, path)) in files.iter().zip(&paths).enumerate() {
            report.attempted += 1;
            let out = match proc::xdl_run(xdl, path, &[]) {
                Ok(out) => out,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            match &first_output[i] {
                None => {
                    if let Err(e) = check_answers(file, &out.stdout) {
                        report.fail(format!("{}: {e}", file.name));
                    }
                    first_output[i] = Some(out.stdout);
                }
                Some(first) if *first != out.stdout => {
                    report.fail(format!("{}: output differs between repeats", file.name));
                }
                Some(_) => {}
            }
            walls[i].push(out.wall_s);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let after = proc::children_usage();

    // Twins: the optimizer must not change a byte.
    for (twin, path) in twins.iter().zip(&twin_paths) {
        let pair = proc::xdl_run(xdl, path, &[])
            .and_then(|a| proc::xdl_run(xdl, path, &["--no-optimize"]).map(|b| (a, b)));
        report.attempted += 1;
        match pair {
            Err(e) => report.fail(e),
            Ok((optimized, plain)) => {
                if optimized.stdout != plain.stdout {
                    report.fail(format!(
                        "{} twin: optimized output differs from --no-optimize",
                        twin.name
                    ));
                } else if let Err(e) = check_answers(twin, &plain.stdout) {
                    report.fail(format!("{} twin: {e}", twin.name));
                }
            }
        }
    }

    let runs: Vec<f64> = walls.iter().flatten().copied().collect();
    let family_s = |family: Family| -> Option<f64> {
        files
            .iter()
            .zip(&walls)
            .filter(|(f, _)| f.family == family)
            .map(|(_, w)| median(w))
            .sum()
    };
    let in_family = |family: Family| files.iter().filter(|f| f.family == family).count();
    report.push("setup_s", median(&setups), "s", setups.len());
    report.push(
        "throughput_ops_s",
        Some(runs.len() as f64 / wall_s),
        "1/s",
        runs.len(),
    );
    // One `xdl run` answers one query, cold: its wall time is the latency
    // a batch user sees.
    let run_ms = sorted(runs.iter().map(|s| s * 1e3).collect());
    report.push(
        "query_p50_ms",
        percentile(&run_ms, 50.0),
        "ms",
        run_ms.len(),
    );
    report.push("peak_rss_mib", Some(after.max_rss_mib), "MiB", runs.len());
    report.push(
        "cpu_s_per_kop",
        Some((after.cpu_s - before.cpu_s) / (runs.len().max(1) as f64 / 1000.0)),
        "s",
        runs.len(),
    );
    report.push(
        "batch_existential_s",
        family_s(Family::Existential),
        "s",
        in_family(Family::Existential) * n_repeats,
    );
    report.push(
        "batch_fixpoint_s",
        family_s(Family::Fixpoint),
        "s",
        in_family(Family::Fixpoint) * n_repeats,
    );
    report.push(
        "fail_ratio",
        Some(report.failed as f64 / report.attempted.max(1) as f64),
        "ratio",
        report.attempted as usize,
    );
    for (file, w) in files.iter().zip(&walls) {
        report.push(&format!("file.{}_s", file.name), median(w), "s", w.len());
    }
    report.push("timed_section_s", Some(wall_s), "s", 1);
    if !report.correct() {
        run_dir.keep();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_follow_seconds() {
        assert_eq!(repeats(10.0), 3);
        assert_eq!(repeats(20.0), 6);
        assert_eq!(repeats(1.0), 1);
    }

    #[test]
    fn answer_counts_skip_the_header_and_booleans_must_be_true() {
        let mut f = batch::files(1, Scale::Twin).remove(0);
        f.answers = Some(2);
        assert!(check_answers(&f, b"X\n1\n2\n").is_ok());
        assert!(check_answers(&f, b"X\n1\n").is_err());
        f.answers = None;
        assert!(check_answers(&f, b"true\n").is_ok());
        assert!(check_answers(&f, b"false\n").is_err());
    }
}
