//! The `serve-*` runner: start the real binary, drive it over TCP from
//! closed-loop client connections, check every output, measure from the
//! outside.
//!
//! One run is: `LOAD` the EDB once into a WAL directory → set up five
//! times (restore that directory → spawn → recovered → `listening` →
//! warm-up done; the third server is kept) → timed section → check queries
//! against the model, itself checked against `xdl run` → `kill -9` →
//! restart on the same WAL directory five times → the same check queries
//! again.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::org::{Org, Pred, Query};
use crate::proc::{self, RunDir, Server};
use crate::report::{push_source_rows, Report};
use crate::stats::{median, percentile, sorted};
use crate::wire::{Conn, Reply};
use crate::workload::{Op, ServePlan};

/// Set-ups per run; `setup_s` is their median. Also restarts per run for
/// `recover_s`.
const REPEATS: usize = 5;

/// One timed round trip.
#[derive(Debug, Clone)]
struct Sample {
    is_query: bool,
    ms: f64,
    /// The `cache=` tag of a query response: which part of the server
    /// answered.
    source: Option<String>,
}

/// What one client connection saw.
struct ClientOutcome {
    samples: Vec<Sample>,
    /// `mgr` edges the server acknowledged.
    acked: Vec<(u32, u32)>,
    failures: Vec<String>,
    /// Ops not attempted because the connection broke.
    abandoned: usize,
}

struct Request {
    line: String,
    /// The one right payload, where there is one.
    expect: Option<Arc<str>>,
    edge: Option<(u32, u32)>,
}

fn run_client(addr: &str, requests: &[Request]) -> ClientOutcome {
    let mut out = ClientOutcome {
        samples: Vec::with_capacity(requests.len()),
        acked: Vec::new(),
        failures: Vec::new(),
        abandoned: 0,
    };
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(e);
            out.abandoned = requests.len();
            return out;
        }
    };
    for (i, req) in requests.iter().enumerate() {
        let t0 = Instant::now();
        let reply = conn.request(&req.line);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                out.failures.push(format!("{}: {e}", req.line));
                out.abandoned = requests.len() - i;
                return out;
            }
        };
        if let Err(e) = reply.require_ok(&req.line) {
            // Any ERR — busy, stale, bound included — is a failed op.
            out.failures.push(e);
            continue;
        }
        if let Some(expect) = &req.expect {
            if reply.payload != expect.as_bytes() {
                out.failures
                    .push(payload_mismatch(&req.line, &reply, expect));
                continue;
            }
        }
        if let Some(edge) = req.edge {
            out.acked.push(edge);
        }
        out.samples.push(Sample {
            is_query: req.edge.is_none(),
            ms,
            source: reply.cache().map(str::to_string),
        });
    }
    out
}

fn payload_mismatch(what: &str, reply: &Reply, expect: &str) -> String {
    let got = String::from_utf8_lossy(&reply.payload);
    let first_diff = got
        .lines()
        .zip(expect.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(expect.lines().count()));
    format!(
        "{what}: payload differs from the oracle at line {first_diff} \
         ({} lines served, {} expected)",
        got.lines().count(),
        expect.lines().count()
    )
}

/// A server that has loaded the plan's EDB and answered its warm-up.
struct Ready {
    server: Server,
    conn: Conn,
    setup_s: f64,
    /// Latencies of warm-up responses tagged `cache=miss`.
    cold_ms: Vec<f64>,
}

struct Runner<'a> {
    xdl: &'a Path,
    dir: &'a Path,
    plan: &'a ServePlan,
    load_paths: Vec<PathBuf>,
    report: Report,
}

impl Runner<'_> {
    fn wal_dir(&self) -> PathBuf {
        self.dir.join("wal")
    }

    fn spawn(&self) -> Result<Server, String> {
        Server::spawn(self.xdl, &self.wal_dir(), &self.dir.join("server.err"))
    }

    /// `LOAD` the plan's EDB into a fresh WAL directory, once, and kill the
    /// server: every set-up restores a copy of that directory. Returns the
    /// time from spawn to the last `LOAD` acknowledged.
    ///
    /// `LOAD` flushes once per fact (`fsync=always`), and the sandbox's
    /// flush latency moves by a factor of 2–3 within an hour, so a set-up
    /// that includes it cannot repeat within any bound; it is reported on
    /// its own as `load_s`.
    fn provision(&mut self) -> Result<f64, String> {
        let _ = std::fs::remove_dir_all(self.wal_dir());
        let t0 = Instant::now();
        let server = self.spawn()?;
        let mut conn = Conn::connect(&server.addr)?;
        for path in &self.load_paths {
            let line = format!("LOAD {}", path.display());
            let reply = conn.request(&line)?;
            self.report.attempted += 1;
            reply.require_ok(&line)?;
        }
        let load_s = t0.elapsed().as_secs_f64();
        drop(conn);
        server.kill();
        let provisioned = self.dir.join("wal-provisioned");
        let _ = std::fs::remove_dir_all(&provisioned);
        std::fs::rename(self.wal_dir(), &provisioned)
            .map_err(|e| format!("{}: {e}", provisioned.display()))?;
        Ok(load_s)
    }

    /// Restore the provisioned WAL directory → spawn → recovered →
    /// `listening` → warm-up done.
    fn setup(&mut self) -> Result<Ready, String> {
        let _ = std::fs::remove_dir_all(self.wal_dir());
        let t0 = Instant::now();
        proc::copy_flat_dir(&self.dir.join("wal-provisioned"), &self.wal_dir())?;
        let server = self.spawn()?;
        self.report.check(server.recovered.is_some(), || {
            "server started on the provisioned WAL printed no `recovered` line".to_string()
        });
        let mut conn = Conn::connect(&server.addr)?;
        let mut cold_ms = Vec::new();
        for q in &self.plan.warmup {
            let line = format!("QUERY {}", q.text());
            let t = Instant::now();
            let reply = conn.request(&line)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.check_reply(&line, &reply, &self.plan.org.answer(q));
            if reply.cache() == Some("miss") {
                cold_ms.push(ms);
            }
        }
        Ok(Ready {
            server,
            conn,
            setup_s: t0.elapsed().as_secs_f64(),
            cold_ms,
        })
    }

    fn check_reply(&mut self, what: &str, reply: &Reply, expect: &str) {
        self.report.attempted += 1;
        if let Err(e) = reply.require_ok(what) {
            self.report.fail(e);
        } else if reply.payload != expect.as_bytes() {
            self.report.fail(payload_mismatch(what, reply, expect));
        }
    }

    /// The model's answer to each check query — after `xdl run` has vouched
    /// for the model: over rules + every acknowledged fact, `xdl run` must
    /// print each of the five derived relations in full exactly as the
    /// model renders it. The relations are asked for without constants: at
    /// the baseline commit `xdl run` over-deletes rules for some queries
    /// that carry a constant (README, "Findings"), while the server, which
    /// optimizes the constant-free form, does not.
    fn expected_checks(&mut self, org: &Org) -> Result<Vec<String>, String> {
        let mut base = String::from(crate::org::RULES);
        for line in org.fact_lines() {
            base.push_str(&line);
            base.push('\n');
        }
        for pred in [
            Pred::Above,
            Pred::Peer,
            Pred::Skip,
            Pred::Flagged,
            Pred::Clean,
        ] {
            let q = Query::full(pred);
            let path = self.dir.join(format!("relation-{}.dl", pred.name()));
            std::fs::write(&path, format!("{base}{}\n", q.text()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let ran = proc::xdl_run(self.xdl, &path, &[])?;
            let model = org.answer(&q);
            self.report.check(ran.stdout == model.as_bytes(), || {
                format!(
                    "xdl run and the model disagree on {} ({} vs {} lines)",
                    q.text(),
                    String::from_utf8_lossy(&ran.stdout).lines().count(),
                    model.lines().count()
                )
            });
        }
        Ok(self.plan.checks.iter().map(|q| org.answer(q)).collect())
    }

    fn run_checks(
        &mut self,
        conn: &mut Conn,
        expected: &[String],
        when: &str,
    ) -> Result<(), String> {
        let checks: Vec<&Query> = self.plan.checks.iter().collect();
        for (q, expect) in checks.into_iter().zip(expected) {
            let line = format!("QUERY {}", q.text());
            let reply = conn.request(&line)?;
            self.check_reply(&format!("{line} ({when})"), &reply, expect);
        }
        Ok(())
    }
}

fn requests_for(
    plan: &ServePlan,
    ops: &[Op],
    memo: &mut HashMap<String, Arc<str>>,
) -> Vec<Request> {
    ops.iter()
        .map(|op| {
            let (expect, edge) = match op {
                Op::Query { q, .. } if plan.check_each_response => {
                    let answer = memo
                        .entry(q.text())
                        .or_insert_with(|| Arc::from(plan.org.answer(q)));
                    (Some(Arc::clone(answer)), None)
                }
                Op::Query { .. } => (None, None),
                Op::Fact { parent, child } => (None, Some((*parent, *child))),
            };
            Request {
                line: op.line(),
                expect,
                edge,
            }
        })
        .collect()
}

/// Run one `serve-*` workload and report every end-to-end metric it
/// defines, plus the per-source numbers read from response headers.
pub fn run(xdl: &Path, run_dir: &mut RunDir, plan: &ServePlan) -> Result<Report, String> {
    let load_paths: Vec<PathBuf> = plan
        .load_files
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let path = run_dir.path.join(format!("load-{i}.dl"));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(path)
        })
        .collect::<Result<_, String>>()?;
    let mut r = Runner {
        xdl,
        dir: &run_dir.path,
        plan,
        load_paths,
        report: Report::new(plan.workload),
    };

    // Load once; set up five times, the last server is the one measured.
    let load_s = r.provision()?;
    let mut setups = Vec::new();
    let mut cold_ms = Vec::new();
    let mut ready = None;
    for _ in 0..REPEATS {
        if let Some(Ready { server, .. }) = ready.take() {
            server.kill();
        }
        let next = r.setup()?;
        setups.push(next.setup_s);
        cold_ms = next.cold_ms.clone();
        ready = Some(next);
    }
    let Ready {
        server, mut conn, ..
    } = ready.expect("REPEATS > 0");

    // Timed section: one thread per closed-loop connection.
    let mut memo = HashMap::new();
    let requests: Vec<Vec<Request>> = plan
        .clients
        .iter()
        .map(|ops| requests_for(plan, ops, &mut memo))
        .collect();
    let cpu_before = proc::cpu_seconds(server.pid())?;
    let t0 = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|reqs| s.spawn(|| run_client(&server.addr, reqs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = proc::cpu_seconds(server.pid())? - cpu_before;
    let peak_rss = proc::peak_rss_mib(server.pid())?;

    let mut org = plan.org.clone();
    let mut samples = Vec::new();
    let timed_ops: usize = requests.iter().map(Vec::len).sum();
    r.report.attempted += timed_ops as u64;
    for o in outcomes {
        for f in o.failures {
            r.report.fail(f);
        }
        // The first abandoned op is the failure already recorded.
        r.report.failed += o.abandoned.saturating_sub(1) as u64;
        for (p, c) in o.acked {
            org.add_edge(p, c);
        }
        samples.extend(o.samples);
    }
    let acked_facts = org.fact_lines().len();

    // Outputs: the check queries now, and again after a crash.
    let expected = r.expected_checks(&org)?;
    r.run_checks(&mut conn, &expected, "after the timed section")?;
    let disk_bytes = proc::dir_bytes(&r.wal_dir())?;
    drop(conn);
    let mut recover = Vec::new();
    let mut server = server;
    for _ in 0..REPEATS {
        // With fsync=always every acknowledged write was flushed before
        // its ack, so killing the process is the whole durability test.
        server.kill();
        server = r.spawn()?;
        r.report.check(server.recovered.is_some(), || {
            "restarted server printed no `recovered` line".to_string()
        });
        recover.push(server.startup_s);
    }
    let mut conn = Conn::connect(&server.addr)?;
    r.run_checks(&mut conn, &expected, "after kill -9 and restart")?;
    drop(conn);
    server.kill();

    // Metrics.
    let mut report = r.report;
    let completed = samples.len();
    let ms_of = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        sorted(samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect())
    };
    let queries = ms_of(&|s| s.is_query);
    let facts = ms_of(&|s| !s.is_query);
    cold_ms.extend(
        samples
            .iter()
            .filter(|s| s.source.as_deref() == Some("miss"))
            .map(|s| s.ms),
    );
    report.push("setup_s", median(&setups), "s", setups.len());
    report.push("load_s", Some(load_s), "s", 1);
    report.push(
        "throughput_ops_s",
        Some(completed as f64 / wall_s),
        "1/s",
        completed,
    );
    report.push(
        "query_p50_ms",
        percentile(&queries, 50.0),
        "ms",
        queries.len(),
    );
    report.push(
        "query_p99_ms",
        percentile(&queries, 99.0),
        "ms",
        queries.len(),
    );
    if !facts.is_empty() {
        report.push("fact_p50_ms", percentile(&facts, 50.0), "ms", facts.len());
        report.push("fact_p99_ms", percentile(&facts, 99.0), "ms", facts.len());
    }
    report.push("cold_query_p50_ms", median(&cold_ms), "ms", cold_ms.len());
    report.push("recover_s", median(&recover), "s", recover.len());
    report.push("peak_rss_mib", Some(peak_rss), "MiB", 1);
    report.push(
        "cpu_s_per_kop",
        Some(cpu_s / (completed.max(1) as f64 / 1000.0)),
        "s",
        completed,
    );
    report.push(
        "disk_bytes_per_fact",
        Some(disk_bytes as f64 / acked_facts as f64),
        "B",
        acked_facts,
    );
    report.push(
        "fail_ratio",
        Some(report.failed as f64 / report.attempted.max(1) as f64),
        "ratio",
        report.attempted as usize,
    );
    // Per-source shares and latencies, from the `cache=` header.
    let mut by_tag: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for sample in &samples {
        if let Some(tag) = &sample.source {
            by_tag.entry(tag.clone()).or_default().push(sample.ms);
        }
    }
    push_source_rows(&mut report, &by_tag);
    report.push("timed_section_s", Some(wall_s), "s", 1);
    if !report.correct() {
        run_dir.keep();
    }
    Ok(report)
}
