//! The traced replay: every op through `ServerState::handle` under a root
//! span, then the *layer walk* — for the same op the probe itself calls
//! the public functions in pipeline order on the same inputs, each under a
//! child span. What the walk cannot name (lock scopes, rule cloning, trace
//! JSON, memo bookkeeping) is the handle span minus the walk's children:
//! the unattributed share.
//!
//! The walk keeps its own mirror of the server's state — a shared
//! database, a WAL, one prepared program per form and up to eight resident
//! evaluations — and follows the server's decisions from the outside: the
//! `cache=` tag of each response says which path the server took.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use datalog_adorn::query_adornment;
use datalog_ast::{parse_atom, parse_program, Atom, Rule};
use datalog_engine::incremental::{DeltaLimits, Fact as DeltaFact, ResidentEval};
use datalog_engine::{query_answers_full, AnswerSet, DbSnapshot, SharedDatabase};
use datalog_opt::{prepare, OptimizerConfig, PreparedProgram};
use datalog_server::{
    render_answers, FaultPlan, FsyncPolicy, Request, Response, ServerConfig, ServerState, Wal,
    WalOp,
};

use xdl_bench::report::{push_source_rows, Report};
use xdl_bench::spans::{Recorder, SpanId};
use xdl_bench::stats::median;

use crate::pool::Pool;
use crate::probes::{self, Loaded};
use crate::scenario::{ReplayOp, Scenario};

/// Resident slots of a default server (`--resident-forms`).
const RESIDENT_SLOTS: usize = 8;

/// Ops of the untraced twin replay behind `trace.span_overhead_ratio`.
const OVERHEAD_OPS: usize = 600;

struct Form {
    prepared: PreparedProgram,
    eligible: bool,
    resident: Option<ResidentEval>,
    last_used: u64,
}

struct Mirror {
    rules: Vec<Rule>,
    db: SharedDatabase,
    wal: Wal,
    forms: BTreeMap<(String, String), Form>,
    clock: u64,
}

/// Handle-span and walk-children durations of one op, for the shares.
struct OpTimes {
    is_query: bool,
    timed: bool,
    handle_ns: u64,
    children_ns: u64,
    /// Walk time spent in a cold fixpoint (`eval.cold` / `incremental.new`).
    fixpoint_ns: u64,
    /// Walk time spent in the ingest layers (WAL, dedup, propagation).
    ingest_ns: u64,
}

fn server_state(wal_dir: &Path) -> ServerState {
    let _ = std::fs::remove_dir_all(wal_dir);
    let cfg = ServerConfig {
        wal_dir: Some(wal_dir.to_path_buf()),
        ..ServerConfig::default()
    };
    ServerState::from_config(&cfg).expect("server state with a fresh WAL")
}

fn load_into(state: &ServerState, dir: &Path, sc: &Scenario) {
    for (i, text) in sc.load_files.iter().enumerate() {
        let path = dir.join(format!("{}-load-{i}.dl", sc.name));
        std::fs::write(&path, text).expect("writing a load file");
        let resp = state.handle(&Request::Load(path.display().to_string()));
        assert!(resp.ok, "LOAD failed: {}", resp.error);
    }
}

fn request_of(op: &ReplayOp) -> (&str, Request) {
    let line = match op {
        ReplayOp::Query { line, .. } | ReplayOp::Fact { line, .. } => line.as_str(),
    };
    (
        line,
        Request::parse(line).expect("generated request lines parse"),
    )
}

impl Mirror {
    fn new(dir: &Path, loaded: &Loaded) -> Mirror {
        let wal_dir = dir.join("wal-mirror");
        let _ = std::fs::remove_dir_all(&wal_dir);
        let (wal, _) = Wal::open(&wal_dir, FsyncPolicy::Always, 0, Arc::new(FaultPlan::new()))
            .expect("opening the mirror WAL");
        Mirror {
            rules: loaded.program.rules.clone(),
            db: probes::shared_db(loaded),
            wal,
            forms: BTreeMap::new(),
            clock: 0,
        }
    }

    fn residents(&self) -> usize {
        self.forms.values().filter(|f| f.resident.is_some()).count()
    }

    /// Pin like the server's resident LRU: evict the least recently used
    /// other resident when the slots are full.
    fn pin(&mut self, key: &(String, String), resident: ResidentEval) {
        while self.residents() >= RESIDENT_SLOTS {
            let victim = self
                .forms
                .iter()
                .filter(|(k, f)| f.resident.is_some() && *k != key)
                .min_by_key(|(_, f)| f.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(v) => self.forms.get_mut(&v).expect("victim exists").resident = None,
                None => break,
            }
        }
        self.forms.get_mut(key).expect("form exists").resident = Some(resident);
    }

    /// The walk of one `QUERY`, following the path `tag` says the server
    /// took. Returns the payload the walk rendered, when it evaluated.
    fn walk_query(&mut self, w: &mut Steps, line: &str, tag: &str) -> Option<String> {
        let req = w.step(
            "protocol.request_parse",
            "protocol.request_parse_us",
            || Request::parse(line).expect("generated request lines parse"),
        );
        let Request::Query { text, .. } = req else {
            unreachable!("a QUERY line parses to a query");
        };
        let parsed = w.step("ast.parse_query", "ast.parse_query_us", || {
            parse_program(&text).expect("generated queries parse")
        });
        let query = parsed.program.query.expect("a query");
        let adornment = w.step("adorn.query_adornment", "adorn.query_adornment_us", || {
            query_adornment(&query).expect("adornable")
        });
        let key = (query.atom.pred.to_string(), adornment.to_string());
        self.clock += 1;
        if !self.forms.contains_key(&key) {
            // First sighting: the server runs the optimizer under its cache
            // lock; so does the walk.
            let prepared = w.step("opt.prepare", "opt.prepare_ms", || {
                let cfg = OptimizerConfig::default();
                prepare(&self.rules, &query.atom.pred, &adornment, &cfg)
                    .expect("generated forms prepare")
            });
            let eligible = ResidentEval::supports(&prepared.program)
                && ResidentEval::admits_bound_class(prepared.bound_class);
            self.forms.insert(
                key.clone(),
                Form {
                    prepared,
                    eligible,
                    resident: None,
                    last_used: 0,
                },
            );
        }
        let snapshot = w.step("shared.snapshot", "shared.snapshot_us", || {
            self.db.snapshot()
        });

        let form = self.forms.get_mut(&key).expect("form exists");
        form.last_used = self.clock;
        let q_atom: Atom = form
            .prepared
            .instantiate_atom(&query.atom)
            .expect("form arity");
        let opts = probes::serving_opts();
        let answers: Option<AnswerSet> = match tag {
            // The memo is a string compare inside the cache; nothing to walk.
            "answers" | "stale_answers" => None,
            "resident" | "stale" => {
                if form.resident.is_none() {
                    // The mirror's LRU drifted from the server's; rebuild
                    // outside the spans.
                    let resident = build_resident(&form.prepared, &snapshot);
                    self.pin(&key, resident);
                }
                let resident = self.forms[&key].resident.as_ref().expect("pinned");
                Some(w.step("incremental.answers", "incremental.answers_us", || {
                    resident.answers(&q_atom)
                }))
            }
            _ if form.eligible => {
                // Cold, but kept: the support-restricted copy, then the
                // fixpoint that stays resident.
                let prepared = &form.prepared;
                let input = w.step("shared.rows", "shared.rows_ms", || {
                    probes::support_rows(prepared, &snapshot)
                });
                let before = w.named_ns;
                let resident = w.step("incremental.new", "incremental.new_ms", || {
                    ResidentEval::new(&prepared.program, &input, &opts)
                        .expect("resident construction")
                });
                w.fixpoint_ns += w.named_ns - before;
                let a = w.step("incremental.answers", "incremental.answers_us", || {
                    resident.answers(&q_atom)
                });
                self.pin(&key, resident);
                Some(a)
            }
            _ => {
                let program = form.prepared.instantiate(&query.atom).expect("form arity");
                let facts = w.step("shared.to_factset", "shared.to_factset_ms", || {
                    snapshot.to_factset()
                });
                let before = w.named_ns;
                let (a, _) = w.step("eval.cold", "eval.cold_ms", || {
                    query_answers_full(&program, &facts, &opts).expect("cold evaluation")
                });
                w.fixpoint_ns += w.named_ns - before;
                Some(a)
            }
        };
        answers.map(|a| {
            let payload = w.step("server.render", "server.render_us", || render_answers(&a));
            let write_span = w.rec.spans().len();
            probes::write_response(w.pool, w.rec, Some(w.root), w.op_id, &payload, a.len());
            w.named_ns += w.rec.spans()[write_span].duration_ns();
            payload
        })
    }

    /// The walk of one `FACT`: log, dedup, propagate into every resident
    /// that reads the predicate.
    fn walk_fact(&mut self, w: &mut Steps, line: &str) {
        let req = w.step(
            "protocol.request_parse",
            "protocol.request_parse_us",
            || Request::parse(line).expect("generated request lines parse"),
        );
        let Request::Fact(text) = req else {
            unreachable!("a FACT line parses to a fact");
        };
        let atom = w.step("ast.parse_fact", "ast.parse_fact_us", || {
            parse_atom(&text).expect("generated facts parse")
        });
        let values = atom.ground_values().expect("ground");
        let op = WalOp::Fact(atom.to_string());
        let before = w.named_ns;
        w.step("wal.append_sync", "wal.append_sync_us", || {
            self.wal.append(&op).expect("append + fsync")
        });
        let fresh = w.step("shared.insert", "shared.insert_us", || {
            self.db
                .insert(&atom.pred, &values)
                .expect("consistent arity")
        });
        assert!(fresh, "replayed facts are new");
        let delta = DeltaFact::new(atom.pred.clone(), values);
        for form in self.forms.values_mut() {
            if !form.prepared.depends_on(&atom.pred) {
                continue;
            }
            let Some(resident) = form.resident.as_mut() else {
                continue;
            };
            w.step(
                "incremental.apply_delta",
                "incremental.apply_delta_us",
                || {
                    resident
                        .apply_deltas(std::slice::from_ref(&delta), &DeltaLimits::default())
                        .expect("delta propagation")
                },
            );
        }
        w.ingest_ns += w.named_ns - before;
        w.step(
            "protocol.response_write",
            "protocol.response_write_us",
            || {
                let mut sink = Vec::with_capacity(64);
                Response::ok()
                    .with_info("new", true)
                    .with_info("pred", &atom.pred)
                    .with_info("version", 0)
                    .write_to(&mut sink)
                    .expect("writing to memory");
            },
        );
    }
}

fn build_resident(prepared: &PreparedProgram, snapshot: &DbSnapshot) -> ResidentEval {
    let input = probes::support_rows(prepared, snapshot);
    ResidentEval::new(&prepared.program, &input, &probes::serving_opts())
        .expect("resident construction")
}

/// The walk of one op: a root span whose children are the layer calls.
/// Every step is a span, a pooled sample, and part of the time the walk
/// can name.
struct Steps<'a> {
    pool: &'a mut Pool,
    rec: &'a mut Recorder,
    root: SpanId,
    op_id: u32,
    named_ns: u64,
    /// Of `named_ns`: cold fixpoints (`eval.cold` / `incremental.new`).
    fixpoint_ns: u64,
    /// Of `named_ns`: the ingest layers (WAL, dedup, propagation).
    ingest_ns: u64,
}

impl<'a> Steps<'a> {
    fn open(
        pool: &'a mut Pool,
        rec: &'a mut Recorder,
        name: &'static str,
        op_id: u32,
    ) -> Steps<'a> {
        let root = rec.open(name, None, op_id);
        Steps {
            pool,
            rec,
            root,
            op_id,
            named_ns: 0,
            fixpoint_ns: 0,
            ingest_ns: 0,
        }
    }

    fn step<T>(&mut self, span: &'static str, metric: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.rec.time(span, Some(self.root), self.op_id, f);
        self.pool.time(metric, ns as f64);
        self.named_ns += ns;
        out
    }

    fn close(self) -> (u64, u64, u64) {
        self.rec.close(self.root);
        (self.named_ns, self.fixpoint_ns, self.ingest_ns)
    }
}

/// p50 of `handle` over the first [`OVERHEAD_OPS`] ops on a fresh state,
/// timed with two clock reads and no span.
fn untraced_handle_p50(dir: &Path, sc: &Scenario) -> Option<f64> {
    let state = server_state(&dir.join("wal-untraced"));
    load_into(&state, dir, sc);
    let ns: Vec<f64> = sc
        .ops
        .iter()
        .take(OVERHEAD_OPS)
        .map(|op| {
            let (_, req) = request_of(op);
            let t0 = std::time::Instant::now();
            let resp = state.handle(&req);
            let ns = t0.elapsed().as_nanos() as f64;
            assert!(resp.ok, "replay op failed: {}", resp.error);
            ns
        })
        .collect();
    median(&ns)
}

/// What the replay of one scenario learned beyond the pooled samples:
/// handle time of the timed ops and the walk's part of it, and the handle
/// latency (ms) of every query by the `cache=` tag of its response.
#[derive(Default)]
pub struct Shares {
    pub query_handle_ns: u64,
    pub query_fixpoint_ns: u64,
    pub fact_handle_ns: u64,
    pub fact_ingest_ns: u64,
    pub sources: BTreeMap<String, Vec<f64>>,
}

impl Shares {
    pub fn absorb(&mut self, other: Shares) {
        self.query_handle_ns += other.query_handle_ns;
        self.query_fixpoint_ns += other.query_fixpoint_ns;
        self.fact_handle_ns += other.fact_handle_ns;
        self.fact_ingest_ns += other.fact_ingest_ns;
        for (tag, ms) in other.sources {
            self.sources.entry(tag).or_default().extend(ms);
        }
    }

    /// Per-source shares and latencies of the replay (in-process; the
    /// untraced driver prints the client-observed ones under the same
    /// names).
    pub fn push_sources(&self, report: &mut Report) {
        push_source_rows(report, &self.sources);
    }
}

/// Replay `sc` through a WAL-backed `ServerState`, walk every op, and
/// check every response: `OK`, equal to the model where the model knows
/// the answer, and equal to the walk's own evaluation.
pub fn replay(
    pool: &mut Pool,
    rec: &mut Recorder,
    report: &mut Report,
    dir: &Path,
    sc: &Scenario,
    loaded: &Loaded,
    first_op_id: u32,
) -> Shares {
    let untraced_p50 = untraced_handle_p50(dir, sc);
    let state = server_state(&dir.join("wal-traced"));
    load_into(&state, dir, sc);
    let mut mirror = Mirror::new(dir, loaded);
    let mut all: Vec<OpTimes> = Vec::with_capacity(sc.ops.len());
    let mut sources: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, op) in sc.ops.iter().enumerate() {
        let op_id = first_op_id + i as u32;
        let (line, req) = request_of(op);
        let root: SpanId = rec.open("server.handle", None, op_id);
        let resp = state.handle(&req);
        let handle_ns = rec.close(root);
        let mut times = OpTimes {
            is_query: matches!(op, ReplayOp::Query { .. }),
            timed: matches!(
                op,
                ReplayOp::Query { timed: true, .. } | ReplayOp::Fact { timed: true, .. }
            ),
            handle_ns,
            children_ns: 0,
            fixpoint_ns: 0,
            ingest_ns: 0,
        };
        report.check(resp.ok, || format!("{line}: ERR {}", resp.error));
        match op {
            ReplayOp::Query { expect, .. } => {
                pool.time("server.handle_query_us", handle_ns as f64);
                let tag = resp.get("cache").unwrap_or("").to_string();
                sources
                    .entry(tag.clone())
                    .or_default()
                    .push(handle_ns as f64 / 1e6);
                let served = resp.payload_text();
                if let Some(expect) = expect {
                    report.check(served == *expect, || {
                        format!("{line}: replayed payload differs from the model")
                    });
                }
                let mut w = Steps::open(pool, rec, "walk.query", op_id);
                let walked = mirror.walk_query(&mut w, line, &tag);
                (times.children_ns, times.fixpoint_ns, times.ingest_ns) = w.close();
                // A stale read may lag what the walk sees.
                if let (Some(walked), false) = (walked, tag.starts_with("stale")) {
                    report.check(walked == served, || {
                        format!("{line}: the walk's answer differs from the server's")
                    });
                }
            }
            ReplayOp::Fact { .. } => {
                pool.time("server.handle_fact_us", handle_ns as f64);
                let mut w = Steps::open(pool, rec, "walk.fact", op_id);
                mirror.walk_fact(&mut w, line);
                (times.children_ns, times.fixpoint_ns, times.ingest_ns) = w.close();
            }
        }
        all.push(times);
    }

    // What the outside view cannot name.
    let mut shares = Shares::default();
    for (is_query, metric) in [
        (true, "server.unattributed_query_share"),
        (false, "server.unattributed_fact_share"),
    ] {
        for t in all.iter().filter(|t| t.is_query == is_query) {
            let named = t.children_ns.min(t.handle_ns) as f64;
            pool.sample(metric, 1.0 - named / t.handle_ns.max(1) as f64);
            if !t.timed {
                continue;
            }
            if is_query {
                shares.query_handle_ns += t.handle_ns;
                shares.query_fixpoint_ns += t.fixpoint_ns;
            } else {
                shares.fact_handle_ns += t.handle_ns;
                shares.fact_ingest_ns += t.ingest_ns;
            }
        }
    }
    // The benchmark's own tracing: traced over untraced handle p50 on the
    // same leading ops.
    let traced: Vec<f64> = all
        .iter()
        .take(OVERHEAD_OPS)
        .map(|t| t.handle_ns as f64)
        .collect();
    if let (Some(traced), Some(untraced)) = (median(&traced), untraced_p50) {
        pool.sample("trace.span_overhead_ratio", traced / untraced);
    }
    shares.sources = sources;
    shares
}

/// `server.wire_overhead_us`: the same queries through a real socket
/// (`Server::spawn` + `Client`, this process) and through `handle`; the
/// difference of the medians is the socket and the worker hand-off.
pub fn wire_overhead(pool: &mut Pool, dir: &Path, sc: &Scenario) {
    use datalog_server::{Client, Server};
    const REQUESTS: usize = 400;
    let queries: Vec<&str> = sc
        .ops
        .iter()
        .filter_map(|op| match op {
            ReplayOp::Query { line, .. } => Some(line.as_str()),
            ReplayOp::Fact { .. } => None,
        })
        .collect();
    if queries.is_empty() {
        return;
    }
    let lines: Vec<&str> = queries.iter().cycle().take(REQUESTS).copied().collect();
    let server = Server::spawn(&ServerConfig::default()).expect("in-process server");
    load_into(server.state(), dir, sc);
    let mut client = Client::connect(server.addr()).expect("connecting to the in-process server");
    let state = Arc::clone(server.state());
    let pass = |send: &mut dyn FnMut(&str) -> bool| -> Vec<f64> {
        lines
            .iter()
            .map(|line| {
                let t0 = std::time::Instant::now();
                assert!(send(line), "wire probe query failed: {line}");
                t0.elapsed().as_nanos() as f64
            })
            .collect()
    };
    let mut via_socket = |line: &str| client.request(line).is_ok_and(|r| r.ok);
    let mut via_handle = |line: &str| {
        state
            .handle(&Request::parse(line).expect("generated request lines parse"))
            .ok
    };
    // A throwaway pass first, so every timed pass finds each form prepared
    // and resident; then the two routes alternate over the same texts.
    pass(&mut via_socket);
    let mut socket = pass(&mut via_socket);
    let mut direct = pass(&mut via_handle);
    socket.extend(pass(&mut via_socket));
    direct.extend(pass(&mut via_handle));
    if let (Some(socket), Some(direct)) = (median(&socket), median(&direct)) {
        pool.time("server.wire_overhead_us", socket - direct);
    }
    drop(client);
    server.shutdown();
    server.join();
}
