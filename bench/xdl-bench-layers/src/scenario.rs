//! What the probes run on: the untraced driver's own seeded inputs,
//! regenerated from the same seed and flattened into one single-threaded
//! op stream.

use xdl_bench::batch::{self, BatchFile, Family, Scale};
use xdl_bench::org::Org;
use xdl_bench::workload::{self, Mode, Op, ServePlan, BATCH_RUN};

/// One request of the replay.
pub enum ReplayOp {
    Query {
        /// The request line (`QUERY [staleness=50] ?- ...`).
        line: String,
        /// The one right payload, where the model knows it.
        expect: Option<String>,
        /// Part of the workload's timed traffic (not warm-up): counted in
        /// the workload-separation shares.
        timed: bool,
    },
    Fact {
        /// The request line (`FACT mgr(1, 2).`).
        line: String,
        timed: bool,
    },
}

/// `FACT`s replayed after the op stream on every scenario, so the ingest
/// path is probed in place even where the timed traffic never ingests
/// (`serve-read`). They stay out of the separation shares.
const INGEST_TAIL: usize = 32;

/// A rule set, an EDB, and traffic over them.
pub struct Scenario {
    pub name: String,
    /// `.dl` texts to `LOAD`, in order; rules lead the first.
    pub load_files: Vec<String>,
    /// Replayed through `ServerState::handle` and walked layer by layer.
    pub ops: Vec<ReplayOp>,
    /// Facts outside the EDB, for the ingest-side probes (`p(1, 2).`).
    pub ingest: Vec<String>,
    /// `batch-run` only: the family of the file this scenario came from.
    pub family: Option<Family>,
}

/// Ops replayed per requested second — a prefix of the driver's stream:
/// in-process and single-threaded, each op is handled and then walked, so
/// the traced run affords fewer ops than the timed one.
fn replay_ops_per_second(workload: &str) -> f64 {
    match workload {
        workload::SERVE_READ => 250.0,
        workload::SERVE_INGEST => 28.0,
        workload::SERVE_RECOMPUTE => 64.0,
        other => panic!("no replay rate for {other}"),
    }
}

/// Interleave the client streams round-robin: the same ops the untraced
/// clients send, in one deterministic order.
fn interleave(plan: &ServePlan, limit: usize) -> Vec<&Op> {
    let longest = plan.clients.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| plan.clients.iter().filter_map(move |c| c.get(i)))
        .take(limit)
        .collect()
}

fn serve_scenario(name: &str, seed: u64, seconds: f64) -> Scenario {
    let clients = workload::client_count();
    let plan = workload::serve_plan(name, seed, seconds, clients);
    let limit = (replay_ops_per_second(name) * seconds).round().max(16.0) as usize;
    let mut model: Org = plan.org.clone();
    // Single-threaded, so even an ingesting stream has one right answer
    // per query: the model follows the facts.
    let mut ops: Vec<ReplayOp> = plan
        .warmup
        .iter()
        .map(|q| ReplayOp::Query {
            line: format!("QUERY {}", q.text()),
            expect: Some(model.answer(q)),
            timed: false,
        })
        .collect();
    for op in interleave(&plan, limit) {
        ops.push(match op {
            Op::Query { q, mode } => ReplayOp::Query {
                line: op.line(),
                // A bounded-stale read may rightly lag the model.
                expect: (*mode == Mode::Fresh).then(|| model.answer(q)),
                timed: true,
            },
            Op::Fact { parent, child } => {
                model.add_edge(*parent, *child);
                ReplayOp::Fact {
                    line: op.line(),
                    timed: true,
                }
            }
        });
    }
    // Fresh leaves the stream never uses: a tail for the replay, the rest
    // for the stand-alone ingest probes.
    let leaf = |i: u32| format!("mgr({}, {}).", i % plan.org.employees, 2_000_000 + i);
    ops.extend((0..INGEST_TAIL as u32).map(|i| ReplayOp::Fact {
        line: format!("FACT {}", leaf(i)),
        timed: false,
    }));
    let ingest = (INGEST_TAIL as u32..INGEST_TAIL as u32 + 96)
        .map(leaf)
        .collect();
    Scenario {
        name: name.to_string(),
        load_files: plan.load_files,
        ops,
        ingest,
        family: None,
    }
}

/// A batch file as a served scenario: load it, ask its query twice (cold,
/// then memoized), then alternate ingest and query.
fn batch_scenario(file: &BatchFile, scale: Scale) -> Scenario {
    let (body, query) = file
        .text
        .trim_end()
        .rsplit_once('\n')
        .expect("a batch file ends in its query");
    let ask = || ReplayOp::Query {
        line: format!("QUERY {query}"),
        expect: None,
        timed: true,
    };
    let mut ops = vec![ask(), ask()];
    let (replayed, held_back) = file.extra.split_at(file.extra.len().min(16));
    // The big files never meet a server; only their twins are replayed.
    if scale == Scale::Twin {
        for f in replayed {
            ops.push(ReplayOp::Fact {
                line: format!("FACT {f}"),
                timed: true,
            });
            ops.push(ask());
        }
    }
    Scenario {
        name: format!(
            "{}{}",
            file.name,
            if scale == Scale::Twin { "-twin" } else { "" }
        ),
        load_files: vec![format!("{body}\n")],
        ops,
        ingest: held_back.to_vec(),
        family: Some(file.family),
    }
}

/// The scenarios of a workload. `serve-*`: one, probed in full.
/// `batch-run`: the nine files at full size for the walk `xdl run` takes
/// (parse → adorn → optimize → analyze → evaluate → render) and their
/// twins for the server-side, WAL and incremental probes.
pub fn scenarios(workload: &str, seed: u64, seconds: f64) -> (Vec<Scenario>, Vec<Scenario>) {
    if workload == BATCH_RUN {
        let of = |scale: Scale| -> Vec<Scenario> {
            batch::files(seed, scale)
                .iter()
                .map(|f| batch_scenario(f, scale))
                .collect()
        };
        (of(Scale::Full), of(Scale::Twin))
    } else {
        (Vec::new(), vec![serve_scenario(workload, seed, seconds)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdl_bench::workload::{SERVE_INGEST, SERVE_READ};

    #[test]
    fn replay_is_the_driver_stream_interleaved_plus_an_ingest_tail() {
        let plan = workload::serve_plan(SERVE_INGEST, 1, 10.0, 2);
        let ops = interleave(&plan, 6);
        assert_eq!(ops[0], &plan.clients[0][0]);
        assert_eq!(ops[1], &plan.clients[1][0]);
        assert_eq!(ops[4], &plan.clients[0][2]);
        let sc = serve_scenario(SERVE_INGEST, 1, 1.0);
        let timed = |op: &ReplayOp| {
            matches!(
                op,
                ReplayOp::Query { timed: true, .. } | ReplayOp::Fact { timed: true, .. }
            )
        };
        // Warm-up first, the stream's prefix, then the untimed tail.
        assert_eq!(sc.ops.iter().take_while(|op| !timed(op)).count(), 4);
        assert_eq!(sc.ops.iter().filter(|op| timed(op)).count(), 28);
        assert_eq!(sc.ops.len(), 4 + 28 + INGEST_TAIL);
        assert_eq!(sc.ingest.len(), 96);
    }

    #[test]
    fn read_replay_knows_every_answer_and_batch_twins_are_served() {
        let sc = serve_scenario(SERVE_READ, 3, 1.0);
        assert!(sc.ops.iter().all(|op| match op {
            ReplayOp::Query { expect, .. } => expect.is_some(),
            ReplayOp::Fact { timed, .. } => !timed,
        }));
        let (walked, served) = scenarios(BATCH_RUN, 1, 10.0);
        assert_eq!((walked.len(), served.len()), (9, 9));
        // Full-size files are walked, never replayed past their query.
        assert!(walked.iter().all(|sc| sc.ops.len() == 2));
        assert!(served[0].ops.len() > 2);
        assert!(served[0].load_files[0].starts_with("a(X, Y) :- p(X, Z), a(Z, Y).\n"));
        assert!(!served[0].load_files[0].contains("?-"));
    }
}
