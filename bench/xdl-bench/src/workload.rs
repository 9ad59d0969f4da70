//! The three `serve-*` traffic mixes: seeded op streams over the org schema.
//!
//! Op counts are fixed by `--seconds` (a calibrated rate times the
//! requested length), never by the clock, so the sample counts and the
//! final database are identical on every commit and every host.

use crate::org::{Arg, Org, Pred, Query};
use crate::rng::SplitMix64;

/// Workload names. Later issues cite them; do not rename.
pub const SERVE_READ: &str = "serve-read";
pub const SERVE_INGEST: &str = "serve-ingest";
pub const SERVE_RECOMPUTE: &str = "serve-recompute";
pub const BATCH_RUN: &str = "batch-run";
pub const WORKLOADS: [&str; 4] = [SERVE_READ, SERVE_INGEST, SERVE_RECOMPUTE, BATCH_RUN];

/// Closed-loop client connections: every existing client of the server
/// (`Client`, `xdl query --connect`) waits for its reply, so the load is
/// closed-loop; two connections keep a two-core host busy without making
/// the load generator itself the bottleneck.
pub const MAX_CLIENTS: usize = 2;

/// `min(nproc, 2)`.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_CLIENTS)
}

/// Log records the server's default `compact_every` waits for.
const COMPACT_EVERY: usize = 4096;

/// Records left in the log tail when `serve-ingest`'s timed section starts
/// (the EDB is loaded in two `LOAD`s: the first ends in a compaction, the
/// second leaves this many records behind it). One count-triggered
/// compaction then falls inside the timed section as soon as it ingests
/// `COMPACT_EVERY - LOG_TAIL_AT_START` facts, at any `--seconds`.
const LOG_TAIL_AT_START: usize = 3700;

/// Ingested employees get ids from here up, clear of every tree.
const FRESH_ID_BASE: u32 = 1_000_000;

/// Consistency mode of a `QUERY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Fresh,
    /// `staleness=50`.
    Stale50,
}

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Query {
        q: Query,
        mode: Mode,
    },
    /// `FACT mgr(parent, child).` with a fresh `child`.
    Fact {
        parent: u32,
        child: u32,
    },
}

impl Op {
    /// The request line, without the newline.
    pub fn line(&self) -> String {
        match self {
            Op::Query {
                q,
                mode: Mode::Fresh,
            } => format!("QUERY {}", q.text()),
            Op::Query {
                q,
                mode: Mode::Stale50,
            } => format!("QUERY staleness=50 {}", q.text()),
            Op::Fact { parent, child } => format!("FACT mgr({parent}, {child})."),
        }
    }
}

/// Everything one `serve-*` run needs, made from the seed alone.
#[derive(Debug, Clone)]
pub struct ServePlan {
    pub workload: &'static str,
    /// The model of the loaded EDB (before any ingest).
    pub org: Org,
    /// `.dl` texts to `LOAD`, in order (rules lead the first).
    pub load_files: Vec<String>,
    /// Sent once each before the timed section, in this order. Pins the
    /// resident forms and fills the answer memos.
    pub warmup: Vec<Query>,
    /// One closed-loop op stream per client connection.
    pub clients: Vec<Vec<Op>>,
    /// Compared byte for byte against the model and `xdl run` after the
    /// timed section, and again after `kill -9` + restart.
    pub checks: Vec<Query>,
    /// Whether every timed response has one right answer (no concurrent
    /// ingest) and is compared against the model.
    pub check_each_response: bool,
}

/// Timed ops per client per requested second, calibrated at the seed
/// commit on a 2-core host so the timed section lasts about `--seconds`.
fn ops_per_client_second(workload: &str) -> f64 {
    match workload {
        SERVE_READ => 540.0,
        // 6 FACT : 1 QUERY.
        SERVE_INGEST => 58.8,
        // (FACT, QUERY) pairs count as two ops.
        SERVE_RECOMPUTE => 150.0,
        other => panic!("no op rate for workload {other}"),
    }
}

/// Ops per client for a run of `seconds`, rounded to whole traffic blocks.
pub fn ops_per_client(workload: &str, seconds: f64) -> usize {
    let block = match workload {
        SERVE_INGEST => 7,
        SERVE_RECOMPUTE => 32,
        _ => 10,
    };
    let n = (ops_per_client_second(workload) * seconds / block as f64).round() as usize;
    n.max(1) * block
}

const X: Arg = Arg::Var("X");
const Y: Arg = Arg::Var("Y");
const W: Arg = Arg::Wild;

fn c(id: u64) -> Arg {
    Arg::Const(id as u32)
}

/// Seeded constants for one org: ids drawn by tree level.
struct Picker {
    rng: SplitMix64,
    levels: u32,
}

impl Picker {
    /// A uniformly drawn employee of tree level `level`.
    fn at(&mut self, level: u32) -> Arg {
        c(self.rng.range(
            u64::from(Org::level_start(level)),
            u64::from(Org::level_start(level + 1)),
        ))
    }
    fn leaf(&mut self) -> Arg {
        self.at(self.levels - 1)
    }
    /// Any employee but the root.
    fn non_root(&mut self) -> Arg {
        c(self.rng.range(1, u64::from(Org::level_start(self.levels))))
    }
    fn any(&mut self) -> Arg {
        c(self.rng.below(u64::from(Org::level_start(self.levels))))
    }
}

/// The eight constant-carrying templates of `serve-read`, over six forms:
/// `above[nn]`, `above[nd]`, `above[dn]`, `peer[nn]`, `skip[nn]`,
/// `flagged[n]`. `k` selects the template; constants come from `p`.
fn rotating(k: u64, p: &mut Picker) -> Query {
    let l = p.levels;
    match k {
        // Managers of a leaf: `levels - 1` rows.
        0..=2 => Query::new(Pred::Above, &[X, p.leaf()]),
        // Reports of a manager three levels up: 84 rows.
        3 | 4 => Query::new(Pred::Above, &[p.at(l - 4), Y]),
        5 => Query::new(Pred::Above, &[p.at(l - 3), p.leaf()]),
        6 => Query::new(Pred::Above, &[p.any(), W]),
        7 => Query::new(Pred::Above, &[W, p.any()]),
        8 | 9 => Query::new(Pred::Peer, &[p.non_root(), Y]),
        10 => Query::new(Pred::Skip, &[p.at(l - 3), Y]),
        _ => Query::new(Pred::Flagged, &[p.any()]),
    }
}
const ROTATING_KINDS: u64 = 12;
/// One `k` per rotating form, for warm-up.
const ROTATING_FORMS: [u64; 6] = [0, 6, 7, 8, 10, 11];

/// `serve-read`'s hot texts: the ten forms the rotation does not touch,
/// one text each. A form keeps one answer slot keyed by exact text, so
/// one text per form is what `cache=answers` can hold; sixteen texts would
/// need sixteen spare forms and the schema has ten.
fn hot_texts() -> Vec<Query> {
    vec![
        Query::new(Pred::Above, &[W, W]),
        Query::new(Pred::Peer, &[X, W]),
        Query::new(Pred::Peer, &[W, Y]),
        Query::new(Pred::Peer, &[W, W]),
        Query::new(Pred::Skip, &[X, W]),
        Query::new(Pred::Skip, &[W, Y]),
        Query::new(Pred::Skip, &[W, W]),
        Query::new(Pred::Flagged, &[W]),
        Query::new(Pred::Clean, &[X]),
        Query::new(Pred::Clean, &[W]),
    ]
}

/// The sixteen forms of the schema (fourteen monotone, two over `clean`),
/// each as a template with at most one rotating constant.
fn form_query(form: usize, p: &mut Picker) -> Query {
    let binary = |pred: Pred, ad: usize, p: &mut Picker| match ad {
        0 => Query::new(pred, &[X, p.leaf()]),
        1 => Query::new(pred, &[p.at(p.levels - 3), W]),
        2 => Query::new(pred, &[W, p.leaf()]),
        _ => Query::new(pred, &[W, W]),
    };
    match form {
        0..=3 => binary(Pred::Above, form, p),
        4..=7 => binary(Pred::Peer, form - 4, p),
        8..=11 => binary(Pred::Skip, form - 8, p),
        12 => Query::new(Pred::Flagged, &[p.any()]),
        13 => Query::new(Pred::Flagged, &[W]),
        14 => Query::new(Pred::Clean, &[p.any()]),
        _ => Query::new(Pred::Clean, &[W]),
    }
}
const FORMS: usize = 16;

fn fresh_child(client: usize, clients: usize, i: usize) -> u32 {
    FRESH_ID_BASE + (i * clients + client) as u32
}

fn fact(org: &Org, rng: &mut SplitMix64, client: usize, clients: usize, i: usize) -> Op {
    Op::Fact {
        parent: rng.below(u64::from(org.employees)) as u32,
        child: fresh_child(client, clients, i),
    }
}

fn split_load(lines: &[String]) -> Vec<String> {
    let rules = crate::org::RULES.to_string();
    let join = |ls: &[String]| {
        let mut s = ls.join("\n");
        s.push('\n');
        s
    };
    if lines.len() >= COMPACT_EVERY + LOG_TAIL_AT_START {
        let cut = lines.len() - LOG_TAIL_AT_START;
        vec![rules + &join(&lines[..cut]), join(&lines[cut..])]
    } else {
        vec![rules + &join(lines)]
    }
}

/// Build the plan for one `serve-*` workload.
pub fn serve_plan(workload: &str, seed: u64, seconds: f64, clients: usize) -> ServePlan {
    let (name, levels) = match workload {
        SERVE_READ => (SERVE_READ, 7),
        SERVE_INGEST => (SERVE_INGEST, 7),
        SERVE_RECOMPUTE => (SERVE_RECOMPUTE, 6),
        other => panic!("{other} is not a serve workload"),
    };
    let org = Org::generate(levels, seed);
    let n_ops = ops_per_client(name, seconds);
    let picker = |tag: &str| Picker {
        rng: SplitMix64::stream(seed, tag),
        levels,
    };
    let mut warm = picker("warmup");
    let mut streams: Vec<Vec<Op>> = Vec::new();
    let warmup: Vec<Query>;
    match name {
        SERVE_READ => {
            // Hot forms first, rotating forms last: the resident LRU then
            // holds all six rotating forms, and the hot forms are served
            // from their answer memos whether resident or not.
            let hot = hot_texts();
            warmup = hot
                .iter()
                .cloned()
                .chain(ROTATING_FORMS.iter().map(|&k| rotating(k, &mut warm)))
                .collect();
            for client in 0..clients {
                let mut p = picker(&format!("ops.{client}"));
                let ops = (0..n_ops)
                    .map(|_| {
                        // 80 % rotate constants, 20 % repeat a hot text.
                        let q = if p.rng.below(5) == 0 {
                            hot[p.rng.below(hot.len() as u64) as usize].clone()
                        } else {
                            let k = p.rng.below(ROTATING_KINDS);
                            rotating(k, &mut p)
                        };
                        Op::Query {
                            q,
                            mode: Mode::Fresh,
                        }
                    })
                    .collect();
                streams.push(ops);
            }
        }
        SERVE_INGEST => {
            // Four resident forms.
            warmup = [0, 8, 10, 11]
                .iter()
                .map(|&k| rotating(k, &mut warm))
                .collect();
            for client in 0..clients {
                let mut p = picker(&format!("ops.{client}"));
                let mut facts = 0;
                let mut queries = 0;
                let ops = (0..n_ops)
                    .map(|i| {
                        if i % 7 == 6 {
                            let k = [0, 8, 10, 11][queries % 4];
                            // Half fresh, half bounded-stale, so both modes
                            // meet every form.
                            let mode = if (queries / 4) % 2 == 0 {
                                Mode::Fresh
                            } else {
                                Mode::Stale50
                            };
                            queries += 1;
                            Op::Query {
                                q: rotating(k, &mut p),
                                mode,
                            }
                        } else {
                            facts += 1;
                            fact(&org, &mut p.rng, client, clients, facts - 1)
                        }
                    })
                    .collect();
                streams.push(ops);
            }
        }
        _ => {
            // No warm-up: the first sighting of each form is the cold
            // query the workload measures.
            warmup = Vec::new();
            for client in 0..clients {
                let mut p = picker(&format!("ops.{client}"));
                let ops = (0..n_ops)
                    .map(|i| {
                        let pair = i / 2;
                        if i % 2 == 0 {
                            fact(&org, &mut p.rng, client, clients, pair)
                        } else {
                            // Clients start half a cycle apart.
                            let form = (pair + client * FORMS / 2) % FORMS;
                            Op::Query {
                                q: form_query(form, &mut p),
                                mode: Mode::Fresh,
                            }
                        }
                    })
                    .collect();
                streams.push(ops);
            }
        }
    }
    // Sixteen check queries: every form once, the binary ones with a named
    // variable so the payload is a table, and two aimed at the first
    // ingested leaf (client 0's first fact) when the workload ingests.
    let mut ck = picker("checks");
    let first_fact = streams.first().and_then(|s| {
        s.iter().find_map(|op| match op {
            Op::Fact { parent, child } => Some((*parent, *child)),
            _ => None,
        })
    });
    let (touched_parent, touched_child) = match first_fact {
        Some((p, ch)) => (Arg::Const(p), Arg::Const(ch)),
        None => (ck.at(levels - 2), ck.leaf()),
    };
    let checks = vec![
        Query::new(Pred::Above, &[X, touched_child]),
        Query::new(Pred::Above, &[touched_parent, Y]),
        Query::new(Pred::Above, &[ck.at(1), ck.leaf()]),
        Query::new(Pred::Above, &[X, W]),
        Query::new(Pred::Above, &[W, Y]),
        Query::new(Pred::Above, &[W, W]),
        Query::new(Pred::Peer, &[touched_child, Y]),
        Query::new(Pred::Peer, &[X, W]),
        Query::new(Pred::Peer, &[W, ck.leaf()]),
        Query::new(Pred::Skip, &[ck.at(levels - 3), Y]),
        Query::new(Pred::Skip, &[X, ck.leaf()]),
        Query::new(Pred::Skip, &[W, Y]),
        Query::new(Pred::Flagged, &[X]),
        Query::new(Pred::Flagged, &[ck.any()]),
        Query::new(Pred::Clean, &[X]),
        Query::new(Pred::Clean, &[ck.any()]),
    ];
    ServePlan {
        workload: name,
        load_files: split_load(&org.fact_lines()),
        org,
        warmup,
        clients: streams,
        checks,
        check_each_response: name == SERVE_READ,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fnv1a64;

    fn first_ops(workload: &str) -> Vec<String> {
        serve_plan(workload, 1, 10.0, 2).clients[0]
            .iter()
            .take(16)
            .map(Op::line)
            .collect()
    }

    /// The pinned op streams for seed 1: a change here changes what every
    /// recorded baseline measured.
    #[test]
    fn first_sixteen_ops_of_each_serve_workload_are_pinned() {
        assert_eq!(first_ops(SERVE_INGEST), PINNED_INGEST_OPS);
        let digest = |w: &str| fnv1a64(first_ops(w).join("\n").as_bytes());
        assert_eq!(
            [
                digest(SERVE_READ),
                digest(SERVE_INGEST),
                digest(SERVE_RECOMPUTE)
            ],
            PINNED_OP_DIGESTS
        );
    }
    const PINNED_INGEST_OPS: [&str; 16] = [
        "FACT mgr(2000, 1000000).",
        "FACT mgr(2576, 1000002).",
        "FACT mgr(1193, 1000004).",
        "FACT mgr(4708, 1000006).",
        "FACT mgr(4128, 1000008).",
        "FACT mgr(2770, 1000010).",
        "QUERY ?- above(X, 2312).",
        "FACT mgr(236, 1000012).",
        "FACT mgr(2277, 1000014).",
        "FACT mgr(3446, 1000016).",
        "FACT mgr(3196, 1000018).",
        "FACT mgr(872, 1000020).",
        "FACT mgr(1896, 1000022).",
        "QUERY ?- peer(4760, Y).",
        "FACT mgr(2576, 1000024).",
        "FACT mgr(677, 1000026).",
    ];
    const PINNED_OP_DIGESTS: [u64; 3] = [
        6584834053774972636,
        1926573895301140531,
        4003154934041691417,
    ];

    #[test]
    fn generated_load_files_are_pinned_for_seed_one() {
        let sizes: Vec<(usize, u64)> = [SERVE_READ, SERVE_RECOMPUTE]
            .iter()
            .flat_map(|w| serve_plan(w, 1, 1.0, 2).load_files)
            .map(|t| (t.len(), fnv1a64(t.as_bytes())))
            .collect();
        assert_eq!(sizes, PINNED_LOAD_FILES);
    }
    const PINNED_LOAD_FILES: [(usize, u64); 3] = [
        (86812, 7338043262174905949),
        (60474, 18076833383473389196),
        (34688, 15349184631739104876),
    ];

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let a = serve_plan(SERVE_INGEST, 5, 2.0, 2);
        let b = serve_plan(SERVE_INGEST, 5, 2.0, 2);
        let c = serve_plan(SERVE_INGEST, 6, 2.0, 2);
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.load_files, b.load_files);
        assert_ne!(a.clients, c.clients);
        assert_ne!(a.load_files, c.load_files);
    }

    #[test]
    fn op_counts_scale_with_seconds_in_whole_blocks() {
        assert_eq!(ops_per_client(SERVE_INGEST, 10.0) % 7, 0);
        assert_eq!(ops_per_client(SERVE_RECOMPUTE, 10.0) % 32, 0);
        assert_eq!(
            ops_per_client(SERVE_READ, 20.0),
            2 * ops_per_client(SERVE_READ, 10.0)
        );
        // Never zero, however short the run.
        assert!(ops_per_client(SERVE_RECOMPUTE, 0.01) >= 32);
    }

    #[test]
    fn ingest_loads_in_two_parts_and_fresh_ids_never_collide() {
        let plan = serve_plan(SERVE_INGEST, 1, 10.0, 2);
        assert_eq!(plan.load_files.len(), 2);
        assert_eq!(plan.load_files[1].lines().count(), LOG_TAIL_AT_START);
        let mut children: Vec<u32> = plan
            .clients
            .iter()
            .flatten()
            .filter_map(|op| match op {
                Op::Fact { child, .. } => Some(*child),
                _ => None,
            })
            .collect();
        let n = children.len();
        children.sort_unstable();
        children.dedup();
        assert_eq!(children.len(), n);
        assert!(children[0] >= FRESH_ID_BASE);
        // Both staleness modes occur.
        let modes: Vec<Mode> = plan.clients[0]
            .iter()
            .filter_map(|op| match op {
                Op::Query { mode, .. } => Some(*mode),
                _ => None,
            })
            .collect();
        assert!(modes.contains(&Mode::Fresh) && modes.contains(&Mode::Stale50));
    }

    #[test]
    fn recompute_cycles_all_sixteen_forms() {
        let plan = serve_plan(SERVE_RECOMPUTE, 1, 10.0, 2);
        let forms: std::collections::BTreeSet<String> = plan.clients[0]
            .iter()
            .filter_map(|op| match op {
                Op::Query { q, .. } => Some(q.form()),
                _ => None,
            })
            .collect();
        assert_eq!(forms.len(), FORMS);
        assert!(plan.warmup.is_empty());
        assert_eq!(plan.checks.len(), 16);
    }

    #[test]
    fn read_warmup_pins_rotating_forms_last() {
        let plan = serve_plan(SERVE_READ, 1, 1.0, 2);
        let forms: Vec<String> = plan.warmup.iter().map(Query::form).collect();
        assert_eq!(forms.len(), 16);
        assert_eq!(
            &forms[10..],
            [
                "above[nn]",
                "above[nd]",
                "above[dn]",
                "peer[nn]",
                "skip[nn]",
                "flagged[n]"
            ]
        );
        let distinct: std::collections::BTreeSet<&String> = forms.iter().collect();
        assert_eq!(distinct.len(), 16);
    }
}
