//! The metric catalog: every name the benchmark prints, with its unit,
//! direction and — for the gated ones — regression bound. `BENCHMARK.json`
//! is generated from this table (`xdl-bench manifest`) and a test keeps the
//! committed file equal to it.

use crate::workload::{BATCH_RUN, SERVE_INGEST, SERVE_READ, SERVE_RECOMPUTE, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads that report it.
    pub workloads: &'static [&'static str],
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Listed in `BENCHMARK.json` and enforced by the driver. The
    /// benchmark contract wants every listed metric measured, non-zero and
    /// steady on every workload, so only metrics that all four workloads
    /// report are gated; the others are printed, recorded in the baseline
    /// and shown by `--check-noise`. Gated bounds are what the host
    /// supports, not what one would wish: on the shared 2-core sandbox the
    /// same code at the same seed moves by 10–20 % between quarter hours
    /// (see `bench/baseline/`), and the contract wants a bound of three
    /// times the spread, capped at a quarter.
    pub gated: bool,
}

const ALL: &[&str] = &WORKLOADS;
const SERVE: &[&str] = &[SERVE_READ, SERVE_INGEST, SERVE_RECOMPUTE];
const INGESTING: &[&str] = &[SERVE_INGEST, SERVE_RECOMPUTE];
const BATCH: &[&str] = &[BATCH_RUN];

pub const END_TO_END: [EndToEnd; 15] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        workloads: ALL,
        bound: 0.25,
        gated: true,
    },
    EndToEnd {
        name: "load_s",
        unit: "s",
        better: Better::Lower,
        workloads: SERVE,
        bound: 0.25,
        gated: false,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        workloads: ALL,
        bound: 0.25,
        gated: true,
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: ALL,
        bound: 0.25,
        gated: true,
    },
    EndToEnd {
        name: "query_p99_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: SERVE,
        bound: 0.10,
        gated: false,
    },
    EndToEnd {
        name: "fact_p50_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: INGESTING,
        bound: 0.05,
        gated: false,
    },
    EndToEnd {
        name: "fact_p99_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: INGESTING,
        bound: 0.10,
        gated: false,
    },
    EndToEnd {
        name: "cold_query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        workloads: SERVE,
        bound: 0.10,
        gated: false,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        workloads: SERVE,
        bound: 0.10,
        gated: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        workloads: ALL,
        bound: 0.15,
        gated: true,
    },
    EndToEnd {
        name: "cpu_s_per_kop",
        unit: "s",
        better: Better::Lower,
        workloads: ALL,
        bound: 0.25,
        gated: true,
    },
    EndToEnd {
        name: "disk_bytes_per_fact",
        unit: "B",
        better: Better::Lower,
        workloads: SERVE,
        bound: 0.02,
        gated: false,
    },
    EndToEnd {
        name: "batch_existential_s",
        unit: "s",
        better: Better::Lower,
        workloads: BATCH,
        bound: 0.05,
        gated: false,
    },
    EndToEnd {
        name: "batch_fixpoint_s",
        unit: "s",
        better: Better::Lower,
        workloads: BATCH,
        bound: 0.05,
        gated: false,
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        workloads: ALL,
        bound: 0.00,
        gated: false,
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed by the layer probes on the workload's seeded inputs; measured
    /// on every workload and listed in `BENCHMARK.json`.
    Probe,
    /// An exact count from the probes: must repeat bit for bit at one seed.
    Count,
    /// Read from response headers (`cache=`); exists only where that
    /// source answers, so it is printed but not listed in
    /// `BENCHMARK.json`.
    Header,
}

/// A metric of a single layer. Layers are the repository's modules.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn probe(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        source: Source::Probe,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        source: Source::Count,
    }
}

const fn header(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        source: Source::Header,
    }
}

const fn higher(m: PerLayer) -> PerLayer {
    PerLayer {
        better: Better::Higher,
        ..m
    }
}

pub const PER_LAYER: [PerLayer; 59] = [
    // datalog-ast
    probe("ast.parse_query_us", "us"),
    probe("ast.parse_fact_us", "us"),
    higher(probe("ast.parse_file_mb_s", "MB/s")),
    // datalog-adorn
    probe("adorn.query_adornment_us", "us"),
    probe("adorn.adorn_ms", "ms"),
    // datalog-opt
    probe("opt.prepare_ms", "ms"),
    probe("opt.optimize_ms", "ms"),
    probe("opt.validate_ms", "ms"),
    count("opt.rules_out"),
    count("opt.idb_arity_out"),
    // datalog-lint
    probe("lint.bounds_ms", "ms"),
    probe("lint.bound_over_actual", "ratio"),
    // datalog-magic
    probe("magic.rewrite_ms", "ms"),
    // datalog-engine::shared
    probe("shared.insert_us", "us"),
    probe("shared.snapshot_us", "us"),
    probe("shared.to_factset_ms", "ms"),
    probe("shared.rows_ms", "ms"),
    // datalog-engine::eval
    probe("eval.cold_ms", "ms"),
    probe("eval.extract_us", "us"),
    count("eval.facts_derived"),
    count("eval.duplicates"),
    count("eval.tuples_scanned"),
    count("eval.iterations"),
    probe("eval.dup_ratio", "ratio"),
    // datalog-engine::incremental
    probe("incremental.new_ms", "ms"),
    probe("incremental.apply_delta_us", "us"),
    probe("incremental.answers_us", "us"),
    count("incremental.delta_facts"),
    // datalog-engine::relation / storage
    probe("relation.insert_ns", "ns"),
    probe("relation.probe_hit_ns", "ns"),
    probe("relation.probe_miss_ns", "ns"),
    probe("relation.consolidate_ms", "ms"),
    higher(probe("storage.bloom_skip_ratio", "ratio")),
    probe("storage.overhead_bytes_per_fact", "B"),
    // datalog-server::protocol
    probe("protocol.request_parse_us", "us"),
    probe("protocol.response_write_us", "us"),
    probe("protocol.response_bytes", "B"),
    // datalog-server::server / cache
    probe("server.render_us", "us"),
    probe("server.handle_query_us", "us"),
    probe("server.handle_fact_us", "us"),
    probe("server.wire_overhead_us", "us"),
    probe("server.unattributed_query_share", "ratio"),
    probe("server.unattributed_fact_share", "ratio"),
    higher(header("source.resident_share", "ratio")),
    higher(header("source.answers_share", "ratio")),
    header("source.hit_share", "ratio"),
    header("source.miss_share", "ratio"),
    header("source.stale_share", "ratio"),
    header("query.resident_p50_ms", "ms"),
    header("query.answers_p50_ms", "ms"),
    header("query.hit_p50_ms", "ms"),
    header("query.stale_p50_ms", "ms"),
    // datalog-server::wal
    probe("wal.append_sync_us", "us"),
    probe("wal.append_nosync_us", "us"),
    probe("wal.compact_ms", "ms"),
    probe("wal.open_ms", "ms"),
    probe("wal.log_bytes_per_fact", "B"),
    // datalog-trace
    probe("trace.histogram_record_ns", "ns"),
    probe("trace.span_overhead_ratio", "ratio"),
];

/// One sentence per workload: why it exists.
pub fn workload_why(name: &str) -> &'static str {
    match name {
        SERVE_READ => {
            "resident and memoized reads only: the server pipeline does all the work; \
             fixpoint, WAL and optimizer do none"
        }
        SERVE_INGEST => {
            "6 FACT : 1 QUERY against 4 resident forms: WAL append+fsync, dedup, delta \
             propagation, compaction, then kill -9 and recovery"
        }
        SERVE_RECOMPUTE => {
            "16 forms over 8 resident slots, a FACT before every QUERY: nearly every query \
             is a full fixpoint from the shared snapshot"
        }
        BATCH_RUN => {
            "no server: xdl run on nine files, five the optimizer shrinks and four it \
             cannot, so parser+optimizer and the bare engine each dominate one family"
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: u32 = 10;

/// The gated end-to-end metrics, in catalog order.
pub fn gated() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.gated)
}

/// The per-layer metrics listed in `BENCHMARK.json`.
pub fn listed_layers() -> impl Iterator<Item = &'static PerLayer> {
    PER_LAYER.iter().filter(|m| m.source != Source::Header)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"bench/run.sh\"],\n");
    s.push_str("  \"paths\": [\"bench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{w}\", \"why\": \"{}\"}}",
                workload_why(w)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = gated()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = listed_layers()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with: xdl-bench manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn catalog_obeys_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(gated().map(|m| m.name));
        names.extend(listed_layers().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let units = gated()
            .map(|m| m.unit)
            .chain(listed_layers().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in gated() {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert_eq!(
                m.workloads.len(),
                WORKLOADS.len(),
                "{} is universal",
                m.name
            );
        }
        assert!(gated().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(WORKLOADS.iter().all(|w| workload_why(w).len() <= 200));
        assert!(manifest().len() < 64 * 1024);
        assert_eq!(PER_LAYER.len(), 59);
        assert_eq!(END_TO_END.len(), 15);
    }
}
