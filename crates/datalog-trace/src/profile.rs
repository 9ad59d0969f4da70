//! Per-rule and per-iteration evaluation profiles.
//!
//! The paper's claims are all *attributable* cost claims: the §3.1 boolean
//! cut retires specific rules, §3.2 projection shrinks specific predicates'
//! arities (and with them duplicate-elimination cost), §3.3/§5 deletion
//! removes specific rules' join work. A single global counter blob cannot
//! confirm any of that; these types carry the attribution.
//!
//! Counter-to-paper mapping:
//!
//! * [`RuleProfile::retired_at`] — the fixpoint iteration the §3.1 cut
//!   retired the rule (`None` = never retired);
//! * [`RuleProfile::duplicates`] — per-rule duplicate-elimination hits, the
//!   cost §3.2 attacks by dropping argument positions;
//! * [`RuleProfile::tuples_scanned`] / [`RuleProfile::index_probes`] — the
//!   per-rule join effort that §3.3/§5 deletions eliminate outright.

use crate::json::Json;

/// Counters one rule accumulated over a whole fixpoint evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleProfile {
    /// Index of the rule in the evaluated program.
    pub rule_idx: usize,
    /// The rule, rendered as source text.
    pub rule: String,
    /// Head predicate name.
    pub head: String,
    /// Join variants attempted (naive rounds count one per rule, semi-naive
    /// rounds one per delta literal with a non-empty delta).
    pub evals: u64,
    /// Successful full-body instantiations (including re-derivations).
    pub derivations: u64,
    /// Distinct new facts this rule contributed.
    pub facts_derived: u64,
    /// Derivations whose head fact already existed (§3.2's cost).
    pub duplicates: u64,
    /// Tuples enumerated by this rule's scans and probes.
    pub tuples_scanned: u64,
    /// Hash-index probes issued by this rule (including negation checks).
    pub index_probes: u64,
    /// Wall time spent inside this rule's join variants, in nanoseconds.
    pub wall_ns: u64,
    /// Iteration at which the §3.1 boolean cut retired this rule.
    pub retired_at: Option<usize>,
}

impl RuleProfile {
    /// JSON object for export.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("rule_idx", self.rule_idx)
            .with("rule", self.rule.as_str())
            .with("head", self.head.as_str())
            .with("evals", self.evals)
            .with("derivations", self.derivations)
            .with("facts_derived", self.facts_derived)
            .with("duplicates", self.duplicates)
            .with("tuples_scanned", self.tuples_scanned)
            .with("index_probes", self.index_probes)
            .with("wall_ns", self.wall_ns)
            .with("retired_at", self.retired_at)
    }
}

/// New facts one predicate gained in one fixpoint iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredDelta {
    /// Predicate name.
    pub pred: String,
    /// Facts added this iteration.
    pub new_facts: u64,
    /// Total facts stored after this iteration.
    pub total: u64,
}

/// One fixpoint iteration in the evaluation timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterationProfile {
    /// Global iteration number (the seed round of the first stratum is 1).
    pub iteration: usize,
    /// Stratum whose fixpoint this iteration belongs to.
    pub stratum: usize,
    /// Wall time of the iteration, in nanoseconds.
    pub wall_ns: u64,
    /// Wall time of the enumeration half: the sum over join variants of
    /// their enumeration time.
    pub enum_ns: u64,
    /// Wall time of the merge half: applying each variant's buffered
    /// candidate tuples to the database, in variant order.
    pub merge_ns: u64,
    /// Join variants this iteration ran — (rule, delta literal) pairs, or
    /// one per rule in a seed or naive round. Fixed from iteration-start
    /// state.
    pub tasks: u64,
    /// Per-predicate growth (only predicates that gained facts appear).
    pub deltas: Vec<PredDelta>,
    /// Rules the §3.1 cut retired at the end of this iteration.
    pub rules_retired: u64,
}

impl IterationProfile {
    /// JSON object for export.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("iteration", self.iteration)
            .with("stratum", self.stratum)
            .with("wall_ns", self.wall_ns)
            .with("enum_ns", self.enum_ns)
            .with("merge_ns", self.merge_ns)
            .with("tasks", self.tasks)
            .with("rules_retired", self.rules_retired)
            .with(
                "deltas",
                Json::Arr(
                    self.deltas
                        .iter()
                        .map(|d| {
                            Json::obj()
                                .with("pred", d.pred.as_str())
                                .with("new_facts", d.new_facts)
                                .with("total", d.total)
                        })
                        .collect(),
                ),
            )
    }
}

/// The full evaluation profile: one [`RuleProfile`] per rule plus the
/// per-iteration timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalProfile {
    /// Per-rule counters, in program rule order.
    pub rules: Vec<RuleProfile>,
    /// Per-iteration predicate growth.
    pub timeline: Vec<IterationProfile>,
}

impl EvalProfile {
    /// JSON object for export.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with(
                "rules",
                Json::Arr(self.rules.iter().map(RuleProfile::to_json).collect()),
            )
            .with(
                "timeline",
                Json::Arr(
                    self.timeline
                        .iter()
                        .map(IterationProfile::to_json)
                        .collect(),
                ),
            )
    }

    /// A copy with every wall-time field zeroed, leaving only the
    /// deterministic counters. Wall times legitimately differ between runs;
    /// everything else in a profile is a pure
    /// function of the program and input, so differential tests compare
    /// `counters_only()` for equality.
    pub fn counters_only(&self) -> EvalProfile {
        let mut p = self.clone();
        for r in &mut p.rules {
            r.wall_ns = 0;
        }
        for it in &mut p.timeline {
            it.wall_ns = 0;
            it.enum_ns = 0;
            it.merge_ns = 0;
        }
        p
    }

    /// Rule indices ranked by wall time (hottest first; ties by derivations
    /// then source order, so the ranking is deterministic).
    pub fn ranked(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.rules.len()).collect();
        idx.sort_by_key(|&i| {
            let r = &self.rules[i];
            (
                std::cmp::Reverse(r.wall_ns),
                std::cmp::Reverse(r.derivations),
                r.rule_idx,
            )
        });
        idx
    }

    /// Render the ranked hot-rule table (all rules when `top` is `None`).
    pub fn hot_rules_table(&self, top: Option<usize>) -> String {
        use std::fmt::Write as _;
        let order = self.ranked();
        let shown = top.unwrap_or(order.len()).min(order.len());
        let headers = [
            "#", "wall_us", "evals", "derivs", "facts", "dups", "scanned", "probes", "retired",
            "rule",
        ];
        let mut cells: Vec<[String; 10]> = vec![headers.map(String::from)];
        for (rank, &i) in order.iter().take(shown).enumerate() {
            let r = &self.rules[i];
            cells.push([
                (rank + 1).to_string(),
                format!("{:.1}", r.wall_ns as f64 / 1e3),
                r.evals.to_string(),
                r.derivations.to_string(),
                r.facts_derived.to_string(),
                r.duplicates.to_string(),
                r.tuples_scanned.to_string(),
                r.index_probes.to_string(),
                r.retired_at
                    .map_or_else(|| "-".into(), |it| format!("@{it}")),
                r.rule.clone(),
            ]);
        }
        let widths: Vec<usize> = (0..9)
            .map(|c| cells.iter().map(|row| row[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for row in &cells {
            let mut line = String::new();
            for (c, w) in widths.iter().enumerate() {
                let _ = write!(line, "{:>width$}  ", row[c], width = w);
            }
            line.push_str(&row[9]);
            let _ = writeln!(out, "  {line}");
        }
        if shown < order.len() {
            let n = order.len() - shown;
            let s = if n == 1 { "" } else { "s" };
            let _ = writeln!(out, "  ... ({n} more rule{s})");
        }
        out
    }

    /// Render the per-iteration timeline as text.
    pub fn timeline_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for it in &self.timeline {
            let deltas: Vec<String> = it
                .deltas
                .iter()
                .map(|d| format!("{}+{} (={})", d.pred, d.new_facts, d.total))
                .collect();
            let retired = if it.rules_retired > 0 {
                format!("  [{} rule(s) retired]", it.rules_retired)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "  iter {:>3} (stratum {}) {:>9.1} us (enum {:.1} + merge {:.1}, {} task(s))  {}{}",
                it.iteration,
                it.stratum,
                it.wall_ns as f64 / 1e3,
                it.enum_ns as f64 / 1e3,
                it.merge_ns as f64 / 1e3,
                it.tasks,
                if deltas.is_empty() {
                    "no growth".to_string()
                } else {
                    deltas.join("  ")
                },
                retired
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EvalProfile {
        EvalProfile {
            rules: vec![
                RuleProfile {
                    rule_idx: 0,
                    rule: "a(X, Y) :- p(X, Z), a(Z, Y).".into(),
                    head: "a".into(),
                    evals: 4,
                    derivations: 10,
                    facts_derived: 6,
                    duplicates: 4,
                    tuples_scanned: 40,
                    index_probes: 12,
                    wall_ns: 5_000,
                    retired_at: None,
                },
                RuleProfile {
                    rule_idx: 1,
                    rule: "b :- big(W).".into(),
                    head: "b".into(),
                    evals: 1,
                    derivations: 1,
                    facts_derived: 1,
                    duplicates: 0,
                    tuples_scanned: 1,
                    index_probes: 0,
                    wall_ns: 9_000,
                    retired_at: Some(2),
                },
            ],
            timeline: vec![IterationProfile {
                iteration: 1,
                stratum: 0,
                wall_ns: 14_000,
                enum_ns: 11_000,
                merge_ns: 3_000,
                tasks: 3,
                deltas: vec![PredDelta {
                    pred: "a".into(),
                    new_facts: 6,
                    total: 6,
                }],
                rules_retired: 1,
            }],
        }
    }

    #[test]
    fn ranking_is_by_wall_time() {
        let p = sample();
        assert_eq!(p.ranked(), vec![1, 0]);
    }

    #[test]
    fn hot_rules_table_renders_ranked() {
        let p = sample();
        let t = p.hot_rules_table(None);
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("wall_us"));
        assert!(lines[1].contains("b :- big(W)."), "{t}");
        assert!(lines[1].contains("@2"), "{t}");
        assert!(lines[2].contains("a(X, Y)"), "{t}");
        // top=1 truncates and says so.
        let t1 = p.hot_rules_table(Some(1));
        assert!(t1.contains("1 more rule"), "{t1}");
    }

    #[test]
    fn timeline_table_renders_deltas_and_retirements() {
        let p = sample();
        let t = p.timeline_table();
        assert!(t.contains("iter   1"));
        assert!(t.contains("a+6 (=6)"));
        assert!(t.contains("1 rule(s) retired"));
        assert!(t.contains("enum 11.0 + merge 3.0, 3 task(s)"), "{t}");
    }

    #[test]
    fn json_roundtrips_fields() {
        let p = sample();
        let j = p.to_json();
        let s = j.to_string();
        assert!(s.contains("\"retired_at\":2"));
        assert!(s.contains("\"retired_at\":null"));
        assert!(s.contains("\"timeline\""));
        assert!(s.contains("\"new_facts\":6"));
        assert!(s.contains("\"enum_ns\":11000"));
        assert!(s.contains("\"merge_ns\":3000"));
        assert!(s.contains("\"tasks\":3"));
    }

    #[test]
    fn counters_only_zeroes_every_wall_field() {
        let stripped = sample().counters_only();
        assert_eq!(stripped.rules[0].wall_ns, 0);
        assert_eq!(stripped.rules[1].wall_ns, 0);
        assert_eq!(stripped.timeline[0].wall_ns, 0);
        assert_eq!(stripped.timeline[0].enum_ns, 0);
        assert_eq!(stripped.timeline[0].merge_ns, 0);
        // The deterministic fields survive untouched.
        assert_eq!(stripped.timeline[0].tasks, 3);
        assert_eq!(stripped.rules[0].derivations, 10);
        assert_eq!(stripped.rules[1].retired_at, Some(2));
    }
}
