//! Ingest: `FACT` is the one-fact case of `LOAD`.
//!
//! | step | does | holds |
//! |---|---|---|
//! | [`admit`](ServerState::admit) | EDB-only in both directions, arities — a refused request logs and applies nothing | rules (read), briefly |
//! | [`commit`](ServerState::commit) | WAL append (fsync per policy), then [`apply`](ServerState::apply): extend the rule set, insert the rows | ingest gate (read) |
//! | [`publish`](ServerState::publish) | drain or defer every live form the rows touch, compact the log when due | cache / form, one at a time |
//!
//! The paper's IDB/EDB convention (§1.1: the IDB holds no facts) is what
//! `admit` enforces: facts only for predicates no rule derives, rules only
//! for predicates that store no facts. Query equivalence of every cached
//! optimized program is only guaranteed on IDB-empty inputs.
//!
//! Recovery replays the log through `apply` alone: a record was admitted
//! and made durable when it was written, so replay skips admission and
//! logging and keeps only the insert's own arity check.

use std::collections::BTreeMap;
use std::sync::Arc;

use datalog_ast::{parse_atom, parse_program, parse_rule, Atom, PredRef, Rule, Value};
use datalog_engine::SharedDbError;

use crate::protocol::Response;
use crate::server::{read_lock, write_lock, RuleSet, ServerState};
use crate::wal::WalOp;

/// Ground tuples by predicate, as the parser groups a file's facts.
type Facts = BTreeMap<PredRef, Vec<Vec<Value>>>;

/// What one ingest changed.
struct Applied {
    new_rules: usize,
    new_facts: usize,
    /// Predicates that gained at least one row.
    touched: Vec<PredRef>,
}

impl ServerState {
    pub(crate) fn handle_fact(&self, text: &str) -> Response {
        let atom = match parse_atom(text) {
            Ok(a) => a,
            Err(e) => return Response::err(e.render_at("fact")),
        };
        if atom.pred.is_adorned() {
            return Response::err("facts must use base (unadorned) predicates");
        }
        let Some(values) = atom.ground_values() else {
            return Response::err(format!("fact '{atom}' is not ground"));
        };
        let facts = Facts::from([(atom.pred.clone(), vec![values])]);
        match self.ingest(&[], &facts, "") {
            Ok(applied) => Response::ok()
                .with_info("new", applied.new_facts > 0)
                .with_info("pred", &atom.pred)
                .with_info("version", self.db.version()),
            Err(resp) => resp,
        }
    }

    pub(crate) fn handle_load(&self, path: &str) -> Response {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return Response::err(format!("cannot read {path}: {e}")),
        };
        let parsed = match parse_program(&text) {
            Ok(p) => p,
            Err(e) => return Response::err(e.render_at(path)),
        };
        if let Err(e) = parsed.program.validate() {
            return Response::err(format!("{path}: {e}"));
        }
        let applied = match self.ingest(&parsed.program.rules, &parsed.facts, &format!("{path}: "))
        {
            Ok(applied) => applied,
            Err(resp) => return resp,
        };
        let mut resp = Response::ok()
            .with_info("rules", read_lock(&self.rules).rules.len())
            .with_info("new_rules", applied.new_rules)
            .with_info("new_facts", applied.new_facts)
            .with_info("version", self.db.version());
        if parsed.program.query.is_some() {
            resp = resp.with_info("query_ignored", true);
        }
        resp
    }

    /// The one ingest path: all of `rules` and `facts`, or nothing. A
    /// refusal of the batch itself is prefixed with `origin` (a `LOAD`
    /// names its file).
    fn ingest(&self, rules: &[Rule], facts: &Facts, origin: &str) -> Result<Applied, Response> {
        let refuse = |e: String| Response::err(format!("{origin}{e}"));
        let fresh = self.admit(rules, facts).map_err(refuse)?;
        // Rendered in front of the gate: the gate is held for the log write
        // and the inserts only.
        let ops: Vec<WalOp> = fresh
            .iter()
            .map(|r| WalOp::Rule(r.to_string()))
            .chain(facts.iter().flat_map(|(pred, tuples)| {
                tuples
                    .iter()
                    .map(move |t| WalOp::Fact(Atom::fact(pred.clone(), t.clone()).to_string()))
            }))
            .collect();
        let applied = self.commit(&ops, fresh, facts, refuse)?;
        self.publish(&applied.touched);
        Ok(applied)
    }

    /// Check a batch against the §1.1 convention and the stored arities,
    /// before anything is logged: a refused request must leave no WAL
    /// record behind (it would be skipped at every recovery until
    /// compaction). Returns the rules the server does not hold yet.
    fn admit(&self, rules: &[Rule], facts: &Facts) -> Result<Vec<Rule>, String> {
        let held = Arc::clone(&read_lock(&self.rules));
        let fresh: Vec<Rule> = rules
            .iter()
            .filter(|r| !held.rules.contains(r))
            .cloned()
            .collect();
        // IDB predicates hold no facts: a new rule head must not collide
        // with stored facts, and facts must stay EDB-only w.r.t. the
        // merged rule set.
        if !fresh.is_empty() {
            let snapshot = self.db.snapshot();
            for r in &fresh {
                let head = r.head.pred.base();
                if snapshot.count(&head) > 0 {
                    return Err(format!(
                        "cannot load rule for {head}: facts already stored for it \
                         (IDB predicates hold no facts)"
                    ));
                }
            }
        }
        for (pred, tuples) in facts {
            let base = pred.base();
            if held.heads.contains(&base) || fresh.iter().any(|r| r.head.pred.base() == base) {
                return Err(format!(
                    "{pred} is derived by rules; facts may only be asserted for EDB predicates"
                ));
            }
            self.check_arity(pred, tuples)?;
        }
        Ok(fresh)
    }

    /// `Err` when a tuple clashes with the arity `pred` is stored at (the
    /// first tuple's, for a predicate not stored yet). Two first-ever
    /// facts of one predicate racing with different arities can still both
    /// pass; the loser is then refused by the insert.
    fn check_arity(&self, pred: &PredRef, tuples: &[Vec<Value>]) -> Result<(), String> {
        let stored = self.db.arity(pred);
        let Some(expected) = stored.or_else(|| tuples.first().map(Vec::len)) else {
            return Ok(());
        };
        match tuples.iter().find(|t| t.len() != expected) {
            None => Ok(()),
            Some(t) => Err(SharedDbError::Arity {
                pred: pred.to_string(),
                expected,
                found: t.len(),
            }
            .to_string()),
        }
    }

    /// Log, then apply: an acknowledged write is a durable write. The
    /// ingest gate is held across both, so a compaction snapshot can never
    /// miss a record its truncation discards. A WAL failure applies
    /// nothing; `refuse` words an insert the store refused.
    fn commit(
        &self,
        ops: &[WalOp],
        fresh: Vec<Rule>,
        facts: &Facts,
        refuse: impl Fn(String) -> Response,
    ) -> Result<Applied, Response> {
        let _gate = read_lock(&self.ingest_gate);
        self.wal_append(ops)?;
        self.apply(fresh, facts).map_err(refuse)
    }

    /// The apply half of a commit: extend the rule set, insert the rows.
    fn apply(&self, fresh: Vec<Rule>, facts: &Facts) -> Result<Applied, String> {
        let mut new_rules = 0;
        if !fresh.is_empty() {
            let mut held = write_lock(&self.rules);
            // Another LOAD may have raced in since admission; re-filter so
            // duplicates stay out (the WAL tolerates them).
            let mut rules = held.rules.clone();
            for r in fresh {
                if !rules.contains(&r) {
                    rules.push(r);
                }
            }
            new_rules = rules.len() - held.rules.len();
            if new_rules > 0 {
                *held = Arc::new(RuleSet::new(rules));
            }
        }
        let mut new_facts = 0;
        let mut touched = Vec::new();
        for (pred, tuples) in facts {
            let before = new_facts;
            for t in tuples {
                if self.db.insert(pred, t).map_err(|e| e.to_string())? {
                    new_facts += 1;
                }
            }
            if new_facts > before {
                touched.push(pred.clone());
            }
        }
        Ok(Applied {
            new_rules,
            new_facts,
            touched,
        })
    }

    /// Make committed rows visible to resident readers (propagation, not
    /// invalidation: live forms absorb them as a delta batch), then give
    /// compaction its chance — off the gate.
    fn publish(&self, touched: &[PredRef]) {
        self.drain_residents(touched);
        self.maybe_compact();
    }

    /// Replay one recovered WAL record (see the module docs for what this
    /// skips). Failures are skipped by the caller, not fatal: a record
    /// that was valid when logged can only become invalid through manual
    /// log surgery.
    pub(crate) fn replay(&self, op: &WalOp) -> Result<(), String> {
        let applied = match op {
            WalOp::Fact(text) => {
                let atom = parse_atom(text).map_err(|e| e.render_at("wal"))?;
                let values = atom
                    .ground_values()
                    .ok_or_else(|| format!("wal fact '{atom}' is not ground"))?;
                self.apply(Vec::new(), &Facts::from([(atom.pred, vec![values])]))
            }
            WalOp::Rule(text) => {
                let rule = parse_rule(text).map_err(|e| e.render_at("wal"))?;
                self.apply(vec![rule], &Facts::new())
            }
        };
        applied.map(drop)
    }
}
