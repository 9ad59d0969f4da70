//! Ingest: `FACT` is the one-fact case of `LOAD`.
//!
//! | step | does | holds |
//! |---|---|---|
//! | commit | [`admit`](ServerState::admit) (EDB-only in both directions, arities — a refused request logs and applies nothing), the WAL append (one write, one fsync, all or nothing), [`apply`](ServerState::apply) (extend the rule set, insert the rows), then compaction when the log is due | the log's mutex |
//! | drain | [`drain_residents`](ServerState::drain_residents): every live form the rows touch absorbs them | cache / form, one at a time |
//!
//! The commit is one critical section, so ingests are ordered: what one
//! admits is checked against everything every earlier ingest applied. A
//! `LOAD` of a rule for `p` and a `FACT` for `p` racing each other get one
//! `OK` and one `ERR`, never two `OK`s; and a compaction's snapshot holds
//! every record its truncation discards. Queries never take the lock.
//!
//! The paper's IDB/EDB convention (§1.1: the IDB holds no facts) is what
//! `admit` enforces: facts only for predicates no rule derives, rules only
//! for predicates that store no facts. Query equivalence of every cached
//! optimized program is only guaranteed on IDB-empty inputs.
//!
//! Recovery replays the snapshot and then the log through
//! [`replay`](ServerState::replay): a fact or rule through `apply` alone, a
//! snapshot's rows through one batch load. A record was admitted and made
//! durable when it was written, so replay skips admission and logging and
//! keeps only the insert's own arity check.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use datalog_ast::{parse_atom, parse_program, parse_rule, Atom, PredRef, Rule, Value};
use datalog_engine::SharedDbError;

use crate::protocol::{ErrCode, Response};
use crate::server::{lock, read_lock, write_lock, RuleSet, ServerState};
use crate::wal::{RunBatch, Wal, WalOp};

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
        // Only a regular file has an end: reading a device such as
        // `/dev/zero` grows without bound, and opening a FIFO blocks.
        match std::fs::metadata(path) {
            Ok(meta) if meta.is_file() => {}
            Ok(_) => return Response::err(format!("cannot load {path}: not a regular file")),
            Err(e) => return Response::err(format!("cannot read {path}: {e}")),
        }
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
        // The facts are rendered in front of the lock; the rules only once
        // admission has picked the ones not held yet.
        let mut ops: Vec<WalOp> = facts
            .iter()
            .flat_map(|(pred, tuples)| {
                tuples
                    .iter()
                    .map(move |t| WalOp::Fact(Atom::fact(pred.clone(), t.clone()).to_string()))
            })
            .collect();
        let applied = {
            let mut log = lock(&self.wal);
            let fresh = self.admit(rules, facts).map_err(refuse)?;
            ops.splice(0..0, fresh.iter().map(|r| WalOp::Rule(r.to_string())));
            if let Some(wal) = log.as_mut() {
                wal.append_all(&ops).map_err(|e| {
                    self.metrics.wal_errors.inc();
                    Response::err_code(
                        ErrCode::Internal,
                        format!("wal append failed ({e}); write not applied"),
                    )
                })?;
            }
            let applied = self.apply(fresh, facts).map_err(refuse)?;
            if let Some(wal) = log.as_mut().filter(|w| w.wants_compaction()) {
                self.compact(wal);
            }
            applied
        };
        // Propagation, not invalidation: live forms absorb the rows as a
        // delta batch before the ingest answers.
        self.drain_residents(&applied.touched);
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
    /// first tuple's, for a predicate not stored yet).
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

    /// Extend the rule set, insert the rows. An ingest applies only after
    /// its WAL append, so an acknowledged write is a durable write.
    fn apply(&self, fresh: Vec<Rule>, facts: &Facts) -> Result<Applied, String> {
        let mut new_rules = 0;
        if !fresh.is_empty() {
            let mut held = write_lock(&self.rules);
            // Admission already dropped the held rules; replay does not
            // admit, and a log an older binary wrote can hold a rule twice.
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

    /// Snapshot the full state and truncate the log. Runs under the log's
    /// lock, between ingests, so the snapshot holds every record the
    /// truncation discards. A failure keeps the log: durability is
    /// unaffected, only restart cost, so it is counted and nothing else.
    fn compact(&self, wal: &mut Wal) {
        let (rules, batches) = self.state_batches();
        let t0 = Instant::now();
        if wal.compact(&rules, &batches).is_err() {
            self.metrics.wal_errors.inc();
        } else {
            self.metrics
                .compaction_seconds
                .record_duration(t0.elapsed());
        }
    }

    /// The full current state as snapshot material: rule texts plus one
    /// [`RunBatch`] per stored predicate (rows in ingestion order, so a
    /// restart rebuilds identical row ids).
    fn state_batches(&self) -> (Vec<String>, Vec<RunBatch>) {
        let rules: Vec<String> = read_lock(&self.rules)
            .rules
            .iter()
            .map(|r| r.to_string())
            .collect();
        let snapshot = self.db.snapshot();
        let mut batches = Vec::new();
        for pred in snapshot.preds() {
            let rows: Vec<Box<[Value]>> = snapshot
                .rows(&pred)
                .into_iter()
                .map(Vec::into_boxed_slice)
                .collect();
            if rows.is_empty() {
                continue;
            }
            batches.push(RunBatch {
                pred: pred.to_string(),
                arity: rows[0].len(),
                rows,
            });
        }
        (rules, batches)
    }

    /// Replay one recovered record (see the module docs for what this
    /// skips). Failures are skipped by the caller, not fatal: a record
    /// that was valid when logged can only become invalid through manual
    /// log surgery.
    pub(crate) fn replay(&self, op: WalOp) -> Result<(), String> {
        match op {
            WalOp::Fact(text) => {
                let atom = parse_atom(&text).map_err(|e| e.render_at("wal"))?;
                let values = atom
                    .ground_values()
                    .ok_or_else(|| format!("wal fact '{atom}' is not ground"))?;
                self.apply(Vec::new(), &Facts::from([(atom.pred, vec![values])]))
                    .map(drop)
            }
            WalOp::Rule(text) => {
                let rule = parse_rule(&text).map_err(|e| e.render_at("wal"))?;
                self.apply(vec![rule], &Facts::new()).map(drop)
            }
            // A snapshot's rows: one order-preserving sort-dedup per record
            // instead of per-row parsing and hashing.
            WalOp::Batch(batch) => self
                .db
                .load_batch(&PredRef::new(&batch.pred), batch.arity, batch.rows)
                .map(drop)
                .map_err(|e| e.to_string()),
        }
    }
}
