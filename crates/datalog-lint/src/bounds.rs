//! Static size-bound analysis: per-predicate derivation bounds.
//!
//! Abstract interpretation over the (possibly adorned) program that
//! computes, for every predicate, a symbolic upper bound on the number of
//! facts it can hold after fixpoint evaluation, as a polynomial in the
//! per-EDB-relation cardinalities `|r|`. The machinery follows the size
//! adornment idea of "Size Bound-Adorned Datalog" (PAPERS.md) transplanted
//! onto this repo's §2 adornment infrastructure:
//!
//! * **Non-recursive rules** get the classic conjunctive-query bound: the
//!   head count is at most `min(Π body counts, Π head-variable domains)`,
//!   summed over the predicate's rules. Projection (`d` positions already
//!   dropped by §3.2) only shrinks either factor.
//! * **Recursive SCCs** (via [`Program::sccs`], the same component DAG the
//!   optimizer uses) are bounded through *column domains*: the number of
//!   distinct values a column can take is traced through head variables to
//!   out-of-SCC body occurrences; columns fed only by in-SCC occurrences
//!   fall back to the active-domain polynomial `adom = Σ arity(r)·|r| + c`
//!   (every value in a derived fact is a program constant or occurs in
//!   some EDB fact). A recursive predicate's count is the product of its
//!   column domains.
//! * **Classification** ([`BoundClass`]): non-recursive predicates are
//!   `Bounded`; recursive SCCs where every rule uses at most one in-SCC
//!   positive literal are `Linear`; nonlinear SCCs with at least one
//!   traceable column are `Polynomial`; nonlinear SCCs where *no* column
//!   can be traced past the recursion (or whose certified degree exceeds
//!   [`MAX_CERTIFIED_DEGREE`]) are classified `Unbounded` — the analysis
//!   declines to certify anything tighter than the trivial active-domain
//!   fallback, and admission policies treat the form as worst-case.
//!
//! Every bound is *sound*: evaluating it against actual EDB cardinalities
//! yields a number no smaller than the true derived-fact count (the fuzz
//! harness asserts this on every random program). Bounds are kept as
//! minima over a small set of polynomials ([`Bound`]); dropping members of
//! the set is always sound, so the representation is pruned aggressively.
//!
//! Consumers: `datalog_opt::prepare` seeds join-order cost hints and
//! records the verdict as a `PhaseEvent::BoundsAnalyzed` (replayed by
//! `datalog_opt::validate`); the server evaluates the bound against live
//! cardinalities for pre-eval admission (`ERR bound`); resident-form
//! admission refuses `Unbounded` forms; `xdl lint --bounds` / `xdl
//! analyze` render the table below.

use std::collections::{BTreeMap, BTreeSet};

use datalog_ast::{Atom, ParsedProgram, PredRef, Program, Term, Value, Var};
use datalog_trace::{BoundClass, Json};

use crate::diag::{sort_diagnostics, Diagnostic};

/// Degree ceiling for a certified bound: recursive bounds whose tightest
/// polynomial exceeds this degree are classified [`BoundClass::Unbounded`]
/// (the number is still sound, but useless as a planning signal).
pub const MAX_CERTIFIED_DEGREE: u32 = 8;

/// How many polynomials a [`Bound`] keeps in its min-set before pruning.
const MAX_POLYS: usize = 3;

/// A monomial: cardinality-variable name (`|r|` keyed by the rendered
/// predicate) → exponent.
type Monomial = BTreeMap<String, u32>;

/// A multivariate polynomial over EDB-relation cardinalities, with
/// saturating `u64` coefficients.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Poly {
    terms: BTreeMap<Monomial, u64>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly {
            terms: BTreeMap::new(),
        }
    }

    /// A constant.
    pub fn constant(c: u64) -> Poly {
        let mut terms = BTreeMap::new();
        if c > 0 {
            terms.insert(Monomial::new(), c);
        }
        Poly { terms }
    }

    /// The cardinality variable `|pred|`.
    pub fn card(pred: &PredRef) -> Poly {
        let mut m = Monomial::new();
        m.insert(pred.to_string(), 1);
        let mut terms = BTreeMap::new();
        terms.insert(m, 1);
        Poly { terms }
    }

    /// Sum (coefficients saturate).
    pub fn add(&self, other: &Poly) -> Poly {
        let mut terms = self.terms.clone();
        for (m, c) in &other.terms {
            let e = terms.entry(m.clone()).or_insert(0);
            *e = e.saturating_add(*c);
        }
        Poly { terms }
    }

    /// Product (exponents and coefficients saturate).
    pub fn mul(&self, other: &Poly) -> Poly {
        let mut terms: BTreeMap<Monomial, u64> = BTreeMap::new();
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                let mut m = m1.clone();
                for (v, e) in m2 {
                    let slot = m.entry(v.clone()).or_insert(0);
                    *slot = slot.saturating_add(*e);
                }
                let e = terms.entry(m).or_insert(0);
                *e = e.saturating_add(c1.saturating_mul(*c2));
            }
        }
        Poly { terms }
    }

    /// Multiply by a constant.
    pub fn scale(&self, c: u64) -> Poly {
        self.mul(&Poly::constant(c))
    }

    /// Total degree (max over monomials of the exponent sum).
    pub fn degree(&self) -> u32 {
        self.terms
            .keys()
            .map(|m| m.values().fold(0u32, |a, e| a.saturating_add(*e)))
            .max()
            .unwrap_or(0)
    }

    /// Evaluate against concrete cardinalities (missing relations count as
    /// empty), saturating at `u64::MAX`.
    pub fn eval(&self, cards: &BTreeMap<String, u64>) -> u64 {
        let mut total: u128 = 0;
        for (m, c) in &self.terms {
            let mut v = *c as u128;
            for (name, e) in m {
                let base = cards.get(name).copied().unwrap_or(0) as u128;
                for _ in 0..*e {
                    v = v.saturating_mul(base);
                }
            }
            total = total.saturating_add(v);
        }
        total.min(u64::MAX as u128) as u64
    }

    /// Render, highest-degree terms first: `2|e|^2 + |e||p| + 3`.
    pub fn render(&self) -> String {
        if self.terms.is_empty() {
            return "0".into();
        }
        let mut parts: Vec<(u32, String)> = Vec::new();
        for (m, c) in &self.terms {
            let deg = m.values().fold(0u32, |a, e| a.saturating_add(*e));
            let vars: String = m
                .iter()
                .map(|(v, e)| {
                    if *e == 1 {
                        format!("|{v}|")
                    } else {
                        format!("|{v}|^{e}")
                    }
                })
                .collect();
            let text = if m.is_empty() {
                c.to_string()
            } else if *c == 1 {
                vars
            } else {
                format!("{c}{vars}")
            };
            parts.push((deg, text));
        }
        parts.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        parts
            .into_iter()
            .map(|(_, t)| t)
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

/// An upper bound kept as the minimum of a small set of polynomials. Every
/// member is individually sound, so any nonempty subset is too — which
/// licenses pruning to [`MAX_POLYS`] members (smallest degree first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bound {
    polys: Vec<Poly>,
}

impl Bound {
    /// Bound by a single polynomial.
    pub fn poly(p: Poly) -> Bound {
        Bound { polys: vec![p] }
    }

    /// Constant bound.
    pub fn constant(c: u64) -> Bound {
        Bound::poly(Poly::constant(c))
    }

    fn prune(mut self) -> Bound {
        self.polys
            .sort_by_key(|p| (p.degree(), p.terms.len(), p.render()));
        self.polys.dedup();
        self.polys.truncate(MAX_POLYS);
        self
    }

    /// `min(self, other)`.
    pub fn min_with(&self, other: &Bound) -> Bound {
        let mut polys = self.polys.clone();
        polys.extend(other.polys.iter().cloned());
        Bound { polys }.prune()
    }

    /// `self + other`: min over cross-pair sums (each pair sums two sound
    /// upper bounds, so the minimum over pairs is sound).
    pub fn add(&self, other: &Bound) -> Bound {
        let polys = self
            .polys
            .iter()
            .flat_map(|a| other.polys.iter().map(move |b| a.add(b)))
            .collect();
        Bound { polys }.prune()
    }

    /// `self * other`, same cross-pair construction as [`Bound::add`].
    pub fn mul(&self, other: &Bound) -> Bound {
        let polys = self
            .polys
            .iter()
            .flat_map(|a| other.polys.iter().map(move |b| a.mul(b)))
            .collect();
        Bound { polys }.prune()
    }

    /// Tightest certified degree.
    pub fn degree(&self) -> u32 {
        self.polys.iter().map(Poly::degree).min().unwrap_or(0)
    }

    /// Evaluate: the minimum over member polynomials.
    pub fn eval(&self, cards: &BTreeMap<String, u64>) -> u64 {
        self.polys
            .iter()
            .map(|p| p.eval(cards))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Render: the sole polynomial, or `min(p1, p2, ...)`.
    pub fn render(&self) -> String {
        match self.polys.len() {
            0 => "unbounded".into(),
            1 => self.polys[0].render(),
            _ => format!(
                "min({})",
                self.polys
                    .iter()
                    .map(Poly::render)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

/// The analysis verdict for one predicate.
#[derive(Debug, Clone)]
pub struct PredBound {
    /// The predicate (adorned rendering when the program is adorned).
    pub pred: PredRef,
    /// Recursion classification of the predicate's SCC.
    pub class: BoundClass,
    /// Upper bound on the predicate's fact count. Always finite and sound
    /// — for `Unbounded`-classified predicates it is the active-domain
    /// fallback, which the classification marks as planner-useless.
    pub count: Bound,
    /// Per-column bound on the number of distinct values.
    pub cols: Vec<Bound>,
    /// Whether the predicate participates in recursion.
    pub recursive: bool,
}

/// The full per-program analysis result.
#[derive(Debug, Clone)]
pub struct BoundsReport {
    /// Verdict per predicate: IDB predicates carry derived bounds, EDB
    /// predicates carry their seed `|r|` (so cost hints cover the whole
    /// body of every rule).
    pub preds: BTreeMap<PredRef, PredBound>,
    /// The EDB relations — the cardinality variables of every polynomial.
    pub edb: BTreeSet<PredRef>,
    /// The IDB predicates, in analysis order.
    pub idb: BTreeSet<PredRef>,
    /// The active-domain polynomial `Σ arity(r)·|r| + #constants`.
    pub adom: Poly,
}

/// Run the size-bound analysis. Fails only when the program itself is
/// inconsistent (arity clashes); lint surfaces report those separately.
pub fn analyze(program: &Program) -> Result<BoundsReport, String> {
    let arities = program.arities().map_err(|e| e.to_string())?;
    let edb = program.edb_preds();
    let idb = program.idb_preds();

    // Active domain: every value in a derived fact is a program constant
    // or occurs in some EDB fact.
    let mut constants: BTreeSet<Value> = BTreeSet::new();
    for r in &program.rules {
        for a in std::iter::once(&r.head)
            .chain(r.body.iter())
            .chain(r.negative.iter())
        {
            for t in &a.terms {
                if let Term::Const(c) = t {
                    constants.insert(*c);
                }
            }
        }
    }
    let mut adom = Poly::constant(constants.len() as u64);
    for r in &edb {
        let k = arities.get(r).copied().unwrap_or(0) as u64;
        adom = adom.add(&Poly::card(r).scale(k));
    }

    let mut report = BoundsReport {
        preds: BTreeMap::new(),
        edb: edb.clone(),
        idb: idb.clone(),
        adom: adom.clone(),
    };
    let adom_bound = Bound::poly(adom.clone());

    // Seed the EDB relations: count |r|, each column at most |r| values.
    for r in &edb {
        let k = arities.get(r).copied().unwrap_or(0);
        let card = Bound::poly(Poly::card(r));
        report.preds.insert(
            r.clone(),
            PredBound {
                pred: r.clone(),
                class: BoundClass::Bounded,
                count: card.clone(),
                cols: vec![card; k],
                recursive: false,
            },
        );
    }

    // Domain of a head variable: min over its positive body occurrences
    // whose predicate already has a verdict (out-of-SCC for recursive
    // rules, everything for non-recursive ones). None = untraceable.
    let dom_of = |report: &BoundsReport, rule: &datalog_ast::Rule, v: Var| -> Option<Bound> {
        let mut dom: Option<Bound> = None;
        for lit in &rule.body {
            let Some(pb) = report.preds.get(&lit.pred) else {
                continue;
            };
            for (i, t) in lit.terms.iter().enumerate() {
                if *t == Term::Var(v) {
                    if let Some(col) = pb.cols.get(i) {
                        dom = Some(match dom {
                            Some(d) => d.min_with(col),
                            None => col.clone(),
                        });
                    }
                }
            }
        }
        dom
    };

    let graph = program.dependency_graph();
    // `sccs` is reverse topological: callees come before callers, so every
    // out-of-SCC body predicate already has its verdict.
    for comp in program.sccs() {
        let in_scc: BTreeSet<&PredRef> = comp.iter().collect();
        let recursive = comp.len() > 1
            || graph
                .get(&comp[0])
                .is_some_and(|deps| deps.contains(&comp[0]));
        let comp_rules: Vec<usize> = (0..program.rules.len())
            .filter(|&ri| in_scc.contains(&program.rules[ri].head.pred))
            .collect();

        if !recursive {
            let p = comp[0].clone();
            let arity = arities.get(&p).copied().unwrap_or(0);
            let mut count = Bound::constant(0);
            let mut col_sums: Vec<Bound> = vec![Bound::constant(0); arity];
            for &ri in &comp_rules {
                let rule = &program.rules[ri];
                // Product of body counts.
                let mut body_product = Bound::constant(1);
                for lit in &rule.body {
                    if let Some(pb) = report.preds.get(&lit.pred) {
                        body_product = body_product.mul(&pb.count);
                    }
                }
                // Product of distinct head-variable domains.
                let mut head_product = Bound::constant(1);
                let head_vars: BTreeSet<Var> = rule.head.var_occurrences().collect();
                for v in &head_vars {
                    let dom = dom_of(&report, rule, *v).unwrap_or_else(|| adom_bound.clone());
                    head_product = head_product.mul(&dom);
                }
                count = count.add(&body_product.min_with(&head_product));
                for (i, t) in rule.head.terms.iter().enumerate().take(arity) {
                    let contrib = match t {
                        Term::Const(_) => Bound::constant(1),
                        Term::Var(v) => {
                            dom_of(&report, rule, *v).unwrap_or_else(|| adom_bound.clone())
                        }
                    };
                    col_sums[i] = col_sums[i].add(&contrib);
                }
            }
            let cols: Vec<Bound> = col_sums
                .into_iter()
                .map(|c| c.min_with(&count).min_with(&adom_bound))
                .collect();
            report.preds.insert(
                p.clone(),
                PredBound {
                    pred: p,
                    class: BoundClass::Bounded,
                    count,
                    cols,
                    recursive: false,
                },
            );
            continue;
        }

        // Recursive SCC. Linear: every rule uses ≤ 1 in-SCC positive
        // literal.
        let linear = comp_rules.iter().all(|&ri| {
            program.rules[ri]
                .body
                .iter()
                .filter(|a| in_scc.contains(&a.pred))
                .count()
                <= 1
        });
        // Column domains traced through out-of-SCC occurrences; columns
        // fed only by in-SCC occurrences fall back to the active domain.
        let mut any_traced = false;
        let mut has_cols = false;
        let mut verdicts: Vec<PredBound> = Vec::new();
        for p in &comp {
            let arity = arities.get(p).copied().unwrap_or(0);
            has_cols |= arity > 0;
            let mut cols: Vec<Bound> = Vec::with_capacity(arity);
            for i in 0..arity {
                let mut col = Bound::constant(0);
                let mut fell_back = false;
                for &ri in &comp_rules {
                    let rule = &program.rules[ri];
                    if rule.head.pred != *p {
                        continue;
                    }
                    let contrib = match rule.head.terms.get(i) {
                        Some(Term::Const(_)) => Bound::constant(1),
                        Some(Term::Var(v)) => match dom_of(&report, rule, *v) {
                            Some(d) => d,
                            None => {
                                fell_back = true;
                                adom_bound.clone()
                            }
                        },
                        None => Bound::constant(0),
                    };
                    col = col.add(&contrib);
                }
                if fell_back {
                    // The active domain already covers every source.
                    col = adom_bound.clone();
                } else {
                    // A column is *traced* only when every rule's
                    // contribution resolved outside the SCC — the signal
                    // that the recursion itself has certifiable structure.
                    any_traced = true;
                }
                cols.push(col.min_with(&adom_bound));
            }
            let count = cols.iter().fold(Bound::constant(1), |acc, c| acc.mul(c));
            verdicts.push(PredBound {
                pred: p.clone(),
                class: BoundClass::Linear, // provisional; fixed below
                count,
                cols,
                recursive: true,
            });
        }
        let worst_degree = verdicts.iter().map(|v| v.count.degree()).max().unwrap_or(0);
        let class = if worst_degree > MAX_CERTIFIED_DEGREE || (!linear && has_cols && !any_traced) {
            BoundClass::Unbounded
        } else if linear {
            BoundClass::Linear
        } else {
            BoundClass::Polynomial
        };
        for mut v in verdicts {
            v.class = class;
            report.preds.insert(v.pred.clone(), v);
        }
    }

    Ok(report)
}

impl BoundsReport {
    /// Classification of one predicate (unknown predicates are `Bounded`:
    /// they hold no derived facts).
    pub fn class_of(&self, pred: &PredRef) -> BoundClass {
        self.preds
            .get(pred)
            .map(|p| p.class)
            .unwrap_or(BoundClass::Bounded)
    }

    /// Worst classification across the derived predicates.
    pub fn worst_class(&self) -> BoundClass {
        self.idb
            .iter()
            .map(|p| self.class_of(p))
            .max()
            .unwrap_or(BoundClass::Bounded)
    }

    /// Total derived-fact bound: the sum over IDB predicates (what the
    /// engine's `fact_budget` meters).
    pub fn total(&self) -> Bound {
        self.idb
            .iter()
            .filter_map(|p| self.preds.get(p))
            .fold(Bound::constant(0), |acc, pb| acc.add(&pb.count))
    }

    /// Evaluate one predicate's bound against concrete cardinalities
    /// (keys are rendered predicate names, values committed row counts).
    pub fn eval_count(&self, pred: &PredRef, cards: &BTreeMap<String, u64>) -> Option<u64> {
        self.preds.get(pred).map(|pb| pb.count.eval(cards))
    }

    /// Evaluate the total derived-fact bound.
    pub fn eval_total(&self, cards: &BTreeMap<String, u64>) -> u64 {
        self.total().eval(cards)
    }

    /// Per-predicate estimated row counts under `cards` — the join-order
    /// cost hints `EvalOptions::cost_hints` consumes. EDB predicates get
    /// their actual cardinality, IDB predicates their evaluated bound.
    pub fn cost_hints(&self, cards: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
        self.preds
            .iter()
            .map(|(p, pb)| (p.to_string(), pb.count.eval(cards)))
            .collect()
    }

    /// The per-predicate table `xdl lint --bounds` / `xdl analyze` print.
    pub fn to_text(&self) -> String {
        let mut out = String::from("predicate\tclass\tbound\n");
        for p in self.idb.iter().chain(self.edb.iter()) {
            let Some(pb) = self.preds.get(p) else {
                continue;
            };
            out.push_str(&format!(
                "{}\t{}\t{}\n",
                pb.pred,
                pb.class.as_str(),
                pb.count.render()
            ));
        }
        out
    }

    /// JSON export (the `bounds` section of `xdl analyze --json`).
    pub fn to_json(&self) -> Json {
        let mut preds: Vec<Json> = Vec::new();
        for p in self.idb.iter().chain(self.edb.iter()) {
            let Some(pb) = self.preds.get(p) else {
                continue;
            };
            preds.push(
                Json::obj()
                    .with("pred", pb.pred.to_string().as_str())
                    .with("class", pb.class.as_str())
                    .with("bound", pb.count.render().as_str())
                    .with("degree", pb.count.degree() as u64)
                    .with("recursive", pb.recursive),
            );
        }
        Json::obj()
            .with("adom", self.adom.render().as_str())
            .with("worst_class", self.worst_class().as_str())
            .with("total", self.total().render().as_str())
            .with("preds", preds)
    }
}

/// Union-find over body-literal connectivity (shared variables).
fn body_components(atoms: &[&Atom]) -> Vec<usize> {
    let n = atoms.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    let mut owner: BTreeMap<Var, usize> = BTreeMap::new();
    for (i, a) in atoms.iter().enumerate() {
        for v in a.var_occurrences() {
            if v.is_wildcard() {
                continue;
            }
            match owner.get(&v) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    parent[ri] = rj;
                }
                None => {
                    owner.insert(v, i);
                }
            }
        }
    }
    (0..n).map(|i| find(&mut parent, i)).collect()
}

/// Bound-analysis diagnostics: cartesian blow-ups (a rule whose head draws
/// variables from disconnected body groups, so the derivation bound is a
/// full cross product) and recursion the analysis cannot bound past the
/// active-domain fallback. All warnings — `--deny-warnings` promotes them.
pub fn bounds_diagnostics(parsed: &ParsedProgram) -> Vec<Diagnostic> {
    let program = &parsed.program;
    let Ok(report) = analyze(program) else {
        // Arity clashes etc. — the core lints already report those.
        return Vec::new();
    };
    let mut diags = Vec::new();

    for (ri, rule) in program.rules.iter().enumerate() {
        // Only literals that bind variables can multiply the bound.
        let lits: Vec<&Atom> = rule
            .body
            .iter()
            .filter(|a| a.var_occurrences().any(|v| !v.is_wildcard()))
            .collect();
        if lits.len() < 2 {
            continue;
        }
        let roots = body_components(&lits);
        let head_vars: BTreeSet<Var> = rule.head.var_occurrences().collect();
        // Components contributing at least one head variable: those are
        // the groups whose counts multiply into the head bound. (Groups
        // with no head variable are existential subqueries — the §3.1
        // boolean extraction reduces them to 0/1 factors.)
        let mut head_groups: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (i, lit) in lits.iter().enumerate() {
            if lit
                .var_occurrences()
                .any(|v| !v.is_wildcard() && head_vars.contains(&v))
            {
                head_groups
                    .entry(roots[i])
                    .or_default()
                    .push(lit.pred.to_string());
            }
        }
        if head_groups.len() >= 2 {
            let groups: Vec<String> = head_groups
                .values()
                .map(|g| format!("{{{}}}", g.join(", ")))
                .collect();
            diags.push(Diagnostic::warning(
                "bound-cartesian",
                parsed.rule_span(ri),
                format!(
                    "rule `{rule}` joins {} variable-disjoint groups {} — \
                     the derivation bound is their full cross product",
                    groups.len(),
                    groups.join(" x ")
                ),
            ));
        }
    }

    // One warning per Unbounded-classified SCC, anchored at the first
    // defining rule.
    let mut warned: BTreeSet<PredRef> = BTreeSet::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        let pred = &rule.head.pred;
        if warned.contains(pred) || report.class_of(pred) != BoundClass::Unbounded {
            continue;
        }
        let arity = rule.head.arity();
        diags.push(Diagnostic::warning(
            "bound-unbounded",
            parsed.rule_span(ri),
            format!(
                "recursive predicate `{pred}` is nonlinear and no column can be \
                 traced to a base relation; no size bound tighter than the \
                 active-domain fallback adom^{arity} is certified — bound-aware \
                 admission will flag this form"
            ),
        ));
        warned.insert(pred.clone());
    }

    sort_diagnostics(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::parse_program;

    fn parsed(src: &str) -> ParsedProgram {
        parse_program(src).unwrap()
    }

    fn cards(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn poly_arithmetic_and_rendering() {
        let e = Poly::card(&PredRef::new("e"));
        let p = Poly::card(&PredRef::new("p"));
        let q = e.mul(&e).scale(2).add(&e.mul(&p)).add(&Poly::constant(3));
        assert_eq!(q.render(), "2|e|^2 + |e||p| + 3");
        assert_eq!(q.degree(), 2);
        assert_eq!(q.eval(&cards(&[("e", 10), ("p", 5)])), 253);
        // Missing relations evaluate as empty.
        assert_eq!(q.eval(&cards(&[("e", 10)])), 203);
        assert_eq!(Poly::zero().render(), "0");
    }

    #[test]
    fn bound_min_set_is_sound_and_pruned() {
        let e = Bound::poly(Poly::card(&PredRef::new("e")));
        let big = e.mul(&e).mul(&e);
        let b = big.min_with(&e);
        assert_eq!(b.eval(&cards(&[("e", 7)])), 7);
        assert_eq!(b.degree(), 1);
        // Products distribute across the min-set.
        let sq = b.mul(&b);
        assert_eq!(sq.eval(&cards(&[("e", 7)])), 49);
    }

    #[test]
    fn transitive_closure_is_linear_and_quadratic() {
        let p = parsed(
            "a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- a(X, Y).",
        );
        let r = analyze(&p.program).unwrap();
        let a = PredRef::new("a");
        assert_eq!(r.class_of(&a), BoundClass::Linear);
        let pb = &r.preds[&a];
        assert!(pb.recursive);
        assert_eq!(pb.count.degree(), 2, "{}", pb.count.render());
        // Sound on a concrete instance: p a 4-chain derives 4+3+2+1 = 10
        // closure facts at |p| = 4.
        let bound = r.eval_count(&a, &cards(&[("p", 4)])).unwrap();
        assert!(bound >= 10, "bound {bound} under-approximates");
    }

    #[test]
    fn nonlinear_recursion_without_base_columns_is_unbounded() {
        let p = parsed(
            "t(X, Y) :- t(X, Z), t(Z, Y).\n\
             t(X, Y) :- e(X, Y).\n\
             ?- t(X, Y).",
        );
        let r = analyze(&p.program).unwrap();
        assert_eq!(r.class_of(&PredRef::new("t")), BoundClass::Unbounded);
        assert_eq!(r.worst_class(), BoundClass::Unbounded);
        // The fallback count is still finite and sound.
        let n = r
            .eval_count(&PredRef::new("t"), &cards(&[("e", 3)]))
            .unwrap();
        assert!(n >= 9);
        let diags = bounds_diagnostics(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "bound-unbounded");
    }

    #[test]
    fn nonlinear_recursion_with_traced_columns_is_polynomial() {
        // Same-generation: nonlinear (two sg literals) but both head
        // columns trace to up/down.
        let p = parsed(
            "sg(X, Y) :- up(X, U), sg(U, V), sg(V, W), down(W, Y).\n\
             sg(X, Y) :- flat(X, Y).\n\
             ?- sg(X, Y).",
        );
        let r = analyze(&p.program).unwrap();
        assert_eq!(r.class_of(&PredRef::new("sg")), BoundClass::Polynomial);
    }

    #[test]
    fn cartesian_product_is_flagged_and_bounded_exactly() {
        let p = parsed(
            "big(X, Z) :- p(X, Y), q(Z, W).\n\
             ?- big(X, Z).",
        );
        let r = analyze(&p.program).unwrap();
        let big = PredRef::new("big");
        assert_eq!(r.class_of(&big), BoundClass::Bounded);
        // |p| * |q|, evaluated.
        assert_eq!(r.eval_count(&big, &cards(&[("p", 3), ("q", 5)])), Some(15));
        let diags = bounds_diagnostics(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "bound-cartesian");
        assert!(
            diags[0].message.contains("{p} x {q}"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn existential_component_is_not_a_cartesian_blowup() {
        // The disconnected group binds no head variable: §3.1 extracts it
        // as a boolean — a 0/1 factor, not a cross product.
        let p = parsed(
            "q(X) :- a(X, Y), c(W, V).\n\
             ?- q(X).",
        );
        assert!(bounds_diagnostics(&p).is_empty());
    }

    #[test]
    fn nonrecursive_bound_beats_cross_product_via_head_domains() {
        // proj(X) projects a join down to one column: the head-domain
        // factor |p| beats the body product |p||q|.
        let p = parsed(
            "proj(X) :- p(X, Y), q(Y, Z).\n\
             ?- proj(X).",
        );
        let r = analyze(&p.program).unwrap();
        let n = r
            .eval_count(&PredRef::new("proj"), &cards(&[("p", 4), ("q", 100)]))
            .unwrap();
        assert_eq!(n, 4, "head-domain bound should win the min");
    }

    #[test]
    fn total_sums_idb_only_and_hints_cover_edb() {
        let p = parsed(
            "a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- a(X, Y).",
        );
        let r = analyze(&p.program).unwrap();
        let c = cards(&[("p", 4)]);
        assert_eq!(
            r.eval_total(&c),
            r.eval_count(&PredRef::new("a"), &c).unwrap()
        );
        let hints = r.cost_hints(&c);
        assert_eq!(hints.get("p"), Some(&4));
        assert!(hints.contains_key("a"));
        assert!(r.to_text().contains("a\tlinear\t"));
        let json = r.to_json().to_string();
        assert!(json.contains("\"worst_class\":\"linear\""), "{json}");
    }
}
