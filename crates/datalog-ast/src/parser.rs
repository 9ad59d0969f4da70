//! Lexer and recursive-descent parser for the Datalog text format.
//!
//! Grammar (whitespace and `%`-to-end-of-line comments are skipped):
//!
//! ```text
//! program    := statement*
//! statement  := rule | fact | query
//! rule       := atom ":-" literal ("," literal)* "."
//! literal    := ["not"] atom
//! fact       := ground-atom "."
//! query      := "?-" atom "."
//! atom       := pred [ "(" term ("," term)* ")" ]
//! pred       := ident adornment?
//! adornment  := "[" [nd]* "]"   |   "^" [nd]+
//! term       := VARIABLE | INTEGER | ident | "_" | "\"" chars "\""
//! ```
//!
//! * Identifiers starting with an upper-case letter (or `_` followed by a
//!   letter) are variables; `_` alone is a wildcard expanded to a fresh
//!   variable.
//! * `p[nd]` and the paper's `p^nd` both denote the adorned predicate.
//! * Facts (ground atoms used as statements) are collected separately into
//!   [`ParsedProgram::facts`]: per the paper's convention the IDB holds no
//!   facts.

use std::collections::BTreeMap;

use crate::adornment::Adornment;
use crate::atom::Atom;
use crate::pred::PredRef;
use crate::program::{Program, Query};
use crate::rule::Rule;
use crate::term::{Term, Value, Var};

/// A parse error with 1-based line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl ParseError {
    /// Render as a `origin:line:col: message` diagnostic, the conventional
    /// compiler-style form. `origin` is typically a file path; tools that
    /// parse protocol input use a pseudo-origin such as `"query"`. The
    /// rendering is click-through friendly for editors and is what `xdl`
    /// prints (and what `datalog-server` returns in-protocol as `ERR ...`).
    pub fn render_at(&self, origin: &str) -> String {
        format!("{origin}:{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Result of parsing a source text: the rule/query program plus any facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedProgram {
    /// Rules and query.
    pub program: Program,
    /// Ground facts, grouped by predicate.
    pub facts: BTreeMap<PredRef, Vec<Vec<Value>>>,
    /// 1-based (line, col) of the first token of each rule statement,
    /// parallel to `program.rules`. Diagnostics tools (`datalog-lint`) use
    /// these to point at the offending statement.
    pub rule_spans: Vec<(usize, usize)>,
    /// 1-based (line, col) of the `?-` token of the query, if any.
    pub query_span: Option<(usize, usize)>,
    /// 1-based (line, col) of each fact statement, in source order.
    pub fact_spans: Vec<(PredRef, usize, usize)>,
}

impl ParsedProgram {
    /// Span of rule `idx`, falling back to `1:1` when unknown (e.g. for a
    /// program assembled in code rather than parsed from text).
    pub fn rule_span(&self, idx: usize) -> (usize, usize) {
        self.rule_spans.get(idx).copied().unwrap_or((1, 1))
    }
}

/// A token. Names, string contents and integer digits are slices of the
/// source, so lexing allocates only the token vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),   // lower-case identifier
    VarName(&'a str), // upper-case identifier
    Int(i64),
    Str(&'a str),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Caret,
    Comma,
    Dot,
    Implies,   // :-
    QueryLead, // ?-
    Underscore,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consume bytes while `pred` holds; returns the slice consumed, which
    /// starts at `start`.
    fn take_while(&mut self, start: usize, pred: impl Fn(u8) -> bool) -> &'a str {
        while self.peek().is_some_and(&pred) {
            self.bump();
        }
        &self.src[start..self.pos]
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    /// Tokenize the whole input, recording each token's position.
    fn tokenize(mut self) -> Result<Vec<(Tok<'a>, usize, usize)>, ParseError> {
        let word = |d: u8| d.is_ascii_alphanumeric() || d == b'_';
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, col, start) = (self.line, self.col, self.pos);
            let Some(c) = self.peek() else { break };
            let tok = match c {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b'[' => {
                    self.bump();
                    Tok::LBracket
                }
                b']' => {
                    self.bump();
                    Tok::RBracket
                }
                b'^' => {
                    self.bump();
                    Tok::Caret
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::Implies
                    } else {
                        return Err(self.err("expected '-' after ':'"));
                    }
                }
                b'?' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::QueryLead
                    } else {
                        return Err(self.err("expected '-' after '?'"));
                    }
                }
                b'"' => {
                    self.bump();
                    // Both quotes are ASCII, so the contents are a char-
                    // aligned slice of the UTF-8 source.
                    let text = self.take_while(start + 1, |d| d != b'"');
                    if self.bump().is_none() {
                        return Err(self.err("unterminated string literal"));
                    }
                    Tok::Str(text)
                }
                b'-' | b'0'..=b'9' => {
                    self.bump();
                    let s = self.take_while(start, |d| d.is_ascii_digit());
                    let n: i64 = s
                        .parse()
                        .map_err(|_| self.err(format!("bad integer literal '{s}'")))?;
                    Tok::Int(n)
                }
                b'_' => {
                    self.bump();
                    // `_` alone is a wildcard; `_x`/`_X` is a named variable.
                    let s = self.take_while(start, word);
                    if s.len() > 1 {
                        Tok::VarName(s)
                    } else {
                        Tok::Underscore
                    }
                }
                c if c.is_ascii_alphabetic() => {
                    let s = self.take_while(start, word);
                    if c.is_ascii_uppercase() {
                        Tok::VarName(s)
                    } else {
                        Tok::Ident(s)
                    }
                }
                _ => {
                    let other = self.src[start..].chars().next().unwrap_or_default();
                    return Err(self.err(format!("unexpected character '{other}'")));
                }
            };
            out.push((tok, line, col));
        }
        Ok(out)
    }
}

struct Parser<'a> {
    toks: Vec<(Tok<'a>, usize, usize)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err_here(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos)
            .map(|&(_, l, c)| (l, c))
            .or_else(|| self.toks.last().map(|&(_, l, c)| (l, c + 1)))
            .unwrap_or((1, 1));
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|&(t, _, _)| t)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok<'_>, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}")))
        }
    }

    fn parse_pred(&mut self) -> Result<PredRef, ParseError> {
        let name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            _ => return Err(self.err_here("expected predicate name")),
        };
        let adornment = match self.peek() {
            Some(Tok::LBracket) => {
                self.bump();
                let ad = match self.peek() {
                    Some(Tok::RBracket) => Adornment(vec![]),
                    Some(Tok::Ident(s)) => {
                        let ad = Adornment::parse(s).ok_or_else(|| {
                            self.err_here(format!("bad adornment '{s}' (use only n/d)"))
                        })?;
                        self.bump();
                        ad
                    }
                    _ => return Err(self.err_here("expected adornment letters or ']'")),
                };
                self.expect(Tok::RBracket, "']'")?;
                Some(ad)
            }
            Some(Tok::Caret) => {
                self.bump();
                match self.bump() {
                    Some(Tok::Ident(s)) => Some(Adornment::parse(s).ok_or_else(|| {
                        self.err_here(format!("bad adornment '{s}' (use only n/d)"))
                    })?),
                    _ => return Err(self.err_here("expected adornment letters after '^'")),
                }
            }
            _ => None,
        };
        Ok(PredRef {
            name: crate::intern::Symbol::intern(name),
            adornment,
        })
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::VarName(s)) => Ok(Term::Var(Var::new(s))),
            Some(Tok::Int(i)) => Ok(Term::Const(Value::Int(i))),
            Some(Tok::Ident(s) | Tok::Str(s)) => Ok(Term::Const(Value::sym(s))),
            Some(Tok::Underscore) => Ok(Term::Var(Var::fresh_wildcard())),
            _ => Err(self.err_here("expected term")),
        }
    }

    /// Parse a rule body: positive and negated literals in source order.
    fn parse_body(&mut self) -> Result<(Vec<Atom>, Vec<Atom>), ParseError> {
        let mut body = Vec::new();
        let mut negative = Vec::new();
        loop {
            // `not` is a keyword only in literal position; elsewhere it is
            // an ordinary identifier.
            let negated = self.peek() == Some(Tok::Ident("not"))
                && !matches!(self.toks.get(self.pos + 1), Some((Tok::LParen, _, _)));
            if negated {
                self.bump();
                negative.push(self.parse_atom()?);
            } else {
                body.push(self.parse_atom()?);
            }
            if self.peek() == Some(Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        Ok((body, negative))
    }

    fn parse_atom(&mut self) -> Result<Atom, ParseError> {
        let pred = self.parse_pred()?;
        let mut terms = Vec::new();
        if self.peek() == Some(Tok::LParen) {
            self.bump();
            if self.peek() != Some(Tok::RParen) {
                loop {
                    terms.push(self.parse_term()?);
                    if self.peek() == Some(Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "')'")?;
        }
        Ok(Atom { pred, terms })
    }

    /// Position of the token about to be consumed (start of a statement).
    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos)
            .map(|&(_, l, c)| (l, c))
            .unwrap_or((1, 1))
    }

    fn parse_statement(&mut self, out: &mut ParsedProgram) -> Result<(), ParseError> {
        let span = self.here();
        if self.peek() == Some(Tok::QueryLead) {
            self.bump();
            let atom = self.parse_atom()?;
            self.expect(Tok::Dot, "'.'")?;
            if out.program.query.is_some() {
                return Err(self.err_here("multiple queries in program"));
            }
            out.program.query = Some(Query::new(atom));
            out.query_span = Some(span);
            return Ok(());
        }
        let head = self.parse_atom()?;
        match self.peek() {
            Some(Tok::Dot) => {
                self.bump();
                // A fact statement.
                match head.ground_values() {
                    Some(values) => {
                        out.fact_spans.push((head.pred.clone(), span.0, span.1));
                        out.facts.entry(head.pred).or_default().push(values);
                    }
                    None => {
                        return Err(self.err_here(format!(
                            "fact '{head}' is not ground (facts belong to the EDB)"
                        )))
                    }
                }
                Ok(())
            }
            Some(Tok::Implies) => {
                self.bump();
                let (body, negative) = self.parse_body()?;
                self.expect(Tok::Dot, "'.'")?;
                out.program
                    .rules
                    .push(Rule::with_negation(head, body, negative));
                out.rule_spans.push(span);
                Ok(())
            }
            _ => Err(self.err_here("expected '.' or ':-'")),
        }
    }
}

/// Parse a full program text.
pub fn parse_program(src: &str) -> Result<ParsedProgram, ParseError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser { toks, pos: 0 };
    let mut out = ParsedProgram {
        program: Program::default(),
        facts: BTreeMap::new(),
        rule_spans: Vec::new(),
        query_span: None,
        fact_spans: Vec::new(),
    };
    while p.peek().is_some() {
        p.parse_statement(&mut out)?;
    }
    Ok(out)
}

/// Parse a single rule, e.g. `"a(X,Y) :- p(X,Z), a(Z,Y)."` (trailing dot
/// optional).
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser { toks, pos: 0 };
    let head = p.parse_atom()?;
    p.expect(Tok::Implies, "':-'")?;
    let (body, negative) = p.parse_body()?;
    if p.peek() == Some(Tok::Dot) {
        p.bump();
    }
    if p.peek().is_some() {
        return Err(p.err_here("trailing input after rule"));
    }
    Ok(Rule::with_negation(head, body, negative))
}

/// Parse a single atom, e.g. `"p[nd](X, 3)"`.
pub fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser { toks, pos: 0 };
    let a = p.parse_atom()?;
    if p.peek() == Some(Tok::Dot) {
        p.bump();
    }
    if p.peek().is_some() {
        return Err(p.err_here("trailing input after atom"));
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adornment::Ad;

    #[test]
    fn parse_transitive_closure() {
        let p = parse_program(
            "% Example 1 of the paper\n\
             query(X) :- a(X, Y).\n\
             a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- query(X).",
        )
        .unwrap();
        assert_eq!(p.program.rules.len(), 3);
        assert!(p.program.query.is_some());
        assert!(p.facts.is_empty());
    }

    #[test]
    fn parse_adornments_both_syntaxes() {
        let a = parse_atom("a[nd](X, Y)").unwrap();
        let b = parse_atom("a^nd(X, Y)").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.pred.adornment.as_ref().unwrap().0, vec![Ad::N, Ad::D]);
        // Empty adornment (boolean predicate).
        let c = parse_atom("b2[]").unwrap();
        assert_eq!(c.pred.adornment.as_ref().unwrap().len(), 0);
        assert_eq!(c.arity(), 0);
    }

    #[test]
    fn parse_facts_and_values() {
        let p = parse_program(
            "p(1, 2).\n\
             p(2, 3).\n\
             name(alice, 1).\n\
             label(\"hello world\", 1).\n\
             q(X) :- p(X, Y).",
        )
        .unwrap();
        assert_eq!(p.facts[&PredRef::new("p")].len(), 2);
        assert_eq!(
            p.facts[&PredRef::new("name")][0],
            vec![Value::sym("alice"), Value::int(1)]
        );
        assert_eq!(
            p.facts[&PredRef::new("label")][0],
            vec![Value::sym("hello world"), Value::int(1)]
        );
        assert_eq!(p.program.rules.len(), 1);
    }

    #[test]
    fn wildcards_become_fresh_vars() {
        let r = parse_rule("q(X) :- p(X, _), p(_, X)").unwrap();
        let w1 = r.body[0].terms[1].as_var().unwrap();
        let w2 = r.body[1].terms[0].as_var().unwrap();
        assert!(w1.is_wildcard());
        assert!(w2.is_wildcard());
        assert_ne!(w1, w2, "each wildcard must be a distinct variable");
    }

    #[test]
    fn underscore_prefixed_names_are_variables() {
        let r = parse_rule("q(X) :- p(X, _tail), r(_tail)").unwrap();
        let v1 = r.body[0].terms[1].as_var().unwrap();
        let v2 = r.body[1].terms[0].as_var().unwrap();
        assert_eq!(v1, v2, "named _vars are shared, unlike bare wildcards");
    }

    #[test]
    fn error_positions() {
        let e = parse_program("q(X) :- p(X Y).").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.col > 1);

        let e = parse_program("q(X)\n:~ p(X).").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn render_at_is_file_line_col() {
        let e = parse_program("q(X) :-\n  p(X Y).").unwrap_err();
        let rendered = e.render_at("examples/bad.dl");
        assert_eq!(
            rendered,
            format!("examples/bad.dl:{}:{}: {}", e.line, e.col, e.message)
        );
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_nonground_fact() {
        let e = parse_program("p(X).").unwrap_err();
        assert!(e.message.contains("not ground"));
    }

    #[test]
    fn rejects_multiple_queries() {
        let e = parse_program("?- q(X).\n?- r(X).").unwrap_err();
        assert!(e.message.contains("multiple queries"));
    }

    #[test]
    fn rejects_bad_adornment() {
        let e = parse_atom("p[nx](X, Y)").unwrap_err();
        assert!(e.message.contains("bad adornment"));
    }

    #[test]
    fn negative_integers() {
        let p = parse_program("p(-5, 3).").unwrap();
        assert_eq!(
            p.facts[&PredRef::new("p")][0],
            vec![Value::int(-5), Value::int(3)]
        );
    }

    #[test]
    fn display_parse_roundtrip_with_adornments() {
        let src = "a[nd](X) :- p(X, Z), a[nd](Z).";
        let r = parse_rule(src).unwrap();
        let printed = r.to_string();
        let reparsed = parse_rule(&printed).unwrap();
        assert_eq!(r, reparsed);
    }

    #[test]
    fn lexer_failure_injection() {
        for (src, needle) in [
            ("p(\"abc).", "unterminated string"),
            ("p[n](X) :- q(X) r(X).", "expected"),
            ("p^ (X).", "adornment"),
            ("p[zz](X).", "bad adornment"),
            ("p(X,).", "expected term"),
            ("p(X", "expected"),
            ("@p(X).", "unexpected character"),
            ("?~ q(X).", "expected '-' after '?'"),
        ] {
            let e = parse_program(src).unwrap_err();
            assert!(
                e.message.contains(needle),
                "for {src:?}: got '{}', wanted '{needle}'",
                e.message
            );
        }
    }

    #[test]
    fn negation_parses() {
        let r = parse_rule("alive(X) :- node(X), not dead(X)").unwrap();
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.negative.len(), 1);
        assert_eq!(r.to_string(), "alive(X) :- node(X), not dead(X).");
        // Round-trip.
        let again = parse_rule(&r.to_string()).unwrap();
        assert_eq!(r, again);
        // `not` as a predicate name still works when applied.
        let r2 = parse_rule("q(X) :- not(X, Y)").unwrap();
        assert!(r2.negative.is_empty());
        assert_eq!(r2.body[0].pred.name.as_str(), "not");
    }

    #[test]
    fn statement_spans_recorded() {
        let p = parse_program("p(1, 2).\nq(X) :- p(X, Y).\n\n% comment\n  r(X) :- q(X).\n?- r(X).")
            .unwrap();
        assert_eq!(p.rule_spans, vec![(2, 1), (5, 3)]);
        assert_eq!(p.rule_span(0), (2, 1));
        assert_eq!(p.rule_span(99), (1, 1));
        assert_eq!(p.query_span, Some((6, 1)));
        assert_eq!(p.fact_spans, vec![(PredRef::new("p"), 1, 1)]);
    }

    #[test]
    fn string_literals_decode_as_utf8() {
        let p = parse_program("p(\"café\").\nq(\"naïve\", \"日本\").").unwrap();
        assert_eq!(p.facts[&PredRef::new("p")][0], vec![Value::sym("café")]);
        assert_eq!(
            p.facts[&PredRef::new("q")][0],
            vec![Value::sym("naïve"), Value::sym("日本")]
        );
        assert_eq!(p.facts[&PredRef::new("p")][0][0].to_string(), "café");
        // Outside a literal, a non-ASCII character is named whole.
        let e = parse_program("p(é).").unwrap_err();
        assert_eq!(e.message, "unexpected character 'é'");
        assert_eq!((e.line, e.col), (1, 3));
    }

    /// A seeded round trip: `parse_program(p.to_string())` is `p`, and a
    /// fact rendered as an atom reads back as the same tuple, for symbols
    /// that print bare and symbols that must be quoted to keep their
    /// meaning (a variable, an integer, a space, a named variable, UTF-8).
    #[test]
    fn rendered_programs_and_facts_parse_back_unchanged() {
        const SYMBOLS: [&str; 6] = ["bob", "Alice", "a b", "42", "_x", "café"];
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for round in 0..200 {
            let mut term = |vars: bool| match below(if vars { 4 } else { 2 }) {
                0 => Term::int(below(100) as i64 - 50),
                1 => Term::sym(SYMBOLS[below(SYMBOLS.len())]),
                _ => Term::var(["X", "Y"][below(2)]),
            };
            let mut atom = |pred: &str, vars: bool| {
                Atom::new(PredRef::new(pred), vec![term(vars), term(vars)])
            };
            let rules: Vec<Rule> = (0..3)
                .map(|k| Rule::new(atom(&format!("q{k}"), true), vec![atom("e", true)]))
                .collect();
            let program = Program {
                rules,
                query: Some(Query::new(atom("q0", true))),
            };
            let fact = atom("f", false);
            let text = format!("{program}{fact}.\n");
            let parsed = parse_program(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed.program, program, "round {round}: {text}");
            assert_eq!(
                parsed.facts[&fact.pred],
                vec![fact.ground_values().unwrap()],
                "round {round}: {text}"
            );
        }
    }

    #[test]
    fn boolean_rules_parse() {
        // §3.1 style boolean predicates with no arguments.
        let p = parse_program("b2 :- q3[dn](V), q4[n](V).").unwrap();
        assert_eq!(p.program.rules[0].head.arity(), 0);
    }
}
