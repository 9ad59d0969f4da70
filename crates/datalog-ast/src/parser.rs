//! Pull lexer and recursive-descent parser for the Datalog text format.
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
//!
//! The lexer is an iterator the parser pulls one token at a time, with a
//! lookahead of one token (two after `not`); no token list is built. A
//! fact's values go straight into its predicate's [`FactBatch`], found by
//! the predicate as written, and its symbolic constants through a map
//! local to the parse, so a fact costs no allocation of its own and no
//! global interner lock.
//!
//! Positions are 1-based lines and byte columns. An error at the end of the
//! input sits one column past the start of the last token, and a lexical
//! error anywhere in the text wins over a syntax error before it: after a
//! syntax error the rest of the text is still lexed.

use std::collections::HashMap;

use crate::adornment::Adornment;
use crate::atom::Atom;
use crate::facts::{FactBatch, FactTable};
use crate::intern::Symbol;
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
    /// Ground facts: one flat batch per predicate and arity, each row's
    /// statement position beside it.
    pub facts: FactTable,
    /// 1-based (line, col) of the first token of each rule statement,
    /// parallel to `program.rules`. Diagnostics tools (`datalog-lint`) use
    /// these to point at the offending statement.
    pub rule_spans: Vec<(usize, usize)>,
    /// 1-based (line, col) of the `?-` token of the query, if any.
    pub query_span: Option<(usize, usize)>,
}

impl ParsedProgram {
    /// Span of rule `idx`, falling back to `1:1` when unknown (e.g. for a
    /// program assembled in code rather than parsed from text).
    pub fn rule_span(&self, idx: usize) -> (usize, usize) {
        self.rule_spans.get(idx).copied().unwrap_or((1, 1))
    }
}

/// A token. Names, string contents and integer digits are slices of the
/// source, so lexing allocates nothing.
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

/// A token and the line and column it starts at.
#[derive(Debug, Clone, Copy)]
struct Lexeme<'a> {
    tok: Tok<'a>,
    line: usize,
    col: usize,
}

/// The lexer: an iterator of tokens that ends at the end of the input or
/// at its first error, which it keeps.
#[derive(Clone)]
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    /// Byte offset of the current line's start: the column of `pos` is
    /// `pos - line_start + 1`.
    line_start: usize,
    /// Where the last token read starts; line 0 before the first.
    last: (usize, usize),
    error: Option<ParseError>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            line_start: 0,
            last: (0, 0),
            error: None,
        }
    }

    fn col(&self) -> usize {
        self.pos - self.line_start + 1
    }

    /// Keep an error at the current position, and end the tokens.
    fn fail(&mut self, message: impl Into<String>) -> Option<Lexeme<'a>> {
        self.error = Some(ParseError {
            message: message.into(),
            line: self.line,
            col: self.col(),
        });
        self.pos = self.src.len();
        None
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Move to `end`, counting the newlines on the way.
    fn advance_to(&mut self, end: usize) {
        let skipped = &self.src.as_bytes()[self.pos..end];
        if let Some(last) = skipped.iter().rposition(|&c| c == b'\n') {
            self.line += skipped.iter().filter(|&&c| c == b'\n').count();
            self.line_start = self.pos + last + 1;
        }
        self.pos = end;
    }

    /// Consume bytes while `pred` holds (it never holds for a newline);
    /// returns the slice from `start`.
    fn take_while(&mut self, start: usize, pred: impl Fn(u8) -> bool) -> &'a str {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&c| !pred(c)).unwrap_or(rest.len());
        &self.src[start..self.pos]
    }

    fn skip_trivia(&mut self) {
        while let Some(c) = self.byte() {
            match c {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.line_start = self.pos;
                }
                b'%' => {
                    let rest = &self.src.as_bytes()[self.pos..];
                    let end = rest
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(rest.len(), |i| i + 1);
                    self.advance_to(self.pos + end);
                }
                c if c.is_ascii_whitespace() => self.pos += 1,
                _ => return,
            }
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Lexeme<'a>;

    fn next(&mut self) -> Option<Lexeme<'a>> {
        let word = |d: u8| d.is_ascii_alphanumeric() || d == b'_';
        self.skip_trivia();
        let (line, col, start) = (self.line, self.col(), self.pos);
        let c = self.byte()?;
        self.pos += 1;
        let tok = match c {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b'^' => Tok::Caret,
            b',' => Tok::Comma,
            b'.' => Tok::Dot,
            b':' | b'?' => {
                if self.byte() != Some(b'-') {
                    return self.fail(format!("expected '-' after '{}'", c as char));
                }
                self.pos += 1;
                if c == b':' {
                    Tok::Implies
                } else {
                    Tok::QueryLead
                }
            }
            b'"' => {
                // Both quotes are ASCII, so the contents are a char-
                // aligned slice of the UTF-8 source.
                let Some(len) = self.src[self.pos..].find('"') else {
                    self.advance_to(self.src.len());
                    return self.fail("unterminated string literal");
                };
                let text = &self.src[self.pos..self.pos + len];
                self.advance_to(self.pos + len + 1);
                Tok::Str(text)
            }
            b'-' | b'0'..=b'9' => {
                let s = self.take_while(start, |d| d.is_ascii_digit());
                match s.parse() {
                    Ok(n) => Tok::Int(n),
                    Err(_) => return self.fail(format!("bad integer literal '{s}'")),
                }
            }
            b'_' => {
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
                self.pos = start;
                let other = self.src[start..].chars().next().unwrap_or_default();
                return self.fail(format!("unexpected character '{other}'"));
            }
        };
        self.last = (line, col);
        Some(Lexeme { tok, line, col })
    }
}

/// A predicate as written: its name and, if adorned, its adornment
/// letters (checked to be `n`/`d`).
type PredKey<'a> = (&'a str, Option<&'a str>);

/// A fact batch's predicate as written, and its arity.
type BatchKey<'a> = (PredKey<'a>, usize);

/// A statement position as a fact batch keeps it.
fn span32((line, col): (usize, usize)) -> (u32, u32) {
    let narrow = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
    (narrow(line), narrow(col))
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next unconsumed token; `None` at the end of the input.
    cur: Option<Lexeme<'a>>,
    /// The symbolic constants read so far, each interned once per parse.
    symbols: HashMap<&'a str, Symbol>,
    /// The terms of the atom being read, reused from atom to atom.
    terms: Vec<Term>,
    /// The fact batches, and the index of each by predicate and arity.
    facts: Vec<FactBatch>,
    batch_of: HashMap<BatchKey<'a>, usize>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let mut lexer = Lexer::new(src);
        let cur = lexer.next();
        Parser {
            lexer,
            cur,
            symbols: HashMap::new(),
            terms: Vec::new(),
            facts: Vec::new(),
            batch_of: HashMap::new(),
        }
    }

    /// Position of the token about to be consumed (start of a statement).
    fn here(&self) -> (usize, usize) {
        self.cur.map_or((1, 1), |t| (t.line, t.col))
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        // At the end of the input the lexer's last token is the last one
        // consumed.
        let (line, col) = match (self.cur, self.lexer.last) {
            (Some(t), _) => (t.line, t.col),
            (None, (0, _)) => (1, 1),
            (None, (line, col)) => (line, col + 1),
        };
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.cur.map(|t| t.tok)
    }

    /// The token after the next one, read by a copy of the lexer.
    fn peek2(&self) -> Option<Tok<'a>> {
        self.lexer.clone().next().map(|t| t.tok)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.cur?;
        self.cur = self.lexer.next();
        Some(t.tok)
    }

    fn expect(&mut self, want: Tok<'_>, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.bump();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}")))
        }
    }

    fn symbol(&mut self, s: &'a str) -> Symbol {
        *self.symbols.entry(s).or_insert_with(|| Symbol::intern(s))
    }

    fn resolve((name, letters): PredKey<'_>) -> PredRef {
        PredRef {
            name: Symbol::intern(name),
            adornment: letters.map(|s| Adornment::parse(s).expect("letters checked")),
        }
    }

    fn parse_pred(&mut self) -> Result<PredKey<'a>, ParseError> {
        let is_adornment = |s: &str| s.bytes().all(|c| c == b'n' || c == b'd');
        let bad = |s: &str| format!("bad adornment '{s}' (use only n/d)");
        let name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            _ => return Err(self.err_here("expected predicate name")),
        };
        let adornment = match self.peek() {
            Some(Tok::LBracket) => {
                self.bump();
                let letters = match self.peek() {
                    Some(Tok::RBracket) => "",
                    Some(Tok::Ident(s)) if is_adornment(s) => {
                        self.bump();
                        s
                    }
                    Some(Tok::Ident(s)) => return Err(self.err_here(bad(s))),
                    _ => return Err(self.err_here("expected adornment letters or ']'")),
                };
                self.expect(Tok::RBracket, "']'")?;
                Some(letters)
            }
            Some(Tok::Caret) => {
                self.bump();
                match self.bump() {
                    Some(Tok::Ident(s)) if is_adornment(s) => Some(s),
                    Some(Tok::Ident(s)) => return Err(self.err_here(bad(s))),
                    _ => return Err(self.err_here("expected adornment letters after '^'")),
                }
            }
            _ => None,
        };
        Ok((name, adornment))
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::VarName(s)) => Ok(Term::Var(Var::new(s))),
            Some(Tok::Int(i)) => Ok(Term::Const(Value::Int(i))),
            Some(Tok::Ident(s) | Tok::Str(s)) => Ok(Term::Const(Value::Sym(self.symbol(s)))),
            Some(Tok::Underscore) => Ok(Term::Var(Var::fresh_wildcard())),
            _ => Err(self.err_here("expected term")),
        }
    }

    /// Read an atom, leaving its terms in `self.terms`.
    fn parse_atom_terms(&mut self) -> Result<PredKey<'a>, ParseError> {
        let pred = self.parse_pred()?;
        self.terms.clear();
        if self.peek() == Some(Tok::LParen) {
            self.bump();
            if self.peek() != Some(Tok::RParen) {
                loop {
                    let term = self.parse_term()?;
                    self.terms.push(term);
                    if self.peek() == Some(Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "')'")?;
        }
        Ok(pred)
    }

    /// The atom of `pred` over the terms just read.
    fn atom_of(&self, pred: PredKey<'_>) -> Atom {
        Atom {
            pred: Parser::resolve(pred),
            terms: self.terms.clone(),
        }
    }

    fn parse_atom(&mut self) -> Result<Atom, ParseError> {
        let pred = self.parse_atom_terms()?;
        Ok(self.atom_of(pred))
    }

    /// Parse a rule body: positive and negated literals in source order.
    fn parse_body(&mut self) -> Result<(Vec<Atom>, Vec<Atom>), ParseError> {
        let mut body = Vec::new();
        let mut negative = Vec::new();
        loop {
            // `not` is a keyword only in literal position; elsewhere it is
            // an ordinary identifier.
            let negated =
                self.peek() == Some(Tok::Ident("not")) && self.peek2() != Some(Tok::LParen);
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

    /// The batch of `key`, made on first sight.
    fn batch(&mut self, key: BatchKey<'a>) -> usize {
        let facts = &mut self.facts;
        *self.batch_of.entry(key).or_insert_with(|| {
            facts.push(FactBatch::new(Parser::resolve(key.0), key.1));
            facts.len() - 1
        })
    }

    /// Append the ground atom just read to its predicate's batch.
    fn push_fact(&mut self, pred: PredKey<'a>, span: (usize, usize)) {
        let i = self.batch((pred, self.terms.len()));
        let batch = &mut self.facts[i];
        let values = self.terms.iter().map(|t| t.as_const().expect("ground"));
        batch.values.extend(values);
        batch.spans.push(span32(span));
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
        let head = self.parse_atom_terms()?;
        match self.peek() {
            Some(Tok::Dot) => {
                self.bump();
                // A fact statement.
                if self.terms.iter().any(Term::is_var) {
                    let head = self.atom_of(head);
                    return Err(self.err_here(format!(
                        "fact '{head}' is not ground (facts belong to the EDB)"
                    )));
                }
                self.push_fact(head, span);
                Ok(())
            }
            Some(Tok::Implies) => {
                self.bump();
                let head = self.atom_of(head);
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

    /// Accept an optional trailing `.`, then require the end of the input.
    fn finish(&mut self, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(Tok::Dot) {
            self.bump();
        }
        match self.peek() {
            Some(_) => Err(self.err_here(format!("trailing input after {what}"))),
            None => Ok(()),
        }
    }
}

/// Run `parse` over `src`. A lexical error wins over what the parser made
/// of the tokens before it, and over a syntax error before it: after a
/// syntax error the rest of the text is still lexed.
fn parse_with<'a, T>(
    src: &'a str,
    parse: impl FnOnce(&mut Parser<'a>) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let mut p = Parser::new(src);
    let parsed = parse(&mut p);
    if parsed.is_err() {
        p.lexer.by_ref().for_each(drop);
    }
    match p.lexer.error.take() {
        Some(e) => Err(e),
        None => parsed,
    }
}

/// Parse a full program text.
pub fn parse_program(src: &str) -> Result<ParsedProgram, ParseError> {
    parse_with(src, |p| {
        let mut out = ParsedProgram {
            program: Program::default(),
            facts: FactTable::new(),
            rule_spans: Vec::new(),
            query_span: None,
        };
        while p.peek().is_some() {
            p.parse_statement(&mut out)?;
        }
        out.facts = FactTable::from_batches(std::mem::take(&mut p.facts));
        Ok(out)
    })
}

/// Parse a single rule, e.g. `"a(X,Y) :- p(X,Z), a(Z,Y)."` (trailing dot
/// optional).
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    parse_with(src, |p| {
        let head = p.parse_atom()?;
        p.expect(Tok::Implies, "':-'")?;
        let (body, negative) = p.parse_body()?;
        p.finish("rule")?;
        Ok(Rule::with_negation(head, body, negative))
    })
}

/// Parse a single atom, e.g. `"p[nd](X, 3)"`.
pub fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    parse_with(src, |p| {
        let a = p.parse_atom()?;
        p.finish("atom")?;
        Ok(a)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adornment::Ad;

    /// Every row of `pred` in `p`'s fact table.
    fn rows(p: &ParsedProgram, pred: &str) -> Vec<Vec<Value>> {
        let pred = PredRef::new(pred);
        let batches = p.facts.batches().iter().filter(|b| b.pred == pred);
        batches
            .flat_map(FactBatch::rows)
            .map(<[Value]>::to_vec)
            .collect()
    }

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
        assert_eq!(rows(&p, "p").len(), 2);
        assert_eq!(
            rows(&p, "name")[0],
            vec![Value::sym("alice"), Value::int(1)]
        );
        assert_eq!(
            rows(&p, "label")[0],
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
        assert_eq!(rows(&p, "p")[0], vec![Value::int(-5), Value::int(3)]);
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

    /// The exact `(line, col, message)` of every error shape the parser
    /// reports. Columns count bytes; at the end of the input an error sits
    /// one column past the start of the last token; and a lexical error
    /// anywhere in the text wins over a syntax error before it.
    #[test]
    fn error_surface_is_pinned() {
        let program: &[(&str, usize, usize, &str)] = &[
            // The `lexer_failure_injection` inputs.
            ("p(\"abc).", 1, 9, "unterminated string literal"),
            ("p[n](X) :- q(X) r(X).", 1, 17, "expected '.'"),
            ("p^ (X).", 1, 5, "expected adornment letters after '^'"),
            ("p[zz](X).", 1, 3, "bad adornment 'zz' (use only n/d)"),
            ("p(X,).", 1, 6, "expected term"),
            ("p(X", 1, 4, "expected ')'"),
            ("@p(X).", 1, 1, "unexpected character '@'"),
            ("?~ q(X).", 1, 2, "expected '-' after '?'"),
            // End of input inside an atom.
            ("a(X) :- p(X", 1, 12, "expected ')'"),
            ("p(abc", 1, 4, "expected ')'"),
            ("q(X) :- ", 1, 7, "expected predicate name"),
            ("p(1)", 1, 5, "expected '.' or ':-'"),
            ("a :- b", 1, 7, "expected '.'"),
            // A lone `-`, and integers just past `i64`.
            ("p(-).", 1, 4, "bad integer literal '-'"),
            ("-", 1, 2, "bad integer literal '-'"),
            (
                "p(9223372036854775808).",
                1,
                22,
                "bad integer literal '9223372036854775808'",
            ),
            (
                "p(-9223372036854775809).",
                1,
                23,
                "bad integer literal '-9223372036854775809'",
            ),
            // Non-ground facts, after a fact holding `i64::MIN`.
            (
                "p(-9223372036854775808).\np(X).",
                2,
                6,
                "fact 'p(X)' is not ground (facts belong to the EDB)",
            ),
            (
                "p(1, X).",
                1,
                9,
                "fact 'p(1, X)' is not ground (facts belong to the EDB)",
            ),
            (
                "p(_).",
                1,
                6,
                "fact 'p(_)' is not ground (facts belong to the EDB)",
            ),
            // `not(` is an atom named `not`, in literal position too.
            ("q(X) :- not(X.", 1, 14, "expected ')'"),
            ("q(X) :- not p(X), not(.", 1, 24, "expected term"),
            // Adornments.
            ("q(X) :- p^x(X).", 1, 12, "bad adornment 'x' (use only n/d)"),
            ("q(X) :- p[nd.", 1, 13, "expected ']'"),
            ("_(1).", 1, 2, "expected predicate name"),
            // CRLF line endings: `\r` is whitespace and takes a column.
            ("p(1).\r\nq(X) :-\r\n  p(X Y).\r\n", 3, 7, "expected ')'"),
            ("p(1).\r\n  @", 2, 3, "unexpected character '@'"),
            // A `%` comment running to the end of the input.
            ("q(X) :- p(X % comment at EOF", 1, 12, "expected ')'"),
            // Non-ASCII text outside a string literal.
            ("p(é).", 1, 3, "unexpected character 'é'"),
            ("p(\"日本\", é).", 1, 13, "unexpected character 'é'"),
            // Punctuation.
            ("p(1) :~ q.", 1, 7, "expected '-' after ':'"),
            ("p:q", 1, 3, "expected '-' after ':'"),
            ("p(1) q", 1, 6, "expected '.' or ':-'"),
            ("?- q(X).\n?- r(X).", 2, 9, "multiple queries in program"),
            // A lexical error after a syntax error is the one reported.
            ("p(X Y).\n@", 2, 1, "unexpected character '@'"),
            ("p(X.\n\"abc", 2, 5, "unterminated string literal"),
        ];
        for &(src, line, col, message) in program {
            let e = parse_program(src).unwrap_err();
            assert_eq!(
                (e.line, e.col, e.message.as_str()),
                (line, col, message),
                "{src:?}"
            );
        }
        let rule: &[(&str, usize, usize, &str)] = &[
            ("q(X) :- p(X) extra", 1, 14, "trailing input after rule"),
            ("p(X) q", 1, 6, "expected ':-'"),
            ("q(X) :- ", 1, 7, "expected predicate name"),
            ("p(X)..", 1, 5, "expected ':-'"),
        ];
        for &(src, line, col, message) in rule {
            let e = parse_rule(src).unwrap_err();
            assert_eq!(
                (e.line, e.col, e.message.as_str()),
                (line, col, message),
                "{src:?}"
            );
        }
        let atom: &[(&str, usize, usize, &str)] = &[
            ("q(X) :- p(X) extra", 1, 6, "trailing input after atom"),
            ("p(X)..", 1, 6, "trailing input after atom"),
            ("p(X", 1, 4, "expected ')'"),
            ("p(é)", 1, 3, "unexpected character 'é'"),
        ];
        for &(src, line, col, message) in atom {
            let e = parse_atom(src).unwrap_err();
            assert_eq!(
                (e.line, e.col, e.message.as_str()),
                (line, col, message),
                "{src:?}"
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
        let batch = &p.facts.batches()[0];
        assert_eq!(
            (&batch.pred, &batch.spans[..]),
            (&PredRef::new("p"), &[(1, 1)][..])
        );
    }

    #[test]
    fn string_literals_decode_as_utf8() {
        let p = parse_program("p(\"café\").\nq(\"naïve\", \"日本\").").unwrap();
        assert_eq!(rows(&p, "p")[0], vec![Value::sym("café")]);
        assert_eq!(
            rows(&p, "q")[0],
            vec![Value::sym("naïve"), Value::sym("日本")]
        );
        assert_eq!(rows(&p, "p")[0][0].to_string(), "café");
        // Outside a literal, a non-ASCII character is named whole.
        let e = parse_program("p(é).").unwrap_err();
        assert_eq!(e.message, "unexpected character 'é'");
        assert_eq!((e.line, e.col), (1, 3));
    }

    /// A seeded round trip of whole files: rules, facts and the query,
    /// each rendered and the lot shuffled, with comments, CRLF or LF line
    /// endings and indentation between them, parse back to the same rules
    /// in the same order, the same query, and every fact's tuple at its
    /// statement's position — for negative integers and for symbols that
    /// print bare or must be quoted to keep their meaning (a variable, an
    /// integer, a named variable, UTF-8, and text holding a space, `,`,
    /// `)`, `.` or `%`).
    #[test]
    fn rendered_programs_and_facts_parse_back_unchanged() {
        const SYMBOLS: [&str; 11] = [
            "bob", "Alice", "a b", "42", "_x", "café", "a,b", "x)", "end.", " lead", "50%",
        ];
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for round in 0..200 {
            let term = |vars: bool, below: &mut dyn FnMut(usize) -> usize| match below(if vars {
                4
            } else {
                2
            }) {
                0 => Term::int(below(100) as i64 - 50),
                1 => Term::sym(SYMBOLS[below(SYMBOLS.len())]),
                _ => Term::var(["X", "Y"][below(2)]),
            };
            let atom = |pred: &str, vars: bool, below: &mut dyn FnMut(usize) -> usize| {
                let terms = vec![term(vars, below), term(vars, below)];
                Atom::new(PredRef::new(pred), terms)
            };
            // Statements: a rule, a fact (with its tuple) or the query.
            let mut statements: Vec<(String, Option<Atom>)> = (0..3)
                .map(|k| {
                    let head = atom(&format!("q{k}"), true, &mut below);
                    let rule = Rule::new(head, vec![atom("e", true, &mut below)]);
                    (rule.to_string(), None)
                })
                .collect();
            for _ in 0..1 + below(6) {
                let fact = atom(["f", "g"][below(2)], false, &mut below);
                statements.push((format!("{fact}."), Some(fact)));
            }
            let query = Query::new(atom("q0", true, &mut below));
            statements.push((query.to_string(), None));
            for i in (1..statements.len()).rev() {
                statements.swap(i, below(i + 1));
            }
            let eol = ["\n", "\r\n"][below(2)];
            let mut text = String::new();
            let mut line = 1;
            let mut rules = Vec::new();
            let mut facts: Vec<(Atom, (u32, u32))> = Vec::new();
            for (statement, fact) in &statements {
                if below(3) == 0 {
                    text.push_str(&format!("% a comment: p(1), \"q\" .{eol}"));
                    line += 1;
                }
                let indent = below(3);
                text.push_str(&" ".repeat(indent));
                text.push_str(statement);
                text.push_str(if below(4) == 0 { " % trailing" } else { "" });
                text.push_str(eol);
                match fact {
                    Some(f) => facts.push((f.clone(), (line, indent as u32 + 1))),
                    None if statement.starts_with("?-") => {}
                    None => rules.push(parse_rule(statement).unwrap()),
                }
                line += 1;
            }
            let parsed = parse_program(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed.program.rules, rules, "round {round}: {text}");
            assert_eq!(parsed.program.query, Some(query), "round {round}: {text}");
            for batch in parsed.facts.batches() {
                let (want_rows, want_spans): (Vec<Vec<Value>>, Vec<(u32, u32)>) = facts
                    .iter()
                    .filter(|(f, _)| f.pred == batch.pred)
                    .map(|(f, span)| (f.ground_values().unwrap(), *span))
                    .unzip();
                let rows: Vec<Vec<Value>> = batch.rows().map(<[Value]>::to_vec).collect();
                assert_eq!(rows, want_rows, "round {round}: {text}");
                assert_eq!(batch.spans, want_spans, "round {round}: {text}");
            }
            assert_eq!(parsed.facts.len(), facts.len(), "round {round}: {text}");
        }
    }

    #[test]
    fn facts_of_many_predicates_and_arities_fill_one_batch_each() {
        // Forty predicate-arity pairs, interleaved.
        let text: String = (0..200)
            .map(|i| match i % 40 {
                k if k % 2 == 0 => format!("p{}({i}).\n", k / 2),
                k => format!("p{}({i}, {i}).\n", k / 2),
            })
            .collect();
        let p = parse_program(&text).unwrap();
        assert_eq!(p.facts.batches().len(), 40);
        assert_eq!(p.facts.by_pred().count(), 20);
        for batch in p.facts.batches() {
            let k: usize = batch.pred.name.as_str()[1..].parse().unwrap();
            let kind = 2 * k + batch.arity - 1;
            let firsts: Vec<i64> = (0..200).filter(|i| i % 40 == kind as i64).collect();
            let rows: Vec<Value> = batch.rows().map(|r| r[0]).collect();
            assert_eq!(
                rows,
                firsts.iter().map(|&i| Value::int(i)).collect::<Vec<_>>()
            );
            let lines: Vec<u32> = batch.spans.iter().map(|&(line, _)| line).collect();
            assert_eq!(
                lines,
                firsts.iter().map(|&i| i as u32 + 1).collect::<Vec<_>>()
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
