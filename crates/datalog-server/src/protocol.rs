//! The wire protocol: line-oriented text over TCP.
//!
//! Requests are single lines; the first word is the command, the rest is
//! the argument:
//!
//! ```text
//! FACT p(1, 2).          ingest one ground fact
//! LOAD path/to/file.dl   merge a file's rules and facts
//! QUERY ?- a(X, _).      evaluate a query
//! STATS                  one-line JSON server statistics
//! TRACE                  one-line JSON trace of the last query
//! METRICS [JSON]         telemetry scrape (Prometheus text, or JSON)
//! SHUTDOWN               stop the server
//! ```
//!
//! Every `QUERY` answer reflects every ingest acknowledged before the
//! query arrived. The query text may be led by one of the words `fresh`,
//! `any` or `staleness=<ms>`; the word is validated (`staleness=abc` is an
//! `ERR`) and discarded, since a fresh answer meets every bound. A word
//! that is none of these is the start of the query text.
//!
//! Responses are a header line followed by zero or more payload lines:
//!
//! ```text
//! OK <nlines>[ key=value]...
//! <payload line 1>
//! ...
//! <payload line nlines>
//! ```
//!
//! The payload is the body's bytes, sent verbatim: only `\n` ends a
//! line, so a `\r` or any other byte inside a line is part of it, and
//! `<nlines>` is the body's number of `\n`. A reader takes exactly that
//! many `\n`-terminated lines and strips nothing else. On the server the
//! body is one shared [`Arc<str>`]: a `QUERY` answer goes from the cache
//! to the socket without a copy, after a header written into a small
//! buffer.
//!
//! A `QUERY` header carries `cache=<source> answers=<n> frontier=<version>
//! wall_us=<us>`, and its payload is byte-identical to what `xdl run`
//! prints for the same program and facts. `frontier` is the store
//! version of the snapshot the query was answered at, whichever source
//! answered. Every `FACT` or `LOAD` acknowledged before the query was sent
//! is in that snapshot, so `frontier` is at least the latest such `version=`
//! and one client's frontiers never go down. On failure the
//! response is a single line
//!
//! ```text
//! ERR [<code>] <message>
//! ```
//!
//! A resource-governance failure carries a code word right after `ERR`
//! ([`ErrCode`]: `busy`, `deadline`, `budget`, `bound`, `shutdown`,
//! `internal`). Any other error is uncoded — a parse error reads
//! `ERR <origin>:<line>:<col>: <message>` — and a reader that finds no
//! known code word takes the whole line as the message. The connection
//! stays usable after any `ERR`.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Version of the protocol the module docs describe, reported by `STATS`
/// as `"proto"`.
pub const PROTOCOL_VERSION: u32 = 5;

/// Longest request line the server reads, newline included. A longer one
/// is answered with one `ERR` and the connection is closed: the server
/// never buffers without bound for a client that sends no newline.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Machine-readable error class carried by a coded `ERR` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Admission control shed the connection (the `--max-conns` cap).
    Busy,
    /// The query ran past its wall-clock deadline.
    Deadline,
    /// The query exceeded its derived-fact budget (or iteration cap).
    Budget,
    /// Bound-aware admission refused the query before evaluation: the
    /// static derivation bound, evaluated against current EDB
    /// cardinalities, exceeds the configured fact budget.
    Bound,
    /// The server is draining for shutdown.
    Shutdown,
    /// A handler panic was contained; the request failed, the server lives.
    Internal,
}

impl ErrCode {
    /// The code word on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::Busy => "busy",
            ErrCode::Deadline => "deadline",
            ErrCode::Budget => "budget",
            ErrCode::Bound => "bound",
            ErrCode::Shutdown => "shutdown",
            ErrCode::Internal => "internal",
        }
    }

    /// Parse a code word (used when reading responses).
    pub fn parse(word: &str) -> Option<ErrCode> {
        match word {
            "busy" => Some(ErrCode::Busy),
            "deadline" => Some(ErrCode::Deadline),
            "budget" => Some(ErrCode::Budget),
            "bound" => Some(ErrCode::Bound),
            "shutdown" => Some(ErrCode::Shutdown),
            "internal" => Some(ErrCode::Internal),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Strip an optional leading `QUERY` mode word (`fresh`, `any` or
/// `staleness=<ms>`). Every answer is fresh, which meets any
/// bound, so the word is validated and discarded; a word that is no mode
/// is the start of the query text. A malformed `staleness=` value is an
/// error, not query text.
fn strip_mode_word(rest: &str) -> Result<&str, String> {
    let (word, tail) = match rest.split_once(char::is_whitespace) {
        Some((w, t)) => (w, t.trim()),
        None => (rest, ""),
    };
    if word.eq_ignore_ascii_case("fresh") || word.eq_ignore_ascii_case("any") {
        return Ok(tail);
    }
    match word.strip_prefix("staleness=") {
        Some(v) => v
            .parse::<u64>()
            .map(|_| tail)
            .map_err(|_| format!("staleness takes a whole number of milliseconds, got '{v}'")),
        None => Ok(rest),
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `FACT <ground atom>.`
    Fact(String),
    /// `LOAD <path>`
    Load(String),
    /// `QUERY [fresh|staleness=<ms>|any] ?- <atom>.` (the mode word is
    /// accepted and discarded: every answer is fresh).
    Query {
        /// The query text (`?- <atom>.`).
        text: String,
    },
    /// `STATS`
    Stats,
    /// `TRACE`
    Trace,
    /// `METRICS` (Prometheus text) / `METRICS JSON` (registry JSON).
    Metrics {
        /// Emit the JSON readout instead of Prometheus text exposition.
        json: bool,
    },
    /// `SHUTDOWN`
    Shutdown,
}

impl Request {
    /// A `QUERY` of `text`.
    pub fn query(text: impl Into<String>) -> Request {
        Request::Query { text: text.into() }
    }

    /// Parse one request line. Returns an error message suitable for an
    /// `ERR` reply.
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd.to_ascii_uppercase().as_str() {
            "FACT" if !rest.is_empty() => Ok(Request::Fact(rest.to_string())),
            "FACT" => Err("FACT takes a ground atom, e.g. FACT p(1, 2).".into()),
            "LOAD" if !rest.is_empty() => Ok(Request::Load(rest.to_string())),
            "LOAD" => Err("LOAD takes a file path".into()),
            "QUERY" if !rest.is_empty() => {
                let text = strip_mode_word(rest)?;
                if text.is_empty() {
                    return Err("QUERY takes a query, e.g. QUERY ?- a(X, _).".into());
                }
                Ok(Request::query(text))
            }
            "QUERY" => Err("QUERY takes a query, e.g. QUERY ?- a(X, _).".into()),
            "STATS" => Ok(Request::Stats),
            "TRACE" => Ok(Request::Trace),
            "METRICS" if rest.is_empty() => Ok(Request::Metrics { json: false }),
            "METRICS" if rest.eq_ignore_ascii_case("json") => Ok(Request::Metrics { json: true }),
            "METRICS" => Err("METRICS takes no argument, or JSON".into()),
            "SHUTDOWN" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown command '{other}' (expected FACT, LOAD, QUERY, STATS, TRACE, METRICS \
                 or SHUTDOWN)"
            )),
        }
    }
}

/// A response: either `Ok` with key=value metadata and a payload, or `Err`
/// with a message.
///
/// The payload is one shared text — zero or more lines, each ending in
/// `\n` — so a memoized or freshly rendered answer table is handed from
/// the cache to the socket without a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Whether the header was `OK`.
    pub ok: bool,
    /// The `ERR` message (empty for `OK` responses).
    pub error: String,
    /// The machine-readable error class, when the `ERR` line carried a
    /// code word. `None` for `OK` responses and uncoded errors.
    pub code: Option<ErrCode>,
    /// `key=value` pairs from the `OK` header, in order.
    pub info: Vec<(String, String)>,
    /// The payload bytes, sent verbatim after the header.
    body: Arc<str>,
    /// The number of `\n` in `body`: the header's line count.
    lines: usize,
}

impl Response {
    /// An `OK` response.
    pub fn ok() -> Response {
        Response {
            ok: true,
            error: String::new(),
            code: None,
            info: Vec::new(),
            body: Arc::from(""),
            lines: 0,
        }
    }

    /// An uncoded `ERR` response.
    pub fn err(message: impl Into<String>) -> Response {
        Response {
            ok: false,
            error: message.into(),
            ..Response::ok()
        }
    }

    /// A coded `ERR` response (`ERR <code> <message>` on the wire).
    pub fn err_code(code: ErrCode, message: impl Into<String>) -> Response {
        Response {
            code: Some(code),
            ..Response::err(message)
        }
    }

    /// Attach a `key=value` header pair (builder style). Keys and values
    /// must not contain whitespace; values are rendered verbatim.
    pub fn with_info(mut self, key: &str, value: impl ToString) -> Response {
        self.info.push((key.to_string(), value.to_string()));
        self
    }

    /// Append payload lines from a (possibly multi-line) string, copied
    /// once into the body. Only `\n` ends a line; a text that does not
    /// end in `\n` gets one, so its last line is a whole line.
    pub fn with_payload_text(mut self, text: &str) -> Response {
        if text.is_empty() {
            return self;
        }
        let newline = if text.ends_with('\n') { "" } else { "\n" };
        self.body = if self.body.is_empty() && newline.is_empty() {
            Arc::from(text)
        } else {
            Arc::from([&*self.body, text, newline].concat())
        };
        self.lines = count_lines(&self.body);
        self
    }

    /// Make `body` the payload, shared rather than copied. `body` is empty
    /// or ends in `\n`, and `lines` is its number of `\n`.
    pub(crate) fn with_payload(mut self, body: Arc<str>, lines: usize) -> Response {
        debug_assert!(body.is_empty() || body.ends_with('\n'));
        debug_assert_eq!(lines, count_lines(&body));
        self.body = body;
        self.lines = lines;
        self
    }

    /// Look up a header value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The payload exactly as sent: each line with its `\n`.
    pub fn body(&self) -> &str {
        &self.body
    }

    /// The payload's lines, without their `\n` (a `\r` stays).
    pub fn payload_lines(&self) -> impl Iterator<Item = &str> {
        self.body.split_terminator('\n')
    }

    /// The number of payload lines (the count in the `OK` header).
    pub fn line_count(&self) -> usize {
        self.lines
    }

    /// The payload as an owned string — the inverse of
    /// [`Response::with_payload_text`] for texts that ended in `\n`.
    pub fn payload_text(&self) -> String {
        self.body.to_string()
    }

    /// Serialize the header line: `OK <nlines>[ key=value]...`, or the one
    /// `ERR` line.
    pub(crate) fn write_header(&self, w: &mut impl Write) -> std::io::Result<()> {
        if self.ok {
            write!(w, "OK {}", self.lines)?;
            for (k, v) in &self.info {
                write!(w, " {k}={v}")?;
            }
            writeln!(w)
        } else {
            // ERR is always a single line; flatten any embedded newlines.
            let msg = self.error.replace('\n', " / ");
            match self.code {
                Some(code) => writeln!(w, "ERR {code} {msg}"),
                None => writeln!(w, "ERR {msg}"),
            }
        }
    }

    /// Serialize onto a writer: the header, then the body verbatim.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        self.write_header(w)?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }

    /// Read one response from a buffered reader (header line + announced
    /// payload lines). Returns `None` at EOF before a header. A payload
    /// line ends at its `\n` and keeps every other byte, `\r` included.
    pub fn read_from(r: &mut impl BufRead) -> std::io::Result<Option<Response>> {
        let mut header = String::new();
        if r.read_line(&mut header)? == 0 {
            return Ok(None);
        }
        let header = header.trim_end_matches(['\r', '\n']);
        if let Some(msg) = header.strip_prefix("ERR ") {
            // A known code word right after ERR classifies the error;
            // anything else is an uncoded message.
            if let Some((word, rest)) = msg.split_once(' ') {
                if let Some(code) = ErrCode::parse(word) {
                    return Ok(Some(Response::err_code(code, rest)));
                }
            }
            return Ok(Some(Response::err(msg)));
        }
        let Some(rest) = header.strip_prefix("OK ") else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response header: {header:?}"),
            ));
        };
        let mut words = rest.split_whitespace();
        let n: usize = words.next().and_then(|w| w.parse().ok()).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("missing payload count in header: {header:?}"),
            )
        })?;
        let mut resp = Response::ok();
        for w in words {
            if let Some((k, v)) = w.split_once('=') {
                resp.info.push((k.to_string(), v.to_string()));
            }
        }
        let mut body = Vec::new();
        for _ in 0..n {
            if r.read_until(b'\n', &mut body)? == 0 || body.last() != Some(&b'\n') {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-payload",
                ));
            }
        }
        let body = String::from_utf8(body).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "response payload is not valid UTF-8",
            )
        })?;
        Ok(Some(resp.with_payload(body.into(), n)))
    }

    /// Header pairs as a map (for tests and stats display).
    pub fn info_map(&self) -> BTreeMap<String, String> {
        self.info.iter().cloned().collect()
    }
}

/// The number of lines in a payload text: its `\n` bytes.
pub(crate) fn count_lines(text: &str) -> usize {
    text.bytes().filter(|&b| b == b'\n').count()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn request_parsing() {
        assert_eq!(
            Request::parse("FACT p(1, 2)."),
            Ok(Request::Fact("p(1, 2).".into()))
        );
        assert_eq!(
            Request::parse("  query ?- a(X, _). "),
            Ok(Request::query("?- a(X, _)."))
        );
        assert_eq!(Request::parse("STATS"), Ok(Request::Stats));
        assert_eq!(Request::parse("shutdown"), Ok(Request::Shutdown));
        assert_eq!(
            Request::parse("METRICS"),
            Ok(Request::Metrics { json: false })
        );
        assert_eq!(
            Request::parse("metrics json"),
            Ok(Request::Metrics { json: true })
        );
        assert!(Request::parse("METRICS xml").is_err());
        assert!(Request::parse("FACT").is_err());
        assert!(Request::parse("NOPE x").is_err());
    }

    #[test]
    fn query_consistency_modes_parse_and_default_to_fresh() {
        // Every mode word is accepted and discarded: the request is the
        // same fresh query as without it.
        for line in [
            "QUERY ?- a(X).",
            "QUERY fresh ?- a(X).",
            "QUERY FRESH ?- a(X).",
            "QUERY any ?- a(X).",
            "QUERY staleness=50 ?- a(X).",
            "QUERY staleness=0 ?- a(X).",
        ] {
            assert_eq!(
                Request::parse(line),
                Ok(Request::query("?- a(X).")),
                "{line}"
            );
        }
        // Malformed bounds and mode-only lines are errors, not queries.
        assert!(Request::parse("QUERY staleness=abc ?- a(X).").is_err());
        assert!(Request::parse("QUERY staleness= ?- a(X).").is_err());
        assert!(Request::parse("QUERY any").is_err());
    }

    /// A seeded generator for the property tests here and in `wal.rs`
    /// (splitmix64).
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// `Request::parse` never panics: not on random bytes, and not on
    /// byte-level mutations of valid lines — mode words, 30-digit
    /// `staleness=` values and multi-byte whitespace included. A `QUERY`
    /// it accepts always carries non-empty, trimmed text.
    #[test]
    fn request_parse_never_panics_on_random_or_mutated_lines() {
        const VALID: &[&str] = &[
            "FACT p(1, 2).",
            "LOAD examples/data/tc.dl",
            "QUERY ?- a(X, _).",
            "QUERY fresh ?- a(X, _).",
            "QUERY any ?- a(1, Y).",
            "QUERY staleness=50 ?- a(X, X).",
            "QUERY staleness=123456789012345678901234567890 ?- a(X, _).",
            "QUERY staleness=18446744073709551615 ?- a(X, _).",
            "STATS",
            "TRACE",
            "METRICS JSON",
            "SHUTDOWN",
        ];
        // Bytes a mutation splices in: separators, mode-word letters,
        // digits, and the UTF-8 of U+0085 and U+3000 (both whitespace).
        const SPLICE: &[&[u8]] = &[
            b" ",
            b"\t",
            b"=",
            b"?",
            b"-",
            b".",
            b"(",
            b")",
            b"s",
            b"y",
            b"9",
            b"0",
            b"any",
            b"fresh",
            b"staleness=",
            b"\xc2\x85",
            b"\xe3\x80\x80",
            b"\xff",
        ];
        let check = |bytes: &[u8]| {
            let line = String::from_utf8_lossy(bytes);
            if let Ok(Request::Query { text }) = Request::parse(&line) {
                assert!(!text.is_empty() && text.trim() == text, "{line:?}");
            }
        };
        let mut rng = Rng(0x5eed_2028);
        for _ in 0..20_000 {
            let len = rng.below(48);
            let random: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            check(&random);

            let mut line = VALID[rng.below(VALID.len())].as_bytes().to_vec();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(line.len() + 1);
                match rng.below(4) {
                    0 if at < line.len() => line[at] = rng.next() as u8,
                    1 if at < line.len() => {
                        line.remove(at);
                    }
                    2 => line.truncate(at),
                    _ => {
                        let splice = SPLICE[rng.below(SPLICE.len())];
                        line.splice(at..at, splice.iter().copied());
                    }
                }
            }
            check(&line);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok()
            .with_info("cache", "hit")
            .with_info("answers", 3)
            .with_payload_text("X\n1\n2\n3\n");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&buf),
            "OK 4 cache=hit answers=3\nX\n1\n2\n3\n"
        );
        let back = Response::read_from(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.get("cache"), Some("hit"));
        assert_eq!(back.payload_text(), "X\n1\n2\n3\n");
    }

    /// The line-by-line writer the body replaced: `str::lines()` split,
    /// then one `writeln!` per line. Kept here as the wire reference for
    /// texts without `\r`.
    fn line_by_line(info: &[(&str, &str)], text: &str) -> Vec<u8> {
        let lines: Vec<&str> = text.lines().collect();
        let mut out = format!("OK {}", lines.len());
        for (k, v) in info {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
        out.into_bytes()
    }

    #[test]
    fn response_bodies_round_trip_verbatim() {
        let long: String = (0..10_000).map(|i| format!("{i}, s{i}\n")).collect();
        let bodies = [
            "",
            "true\n",
            long.as_str(),
            "X, Y\na b, c  d\n",
            "X\nab\r\n\r\nc\rd\n",
            "X\nÅngström\n日本\n\u{1F600}, é\n",
            "X\n\n\n",
        ];
        for body in bodies {
            let resp = Response::ok()
                .with_info("cache", "resident")
                .with_payload_text(body);
            assert_eq!(resp.body(), body);
            let mut wire = Vec::new();
            resp.write_to(&mut wire).unwrap();
            let (header, sent) = wire.split_at(wire.iter().position(|&b| b == b'\n').unwrap() + 1);
            assert_eq!(sent, body.as_bytes(), "{body:?}");
            let newlines = body.matches('\n').count();
            let count = format!("OK {newlines} cache=resident\n");
            assert_eq!(header, count.as_bytes(), "{body:?}");
            assert_eq!(resp.line_count(), newlines);
            let back = Response::read_from(&mut wire.as_slice()).unwrap().unwrap();
            assert_eq!(back.body(), body, "{body:?}");
            assert_eq!(back, resp);
            if !body.contains('\r') {
                assert_eq!(
                    wire,
                    line_by_line(&[("cache", "resident")], body),
                    "{body:?}"
                );
            }
        }
        // Two wire images pinned byte for byte.
        let mut wire = Vec::new();
        Response::ok()
            .with_info("answers", 2)
            .with_payload_text("X, Y\n1, a b\n2, é\n")
            .write_to(&mut wire)
            .unwrap();
        assert_eq!(wire, b"OK 3 answers=2\nX, Y\n1, a b\n2, \xc3\xa9\n");
        wire.clear();
        Response::ok()
            .with_payload_text("true\n")
            .write_to(&mut wire)
            .unwrap();
        assert_eq!(wire, b"OK 1\ntrue\n");
    }

    #[test]
    fn payload_text_without_a_final_newline_gets_one() {
        let resp = Response::ok().with_payload_text("{\"a\":1}");
        assert_eq!(resp.body(), "{\"a\":1}\n");
        assert_eq!(resp.line_count(), 1);
        let resp = resp.with_payload_text("b\nc");
        assert_eq!(resp.body(), "{\"a\":1}\nb\nc\n");
        assert_eq!(resp.line_count(), 3);
        assert_eq!(
            resp.payload_lines().collect::<Vec<_>>(),
            ["{\"a\":1}", "b", "c"]
        );
    }

    #[test]
    fn a_payload_cut_short_is_an_error() {
        for wire in [&b"OK 2\nX\n"[..], b"OK 2\nX\n1", b"OK 1\n"] {
            let err = Response::read_from(&mut &wire[..]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{wire:?}");
        }
    }

    #[test]
    fn err_roundtrip_flattens_newlines() {
        let resp = Response::err("file.dl:3:7: expected ')'\nsecond");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&buf),
            "ERR file.dl:3:7: expected ')' / second\n"
        );
        let back = Response::read_from(&mut buf.as_slice()).unwrap().unwrap();
        assert!(!back.ok);
        assert_eq!(back.error, "file.dl:3:7: expected ')' / second");
    }

    #[test]
    fn read_from_eof_is_none() {
        let empty: &[u8] = b"";
        assert_eq!(Response::read_from(&mut &*empty).unwrap(), None);
    }

    #[test]
    fn coded_err_roundtrip() {
        for (code, word) in [
            (ErrCode::Busy, "busy"),
            (ErrCode::Deadline, "deadline"),
            (ErrCode::Budget, "budget"),
            (ErrCode::Bound, "bound"),
            (ErrCode::Shutdown, "shutdown"),
            (ErrCode::Internal, "internal"),
        ] {
            let resp = Response::err_code(code, "details here");
            let mut buf = Vec::new();
            resp.write_to(&mut buf).unwrap();
            assert_eq!(
                String::from_utf8_lossy(&buf),
                format!("ERR {word} details here\n")
            );
            let back = Response::read_from(&mut buf.as_slice()).unwrap().unwrap();
            assert!(!back.ok);
            assert_eq!(back.code, Some(code));
            assert_eq!(back.error, "details here");
        }
    }

    #[test]
    fn uncoded_err_stays_backward_compatible() {
        // An error whose first word is not a code word: the whole line is
        // the message and no code is attached.
        let wire = b"ERR query:1:9: expected ')'\n";
        let back = Response::read_from(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(back.code, None);
        assert_eq!(back.error, "query:1:9: expected ')'");
    }
}
