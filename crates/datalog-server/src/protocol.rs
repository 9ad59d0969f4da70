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
//! A `QUERY` header carries `cache=<source> answers=<n> frontier=<version>
//! wall_us=<us>`, and its payload lines are byte-identical to what
//! `xdl run` prints for the same program and facts. `frontier` is the store
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

/// A response: either `Ok` with key=value metadata and payload lines, or
/// `Err` with a message.
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
    /// Payload lines (without trailing newlines).
    pub payload: Vec<String>,
}

impl Response {
    /// An `OK` response.
    pub fn ok() -> Response {
        Response {
            ok: true,
            error: String::new(),
            code: None,
            info: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// An uncoded `ERR` response.
    pub fn err(message: impl Into<String>) -> Response {
        Response {
            ok: false,
            error: message.into(),
            code: None,
            info: Vec::new(),
            payload: Vec::new(),
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

    /// Attach payload lines from a (possibly multi-line) string. A trailing
    /// newline does not produce an empty final line.
    pub fn with_payload_text(mut self, text: &str) -> Response {
        self.payload.extend(text.lines().map(|l| l.to_string()));
        self
    }

    /// Look up a header value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The payload re-joined with newlines, with a trailing newline when
    /// non-empty — the inverse of [`Response::with_payload_text`] for texts
    /// that ended in `\n`.
    pub fn payload_text(&self) -> String {
        if self.payload.is_empty() {
            String::new()
        } else {
            let mut s = self.payload.join("\n");
            s.push('\n');
            s
        }
    }

    /// Serialize onto a writer (header + payload lines).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        if self.ok {
            write!(w, "OK {}", self.payload.len())?;
            for (k, v) in &self.info {
                write!(w, " {k}={v}")?;
            }
            writeln!(w)?;
            for line in &self.payload {
                writeln!(w, "{line}")?;
            }
        } else {
            // ERR is always a single line; flatten any embedded newlines.
            let msg = self.error.replace('\n', " / ");
            match self.code {
                Some(code) => writeln!(w, "ERR {code} {msg}")?,
                None => writeln!(w, "ERR {msg}")?,
            }
        }
        w.flush()
    }

    /// Read one response from a buffered reader (header line + announced
    /// payload lines). Returns `None` at EOF before a header.
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
        for _ in 0..n {
            let mut line = String::new();
            if r.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-payload",
                ));
            }
            resp.payload
                .push(line.trim_end_matches(['\r', '\n']).to_string());
        }
        Ok(Some(resp))
    }

    /// Header pairs as a map (for tests and stats display).
    pub fn info_map(&self) -> BTreeMap<String, String> {
        self.info.iter().cloned().collect()
    }
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
