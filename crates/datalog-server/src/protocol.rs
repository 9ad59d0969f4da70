//! The wire protocol: line-oriented text over TCP.
//!
//! Requests are single lines; the first word is the command, the rest is
//! the argument:
//!
//! ```text
//! FACT p(1, 2).          ingest one ground fact
//! LOAD path/to/file.dl   merge a file's rules and facts
//! QUERY ?- a(X, _).      evaluate a query (fresh by default)
//! QUERY staleness=50 ?- a(X, _).   accept answers up to 50 ms stale
//! QUERY any ?- a(X, _).  accept any published answer, however stale
//! STATS                  one-line JSON server statistics
//! TRACE                  one-line JSON trace of the last query
//! METRICS [JSON]         telemetry scrape (Prometheus text, or JSON)
//! SHUTDOWN               stop the server
//! ```
//!
//! Since **protocol version 4**, `QUERY` takes an optional leading
//! *consistency mode* word — `fresh` (the default; answers reflect every
//! acknowledged ingest), `staleness=<ms>` (answers may lag ingestion by at
//! most that many milliseconds), or `any` (serve whatever frontier is
//! published). `staleness=0` is exactly `fresh`. A word that is none of
//! these is treated as the start of the query text, so v3 clients are
//! unaffected. Query responses carry `frontier=<version>` and
//! `staleness_us=<upper bound>` header pairs; a server that cannot meet
//! the requested bound without more work than the client is willing to
//! wait for answers `ERR stale <bound_ms> <message>` (see
//! [`Response::err_stale`]).
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
//! or, on failure, a single line
//!
//! ```text
//! ERR [<code>] <message>
//! ```
//!
//! Since **protocol version 2**, resource-governance failures carry a
//! machine-readable code word right after `ERR`: `busy` (admission control
//! shed the request), `deadline` (the query ran past its wall-clock
//! deadline), `budget` (the query derived more facts than allowed),
//! `shutdown` (the server is draining), and `internal` (a handler panic
//! was contained). Parsing stays backward compatible in both directions: a
//! v1 client sees the code as the first word of the message, and a v2
//! client reading a v1 server simply finds no known code word and treats
//! the whole line as the message. Plain errors (parse errors arrive as
//! `ERR <origin>:<line>:<col>: <message>`) remain uncoded. The connection
//! stays usable after any `ERR`. `QUERY` payload lines are byte-identical
//! to what `xdl run` prints for the same program and facts.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

/// Protocol version implemented by this build. Version 2 added coded
/// `ERR` responses (`busy`/`deadline`/`budget`/`shutdown`/`internal`);
/// version 3 added the `METRICS` verb (Prometheus text exposition, or the
/// JSON registry readout with `METRICS JSON`); version 4 added `QUERY`
/// consistency modes (`fresh` | `staleness=<ms>` | `any`), the
/// `frontier=`/`staleness_us=` response headers, and the `stale` error
/// code. `STATS` reports the version as `"proto"`. All additions are
/// backward compatible: old clients never send the new words, and the
/// new `ERR stale` line reads as an ordinary uncoded message on v3.
pub const PROTOCOL_VERSION: u32 = 4;

/// Longest request line the server reads, newline included. A longer one
/// is answered with one `ERR` and the connection is closed: the server
/// never buffers without bound for a client that sends no newline.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Machine-readable error class carried by a coded `ERR` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Admission control shed the request (connection or query capacity).
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
    /// The requested staleness bound cannot be met without a synchronous
    /// catch-up the backpressure policy refused; the message leads with
    /// the best staleness bound currently available, in milliseconds
    /// (v4; see [`Response::err_stale`]).
    Stale,
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
            ErrCode::Stale => "stale",
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
            "stale" => Some(ErrCode::Stale),
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

/// The consistency mode a `QUERY` is issued under (protocol v4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Answers must reflect every acknowledged ingest — byte-identical to
    /// pre-v4 behavior. The default, and what `staleness=0` normalizes to.
    #[default]
    Fresh,
    /// Answers may lag acknowledged ingestion by at most this many
    /// milliseconds of wall time (the server reports its actual upper
    /// bound as `staleness_us=` and refuses with `ERR stale` rather than
    /// silently exceeding the budget).
    Bounded(u64),
    /// Serve whatever frontier is published, however stale.
    Any,
}

impl Consistency {
    /// Parse one mode word. `None` for anything else (the word then
    /// belongs to the query text — that is what keeps v3 clients working).
    /// A malformed `staleness=` value is an error, not query text.
    fn parse_word(word: &str) -> Option<Result<Consistency, String>> {
        if word.eq_ignore_ascii_case("fresh") {
            return Some(Ok(Consistency::Fresh));
        }
        if word.eq_ignore_ascii_case("any") {
            return Some(Ok(Consistency::Any));
        }
        if let Some(v) = word.strip_prefix("staleness=") {
            return Some(match v.parse::<u64>() {
                Ok(0) => Ok(Consistency::Fresh),
                Ok(ms) => Ok(Consistency::Bounded(ms)),
                Err(_) => Err(format!(
                    "staleness takes a whole number of milliseconds, got '{v}'"
                )),
            });
        }
        None
    }

    /// Split an optional leading mode word off a `QUERY` argument.
    fn split_leading(rest: &str) -> Result<(Consistency, &str), String> {
        let (word, tail) = match rest.split_once(char::is_whitespace) {
            Some((w, t)) => (w, t.trim()),
            None => (rest, ""),
        };
        match Consistency::parse_word(word) {
            Some(Ok(mode)) => Ok((mode, tail)),
            Some(Err(e)) => Err(e),
            None => Ok((Consistency::Fresh, rest)),
        }
    }
}

impl std::fmt::Display for Consistency {
    /// The wire word (`fresh` / `staleness=<ms>` / `any`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Consistency::Fresh => f.write_str("fresh"),
            Consistency::Bounded(ms) => write!(f, "staleness={ms}"),
            Consistency::Any => f.write_str("any"),
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `FACT <ground atom>.`
    Fact(String),
    /// `LOAD <path>`
    Load(String),
    /// `QUERY [fresh|staleness=<ms>|any] ?- <atom>.`
    Query {
        /// The query text (`?- <atom>.`).
        text: String,
        /// The requested consistency mode (v4; defaults to fresh).
        consistency: Consistency,
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
    /// A fresh-consistency `QUERY` — the pre-v4 shape.
    pub fn query(text: impl Into<String>) -> Request {
        Request::Query {
            text: text.into(),
            consistency: Consistency::Fresh,
        }
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
                let (consistency, text) = Consistency::split_leading(rest)?;
                if text.is_empty() {
                    return Err("QUERY takes a query, e.g. QUERY ?- a(X, _).".into());
                }
                Ok(Request::Query {
                    text: text.to_string(),
                    consistency,
                })
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
    /// protocol-v2 code word. `None` for `OK` responses and uncoded errors.
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

    /// A staleness refusal: `ERR stale <bound_ms> <message>` on the wire.
    /// `bound_ms` is the best upper staleness bound the server could have
    /// served at, in milliseconds — the client can retry with a looser
    /// budget or `fresh`. A v3 reader sees the whole line as an uncoded
    /// message, which still leads with the bound.
    pub fn err_stale(bound_ms: u64, message: impl std::fmt::Display) -> Response {
        Response::err_code(ErrCode::Stale, format!("{bound_ms} {message}"))
    }

    /// The staleness bound of an `ERR stale` response, in milliseconds.
    /// `None` unless this is a stale refusal with a well-formed bound.
    pub fn stale_bound_ms(&self) -> Option<u64> {
        if self.code != Some(ErrCode::Stale) {
            return None;
        }
        self.error.split_whitespace().next()?.parse().ok()
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
            // v2: a known code word right after ERR classifies the error.
            // Anything else (including v1 servers) is an uncoded message.
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
mod tests {
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
        // v4 mode words.
        assert_eq!(
            Request::parse("QUERY staleness=50 ?- a(X)."),
            Ok(Request::Query {
                text: "?- a(X).".into(),
                consistency: Consistency::Bounded(50),
            })
        );
        assert_eq!(
            Request::parse("QUERY any ?- a(X)."),
            Ok(Request::Query {
                text: "?- a(X).".into(),
                consistency: Consistency::Any,
            })
        );
        assert_eq!(
            Request::parse("QUERY FRESH ?- a(X)."),
            Ok(Request::query("?- a(X).")),
        );
        // staleness=0 normalizes to fresh: byte-identity is a mode, not a
        // special case downstream.
        assert_eq!(
            Request::parse("QUERY staleness=0 ?- a(X)."),
            Ok(Request::query("?- a(X).")),
        );
        // A word that is no mode stays part of the query (v3 compat).
        assert_eq!(
            Request::parse("QUERY ?- a(X, _)."),
            Ok(Request::query("?- a(X, _).")),
        );
        // Malformed bounds and mode-only lines are errors, not queries.
        assert!(Request::parse("QUERY staleness=abc ?- a(X).").is_err());
        assert!(Request::parse("QUERY any").is_err());
        // Display renders the wire words back.
        assert_eq!(Consistency::Bounded(7).to_string(), "staleness=7");
        assert_eq!(Consistency::Fresh.to_string(), "fresh");
        assert_eq!(Consistency::Any.to_string(), "any");
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
            (ErrCode::Stale, "stale"),
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
    fn stale_refusal_carries_its_bound_and_reads_as_text_on_v3() {
        let resp = Response::err_stale(120, "drain in progress, retry or loosen budget");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&buf),
            "ERR stale 120 drain in progress, retry or loosen budget\n"
        );
        let back = Response::read_from(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back.code, Some(ErrCode::Stale));
        assert_eq!(back.stale_bound_ms(), Some(120));
        // A v3 reader has no "stale" code word: the whole text after ERR
        // is the message, still leading with the bound.
        assert!(String::from_utf8_lossy(&buf).starts_with("ERR stale 120 "));
        // Non-stale responses never report a bound.
        assert_eq!(Response::err("stale 120 x").stale_bound_ms(), None);
    }

    #[test]
    fn uncoded_err_stays_backward_compatible() {
        // A v1-style error whose first word is not a code word: the whole
        // line is the message and no code is attached.
        let wire = b"ERR query:1:9: expected ')'\n";
        let back = Response::read_from(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(back.code, None);
        assert_eq!(back.error, "query:1:9: expected ')'");
        // A coded error read by a v1 client is still a readable message —
        // the code word leads the text (nothing to assert mechanically
        // beyond the wire shape, covered above).
    }
}
