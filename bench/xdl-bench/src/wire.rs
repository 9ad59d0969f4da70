//! The line protocol, from the outside: one blocking connection and the
//! response header's `key=value` pairs. Written against the protocol
//! documentation, not the server crate, so the driver measures what any
//! client would.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A response header: `OK <nlines>[ key=value]...` or `ERR ...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Header {
    Ok { lines: usize, info: Info },
    Err(String),
}

/// The header pairs the driver reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Info {
    /// `cache=`: which source answered (`miss`, `hit`, `answers`,
    /// `resident`, `stale`, `stale_answers`).
    pub cache: Option<String>,
    /// `frontier=`.
    pub frontier: Option<u64>,
    /// `staleness_us=`.
    pub staleness_us: Option<u64>,
}

pub fn parse_header(line: &str) -> Result<Header, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(msg) = line.strip_prefix("ERR ") {
        return Ok(Header::Err(msg.to_string()));
    }
    let rest = line
        .strip_prefix("OK ")
        .ok_or_else(|| format!("malformed response header: {line:?}"))?;
    let mut words = rest.split_whitespace();
    let lines = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("missing payload count in header: {line:?}"))?;
    let mut info = Info::default();
    for w in words {
        match w.split_once('=') {
            Some(("cache", v)) => info.cache = Some(v.to_string()),
            Some(("frontier", v)) => info.frontier = v.parse().ok(),
            Some(("staleness_us", v)) => info.staleness_us = v.parse().ok(),
            _ => {}
        }
    }
    Ok(Header::Ok { lines, info })
}

/// One reply: the header and the payload bytes (newline-terminated lines,
/// exactly as sent).
#[derive(Debug)]
pub struct Reply {
    pub header: Header,
    pub payload: Vec<u8>,
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        matches!(self.header, Header::Ok { .. })
    }

    /// The `cache=` tag of an `OK` reply.
    pub fn cache(&self) -> Option<&str> {
        match &self.header {
            Header::Ok { info, .. } => info.cache.as_deref(),
            Header::Err(_) => None,
        }
    }

    /// `Err` with the server's message unless the reply is `OK`.
    pub fn require_ok(&self, what: &str) -> Result<(), String> {
        match &self.header {
            Header::Ok { .. } => Ok(()),
            Header::Err(msg) => Err(format!("{what}: ERR {msg}")),
        }
    }
}

/// One closed-loop connection: send a line, wait for the whole reply.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Request/response per line: Nagle would add a delayed-ACK stall
        // to every exchange.
        writer
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        let header = parse_header(&self.line)?;
        let mut payload = Vec::new();
        if let Header::Ok { lines, .. } = header {
            for _ in 0..lines {
                let n = self
                    .reader
                    .read_until(b'\n', &mut payload)
                    .map_err(|e| format!("receive: {e}"))?;
                if n == 0 {
                    return Err("connection closed mid-payload".to_string());
                }
            }
        }
        Ok(Reply { header, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_header_pairs() {
        let h = parse_header(
            "OK 7 cache=resident answers=6 frontier=306 staleness_us=0 wall_us=2770\n",
        )
        .unwrap();
        assert_eq!(
            h,
            Header::Ok {
                lines: 7,
                info: Info {
                    cache: Some("resident".into()),
                    frontier: Some(306),
                    staleness_us: Some(0),
                }
            }
        );
    }

    #[test]
    fn fact_header_has_no_cache_tag() {
        let h = parse_header("OK 0 new=true pred=mgr version=10986").unwrap();
        assert_eq!(
            h,
            Header::Ok {
                lines: 0,
                info: Info::default()
            }
        );
    }

    #[test]
    fn errors_and_garbage() {
        assert_eq!(
            parse_header("ERR stale 120 drain in progress\n").unwrap(),
            Header::Err("stale 120 drain in progress".into())
        );
        assert!(parse_header("HELLO").is_err());
        assert!(parse_header("OK many").is_err());
    }
}
