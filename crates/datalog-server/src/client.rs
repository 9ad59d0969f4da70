//! A small blocking client for the line protocol, used by
//! `xdl query --connect` and the integration tests.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::Response;

/// One connection to a running server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server address (e.g. `127.0.0.1:7654`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // Request/response per line: Nagle only adds latency here.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Send one request line and read the response. A line containing
    /// `\n` or `\r` is refused with `InvalidInput` before anything is
    /// written: the server would read it as two requests, and every later
    /// call would read the previous request's response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        if line.contains(['\n', '\r']) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a request is one line: it may not contain a line break",
            ));
        }
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        Response::read_from(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )
        })
    }

    /// `FACT <atom>.`
    pub fn fact(&mut self, atom: &str) -> std::io::Result<Response> {
        self.request(&format!("FACT {atom}"))
    }

    /// `LOAD <path>`
    pub fn load(&mut self, path: &str) -> std::io::Result<Response> {
        self.request(&format!("LOAD {path}"))
    }

    /// `QUERY ?- ... .`
    pub fn query(&mut self, query: &str) -> std::io::Result<Response> {
        self.request(&format!("QUERY {query}"))
    }

    /// `STATS`
    pub fn stats(&mut self) -> std::io::Result<Response> {
        self.request("STATS")
    }

    /// `TRACE`
    pub fn trace(&mut self) -> std::io::Result<Response> {
        self.request("TRACE")
    }

    /// `METRICS` (Prometheus text exposition) or `METRICS JSON`.
    pub fn metrics(&mut self, json: bool) -> std::io::Result<Response> {
        self.request(if json { "METRICS JSON" } else { "METRICS" })
    }

    /// `SHUTDOWN`
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.request("SHUTDOWN")
    }
}
