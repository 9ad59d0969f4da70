//! Connections: one acceptor thread, and one thread per connection.
//!
//! The acceptor is the one place that admits a connection. At most
//! [`ServerConfig::max_conns`] connections are served at once; a connection
//! over the cap, or one whose thread cannot be spawned, gets one `ERR busy`
//! line and is closed. An admitted connection is served to completion on
//! its own thread, so an idle client holds a parked thread and one slot of
//! the cap, and never delays the next client.
//!
//! Connection threads are scoped to the acceptor, which joins every one of
//! them before it returns: [`Server::join`] returning means every
//! connection has drained.

use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::protocol::{ErrCode, Request, Response, MAX_REQUEST_LINE};
use crate::server::{Decrement, ServerConfig, ServerState};

/// A running server: listener address plus its acceptor thread.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: JoinHandle<()>,
}

impl Server {
    /// Bind and start the acceptor, recovering from the WAL first when one
    /// is configured. Returns once the listener is accepting (the bound
    /// address is available immediately, which is what tests and the smoke
    /// script poll for).
    pub fn spawn(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::from_config(cfg)?);
        let acceptor = {
            let state = Arc::clone(&state);
            thread::spawn(move || accept(&listener, &state))
        };
        Ok(Server {
            addr,
            state,
            acceptor,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state handle (for in-process drivers like the bench harness).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Request a draining shutdown and wake the acceptor.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
        wake_acceptor(self.addr);
    }

    /// Block until the acceptor has exited (i.e. shutdown was requested
    /// and every connection drained).
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}

/// Unblock the acceptor's `accept()` with a throwaway connection, so that
/// it looks at the shutdown flag.
fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// How long the acceptor waits after a failed `accept()` before it tries
/// again. A failure such as `EMFILE` leaves the connection queued, so an
/// immediate retry fails the same way and spins a core.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// The acceptor: admit each connection under `max_conns` onto its own
/// thread, shed the rest, and join every connection thread on shutdown.
fn accept(listener: &TcpListener, state: &ServerState) {
    thread::scope(|scope| {
        for conn in listener.incoming() {
            if state.is_shutdown() {
                return;
            }
            let Ok(stream) = conn else {
                thread::sleep(ACCEPT_RETRY);
                continue;
            };
            let cap = state.cfg.max_conns;
            if state.active_conns.fetch_add(1, Ordering::AcqRel) >= cap {
                state.active_conns.fetch_sub(1, Ordering::AcqRel);
                shed_connection(state, stream, &format!("connection shed at limit {cap}"));
                continue;
            }
            // The stream is handed over once the thread exists, so that a
            // failed spawn still holds it to shed.
            let (handoff, receive) = mpsc::channel::<TcpStream>();
            let spawned = thread::Builder::new().spawn_scoped(scope, move || {
                let _slot = Decrement(&state.active_conns);
                if let Ok(stream) = receive.recv() {
                    serve_connection(stream, state);
                }
            });
            match spawned {
                Ok(_) => {
                    let _ = handoff.send(stream);
                }
                Err(e) => {
                    state.active_conns.fetch_sub(1, Ordering::AcqRel);
                    shed_connection(state, stream, &format!("connection thread: {e}"));
                }
            }
        }
    });
}

/// Refuse a connection: count and record it, then send one coded line and
/// close. The client sees `ERR busy ...` instead of an unexplained hang in
/// the accept queue.
fn shed_connection(state: &ServerState, mut stream: TcpStream, detail: &str) {
    state.metrics.shed_conns.inc();
    state.note_limit("busy", detail);
    let _ = stream.set_nodelay(true);
    let resp = Response::err_code(ErrCode::Busy, "connection limit reached, retry later");
    let _ = write_buffered(&resp, &mut stream);
}

/// How long a connection thread waits on an idle client before it looks
/// at the shutdown flag again.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// How long a response write may make no progress before the connection
/// is closed: a connection holds one of the `max_conns` slots, and a client
/// that stopped reading must not hold it forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Serve one client until it disconnects, errors, stops reading, or the
/// server shuts down. A short read timeout lets the thread notice shutdown
/// while a client idles; a request line that arrives in pieces across
/// timeouts is kept and completed, and one longer than
/// [`MAX_REQUEST_LINE`] is answered with one `ERR` and the connection
/// closed.
fn serve_connection(stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Responses are written as one buffered chunk; without TCP_NODELAY the
    // line-per-write pattern would stall ~40ms per exchange on loopback
    // (Nagle vs. delayed ACK).
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Bytes, not a `String`: a timeout may split a multi-byte character.
    let mut line: Vec<u8> = Vec::new();
    loop {
        // `line` holds at most the limit here, so there is room for at
        // least the one byte that proves a line over-long.
        let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            // `read_until` keeps what it read before the error: the next
            // round appends the rest of the line.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if state.is_shutdown() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if line.len() > MAX_REQUEST_LINE {
            let resp = Response::err(format!(
                "request line exceeds {MAX_REQUEST_LINE} bytes; closing connection"
            ));
            let _ = write_buffered(&resp, &mut writer);
            return;
        }
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            line.clear();
            continue;
        }
        let resp = match Request::parse(trimmed) {
            Ok(req) => {
                let resp = state.handle_safely(&req);
                if req == Request::Shutdown {
                    let _ = write_buffered(&resp, &mut writer);
                    // The accepted stream's local address IS the listening
                    // address, so one throwaway connection wakes the acceptor
                    // and `join()` returns.
                    if let Ok(addr) = writer.local_addr() {
                        wake_acceptor(addr);
                    }
                    return;
                }
                resp
            }
            Err(msg) => Response::err(msg),
        };
        line.clear();
        if write_buffered(&resp, &mut writer).is_err() {
            return;
        }
        // Draining: this request got its complete response; the connection
        // closes so its thread can exit.
        if state.is_shutdown() {
            return;
        }
    }
}

/// Send a response with one vectored write: the header, rendered into a
/// small buffer, and the body straight from the shared payload. A
/// multi-line payload costs one system call, not one per line, and its
/// bytes are never copied in user space.
fn write_buffered(resp: &Response, writer: &mut impl Write) -> std::io::Result<()> {
    let mut header = Vec::with_capacity(128);
    resp.write_header(&mut header)?;
    let body = resp.body().as_bytes();
    let mut sent = 0;
    while sent < header.len() + body.len() {
        let written = match header.get(sent..) {
            Some(rest) if !rest.is_empty() => {
                writer.write_vectored(&[IoSlice::new(rest), IoSlice::new(body)])
            }
            _ => writer.write(&body[sent - header.len()..]),
        };
        match written {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket that takes at most `step` bytes per call, vectored or not.
    struct Trickle {
        out: Vec<u8>,
        step: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_still_send_the_whole_response() {
        let resp = Response::ok()
            .with_info("cache", "resident")
            .with_payload_text("X, Y\n1, a b\n2, \u{e9}\r\n");
        let mut want = Vec::new();
        resp.write_to(&mut want).unwrap();
        for step in [1, 3, 7, 25, 1 << 16] {
            let mut sock = Trickle {
                out: Vec::new(),
                step,
            };
            write_buffered(&resp, &mut sock).unwrap();
            assert_eq!(sock.out, want, "step {step}");
        }
    }
}
