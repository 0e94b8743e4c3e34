//! Minimal HTTP/1.1 server support over `std::net`: the capped request
//! parser, the one response writer, and [`Daemon`] — the shell both
//! proof-serve and the fleet coordinator mount their route tables on. The
//! matching blocking client lives in [`crate::client`] and reuses the same
//! capped readers.
//!
//! Every read from the peer is capped (`MAX_HEADER_BYTES` for the request
//! line + headers, `MAX_BODY_BYTES` for bodies) **while reading**, not
//! after: an earlier version buffered an arbitrarily long request line via
//! `read_line` before checking any limit, which let a single connection
//! exhaust memory.

use serde_json::json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request. Bodies are read eagerly (Content-Length only; no
/// chunked encoding — every client this daemon targets sends sized bodies).
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (no '?'), empty if absent.
    pub query: String,
    pub body: String,
    /// Parsed `X-Proof-Trace: <trace>:<span>` header, if present and
    /// well-formed: the caller's (trace id, parent span id) context that
    /// dispatched work should adopt. Malformed values are ignored — trace
    /// context is observability metadata and must never fail a request.
    pub trace_parent: Option<(u64, u64)>,
    /// The connected client, when the socket still knows it.
    pub peer: Option<SocketAddr>,
}

impl Request {
    /// The non-empty `/`-separated segments of the path, for matching.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Parse an `X-Proof-Trace` header value: two decimal u64s as
/// `<trace>:<span>`, trace non-zero.
pub fn parse_trace_header(value: &str) -> Option<(u64, u64)> {
    let (trace, span) = value.trim().split_once(':')?;
    let trace: u64 = trace.trim().parse().ok()?;
    let span: u64 = span.trim().parse().ok()?;
    if trace == 0 {
        return None;
    }
    Some((trace, span))
}

/// Read one `\n`-terminated line into `buf`, consuming at most
/// `budget` bytes. Returns the number of bytes consumed; `Ok(0)` means
/// clean EOF before any byte. Errors as soon as the budget is exhausted
/// without buffering the oversized line.
pub(crate) fn read_line_capped<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    budget: usize,
) -> std::io::Result<usize> {
    let mut consumed = 0usize;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(consumed); // EOF
        }
        let limit = available.len().min(budget - consumed + 1);
        match available[..limit].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if consumed + pos + 1 > budget {
                    return Err(bad("line too long"));
                }
                buf.extend_from_slice(&available[..=pos]);
                reader.consume(pos + 1);
                return Ok(consumed + pos + 1);
            }
            None => {
                let take = available.len();
                if consumed + take > budget {
                    return Err(bad("line too long"));
                }
                buf.extend_from_slice(&available[..take]);
                reader.consume(take);
                consumed += take;
            }
        }
    }
}

/// Read the start line of a message (request or status line) within the
/// header budget. `Ok(None)` means clean EOF before any byte; otherwise
/// returns the line and the budget left for the headers.
pub(crate) fn read_start_line<R: BufRead>(
    reader: &mut R,
    what: &str,
) -> std::io::Result<Option<(String, usize)>> {
    let mut raw = Vec::new();
    let n = read_line_capped(reader, &mut raw, MAX_HEADER_BYTES)?;
    if n == 0 {
        return Ok(None);
    }
    let line = String::from_utf8(raw).map_err(|_| bad(&format!("{what} is not UTF-8")))?;
    Ok(Some((line, MAX_HEADER_BYTES - n)))
}

/// Read `Name: value` header lines up to the blank line within `budget`,
/// handing each to `on_header`.
pub(crate) fn read_headers<R: BufRead>(
    reader: &mut R,
    mut budget: usize,
    mut on_header: impl FnMut(&str, &str) -> std::io::Result<()>,
) -> std::io::Result<()> {
    loop {
        let mut raw = Vec::new();
        let n = read_line_capped(reader, &mut raw, budget)?;
        if n == 0 {
            return Err(bad("connection closed inside headers"));
        }
        budget -= n;
        let line = String::from_utf8(raw).map_err(|_| bad("header is not UTF-8"))?;
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(());
        }
        if let Some((name, value)) = line.split_once(':') {
            on_header(name, value)?;
        }
    }
}

/// Read one request from the stream. `Ok(None)` means the peer closed the
/// connection before sending anything.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let peer = stream.peer_addr().ok();
    let mut reader = BufReader::new(stream);
    let Some((request_line, budget)) = read_start_line(&mut reader, "request line")? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Err(bad("malformed request line")),
    };
    let mut content_length = 0usize;
    let mut trace_parent = None;
    read_headers(&mut reader, budget, |name, value| {
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| bad("bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("x-proof-trace") {
            trace_parent = parse_trace_header(value);
        }
        Ok(())
    })?;
    if content_length > MAX_BODY_BYTES {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        trace_parent,
        peer,
    }))
}

pub(crate) fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The value of the first `key=...` param in a raw query string (the
/// [`Request::query`] field: no leading '?', params separated by '&').
/// `None` when the key is absent; a valueless `key` (no '=') is `None` too.
pub fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// True when the query string carries `key=value` as one of its
/// `&`-separated params, in any position. Both daemons route format
/// selectors (`format=prometheus`, `format=spans`) and mode selectors
/// (`mode=async`) through this, so `?format=prometheus&x=1` works the same
/// everywhere — an earlier coordinator build compared the whole raw query
/// against `format=prometheus` and silently fell back to JSON when any
/// other param rode along.
pub fn query_has(query: &str, key: &str, value: &str) -> bool {
    query_param(query, key) == Some(value)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// One response: what every route returns and the shell writes. Every
/// connection carries a single request (`Connection: close`), which keeps
/// lifecycle handling trivial.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub content_type: &'static str,
    /// `Retry-After` seconds, sent with 429/503 backpressure replies.
    pub retry_after_s: Option<u64>,
    pub body: String,
}

impl Reply {
    /// A JSON reply.
    pub fn json(status: u16, body: impl Into<String>) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            retry_after_s: None,
            body: body.into(),
        }
    }

    /// The shared error shape of both daemons: `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Reply {
        Reply::json(status, json!({ "error": msg }).to_string())
    }

    /// A Prometheus text exposition (format 0.0.4).
    pub fn prometheus(body: String) -> Reply {
        Reply {
            content_type: "text/plain; version=0.0.4",
            ..Reply::json(200, body)
        }
    }

    /// This reply with a `Retry-After` hint.
    pub fn retry_after(self, seconds: u64) -> Reply {
        Reply {
            retry_after_s: Some(seconds),
            ..self
        }
    }
}

/// Write `reply` and flush.
fn write_reply(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    let retry = match reply.retry_after_s {
        Some(s) => format!("Retry-After: {s}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
        reply.status,
        reason(reply.status),
        reply.content_type,
        reply.body.len(),
        retry
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(reply.body.as_bytes())?;
    stream.flush()
}

fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A route table: maps one parsed request to its reply.
type Routes = dyn Fn(&Request) -> Reply + Send + Sync;

/// The stop flag plus the live connections, each under an id with a
/// read-side handle kept so a stop can unblock a handler stuck reading
/// from a stalled client.
#[derive(Default)]
struct Gate {
    stopping: AtomicBool,
    next_id: AtomicU64,
    live: Mutex<HashMap<u64, Option<TcpStream>>>,
    idle: Condvar,
}

/// One registered connection. Dropping it unregisters the connection —
/// also when its handler panics or never starts — so a drain never waits
/// on a handler that is gone.
struct Live(Arc<Gate>, u64);

impl Drop for Live {
    fn drop(&mut self) {
        let mut live = lock_clean(&self.0.live);
        live.remove(&self.1);
        if live.is_empty() {
            self.0.idle.notify_all();
        }
    }
}

impl Gate {
    fn enter(self: &Arc<Self>, stream: &TcpStream) -> Live {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        lock_clean(&self.live).insert(id, stream.try_clone().ok());
        Live(Arc::clone(self), id)
    }

    /// End the read side of every live connection, then wait until every
    /// handler has finished. A handler blocked mid-read sees EOF and
    /// answers 400; a request already read still gets its full reply.
    fn drain(&self) {
        let mut live = lock_clean(&self.live);
        for stream in live.values().flatten() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        while !live.is_empty() {
            live = self.idle.wait(live).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The daemon shell: an accept loop on its own thread, one thread per
/// connection, each reading one request with the capped parser and writing
/// the route table's [`Reply`]. Parse failures are answered here with the
/// shared 400 error body. [`Daemon::stop`] (or drop) stops accepting and
/// drains every live connection before it returns.
pub struct Daemon {
    addr: SocketAddr,
    gate: Arc<Gate>,
    acceptor: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Serve `routes` on `listener`; threads are named `<name>-acceptor`
    /// and `<name>-conn`.
    pub fn serve<F>(listener: TcpListener, name: &str, routes: F) -> std::io::Result<Daemon>
    where
        F: Fn(&Request) -> Reply + Send + Sync + 'static,
    {
        let addr = listener.local_addr()?;
        let gate = Arc::new(Gate::default());
        let acceptor = {
            let gate = Arc::clone(&gate);
            let routes: Arc<Routes> = Arc::new(routes);
            let conn_name = format!("{name}-conn");
            std::thread::Builder::new()
                .name(format!("{name}-acceptor"))
                .spawn(move || accept_loop(&listener, &gate, &routes, &conn_name))?
        };
        Ok(Daemon {
            addr,
            gate,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, join the acceptor, then drain live connections.
    /// Idempotent.
    pub fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.gate.stopping.store(true, Ordering::SeqCst);
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
        self.gate.drain();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, gate: &Arc<Gate>, routes: &Arc<Routes>, conn_name: &str) {
    for stream in listener.incoming() {
        if gate.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let live = gate.enter(&stream);
        let routes = Arc::clone(routes);
        // a failed spawn drops the closure, and with it `live`
        let _ = std::thread::Builder::new()
            .name(conn_name.to_string())
            .spawn(move || {
                let _live = live;
                serve_connection(stream, &*routes);
            });
    }
}

fn serve_connection(mut stream: TcpStream, routes: &Routes) {
    let reply = match read_request(&mut stream) {
        Ok(Some(request)) => routes(&request),
        Ok(None) => return,
        Err(e) => {
            // the access-log event proof-serve writes for every routed
            // request, for the requests that never reach a route
            let peer = stream
                .peer_addr()
                .map_or("unknown".to_string(), |a| a.to_string());
            proof_obs::event(
                proof_obs::Level::Info,
                "proof_serve::http",
                "- - -> 400",
                vec![
                    ("peer", proof_obs::FieldValue::Str(peer)),
                    ("status", proof_obs::FieldValue::U64(400)),
                ],
            );
            Reply::error(400, &e.to_string())
        }
    };
    let _ = write_reply(&mut stream, &reply);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn capped_line_reads_short_lines() {
        let mut r = Cursor::new(b"GET / HTTP/1.1\r\nrest".to_vec());
        let mut buf = Vec::new();
        let n = read_line_capped(&mut r, &mut buf, 64).unwrap();
        assert_eq!(n, 16);
        assert_eq!(buf, b"GET / HTTP/1.1\r\n");
    }

    #[test]
    fn capped_line_rejects_oversized_line_without_buffering_it() {
        let big = vec![b'a'; 1024];
        let mut r = Cursor::new(big);
        let mut buf = Vec::new();
        let err = read_line_capped(&mut r, &mut buf, 100).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(buf.len() <= 100, "must not buffer past the cap");
    }

    #[test]
    fn capped_line_eof_is_zero() {
        let mut r = Cursor::new(Vec::new());
        let mut buf = Vec::new();
        assert_eq!(read_line_capped(&mut r, &mut buf, 16).unwrap(), 0);
    }

    #[test]
    fn query_params_match_in_any_position() {
        assert!(query_has("format=prometheus", "format", "prometheus"));
        assert!(query_has("format=prometheus&x=1", "format", "prometheus"));
        assert!(query_has("x=1&format=prometheus", "format", "prometheus"));
        assert!(!query_has("format=spans", "format", "prometheus"));
        assert!(!query_has("", "format", "prometheus"));
        // valueless or prefix-colliding keys never match
        assert!(!query_has("format", "format", "prometheus"));
        assert!(!query_has("xformat=prometheus", "format", "prometheus"));
        assert_eq!(query_param("since=12&format=spans", "since"), Some("12"));
        assert_eq!(query_param("since=12", "format"), None);
        assert_eq!(query_param("since", "since"), None);
    }

    #[test]
    fn trace_header_parses_or_is_ignored() {
        assert_eq!(parse_trace_header("42:7"), Some((42, 7)));
        assert_eq!(parse_trace_header(" 42 : 7 "), Some((42, 7)));
        assert_eq!(parse_trace_header("42:0"), Some((42, 0)));
        // malformed or zero-trace values are dropped, never an error
        assert_eq!(parse_trace_header("0:7"), None);
        assert_eq!(parse_trace_header("42"), None);
        assert_eq!(parse_trace_header("a:b"), None);
        assert_eq!(parse_trace_header(""), None);
    }

    #[test]
    fn stop_is_not_blocked_by_a_panicking_route() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut daemon = Daemon::serve(listener, "panicky", |_: &Request| -> Reply {
            panic!("route bug")
        })
        .unwrap();
        // the handler dies without replying
        assert!(crate::client::get(daemon.addr(), "/x").is_err());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            daemon.stop();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(2))
            .expect("stop waited on a handler that panicked");
    }
}
