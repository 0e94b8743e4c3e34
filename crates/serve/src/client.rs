//! The blocking HTTP client for proof-serve's JSON API — the one
//! implementation shared by the fleet coordinator, the CLI walkthroughs,
//! and the integration tests.
//!
//! One request is one [`Call`]: an optional wall-clock bound, optional extra
//! headers, and an optional [`RetryPolicy`] (deterministic seed-keyed
//! exponential backoff that honors a backpressuring server's `Retry-After`
//! hint as a floor). `Call::default()` is one unbounded attempt;
//! [`request_full`], [`get`] and [`post`] are shorthands for it. Every read
//! mirrors the server-side caps so a misbehaving peer cannot exhaust client
//! memory.

use crate::http::{bad, read_headers, read_start_line, MAX_BODY_BYTES};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A client response: status, body, and the parsed `Retry-After` seconds
/// if the server sent one.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub retry_after_s: Option<u64>,
}

/// How to send a request. Every field is optional; the default blocks
/// without a bound, sends no extra headers, and makes one attempt.
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// Bound on the connect and on every read/write. With `Some(d)`, a node
    /// that accepts the connection but never answers surfaces as a timeout
    /// error instead of hanging the caller — the fleet dispatcher uses this
    /// to tell a dead or wedged node from a slow one.
    pub timeout: Option<Duration>,
    /// Extra request headers, sent verbatim on every attempt (e.g.
    /// `X-Proof-Trace` context on fleet submissions). Names and values
    /// must be single-line.
    pub headers: Vec<(&'static str, String)>,
    /// Retry 429/503 (honoring `Retry-After` as a floor) and transport
    /// errors other than a refused connection (a refused connection means
    /// the server is gone — the caller should pick another node, not
    /// wait). A 429 that outlives `max_retries` comes back as that 429 for
    /// the caller to act on.
    pub retry: Option<RetryPolicy>,
}

impl Call {
    /// Send `method path` with an optional JSON body.
    pub fn send(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        let Some(policy) = &self.retry else {
            return self.attempt(addr, method, path, body);
        };
        let mut attempt = 0u32;
        loop {
            match self.attempt(addr, method, path, body) {
                Ok(r) if (r.status == 429 || r.status == 503) && attempt < policy.max_retries => {
                    attempt += 1;
                    let ms = policy.effective_delay_ms(attempt, r.retry_after_s);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Ok(r) => return Ok(r),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => return Err(e),
                Err(_) if attempt < policy.max_retries => {
                    attempt += 1;
                    let ms = policy.effective_delay_ms(attempt, None);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One exchange on a fresh connection. Reads are capped like the server
    /// side: headers to `MAX_HEADER_BYTES`, body to `MAX_BODY_BYTES` whether
    /// or not the server declared a length.
    fn attempt(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        let mut stream = match self.timeout {
            Some(d) => TcpStream::connect_timeout(&addr, d)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        let body = body.unwrap_or("");
        let extra: String = self
            .headers
            .iter()
            .map(|(name, value)| format!("{name}: {value}\r\n"))
            .collect();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;

        let mut reader = BufReader::new(stream);
        let (status_line, budget) = read_start_line(&mut reader, "status line")?
            .ok_or_else(|| bad("connection closed before status line"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = None;
        let mut retry_after_s = None;
        read_headers(&mut reader, budget, |name, value| {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after_s = value.trim().parse::<u64>().ok();
            }
            Ok(())
        })?;
        let mut body = String::new();
        match content_length {
            Some(n) if n > MAX_BODY_BYTES => return Err(bad("body too large")),
            Some(n) => {
                let mut buf = vec![0u8; n];
                reader.read_exact(&mut buf)?;
                body = String::from_utf8(buf).map_err(|_| bad("body is not UTF-8"))?;
            }
            None => {
                let mut limited = reader.take(MAX_BODY_BYTES as u64 + 1);
                limited.read_to_string(&mut body)?;
                if body.len() > MAX_BODY_BYTES {
                    return Err(bad("body too large"));
                }
            }
        }
        Ok(Response {
            status,
            body,
            retry_after_s,
        })
    }
}

/// One unbounded attempt: `Call::default().send(..)`.
pub fn request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    Call::default().send(addr, method, path, body)
}

/// `GET path`, returning `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    request_full(addr, "GET", path, None).map(|r| (r.status, r.body))
}

/// `POST path` with a JSON body, returning `(status, body)`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    request_full(addr, "POST", path, Some(body)).map(|r| (r.status, r.body))
}

/// Deterministic retry schedule for 429/503 backpressure: exponential
/// backoff with seed-keyed jitter. Given the same seed the delay sequence
/// is byte-for-byte reproducible, so tests and CI scripts that exercise
/// backpressure stay deterministic; a `Retry-After` hint from the server
/// raises (never lowers under) the computed delay.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = one attempt total).
    pub max_retries: u32,
    /// Base delay for the first retry; doubles each retry.
    pub base_ms: u64,
    /// Ceiling for any single delay (pre-`Retry-After`).
    pub max_delay_ms: u64,
    /// Jitter key; same seed → same delays.
    pub seed: u64,
}

impl RetryPolicy {
    pub fn new(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries: 5,
            base_ms: 25,
            max_delay_ms: 2_000,
            seed,
        }
    }

    /// The delay before retry `attempt` (1-based), ignoring `Retry-After`:
    /// `base * 2^(attempt-1)`, capped, plus 0–25% deterministic jitter.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(32))
            .min(self.max_delay_ms);
        let jitter = proof_obs::fault::mix64(self.seed ^ u64::from(attempt)) % (exp / 4 + 1);
        exp + jitter
    }

    /// The delay actually slept before retry `attempt`, honoring the
    /// server's `Retry-After` hint (seconds) as a floor.
    pub fn effective_delay_ms(&self, attempt: u32, retry_after_s: Option<u64>) -> u64 {
        let hinted = retry_after_s.map_or(0, |s| s.saturating_mul(1_000));
        self.delay_ms(attempt).max(hinted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_are_deterministic_and_exponential() {
        let p = RetryPolicy::new(42);
        let a: Vec<u64> = (1..=4).map(|i| p.delay_ms(i)).collect();
        let b: Vec<u64> = (1..=4).map(|i| p.delay_ms(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        // exponential base under the jitter: delay(i) within [base*2^(i-1), base*2^(i-1)*1.25]
        for (i, &d) in a.iter().enumerate() {
            let base = p.base_ms << i;
            assert!(d >= base && d <= base + base / 4, "attempt {i}: {d}");
        }
        let q = RetryPolicy::new(43);
        assert_ne!(
            (1..=4).map(|i| q.delay_ms(i)).collect::<Vec<_>>(),
            a,
            "different seed, different jitter"
        );
    }

    #[test]
    fn retry_after_is_a_floor_not_a_cap() {
        let p = RetryPolicy::new(7);
        assert_eq!(p.effective_delay_ms(1, Some(3)), 3_000.max(p.delay_ms(1)));
        assert_eq!(p.effective_delay_ms(1, None), p.delay_ms(1));
        // a tiny hint never lowers the computed backoff
        assert!(p.effective_delay_ms(2, Some(0)) >= p.delay_ms(2));
    }

    #[test]
    fn delay_caps_at_max() {
        let p = RetryPolicy {
            max_retries: 10,
            base_ms: 100,
            max_delay_ms: 400,
            seed: 1,
        };
        assert!(p.delay_ms(10) <= 400 + 100, "capped plus <=25% jitter");
    }

    #[test]
    fn timeout_client_gives_up_on_a_black_hole_listener() {
        // a listener that accepts but never responds: the bounded client
        // must error out instead of blocking forever
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            // keep the accepted sockets alive until the client times out
            let a = listener.accept();
            std::thread::sleep(Duration::from_millis(500));
            drop(a);
        });
        let start = std::time::Instant::now();
        let err = Call {
            timeout: Some(Duration::from_millis(100)),
            ..Call::default()
        }
        .send(addr, "GET", "/healthz", None)
        .unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        assert!(start.elapsed() < Duration::from_millis(450));
        hold.join().unwrap();
    }
}
