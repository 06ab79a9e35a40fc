//! A thin embedded HTTP/1.1 server over [`std::net::TcpListener`].
//!
//! The live monitoring service (see `causeway_analyzer::live`) needs a
//! status/scrape endpoint, and the vendored-deps policy (`DESIGN.md` §6)
//! rules out `hyper`-class frameworks — so this module hand-rolls the tiny
//! slice of HTTP that a Prometheus scraper, `curl`, and a browser actually
//! need: parse a `GET`/`HEAD`/`POST` request line plus its query string,
//! read a size-capped `Content-Length` body ([`MAX_BODY_BYTES`], rejected
//! 413 beyond it — the incident-forensics eliminate endpoint takes small
//! JSON commands), route by exact path, and write one `Connection: close`
//! response.
//!
//! Deliberate non-goals: keep-alive, chunked encoding, TLS. Every request
//! is one short-lived connection, which keeps the server loop trivially
//! correct and the per-request overhead measurable (the perf ledger's
//! `httpd.roundtrip_us.*` rows).
//!
//! Connection threads are reused. The accept thread hands each accepted
//! stream to the connection thread that parked last, and spawns a thread
//! only when none is parked. A thread that has answered parks for the next
//! stream before its stream closes, so a client that connects again as
//! soon as it has read its response finds it waiting. At most
//! [`MAX_PARKED`] park at once and the rest exit, so a burst leaves no
//! pool behind. Shutdown ends the parked threads. The accept thread stays
//! (unlike the ORB's request threads, which wait on their inbox
//! themselves): a thread waiting on a shared channel or listener could only
//! wait again after closing its stream, so a sequential client's next
//! connection could reach another thread, and the kernel wakes blocked
//! `accept` callers oldest first.
//!
//! The `causeway_httpd_*` series go to the registry the server was given
//! ([`HttpServer::bind_with_limits`]); the other constructors give each
//! server a fresh registry of its own.
//!
//! # Example
//!
//! ```
//! use causeway_core::httpd::{HttpServer, Response};
//! let server = HttpServer::bind(
//!     "127.0.0.1:0",
//!     vec![("/ping".to_owned(), Box::new(|_req| Response::text(200, "pong")))],
//! )
//! .expect("bind");
//! let addr = server.local_addr();
//! // ... point a scraper at http://{addr}/ping ...
//! server.shutdown();
//! ```

use crate::engine::MAX_PARKED;
use crate::metrics::{Counter, MetricsRegistry};
use crate::sync::Mutex;
use crossbeam::channel::{Receiver, Sender, bounded};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest accepted request line (and single header line), bytes. Anything
/// longer gets a 400 — a scrape endpoint has no business receiving 8 KiB
/// paths, and unbounded `read_line` buffering would hand any client a
/// memory lever.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Total header bytes drained per request before the connection is
/// rejected with a 400.
const MAX_HEADER_BYTES: u64 = 32 * 1024;

/// Largest accepted request body, bytes. A `Content-Length` beyond this is
/// answered 413 without reading the body — the only consumers are small
/// JSON command endpoints, and an unbounded read would hand any client the
/// same memory lever the line/header caps close.
pub const MAX_BODY_BYTES: u64 = 64 * 1024;

/// Default cap on concurrently served connections. Each connection being
/// served has a thread of its own; without a cap, a connection flood (or a
/// scraper fleet gone wrong) turns into unbounded thread creation.
/// Connections over the cap are answered `503` on the accept thread and
/// closed.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Default per-read socket timeout of [`HttpServer::bind`].
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed request: method, decoded path, query parameters, and body.
#[derive(Debug, Clone)]
pub struct Request {
    /// The HTTP method (`GET`, `HEAD`, `POST`), uppercase.
    pub method: String,
    /// The path component, without the query string.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty unless the client sent `Content-Length`;
    /// at most [`MAX_BODY_BYTES`]).
    pub body: Vec<u8>,
}

impl Request {
    /// The first query parameter named `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One response: status code, content type, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: String,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain; charset=utf-8` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_owned(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json".to_owned(),
            body: body.into().into_bytes(),
        }
    }

    /// The stock `404 Not Found` response.
    pub fn not_found() -> Response {
        Response::text(404, "not found\n")
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// A route handler. Handlers run on the per-connection thread and must be
/// `Send + Sync`; they typically lock a shared snapshot source.
pub type Handler = Box<dyn Fn(&Request) -> Response + Send + Sync>;

struct ServerShared {
    routes: Vec<(String, Handler)>,
    stop: AtomicBool,
    read_timeout: Duration,
    /// Concurrently served connections; bounded by `max_connections`.
    active: AtomicUsize,
    max_connections: usize,
    /// Hand-off senders of the connection threads parked for reuse, last
    /// parked on top; `None` once the server has stopped. Dropping a sender
    /// ends its thread.
    parked: Mutex<Option<Vec<Sender<Conn>>>>,
    /// Requests this server answered, for [`HttpServer::requests_served`].
    served: AtomicU64,
    requests: Counter,
    errors: Counter,
    over_capacity: Counter,
}

/// Holds one slot of the connection cap; releases it on drop, so a
/// connection thread that panics still frees its slot.
struct ConnPermit {
    shared: Arc<ServerShared>,
}

/// An accepted stream with its slot of the connection cap. Dropping it
/// frees the slot before the stream closes, so a client that has read its
/// whole response never finds its own slot still taken.
struct Conn {
    permit: ConnPermit,
    stream: TcpStream,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The embedded HTTP server: an accept thread plus one thread per
/// connection being served, reused across connections (module docs).
/// Routes are matched by exact path; anything else is 404.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerShared")
            .field("routes", &self.routes.iter().map(|(p, _)| p).collect::<Vec<_>>())
            .finish()
    }
}

impl ServerShared {
    /// Hands `conn` to the connection thread parked last, skipping threads
    /// gone since they parked. Gives `conn` back when no thread took it
    /// (the caller spawns one).
    fn hand_off(&self, mut conn: Conn) -> Result<(), Conn> {
        loop {
            let Some(parked) = self.parked.lock().as_mut().and_then(Vec::pop) else {
                return Err(conn);
            };
            match parked.send(conn) {
                Ok(()) => return Ok(()),
                Err(returned) => conn = returned.0,
            }
        }
    }

    /// Parks the calling connection thread: the channel its next stream
    /// arrives on, or `None` when the server has stopped or [`MAX_PARKED`]
    /// threads already wait (the thread exits). Shutdown and park take the
    /// same lock, so a thread that finishes after the stop never parks.
    fn park(&self) -> Option<Receiver<Conn>> {
        let mut parked = self.parked.lock();
        let stack = parked.as_mut().filter(|stack| stack.len() < MAX_PARKED)?;
        let (handoff, next) = bounded(1);
        stack.push(handoff);
        Some(next)
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, port `0` for ephemeral) and
    /// starts serving `routes` in the background.
    pub fn bind(addr: &str, routes: Vec<(String, Handler)>) -> std::io::Result<HttpServer> {
        HttpServer::bind_with_read_timeout(addr, routes, DEFAULT_READ_TIMEOUT)
    }

    /// [`HttpServer::bind`] with an explicit per-read socket timeout — the
    /// bound on how long a slow or stalled client can pin a connection
    /// thread between bytes.
    pub fn bind_with_read_timeout(
        addr: &str,
        routes: Vec<(String, Handler)>,
        read_timeout: Duration,
    ) -> std::io::Result<HttpServer> {
        HttpServer::bind_with_limits(
            addr,
            routes,
            read_timeout,
            DEFAULT_MAX_CONNECTIONS,
            &MetricsRegistry::new(),
        )
    }

    /// [`HttpServer::bind_with_read_timeout`] with an explicit connection
    /// cap: at most `max_connections` connections are served concurrently
    /// (one thread each); any further accept is answered `503` inline on
    /// the accept thread, counted in
    /// `causeway_httpd_over_capacity_total`, and closed. A cap of 0 is
    /// treated as 1 — a server that can serve nothing would be useless.
    /// The `causeway_httpd_*` series go to `registry`.
    pub fn bind_with_limits(
        addr: &str,
        routes: Vec<(String, Handler)>,
        read_timeout: Duration,
        max_connections: usize,
        registry: &MetricsRegistry,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            routes,
            stop: AtomicBool::new(false),
            read_timeout,
            active: AtomicUsize::new(0),
            max_connections: max_connections.max(1),
            parked: Mutex::new(Some(Vec::new())),
            served: AtomicU64::new(0),
            requests: registry.counter(
                "causeway_httpd_requests_total",
                "HTTP requests served by the embedded status endpoint",
            ),
            errors: registry.counter(
                "causeway_httpd_errors_total",
                "HTTP connections dropped before a response could be written",
            ),
            over_capacity: registry.counter(
                "causeway_httpd_over_capacity_total",
                "HTTP connections answered 503 because the connection cap was reached",
            ),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("causeway-httpd".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else {
                        continue;
                    };
                    // Shed over the cap on the accept thread: a bounded
                    // write with a short timeout, never a new thread.
                    if accept_shared.active.load(Ordering::Acquire)
                        >= accept_shared.max_connections
                    {
                        accept_shared.over_capacity.inc();
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                        write_response(
                            &stream,
                            &Response::text(503, "connection capacity reached\n"),
                            false,
                        );
                        continue;
                    }
                    accept_shared.active.fetch_add(1, Ordering::AcqRel);
                    let conn = Conn {
                        permit: ConnPermit { shared: Arc::clone(&accept_shared) },
                        stream,
                    };
                    // A parked thread takes it if one is waiting.
                    if let Err(conn) = accept_shared.hand_off(conn) {
                        // If the spawn fails the closure (and the permit)
                        // is dropped right here, releasing the slot.
                        let _ = std::thread::Builder::new()
                            .name("causeway-httpd-conn".to_owned())
                            .spawn(move || connection_thread(conn));
                    }
                }
            })?;
        Ok(HttpServer { addr: local, shared, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests this server answered since bind.
    pub fn requests_served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Stops accepting connections, joins the accept thread and ends the
    /// parked connection threads. In-flight connection threads finish
    /// their single response on their own, then exit.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocking accept with a throw-away connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Ends every parked thread, and keeps a thread still serving from
        // parking after this.
        *self.shared.parked.lock() = None;
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// One connection thread: serves `conn`, then parks for the next stream
/// until shutdown, or exits when [`MAX_PARKED`] threads already wait.
fn connection_thread(mut conn: Conn) {
    loop {
        let shared = &conn.permit.shared;
        serve_connection(&conn.stream, shared);
        // Park before the stream closes: a client that has seen the end
        // of its response and connects again finds this thread waiting.
        // Shutting down (or dropping the server) disconnects `next`.
        let Some(next) = shared.park() else {
            return;
        };
        drop(conn);
        match next.recv() {
            Ok(handed) => conn = handed,
            Err(_) => return,
        }
    }
}

/// Reads one request from `stream` and writes its response. The caller
/// closes the stream.
fn serve_connection(stream: &TcpStream, shared: &ServerShared) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            shared.errors.inc();
            return;
        }
    });
    // A size-capped read: `read_line` alone would buffer an unbounded line.
    let mut request_line = String::new();
    match (&mut reader).take(MAX_LINE_BYTES).read_line(&mut request_line) {
        Err(_) => {
            // Stalled or broken mid-line (the read timeout fired): answer
            // what we can and close — never leave the thread hanging.
            reject(stream, reader, shared, "incomplete request\n");
            return;
        }
        Ok(0) => {
            // Closed without sending a byte (port probe, shutdown waker).
            return;
        }
        Ok(_) if !request_line.ends_with('\n') && request_line.len() as u64 >= MAX_LINE_BYTES => {
            reject(stream, reader, shared, "request line too long\n");
            return;
        }
        Ok(_) => {}
    }
    // Drain headers until the blank line. The only header this server acts
    // on is `Content-Length` (for POST bodies); the loop still bounds how
    // much a client may send before the response.
    let mut header_bytes = 0u64;
    let mut content_length: Option<u64> = None;
    let mut bad_content_length = false;
    loop {
        let mut header = String::new();
        match (&mut reader).take(MAX_LINE_BYTES).read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(n) => {
                header_bytes += n as u64;
                let unterminated =
                    !header.ends_with('\n') && header.len() as u64 >= MAX_LINE_BYTES;
                if header_bytes > MAX_HEADER_BYTES || unterminated {
                    reject(stream, reader, shared, "headers too large\n");
                    return;
                }
                if let Some((name, value)) = header.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        match value.trim().parse::<u64>() {
                            Ok(len) => content_length = Some(len),
                            Err(_) => bad_content_length = true,
                        }
                    }
                }
            }
            Err(_) => {
                reject(stream, reader, shared, "incomplete request\n");
                return;
            }
        }
    }
    if bad_content_length {
        reject(stream, reader, shared, "bad Content-Length\n");
        return;
    }
    // Read the declared body before dispatch, size-capped like the header
    // limits: an oversized declaration is refused outright (never buffered),
    // a short read (client stalled or lied) is a 400.
    let mut body = Vec::new();
    if let Some(len) = content_length {
        if len > MAX_BODY_BYTES {
            reject_with(stream, reader, shared, 413, "request body too large\n");
            return;
        }
        body.resize(len as usize, 0);
        if reader.read_exact(&mut body).is_err() {
            reject(stream, reader, shared, "incomplete request body\n");
            return;
        }
    }

    let response = match parse_request_line(&request_line) {
        Some(mut request)
            if matches!(request.method.as_str(), "GET" | "HEAD" | "POST") =>
        {
            request.body = body;
            shared.requests.inc();
            shared.served.fetch_add(1, Ordering::Relaxed);
            let handler = shared
                .routes
                .iter()
                .find(|(path, _)| *path == request.path)
                .map(|(_, handler)| handler);
            match handler {
                Some(handler) => handler(&request),
                None => Response::not_found(),
            }
        }
        Some(_) => Response::text(405, "only GET, HEAD and POST are served here\n"),
        None => Response::text(400, "malformed request line\n"),
    };
    write_response(stream, &response, request_line.starts_with("HEAD "));
}

/// Answers a malformed/oversized request with a 400 and drains a bounded
/// amount of whatever the client is still sending, so closing the socket
/// does not RST the response out from under a well-meaning-but-sloppy
/// client.
fn reject(stream: &TcpStream, reader: BufReader<TcpStream>, shared: &ServerShared, why: &str) {
    reject_with(stream, reader, shared, 400, why);
}

/// [`reject`] with an explicit status (400 for malformed, 413 for an
/// oversized declared body).
fn reject_with(
    stream: &TcpStream,
    mut reader: BufReader<TcpStream>,
    shared: &ServerShared,
    status: u16,
    why: &str,
) {
    shared.errors.inc();
    write_response(stream, &Response::text(status, why), false);
    // Drain on the server's configured patience, capped so a generous
    // production read_timeout cannot pin a rejected connection for seconds.
    let drain_timeout = shared.read_timeout.min(Duration::from_millis(250));
    let _ = reader.get_ref().set_read_timeout(Some(drain_timeout));
    let mut scrap = [0u8; 4096];
    for _ in 0..16 {
        match reader.read(&mut scrap) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
}

fn write_response(mut stream: &TcpStream, response: &Response, head_only: bool) {
    // Status line, headers and body leave in one write: one syscall and
    // one loopback segment per response instead of two.
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
    )
    .into_bytes();
    if !head_only {
        out.extend_from_slice(&response.body);
    }
    let _ = stream.write_all(&out);
    let _ = stream.flush();
}

/// Parses `GET /path?k=v HTTP/1.1` into a [`Request`]. Returns `None` for
/// lines that are not three whitespace-separated fields.
fn parse_request_line(line: &str) -> Option<Request> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_ascii_uppercase();
    let target = parts.next()?;
    parts.next()?; // HTTP version; any value accepted
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();
    Some(Request { method, path: percent_decode(path), query, body: Vec::new() })
}

/// Decodes `%XX` escapes and `+`-for-space. Invalid escapes pass through
/// verbatim — a scrape endpoint should never 500 on a sloppy client.
fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::io::Read;

    /// One blocking GET against a local server, returning (status, body).
    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        try_get(addr, target).expect("GET")
    }

    /// [`get`] that reports a failed exchange instead of panicking: a
    /// connection the server sheds may legitimately be reset mid-read.
    fn try_get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n")?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "status line"))?;
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
        Ok((status, body))
    }

    fn ping_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            vec![
                ("/ping".to_owned(), Box::new(|_req: &Request| Response::text(200, "pong")) as Handler),
                (
                    "/echo".to_owned(),
                    Box::new(|req: &Request| {
                        Response::json(
                            200,
                            format!("{{\"q\":\"{}\"}}", req.query_param("q").unwrap_or("")),
                        )
                    }),
                ),
            ],
        )
        .expect("bind ephemeral")
    }

    #[test]
    fn serves_routed_paths_and_404s_the_rest() {
        let server = ping_server();
        let addr = server.local_addr();
        assert_eq!(get(addr, "/ping"), (200, "pong".to_owned()));
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        assert!(server.requests_served() >= 2);
        server.shutdown();
    }

    #[test]
    fn query_parameters_are_decoded() {
        let server = ping_server();
        let (status, body) = get(server.local_addr(), "/echo?q=a%20b+c&x=1");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"q\":\"a b c\"}");
        server.shutdown();
    }

    #[test]
    fn unsupported_methods_are_405() {
        let server = ping_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "PUT /ping HTTP/1.1\r\n\r\n").expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        server.shutdown();
    }

    /// A server with one echo route that reflects the POST body back.
    fn post_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            vec![(
                "/submit".to_owned(),
                Box::new(|req: &Request| {
                    Response::text(
                        200,
                        format!(
                            "{}:{}",
                            req.method,
                            String::from_utf8_lossy(&req.body)
                        ),
                    )
                }) as Handler,
            )],
        )
        .expect("bind ephemeral")
    }

    #[test]
    fn post_bodies_reach_the_handler() {
        let server = post_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let body = "{\"incident\": 1}";
        write!(
            stream,
            "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(raw.ends_with(&format!("POST:{body}")), "{raw}");
        server.shutdown();
    }

    #[test]
    fn oversized_declared_body_is_413_without_buffering() {
        let server = post_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // Declare far over the cap but send nothing: the server must answer
        // 413 from the declaration alone.
        write!(
            stream,
            "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES * 16
        )
        .expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
        // The server survives and keeps serving.
        let mut ok = TcpStream::connect(server.local_addr()).expect("connect");
        write!(ok, "POST /submit HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi").expect("send");
        let mut raw = String::new();
        ok.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn malformed_content_length_is_400() {
        let server = post_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "POST /submit HTTP/1.1\r\nContent-Length: banana\r\n\r\n").expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn short_body_times_out_to_400() {
        let server = HttpServer::bind_with_read_timeout(
            "127.0.0.1:0",
            vec![(
                "/submit".to_owned(),
                Box::new(|_req: &Request| Response::text(200, "ok")) as Handler,
            )],
            Duration::from_millis(100),
        )
        .expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // Declare 10 bytes, send 2, stall: the read timeout turns the short
        // body into a clean 400 instead of pinning the thread.
        write!(stream, "POST /submit HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi").expect("send");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("client timeout");
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw);
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn concurrent_scrapes_all_answer() {
        let server = ping_server();
        let addr = server.local_addr();
        let scrapers: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || get(addr, "/ping")))
            .collect();
        for scraper in scrapers {
            assert_eq!(scraper.join().expect("scraper"), (200, "pong".to_owned()));
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_stops_accepting() {
        let server = ping_server();
        let addr = server.local_addr();
        server.shutdown();
        // A fresh connection either fails outright or gets no response.
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = write!(stream, "GET /ping HTTP/1.1\r\n\r\n");
            let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            let mut raw = String::new();
            let _ = stream.read_to_string(&mut raw);
            assert!(raw.is_empty(), "post-shutdown connection was served: {raw}");
        }
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let server = ping_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "complete garbage\r\n\r\n").expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        // The server survives and keeps serving.
        assert_eq!(get(server.local_addr(), "/ping"), (200, "pong".to_owned()));
        server.shutdown();
    }

    #[test]
    fn oversized_request_line_gets_400() {
        let server = ping_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let long_path = "a".repeat(MAX_LINE_BYTES as usize + 1024);
        write!(stream, "GET /{long_path} HTTP/1.1\r\n\r\n").expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        assert_eq!(get(server.local_addr(), "/ping"), (200, "pong".to_owned()));
        server.shutdown();
    }

    #[test]
    fn oversized_headers_get_400() {
        let server = ping_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "GET /ping HTTP/1.1\r\n").expect("send");
        let filler = "x".repeat(1024);
        for i in 0.. {
            if write!(stream, "X-Filler-{i}: {filler}\r\n").is_err() {
                break; // server already rejected and closed
            }
            if i as u64 * 1024 > 2 * MAX_HEADER_BYTES {
                break;
            }
        }
        let _ = stream.flush();
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw); // best effort: RST possible mid-send
        if !raw.is_empty() {
            assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        }
        assert_eq!(get(server.local_addr(), "/ping"), (200, "pong".to_owned()));
        server.shutdown();
    }

    #[test]
    fn stalled_partial_request_times_out_without_blocking_others() {
        let server = HttpServer::bind_with_read_timeout(
            "127.0.0.1:0",
            vec![(
                "/ping".to_owned(),
                Box::new(|_req: &Request| Response::text(200, "pong")) as Handler,
            )],
            Duration::from_millis(200),
        )
        .expect("bind");
        let addr = server.local_addr();
        // A client that sends half a request line and stalls…
        let mut stalled = TcpStream::connect(addr).expect("connect");
        write!(stalled, "GET /pi").expect("send partial");
        // …must not block other connections (thread-per-connection).
        assert_eq!(get(addr, "/ping"), (200, "pong".to_owned()));
        // And the stalled connection is answered 400 and closed once the
        // read timeout fires, not held open indefinitely.
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("client timeout");
        let mut raw = String::new();
        let _ = stalled.read_to_string(&mut raw);
        assert!(
            raw.starts_with("HTTP/1.1 400"),
            "stalled connection should get a 400, got {raw:?}"
        );
        server.shutdown();
    }

    #[test]
    fn reject_drain_honors_a_short_configured_read_timeout() {
        // A server configured with a 25 ms read timeout must not fall back
        // to the old hard-coded 250 ms drain: a rejected-then-silent client
        // is cut loose on the *configured* patience.
        let server = HttpServer::bind_with_read_timeout(
            "127.0.0.1:0",
            vec![(
                "/ping".to_owned(),
                Box::new(|_req: &Request| Response::text(200, "pong")) as Handler,
            )],
            Duration::from_millis(25),
        )
        .expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "complete garbage\r\n\r\n").expect("send");
        let started = std::time::Instant::now();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("client timeout");
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw); // returns only once the server closes
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        assert!(
            started.elapsed() < Duration::from_millis(2_000),
            "drain outlived the configured read timeout: {:?}",
            started.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn connections_over_the_cap_get_503_and_the_slot_is_reusable() {
        let server = HttpServer::bind_with_limits(
            "127.0.0.1:0",
            vec![(
                "/ping".to_owned(),
                Box::new(|_req: &Request| Response::text(200, "pong")) as Handler,
            )],
            Duration::from_secs(5),
            1,
            MetricsRegistry::global(),
        )
        .expect("bind");
        let addr = server.local_addr();
        let over_capacity = MetricsRegistry::global().counter(
            "causeway_httpd_over_capacity_total",
            "HTTP connections answered 503 because the connection cap was reached",
        );
        let before = over_capacity.get();

        // One stalled client pins the only slot (its thread sits in the
        // request-line read until the timeout or until we finish it).
        let mut stalled = TcpStream::connect(addr).expect("connect");
        write!(stalled, "GET /pi").expect("send partial");
        // Wait until the accept thread has really taken the slot: the next
        // connection must observe `active == cap`.
        let mut shed_raw = String::new();
        for _ in 0..50 {
            let mut shed = TcpStream::connect(addr).expect("connect");
            // The server may answer 503 and close before the request is
            // written; the read below still sees the answer.
            let _ = write!(shed, "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
            let _ = shed.set_read_timeout(Some(Duration::from_secs(5)));
            shed_raw.clear();
            let _ = shed.read_to_string(&mut shed_raw);
            if shed_raw.starts_with("HTTP/1.1 503") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            shed_raw.starts_with("HTTP/1.1 503"),
            "connection over the cap should be shed with 503, got {shed_raw:?}"
        );
        assert!(
            over_capacity.get() > before,
            "shedding increments causeway_httpd_over_capacity_total"
        );

        // Finish the stalled request; its permit is released and the next
        // connection is served normally.
        write!(stalled, "ng HTTP/1.1\r\nHost: t\r\n\r\n").expect("finish request");
        let mut raw = String::new();
        stalled.set_read_timeout(Some(Duration::from_secs(5))).expect("client timeout");
        let _ = stalled.read_to_string(&mut raw);
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let mut served = (0, String::new());
        for _ in 0..50 {
            // A connection that races the permit release is still shed, and
            // a shed connection may see a reset instead of the 503: either
            // way it was not served yet, so retry.
            if let Ok(response) = try_get(addr, "/ping") {
                served = response;
                if served.0 == 200 {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(served, (200, "pong".to_owned()), "slot is reusable after release");
        server.shutdown();
    }

    #[test]
    fn requests_served_counts_only_this_server() {
        let a = ping_server();
        let b = ping_server();
        for _ in 0..3 {
            assert_eq!(get(a.local_addr(), "/ping"), (200, "pong".to_owned()));
        }
        assert_eq!(a.requests_served(), 3);
        assert_eq!(b.requests_served(), 0, "B saw none of A's traffic");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn httpd_series_go_to_the_given_registry() {
        let registry = MetricsRegistry::new();
        let server = HttpServer::bind_with_limits(
            "127.0.0.1:0",
            vec![("/ping".to_owned(), Box::new(|_req: &Request| Response::text(200, "pong")) as Handler)],
            DEFAULT_READ_TIMEOUT,
            DEFAULT_MAX_CONNECTIONS,
            &registry,
        )
        .expect("bind");
        assert_eq!(get(server.local_addr(), "/ping"), (200, "pong".to_owned()));
        assert_eq!(get(server.local_addr(), "/nope").0, 404);
        assert_eq!(registry.counter_value("causeway_httpd_requests_total"), Some(2));
        server.shutdown();
    }

    #[test]
    fn sequential_requests_reuse_one_connection_thread() {
        let threads = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&threads);
        let server = HttpServer::bind(
            "127.0.0.1:0",
            vec![(
                "/who".to_owned(),
                Box::new(move |_req: &Request| {
                    seen.lock().push(std::thread::current().id());
                    Response::text(200, "me")
                }) as Handler,
            )],
        )
        .expect("bind");
        for _ in 0..5 {
            assert_eq!(get(server.local_addr(), "/who"), (200, "me".to_owned()));
        }
        let threads = threads.lock().clone();
        assert_eq!(threads.len(), 5);
        assert!(
            threads.iter().all(|t| *t == threads[0]),
            "each request found the previous connection thread parked: {threads:?}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_ends_parked_connection_threads() {
        let marker = Arc::new(());
        let held = Arc::clone(&marker);
        let server = HttpServer::bind(
            "127.0.0.1:0",
            vec![(
                "/ping".to_owned(),
                Box::new(move |_req: &Request| {
                    let _ = &held;
                    Response::text(200, "pong")
                }) as Handler,
            )],
        )
        .expect("bind");
        // Several at once, so more than one thread is left parked.
        let addr = server.local_addr();
        let scrapers: Vec<_> =
            (0..6).map(|_| std::thread::spawn(move || get(addr, "/ping"))).collect();
        for scraper in scrapers {
            assert_eq!(scraper.join().expect("scraper"), (200, "pong".to_owned()));
        }
        assert!(Arc::strong_count(&marker) > 1, "the routes are alive while serving");
        server.shutdown();
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while Arc::strong_count(&marker) > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            Arc::strong_count(&marker),
            1,
            "a parked connection thread still holds the routes after shutdown"
        );
    }

    #[test]
    fn percent_decoding_is_lenient() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn request_line_parsing() {
        let req = parse_request_line("GET /latency?iface=Pps%3A%3AStage HTTP/1.1").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/latency");
        assert_eq!(req.query_param("iface"), Some("Pps::Stage"));
        assert!(parse_request_line("garbage").is_none());
    }

    /// A stream to `peer` holding a slot of `shared`'s connection cap, for
    /// the parked-stack tests.
    fn conn(shared: &Arc<ServerShared>, peer: &TcpListener) -> Conn {
        shared.active.fetch_add(1, Ordering::AcqRel);
        let stream = TcpStream::connect(peer.local_addr().expect("peer addr")).expect("connect");
        Conn { permit: ConnPermit { shared: Arc::clone(shared) }, stream }
    }

    #[test]
    fn the_parked_stack_holds_at_most_max_parked_threads() {
        let server = HttpServer::bind("127.0.0.1:0", Vec::new()).expect("bind");
        let peer = TcpListener::bind("127.0.0.1:0").expect("peer");
        let shared = &server.shared;
        let parked: Vec<_> = (0..MAX_PARKED).map(|_| shared.park().expect("room")).collect();
        assert!(shared.park().is_none(), "a full stack turns the next thread away");
        // Last parked, first served.
        assert!(shared.hand_off(conn(shared, &peer)).is_ok());
        assert!(parked[MAX_PARKED - 1].try_recv().is_ok());
        assert!(shared.park().is_some(), "a hand-off frees a place");
        server.shutdown();
    }

    #[test]
    fn a_connection_thread_gone_since_it_parked_is_skipped() {
        let server = HttpServer::bind("127.0.0.1:0", Vec::new()).expect("bind");
        let peer = TcpListener::bind("127.0.0.1:0").expect("peer");
        let shared = &server.shared;
        let alive = shared.park().expect("room");
        drop(shared.park().expect("room"));
        assert!(shared.hand_off(conn(shared, &peer)).is_ok());
        assert!(alive.try_recv().is_ok());
        assert!(shared.hand_off(conn(shared, &peer)).is_err(), "nobody left");
        server.shutdown();
    }

    #[test]
    fn shutdown_disconnects_parked_threads_and_wins_over_park() {
        let server = HttpServer::bind("127.0.0.1:0", Vec::new()).expect("bind");
        let peer = TcpListener::bind("127.0.0.1:0").expect("peer");
        let shared = Arc::clone(&server.shared);
        let parked = shared.park().expect("room");
        server.shutdown();
        assert!(parked.recv().is_err(), "a parked thread is released by the shutdown");
        assert!(shared.park().is_none(), "no thread parks after the shutdown");
        assert!(shared.hand_off(conn(&shared, &peer)).is_err());
    }
}
