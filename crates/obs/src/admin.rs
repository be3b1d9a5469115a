//! Minimal admin/introspection HTTP endpoint over `std::net::TcpListener`.
//!
//! Deliberately dependency-free: one accept thread that serves each
//! connection on a thread of its own, at most [`MAX_CONNECTIONS`] at once,
//! `HTTP/1.1` with `Connection: close`, GET only. Routes:
//!
//! * `GET /healthz` — liveness: plain `ok`, or the reasons it is not, read
//!   off the registry.
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4).
//! * `GET /explain?url=<percent-encoded url>` — eject provenance as JSON.
//! * `GET /explain?lsn=<n>` — update provenance as JSON.
//! * `GET /trace[?n=<limit>]` — recent causal trace events as JSON.
//! * `GET /timeline[?stable=1][?format=chrome]` — per-sync-point stage
//!   timeline; `format=chrome` renders Chrome `trace_event` JSON for
//!   chrome://tracing, `stable=1` zeroes wall-clock fields for byte-stable
//!   output.
//! * `GET /scorecards` — per-query-type cost/benefit scorecards as JSON.
//! * `GET /slo[?stable=1]` — sliding-window SLO evaluation with burn
//!   rates and the alert log; `stable=1` drops wall-fed objectives for
//!   byte-stable output.
//! * `GET /bus` — per-edge invalidation-bus delivery state (watermarks,
//!   lag, retries, partition state) as JSON.
//! * `GET /flightrecord` — flight-recorder dump index;
//!   `?dump=1[&stable=1]` captures and returns an on-demand bundle,
//!   `?seq=N` fetches a retained bundle.
//!
//! Every route reads the [`Obs`] it was given and renders the document
//! type that module owns, so a route and the `CachePortal` accessor of the
//! same name cannot disagree. What `Obs` cannot answer — the counters it
//! only mirrors, the logical clock, the QI/URL map, the bus — comes through
//! [`AdminSource`], which the core crate implements.

// Status, content type and body: what `/healthz` renders is what every route
// answers with.
use crate::{HealthResponse as Reply, Obs, QiRow};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the admin endpoint needs of the portal beyond its [`Obs`].
pub trait AdminSource: Send + Sync {
    /// Mirror component-owned cumulative statistics (database, connection
    /// pools, QI/URL map) into the registry; runs before `/metrics` and a
    /// flight-record dump read it.
    fn refresh(&self);
    /// The portal's logical clock, microseconds.
    fn now_micros(&self) -> u64;
    /// The QI/URL map rows of the page `url`.
    fn qi_rows(&self, url: &str) -> Vec<QiRow>;
    /// Body for `GET /bus`: the bus crate's document, rendered.
    fn bus(&self) -> String;
}

/// A connection gets this long to deliver its request head, and each write
/// of the response this long to make progress: how long one peer can hold
/// its connection's thread.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Connections served at once, each on a thread of its own. A connection
/// accepted past this many is answered 503 on the accept thread and closed,
/// so slow peers can hold at most this many threads, never the routes.
const MAX_CONNECTIONS: usize = 16;

/// The request head is read up to this many bytes. A request line that does
/// not end inside it is refused whole (414), never routed as a prefix.
const HEAD_LIMIT: usize = 8192;

/// A running admin endpoint. Dropping (or calling [`AdminServer::shutdown`])
/// stops the accept loop and joins the thread.
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `obs` on a background
    /// thread.
    pub fn serve(
        addr: &str,
        obs: Arc<Obs>,
        source: Arc<dyn AdminSource>,
    ) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("cacheportal-admin".to_string())
            .spawn(move || {
                let mut serving: Vec<JoinHandle<()>> = Vec::new();
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    // Reap the connections that are done; a panic in one
                    // ended only that connection.
                    let done: Vec<JoinHandle<()>>;
                    (done, serving) = serving.drain(..).partition(|c| c.is_finished());
                    for conn in done {
                        let _ = conn.join();
                    }
                    if serving.len() >= MAX_CONNECTIONS {
                        refuse(&mut stream);
                        continue;
                    }
                    let (obs, source) = (obs.clone(), source.clone());
                    let spawned = std::thread::Builder::new()
                        .name("cacheportal-admin-conn".to_string())
                        .spawn(move || {
                            let _ = handle_conn(&mut stream, &obs, source.as_ref());
                        });
                    // A connection whose thread cannot start is closed
                    // unanswered.
                    serving.extend(spawned);
                }
                for conn in serving {
                    let _ = conn.join();
                }
            })?;
        Ok(AdminServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread, which joins the
    /// connections it is serving (each within `REQUEST_DEADLINE`).
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if self.thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the (blocking) accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Answer 503 to a connection past the bound.
fn refuse(stream: &mut TcpStream) {
    // Take what the peer has sent so far, without waiting: closing over
    // unread bytes would reset the connection under the reply.
    let mut sink = [0u8; 512];
    let _ = stream.set_nonblocking(true);
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(REQUEST_DEADLINE));
    let _ = respond(stream, &text(503, "too many admin connections\n"));
}

fn handle_conn(stream: &mut TcpStream, obs: &Obs, source: &dyn AdminSource) -> std::io::Result<()> {
    let request_line = read_request_line(stream, Instant::now() + REQUEST_DEADLINE)?;
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
    let Some(request_line) = request_line else {
        return respond(stream, &text(414, "request line too long\n"));
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let reply = if method == "GET" {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        route(obs, source, path, query)
    } else {
        text(405, "method not allowed\n")
    };
    respond(stream, &reply)
}

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";

fn text(status: u16, body: &str) -> Reply {
    Reply { status, content_type: TEXT, body: body.to_string() }
}

fn json<T: Serialize>(doc: &T) -> Reply {
    let body = serde_json::to_string_pretty(doc).expect("a document renders");
    Reply { status: 200, content_type: JSON, body }
}

/// The route table: which document answers which path.
fn route(obs: &Obs, source: &dyn AdminSource, path: &str, query: &str) -> Reply {
    let param = |name: &str| query_param(query, name);
    let number = |name: &str| param(name).and_then(|v| v.parse::<u64>().ok());
    let flag = |name: &str| param(name).as_deref() == Some("1");
    match path {
        "/healthz" => obs.health.snapshot(&obs.metrics).to_response(),
        "/metrics" => {
            source.refresh();
            Reply {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: obs.metrics.render_prometheus(),
            }
        }
        "/explain" => {
            if let Some(url) = param("url") {
                json(&obs.explain_url(&url, source.qi_rows(&url)))
            } else if let Some(lsn) = number("lsn") {
                json(&obs.provenance.explain_lsn(lsn))
            } else {
                text(400, "expected ?url=<url> or ?lsn=<n>\n")
            }
        }
        "/trace" => json(&obs.tracer.doc(number("n").map_or(256, |n| n as usize))),
        "/timeline" if param("format").as_deref() == Some("chrome") => {
            json(&obs.timeline.to_chrome_trace(64))
        }
        "/timeline" => json(&obs.timeline_doc(flag("stable"))),
        "/scorecards" => json(&obs.scorecards.doc()),
        "/slo" => json(&obs.slo_doc(source.now_micros(), flag("stable"))),
        "/bus" => Reply { status: 200, content_type: JSON, body: source.bus() },
        // `?dump=1` captures the full bundle (ring + disk when armed) so the
        // post-mortem artifact loses nothing; `stable=1` reduces only what
        // is sent back.
        "/flightrecord" if flag("dump") => {
            source.refresh();
            let mut bundle = obs.capture_flight_record("on-demand", source.now_micros());
            if flag("stable") {
                bundle.stabilize();
            }
            json(&bundle)
        }
        "/flightrecord" => match number("seq") {
            Some(seq) => match obs.recorder.bundle(seq) {
                Some(body) => Reply { status: 200, content_type: JSON, body },
                None => text(404, "bundle rotated out or never captured\n"),
            },
            None => json(&obs.recorder.index()),
        },
        _ => text(404, "not found\n"),
    }
}

/// Read up to the end of the request head and return the request line:
/// up to its line end, or all the peer sent before it half-closed. `None`
/// if the line does not end within [`HEAD_LIMIT`]. The whole head has until
/// `deadline`, however it is paced: each read waits for what is left of it.
fn read_request_line(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > HEAD_LIMIT {
            break;
        }
    }
    let end = buf.iter().position(|&b| b == b'\n').unwrap_or(buf.len());
    if end > HEAD_LIMIT {
        return Ok(None);
    }
    let line = String::from_utf8_lossy(&buf[..end]);
    Ok(Some(line.trim_end_matches('\r').to_string()))
}

fn respond(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    let Reply { status, content_type, body } = reply;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// First value of `name` in an `a=b&c=d` query string, percent-decoded.
fn query_param(query: &str, name: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| form_decode(v))
    })
}

/// A query value form-decoded: `+` is a space, then `%XX` escapes.
fn form_decode(v: &str) -> String {
    crate::percent::percent_decode(&v.replace('+', " "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Explanation, FlightBundle, FlightIndexDoc, ScorecardsDoc, SloDoc, TimelineDoc, TraceDoc,
        FLIGHT_RECORD_SCHEMA,
    };

    /// The portal's side of the endpoint, with answers a test can tell apart.
    struct Stub;

    impl AdminSource for Stub {
        fn refresh(&self) {}
        fn now_micros(&self) -> u64 {
            1_234
        }
        fn qi_rows(&self, url: &str) -> Vec<QiRow> {
            vec![QiRow { id: 7, sql: format!("SELECT '{url}'"), servlet: "stub".to_string() }]
        }
        fn bus(&self) -> String {
            "{\"schema\": \"stub.bus\"}".to_string()
        }
    }

    fn serve(obs: &Arc<Obs>) -> AdminServer {
        AdminServer::serve("127.0.0.1:0", obs.clone(), Arc::new(Stub)).unwrap()
    }

    /// Tiny blocking HTTP GET for tests.
    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    /// GET `path`, expect 200 and read the body as the route's document.
    fn get_doc<T: serde::Deserialize>(addr: SocketAddr, path: &str) -> T {
        let (status, body) = http_get(addr, path);
        assert_eq!(status, 200, "{path}: {body}");
        serde_json::from_str(&body).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn serves_health_metrics_and_explain() {
        let obs = Obs::shared();
        obs.metrics.counter("test").inc();
        let server = serve(&obs);
        let addr = server.addr();

        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("cacheportal_test_total 1"));

        let doc: Explanation = get_doc(addr, "/explain?url=a%20b+c");
        assert_eq!(doc.qi_map.unwrap()[0].sql, "SELECT 'a b c'");
        let doc: Explanation = get_doc(addr, "/explain?lsn=7");
        assert_eq!(doc.qi_map, None);

        let (status, _) = http_get(addr, "/explain?bogus=1");
        assert_eq!(status, 400);
        let (status, _) = http_get(addr, "/nope");
        assert_eq!(status, 404);
        assert_eq!(http_get(addr, "/bus"), (200, "{\"schema\": \"stub.bus\"}".to_string()));

        server.shutdown();
    }

    #[test]
    fn serves_trace_timeline_and_scorecards() {
        let obs = Obs::shared();
        for ts in 0..3 {
            obs.tracer.event("core", "tick", ts, "");
        }
        obs.timeline.record(crate::SyncTimeline { wall_micros: 9, ..Default::default() });
        let server = serve(&obs);
        let addr = server.addr();

        let doc: TraceDoc = get_doc(addr, "/trace?n=2");
        assert_eq!((doc.recorded, doc.recent.len()), (3, 2));
        let doc: TraceDoc = get_doc(addr, "/trace");
        assert_eq!(doc.recent.len(), 3);

        let doc: TimelineDoc = get_doc(addr, "/timeline");
        assert_eq!((doc.stable, doc.sync_points[0].wall_micros), (false, 9));
        let doc: TimelineDoc = get_doc(addr, "/timeline?stable=1");
        assert_eq!((doc.stable, doc.sync_points[0].wall_micros), (true, 0));
        let (_, body) = http_get(addr, "/timeline?format=chrome");
        let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(doc["traceEvents"].as_array().map(Vec::len), Some(1));

        let doc: ScorecardsDoc = get_doc(addr, "/scorecards");
        assert!(doc.scorecards.is_empty());

        server.shutdown();
    }

    #[test]
    fn serves_slo_and_flightrecord() {
        let obs = Obs::shared();
        let server = serve(&obs);
        let addr = server.addr();

        let doc: SloDoc = get_doc(addr, "/slo");
        assert_eq!((doc.stable, doc.now), (false, 1_234));
        assert_eq!(doc.context.unwrap().status, "healthy");
        let doc: SloDoc = get_doc(addr, "/slo?stable=1");
        assert!(doc.stable && doc.objectives.iter().all(|o| o.deterministic));

        let doc: FlightIndexDoc = get_doc(addr, "/flightrecord");
        assert!(doc.dumps.is_empty());

        let doc: FlightBundle = get_doc(addr, "/flightrecord?dump=1&stable=1");
        assert_eq!(doc.schema, FLIGHT_RECORD_SCHEMA);
        assert!(doc.stable && doc.metrics.histograms.is_none());
        // What was captured is the full bundle, whatever was sent back.
        let kept: FlightBundle = get_doc(addr, "/flightrecord?seq=0");
        assert_eq!((kept.stable, kept.ts), (false, 1_234));
        let doc: FlightIndexDoc = get_doc(addr, "/flightrecord");
        assert_eq!(doc.dumps[0].reason, "on-demand");
        // A rotated-out / never-captured seq is an explicit 404, not null.
        let (status, _) = http_get(addr, "/flightrecord?seq=99");
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn healthz_reflects_the_health_state() {
        let obs = Obs::shared();
        obs.metrics.gauge("invalidator.breaker.open_types").set(1);
        let server = serve(&obs);
        let (status, body) = http_get(server.addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("\"status\": \"unhealthy\""));
        assert!(body.contains("breaker-open"));
        server.shutdown();
    }

    /// A peer that sends its request a byte at a time never lets a single
    /// read time out. It holds its own connection's thread, not the routes:
    /// the request queued behind it is answered at once, while it is still
    /// connected, and it is dropped at the head's deadline without a reply.
    #[test]
    fn a_trickling_peer_does_not_delay_the_next_request() {
        let server = serve(&Obs::shared());
        let addr = server.addr();
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /heal").unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let trickler = std::thread::spawn(move || {
            // Far more bytes than the deadline has room for; the writes
            // start failing once the server has hung up.
            for byte in b"thz?".iter().chain(std::iter::repeat_n(&b'x', 200)) {
                if slow.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            let mut reply = Vec::new();
            let _ = slow.read_to_end(&mut reply);
            done_tx.send(()).unwrap();
            reply
        });
        let started = Instant::now();
        let (status, body) = http_get(addr, "/healthz");
        let waited = started.elapsed();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(waited < REQUEST_DEADLINE / 4, "held behind the trickler for {waited:?}");
        assert!(done_rx.try_recv().is_err(), "the trickler was still connected");
        assert!(trickler.join().unwrap().is_empty(), "the trickler got no reply");
        server.shutdown();
    }

    /// Past [`MAX_CONNECTIONS`] connections being served, the next is
    /// answered 503 at once rather than queued behind them.
    #[test]
    fn a_connection_past_the_bound_is_refused_at_once() {
        let server = serve(&Obs::shared());
        let addr = server.addr();
        let silent: Vec<TcpStream> =
            (0..MAX_CONNECTIONS).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // The refused peer sends nothing, so no unread byte can reset the
        // connection under the reply.
        let started = Instant::now();
        let mut refused = TcpStream::connect(addr).unwrap();
        let mut raw = String::new();
        refused.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
        assert!(started.elapsed() < REQUEST_DEADLINE / 4, "held for {:?}", started.elapsed());
        drop(silent);
        server.shutdown();
    }

    /// Send `head`, half-close, and return the reply's status. The reply
    /// must come at once: nothing here may wait out the head's deadline.
    fn exchange(addr: SocketAddr, head: &[u8]) -> u16 {
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(head).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        assert!(started.elapsed() < REQUEST_DEADLINE, "held for {:?}", started.elapsed());
        let raw = String::from_utf8_lossy(&raw);
        raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0)
    }

    /// Malformed, oversized and truncated heads each get an answer at once,
    /// and the server answers the next request. An oversized head is one
    /// byte past the limit, so the server has read all of it when it
    /// answers and its close resets nothing.
    #[test]
    fn malformed_oversized_and_truncated_heads_are_answered() {
        let server = serve(&Obs::shared());
        let addr = server.addr();
        let over_limit = |start: &[u8]| {
            let mut head = start.to_vec();
            head.resize(HEAD_LIMIT + 1, b'x');
            head
        };
        let cases: [(&str, Vec<u8>, u16); 6] = [
            // Routed as the prefix `/healthz?xxx…` (200) before the limit
            // was enforced.
            ("long query", over_limit(b"GET /healthz?"), 414),
            ("long path", over_limit(b"GET /"), 414),
            ("non-UTF-8 head", b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec(), 404),
            ("POST", b"POST /healthz HTTP/1.1\r\n\r\n".to_vec(), 405),
            // The request line is whole; the missing blank line is forgiven.
            ("no blank line", b"GET /healthz HTTP/1.1\r\n".to_vec(), 200),
            ("empty", Vec::new(), 405),
        ];
        for (case, head, want) in cases {
            assert_eq!(exchange(addr, &head), want, "{case}");
            assert_eq!(http_get(addr, "/healthz"), (200, "ok\n".to_string()), "after {case}");
        }
        server.shutdown();
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(form_decode("a%2Fb+c%3D1"), "a/b c=1");
        assert_eq!(form_decode("a%2Bb"), "a+b");
        assert_eq!(form_decode("plain"), "plain");
        assert_eq!(form_decode("bad%zz"), "bad%zz");
        assert_eq!(form_decode("trail%2"), "trail%2");
        assert_eq!(crate::percent::percent_decode("a+b%25"), "a+b%");
    }
}
