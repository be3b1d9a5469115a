//! Minimal admin/introspection HTTP endpoint over `std::net::TcpListener`.
//!
//! Deliberately dependency-free: one accept thread, `HTTP/1.1` with
//! `Connection: close`, GET only. Routes:
//!
//! * `GET /healthz` — liveness, plain `ok`.
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
/// of the response this long to make progress. Connections are served one
/// at a time, so this also bounds how long one peer can hold every route.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

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
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(mut stream) = conn {
                        let _ = handle_conn(&mut stream, &obs, source.as_ref());
                    }
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

    /// Stop accepting and join the server thread.
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

fn handle_conn(stream: &mut TcpStream, obs: &Obs, source: &dyn AdminSource) -> std::io::Result<()> {
    let request_line = read_request_line(stream, Instant::now() + REQUEST_DEADLINE)?;
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
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
        "/healthz" => obs.health.snapshot().to_response(),
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

/// Read up to the end of the request head and return the request line.
/// The whole head has until `deadline`, however it is paced: each read
/// waits for what is left of it.
fn read_request_line(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<String> {
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
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    Ok(head.lines().next().unwrap_or("").to_string())
}

fn respond(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    let Reply { status, content_type, body } = reply;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
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
        (k == name).then(|| percent_decode(v))
    })
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-decode a query value (`%XX` escapes and `+` as space).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                match (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi * 16 + lo);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
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
        obs.health.set_breaker(1, 0);
        let server = serve(&obs);
        let (status, body) = http_get(server.addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("\"status\": \"unhealthy\""));
        assert!(body.contains("breaker-open"));
        server.shutdown();
    }

    /// A peer that sends its request a byte at a time never lets a single
    /// read time out. It is dropped when the head's deadline passes, and the
    /// request queued behind it is answered.
    #[test]
    fn a_trickling_peer_is_dropped_at_the_deadline() {
        let server = serve(&Obs::shared());
        let addr = server.addr();
        let started = Instant::now();
        let mut slow = TcpStream::connect(addr).unwrap();
        let trickler = std::thread::spawn(move || {
            // Far more bytes than the deadline has room for; the writes
            // start failing once the server has hung up.
            for byte in b"GET /healthz?".iter().chain(std::iter::repeat_n(&b'x', 200)) {
                if slow.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            let mut reply = Vec::new();
            let _ = slow.read_to_end(&mut reply);
            reply
        });
        let (status, body) = http_get(addr, "/healthz");
        let waited = started.elapsed();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(waited >= REQUEST_DEADLINE, "answered before the trickler was dropped: {waited:?}");
        assert!(waited < REQUEST_DEADLINE * 3, "held for {waited:?}");
        assert!(trickler.join().unwrap().is_empty(), "the trickler got no reply");
        server.shutdown();
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%2Fb+c%3D1"), "a/b c=1");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
    }
}
