//! Real-socket bus transport over `std::net::TcpStream`, mirroring the
//! dependency-free style of the `crates/obs` admin server: one accept
//! thread per edge, line-delimited JSON, connection per frame per attempt.
//!
//! Wire protocol (deliberately trivial — the reliability contract lives in
//! the bus and the edge's apply rule, not the wire): the sender connects,
//! writes one frame, a JSON array of [`EjectBatch`]es terminated by `\n`,
//! and reads back one encoded [`Ack`] line. A frame that would not fit in
//! the 4 MiB line limit is cut to its newest batches that do; the edge then
//! flushes, as for any frame that skips its mark. Any connect/read/parse
//! failure surfaces as [`TransportError::Unreachable`], which the bus
//! treats exactly like a dropped delivery — retry, then partition
//! bookkeeping.
//!
//! This transport exists for CI smoke coverage of the serialization and
//! socket path; the deterministic harness uses [`crate::MemoryTransport`].

use crate::{Ack, BusTransport, EdgeEndpoint, EjectBatch, TransportError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest line either side reads, frame or ack (some 80 000 page keys). A
/// peer that streams more than this without a newline gets no ack and the
/// connection is closed; the bus treats that like any other failed
/// delivery.
const MAX_FRAME_BYTES: usize = 4 << 20;

/// How long an [`EdgeServer`] gives one delivery, the whole frame
/// however it is paced and then the ack. The listener serves one connection
/// at a time, so this is also the longest a slow peer holds it; it is below
/// [`SocketTransport`]'s timeout, so a delivery queued behind such a peer is
/// still answered.
const FRAME_DEADLINE: Duration = Duration::from_secs(1);

/// Read one `\n`-terminated frame of at most [`MAX_FRAME_BYTES`]. The whole
/// frame has until `deadline`: each read waits only for what is left of it.
fn read_frame(stream: &TcpStream, deadline: Instant) -> std::io::Result<String> {
    let mut frame = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let room = chunk.len().min(MAX_FRAME_BYTES - frame.len());
        let n = (&*stream).read(&mut chunk[..room])?;
        if n == 0 {
            break;
        }
        if let Some(end) = chunk[..n].iter().position(|&b| b == b'\n') {
            frame.extend_from_slice(&chunk[..=end]);
            break;
        }
        frame.extend_from_slice(&chunk[..n]);
        if frame.len() == MAX_FRAME_BYTES {
            return Err(std::io::Error::other("frame exceeds the wire limit"));
        }
    }
    String::from_utf8(frame).map_err(std::io::Error::other)
}

/// Encode `frame` as one wire line, newline included: the newest suffix
/// of its batches whose line fits in [`MAX_FRAME_BYTES`].
fn encode_frame(frame: &[EjectBatch]) -> Result<String, TransportError> {
    let batches = frame
        .iter()
        .map(serde_json::to_string)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| TransportError::Unreachable("encode"))?;
    // "]\n", then each batch and the '[' or ',' before it.
    let mut len = 2;
    let keep = batches
        .iter()
        .rev()
        .take_while(|b| {
            len += b.len() + 1;
            len <= MAX_FRAME_BYTES
        })
        .count();
    Ok(format!("[{}]\n", batches[batches.len() - keep..].join(",")))
}

/// Client side: delivers frames to remote [`EdgeServer`]s by address.
/// Edge index = position in the address list (matching the bus's
/// registration order of `register_remote_edge`).
pub struct SocketTransport {
    addrs: Vec<SocketAddr>,
    timeout: Duration,
}

impl SocketTransport {
    /// A transport over `addrs` (index-aligned with edge registration).
    pub fn new(addrs: Vec<SocketAddr>) -> SocketTransport {
        SocketTransport {
            addrs,
            timeout: Duration::from_secs(2),
        }
    }
}

impl BusTransport for SocketTransport {
    fn deliver(&self, edge: usize, frame: &[EjectBatch], _attempt: u32) -> Result<Ack, TransportError> {
        let addr = self
            .addrs
            .get(edge)
            .ok_or(TransportError::Unreachable("unknown-edge"))?;
        let stream = TcpStream::connect_timeout(addr, self.timeout)
            .map_err(|_| TransportError::Unreachable("connect"))?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(|_| TransportError::Unreachable("socket"))?;
        let line = encode_frame(frame)?;
        let mut writer = stream
            .try_clone()
            .map_err(|_| TransportError::Unreachable("socket"))?;
        writer
            .write_all(line.as_bytes())
            .and_then(|_| writer.flush())
            .map_err(|_| TransportError::Unreachable("write"))?;
        let reply = read_frame(&stream, Instant::now() + self.timeout)
            .map_err(|_| TransportError::Unreachable("read"))?;
        serde_json::from_str::<Ack>(reply.trim())
            .map_err(|_| TransportError::Unreachable("decode"))
    }
}

/// Server side: one edge endpoint listening for frame deliveries.
/// Dropping (or [`EdgeServer::shutdown`]) stops the accept loop and joins
/// the thread, like the obs admin server.
pub struct EdgeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl EdgeServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and apply incoming frames to
    /// `endpoint` on a background thread.
    pub fn serve(addr: &str, endpoint: Arc<EdgeEndpoint>) -> std::io::Result<EdgeServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("cacheportal-bus-edge".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(mut stream) = conn {
                        let _ = handle_delivery(&mut stream, endpoint.as_ref());
                    }
                }
            })?;
        Ok(EdgeServer {
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
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for EdgeServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn handle_delivery(stream: &mut TcpStream, endpoint: &EdgeEndpoint) -> std::io::Result<()> {
    stream.set_write_timeout(Some(FRAME_DEADLINE))?;
    let line = read_frame(stream, Instant::now() + FRAME_DEADLINE)?;
    let Ok(frame) = serde_json::from_str::<Vec<EjectBatch>>(line.trim()) else {
        // Malformed or cut-off delivery (or the shutdown throwaway
        // connect): no ack.
        return Ok(());
    };
    let ack = endpoint.apply(&frame);
    let reply = serde_json::to_string(&ack).map_err(std::io::Error::other)?;
    stream.write_all(reply.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusConfig, InvalidationBus};
    use cacheportal_cache::{PageCache, PageCacheConfig};
    use cacheportal_db::FaultPlan;
    use cacheportal_web::PageKey;
    use std::io::ErrorKind;

    fn key(s: &str) -> PageKey {
        PageKey::raw(s)
    }

    /// A listening edge whose cache holds `pages`.
    fn listening_edge(pages: &[&str]) -> (Arc<PageCache>, Arc<EdgeEndpoint>, EdgeServer) {
        let cache = Arc::new(PageCache::new(PageCacheConfig::default()));
        for page in pages {
            cache.put(key(page), "1", 1);
        }
        let endpoint = Arc::new(EdgeEndpoint::new("edge-sock", cache.clone(), 0));
        let server = EdgeServer::serve("127.0.0.1:0", endpoint.clone()).unwrap();
        (cache, endpoint, server)
    }

    #[test]
    fn batch_and_ack_round_trip_the_wire() {
        let (cache, endpoint, server) = listening_edge(&["a", "b"]);
        let transport = SocketTransport::new(vec![server.addr()]);

        let batch = EjectBatch {
            seq: 1,
            sync_seq: 7,
            ts: 100,
            pages: vec![key("a")],
        };
        let ack = transport.deliver(0, std::slice::from_ref(&batch), 0).unwrap();
        assert_eq!(ack, Ack { applied_seq: 1 });
        assert!(!cache.contains(&key("a")));
        assert!(cache.contains(&key("b")));

        // Redelivery over the wire is absorbed idempotently.
        let ack = transport.deliver(0, &[batch], 1).unwrap();
        assert_eq!(ack, Ack { applied_seq: 1 });
        assert_eq!(endpoint.counters().absorbed_duplicates, 1);

        server.shutdown();
    }

    #[test]
    fn overlong_frame_gets_no_ack_and_the_listener_keeps_serving() {
        let (cache, _, server) = listening_edge(&["a"]);

        // Twice the cap without a newline, and the connection left open.
        // The server hangs up at the cap (so the tail of the stream may fail
        // to send) instead of waiting out its read timeout for a newline.
        let mut hostile = TcpStream::connect(server.addr()).unwrap();
        hostile.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let chunk = vec![b'x'; 1 << 16];
        for _ in 0..(2 * MAX_FRAME_BYTES / chunk.len()) {
            if hostile.write_all(&chunk).is_err() {
                break;
            }
        }
        let mut reply = Vec::new();
        let hung_up = match hostile.read_to_end(&mut reply) {
            Ok(_) => true,
            Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        };
        assert!(hung_up, "the server kept reading past the frame limit");
        assert!(reply.is_empty(), "an over-long frame must not be acked");
        assert!(cache.contains(&key("a")));

        let transport = SocketTransport::new(vec![server.addr()]);
        let batch = EjectBatch { seq: 1, sync_seq: 1, ts: 1, pages: vec![key("a")] };
        assert_eq!(transport.deliver(0, &[batch], 0).unwrap(), Ack { applied_seq: 1 });
        assert!(!cache.contains(&key("a")));
        server.shutdown();
    }

    #[test]
    fn a_trickling_peer_is_dropped_at_the_frame_deadline() {
        let (cache, _, server) = listening_edge(&["a"]);

        // One byte every 50 ms, never a newline: under a per-read timeout
        // this peer would hold the listener until it had sent the frame cap.
        let started = Instant::now();
        let mut trickler = TcpStream::connect(server.addr()).unwrap();
        let mut reader = trickler.try_clone().unwrap();
        let sender = std::thread::spawn(move || {
            while trickler.write_all(b"x").is_ok() && started.elapsed() < 3 * FRAME_DEADLINE {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        reader.set_read_timeout(Some(3 * FRAME_DEADLINE)).unwrap();
        let mut reply = Vec::new();
        let hung_up = match reader.read_to_end(&mut reply) {
            Ok(_) => true,
            Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        };
        let held = started.elapsed();
        assert!(hung_up, "the trickler still held the listener after {held:?}");
        assert!(held >= FRAME_DEADLINE, "dropped before its deadline: {held:?}");
        assert!(held < 3 * FRAME_DEADLINE, "held the listener {held:?}");
        assert!(reply.is_empty(), "a partial frame must not be acked");
        sender.join().unwrap();

        let transport = SocketTransport::new(vec![server.addr()]);
        let batch = EjectBatch { seq: 1, sync_seq: 1, ts: 1, pages: vec![key("a")] };
        assert_eq!(transport.deliver(0, &[batch], 0).unwrap(), Ack { applied_seq: 1 });
        assert!(!cache.contains(&key("a")));
        server.shutdown();
    }

    #[test]
    fn dead_edge_is_marked_partitioned_and_catches_up_after_a_rebind() {
        let (cache, endpoint, server) = listening_edge(&["a"]);
        let addr = server.addr();
        server.shutdown();

        let transport = Arc::new(SocketTransport::new(vec![addr]));
        let bus = InvalidationBus::new(BusConfig::default(), transport, FaultPlan::none());
        bus.register_remote_edge("edge-sock", 0);
        bus.publish(1, 1, vec![key("a")]);
        bus.deliver_all(1);
        bus.deliver_all(2);
        assert!(bus.edge_rows()[0].partitioned);
        assert_eq!(bus.stats().partitioned_edges, 1);
        assert!(bus.edge_rows()[0].lag > 0);
        assert!(cache.contains(&key("a")), "the undelivered eject has not landed");

        // The listener comes back on the same port: the next round replays
        // what the edge missed, from its acked watermark.
        let revived = EdgeServer::serve(&addr.to_string(), endpoint).unwrap();
        bus.deliver_all(3);
        assert_eq!(bus.stats().partitioned_edges, 0);
        let row = &bus.edge_rows()[0];
        assert_eq!((row.acked, row.lag), (1, 0));
        assert!(!cache.contains(&key("a")), "catch-up applied the eject");
        revived.shutdown();
    }

    #[test]
    fn bus_drives_a_remote_edge_through_the_socket() {
        let (cache, _, server) = listening_edge(&["x"]);
        let transport = Arc::new(SocketTransport::new(vec![server.addr()]));
        let bus = InvalidationBus::new(BusConfig::default(), transport, FaultPlan::none());
        bus.register_remote_edge("edge-sock", 0);

        bus.publish(1, 10, vec![key("x")]);
        let report = bus.deliver_all(10);
        assert_eq!(report.deliveries_ok, 1);
        assert!(!cache.contains(&key("x")));
        assert_eq!(bus.edge_rows()[0].acked, 1);
        assert_eq!(bus.edge_rows()[0].lag, 0);

        server.shutdown();
    }

    /// An edge registered after the first publishes, whose own mark is 0,
    /// gets frames that start past its mark: it flushes and is current.
    #[test]
    fn a_remote_edge_that_joins_late_catches_up() {
        let (cache, _, server) = listening_edge(&["a"]);
        let transport = Arc::new(SocketTransport::new(vec![server.addr()]));
        let bus = InvalidationBus::new(BusConfig::default(), transport, FaultPlan::none());
        for s in 1..=3 {
            bus.publish(s, s, vec![]);
            bus.deliver_all(s);
        }
        bus.register_remote_edge("edge-sock", 3);
        bus.publish(4, 4, vec![key("a")]);
        bus.deliver_all(4);
        for s in 5..=40 {
            bus.publish(s, s, vec![]);
            bus.deliver_all(s);
        }
        assert!(!cache.contains(&key("a")), "the page batch 4 ejected is still cached");
        let row = &bus.edge_rows()[0];
        assert_eq!((row.lag, row.partitioned), (0, false));
        server.shutdown();
    }

    #[test]
    fn a_frame_with_a_gap_inside_applies_nothing_and_acks_the_old_mark() {
        let (cache, endpoint, server) = listening_edge(&["a", "b"]);
        let transport = SocketTransport::new(vec![server.addr()]);
        let b1 = EjectBatch { seq: 1, sync_seq: 1, ts: 1, pages: vec![key("a")] };
        let b3 = EjectBatch { seq: 3, sync_seq: 3, ts: 3, pages: vec![key("b")] };
        let ack = transport.deliver(0, &[b1.clone(), b3], 0).unwrap();
        assert_eq!(ack, Ack { applied_seq: 0 });
        assert!(cache.contains(&key("a")) && cache.contains(&key("b")));
        assert_eq!(endpoint.counters(), Default::default());

        assert_eq!(transport.deliver(0, &[b1], 0).unwrap(), Ack { applied_seq: 1 });
        assert!(!cache.contains(&key("a")) && cache.contains(&key("b")));
        server.shutdown();
    }

    #[test]
    fn a_frame_cut_off_mid_json_gets_no_ack_and_changes_nothing() {
        let (cache, endpoint, server) = listening_edge(&["a"]);
        let batch = EjectBatch { seq: 1, sync_seq: 1, ts: 1, pages: vec![key("a")] };
        let line = encode_frame(&[batch]).unwrap();
        let mut peer = TcpStream::connect(server.addr()).unwrap();
        peer.write_all(&line.as_bytes()[..line.len() / 2]).unwrap();
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        peer.set_read_timeout(Some(3 * FRAME_DEADLINE)).unwrap();
        let mut reply = Vec::new();
        peer.read_to_end(&mut reply).unwrap();
        assert!(reply.is_empty(), "a cut-off frame must not be acked");
        assert!(cache.contains(&key("a")));
        assert_eq!(endpoint.applied_seq(), 0);
        server.shutdown();
    }

    /// A backlog past the line limit goes out as its newest batches that
    /// fit; the edge flushes on the skipped mark and renews this round.
    #[test]
    fn a_backlog_past_the_line_limit_renews_by_flushing() {
        let (cache, endpoint, server) = listening_edge(&["a", "b"]);
        let transport = Arc::new(SocketTransport::new(vec![server.addr()]));
        let bus = InvalidationBus::new(BusConfig::default(), transport, FaultPlan::none());
        bus.register_remote_edge("edge-sock", 0);
        let huge: Vec<PageKey> =
            (0..MAX_FRAME_BYTES / 24).map(|i| key(&format!("shop/product?sku={i:08}"))).collect();
        bus.publish(1, 1, huge);
        bus.publish(2, 2, vec![key("a")]);
        bus.publish(3, 3, vec![]);
        let report = bus.deliver_all(3);
        assert_eq!(report.failed_attempts, 0, "the frame was refused at the edge");
        let row = &bus.edge_rows()[0];
        assert_eq!((row.acked, row.lag, row.partitioned), (3, 0, false));
        assert!(cache.is_empty(), "batch 1 never arrived, so the edge flushed");
        assert_eq!(endpoint.counters().flushed_pages, 2);

        // The next frame starts at the adopted mark and applies in order.
        cache.put(key("c"), "1", 4);
        bus.publish(4, 4, vec![key("c")]);
        bus.deliver_all(4);
        assert!(!cache.contains(&key("c")));
        assert_eq!(endpoint.counters().applied_batches, 1);
        server.shutdown();
    }

    /// A peer that drops SYNs: a listener that never accepts, its backlog
    /// filled by connections held open. An unbounded connect to it retries
    /// for the kernel's SYN timeout (minutes on Linux); the delivery gives
    /// up after the transport's own timeout.
    #[test]
    fn a_peer_that_drops_syns_fails_the_delivery_within_its_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut held = Vec::new();
        let backlog_full = (0..1_000).any(|_| {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
                Ok(conn) => {
                    held.push(conn);
                    false
                }
                Err(e) => e.kind() == ErrorKind::TimedOut,
            }
        });
        assert!(backlog_full, "{} connects, none was left unanswered", held.len());

        let transport = SocketTransport::new(vec![addr]);
        let timeout = transport.timeout;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let batch = EjectBatch { seq: 1, sync_seq: 1, ts: 1, pages: vec![key("a")] };
            let _ = tx.send(transport.deliver(0, &[batch], 0));
        });
        let outcome = rx.recv_timeout(3 * timeout).expect("the delivery outlived its timeout");
        assert_eq!(outcome, Err(TransportError::Unreachable("connect")));
    }
}
