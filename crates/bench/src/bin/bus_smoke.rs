//! End-to-end smoke of the real-socket bus transport on localhost: two
//! edge caches behind `EdgeServer` TCP listeners, driven by an
//! `InvalidationBus` over `SocketTransport`. Exercises the full wire
//! contract — delivery + ack, idempotent duplicate absorption, partition
//! detection against a dead listener, and watermark catch-up after the
//! listener comes back on the same port.
//!
//! Prints greppable `bus-smoke:` markers and exits 0 only if every stage
//! holds, so `verify.sh` can gate on it.

use cacheportal::bus::socket::{EdgeServer, SocketTransport};
use cacheportal::bus::{BusConfig, BusTransport, EdgeEndpoint, EjectBatch, InvalidationBus};
use cacheportal::cache::{PageCache, PageCacheConfig};
use cacheportal::db::FaultPlan;
use cacheportal::web::PageKey;
use std::sync::Arc;

fn fail(msg: &str) -> ! {
    eprintln!("BUS-SMOKE FAIL: {msg}");
    std::process::exit(1);
}

fn check(cond: bool, msg: &str) {
    if !cond {
        fail(msg);
    }
}

fn key(s: &str) -> PageKey {
    PageKey::raw(s)
}

fn seeded_cache() -> Arc<PageCache> {
    let cache = Arc::new(PageCache::new(PageCacheConfig::default()));
    cache.put(key("a"), "page-a", 1);
    cache.put(key("b"), "page-b", 1);
    cache
}

fn main() {
    // Stage 1: two live edges over real sockets, one delivered batch.
    let caches = [seeded_cache(), seeded_cache()];
    let endpoints: Vec<Arc<EdgeEndpoint>> = caches
        .iter()
        .enumerate()
        .map(|(i, c)| Arc::new(EdgeEndpoint::new(format!("edge-{i}"), c.clone(), 0)))
        .collect();
    let servers: Vec<EdgeServer> = endpoints
        .iter()
        .map(|e| EdgeServer::serve("127.0.0.1:0", e.clone()).unwrap_or_else(|e| {
            fail(&format!("bind edge listener: {e}"));
        }))
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let transport = Arc::new(SocketTransport::new(addrs.clone()));
    let bus = InvalidationBus::new(
        BusConfig {
            max_attempts: 2,
            partition_after: 2,
            ..BusConfig::default()
        },
        transport.clone(),
        FaultPlan::none(),
    );
    for (i, _) in endpoints.iter().enumerate() {
        bus.register_remote_edge(&format!("edge-{i}"), 0);
    }

    bus.publish(1, 10, vec![key("a")]);
    let report = bus.deliver_all(10);
    check(report.deliveries_ok == 2, "both edges must ack batch 1");
    for (i, cache) in caches.iter().enumerate() {
        check(!cache.contains(&key("a")), "delivered eject must land");
        let row = &bus.edge_rows()[i];
        check(row.acked == 1 && row.lag == 0, "edge must be caught up");
    }
    println!("bus-smoke: delivery ok (2 edges acked seq 1 over TCP)");

    // Stage 2: redeliver batch 1 over the wire — absorbed idempotently.
    let dup = EjectBatch {
        seq: 1,
        sync_seq: 1,
        ts: 10,
        pages: vec![key("a")],
    };
    match BusTransport::deliver(transport.as_ref(), 0, &dup, 1) {
        Ok(ack) => check(ack.applied_seq == 1, "duplicate must re-ack seq 1"),
        Err(_) => fail("duplicate redelivery must succeed"),
    }
    check(
        endpoints[0].counters().absorbed_duplicates == 1,
        "edge must count the absorbed duplicate",
    );
    println!("bus-smoke: duplicate absorbed idempotently");

    // Stage 3: kill edge-1's listener; the bus must mark it partitioned
    // while edge-0 keeps renewing.
    let mut servers = servers;
    servers.pop().unwrap().shutdown();
    bus.publish(2, 20, vec![key("b")]);
    bus.deliver_all(20);
    let report = bus.deliver_all(21);
    check(
        report.newly_partitioned == vec!["edge-1".to_string()],
        "dead listener must be detected as partitioned",
    );
    check(bus.partitioned_count() == 1, "exactly one partitioned edge");
    let rows = bus.edge_rows();
    check(rows[0].lag == 0, "live edge must stay current");
    check(rows[1].lag > 0, "dead edge must lag");
    check(caches[1].contains(&key("b")), "undelivered eject still cached");
    println!("bus-smoke: partition detected (edge-1 lag {})", rows[1].lag);

    // Stage 4: bring the listener back on the same port; the next round
    // replays everything past the acked watermark.
    let revived = EdgeServer::serve(&addrs[1].to_string(), endpoints[1].clone())
        .unwrap_or_else(|e| fail(&format!("rebind edge listener: {e}")));
    let report = bus.deliver_all(30);
    check(report.healed.contains(&"edge-1".to_string()), "edge must heal");
    let rows = bus.edge_rows();
    check(
        rows[1].acked == 2 && rows[1].lag == 0,
        "healed edge must catch up to the watermark",
    );
    check(!caches[1].contains(&key("b")), "catch-up must apply the eject");
    check(bus.partitioned_count() == 0, "no partitioned edges after heal");
    println!("bus-smoke: catch-up ok (edge-1 acked seq 2 after rebind)");

    revived.shutdown();
    for s in servers {
        s.shutdown();
    }
    println!("BUS-SMOKE PASS");
}
