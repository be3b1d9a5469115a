#!/usr/bin/env bash
# Offline tier-1 verification: build, test, lint. No network access is
# required — every external dependency is vendored under vendor/ as a
# path crate, and Cargo.lock is committed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (workspace, offline) =="
cargo test -q --offline --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (deny warnings) =="
# A doc link left pointing at a removed or private item is a broken link,
# and this is the step that says so.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== Criterion benches compile (cargo bench --no-run) =="
# Nothing else builds the bench targets, so an API change under them would
# otherwise surface the next time somebody wants a number.
cargo bench --offline --workspace --no-run

echo "== frozen benchmark compiles through its own manifest =="
# BENCHMARK.json builds portal_load as a package of its own, against the
# signatures it was written to (`PageCache::get -> Option<String>`, `put` of
# a `String`, `admit_page(&key, &response.body, now)`): the workspace build
# above compiles the same main.rs, this is the build the driver makes.
cargo build --release --offline \
  --manifest-path crates/bench/src/bin/portal_load/Cargo.toml \
  --target-dir target/portal_load_manifest

echo "== counted budgets and the admission race (release, one command) =="
# In release, where the allocations and the interleavings are the ones
# production makes (the debug run above makes the same counts and rounds,
# but proves less). Each counting binary installs a counting allocator and
# holds one test:
# - persist_alloc: neither a site's first sync (every row and origin in one
#   window) nor a persist pass that checkpoints holds a copy of the site, at
#   1 000, 4 300 and 16 000 pages, with an allocation count that does not
#   follow the site.
# - page_footprint: the QI/URL map, the registry and the predicate index hold
#   <= 540 bytes in <= 3 blocks per registered storefront page; a pass of
#   duplicate rows registers and keeps nothing; a cache hit allocates one block
#   (its key's text); a page admitted at the origin and two in-process edges
#   puts one body on the heap.
# - analysis_alloc: a sync point that analyses and polls 1 000, 4 000 and
#   16 000 instances of a join type holds one instance's working set at a
#   time, and the engine parses nothing (a poll runs from its tree).
# - statement_alloc: the storefront's four servlet queries, run from a
#   statement a connection keeps prepared, and its 8 000-row bulk load stay
#   within their allocation budgets, exactly repeatably.
# - render_alloc: a page render is a few blocks whatever its row count.
# - request_budget: with observability on, a hit, a miss of each storefront
#   servlet and a site's first sync point allocate exactly their counts
#   (DESIGN §3.1, "What a request costs").
# - concurrency: two readers missing on 400 pages against back-to-back sync
#   points never cache a page without its QI/URL rows, and the storefront's
#   4 300 pages missed from 1, 2 and 4 threads and on a 3-node farm map
#   exactly one row each, under the page that issued it; and a miss parked
#   after its queries, before it is served, across a consuming sync or
#   three mapper runs, is served but not cached (its queries name its page,
#   so its row is mapped at the first of those runs all the same); and a
#   servlet that queries from another thread, its misses interleaved with
#   plain ones against back-to-back sync points, keeps its request window,
#   so every cached page of it has its own row.
cargo test -q --release --offline \
  -p cacheportal --test persist_alloc --test page_footprint --test request_budget \
  -p cacheportal-invalidator --test analysis_alloc \
  -p cacheportal-db --test statement_alloc \
  -p cacheportal-web --test render_alloc \
  -p cacheportal-repro --test concurrency

echo "== fuzz harness smoke (safety contract, all policies x fault classes) =="
# The acceptance matrix: 50 seeds x 40 actions cycling all three
# invalidation policies and every fault class — including
# crash-restart (portal killed mid-trace, recovered from its durable
# journal) and poll-flap (bursty poll failures tripping the circuit
# breaker). Exit 1 on any staleness violation, with the shrunk reproducer
# JSON under target/harness-repros/ (uploaded as a CI artifact). The
# admission race has its own sweep in the workspace tests above
# (fuzz_smoke.rs, split_misses_are_declined_across_sync_points): the same
# scenarios with misses split into BeginMiss / Admit and a mutation, a sync
# point or a crash-restart between the halves, which fails if the admission
# stamp's compare is dropped. Like the other fuzz_smoke sweeps it is off
# under the canary feature below.
./target/release/harness smoke --out target/harness-repros

echo "== examples (server_farm, quickstart, ecommerce_storefront, auction_site) =="
# cargo test compiles the examples but runs none of them. Each of these
# asserts as it goes, and ends on `stale_pages().is_empty()`; server_farm is
# the scripted 4-node walkthrough. sql_repl is interactive and stays out.
for example in server_farm quickstart ecommerce_storefront auction_site; do
  cargo run --release --offline --example "$example"
done

echo "== fuzz harness canary (a broken invalidator must be caught) =="
# Compile the deliberately-unsound invalidator (feature `canary`) and prove
# the harness detects it and emits a replayable shrunk reproducer.
cargo test -q --offline -p cacheportal-harness --features canary

echo "== registered-QI sweep smoke test (sync_scale --qi-sweep --smoke) =="
# Each of the two sync_scale smoke runs appends its record to
# target/sync_scale/BENCH_sync_scale.json (uploaded as a CI artifact); only
# full runs append to the tracked BENCH_sync_scale.json.
# Small-tier predicate-index sweep: each tier runs the identical workload
# with the index on and off and asserts bit-identical verdict/page
# fingerprints (the index may only skip work, never change outcomes). The
# 1M-instance tier with the p95-flatness gate runs nightly.
./target/release/sync_scale --qi-sweep --smoke

echo "== shape-mix precision smoke test (sync_scale --shape-mix --smoke) =="
# Shape-aware vs conservative invalidation over the identical workload: the
# binary asserts on ⊆ off at every sync point, a strict eject reduction on
# top-k and aggregate pages, and byte-identical ejects on conjunctive /
# LIKE / IN pages (index tiers may only skip work). The full mix runs
# nightly and feeds the EXPERIMENTS.md precision table.
./target/release/sync_scale --shape-mix --smoke

echo "== set-up split smoke (setup_split --smoke) =="
# Each workload's set-up shape once: bulk load, misses on one client and on
# two, and the first sync point's stages. Times only; it fails only if a
# request is not answered 200.
./target/release/setup_split --smoke

echo "== end-to-end load smoke (portal_load --smoke) =="
# All four portal_load workloads with 1 s windows, each in a child process,
# through the workspace binary. Every run carries its own correctness gate
# (every response 200, final sync, regenerate-and-compare of origin and edge
# caches); an incorrect run exits non-zero, which fails this script. Writes
# target/portal_load/run.json; no repeatability bounds on a smoke run.
cargo run --release --offline -p cacheportal-bench --bin portal_load -- --seed 1 --smoke

echo "== admin endpoint smoke test (obsctl demo) =="
# Start the demo workload with a live admin server, writing the JSONL
# provenance export CI uploads as an artifact. ADMIN_PORT pins the port
# (default: kernel-assigned ephemeral); a pinned port that is already
# bound fails fast here rather than as a confusing bind error mid-demo.
ADMIN_PORT="${ADMIN_PORT:-0}"
if [ "$ADMIN_PORT" != "0" ]; then
  if (exec 3<>"/dev/tcp/127.0.0.1/$ADMIN_PORT") 2>/dev/null; then
    exec 3>&- 3<&-
    echo "admin port $ADMIN_PORT is already bound; pick another ADMIN_PORT"
    exit 1
  fi
fi
DEMO_LOG=target/obsctl-demo.log
EXPORT=target/obs-export.jsonl
JOURNAL=target/obsctl-demo-journal
rm -rf "$DEMO_LOG" "$EXPORT" "$JOURNAL"
./target/release/obsctl demo --serve "127.0.0.1:$ADMIN_PORT" --hold-secs 60 \
  --export "$EXPORT" --durable "$JOURNAL" >"$DEMO_LOG" 2>&1 &
DEMO_PID=$!
trap 'kill "$DEMO_PID" 2>/dev/null || true' EXIT

ADDR=""
for _ in $(seq 1 50); do
  ADDR=$(sed -n 's/^admin listening on //p' "$DEMO_LOG" | head -n1)
  [ -n "$ADDR" ] && break
  kill -0 "$DEMO_PID" 2>/dev/null \
    || { echo "demo exited before serving"; cat "$DEMO_LOG"; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "admin server never came up"; cat "$DEMO_LOG"; exit 1; }

# The three gates a deploy script would use: a live healthy portal passes
# `health` (exit 0 on HTTP 200), `slo` (non-zero while any burn-rate alert
# fires) and `bus` (non-zero while an edge is partitioned or degraded; the
# demo attaches two edge caches).
for gate in health slo bus; do
  ./target/release/obsctl "$gate" --addr "$ADDR" >/dev/null \
    || { echo "obsctl $gate failed on a healthy demo"; exit 1; }
done

# Every other command reads its route into the document type the server
# rendered it from and exits non-zero on a field it cannot find, so running
# them is the schema check (crates/core/tests/provenance.rs round-trips
# every route byte for byte; what each document must say is asserted there
# and in the crates that own the types).
for cmd in metrics trace timeline "timeline --stable" scorecard "slo --stable --json" \
           "bus --json" durable "blackbox --index"; do
  # shellcheck disable=SC2086  # $cmd is a command and its flags
  ./target/release/obsctl $cmd --addr "$ADDR" >/dev/null \
    || { echo "obsctl $cmd failed"; exit 1; }
done

# The artifacts CI uploads: the timeline as Chrome trace_event JSON
# (chrome://tracing / Perfetto) and an on-demand stable flight-record dump.
CHROME=target/chrome-trace.json
FLIGHT=target/flightrecord-smoke.json
rm -f "$CHROME" "$FLIGHT"
./target/release/obsctl timeline --addr "$ADDR" --chrome "$CHROME"
./target/release/obsctl blackbox --addr "$ADDR" --out "$FLIGHT" --stable

kill "$DEMO_PID" 2>/dev/null || true
wait "$DEMO_PID" 2>/dev/null || true
trap - EXIT

for artifact in "$EXPORT" "$CHROME" "$FLIGHT"; do
  test -s "$artifact" || { echo "$artifact missing or empty"; exit 1; }
done
echo "admin endpoint + JSONL export + tracing surfaces: OK"

echo "verify: OK"
