//! Bench-side spans: one per call into the program (live run) or into a
//! layer's public function (shadow replay). Spans stay in memory and are
//! written to `target/portal_load/trace_<workload>.json` when the run ends.
//! Tracing inside the program itself is a later change (ROADMAP 5a).

use std::io::Write;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `db.query` or `live.request`.
    pub name: &'static str,
    /// Start of the interval.
    pub start_ns: u64,
    /// End of the interval.
    pub end_ns: u64,
    /// Index + 1 of the span that caused this one, 0 for a root.
    pub parent: u32,
    /// Identifier shared by every span of one request / update / sync.
    pub request: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nested span recorder for single-threaded replays: `enter` opens a child
/// of whatever span is open, `exit` closes it.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Start a new request: spans opened from here on carry its identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request: self.request,
        });
        self.open.push(self.spans.len() as u32);
        // Read the clock last so bookkeeping is charged to the parent.
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.last_mut().expect("just pushed").start_ns = now;
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.open.pop().expect("exit without enter") as usize - 1;
        self.spans[idx].end_ns = now;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Bounded recorder for the live run's root spans: keeps the newest
/// `capacity` spans of a thread, so a traced request costs the same whether
/// the run makes a thousand calls or ten million.
pub struct Ring {
    spans: Vec<Span>,
    capacity: usize,
    next: usize,
    /// Spans overwritten because the ring was full.
    pub overwritten: u64,
}

impl Ring {
    /// A ring holding up to `capacity` spans (allocated up front).
    pub fn new(capacity: usize) -> Ring {
        Ring {
            spans: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            overwritten: 0,
        }
    }

    /// Record one root span.
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request: u64) {
        let span = Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
            request,
        };
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.spans[self.next] = span;
            self.next = (self.next + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// The retained spans, oldest first.
    pub fn into_spans(mut self) -> Vec<Span> {
        self.spans.rotate_left(self.next);
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent > 0 {
            let p = &spans[s.parent as usize - 1];
            let covered = s
                .end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns));
            let slot = &mut own[s.parent as usize - 1];
            *slot = slot.saturating_sub(covered);
        }
    }
    own
}

/// Total and self time per span name, in first-appearance order:
/// `(name, calls, total_ns, self_ns)`.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let own = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(own) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += self_ns;
            }
            None => rows.push((s.name, 1, s.duration_ns(), self_ns)),
        }
    }
    rows
}

/// Write the span groups as one JSON document:
/// `{"workload":…, "groups":[{"group":…, "overwritten":…, "spans":[[name,start,end,parent,request],…]}]}`.
pub fn write_file(
    path: &std::path::Path,
    workload: &str,
    groups: &[(String, u64, Vec<Span>)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"groups\":["
    )?;
    for (g, (group, overwritten, spans)) in groups.iter().enumerate() {
        if g > 0 {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n{{\"group\":\"{group}\",\"overwritten\":{overwritten},\"spans\":["
        )?;
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(
                w,
                "[\"{}\",{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, s.parent, s.request
            )?;
        }
        w.write_all(b"]}")?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", 0, 1000, 0),
            span("web.handle", 100, 900, 1),
            span("db.query", 200, 700, 2),
            span("cache.put", 900, 950, 1),
        ];
        assert_eq!(self_times(&spans), vec![150, 300, 500, 50]);
        let rows = by_name(&spans);
        assert_eq!(rows[1], ("web.handle", 1, 800, 300));
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        let mut r = Recorder::new();
        r.next_request();
        r.enter("request");
        r.enter("web.key");
        r.exit();
        r.enter("web.handle");
        r.enter("db.query");
        r.exit();
        r.exit();
        r.exit();
        r.next_request();
        r.enter("request");
        r.exit();
        let s = r.spans();
        let shape: Vec<_> = s.iter().map(|x| (x.name, x.parent, x.request)).collect();
        assert_eq!(
            shape,
            vec![
                ("request", 0, 1),
                ("web.key", 1, 1),
                ("web.handle", 1, 1),
                ("db.query", 3, 1),
                ("request", 0, 2)
            ]
        );
        for x in s {
            assert!(x.end_ns >= x.start_ns);
        }
        assert!(s[3].start_ns >= s[2].start_ns && s[3].end_ns <= s[2].end_ns);
    }

    #[test]
    fn ring_keeps_the_newest_spans_in_order() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push("live.request", i, i + 1, i);
        }
        assert_eq!(ring.overwritten, 2);
        let kept: Vec<u64> = ring.into_spans().iter().map(|s| s.request).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }
}
