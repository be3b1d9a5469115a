//! A small deterministic discrete-event simulation engine.
//!
//! The world is a set of **stations** (FIFO multi-server resources: CPUs,
//! worker pools, network links, database servers) and **jobs** (requests,
//! updates, synchronization traffic). A job is a straight-line program of
//! [`Step`]s; `Acquire` blocks in the station's FIFO queue when all workers
//! are busy, and a held worker is released only by an explicit `Release` —
//! which is exactly how a web-server thread holding memory and a database
//! connection while blocked on the DBMS starves later requests (the paper's
//! §5.3.1 observation).
//!
//! Determinism: ties in the event queue break by insertion sequence, and all
//! randomness lives in the workload generators (seeded).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulated time in microseconds.
pub type SimTime = u64;

/// One microsecond per unit; helpers for readability.
pub const MS: SimTime = 1_000;
/// One second in simulation time units.
pub const SEC: SimTime = 1_000_000;

/// Index of a station in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StationId(pub usize);

/// Index of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub usize);

/// One instruction of a job's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Wait for (then hold) one worker of the station.
    Acquire(StationId),
    /// Occupy simulated time. The job must currently hold whatever resources
    /// the modeller intends (the engine does not check — a `Busy` after an
    /// `Acquire` models service, one without models pure latency).
    Busy(SimTime),
    /// Release one previously acquired worker of the station.
    Release(StationId),
    /// Record the current time under a mark index (metrics use marks to
    /// attribute segments, e.g. time spent in the DBMS).
    Mark(u8),
}

/// A FIFO multi-server resource.
#[derive(Debug)]
pub struct Station {
    /// Station name (diagnostics).
    pub name: String,
    workers: usize,
    busy: usize,
    queue: VecDeque<JobId>,
    /// Total worker-microseconds consumed (utilization accounting).
    pub busy_time: u128,
    /// Jobs that ever acquired this station.
    pub acquisitions: u64,
    /// Peak queue length observed.
    pub peak_queue: usize,
}

impl Station {
    fn new(name: &str, workers: usize) -> Self {
        assert!(workers > 0, "station {name} needs at least one worker");
        Station {
            name: name.to_string(),
            workers,
            busy: 0,
            queue: VecDeque::new(),
            busy_time: 0,
            acquisitions: 0,
            peak_queue: 0,
        }
    }

    /// Utilization over `elapsed` (0..=1 per worker).
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_time as f64 / (elapsed as f64 * self.workers as f64)
        }
    }
}

/// Job lifecycle record handed to the completion callback.
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// Job id.
    pub id: JobId,
    /// Modeller-assigned class tag (opaque to the engine).
    pub class: u32,
    /// Spawn time.
    pub created: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Mark timestamps (index → time); unset marks are `None`.
    pub marks: [Option<SimTime>; 8],
}

impl CompletedJob {
    /// Finished minus created.
    pub fn response_time(&self) -> SimTime {
        self.finished - self.created
    }

    /// Duration between two marks, if both were recorded.
    pub fn mark_span(&self, start: u8, end: u8) -> Option<SimTime> {
        match (self.marks[start as usize], self.marks[end as usize]) {
            (Some(a), Some(b)) if b >= a => Some(b - a),
            _ => None,
        }
    }
}

/// A follow-up job spawned when its predecessor completes — the building
/// block of closed-loop (think-time) client models: `delay` after the
/// predecessor finishes, the successor starts.
#[derive(Debug)]
pub struct ChainedJob {
    /// Think time between the predecessor's completion and this job's start.
    pub delay: SimTime,
    /// Class tag of the successor.
    pub class: u32,
    /// Program of the successor.
    pub steps: Vec<Step>,
    /// Its own successor, if any.
    pub next: Option<Box<ChainedJob>>,
}

#[derive(Debug)]
struct Job {
    class: u32,
    steps: Vec<Step>,
    pc: usize,
    created: SimTime,
    marks: [Option<SimTime>; 8],
    /// Time the job last consumed busy time at a station (for utilization
    /// attribution of the *last* Acquire; see `attribute_busy`).
    holding: Vec<StationId>,
    /// Successor spawned on completion (closed-loop chains).
    next: Option<Box<ChainedJob>>,
}

/// The simulation engine.
pub struct Engine {
    stations: Vec<Station>,
    jobs: Vec<Job>,
    /// (time, seq) → job to advance.
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    seq: u64,
    now: SimTime,
    completed: Vec<CompletedJob>,
}

impl Engine {
    /// Create an empty engine.
    pub fn new() -> Self {
        Engine {
            stations: Vec::new(),
            jobs: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            completed: Vec::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a station with `workers` parallel servers.
    pub fn add_station(&mut self, name: &str, workers: usize) -> StationId {
        self.stations.push(Station::new(name, workers));
        StationId(self.stations.len() - 1)
    }

    /// Station by id.
    pub fn station(&self, id: StationId) -> &Station {
        &self.stations[id.0]
    }

    /// All stations.
    pub fn stations(&self) -> &[Station] {
        &self.stations
    }

    /// Schedule a job to start at `at` (absolute time, ≥ now).
    pub fn spawn_at(&mut self, at: SimTime, class: u32, steps: Vec<Step>) -> JobId {
        self.spawn_chain_at(at, class, steps, None)
    }

    /// Schedule a job with a completion-triggered successor chain (used by
    /// closed-loop clients: each user's next request starts `delay` after
    /// the previous response arrived).
    pub fn spawn_chain_at(
        &mut self,
        at: SimTime,
        class: u32,
        steps: Vec<Step>,
        next: Option<Box<ChainedJob>>,
    ) -> JobId {
        let id = JobId(self.jobs.len());
        self.jobs.push(Job {
            class,
            steps,
            pc: 0,
            created: at,
            marks: [None; 8],
            holding: Vec::with_capacity(2),
            next,
        });
        self.schedule(at, id.0);
        id
    }

    fn schedule(&mut self, at: SimTime, job: usize) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, job)));
    }

    /// Run until the event queue is empty or `deadline` passes. Jobs still
    /// in flight at the deadline are abandoned (not recorded as completed).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse((t, _, job))) = self.heap.pop() {
            if t > deadline {
                // Keep the event for a potential continuation run.
                self.schedule(t, job);
                break;
            }
            self.now = t;
            self.advance(job);
        }
    }

    /// Advance one job as far as it can go at the current instant.
    fn advance(&mut self, job_idx: usize) {
        loop {
            let pc = self.jobs[job_idx].pc;
            if pc >= self.jobs[job_idx].steps.len() {
                let job = &self.jobs[job_idx];
                debug_assert!(
                    job.holding.is_empty(),
                    "job finished while holding {:?}",
                    job.holding
                );
                self.completed.push(CompletedJob {
                    id: JobId(job_idx),
                    class: job.class,
                    created: job.created,
                    finished: self.now,
                    marks: job.marks,
                });
                // Closed-loop chains: the successor starts after think time.
                if let Some(chain) = self.jobs[job_idx].next.take() {
                    let ChainedJob {
                        delay,
                        class,
                        steps,
                        next,
                    } = *chain;
                    self.spawn_chain_at(self.now + delay, class, steps, next);
                }
                return;
            }
            match self.jobs[job_idx].steps[pc] {
                Step::Acquire(sid) => {
                    let st = &mut self.stations[sid.0];
                    if st.busy < st.workers {
                        st.busy += 1;
                        st.acquisitions += 1;
                        self.jobs[job_idx].holding.push(sid);
                        self.jobs[job_idx].pc += 1;
                        // fall through: keep advancing at the same instant
                    } else {
                        st.queue.push_back(JobId(job_idx));
                        st.peak_queue = st.peak_queue.max(st.queue.len());
                        return; // resumed by a Release
                    }
                }
                Step::Busy(d) => {
                    self.jobs[job_idx].pc += 1;
                    // Attribute busy time to every held station (a thread
                    // blocked in the DB still occupies its WS/AS worker).
                    for sid in &self.jobs[job_idx].holding {
                        self.stations[sid.0].busy_time += d as u128;
                    }
                    if d == 0 {
                        continue;
                    }
                    self.schedule(self.now + d, job_idx);
                    return;
                }
                Step::Release(sid) => {
                    let holding = &mut self.jobs[job_idx].holding;
                    let pos = holding
                        .iter()
                        .rposition(|h| *h == sid)
                        .unwrap_or_else(|| {
                            panic!(
                                "job releases {} it does not hold",
                                self.stations[sid.0].name
                            )
                        });
                    holding.remove(pos);
                    self.jobs[job_idx].pc += 1;
                    let st = &mut self.stations[sid.0];
                    if let Some(JobId(next)) = st.queue.pop_front() {
                        // Hand the worker directly to the waiter.
                        st.acquisitions += 1;
                        self.jobs[next].holding.push(sid);
                        self.jobs[next].pc += 1; // past its Acquire
                        self.schedule(self.now, next);
                    } else {
                        st.busy -= 1;
                    }
                }
                Step::Mark(m) => {
                    self.jobs[job_idx].marks[m as usize] = Some(self.now);
                    self.jobs[job_idx].pc += 1;
                }
            }
        }
    }

    /// Completed jobs, in completion order.
    pub fn completed(&self) -> &[CompletedJob] {
        &self.completed
    }

    /// Jobs spawned but not completed (queue pressure diagnostics).
    pub fn in_flight(&self) -> usize {
        self.jobs.len() - self.completed.len()
    }

    /// `(class, created)` of every job still in flight — metrics treat these
    /// as right-censored observations (the user was still waiting when the
    /// experiment ended).
    pub fn in_flight_jobs(&self) -> Vec<(u32, SimTime)> {
        let done: std::collections::HashSet<usize> =
            self.completed.iter().map(|c| c.id.0).collect();
        self.jobs
            .iter()
            .enumerate()
            .filter(|(i, _)| !done.contains(i))
            .map(|(_, j)| (j.class, j.created))
            .collect()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_runs_to_completion() {
        let mut e = Engine::new();
        let s = e.add_station("cpu", 1);
        e.spawn_at(
            10,
            0,
            vec![
                Step::Acquire(s),
                Step::Busy(100),
                Step::Release(s),
            ],
        );
        e.run_until(1_000);
        assert_eq!(e.completed().len(), 1);
        let j = &e.completed()[0];
        assert_eq!(j.created, 10);
        assert_eq!(j.finished, 110);
        assert_eq!(j.response_time(), 100);
    }

    #[test]
    fn fifo_queueing_on_single_worker() {
        let mut e = Engine::new();
        let s = e.add_station("cpu", 1);
        for i in 0..3 {
            e.spawn_at(
                i, // nearly simultaneous arrivals
                i as u32,
                vec![Step::Acquire(s), Step::Busy(100), Step::Release(s)],
            );
        }
        e.run_until(10_000);
        let done = e.completed();
        assert_eq!(done.len(), 3);
        // Service is serialized: completions at 100, 200, 300.
        assert_eq!(done[0].finished, 100);
        assert_eq!(done[1].finished, 200);
        assert_eq!(done[2].finished, 300);
        assert_eq!(done[0].class, 0);
        assert_eq!(done[1].class, 1, "FIFO order preserved");
    }

    #[test]
    fn multi_worker_runs_in_parallel() {
        let mut e = Engine::new();
        let s = e.add_station("cpu", 2);
        for i in 0..2 {
            e.spawn_at(0, i, vec![Step::Acquire(s), Step::Busy(100), Step::Release(s)]);
        }
        e.run_until(10_000);
        assert!(e.completed().iter().all(|j| j.finished == 100));
    }

    #[test]
    fn nested_hold_starves_outer_station() {
        // Two-station pipeline: outer has 1 worker held across the inner
        // (slow) service — the second job's response includes the full
        // first-job inner time even though inner has 2 workers.
        let mut e = Engine::new();
        let outer = e.add_station("as", 1);
        let inner = e.add_station("db", 2);
        let program = |_: u32| {
            vec![
                Step::Acquire(outer),
                Step::Busy(10),
                Step::Acquire(inner),
                Step::Busy(1_000),
                Step::Release(inner),
                Step::Release(outer),
            ]
        };
        e.spawn_at(0, 0, program(0));
        e.spawn_at(0, 1, program(1));
        e.run_until(100_000);
        let done = e.completed();
        assert_eq!(done[0].finished, 1_010);
        assert_eq!(done[1].finished, 2_020, "starved by the held outer worker");
    }

    #[test]
    fn marks_record_segments() {
        let mut e = Engine::new();
        let db = e.add_station("db", 1);
        e.spawn_at(
            0,
            0,
            vec![
                Step::Busy(50),
                Step::Mark(0),
                Step::Acquire(db),
                Step::Busy(200),
                Step::Release(db),
                Step::Mark(1),
                Step::Busy(25),
            ],
        );
        e.run_until(10_000);
        let j = &e.completed()[0];
        assert_eq!(j.mark_span(0, 1), Some(200));
        assert_eq!(j.response_time(), 275);
    }

    #[test]
    fn deadline_abandons_in_flight_jobs() {
        let mut e = Engine::new();
        let s = e.add_station("cpu", 1);
        e.spawn_at(0, 0, vec![Step::Acquire(s), Step::Busy(1_000), Step::Release(s)]);
        e.spawn_at(0, 1, vec![Step::Acquire(s), Step::Busy(1_000), Step::Release(s)]);
        e.run_until(1_500);
        assert_eq!(e.completed().len(), 1);
        assert_eq!(e.in_flight(), 1);
    }

    #[test]
    fn utilization_accounting() {
        let mut e = Engine::new();
        let s = e.add_station("cpu", 1);
        e.spawn_at(0, 0, vec![Step::Acquire(s), Step::Busy(400), Step::Release(s)]);
        e.run_until(1_000);
        assert!((e.station(s).utilization(1_000) - 0.4).abs() < 1e-9);
        assert_eq!(e.station(s).acquisitions, 1);
    }

    #[test]
    fn release_hands_worker_to_waiter_at_same_instant() {
        let mut e = Engine::new();
        let s = e.add_station("cpu", 1);
        e.spawn_at(0, 0, vec![Step::Acquire(s), Step::Busy(10), Step::Release(s)]);
        e.spawn_at(1, 1, vec![Step::Acquire(s), Step::Busy(10), Step::Release(s)]);
        e.run_until(1_000);
        assert_eq!(e.completed()[1].finished, 20, "no gap between handoffs");
    }
}
