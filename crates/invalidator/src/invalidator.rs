//! The invalidator orchestrator (§4, Figure 11): at each synchronization
//! point it (1) scans the QI/URL map for new query instances, (2) pulls the
//! update log into Δ⁺/Δ⁻ deltas, (3) decides which instances are affected —
//! locally where possible, by polling queries where not — and (4) emits the
//! set of page keys to eject from the caches.

use crate::analysis::{
    AggSpec, BatchImpact, PollingQuery, RuleOutcome, RuleWork, TopKPlan, TupleImpact,
    TypeAnalysis,
};
use crate::breaker::{BreakerDecision, CircuitBreaker, TypeObservation};
use crate::delta::{DeltaGroupStat, DeltaSet};
use crate::policy::{InvalidationPolicy, PolicyConfig, PolicyStore, MAX_OR_TERMS_PER_POLL};
use crate::polling::{
    InfoManager, PollAnswer, PollRunner, PollStats, POLL_MAX_RETRIES, POLL_RETRY_BUDGET_PER_TYPE,
};
use crate::predicate_index::Probe;
use crate::query_type::{QueryShape, QueryTypeId, Registry};
use cacheportal_db::{Database, DbError, DbResult, Lsn, Value};
use cacheportal_sniffer::QiUrlMap;
use cacheportal_web::PageKey;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// An instance judged affected: its type, its parameter values (a clone of
/// the registry's key for it) and the verdict.
type Affected = (QueryTypeId, Arc<[Value]>, VerdictCause);

/// How an instance was judged affected (the provenance verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// Local predicate evaluation alone proved impact — no poll needed.
    LocalPredicate,
    /// A residual polling query issued to the DBMS found matching rows.
    PollingQuery,
    /// An identical poll earlier in the sync point already answered yes.
    PollCache,
    /// A maintained join-attribute index answered the poll.
    MaintainedIndex,
    /// The correlated-delete guard flipped a negative poll to affected.
    DeleteGuard,
    /// The poll budget was exhausted; degraded to Conservative.
    BudgetDegraded,
    /// Conservative policy: local checks passed, poll skipped.
    Conservative,
    /// Table-level policy: any update to a read table invalidates.
    TableLevel,
    /// The instance could not be analysed against the current schema — its
    /// type no longer compiles, its values do not bind, a conjunct names a
    /// column that is gone, or a poll the engine rejects — so it was assumed
    /// affected; the detail names the error. Failed safe.
    BindFailure,
    /// A polling query failed (error or timeout); the instance was assumed
    /// affected rather than risk a stale page. The conservative fallback
    /// for poll faults — faults may only over-invalidate.
    PollFault,
    /// The circuit breaker is open for this query type: the polling path
    /// was judged unhealthy, so the type was degraded to the paper's
    /// no-polling conservative policy until a half-open probe succeeds.
    BreakerDegraded,
    /// Recovery ejected this page conservatively: it was cached inside the
    /// gap between the last durable checkpoint and the crash, so its
    /// dependencies cannot be proven — eject rather than risk staleness.
    RecoveryGap,
    /// A TopK (ORDER BY + LIMIT) instance: a delta tuple lands at or inside
    /// the instance's post-batch top-k boundary value, so it can enter or
    /// displace the bounded result.
    TopKBoundary,
    /// An Aggregate instance: matching delta tuples change (or cannot be
    /// proven not to change) the aggregate values the page displays.
    AggregateDelta,
}

impl VerdictKind {
    /// Stable kebab-case name used in provenance records and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            VerdictKind::LocalPredicate => "local-predicate",
            VerdictKind::PollingQuery => "polling-query",
            VerdictKind::PollCache => "poll-cache",
            VerdictKind::MaintainedIndex => "maintained-index",
            VerdictKind::DeleteGuard => "delete-guard",
            VerdictKind::BudgetDegraded => "budget-degraded",
            VerdictKind::Conservative => "conservative",
            VerdictKind::TableLevel => "table-level",
            VerdictKind::BindFailure => "bind-failure",
            VerdictKind::PollFault => "poll-fault",
            VerdictKind::BreakerDegraded => "breaker-degraded",
            VerdictKind::RecoveryGap => "recovery-gap",
            VerdictKind::TopKBoundary => "topk-boundary",
            VerdictKind::AggregateDelta => "aggregate-delta",
        }
    }
}

impl From<PollAnswer> for VerdictKind {
    fn from(a: PollAnswer) -> Self {
        match a {
            PollAnswer::Issued => VerdictKind::PollingQuery,
            PollAnswer::FromCache => VerdictKind::PollCache,
            PollAnswer::FromIndex => VerdictKind::MaintainedIndex,
            PollAnswer::DeleteGuard => VerdictKind::DeleteGuard,
        }
    }
}

/// Verdict kind plus free-form detail (polling SQL, predicate context, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictCause {
    /// What decided the instance was affected.
    pub kind: VerdictKind,
    /// Human-readable supporting detail.
    pub detail: String,
}

/// One affected query instance with its verdict and dependent pages —
/// the invalidator's half of an eject provenance chain.
#[derive(Debug, Clone)]
pub struct InstanceVerdict {
    /// The matched query type.
    pub type_id: QueryTypeId,
    /// The type's parameterised SQL.
    pub type_sql: String,
    /// Bound parameter values of the affected instance.
    pub params: Arc<[Value]>,
    /// Why the instance was judged affected.
    pub cause: VerdictCause,
    /// Pages depending on the instance (ejected as a consequence).
    pub pages: Vec<PageKey>,
}

/// What one synchronization point produced.
#[derive(Debug, Default, Clone)]
pub struct InvalidationReport {
    /// Pages to eject from the caches.
    pub pages: HashSet<PageKey>,
    /// Per affected instance: matched type, parameters, verdict, pages.
    /// Feeds the provenance log; one entry per `invalidated_instances`.
    pub verdicts: Vec<InstanceVerdict>,
    /// Inclusive LSN range of the update-log records consumed (None when
    /// the log was empty).
    pub lsn_range: Option<(Lsn, Lsn)>,
    /// Per-table ΔR group sizes of the consumed batch, sorted by table.
    pub delta_groups: Vec<DeltaGroupStat>,
    /// Query instances found affected.
    pub invalidated_instances: u64,
    /// Instances examined.
    pub checked_instances: u64,
    /// Delta tuples processed (tuple × occurrence pairs analyzed).
    pub tuples_analyzed: u64,
    /// New QI/URL rows registered this run.
    pub registered: u64,
    /// Log records consumed.
    pub records_consumed: u64,
    /// Polling statistics.
    pub polls: PollStats,
    /// Poll decisions degraded to Conservative by the budget.
    pub degraded_by_budget: u64,
    /// Canonical SQL of types newly marked non-cacheable by policy
    /// discovery.
    pub newly_non_cacheable: Vec<String>,
    /// Instances that could not be analysed against the current schema
    /// ([`VerdictKind::BindFailure`]); their pages are conservatively ejected.
    pub bind_failures: u64,
    /// Delta-tuple/batch decisions resolved purely by local analysis
    /// (`NoImpact` or `Affected` without a polling query) — each of these is
    /// a poll the local check avoided (§4.2).
    pub local_decisions: u64,
    /// Wall-clock time the sync point took (the paper's per-type
    /// "average and maximum invalidation times" statistic, aggregated).
    pub elapsed: std::time::Duration,
    /// Stage timing: online registration scan of the QI/URL map (§4.1.2).
    pub registration_micros: u64,
    /// Stage timing: update-log pull + delta build + index maintenance.
    pub delta_micros: u64,
    /// Stage timing: affected-instance analysis (local checks + polls).
    pub analysis_micros: u64,
    /// Stage timing: page collection + policy discovery bookkeeping.
    pub collect_micros: u64,
    /// Poll decisions that fell back to [`VerdictKind::PollFault`] because
    /// the polling query errored or timed out (after exhausting retries).
    pub poll_faults: u64,
    /// Verdicts forced to the conservative policy by an open breaker.
    pub breaker_degraded: u64,
    /// Breaker transitions this sync point: types that tripped open.
    pub breaker_opened: u64,
    /// Breaker transitions this sync point: open → half-open probes.
    pub breaker_half_opened: u64,
    /// Breaker transitions this sync point: successful probes that closed.
    pub breaker_closed: u64,
    /// Types currently open (degraded) after this sync point.
    pub breaker_open_types: u64,
    /// Types currently half-open (probing) after this sync point.
    pub breaker_half_open_types: u64,
    /// Per-query-type outcome of this sync point, sorted by type id;
    /// feeds the portal's cost/benefit scorecards.
    pub per_type: Vec<TypeSyncStat>,
    /// Candidate instances the predicate index handed to the analysis loop
    /// (instances that still ran the full local-check/poll decision).
    pub index_candidates: u64,
    /// Registered instances the predicate index proved unaffected and
    /// skipped without analysis — the sublinear win.
    pub index_skipped: u64,
    /// Instances scanned through the residual fallback (type unclassifiable
    /// or a residual occurrence touched): the index could not narrow them.
    pub index_residual_scanned: u64,
    /// Candidate types narrowed by an index probe this sync point.
    pub index_probed_types: u64,
    /// Candidate types that fell back to the full scan this sync point.
    pub index_residual_types: u64,
    /// Wall-clock microseconds spent probing the predicate index.
    pub index_probe_micros: u64,
    /// Live instances interned in the predicate index after this sync.
    pub index_size: u64,
    /// Cumulative index maintenance time (registration inserts + eviction
    /// removals), microseconds.
    pub index_maintenance_micros: u64,
    /// Differential-mode divergences: `(type, params)` pairs judged
    /// affected by exactly one of {indexed run, scan re-run}. Always 0 for
    /// a sound index; only populated when
    /// [`InvalidatorConfig::index_differential`] is set.
    pub index_divergences: u64,
    /// TopK instances the boundary rule kept cached: every matching delta
    /// tuple was provably beyond the instance's post-batch top-k boundary,
    /// where the conventional local check would have ejected.
    pub shape_topk_skipped: u64,
    /// Aggregate instances the value-preserving rule kept cached: matching
    /// tuples netted to zero on every group and tracked aggregate.
    pub shape_agg_skipped: u64,
    /// Boundary polls the top-k rule ran: one bounded ORDER BY/LIMIT query
    /// per TopK instance that reached the rule this sync point.
    pub shape_boundary_polls: u64,
    /// Pages the aggregate value-preserving rule kept cached this sync
    /// point (sorted, deduplicated, minus pages ejected anyway). The
    /// netting proof compares the interval's *endpoint* states, so it only
    /// covers pages generated before the interval — the orchestrator must
    /// eject any of these that were admitted mid-interval, where a
    /// cancelled insert/delete pair can leave a transient state baked into
    /// the page.
    pub netted_pages: Vec<PageKey>,
}

/// One query type's share of a sync point (see
/// [`InvalidationReport::per_type`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TypeSyncStat {
    /// The query type.
    pub id: QueryTypeId,
    /// Polling queries attempted for this type (issued + answered from the
    /// poll cache/index).
    pub polls_attempted: u64,
    /// Polls that faulted after retries.
    pub poll_faults: u64,
    /// Wall-clock analysis time, microseconds (nondeterministic).
    pub analysis_micros: u64,
    /// Instances the predicate index handed to the analysis loop for this
    /// type (candidates that still ran the full decision).
    pub index_candidates: u64,
    /// Instances the predicate index skipped for this type.
    pub index_skipped: u64,
    /// Instances scanned via the residual fallback for this type.
    pub index_residual: u64,
    /// The type's query shape (classifier verdict, fixed at registration).
    pub shape: QueryShape,
    /// Instances a shape rule (top-k boundary / aggregate delta) kept
    /// cached this sync point where the conventional path would eject.
    pub shape_skipped: u64,
}

/// Invalidator configuration.
#[derive(Debug, Clone)]
pub struct InvalidatorConfig {
    /// Policy configuration (defaults, budget, discovery rules).
    pub policy: PolicyConfig,
    /// Fault-injection plan for polling queries (harness only; the default
    /// plan is inert). Installed into every sync point's [`PollRunner`].
    pub fault: cacheportal_db::FaultPlan,
    /// Probe the predicate index before scanning a type's instances (on by
    /// default). The index only ever *skips* instances whose indexed
    /// conjunct is provably false for every delta tuple — verdicts are
    /// identical with it off, just slower at high instance counts.
    pub predicate_index: bool,
    /// Index-vs-scan differential mode (harness/CI): after the indexed
    /// analysis, re-run the whole batch with the index disabled and count
    /// `(type, params)` affected-set divergences into
    /// [`InvalidationReport::index_divergences`]. Both passes walk the same
    /// types and instances in the same order, and an instance the index
    /// skips is decided locally without a poll, so a per-sync poll budget
    /// is spent alike in both. Expensive — every sync point analyzes twice.
    pub index_differential: bool,
    /// Per-shape decision rules (on by default): TopK instances compare
    /// delta tuples against their post-batch top-k boundary, Aggregate
    /// instances run the value-preserving delta judgement. Both may only
    /// *keep pages cached* that the conventional path would eject (or
    /// relabel a verdict's provenance) — never invalidate more; turning
    /// the flag off restores the conservative pre-shape behavior exactly.
    pub shape_rules: bool,
}

impl Default for InvalidatorConfig {
    fn default() -> Self {
        InvalidatorConfig {
            policy: PolicyConfig::default(),
            fault: cacheportal_db::FaultPlan::default(),
            predicate_index: true,
            index_differential: false,
            shape_rules: true,
        }
    }
}

/// One analyzed query type's results.
struct TypeOutcome {
    affected: Vec<Affected>,
    /// The type's share of the sync point.
    stat: TypeSyncStat,
    /// Whether `stat.analysis_micros` goes into the type's running stats;
    /// false for table-level types, whose time was never recorded.
    timed: bool,
}

/// How one query type's instances are decided, chosen once per type.
enum Decider<'a> {
    /// Table-level policy: every instance goes, with this detail.
    TableLevel(String),
    /// TopK boundary rule, the conventional loop where it does not apply.
    TopK(&'a TopKPlan),
    /// Aggregate value-preserving rule, likewise.
    Aggregate(&'a AggSpec),
    /// The paper's per-occurrence local checks and polls.
    Conventional,
}

/// One query type under analysis: the policy it runs under and what it has
/// spent and counted so far.
struct TypeRun {
    policy: InvalidationPolicy,
    breaker_degraded: bool,
    /// Retries left to the type this sync point.
    retry_budget: u64,
    stat: TypeSyncStat,
}

/// One instance under analysis: what was compiled of its type, and its
/// parameter values. Nothing is built for it.
#[derive(Clone, Copy)]
struct Instance<'a> {
    ty: &'a TypeAnalysis,
    params: &'a [Value],
}

/// What one sync point's analysis reads, borrowed for the length of the
/// stage, and the poll runner it polls through: the decision functions are
/// its methods.
struct SyncContext<'a> {
    registry: &'a Registry,
    policies: &'a PolicyStore,
    config: &'a InvalidatorConfig,
    info: &'a InfoManager,
    runner: PollRunner<'a>,
    db: &'a Database,
    deltas: &'a DeltaSet,
    /// Types whose breaker is open this sync point.
    degraded: &'a HashSet<QueryTypeId>,
    /// Probe the predicate index before scanning a type's instances (off in
    /// the differential shadow pass).
    use_index: bool,
}

/// The CachePortal invalidator.
///
/// ```
/// use cacheportal_db::Database;
/// use cacheportal_invalidator::{Invalidator, InvalidatorConfig};
/// use cacheportal_sniffer::QiUrlMap;
/// use cacheportal_web::PageKey;
///
/// let mut db = Database::new();
/// db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)").unwrap();
/// let mut inv = Invalidator::new(InvalidatorConfig::default());
/// inv.start_from(db.high_water());
///
/// // The sniffer found that URL1 depends on this query instance:
/// let map = QiUrlMap::new();
/// map.insert("SELECT * FROM Car WHERE price < 20000",
///            PageKey::raw("URL1"), "cars".into());
///
/// // A backend update lands; the next sync point names the stale page.
/// db.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)").unwrap();
/// let report = inv.run_sync_point(&db, &map).unwrap();
/// assert!(report.pages.contains(&PageKey::raw("URL1")));
/// ```
pub struct Invalidator {
    registry: Registry,
    info: InfoManager,
    policies: PolicyStore,
    config: InvalidatorConfig,
    consumed_lsn: Lsn,
    map_cursor: u64,
    breaker: CircuitBreaker,
    /// After crash recovery: update records at or below this LSN are
    /// already reflected in the re-bootstrapped maintained indexes, so the
    /// first overlapping batch must not re-apply their deltas to the
    /// indexes (analysis still sees them and re-ejects conservatively).
    index_floor: Lsn,
}

impl Invalidator {
    /// Create an invalidator with the given configuration.
    pub fn new(config: InvalidatorConfig) -> Self {
        Invalidator {
            registry: Registry::new(),
            info: InfoManager::new(),
            policies: PolicyStore::new(),
            config,
            consumed_lsn: 0,
            map_cursor: 0,
            breaker: CircuitBreaker::new(),
            index_floor: 0,
        }
    }

    /// The poll-path circuit breaker (read-only view for metrics/health).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Declare that maintained indexes were bootstrapped from a database
    /// state that already includes every update record at or below `lsn`.
    /// Used by crash recovery, where the recovered cursor trails the log.
    pub fn set_index_floor(&mut self, lsn: Lsn) {
        self.index_floor = lsn;
    }

    /// The query-type/instance registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The information-management module (maintained indexes).
    pub fn info(&self) -> &InfoManager {
        &self.info
    }

    /// The active configuration.
    pub fn config(&self) -> &InvalidatorConfig {
        &self.config
    }

    /// Mutable configuration access: the harness flips policies and fault
    /// plans between sync points.
    pub fn config_mut(&mut self) -> &mut InvalidatorConfig {
        &mut self.config
    }

    /// Update-log position consumed so far.
    pub fn consumed_lsn(&self) -> Lsn {
        self.consumed_lsn
    }

    /// Start consuming the update log at `lsn`, skipping earlier records.
    /// Deployments call this with the log's high-water mark at attach time
    /// so that historical loads (bulk seeding) are not treated as updates.
    pub fn start_from(&mut self, lsn: Lsn) {
        self.consumed_lsn = self.consumed_lsn.max(lsn);
    }

    /// Off-line policy registration (§4.1.3).
    pub fn set_policy(&mut self, id: QueryTypeId, policy: InvalidationPolicy) {
        self.policies.set_override(id, policy);
    }

    /// Start maintaining a join-attribute index inside the invalidator.
    pub fn maintain_index(&mut self, db: &Database, table: &str, column: &str) -> DbResult<()> {
        self.info.maintain_index(db, table, column)
    }

    /// Run one synchronization point against the database and the sniffer's
    /// QI/URL map. Returns the invalidation report; the caller delivers
    /// `report.pages` to the caches as eject messages.
    ///
    /// Takes `&Database`: the sync point only *reads* the DBMS (update
    /// log + read-only polling queries).
    ///
    /// The stages run in order, each filling its part of the report:
    /// register, delta, analyse, collect. An empty update log ends the sync
    /// point after the delta stage.
    ///
    /// Returns `Ok` on every path: an instance that cannot be analysed is a
    /// [`VerdictKind::BindFailure`] verdict (affected), never an error, so
    /// every update the delta stage consumes is judged. The `Result` stays
    /// for callers written against it.
    pub fn run_sync_point(
        &mut self,
        db: &Database,
        map: &QiUrlMap,
    ) -> DbResult<InvalidationReport> {
        let started = std::time::Instant::now();
        let mut report = InvalidationReport::default();
        self.register(map, &mut report);
        report.registration_micros = started.elapsed().as_micros() as u64;
        if let Some(deltas) = self.pull_deltas(db, &mut report) {
            // The types the batch can affect, in stable type-id order: what
            // the later stages walk.
            let mut candidate_types: Vec<QueryTypeId> = deltas
                .touched_tables()
                .flat_map(|t| self.registry.types_reading(t).iter().copied())
                .collect();
            candidate_types.sort_unstable();
            candidate_types.dedup();
            let analysis_started = std::time::Instant::now();
            let affected = self.analyze_batch(db, &deltas, &candidate_types, &mut report);
            report.analysis_micros = analysis_started.elapsed().as_micros() as u64;
            self.collect(&candidate_types, affected, &mut report);
        }
        report.breaker_open_types = self.breaker.open_count();
        report.breaker_half_open_types = self.breaker.half_open_count();
        let istats = self.registry.index_stats();
        report.index_size = istats.entries;
        report.index_maintenance_micros = istats.maintenance_micros;
        report.elapsed = started.elapsed();
        Ok(report)
    }

    /// Stage 1: online registration scan of the QI/URL map (§4.1.2). The
    /// rows are read in place, under the map's lock; what the registry keeps
    /// of one is clones of its page key and its parameter vector, which
    /// share the map's allocations.
    fn register(&mut self, map: &QiUrlMap, report: &mut InvalidationReport) {
        let registry = &mut self.registry;
        self.map_cursor = map.visit_since(self.map_cursor, |row| {
            let typed = row.instance();
            registry.register_typed(&typed.template, typed.params.clone(), row.page_key().clone());
            report.registered += 1;
        });
    }

    /// Stage 2: pull the update log and build deltas (§4.2.1), advance
    /// `consumed_lsn` past them and bring the maintained indexes to the
    /// post-batch state. `None` when the log holds nothing new. The log
    /// hands out a borrowed slice; `DeltaSet::from_records` clones only the
    /// rows it groups, so the records themselves are never copied.
    fn pull_deltas(&mut self, db: &Database, report: &mut InvalidationReport) -> Option<DeltaSet> {
        let delta_started = std::time::Instant::now();
        let records: &[cacheportal_db::LogRecord] =
            db.update_log().pull_since(self.consumed_lsn);
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            report.delta_micros = delta_started.elapsed().as_micros() as u64;
            return None;
        };
        let deltas = DeltaSet::from_records(records);
        report.records_consumed = records.len() as u64;
        report.lsn_range = Some((first.lsn, last.lsn));
        report.delta_groups = deltas.group_stats();
        self.consumed_lsn = deltas.next_lsn.max(self.consumed_lsn);

        // Maintained indexes must reflect the post-batch state before any
        // poll is answered from them. After recovery the first batch can
        // overlap `index_floor`: those records were already in the base
        // tables when the indexes were re-bootstrapped, so only the fresh
        // tail is applied (double-applying would corrupt index counts).
        if self.index_floor == 0 {
            self.info.apply_deltas(&deltas);
        } else {
            let floor = self.index_floor;
            let fresh: Vec<cacheportal_db::LogRecord> =
                records.iter().filter(|r| r.lsn > floor).cloned().collect();
            if !fresh.is_empty() {
                self.info.apply_deltas(&DeltaSet::from_records(&fresh));
            }
            if self.consumed_lsn > floor {
                self.index_floor = 0;
            }
        }
        report.delta_micros = delta_started.elapsed().as_micros() as u64;
        Some(deltas)
    }

    /// Stage 3: analyze one delta batch on the calling thread; returns
    /// affected (type, params, verdict) triples in candidate-type order.
    fn analyze_batch(
        &mut self,
        db: &Database,
        deltas: &DeltaSet,
        candidate_types: &[QueryTypeId],
        report: &mut InvalidationReport,
    ) -> Vec<Affected> {
        let poll_runner = || {
            PollRunner::new(&self.info, deltas)
                .with_fault_plan(self.config.fault.clone())
                .with_retry(POLL_MAX_RETRIES)
        };

        // Compiled once per type, here, where the registry is still ours to
        // change: the analysis reads it.
        for &id in candidate_types {
            self.registry.refresh_analysis(id, db);
        }

        // Breaker decisions are taken up front, before any type is
        // analysed: the index-differential shadow pass sees the same
        // per-type decisions as the real one.
        let degraded: HashSet<QueryTypeId> = (candidate_types.iter().copied())
            .filter(|&id| self.breaker.decision(id) == BreakerDecision::Degrade)
            .collect();

        let mut ctx = SyncContext {
            registry: &self.registry,
            policies: &self.policies,
            config: &self.config,
            info: &self.info,
            runner: poll_runner(),
            db,
            deltas,
            degraded: &degraded,
            use_index: self.config.predicate_index,
        };
        let type_outcomes = ctx.analyze_types(candidate_types, report);
        report.polls = ctx.runner.stats();

        // Index-vs-scan differential mode: re-run the whole batch with the
        // index disabled against a fresh runner (same fault plan —
        // `poll_fault(key, attempt)` is a pure function, and index-skipped
        // instances never poll, so both passes see identical poll
        // outcomes) and count affected-set divergences. The shadow pass
        // reuses the up-front breaker decisions, counts into a report of
        // its own and touches no registry/breaker state, so enabling the
        // mode never changes what the sync point ejects.
        if self.config.index_differential && self.config.predicate_index {
            let shadow = SyncContext { runner: poll_runner(), use_index: false, ..ctx }
                .analyze_types(candidate_types, &mut InvalidationReport::default());
            let instances_of = |types: &[TypeOutcome]| -> BTreeSet<(QueryTypeId, Arc<[Value]>)> {
                types
                    .iter()
                    .flat_map(|t| t.affected.iter().map(|(id, p, _)| (*id, p.clone())))
                    .collect()
            };
            report.index_divergences = instances_of(&shadow)
                .symmetric_difference(&instances_of(&type_outcomes))
                .count() as u64;
        }

        // Each outcome's stat is its type's whole share: the report's
        // per-type tallies are their sums, and `per_type` is the stats in
        // order.
        let mut affected: Vec<Affected> = Vec::new();
        let mut observations: HashMap<QueryTypeId, TypeObservation> = HashMap::new();
        for TypeOutcome { affected: of_type, stat, timed } in type_outcomes {
            affected.extend(of_type);
            report.poll_faults += stat.poll_faults;
            report.index_candidates += stat.index_candidates;
            report.index_skipped += stat.index_skipped;
            report.index_residual_scanned += stat.index_residual;
            match stat.shape {
                QueryShape::TopK => report.shape_topk_skipped += stat.shape_skipped,
                QueryShape::Aggregate => report.shape_agg_skipped += stat.shape_skipped,
                _ => {}
            }
            let (polls_attempted, poll_faults) = (stat.polls_attempted, stat.poll_faults);
            observations.insert(stat.id, TypeObservation { polls_attempted, poll_faults });
            if timed {
                self.registry.get_mut(stat.id).stats.record_analysis(stat.analysis_micros);
            }
            report.per_type.push(stat);
        }

        // Advance the breaker with the sync point's per-type evidence.
        let events = self.breaker.observe_sync(&observations);
        report.breaker_opened = events.opened;
        report.breaker_half_opened = events.half_opened;
        report.breaker_closed = events.closed;

        // Deliberately broken invalidation for harness acceptance: drop
        // every other affected instance so some stale pages survive sync
        // points. MUST never be enabled in a real build — the feature
        // exists to prove the fuzzer catches safety violations.
        #[cfg(feature = "canary")]
        {
            let mut keep = false;
            affected.retain(|_| {
                keep = !keep;
                keep
            });
        }
        affected
    }

    /// Stage 4: collect the affected instances' dependent pages, keeping the
    /// per-instance chain (type → params → verdict → pages) for the
    /// provenance log, then the per-type bookkeeping and policy discovery
    /// (§4.1.4).
    fn collect(
        &mut self,
        candidate_types: &[QueryTypeId],
        affected: Vec<Affected>,
        report: &mut InvalidationReport,
    ) {
        let collect_started = std::time::Instant::now();
        for (ty, params, cause) in affected {
            let pages: Vec<PageKey> = self
                .registry
                .pages_of(ty, &params)
                .map(|data| data.pages.iter().cloned().collect())
                .unwrap_or_default();
            report.pages.extend(pages.iter().cloned());
            report.verdicts.push(InstanceVerdict {
                type_id: ty,
                type_sql: self.registry.get(ty).sql.clone(),
                params,
                cause,
                pages,
            });
        }
        report.invalidated_instances = report.verdicts.len() as u64;

        // Normalize the netting escape-hatch list: dedup, and drop any page
        // the batch already ejects through a verdict — the guard only cares
        // about pages the shortcut would otherwise *keep*.
        report.netted_pages.sort_unstable();
        report.netted_pages.dedup();
        {
            let ejected: HashSet<&PageKey> = report.pages.iter().collect();
            report.netted_pages.retain(|k| !ejected.contains(k));
        }

        let mut invalidated_per_type: HashMap<QueryTypeId, u64> = HashMap::new();
        for v in &report.verdicts {
            *invalidated_per_type.entry(v.type_id).or_insert(0) += 1;
        }
        for &id in candidate_types {
            let instance_count = self.registry.instance_count(id) as u64;
            let ratio_cfg = self.config.policy.non_cacheable_invalidation_ratio;
            let min_batches = self.config.policy.min_batches_for_ratio;
            let ty = self.registry.get_mut(id);
            ty.stats.update_batches += 1;
            ty.stats.invalidations += invalidated_per_type.get(&id).copied().unwrap_or(0);
            if let Some(threshold) = ratio_cfg {
                if ty.cacheable
                    && ty.stats.update_batches >= min_batches
                    && instance_count > 0
                {
                    // Fraction of this type's instances invalidated per
                    // batch, averaged over batches.
                    let per_batch = ty.stats.invalidations as f64
                        / ty.stats.update_batches as f64
                        / instance_count as f64;
                    if per_batch > threshold {
                        ty.cacheable = false;
                        report.newly_non_cacheable.push(ty.sql.clone());
                    }
                }
            }
        }
        report.collect_micros = collect_started.elapsed().as_micros() as u64;
    }
}

impl SyncContext<'_> {
    /// Analyze the candidate query types in order. What no per-type stat
    /// carries is counted straight into `report`.
    fn analyze_types(
        &mut self,
        types: &[QueryTypeId],
        report: &mut InvalidationReport,
    ) -> Vec<TypeOutcome> {
        let mut out_types: Vec<TypeOutcome> = Vec::with_capacity(types.len());

        for &ty_id in types {
            let type_started = std::time::Instant::now();
            let registry = self.registry;
            let ty = registry.get(ty_id);
            let mut run = TypeRun {
                policy: self.policies.policy_for(ty_id, &self.config.policy),
                breaker_degraded: self.degraded.contains(&ty_id),
                retry_budget: POLL_RETRY_BUDGET_PER_TYPE,
                stat: TypeSyncStat { id: ty_id, shape: ty.shape, ..TypeSyncStat::default() },
            };
            let compiled = registry
                .analysis(ty_id)
                .expect("candidate types are compiled before analysis");
            let mut instances = self.instances_to_check(&mut run, report);
            // Empty-type fast path, preserved from the scan-only days. When
            // the index skipped live instances the outcome is still pushed
            // so the per-type skip tallies reach the scorecards.
            if instances.is_empty() && run.stat.index_skipped == 0 {
                continue;
            }
            // The registry's instance map iterates in hash order (and probe
            // results come back in slot order); sort so the affected list
            // (and poll-source attribution within a type) is deterministic
            // run to run.
            instances.sort_unstable();
            // Room for one poll answer per instance, where polls can run.
            if run.policy == InvalidationPolicy::Exact && !run.breaker_degraded {
                self.runner.reserve(instances.len());
            }

            // Per-shape decision rules (TopK boundary, aggregate delta) only
            // under the Exact policy with a healthy poll path —
            // Conservative/TableLevel and an open breaker keep the paper's
            // behavior untouched. A shape rule may resolve an instance (skip
            // it or eject with a shape verdict) or hand it to the
            // conventional per-occurrence loop; it never ejects an instance
            // the conventional path would keep.
            let shape_plan = compiled.as_ref().ok().filter(|_| {
                self.config.shape_rules
                    && run.policy == InvalidationPolicy::Exact
                    && !run.breaker_degraded
            });
            let decider = match ty.shape {
                _ if run.policy == InvalidationPolicy::TableLevel => {
                    let read_touched: Vec<String> = (ty.select.from.iter())
                        .map(|tref| tref.table.to_ascii_lowercase())
                        .filter(|t| self.deltas.for_table(t).is_some())
                        .collect();
                    Decider::TableLevel(format!(
                        "table-level policy: update batch touched read table(s) {}",
                        read_touched.join(", ")
                    ))
                }
                QueryShape::TopK => (shape_plan.and_then(|c| c.topk.as_ref()))
                    .map_or(Decider::Conventional, Decider::TopK),
                QueryShape::Aggregate => (shape_plan.and_then(|c| c.agg.as_ref()))
                    .map_or(Decider::Conventional, Decider::Aggregate),
                _ => Decider::Conventional,
            };

            let mut affected: Vec<Affected> = Vec::new();
            for params in instances {
                report.checked_instances += 1;
                let bound = (compiled.as_ref().map_err(|err| err.clone()))
                    .and_then(|ty| ty.check_params(&params).map(|()| Instance { ty, params: &params }));
                let decided = match &decider {
                    Decider::TableLevel(detail) => {
                        Ok(Some(VerdictCause { kind: VerdictKind::TableLevel, detail: detail.clone() }))
                    }
                    Decider::Conventional => bound.and_then(|i| self.decide_conventional(&mut run, report, i)),
                    rule => bound.and_then(|i| self.decide_by_rule(&mut run, report, i, rule)),
                };
                // An instance that does not analyse — its type no longer
                // compiles, its values do not bind, a conjunct does not
                // resolve on a tuple, the engine rejects its poll — met a
                // schema changed under the registry. Fail safe: it is
                // affected, its pages get ejected and the next regeneration
                // re-registers it against the current schema (or 500s
                // honestly).
                let cause = decided.unwrap_or_else(|err| {
                    report.bind_failures += 1;
                    Some(VerdictCause {
                        kind: VerdictKind::BindFailure,
                        detail: format!("instance no longer analyses against the schema ({err}); failed safe"),
                    })
                });
                affected.extend(cause.map(|cause| (ty_id, params, cause)));
            }
            let timed = !matches!(decider, Decider::TableLevel(_));
            if timed {
                run.stat.analysis_micros = type_started.elapsed().as_micros() as u64;
            }
            out_types.push(TypeOutcome { affected, stat: run.stat, timed });
        }
        out_types
    }

    /// The instances of `run`'s type this batch can affect. The predicate
    /// index maps the delta tuples directly to them; `Probe::Scan` (residual
    /// occurrence touched, schema drift, missing FROM table) and table-level
    /// types fall back to the full instance list — the index may only skip
    /// work, never change verdicts.
    fn instances_to_check(
        &self,
        run: &mut TypeRun,
        report: &mut InvalidationReport,
    ) -> Vec<Arc<[Value]>> {
        let ty_id = run.stat.id;
        let all = || -> Vec<Arc<[Value]>> {
            (self.registry.instances_of(ty_id)).map(|(params, _)| params.clone()).collect()
        };
        if !self.use_index || run.policy == InvalidationPolicy::TableLevel {
            return all();
        }
        let probe = if self.registry.index_fully_residual(ty_id) {
            Probe::Scan
        } else {
            let probe_started = std::time::Instant::now();
            let p = self.registry.probe_index(ty_id, self.deltas, self.db);
            report.index_probe_micros += probe_started.elapsed().as_micros() as u64;
            p
        };
        let total = self.registry.instance_count(ty_id) as u64;
        match probe {
            Probe::Candidates(cands) => {
                report.index_probed_types += 1;
                run.stat.index_candidates = cands.len() as u64;
                run.stat.index_skipped = total.saturating_sub(cands.len() as u64);
                cands
            }
            Probe::Scan => {
                report.index_residual_types += 1;
                run.stat.index_residual = total;
                all()
            }
        }
    }

    /// A shape rule's decision for one instance, as a verdict: the rule's
    /// outcome (in `analysis`, beside its plan) maps to the rule's verdict
    /// kind, or to the conventional path where the rule hands it on.
    fn decide_by_rule(
        &mut self,
        run: &mut TypeRun,
        report: &mut InvalidationReport,
        inst: Instance<'_>,
        rule: &Decider<'_>,
    ) -> DbResult<Option<VerdictCause>> {
        let mut work = RuleWork::default();
        let delta = self.deltas.for_table(&inst.ty.from_refs()[0].table);
        let (outcome, kind) = match (rule, delta) {
            (Decider::TopK(plan), Some(delta)) => (
                plan.decide(inst.ty, inst.params, delta, self.db, &mut work),
                VerdictKind::TopKBoundary,
            ),
            (Decider::Aggregate(spec), Some(delta)) => (
                spec.decide(inst.ty, inst.params, delta, &mut work),
                VerdictKind::AggregateDelta,
            ),
            _ => return self.decide_conventional(run, report, inst),
        };
        report.tuples_analyzed += work.tuples_analyzed;
        report.local_decisions += work.local_decisions;
        report.shape_boundary_polls += work.boundary_polls;
        match outcome? {
            RuleOutcome::Unaffected => Ok(None),
            RuleOutcome::Kept => {
                run.stat.shape_skipped += 1;
                // The netting proof only holds for pages that existed at the
                // interval endpoints; report these so the orchestrator can
                // guard-eject any admitted mid-window.
                if kind == VerdictKind::AggregateDelta {
                    if let Some(data) = self.registry.pages_of(run.stat.id, inst.params) {
                        report.netted_pages.extend(data.pages.iter().cloned());
                    }
                }
                Ok(None)
            }
            RuleOutcome::Affected(detail) => Ok(Some(VerdictCause { kind, detail })),
            RuleOutcome::HandOn => self.decide_conventional(run, report, inst),
        }
    }

    /// The paper's decision for one instance: each FROM occurrence whose
    /// table the batch touched is checked locally, then by polls, until one
    /// proves impact.
    fn decide_conventional(
        &mut self,
        run: &mut TypeRun,
        report: &mut InvalidationReport,
        inst: Instance<'_>,
    ) -> DbResult<Option<VerdictCause>> {
        for (occ, tref) in inst.ty.from_refs().iter().enumerate() {
            let Some(delta) = self.deltas.for_table(&tref.table) else {
                continue;
            };
            let cause = if self.config.policy.batch_polls {
                self.decide_batched(run, report, inst, occ, delta)?
            } else {
                self.decide_per_tuple(run, report, inst, occ, delta)?
            };
            if cause.is_some() {
                return Ok(cause);
            }
        }
        Ok(None)
    }

    /// Per-tuple decision loop (grouping disabled): one poll per surviving
    /// delta tuple. Returns the verdict that proved impact, or `None`.
    fn decide_per_tuple(
        &mut self,
        run: &mut TypeRun,
        report: &mut InvalidationReport,
        inst: Instance<'_>,
        occ: usize,
        delta: &crate::delta::TableDelta,
    ) -> DbResult<Option<VerdictCause>> {
        let table = &inst.ty.from_refs()[occ].table;
        for (tuple, is_insert) in delta.tuples() {
            report.tuples_analyzed += 1;
            let impact = inst.ty.analyze_tuple(inst.params, occ, tuple)?;
            let hit = match impact {
                TupleImpact::NoImpact => {
                    report.local_decisions += 1;
                    None
                }
                TupleImpact::Affected => {
                    report.local_decisions += 1;
                    Some(VerdictCause {
                        kind: VerdictKind::LocalPredicate,
                        detail: format!(
                            "{} tuple in `{table}` satisfies the instance's local predicates",
                            if is_insert { "Δ⁺ inserted" } else { "Δ⁻ deleted" }
                        ),
                    })
                }
                TupleImpact::NeedsPoll(poll) => self.run_poll(run, report, &poll, !is_insert)?,
            };
            if hit.is_some() {
                return Ok(hit);
            }
        }
        Ok(None)
    }

    /// Grouped decision (§4.2.1): inserts and deletes are batched separately
    /// (the correlated-delete guard only applies to deletions), each batch
    /// producing at most ⌈n / [`MAX_OR_TERMS_PER_POLL`]⌉ polls.
    fn decide_batched(
        &mut self,
        run: &mut TypeRun,
        report: &mut InvalidationReport,
        inst: Instance<'_>,
        occ: usize,
        delta: &crate::delta::TableDelta,
    ) -> DbResult<Option<VerdictCause>> {
        let table = &inst.ty.from_refs()[occ].table;
        let groups: [(&[cacheportal_db::table::Row], bool); 2] =
            [(&delta.inserted, false), (&delta.deleted, true)];
        for (rows, was_delete) in groups {
            if rows.is_empty() {
                continue;
            }
            report.tuples_analyzed += rows.len() as u64;
            let (impact, _survivors) = inst.ty.analyze_tuple_batch(
                inst.params,
                occ,
                rows,
                MAX_OR_TERMS_PER_POLL,
            )?;
            let hit = match impact {
                BatchImpact::NoImpact => {
                    report.local_decisions += 1;
                    None
                }
                BatchImpact::Affected => {
                    report.local_decisions += 1;
                    Some(VerdictCause {
                        kind: VerdictKind::LocalPredicate,
                        detail: format!(
                            "{} batch of {} tuple(s) in `{table}` satisfies the instance's local predicates",
                            if was_delete { "Δ⁻ deleted" } else { "Δ⁺ inserted" },
                            rows.len()
                        ),
                    })
                }
                BatchImpact::NeedsPolls(polls) => {
                    let mut any = None;
                    for poll in &polls {
                        any = self.run_poll(run, report, poll, was_delete)?;
                        if any.is_some() {
                            break;
                        }
                    }
                    any
                }
            };
            if hit.is_some() {
                return Ok(hit);
            }
        }
        Ok(None)
    }

    /// Execute one polling decision under the policy and budget.
    fn run_poll(
        &mut self,
        run: &mut TypeRun,
        report: &mut InvalidationReport,
        poll: &PollingQuery,
        tuple_was_delete: bool,
    ) -> DbResult<Option<VerdictCause>> {
        if run.breaker_degraded {
            // Open breaker: the polling path is judged unhealthy, so the
            // type runs the paper's no-polling conservative policy — local
            // checks still decided NoImpact/Affected above; anything that
            // would need the DBMS is assumed affected.
            report.breaker_degraded += 1;
            return Ok(Some(VerdictCause {
                kind: VerdictKind::BreakerDegraded,
                detail: format!(
                    "circuit breaker open for this query type; assumed affected without polling: {poll}"
                ),
            }));
        }
        if run.policy == InvalidationPolicy::Conservative {
            return Ok(Some(VerdictCause {
                kind: VerdictKind::Conservative,
                detail: format!("conservative policy assumed affected, skipping poll: {poll}"),
            }));
        }
        // The Exact policy from here: table-level types are decided before
        // any poll is built.
        let over_budget = (self.config.policy.poll_budget_per_sync)
            .is_some_and(|b| self.runner.stats().issued >= b);
        if over_budget && self.info.try_answer(poll).is_none() {
            // Budget exhausted and no free answer: degrade to Conservative
            // (§4.2.2's quality/real-time trade-off).
            report.degraded_by_budget += 1;
            return Ok(Some(VerdictCause {
                kind: VerdictKind::BudgetDegraded,
                detail: format!("poll budget exhausted; assumed affected instead of polling: {poll}"),
            }));
        }
        // Retries come out of the type's per-sync budget: once it is spent,
        // remaining polls fail on the first fault.
        let allowance = (POLL_MAX_RETRIES as u64).min(run.retry_budget) as u32;
        run.stat.polls_attempted += 1;
        let (answer, retries_spent) =
            match self.runner.decide_with_allowance(self.db, poll, tuple_was_delete, allowance) {
                // A failed poll left the question unanswered; the only safe
                // answer is "affected". Never converts a would-be Invalidate
                // to NoInvalidate — the fault can only add invalidations.
                Err(DbError::Faulted(msg)) => {
                    run.retry_budget = run.retry_budget.saturating_sub(allowance as u64);
                    run.stat.poll_faults += 1;
                    return Ok(Some(VerdictCause {
                        kind: VerdictKind::PollFault,
                        detail: format!(
                            "poll failed ({msg}); assumed affected as the conservative fallback"
                        ),
                    }));
                }
                // Any other error is a poll the current schema rejects: the
                // instance loop makes it the instance's `BindFailure`.
                decided => decided?,
            };
        run.retry_budget = run.retry_budget.saturating_sub(retries_spent as u64);
        Ok(answer.map(|answer| VerdictCause {
            kind: answer.into(),
            detail: match answer {
                PollAnswer::Issued => format!("polling query found matching rows: {poll}"),
                PollAnswer::FromCache => format!("deduplicated poll already answered yes this sync point: {poll}"),
                PollAnswer::FromIndex => format!("maintained index answered the poll: {poll}"),
                PollAnswer::DeleteGuard => format!("correlated same-batch deletion of a join partner; poll was: {poll}"),
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 4.1 deployment: registry fed through a QI/URL map.
    fn setup() -> (Database, QiUrlMap, Invalidator) {
        let mut db = Database::new();
        db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)")
            .unwrap();
        db.execute("CREATE TABLE Mileage (model TEXT, EPA FLOAT)")
            .unwrap();
        db.execute("INSERT INTO Car VALUES ('Honda','Civic',18000)")
            .unwrap();
        db.execute("INSERT INTO Mileage VALUES ('Civic', 36.5), ('Avalon', 28.0)")
            .unwrap();

        let map = QiUrlMap::new();
        map.insert(
            "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage \
             WHERE Car.model = Mileage.model AND Car.price < 20000",
            PageKey::raw("URL1"),
            "carSearch".into(),
        );
        let mut inv = Invalidator::new(InvalidatorConfig::default());
        // Consume the seeding inserts so tests start from a clean slate.
        let report_db = db;
        inv.run_sync_point(&report_db, &map).unwrap();
        (report_db, map, inv)
    }

    #[test]
    fn paper_example_4_1_end_to_end() {
        let (mut db, map, mut inv) = setup();

        // Insert (Mitsubishi, Eclipse, 20000): fails price < 20000 → no
        // invalidation, and no polling needed.
        db.execute("INSERT INTO Car VALUES ('Mitsubishi','Eclipse',20000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.is_empty());
        assert_eq!(r.polls.issued, 0, "decided locally");

        // Insert (Toyota, Avalon, 15000): passes the local check; polling
        // Mileage for 'Avalon' finds a row → URL1 invalidated.
        db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',15000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("URL1")));
        assert_eq!(r.polls.issued, 1);

        // Insert (Dodge, Viper, 15000): passes price but no Mileage row →
        // poll comes back empty → no invalidation.
        db.execute("INSERT INTO Car VALUES ('Dodge','Viper',15000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.is_empty());
        assert_eq!(r.polls.issued, 1);
    }

    #[test]
    fn report_carries_verdict_provenance() {
        let (mut db, map, mut inv) = setup();
        // Poll-decided invalidation: the verdict names the polling query.
        db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',15000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.verdicts.len(), 1);
        let v = &r.verdicts[0];
        assert_eq!(v.type_id, QueryTypeId(0));
        assert!(v.type_sql.to_ascii_lowercase().contains("from car, mileage"));
        assert_eq!(v.cause.kind, VerdictKind::PollingQuery);
        assert!(v.cause.detail.to_ascii_lowercase().contains("select count"));
        assert_eq!(v.pages, vec![PageKey::raw("URL1")]);
        // LSN range covers exactly the consumed record; ΔR groups name Car.
        let (first, last) = r.lsn_range.unwrap();
        assert_eq!(first, last);
        assert_eq!(r.delta_groups.len(), 1);
        assert_eq!(r.delta_groups[0].table, "car");
        assert_eq!(r.delta_groups[0].inserted, 1);
        assert_eq!(r.delta_groups[0].deleted, 0);

        // A negative sync point produces no verdicts and a fresh LSN range.
        db.execute("INSERT INTO Car VALUES ('Dodge','Viper',99999)")
            .unwrap();
        let r2 = inv.run_sync_point(&db, &map).unwrap();
        assert!(r2.verdicts.is_empty());
        assert_eq!(r2.lsn_range.unwrap().0, last + 1);
    }

    #[test]
    fn verdict_kinds_follow_the_decision_path() {
        // Conservative: poll skipped, verdict says so.
        let (mut db, map, mut inv) = setup();
        inv.set_policy(QueryTypeId(0), InvalidationPolicy::Conservative);
        db.execute("INSERT INTO Car VALUES ('Dodge','Viper',15000)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::Conservative);

        // Table-level: any touch of a read table.
        let (mut db, map, mut inv) = setup();
        inv.set_policy(QueryTypeId(0), InvalidationPolicy::TableLevel);
        db.execute("INSERT INTO Car VALUES ('Mitsubishi','Eclipse',20000)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::TableLevel);
        assert!(r.verdicts[0].cause.detail.contains("car"));

        // Budget degradation.
        let (mut db, map, mut inv) = setup();
        inv.config.policy.poll_budget_per_sync = Some(0);
        db.execute("INSERT INTO Car VALUES ('Dodge','Viper',15000)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::BudgetDegraded);

        // Maintained index answering the poll affirmatively.
        let (mut db, map, mut inv) = setup();
        inv.maintain_index(&db, "Mileage", "model").unwrap();
        db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',15000)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::MaintainedIndex);

        // Bind failure at compile time: with Mileage dropped the type no
        // longer compiles, so every instance fails before any tuple is read.
        let (mut db, map, mut inv) = setup();
        db.execute("DROP TABLE Mileage").unwrap();
        db.execute("CREATE TABLE Unrelated (x INT)").unwrap();
        db.execute("INSERT INTO Car VALUES ('m','x',1)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::BindFailure);
        assert!(r.verdicts[0].cause.detail.contains("unknown table"));

        // Bind failure on a tuple: Mileage re-created with `model` renamed.
        // The type compiles (every FROM table exists), then the join
        // conjunct does not resolve on the Car tuple. The sync point still
        // returns, with the instance affected and counted.
        let (mut db, map, mut inv) = setup();
        db.execute("DROP TABLE Mileage").unwrap();
        db.execute("CREATE TABLE Mileage (name TEXT, EPA FLOAT)").unwrap();
        db.execute("INSERT INTO Car VALUES ('m','x',1)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::BindFailure);
        assert!(r.verdicts[0].cause.detail.contains("unknown column: model"));
        assert!(r.pages.contains(&PageKey::raw("URL1")));
        assert_eq!(r.bind_failures, 1);
    }

    #[test]
    fn conservative_policy_skips_polls_but_over_invalidates() {
        let (mut db, map, mut inv) = setup();
        let id = QueryTypeId(0);
        inv.set_policy(id, InvalidationPolicy::Conservative);
        db.execute("INSERT INTO Car VALUES ('Dodge','Viper',15000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("URL1")), "over-invalidated");
        assert_eq!(r.polls.issued, 0);
    }

    #[test]
    fn table_level_policy_ignores_predicates() {
        let (mut db, map, mut inv) = setup();
        inv.set_policy(QueryTypeId(0), InvalidationPolicy::TableLevel);
        db.execute("INSERT INTO Car VALUES ('Mitsubishi','Eclipse',20000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(
            r.pages.contains(&PageKey::raw("URL1")),
            "even a non-matching tuple invalidates at table level"
        );
    }

    #[test]
    fn maintained_index_avoids_dbms_polls() {
        let (mut db, map, mut inv) = setup();
        inv.maintain_index(&db, "Mileage", "model").unwrap();
        db.execute("INSERT INTO Car VALUES ('Dodge','Viper',15000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.is_empty());
        assert_eq!(r.polls.issued, 0);
        assert_eq!(r.polls.from_index, 1);
    }

    #[test]
    fn poll_budget_degrades_to_conservative() {
        let (mut db, map, mut inv) = setup();
        inv.config.policy.poll_budget_per_sync = Some(0);
        db.execute("INSERT INTO Car VALUES ('Dodge','Viper',15000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("URL1")));
        assert_eq!(r.polls.issued, 0);
        assert_eq!(r.degraded_by_budget, 1);
    }

    #[test]
    fn update_of_joined_table_invalidates() {
        let (mut db, map, mut inv) = setup();
        // Mileage side: deleting Civic's row changes URL1's join result.
        db.execute("DELETE FROM Mileage WHERE model = 'Civic'")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("URL1")));
    }

    #[test]
    fn irrelevant_table_does_not_invalidate() {
        let (mut db, map, mut inv) = setup();
        db.execute("CREATE TABLE Unrelated (x INT)").unwrap();
        db.execute("INSERT INTO Unrelated VALUES (1)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.is_empty());
        assert_eq!(r.checked_instances, 0);
    }

    #[test]
    fn no_updates_means_empty_report_but_registration_happens() {
        let (db, map, mut inv) = setup();
        map.insert(
            "SELECT * FROM Car WHERE price < 99",
            PageKey::raw("URL2"),
            "s".into(),
        );
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.registered, 1);
        assert!(r.pages.is_empty());
        assert_eq!(r.records_consumed, 0);
    }

    #[test]
    fn multiple_instances_share_one_poll() {
        let (mut db, map, mut inv) = setup();
        // Two instances of the same type with different prices, both above
        // the inserted tuple's price → identical residual poll.
        map.insert(
            "SELECT Car.maker, Car.model, Car.price, Mileage.EPA FROM Car, Mileage \
             WHERE Car.model = Mileage.model AND Car.price < 30000",
            PageKey::raw("URL3"),
            "carSearch".into(),
        );
        db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',15000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("URL1")));
        assert!(r.pages.contains(&PageKey::raw("URL3")));
        assert_eq!(r.polls.issued, 1, "identical residuals deduplicated");
        assert_eq!(r.polls.from_cache, 1);
    }

    #[test]
    fn batched_polls_decide_whole_update_bursts() {
        let (mut db, map, mut inv) = setup();
        assert!(inv.config().policy.batch_polls);
        // Ten cars passing the price bound, none with Mileage partners →
        // one OR-combined poll, no invalidation.
        for i in 0..10 {
            db.execute(&format!("INSERT INTO Car VALUES ('m','ghost{i}',15000)"))
                .unwrap();
        }
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.is_empty());
        assert_eq!(r.polls.issued, 1, "one poll for the whole burst");
        assert_eq!(r.tuples_analyzed, 10);

        // Same burst, one matching tuple hidden inside → invalidated, still
        // a single poll.
        for i in 0..9 {
            db.execute(&format!("INSERT INTO Car VALUES ('m','ghost2{i}',15000)"))
                .unwrap();
        }
        db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',15000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("URL1")));
        assert_eq!(r.polls.issued, 1);
    }

    #[test]
    fn batched_and_per_tuple_agree_on_outcome() {
        for batch in [false, true] {
            let (mut db, map, mut inv) = setup();
            inv.config.policy.batch_polls = batch;
            for i in 0..5 {
                db.execute(&format!("INSERT INTO Car VALUES ('m','nope{i}',15000)"))
                    .unwrap();
            }
            db.execute("INSERT INTO Car VALUES ('x','Civic',19999)").unwrap();
            db.execute("DELETE FROM Mileage WHERE model = 'Avalon'").unwrap();
            let r = inv.run_sync_point(&db, &map).unwrap();
            assert!(
                r.pages.contains(&PageKey::raw("URL1")),
                "batch={batch}: Civic insert affects URL1"
            );
            if !batch {
                assert!(r.polls.issued > 1, "per-tuple mode polls per tuple");
            }
        }
    }

    #[test]
    fn or_term_chunking_caps_poll_size() {
        let (mut db, map, mut inv) = setup();
        // 2·cap + 1 surviving tuples → 3 polls (none matching, so all run).
        for i in 0..2 * MAX_OR_TERMS_PER_POLL + 1 {
            db.execute(&format!("INSERT INTO Car VALUES ('m','zz{i}',15000)"))
                .unwrap();
        }
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.polls.issued, 3);
        assert!(r.pages.is_empty());
    }

    #[test]
    fn dropped_table_fails_safe_by_ejecting_dependent_pages() {
        let (mut db, map, mut inv) = setup();
        // URL1 depends on Car ⋈ Mileage; drop Mileage out from under it.
        db.execute("DROP TABLE Mileage").unwrap();
        db.execute("CREATE TABLE Unrelated (x INT)").unwrap();
        // Any update to Car forces analysis of URL1's instance.
        db.execute("INSERT INTO Car VALUES ('m','x',1)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.bind_failures, 1);
        assert!(
            r.pages.contains(&PageKey::raw("URL1")),
            "schema change must eject, not error"
        );
    }

    #[test]
    fn a_self_cancelling_burst_is_analysed_and_invalidates() {
        // Insert-then-delete of an impactful row within one interval: both
        // records are analysed, and the page goes (a page generated between
        // the two could hold the row).
        let (mut db, map, mut inv) = setup();
        db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',15000)").unwrap();
        db.execute("DELETE FROM Car WHERE model = 'Avalon' AND price = 15000").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.records_consumed, 2);
        assert!(r.tuples_analyzed > 0);
        assert!(r.pages.contains(&PageKey::raw("URL1")), "conservative endpoint");
    }

    #[test]
    fn batched_delete_guard_still_fires() {
        let (mut db, map, mut inv) = setup();
        // Delete both the Car row and its Mileage partner in one batch:
        // post-state polls find nothing; the guard must still invalidate.
        db.execute("DELETE FROM Car WHERE model = 'Civic'").unwrap();
        db.execute("DELETE FROM Mileage WHERE model = 'Civic'").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(
            r.pages.contains(&PageKey::raw("URL1")),
            "correlated same-batch deletes must invalidate"
        );
    }

    #[test]
    fn per_type_analysis_timing_is_recorded() {
        let (mut db, map, mut inv) = setup();
        // setup() already consumed the seeding batch (update_batches == 1).
        db.execute("INSERT INTO Car VALUES ('Toyota','Avalon',15000)").unwrap();
        inv.run_sync_point(&db, &map).unwrap();
        let stats = &inv.registry().get(QueryTypeId(0)).stats;
        assert_eq!(stats.update_batches, 2);
        assert!(stats.max_analysis_micros >= stats.avg_analysis_micros() as u64);
        // A further batch accumulates.
        db.execute("INSERT INTO Car VALUES ('Honda','Fit',12000)").unwrap();
        inv.run_sync_point(&db, &map).unwrap();
        let stats = &inv.registry().get(QueryTypeId(0)).stats;
        assert_eq!(stats.update_batches, 3);
        assert!(stats.total_analysis_micros >= stats.max_analysis_micros);
    }

    #[test]
    fn policy_discovery_marks_hot_types_non_cacheable() {
        let (mut db, map, mut inv) = setup();
        inv.config.policy.non_cacheable_invalidation_ratio = Some(0.5);
        inv.config.policy.min_batches_for_ratio = 2;
        for i in 0..3 {
            db.execute(&format!(
                "INSERT INTO Car VALUES ('Toyota','Avalon',{})",
                1000 + i
            ))
            .unwrap();
            inv.run_sync_point(&db, &map).unwrap();
        }
        let ty = inv.registry().get(QueryTypeId(0));
        assert!(!ty.cacheable, "every batch invalidated the only instance");
    }

    /// End-to-end breaker walk through real sync points: a fully faulty
    /// DBMS trips the type open, the next syncs degrade without touching
    /// the poll path, and once the DBMS heals the half-open probe closes
    /// the breaker again.
    #[test]
    fn breaker_degrades_and_recovers_across_sync_points() {
        use crate::breaker::{COOLDOWN_SYNCS, FAULT_THRESHOLD};
        let (mut db, map, mut inv) = setup();
        inv.config.fault = cacheportal_db::FaultPlan::new(cacheportal_db::FaultSpec {
            poll_error: 1.0,
            ..cacheportal_db::FaultSpec::default()
        });
        let mut cars =
            (0..).map(|i| format!("INSERT INTO Car VALUES ('Toyota','Avalon',{})", 15000 + i));

        // The poll faults on every attempt (retries included) and the
        // instance fails safe, sync after sync, until the faults add up to
        // the threshold and the breaker trips open.
        for sync in 1..=FAULT_THRESHOLD {
            db.execute(&cars.next().unwrap()).unwrap();
            let r = inv.run_sync_point(&db, &map).unwrap();
            assert_eq!(r.poll_faults, 1);
            assert_eq!(r.verdicts[0].cause.kind, VerdictKind::PollFault);
            assert!(r.pages.contains(&PageKey::raw("URL1")));
            let tripped = u64::from(sync == FAULT_THRESHOLD);
            assert_eq!((r.breaker_opened, r.breaker_open_types), (tripped, tripped));
        }

        // Degraded for the cooldown — no poll reaches the DBMS and the
        // verdict says so — after which the breaker is half-open.
        for sync in 1..=COOLDOWN_SYNCS {
            db.execute(&cars.next().unwrap()).unwrap();
            let r = inv.run_sync_point(&db, &map).unwrap();
            assert_eq!(r.verdicts[0].cause.kind, VerdictKind::BreakerDegraded);
            assert_eq!(r.breaker_degraded, 1);
            assert_eq!((r.polls.issued, r.polls.faulted), (0, 0));
            let probing = u64::from(sync == COOLDOWN_SYNCS);
            assert_eq!((r.breaker_half_opened, r.breaker_half_open_types), (probing, probing));
        }

        // The DBMS healed; the half-open probe polls cleanly and the
        // breaker closes.
        inv.config.fault = cacheportal_db::FaultPlan::none();
        db.execute("INSERT INTO Car VALUES ('Toyota','Camry',14000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.breaker_closed, 1);
        assert_eq!((r.breaker_open_types, r.breaker_half_open_types), (0, 0));
        assert_eq!(r.poll_faults, 0);
        assert!(r.polls.issued >= 1, "probe actually reached the DBMS");
    }

    /// A DBMS faulty long enough to trip the breaker and sit out the
    /// cooldown, then healed: the breaker opens once and closes once.
    #[test]
    fn breaker_trips_and_recovers_once() {
        use crate::breaker::{COOLDOWN_SYNCS, FAULT_THRESHOLD};
        let healed_at = FAULT_THRESHOLD + COOLDOWN_SYNCS;
        let (mut db, map, mut inv) = setup();
        inv.config.fault = cacheportal_db::FaultPlan::new(cacheportal_db::FaultSpec {
            poll_error: 1.0,
            ..cacheportal_db::FaultSpec::default()
        });
        let mut trace = Vec::new();
        for i in 0..healed_at + 2 {
            if i == healed_at {
                inv.config.fault = cacheportal_db::FaultPlan::none();
            }
            db.execute(&format!("INSERT INTO Car VALUES ('Toyota','Avalon',{})", 1000 + i))
                .unwrap();
            let r = inv.run_sync_point(&db, &map).unwrap();
            trace.push((r.breaker_opened, r.breaker_closed));
        }
        let opened: u64 = trace.iter().map(|t| t.0).sum();
        let closed: u64 = trace.iter().map(|t| t.1).sum();
        assert_eq!((opened, closed), (1, 1), "the walk trips and recovers: {trace:?}");
    }

    /// A single-table equality type: the index skips every instance whose
    /// bound parameter the delta tuple cannot satisfy, and the verdict set
    /// is identical with the index off.
    #[test]
    fn predicate_index_skips_unaffected_equality_instances() {
        let run = |use_index: bool| {
            let mut db = Database::new();
            db.execute("CREATE TABLE T (k INT, v INT)").unwrap();
            let map = QiUrlMap::new();
            for i in 0..50 {
                map.insert(
                    &format!("SELECT v FROM T WHERE T.k = {i}"),
                    PageKey::raw(format!("p{i}")),
                    "s".into(),
                );
            }
            let mut inv = Invalidator::new(InvalidatorConfig {
                predicate_index: use_index,
                ..InvalidatorConfig::default()
            });
            inv.run_sync_point(&db, &map).unwrap();
            db.execute("INSERT INTO T VALUES (7, 1)").unwrap();
            let r = inv.run_sync_point(&db, &map).unwrap();
            let mut pages: Vec<PageKey> = r.pages.iter().cloned().collect();
            pages.sort_unstable();
            (pages, r.checked_instances, r.index_skipped)
        };
        let (pages_on, checked_on, skipped_on) = run(true);
        let (pages_off, checked_off, skipped_off) = run(false);
        assert_eq!(pages_on, vec![PageKey::raw("p7")]);
        assert_eq!(pages_on, pages_off, "index must not change verdicts");
        assert_eq!(skipped_off, 0);
        assert_eq!(skipped_on, 49, "49 of 50 instances provably unaffected");
        assert_eq!(checked_on, 1, "only the candidate runs the decision");
        assert_eq!(checked_off, 50, "the scan walks everything");
    }

    /// Differential mode re-runs the scan and reports zero divergences on
    /// a mixed equality/range/join workload (including polls).
    #[test]
    fn differential_mode_reports_zero_divergences() {
        let (mut db, map, mut inv) = setup();
        inv.config.index_differential = true;
        map.insert(
            "SELECT model FROM Car WHERE Car.price < 19000",
            PageKey::raw("URL2"),
            "cheap".into(),
        );
        map.insert(
            "SELECT model FROM Car WHERE Car.maker = 'Toyota'",
            PageKey::raw("URL3"),
            "maker".into(),
        );
        for sql in [
            "INSERT INTO Car VALUES ('Toyota','Avalon',15000)",
            "INSERT INTO Car VALUES ('Dodge','Viper',99000)",
            "DELETE FROM Car WHERE model = 'Avalon'",
        ] {
            db.execute(sql).unwrap();
            let r = inv.run_sync_point(&db, &map).unwrap();
            assert_eq!(r.index_divergences, 0, "after {sql}: {r:?}");
        }
    }

    /// The index must stand aside for table-level types (the policy marks
    /// every instance) and for types under differential scrutiny when a
    /// FROM table is dropped (BindFailure parity) — both covered by the
    /// existing policy/drop tests running with the index on; here we pin
    /// the report-level accounting.
    #[test]
    fn report_carries_index_accounting() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (k INT, v INT)").unwrap();
        let map = QiUrlMap::new();
        map.insert(
            "SELECT v FROM T WHERE T.k = 3",
            PageKey::raw("p"),
            "s".into(),
        );
        let mut inv = Invalidator::new(InvalidatorConfig::default());
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.index_size, 1, "registered instance interned");
        db.execute("INSERT INTO T VALUES (3, 1)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert_eq!(r.index_probed_types, 1);
        assert_eq!(r.index_candidates, 1);
        assert_eq!(r.index_residual_types, 0);
        assert!(r.pages.contains(&PageKey::raw("p")));
    }

    /// A registered top-2 page over Car prices 40, 30 (maker 'T').
    fn topk_setup() -> (Database, QiUrlMap, Invalidator) {
        let mut db = Database::new();
        db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)")
            .unwrap();
        db.execute("INSERT INTO Car VALUES ('T','a',40), ('T','b',30)")
            .unwrap();
        let map = QiUrlMap::new();
        map.insert(
            "SELECT model FROM Car WHERE maker = 'T' ORDER BY price DESC LIMIT 2",
            PageKey::raw("TOP"),
            "top".into(),
        );
        let mut inv = Invalidator::new(InvalidatorConfig::default());
        inv.run_sync_point(&db, &map).unwrap();
        (db, map, inv)
    }

    #[test]
    fn topk_boundary_rule_skips_provably_outside_inserts() {
        let (mut db, map, mut inv) = topk_setup();
        // Post-state boundary is 30 (2nd key of {40,30,10} DESC); the new
        // row's key 10 sorts strictly beyond it, so it can neither enter
        // nor displace the top-2 — the page stays cached.
        db.execute("INSERT INTO Car VALUES ('T','c',10)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.is_empty(), "below-boundary insert stays cached");
        assert_eq!(r.shape_topk_skipped, 1);
        assert!(r.shape_boundary_polls >= 1);
        assert_eq!(r.per_type[0].shape, QueryShape::TopK);
        assert_eq!(r.per_type[0].shape_skipped, 1);

        // A tie with the post-state boundary (insert 30 → boundary stays
        // 30) is conservative: ejected, with shape provenance.
        db.execute("INSERT INTO Car VALUES ('T','d',30)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("TOP")));
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::TopKBoundary);

        // Strictly inside: enters the top-2.
        db.execute("INSERT INTO Car VALUES ('T','e',50)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("TOP")));
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::TopKBoundary);
        assert_eq!(r.shape_topk_skipped, 0);
    }

    /// The storefront's shape: N live `WHERE category = $1 ORDER BY price
    /// DESC LIMIT k` pages, and one price update in one category. The batch
    /// reaches one instance, which runs one boundary poll; the index-vs-scan
    /// shadow pass analyses every instance again, and its polls stay out of
    /// the report.
    #[test]
    fn boundary_polls_follow_the_update_not_the_site() {
        const CATEGORIES: i64 = 20;
        for index_differential in [false, true] {
            let mut db = Database::new();
            db.execute("CREATE TABLE products (sku INT, category INT, price INT)").unwrap();
            let map = QiUrlMap::new();
            for c in 0..CATEGORIES {
                // Prices 10..=50; the top-3 boundary is 30.
                for i in 1..=5 {
                    let (sku, price) = (10 * c + i, 10 * i);
                    db.execute(&format!("INSERT INTO products VALUES ({sku}, {c}, {price})"))
                        .unwrap();
                }
                map.insert(
                    &format!(
                        "SELECT sku FROM products WHERE category = {c} ORDER BY price DESC LIMIT 3"
                    ),
                    PageKey::raw(format!("top{c}")),
                    "top".into(),
                );
            }
            let mut inv = Invalidator::new(InvalidatorConfig {
                index_differential,
                ..InvalidatorConfig::default()
            });
            inv.start_from(db.high_water());
            inv.run_sync_point(&db, &map).unwrap();

            // Category 7's cheapest product, 10 → 15: both images sort
            // beyond the boundary, and the rule keeps the page.
            db.execute("UPDATE products SET price = 15 WHERE sku = 71").unwrap();
            let r = inv.run_sync_point(&db, &map).unwrap();
            assert_eq!(r.shape_boundary_polls, 1, "differential {index_differential}");
            assert!(r.verdicts.is_empty());
            assert_eq!(r.shape_topk_skipped, 1);
            assert_eq!(r.index_divergences, 0);

            // 15 → 45 lands inside the top-3: that page alone goes.
            db.execute("UPDATE products SET price = 45 WHERE sku = 71").unwrap();
            let r = inv.run_sync_point(&db, &map).unwrap();
            assert_eq!(r.shape_boundary_polls, 1, "differential {index_differential}");
            assert_eq!(r.verdicts.len(), 1);
            assert_eq!(r.verdicts[0].cause.kind, VerdictKind::TopKBoundary);
            assert_eq!(r.verdicts[0].pages, vec![PageKey::raw("top7")]);
            assert_eq!(r.index_divergences, 0);
        }
    }

    #[test]
    fn topk_boundary_rule_applies_to_deletes() {
        let (mut db, map, mut inv) = topk_setup();
        db.execute("INSERT INTO Car VALUES ('T','c',10)").unwrap();
        inv.run_sync_point(&db, &map).unwrap();

        // Deleting the row far below the boundary leaves the top-2 as-is.
        db.execute("DELETE FROM Car WHERE model = 'c'").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.is_empty(), "below-boundary delete stays cached");
        assert_eq!(r.shape_topk_skipped, 1);

        // Deleting a top-2 member shrinks the result below k: the boundary
        // disappears and the conventional path ejects.
        db.execute("DELETE FROM Car WHERE model = 'a'").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("TOP")));
        assert_eq!(r.shape_topk_skipped, 0);
    }

    #[test]
    fn shape_rules_off_restores_conventional_ejects() {
        let (mut db, map, mut inv) = topk_setup();
        inv.config_mut().shape_rules = false;
        db.execute("INSERT INTO Car VALUES ('T','c',10)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(
            r.pages.contains(&PageKey::raw("TOP")),
            "conventional path ejects on any matching tuple"
        );
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::LocalPredicate);
        assert_eq!(r.shape_boundary_polls, 0);
        assert_eq!(r.shape_topk_skipped, 0);
    }

    /// A registered per-maker COUNT/SUM page.
    fn agg_setup() -> (Database, QiUrlMap, Invalidator) {
        let mut db = Database::new();
        db.execute("CREATE TABLE Car (maker TEXT, model TEXT, price INT)")
            .unwrap();
        db.execute("INSERT INTO Car VALUES ('Honda','Civic',18000), ('Honda','Fit',15000)")
            .unwrap();
        let map = QiUrlMap::new();
        map.insert(
            "SELECT maker, COUNT(*), SUM(price) FROM Car GROUP BY maker ORDER BY maker",
            PageKey::raw("AGG"),
            "agg".into(),
        );
        let mut inv = Invalidator::new(InvalidatorConfig::default());
        inv.run_sync_point(&db, &map).unwrap();
        (db, map, inv)
    }

    #[test]
    fn aggregate_rule_keeps_value_preserving_updates_cached() {
        let (mut db, map, mut inv) = agg_setup();
        // Swap one Honda for another at the same price within one batch:
        // every group's row count and sum net to zero, so the page provably
        // renders identically — it stays cached.
        db.execute("DELETE FROM Car WHERE model = 'Fit'").unwrap();
        db.execute("INSERT INTO Car VALUES ('Honda','Jazz',15000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.is_empty(), "value-preserving batch stays cached");
        assert_eq!(r.shape_agg_skipped, 1);
        assert_eq!(r.per_type[0].shape, QueryShape::Aggregate);
        assert_eq!(r.per_type[0].shape_skipped, 1);

        // A new maker adds a group → ejected with aggregate provenance.
        db.execute("INSERT INTO Car VALUES ('Kia','Rio',12000)").unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("AGG")));
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::AggregateDelta);

        // A price move inside a group changes SUM → ejected.
        db.execute("DELETE FROM Car WHERE model = 'Civic'").unwrap();
        db.execute("INSERT INTO Car VALUES ('Honda','Civic',17000)")
            .unwrap();
        let r = inv.run_sync_point(&db, &map).unwrap();
        assert!(r.pages.contains(&PageKey::raw("AGG")));
        assert_eq!(r.verdicts[0].cause.kind, VerdictKind::AggregateDelta);
        assert_eq!(r.shape_agg_skipped, 0);
    }

    #[test]
    fn shape_rules_never_eject_more_than_conventional() {
        // The on-arm affected set must be a subset of the off-arm set for
        // the same update batch (here: equal workloads replayed on two
        // invalidators, one per arm).
        let updates = [
            "INSERT INTO Car VALUES ('T','x',5)",
            "INSERT INTO Car VALUES ('T','y',45)",
            "DELETE FROM Car WHERE model = 'x'",
            "INSERT INTO Car VALUES ('U','z',99)",
        ];
        let mut arms: Vec<Vec<usize>> = Vec::new();
        for shape_rules in [true, false] {
            let (mut db, map, mut inv) = topk_setup();
            inv.config_mut().shape_rules = shape_rules;
            let mut ejects = Vec::new();
            for (i, sql) in updates.iter().enumerate() {
                db.execute(sql).unwrap();
                let r = inv.run_sync_point(&db, &map).unwrap();
                if !r.pages.is_empty() {
                    ejects.push(i);
                }
            }
            arms.push(ejects);
        }
        let (on, off) = (&arms[0], &arms[1]);
        assert!(on.iter().all(|i| off.contains(i)), "on ⊆ off: {arms:?}");
        assert!(on.len() < off.len(), "strict improvement: {arms:?}");
    }
}
