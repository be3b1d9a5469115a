//! Per-query-type cost/benefit scorecards behind the `/scorecards` admin
//! endpoint.
//!
//! A cost-aware admission policy (ROADMAP item 5) needs, per cached query
//! type: what caching *saves* (observed hit rate, recompute cost of a miss)
//! and what it *costs* (invalidation churn, polling-query spend, staleness
//! exposure). The portal feeds the board from two sides:
//!
//! * the request path calls [`ScorecardBoard::note_request`] per served URL
//!   (hit/miss plus a deterministic render-cost measure — database rows
//!   read while generating the page, NOT wall time, so scorecards are
//!   byte-stable across seeded runs);
//! * each sync point resolves pending URLs to their registered query types
//!   via [`ScorecardBoard::attribute_pending`] (ids only: a type's SQL is
//!   copied once, into its new row) and folds in that sync's
//!   per-type invalidation/poll/staleness outcome via
//!   [`ScorecardBoard::note_sync`].
//!
//! URLs served before their query types register (or that never register —
//! non-cacheable paths) fold into the `unattributed` bucket instead of
//! leaking memory. Rendering is sorted by type id and fully deterministic.

use crate::stripe::Striped;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Request-side tallies for one URL, pending attribution to query types
/// (and the `/scorecards` document's `unattributed` bucket).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageTally {
    /// Cache hits served.
    pub hits: u64,
    /// Misses (page generated).
    pub misses: u64,
    /// Generations with a measured render cost.
    pub renders: u64,
    /// Deterministic render cost units (db rows read during generation, by
    /// scan or through an index).
    pub render_cost_units: u64,
}

impl PageTally {
    fn fold(&mut self, other: &PageTally) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.renders += other.renders;
        self.render_cost_units += other.render_cost_units;
    }
}

/// One sync point's outcome for one query type (built by the portal from
/// the invalidation report's deterministic per-type stats).
#[derive(Debug, Clone, Default)]
pub struct TypeSyncOutcome {
    /// Query type id.
    pub type_id: u32,
    /// Parameterized SQL template (kept current on the score row).
    pub sql: String,
    /// Instance verdicts naming this type this sync.
    pub invalidations: u64,
    /// Pages named by this type's verdicts (churn; overlapping pages count
    /// once per naming type).
    pub pages_ejected: u64,
    /// Polling queries attempted for this type.
    pub polls: u64,
    /// Modeled poll spend: polls x configured poll RTT (deterministic).
    pub poll_spend_micros: u64,
    /// Commit→eject staleness window (logical micros) attributed to this
    /// type this sync, summed over its invalidated instances.
    pub staleness_micros: u64,
    /// Staleness observations behind `staleness_micros`.
    pub staleness_events: u64,
    /// Instances the predicate index handed to the decision loop.
    pub index_candidates: u64,
    /// Instances the predicate index proved unaffected and skipped.
    pub index_skipped: u64,
    /// Instances scanned via the residual (unindexable) fallback.
    pub index_residual: u64,
    /// Query-shape classifier verdict for this type ("conjunctive",
    /// "topk", "aggregate", "like", "in"); empty when unreported.
    pub shape: String,
    /// Instances a shape rule (top-k boundary / aggregate delta) kept
    /// cached where the conventional path would have ejected.
    pub shape_skipped: u64,
}

/// Cumulative cost/benefit score for one query type: a `/scorecards` row
/// and a JSONL `scorecard` line. The five ratios are filled in from the
/// tallies when a row leaves the board ([`ScorecardBoard::rows`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TypeScore {
    /// Query type id.
    pub type_id: u32,
    /// Parameterized SQL template.
    pub sql: String,
    /// Cache hits served for pages of this type.
    pub hits: u64,
    /// Misses (page generated).
    pub misses: u64,
    /// Observed hit rate over requests attributed to this type.
    pub hit_rate: f64,
    /// Generations with a measured render cost.
    pub renders: u64,
    /// Deterministic render cost units (db rows read during generation).
    pub render_cost_units: u64,
    /// Mean render cost units per generation.
    pub avg_render_cost: f64,
    /// Update batches (sync points) that touched this type.
    pub sync_touches: u64,
    /// Instance invalidations across all syncs.
    pub invalidations: u64,
    /// Pages ejected on this type's behalf.
    pub pages_ejected: u64,
    /// Polling queries attempted.
    pub polls: u64,
    /// Modeled poll spend in (deterministic) microseconds.
    pub poll_spend_micros: u64,
    /// Cumulative attributed staleness, logical microseconds.
    pub staleness_micros: u64,
    /// Observations behind `staleness_micros`.
    pub staleness_events: u64,
    /// Mean attributed staleness window per observation (logical micros).
    pub avg_staleness_micros: f64,
    /// Instances the predicate index handed to the decision loop.
    pub index_candidates: u64,
    /// Instances the predicate index proved unaffected and skipped.
    pub index_skipped: u64,
    /// Instances scanned via the residual (unindexable) fallback.
    pub index_residual: u64,
    /// Fraction of registered-instance visits the predicate index skipped
    /// (0.0 when no instances were considered — e.g. index disabled).
    pub index_hit_rate: f64,
    /// Fraction of instance visits that went through the residual full
    /// scan (the index could not classify or narrow them).
    pub residual_fraction: f64,
    /// Query-shape classifier verdict (kept current on the score row).
    pub shape: String,
    /// Cumulative instances the shape rules kept cached.
    pub shape_skipped: u64,
}

impl TypeScore {
    /// The row with its ratios worked out from its tallies.
    fn with_ratios(mut self) -> TypeScore {
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let visits = self.index_candidates + self.index_skipped + self.index_residual;
        self.hit_rate = ratio(self.hits, self.hits + self.misses);
        self.avg_render_cost = ratio(self.render_cost_units, self.renders);
        self.avg_staleness_micros = ratio(self.staleness_micros, self.staleness_events);
        self.index_hit_rate = ratio(self.index_skipped, visits);
        self.residual_fraction = ratio(self.index_residual, visits);
        self
    }

    fn fold_pages(&mut self, t: &PageTally) {
        self.hits += t.hits;
        self.misses += t.misses;
        self.renders += t.renders;
        self.render_cost_units += t.render_cost_units;
    }
}

/// The `/scorecards` document: sorted rows plus the unattributed bucket
/// and pending-map health. Fully deterministic for a fixed seed (no
/// wall-clock fields anywhere).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScorecardsDoc {
    /// The board's change counter.
    pub version: u64,
    /// URLs served since the last sync point, awaiting attribution.
    pub pending_urls: u64,
    /// URLs the pending-map bound turned away.
    pub pending_dropped: u64,
    /// Tallies of URLs that resolved to no query type.
    pub unattributed: PageTally,
    /// One row per query type, by type id.
    pub scorecards: Vec<TypeScore>,
}

/// The scorecard aggregation board. All methods take `&self`.
pub struct ScorecardBoard {
    /// URL → tallies accumulated since the last sync point, striped per
    /// request thread; each stripe holds at most `pending_cap` URLs.
    pending: Striped<Mutex<HashMap<Arc<str>, PageTally>>>,
    /// type id → cumulative score (BTreeMap: sorted, deterministic render).
    scores: Mutex<BTreeMap<u32, TypeScore>>,
    /// Tallies for URLs that never resolved to a query type.
    unattributed: Mutex<PageTally>,
    /// Bumped on every attribution/sync fold; lets exporters skip unchanged
    /// boards.
    version: AtomicU64,
    pending_cap: usize,
    pending_dropped: AtomicU64,
    enabled: AtomicBool,
}

impl ScorecardBoard {
    /// A board holding at most `pending_cap` distinct unattributed URLs
    /// between sync points.
    fn new(pending_cap: usize) -> Self {
        ScorecardBoard {
            pending: Striped::default(),
            scores: Mutex::new(BTreeMap::new()),
            unattributed: Mutex::new(PageTally::default()),
            version: AtomicU64::new(0),
            pending_cap: pending_cap.max(1),
            pending_dropped: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Turn request-side recording on or off (for overhead A/B benches).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording enabled?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one served request for `url`. `render_cost` is the
    /// deterministic unit count for a generated page (None for cache hits).
    pub fn note_request(&self, url: &str, hit: bool, render_cost: Option<u64>) {
        self.note(url, || url.into(), hit, render_cost);
    }

    /// [`ScorecardBoard::note_request`] for a URL whose text the caller
    /// shares (a page key's): a new URL keeps a clone of the handle.
    pub fn note_page(&self, url: &Arc<str>, hit: bool, render_cost: Option<u64>) {
        self.note(url, || url.clone(), hit, render_cost);
    }

    fn note(&self, url: &str, key: impl FnOnce() -> Arc<str>, hit: bool, render_cost: Option<u64>) {
        if !self.enabled() {
            return;
        }
        let one = PageTally {
            hits: hit as u64,
            misses: !hit as u64,
            renders: render_cost.is_some() as u64,
            render_cost_units: render_cost.unwrap_or(0),
        };
        let mut pending = self.pending.mine().lock();
        if let Some(t) = pending.get_mut(url) {
            t.fold(&one);
        } else if pending.len() >= self.pending_cap {
            self.pending_dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            pending.insert(key(), one);
        }
    }

    /// Drain pending URL tallies, attributing each to the query types
    /// `types_of` puts in its buffer for it (a URL feeding several types
    /// credits each). A new row takes its SQL from `sql_of`. Unresolvable
    /// URLs fold into the `unattributed` bucket.
    pub fn attribute_pending(
        &self,
        mut types_of: impl FnMut(&str, &mut Vec<u32>),
        mut sql_of: impl FnMut(u32) -> String,
    ) {
        // Tallies only add up, so neither the stripes' order nor a hash
        // table's changes a row: each URL's tally folds as it comes, and a
        // URL two threads served folds twice.
        let drained: Vec<HashMap<Arc<str>, PageTally>> =
            self.pending.iter().map(|p| std::mem::take(&mut *p.lock())).collect();
        if drained.iter().all(HashMap::is_empty) {
            return;
        }
        let mut scores = self.scores.lock();
        let mut unattributed = self.unattributed.lock();
        let mut types = Vec::new();
        for (url, tally) in drained.iter().flatten() {
            types.clear();
            types_of(url, &mut types);
            if types.is_empty() {
                unattributed.fold(tally);
                continue;
            }
            for &type_id in &types {
                let row = scores.entry(type_id).or_default();
                row.type_id = type_id;
                if row.sql.is_empty() {
                    row.sql = sql_of(type_id);
                }
                row.fold_pages(tally);
            }
        }
        self.version.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one sync point's per-type outcomes into the board.
    pub fn note_sync(&self, outcomes: &[TypeSyncOutcome]) {
        if outcomes.is_empty() {
            return;
        }
        let mut scores = self.scores.lock();
        for o in outcomes {
            let row = scores.entry(o.type_id).or_default();
            row.type_id = o.type_id;
            if row.sql.is_empty() {
                row.sql = o.sql.clone();
            }
            row.sync_touches += 1;
            row.invalidations += o.invalidations;
            row.pages_ejected += o.pages_ejected;
            row.polls += o.polls;
            row.poll_spend_micros += o.poll_spend_micros;
            row.staleness_micros += o.staleness_micros;
            row.staleness_events += o.staleness_events;
            row.index_candidates += o.index_candidates;
            row.index_skipped += o.index_skipped;
            row.index_residual += o.index_residual;
            if !o.shape.is_empty() {
                row.shape = o.shape.clone();
            }
            row.shape_skipped += o.shape_skipped;
        }
        self.version.fetch_add(1, Ordering::Relaxed);
    }

    /// Monotone change counter (bumped by attribution and sync folds).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// URLs rejected by the pending-map bound.
    pub fn pending_dropped(&self) -> u64 {
        self.pending_dropped.load(Ordering::Relaxed)
    }

    /// Current rows, sorted by type id.
    pub fn rows(&self) -> Vec<TypeScore> {
        self.scores.lock().values().cloned().map(TypeScore::with_ratios).collect()
    }

    /// The `/scorecards` document.
    pub fn doc(&self) -> ScorecardsDoc {
        ScorecardsDoc {
            version: self.version(),
            pending_urls: self.pending.iter().map(|p| p.lock().len() as u64).sum(),
            pending_dropped: self.pending_dropped(),
            unattributed: self.unattributed.lock().clone(),
            scorecards: self.rows(),
        }
    }
}

impl Default for ScorecardBoard {
    /// 4096-URL pending bound.
    fn default() -> Self {
        ScorecardBoard::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn types_fixed(url: &str, types: &mut Vec<u32>) {
        match url {
            "page:a" => types.push(1),
            "page:b" => types.extend([1, 2]),
            _ => {}
        }
    }

    fn sql_fixed(id: u32) -> String {
        match id {
            1 => "SELECT x FROM t WHERE k = $1".to_string(),
            _ => "SELECT y FROM u WHERE k = $1".to_string(),
        }
    }

    #[test]
    fn request_tallies_attribute_to_types() {
        let board = ScorecardBoard::default();
        board.note_request("page:a", false, Some(12));
        board.note_request("page:a", true, None);
        board.note_request("page:b", true, None);
        board.note_request("page:zzz", false, Some(5));
        board.attribute_pending(types_fixed, sql_fixed);

        let rows = board.rows();
        assert_eq!(rows.len(), 2);
        let t1 = &rows[0];
        assert_eq!(t1.type_id, 1);
        assert_eq!(t1.hits, 2); // page:a hit + page:b hit
        assert_eq!(t1.misses, 1);
        assert_eq!(t1.render_cost_units, 12);
        assert!((t1.hit_rate - 2.0 / 3.0).abs() < 1e-9);
        let t2 = &rows[1];
        assert_eq!(t2.type_id, 2);
        assert_eq!(t2.hits, 1);

        // Unresolvable URL landed in the unattributed bucket, not a row.
        let doc = board.doc();
        assert_eq!(doc.unattributed.misses, 1);
        assert_eq!(doc.unattributed.render_cost_units, 5);
        assert_eq!(doc.pending_urls, 0);
    }

    #[test]
    fn sync_outcomes_fold_and_bump_version() {
        let board = ScorecardBoard::default();
        assert_eq!(board.version(), 0);
        board.note_sync(&[TypeSyncOutcome {
            type_id: 3,
            sql: "SELECT 1".to_string(),
            invalidations: 2,
            pages_ejected: 4,
            polls: 1,
            poll_spend_micros: 400,
            staleness_micros: 90,
            staleness_events: 2,
            index_candidates: 0,
            index_skipped: 0,
            index_residual: 0,
            shape: "topk".to_string(),
            shape_skipped: 1,
        }]);
        assert_eq!(board.version(), 1);
        board.note_sync(&[TypeSyncOutcome {
            type_id: 3,
            invalidations: 1,
            ..Default::default()
        }]);
        let rows = board.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].invalidations, 3);
        assert_eq!(rows[0].sync_touches, 2);
        assert_eq!(rows[0].poll_spend_micros, 400);
        assert!((rows[0].avg_staleness_micros - 45.0).abs() < 1e-9);
        // Empty outcome list does not bump the version.
        let v = board.version();
        board.note_sync(&[]);
        assert_eq!(board.version(), v);
    }

    #[test]
    fn rendering_is_sorted_and_byte_stable_across_insertion_order() {
        let run = |ids: &[u32]| {
            let board = ScorecardBoard::default();
            for &id in ids {
                board.note_sync(&[TypeSyncOutcome {
                    type_id: id,
                    sql: format!("SELECT {id}"),
                    invalidations: id as u64,
                    ..Default::default()
                }]);
            }
            board.note_request("page:b", true, None);
            board.note_request("page:a", false, Some(7));
            board.attribute_pending(types_fixed, sql_fixed);
            serde_json::to_string(&board.doc()).unwrap()
        };
        assert_eq!(run(&[5, 1, 9]), run(&[9, 5, 1]));
        let doc: ScorecardsDoc = serde_json::from_str(&run(&[5, 1, 9])).unwrap();
        let ids: Vec<u32> = doc.scorecards.iter().map(|r| r.type_id).collect();
        assert_eq!(ids, vec![1, 2, 5, 9]);
    }

    #[test]
    fn pending_bound_drops_new_urls_and_counts() {
        let board = ScorecardBoard::new(2);
        board.note_request("page:a", true, None);
        board.note_request("page:b", true, None);
        board.note_request("page:c", true, None); // over cap: dropped
        board.note_request("page:a", true, None); // existing: still folds
        assert_eq!(board.pending_dropped(), 1);
        board.attribute_pending(types_fixed, sql_fixed);
        assert_eq!(board.rows()[0].hits, 3);
    }

    /// Two threads tally one URL in two stripes; attribution folds both.
    #[test]
    fn a_url_tallied_on_two_threads_folds_once_per_stripe() {
        let board = ScorecardBoard::default();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    board.note_request("page:a", false, Some(3));
                    board.note_page(&Arc::from("page:a"), true, None);
                });
            }
        });
        board.attribute_pending(types_fixed, sql_fixed);
        let row = &board.rows()[0];
        assert_eq!((row.hits, row.misses, row.render_cost_units), (2, 2, 6));
        assert_eq!(board.doc().pending_urls, 0);
    }

    #[test]
    fn disabled_board_records_nothing() {
        let board = ScorecardBoard::default();
        board.set_enabled(false);
        board.note_request("page:a", true, None);
        board.attribute_pending(types_fixed, sql_fixed);
        assert!(board.rows().is_empty());
        assert_eq!(board.version(), 0);
    }
}
