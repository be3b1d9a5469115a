//! Predicate index over registered query instances — sublinear
//! invalidation (ROADMAP open item #1).
//!
//! The analysis stage decides affectedness per (delta tuple × bound query
//! instance). Without help that is a scan over **every** registered
//! instance of each candidate type, so sync latency grows O(cached QIs)
//! even when an update touches a handful of pages. This module maps an
//! updated tuple *directly* to the instances it can possibly affect:
//!
//! * **Equality tier** — a `col = $k` conjunct hashes instances by their
//!   bound parameter (`HashMap<Value, postings>`); a delta tuple probes
//!   with its column value.
//! * **Range tier** — `col < $k` / `<=` / `>` / `>=` and the
//!   param-bounded side of `col BETWEEN $i AND $j` keep instances in a
//!   `BTreeMap<Value, postings>` ordered by the bound parameter; a delta
//!   tuple probes the half-open interval of parameters its value can
//!   satisfy.
//! * **IN-set tier** — a `col IN ($i, $j, …)` conjunct (all list elements
//!   parameters) hashes each instance under *every* list value; a delta
//!   tuple probes with its column value, exactly like the equality tier.
//! * **LIKE-prefix tier** — a `col LIKE $k` conjunct whose bound pattern
//!   has a non-empty literal prefix (the characters before the first
//!   `%`/`_`) hashes the instance under that prefix; a delta tuple probes
//!   every prefix of its string value. A pattern can only match a string
//!   that starts with the pattern's literal prefix, so the probe is a
//!   sound superset; patterns with an empty literal prefix (or non-string
//!   bound patterns) fall into the always-scanned bucket.
//! * **Residual tier** — everything the classifier cannot prove
//!   (column-to-column joins on that occurrence, disjunctions,
//!   arithmetic, `NOT` forms, unqualified columns in multi-table
//!   queries) falls back to today's full scan. The index may only *skip*
//!   work, never change verdicts.
//!
//! # Soundness
//!
//! An instance may be skipped for a sync point only when its indexed
//! conjunct is **false under SQL semantics** for every delta tuple of
//! every touched occurrence. A false conjunct is fully bound after
//! occurrence substitution, so `tuple_residual` would return `NoImpact`
//! for that tuple — the scan would not have polled, marked, or ejected
//! anything for it. Probes are deliberately *supersets* wherever `Value`'s
//! total order and SQL comparison could disagree:
//!
//! * `Value`'s `Ord`/`Eq`/`Hash` agree with [`sql_cmp`] on every pair SQL
//!   can satisfy (numbers compare as `f64` by `total_cmp` in both, strings
//!   compare as strings in both). Pairs SQL can *never* satisfy (NULLs,
//!   string-vs-number) are allowed to over-match — over-inclusion is
//!   sound, the scan re-checks every candidate.
//! * A NULL tuple value satisfies no comparison, so it probes nothing.
//! * Types under the `TableLevel` policy never consult the index (the
//!   policy invalidates every instance regardless of predicates), and a
//!   type whose FROM tables no longer resolve falls back to the scan so
//!   its `BindFailure` fail-safe verdicts are emitted identically.
//!
//! [`sql_cmp`]: cacheportal_db::Value::sql_cmp

use cacheportal_db::sql::ast::{CmpOp, ColumnRef, Expr, Select, TableRef};
use cacheportal_db::{Database, Value};
use cacheportal_web::{push_tight, InlineVec};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::Arc;

use crate::delta::DeltaSet;

/// Comparison shape of one indexable conjunct, normalized so the column
/// is on the left (`$k op col` is stored flipped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndexOp {
    /// `col = $k`
    Eq,
    /// `col < $k`
    Lt,
    /// `col <= $k`
    Le,
    /// `col > $k`
    Gt,
    /// `col >= $k`
    Ge,
}

/// One classified conjunct: which column of the occurrence, which
/// comparison, and which parameter slot it binds.
#[derive(Debug, Clone)]
struct OccPlan {
    /// Column name (matched case-insensitively against the live schema at
    /// probe time, exactly as the analysis binder would).
    column: String,
    /// Normalized comparison.
    op: IndexOp,
    /// 0-based index into the instance's parameter vector.
    param: usize,
}

/// The slots posted under one indexed value: one, for a value that names a
/// row (a product page's sku), and then held in place.
type Postings = InlineVec<u32, 3>;

/// Per-FROM-occurrence index structure.
#[derive(Debug)]
enum OccIndex {
    /// No provably-safe indexable conjunct on this occurrence: deltas
    /// touching it scan every instance (the residual tier).
    Residual,
    /// Equality postings keyed by the bound parameter.
    Eq {
        plan: OccPlan,
        map: HashMap<Value, Postings>,
    },
    /// Range postings ordered by the bound parameter.
    Range {
        plan: OccPlan,
        map: BTreeMap<Value, Postings>,
    },
    /// IN-list postings: each instance keyed under every bound list value.
    InSet {
        column: String,
        /// 0-based parameter slots of the list elements.
        params: Vec<usize>,
        map: HashMap<Value, Postings>,
    },
    /// LIKE postings keyed by the bound pattern's literal prefix.
    LikePrefix {
        column: String,
        /// 0-based parameter slot of the pattern.
        param: usize,
        map: HashMap<String, Postings>,
    },
}

impl OccIndex {
    /// Indexed column name, `None` for the residual tier.
    fn column(&self) -> Option<&str> {
        match self {
            OccIndex::Residual => None,
            OccIndex::Eq { plan, .. } | OccIndex::Range { plan, .. } => Some(&plan.column),
            OccIndex::InSet { column, .. } | OccIndex::LikePrefix { column, .. } => Some(column),
        }
    }

    /// Whether a parameter vector of `n` values has every slot this
    /// occurrence structure reads at insert time.
    fn slots_within(&self, n: usize) -> bool {
        match self {
            OccIndex::Residual => true,
            OccIndex::Eq { plan, .. } | OccIndex::Range { plan, .. } => plan.param < n,
            OccIndex::InSet { params, .. } => params.iter().all(|p| *p < n),
            OccIndex::LikePrefix { param, .. } => *param < n,
        }
    }
}

/// Literal prefix of a LIKE pattern: the characters before the first
/// wildcard (`%` or `_`). A pattern can only match strings starting with
/// this prefix, because the leading literal characters must match exactly.
fn like_literal_prefix(pattern: &str) -> &str {
    match pattern.find(['%', '_']) {
        Some(i) => &pattern[..i],
        None => pattern,
    }
}

/// What a probe yields for one (type, delta batch) pair.
#[derive(Debug)]
pub enum Probe {
    /// The index cannot narrow this type for this batch (residual
    /// occurrence touched, schema drift, defensive fallback): scan all
    /// registered instances, exactly as before.
    Scan,
    /// Sound superset of the instances any delta tuple can affect, as
    /// bound parameter vectors (unsorted; the caller sorts with the same
    /// comparator the scan uses).
    Candidates(Vec<Arc<[Value]>>),
}

/// The per-type predicate index: occurrence structures plus a slot arena
/// interning the live instances' parameter vectors.
#[derive(Debug)]
pub struct TypeIndex {
    occs: Vec<OccIndex>,
    /// Slot → parameter vector: a clone of the registry's key for the
    /// instance.
    params_of: Vec<Arc<[Value]>>,
    /// Defensive bucket: instances whose parameters could not be placed
    /// in an occurrence structure. Always included in candidates.
    unclassified: BTreeSet<u32>,
}

impl TypeIndex {
    /// Classify one parameterized SELECT at type-intern time.
    pub fn plan(select: &Select) -> TypeIndex {
        let mut occs: Vec<OccIndex> = (0..select.from.len()).map(|_| OccIndex::Residual).collect();
        if let Some(w) = &select.where_clause {
            for conjunct in w.conjuncts() {
                let Some((occ, classified)) = classify_conjunct(conjunct, &select.from) else {
                    continue;
                };
                // Tier preference per occurrence: point probes beat set
                // probes beat interval probes beat prefix probes
                // (Eq > InSet > Range > LikePrefix); first winner per tier
                // is kept for determinism.
                let rank = |o: &OccIndex| match o {
                    OccIndex::Residual => 0u8,
                    OccIndex::LikePrefix { .. } => 1,
                    OccIndex::Range { .. } => 2,
                    OccIndex::InSet { .. } => 3,
                    OccIndex::Eq { .. } => 4,
                };
                let candidate = classified.into_occ();
                if rank(&candidate) > rank(&occs[occ]) {
                    occs[occ] = candidate;
                }
            }
        }
        TypeIndex {
            occs,
            params_of: Vec::new(),
            unclassified: BTreeSet::new(),
        }
    }

    /// Whether every occurrence is residual (the index can never narrow
    /// this type).
    pub fn is_fully_residual(&self) -> bool {
        self.occs.iter().all(|o| o.column().is_none())
    }

    /// Intern one newly-registered instance; returns its slot.
    pub fn insert(&mut self, params: &Arc<[Value]>) -> u32 {
        let slot =
            u32::try_from(self.params_of.len()).expect("a type has fewer than 2^32 instances");
        push_tight(&mut self.params_of, params.clone());
        // A plan's parameter slots always exist for instances registered
        // through the owning type's template; anything else — including a
        // LIKE pattern with no usable literal prefix — is defensively
        // routed to the always-scanned bucket.
        let mut placeable = self.occs.iter().all(|occ| occ.slots_within(params.len()));
        if placeable {
            for occ in &self.occs {
                if let OccIndex::LikePrefix { param, .. } = occ {
                    match &params[*param] {
                        Value::Str(s) if !like_literal_prefix(s).is_empty() => {}
                        _ => placeable = false,
                    }
                }
            }
        }
        if !placeable {
            self.unclassified.insert(slot);
            return slot;
        }
        for occ in &mut self.occs {
            match occ {
                OccIndex::Residual => {}
                OccIndex::Eq { plan, map } => {
                    map.entry(params[plan.param].clone()).or_default().push(slot);
                }
                OccIndex::Range { plan, map } => {
                    map.entry(params[plan.param].clone()).or_default().push(slot);
                }
                OccIndex::InSet { params: slots, map, .. } => {
                    for v in distinct_values(slots, params) {
                        map.entry(v.clone()).or_default().push(slot);
                    }
                }
                OccIndex::LikePrefix { param, map, .. } => {
                    let Value::Str(s) = &params[*param] else {
                        unreachable!("checked placeable above");
                    };
                    map.entry(like_literal_prefix(s).to_string())
                        .or_default()
                        .push(slot);
                }
            }
        }
        slot
    }

    /// Map one delta batch to candidate instances. `from` is the type's
    /// FROM list; `db` provides the live schema for column positions.
    pub fn probe(&self, from: &[TableRef], deltas: &DeltaSet, db: &Database) -> Probe {
        // BindFailure parity: if any FROM table is gone, the scan path
        // marks every instance affected (fail safe). The index must not
        // skip those instances, so it stands aside entirely.
        for tref in from {
            if db.catalog().get(&tref.table).is_none() {
                return Probe::Scan;
            }
        }
        let mut slots: BTreeSet<u32> = self.unclassified.clone();
        for (occ, tref) in from.iter().enumerate() {
            let Some(delta) = deltas.for_table(&tref.table) else {
                continue;
            };
            let Some(col_name) = self.occs[occ].column() else {
                return Probe::Scan; // residual occurrence touched
            };
            // Resolve the column against the live schema, exactly as the
            // binder would; drift (column dropped/renamed) falls back to
            // the scan so error/verdict behavior matches it.
            let table = db.catalog().get(&tref.table).expect("checked above");
            let Ok(col) = table.schema().require(col_name) else {
                return Probe::Scan;
            };
            let occ_index = &self.occs[occ];
            for row in delta.inserted.iter().chain(delta.deleted.iter()) {
                let Some(v) = row.get(col) else {
                    // Row narrower than the live schema (schema drift
                    // mid-batch): let the scan decide.
                    return Probe::Scan;
                };
                if matches!(v, Value::Null) {
                    continue; // NULL satisfies no comparison, IN, or LIKE
                }
                match occ_index {
                    OccIndex::Residual => unreachable!("column() was Some"),
                    OccIndex::Eq { map, .. } | OccIndex::InSet { map, .. } => {
                        if let Some(postings) = map.get(v) {
                            slots.extend(postings.iter().copied());
                        }
                    }
                    OccIndex::LikePrefix { map, .. } => {
                        // A pattern matches `s` only if its literal prefix
                        // is a prefix of `s`; probe every char-boundary
                        // prefix (non-empty; empty-prefix patterns live in
                        // the unclassified bucket). Non-string values never
                        // satisfy LIKE, so they probe nothing.
                        if let Value::Str(s) = v {
                            for (i, _) in s.char_indices().skip(1) {
                                if let Some(postings) = map.get(&s[..i]) {
                                    slots.extend(postings.iter().copied());
                                }
                            }
                            if !s.is_empty() {
                                if let Some(postings) = map.get(s.as_str()) {
                                    slots.extend(postings.iter().copied());
                                }
                            }
                        }
                    }
                    OccIndex::Range { plan, map } => {
                        // Parameters p whose conjunct `v op p` can hold:
                        //   col <  $k  →  p > v
                        //   col <= $k  →  p >= v
                        //   col >  $k  →  p < v
                        //   col >= $k  →  p <= v
                        // `Value`'s total order matches SQL on every
                        // satisfiable pair, so these ranges are supersets.
                        let matched = match plan.op {
                            IndexOp::Lt => map.range((Excluded(v), Unbounded)),
                            IndexOp::Le => map.range::<Value, _>((
                                std::ops::Bound::Included(v),
                                Unbounded,
                            )),
                            IndexOp::Gt => map.range::<Value, _>((
                                Unbounded,
                                std::ops::Bound::Excluded(v),
                            )),
                            IndexOp::Ge => map.range::<Value, _>((
                                Unbounded,
                                std::ops::Bound::Included(v),
                            )),
                            IndexOp::Eq => unreachable!("Eq stored in Eq map"),
                        };
                        for (_, postings) in matched {
                            slots.extend(postings.iter().copied());
                        }
                    }
                }
            }
        }
        let candidates: Vec<Arc<[Value]>> = slots
            .iter()
            .map(|s| self.params_of[*s as usize].clone())
            .collect();
        Probe::Candidates(candidates)
    }
}

/// Distinct bound values among the given parameter slots (IN-lists may
/// repeat a value; postings must carry each slot once per key).
fn distinct_values<'a>(slots: &[usize], params: &'a [Value]) -> Vec<&'a Value> {
    let mut out: Vec<&Value> = Vec::with_capacity(slots.len());
    for s in slots {
        let v = &params[*s];
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Classification outcome of one WHERE conjunct before its empty
/// occurrence structure is built.
enum Classified {
    /// `col op $k` / `$k op col` / param-bounded BETWEEN side.
    Cmp(OccPlan),
    /// `col IN ($i, $j, …)` with every element a parameter.
    InSet { column: String, params: Vec<usize> },
    /// `col LIKE $k` (pattern is per-instance; prefix extracted at insert).
    Like { column: String, param: usize },
}

impl Classified {
    fn into_occ(self) -> OccIndex {
        match self {
            Classified::Cmp(plan) if plan.op == IndexOp::Eq => {
                OccIndex::Eq { plan, map: HashMap::new() }
            }
            Classified::Cmp(plan) => OccIndex::Range { plan, map: BTreeMap::new() },
            Classified::InSet { column, params } => {
                OccIndex::InSet { column, params, map: HashMap::new() }
            }
            Classified::Like { column, param } => {
                OccIndex::LikePrefix { column, param, map: HashMap::new() }
            }
        }
    }
}

/// Classify one WHERE conjunct if it has a provably-safe indexable shape:
/// `col op $k` / `$k op col` / `col BETWEEN $i AND $j` (param-bounded
/// side) / `col IN ($i, …)` / `col LIKE $k`, where `col` resolves to
/// exactly the occurrence the engine's binder would pick.
fn classify_conjunct(e: &Expr, from: &[TableRef]) -> Option<(usize, Classified)> {
    let (col, op, param) = match e {
        Expr::Cmp { left, op, right } => match (&**left, &**right) {
            (Expr::Column(c), Expr::Param(k)) => (c, *op, *k),
            (Expr::Param(k), Expr::Column(c)) => (c, op.flip(), *k),
            _ => return None,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let Expr::Column(c) = &**expr else {
                return None;
            };
            // BETWEEN is `col >= low AND col <= high`; either
            // param-bounded side alone is a sound one-sided filter.
            if let Expr::Param(k) = &**low {
                return occ_of(c, from).map(|occ| {
                    (occ, Classified::Cmp(OccPlan {
                        column: c.column.clone(),
                        op: IndexOp::Ge,
                        param: *k - 1,
                    }))
                });
            }
            if let Expr::Param(k) = &**high {
                return occ_of(c, from).map(|occ| {
                    (occ, Classified::Cmp(OccPlan {
                        column: c.column.clone(),
                        op: IndexOp::Le,
                        param: *k - 1,
                    }))
                });
            }
            return None;
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let Expr::Column(c) = &**expr else {
                return None;
            };
            if list.is_empty() {
                return None;
            }
            let mut params = Vec::with_capacity(list.len());
            for item in list {
                let Expr::Param(k) = item else {
                    return None;
                };
                params.push(*k - 1);
            }
            let occ = occ_of(c, from)?;
            return Some((occ, Classified::InSet { column: c.column.clone(), params }));
        }
        Expr::Like {
            expr,
            pattern,
            negated: false,
        } => {
            let Expr::Column(c) = &**expr else {
                return None;
            };
            let Expr::Param(k) = &**pattern else {
                return None;
            };
            let occ = occ_of(c, from)?;
            return Some((occ, Classified::Like { column: c.column.clone(), param: *k - 1 }));
        }
        _ => return None,
    };
    let iop = match op {
        CmpOp::Eq => IndexOp::Eq,
        CmpOp::Lt => IndexOp::Lt,
        CmpOp::LtEq => IndexOp::Le,
        CmpOp::Gt => IndexOp::Gt,
        CmpOp::GtEq => IndexOp::Ge,
        CmpOp::NotEq => return None,
    };
    let occ = occ_of(col, from)?;
    Some((occ, Classified::Cmp(OccPlan { column: col.column.clone(), op: iop, param: param - 1 })))
}

/// Resolve a column reference to its FROM occurrence the same way the
/// engine's binder does: a qualified name takes the *first* binding that
/// matches case-insensitively; an unqualified name is only unambiguous
/// (without a schema) when the FROM list has a single occurrence.
fn occ_of(c: &ColumnRef, from: &[TableRef]) -> Option<usize> {
    match &c.table {
        Some(q) => from.iter().position(|t| t.binding().eq_ignore_ascii_case(q)),
        None => {
            if from.len() == 1 {
                Some(0)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacheportal_db::sql::parser::parse_select;
    use cacheportal_db::sql::rewrite::parameterize;
    use cacheportal_db::{LogOp, LogRecord};

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE item (id INT, k INT, v INT)").unwrap();
        db.execute("CREATE TABLE other (k INT, w INT)").unwrap();
        db
    }

    fn type_of(sql: &str) -> (Select, TypeIndex) {
        let sel = parse_select(sql).unwrap();
        let (template, _) = parameterize(&sel);
        let tix = TypeIndex::plan(&template);
        (template, tix)
    }

    fn deltas_for(table: &str, rows: Vec<Vec<Value>>) -> DeltaSet {
        let records: Vec<LogRecord> = rows
            .into_iter()
            .enumerate()
            .map(|(i, row)| LogRecord {
                lsn: i as u64 + 1,
                table: table.into(),
                op: LogOp::Insert(row),
            })
            .collect();
        DeltaSet::from_records(&records)
    }

    fn candidates(p: Probe) -> Vec<Vec<Value>> {
        match p {
            Probe::Candidates(mut c) => {
                c.sort_unstable();
                c.iter().map(|params| params.to_vec()).collect()
            }
            Probe::Scan => panic!("expected candidates, got scan fallback"),
        }
    }

    #[test]
    fn equality_tier_probes_point_values() {
        let db = db();
        let (template, mut tix) = type_of("SELECT v FROM item WHERE item.k = 7");
        for k in 0..100 {
            tix.insert(&[Value::Int(k)].into());
        }
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(42), Value::Int(0)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert_eq!(got, vec![vec![Value::Int(42)]]);
    }

    #[test]
    fn range_tier_probes_intervals() {
        let db = db();
        // `v < $1` — instances with parameter p are affected when tuple
        // value t satisfies t < p, i.e. p in (t, ∞).
        let (template, mut tix) = type_of("SELECT id FROM item WHERE item.v < 50");
        for p in [10, 20, 30] {
            tix.insert(&[Value::Int(p)].into());
        }
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(0), Value::Int(15)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert_eq!(got, vec![vec![Value::Int(20)], vec![Value::Int(30)]]);

        // Boundary: t == p must be excluded for strict <.
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(0), Value::Int(20)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert_eq!(got, vec![vec![Value::Int(30)]]);
    }

    #[test]
    fn between_indexes_the_param_bounded_low_side() {
        let db = db();
        let (template, mut tix) = type_of("SELECT id FROM item WHERE item.v BETWEEN 10 AND 20");
        // col >= $low: tuple t probes p <= t.
        tix.insert(&[Value::Int(10), Value::Int(20)].into());
        tix.insert(&[Value::Int(100), Value::Int(200)].into());
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(0), Value::Int(15)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert_eq!(got, vec![vec![Value::Int(10), Value::Int(20)]]);
    }

    #[test]
    fn cross_type_numeric_equality_matches() {
        let db = db();
        let (template, mut tix) = type_of("SELECT v FROM item WHERE item.k = 7");
        tix.insert(&[Value::Float(42.0)].into());
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(42), Value::Int(0)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert_eq!(got, vec![vec![Value::Float(42.0)]], "Int(42) must find Float(42.0)");
    }

    #[test]
    fn null_tuple_value_probes_nothing() {
        let db = db();
        let (template, mut tix) = type_of("SELECT v FROM item WHERE item.k = 7");
        tix.insert(&[Value::Int(1)].into());
        tix.insert(&[Value::Null].into());
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Null, Value::Int(0)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert!(got.is_empty(), "NULL satisfies no comparison: {got:?}");
    }

    #[test]
    fn join_occurrence_without_conjunct_is_residual() {
        let db = db();
        let (template, tix) =
            type_of("SELECT item.v FROM item, other WHERE item.k = other.k AND item.v < 5");
        // Deltas on `other` touch a residual occurrence → scan.
        let d = deltas_for("other", vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(matches!(tix.probe(&template.from, &d, &db), Probe::Scan));
        // Deltas on `item` touch the range-indexed occurrence → narrowed.
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(0), Value::Int(9)]]);
        assert!(matches!(tix.probe(&template.from, &d, &db), Probe::Candidates(_)));
    }

    #[test]
    fn unqualified_column_in_join_is_residual() {
        let (_, tix) = type_of("SELECT item.v FROM item, other WHERE v < 5");
        assert!(tix.is_fully_residual());
    }

    #[test]
    fn dropped_table_falls_back_to_scan_for_bindfailure_parity() {
        let mut db = db();
        let (template, mut tix) = type_of("SELECT v FROM item WHERE item.k = 7");
        tix.insert(&[Value::Int(1)].into());
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(1), Value::Int(0)]]);
        assert!(matches!(tix.probe(&template.from, &d, &db), Probe::Candidates(_)));
        db.execute("DROP TABLE item").unwrap();
        assert!(matches!(tix.probe(&template.from, &d, &db), Probe::Scan));
    }

    fn str_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE item (id INT, name TEXT)").unwrap();
        db
    }

    #[test]
    fn in_list_tier_probes_each_value() {
        let db = db();
        let (template, mut tix) = type_of("SELECT v FROM item WHERE item.k IN (1, 2)");
        assert!(!tix.is_fully_residual());
        tix.insert(&[Value::Int(10), Value::Int(20)].into());
        tix.insert(&[Value::Int(30), Value::Int(40)].into());
        // Duplicate list values must not duplicate postings.
        tix.insert(&[Value::Int(10), Value::Int(10)].into());
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(20), Value::Int(0)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert_eq!(got, vec![vec![Value::Int(10), Value::Int(20)]]);
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(10), Value::Int(0)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert_eq!(
            got,
            vec![
                vec![Value::Int(10), Value::Int(10)],
                vec![Value::Int(10), Value::Int(20)]
            ]
        );
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(99), Value::Int(0)]]);
        assert!(candidates(tix.probe(&template.from, &d, &db)).is_empty());
    }

    #[test]
    fn like_prefix_tier_probes_string_prefixes() {
        let db = str_db();
        let (template, mut tix) = type_of("SELECT id FROM item WHERE item.name LIKE 'ab%'");
        assert!(!tix.is_fully_residual());
        tix.insert(&[Value::Str("ab%".into())].into());
        tix.insert(&[Value::Str("abc%".into())].into());
        tix.insert(&[Value::Str("x_y".into())].into());
        // Pattern with no literal prefix: always-scanned bucket.
        tix.insert(&[Value::Str("%z".into())].into());
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Str("abcd".into())]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        // 'ab%' (prefix "ab") and 'abc%' (prefix "abc") both prefix "abcd";
        // '%z' rides along from the unclassified bucket; 'x_y' is excluded.
        assert_eq!(
            got,
            vec![
                vec![Value::Str("%z".into())],
                vec![Value::Str("ab%".into())],
                vec![Value::Str("abc%".into())]
            ]
        );
        // Non-string tuple values never satisfy LIKE: only the bucket rides.
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(7)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert_eq!(got, vec![vec![Value::Str("%z".into())]]);
    }

    #[test]
    fn eq_preferred_over_in_over_range_over_like() {
        // Same occurrence with IN and range: IN wins.
        let (_, tix) = type_of("SELECT v FROM item WHERE item.k IN (1,2) AND item.k < 9");
        assert!(matches!(tix.occs[0], OccIndex::InSet { .. }));
        // Eq beats IN.
        let (_, tix) = type_of("SELECT v FROM item WHERE item.k IN (1,2) AND item.k = 3");
        assert!(matches!(tix.occs[0], OccIndex::Eq { .. }));
        // Range beats LikePrefix.
        let (_, tix) =
            type_of("SELECT id FROM item WHERE item.name LIKE 'a%' AND item.name < 'zz'");
        assert!(matches!(tix.occs[0], OccIndex::Range { .. }));
    }

    #[test]
    fn negated_like_and_in_stay_residual() {
        let (_, tix) = type_of("SELECT id FROM item WHERE item.name NOT LIKE 'ab%'");
        assert!(tix.is_fully_residual());
        let (_, tix) = type_of("SELECT v FROM item WHERE item.k NOT IN (1, 2)");
        assert!(tix.is_fully_residual());
    }

    #[test]
    fn flipped_param_side_classifies() {
        let db = db();
        // `$1 > col` ≡ `col < $1` — the flip path.
        let (template, mut tix) = type_of("SELECT id FROM item WHERE 50 > item.v");
        tix.insert(&[Value::Int(30)].into());
        tix.insert(&[Value::Int(5)].into());
        let d = deltas_for("item", vec![vec![Value::Int(1), Value::Int(0), Value::Int(10)]]);
        let got = candidates(tix.probe(&template.from, &d, &db));
        assert_eq!(got, vec![vec![Value::Int(30)]]);
    }
}
