//! Eviction ↔ predicate-index coherence (ISSUE 8 satellite).
//!
//! Interleaves `register_instance` / `remove_pages` / probes and asserts
//! the incrementally-maintained predicate index stays coherent with the
//! instance registry: a probe never yields a dropped instance, never
//! misses a live one, and always matches a **naive rebuild** — a fresh
//! registry re-registered from the live instance set, whose index is
//! therefore trivially correct. The page → types reverse map behind
//! `Registry::types_of_page` is held to the same standard: after every
//! operation it must equal a scan of the instances.

use cacheportal_db::{Database, LogOp, LogRecord, Value};
use cacheportal_invalidator::delta::DeltaSet;
use cacheportal_invalidator::predicate_index::Probe;
use cacheportal_invalidator::query_type::{QueryTypeId, Registry};
use cacheportal_web::PageKey;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

/// The three shapes under test: equality tier, range tier, and a join
/// whose `U` occurrence is residual (so deltas on `U` must force a scan).
const TYPE_SQL: [fn(i64) -> String; 3] = [
    |p| format!("SELECT v FROM T WHERE T.k = {p}"),
    |p| format!("SELECT k FROM T WHERE T.v < {p}"),
    |p| format!("SELECT T.v FROM T, U WHERE T.k = U.k AND T.v < {p}"),
];

#[derive(Debug, Clone)]
enum Op {
    Register { ty: usize, param: i64, page: u8 },
    Remove { pages: Vec<u8> },
    Probe { tuples: Vec<(i64, i64)>, on_u: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..3, -8i64..8, any::<u8>())
            .prop_map(|(ty, param, page)| Op::Register { ty, param, page }),
        2 => proptest::collection::vec(any::<u8>(), 1..6)
            .prop_map(|pages| Op::Remove { pages }),
        3 => (proptest::collection::vec((-8i64..8, -8i64..8), 1..4), any::<bool>())
            .prop_map(|(tuples, on_u)| Op::Probe { tuples, on_u }),
    ]
}

fn db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (k INT, v INT)").unwrap();
    db.execute("CREATE TABLE U (k INT, w INT)").unwrap();
    db
}

fn fresh_registry() -> (Registry, Vec<QueryTypeId>) {
    let mut reg = Registry::new();
    let ids = vec![
        reg.register_type_sql("SELECT v FROM T WHERE T.k = $1").unwrap(),
        reg.register_type_sql("SELECT k FROM T WHERE T.v < $1").unwrap(),
        reg.register_type_sql("SELECT T.v FROM T, U WHERE T.k = U.k AND T.v < $1")
            .unwrap(),
    ];
    (reg, ids)
}

fn deltas(tuples: &[(i64, i64)], on_u: bool) -> DeltaSet {
    let table = if on_u { "U" } else { "T" };
    let records: Vec<LogRecord> = tuples
        .iter()
        .enumerate()
        .map(|(i, (a, b))| LogRecord {
            lsn: i as u64 + 1,
            table: table.into(),
            op: LogOp::Insert(vec![Value::Int(*a), Value::Int(*b)]),
        })
        .collect();
    DeltaSet::from_records(&records)
}

/// Normalize a probe for comparison: `Scan` or the candidate param set.
fn normalize(p: Probe) -> Option<BTreeSet<Vec<Value>>> {
    match p {
        Probe::Scan => None,
        Probe::Candidates(c) => Some(c.iter().map(|params| params.to_vec()).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_index_matches_naive_rebuild(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let db = db();
        let (mut reg, ids) = fresh_registry();
        // Shadow model of the live instances: (type, param) → pages.
        let mut model: HashMap<(usize, i64), HashSet<u8>> = HashMap::new();
        let mut pages_seen: BTreeSet<u8> = BTreeSet::new();

        for op in &ops {
            match op {
                Op::Register { ty, param, page } => {
                    reg.register_instance(
                        &TYPE_SQL[*ty](*param),
                        PageKey::raw(&format!("p{page}")),
                    )
                    .unwrap();
                    model.entry((*ty, *param)).or_default().insert(*page);
                    pages_seen.insert(*page);
                }
                Op::Remove { pages } => {
                    let gone: HashSet<PageKey> =
                        pages.iter().map(|p| PageKey::raw(&format!("p{p}"))).collect();
                    reg.remove_pages(&gone);
                    model.retain(|_, ps| {
                        ps.retain(|p| !pages.contains(p));
                        !ps.is_empty()
                    });
                }
                Op::Probe { tuples, on_u } => {
                    // Naive rebuild: a fresh registry fed only the live
                    // instances. Its index never saw a removal, so it is
                    // correct by construction.
                    let (mut rebuilt, rebuilt_ids) = fresh_registry();
                    for ((ty, param), pages) in &model {
                        for page in pages {
                            rebuilt
                                .register_instance(
                                    &TYPE_SQL[*ty](*param),
                                    PageKey::raw(&format!("p{page}")),
                                )
                                .unwrap();
                        }
                    }
                    let d = deltas(tuples, *on_u);
                    for ty in 0..3 {
                        let live = normalize(reg.probe_index(ids[ty], &d, &db));
                        let naive =
                            normalize(rebuilt.probe_index(rebuilt_ids[ty], &d, &db));
                        prop_assert_eq!(
                            &live, &naive,
                            "type {} diverged from naive rebuild (deltas on {})",
                            ty, if *on_u { "U" } else { "T" }
                        );
                        // Candidates must all be live instances of the type
                        // (a dropped instance must never resurface).
                        if let Some(cands) = &live {
                            for params in cands {
                                let p = match params[0] {
                                    Value::Int(i) => i,
                                    ref v => panic!("unexpected param {v:?}"),
                                };
                                prop_assert!(
                                    model.contains_key(&(ty, p)),
                                    "probe yielded dropped instance {:?} of type {}",
                                    params, ty
                                );
                            }
                        }
                    }
                }
            }
            // The cached live-instance counter stays exact (the O(1)
            // total_instances satellite; debug builds also cross-check
            // internally via debug_assert).
            prop_assert_eq!(reg.total_instances(), model.len());
            for page in &pages_seen {
                let key = PageKey::raw(&format!("p{page}"));
                let mut scanned: Vec<QueryTypeId> = ids
                    .iter()
                    .copied()
                    .filter(|id| reg.instances_of(*id).any(|(_, d)| d.pages.contains(&key)))
                    .collect();
                scanned.sort_unstable();
                prop_assert_eq!(reg.types_of_page(&key), scanned.as_slice(), "page p{}", page);
            }
        }
    }
}
