//! Registration ↔ predicate-index coherence.
//!
//! Interleaves registrations and probes and asserts the
//! incrementally-maintained predicate index stays coherent with the
//! instance registry: a probe never yields an unregistered instance, never
//! misses a registered one, and always matches a **naive rebuild** — a
//! fresh registry fed the registered instance set at once, in another
//! order. The page → types reverse map behind `Registry::types_of_page` is
//! held to the same standard: after every operation it must equal a scan of
//! the instances.

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
    Probe { tuples: Vec<(i64, i64)>, on_u: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..3, -8i64..8, any::<u8>())
            .prop_map(|(ty, param, page)| Op::Register { ty, param, page }),
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

/// Register the instance `TYPE_SQL[ty](param)` for page `p{page}`, typed
/// as the QI/URL map types a row given as text.
fn register(reg: &mut Registry, ty: usize, param: i64, page: u8) {
    let typed = cacheportal_sniffer::type_text(&TYPE_SQL[ty](param)).expect("a SELECT");
    reg.register_typed(&typed.template, typed.params, PageKey::raw(format!("p{page}")));
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
                    register(&mut reg, *ty, *param, *page);
                    model.entry((*ty, *param)).or_default().insert(*page);
                    pages_seen.insert(*page);
                }
                Op::Probe { tuples, on_u } => {
                    // Naive rebuild: a fresh registry fed the registered
                    // instances at once, in the model's order.
                    let (mut rebuilt, rebuilt_ids) = fresh_registry();
                    for ((ty, param), pages) in &model {
                        for page in pages {
                            register(&mut rebuilt, *ty, *param, *page);
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
                        // Candidates must all be registered instances of the
                        // type.
                        if let Some(cands) = &live {
                            for params in cands {
                                let p = match params[0] {
                                    Value::Int(i) => i,
                                    ref v => panic!("unexpected param {v:?}"),
                                };
                                prop_assert!(
                                    model.contains_key(&(ty, p)),
                                    "probe yielded unregistered instance {:?} of type {}",
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
                let key = PageKey::raw(format!("p{page}"));
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
