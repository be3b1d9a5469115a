//! A query instance reaches the invalidator's registry typed: handed over
//! by the mapper with the QI/URL map row, or typed from the row's text as it
//! arrives — which is all a map rebuilt from the durable journal has. Both
//! must leave the same registry behind, and so must registering the rows'
//! texts one by one: same types in the same order (canonical text,
//! parameter count, tables, shape), same instances (values, pages,
//! predicate-index slots), same page-to-types map — over the rewrite
//! property tests' templates and the statements the harness generators give
//! their servlets.

use cacheportal::CachePortal;
use cacheportal_db::{Database, Value};
use cacheportal_harness::Scenario;
use cacheportal_invalidator::{Invalidator, InvalidatorConfig, Registry};
use cacheportal_sniffer::{type_text, Mapper, QiUrlMap, QueryLog, RequestLog};
use cacheportal_web::{PageKey, RequestObserver, RequestRecord};
use proptest::prelude::*;
use std::sync::Arc;

/// `crates/db/tests/rewrite_props.rs`' templates, with their marker counts.
const TEMPLATES: [(&str, usize); 6] = [
    ("SELECT * FROM R WHERE R.a > $1 AND R.b < $2", 2),
    ("SELECT R.a FROM R WHERE R.s = $1", 1),
    (
        "SELECT R.a, S.c FROM R, S WHERE R.b = S.b AND R.a >= $1 AND S.c IN ($2, $3)",
        3,
    ),
    (
        "SELECT * FROM R WHERE (R.a = $1 OR R.b = $2) AND R.s LIKE $3",
        3,
    ),
    ("SELECT * FROM R WHERE R.a BETWEEN $1 AND $2", 2),
    ("SELECT COUNT(*) FROM R, S WHERE R.b = S.b AND S.c <> $1", 1),
];

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..5).prop_map(Value::Int),
        (-4i64..4).prop_map(|q| Value::Float(q as f64 / 4.0)),
        "[a-c]{1,2}".prop_map(Value::Str),
        Just(Value::Str("O'Hara's".into())),
    ]
}

/// Everything observable about a registry, in a comparable form.
fn fingerprint(reg: &Registry, pages: &[PageKey]) -> Vec<String> {
    let mut out = Vec::new();
    for ty in reg.types() {
        out.push(format!(
            "type {:?} {} n={} tables={:?} shape={:?} registrations={} instances={}",
            ty.id,
            ty.sql,
            ty.n_params,
            ty.tables,
            ty.shape,
            ty.stats.registrations,
            ty.stats.instances
        ));
        let mut instances: Vec<String> = reg
            .instances_of(ty.id)
            .map(|(params, data)| {
                let mut pages: Vec<&PageKey> = data.pages.iter().collect();
                pages.sort();
                format!("  {params:?} slot={} pages={pages:?}", data.index_slot())
            })
            .collect();
        instances.sort();
        out.extend(instances);
    }
    for page in pages {
        out.push(format!("page {page} types={:?}", reg.types_of_page(page)));
    }
    out.push(format!("total={}", reg.total_instances()));
    out
}

/// Register the rows of a map the way a sync point does.
fn registered(map: &QiUrlMap) -> Invalidator {
    let mut invalidator = Invalidator::new(InvalidatorConfig::default());
    let report = invalidator
        .run_sync_point(&Database::new(), map)
        .expect("a sync point without updates");
    assert_eq!(report.registered as usize, map.len());
    invalidator
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn typed_and_text_registration_agree(
        seed in 0u64..10_000,
        // (statement, page, values), in the order the site serves them.
        served in prop::collection::vec(
            (0usize..16, 0u64..6, prop::collection::vec(value_strategy(), 3)),
            1..40,
        ),
        runs in 1usize..4,
    ) {
        let scenario = Scenario::generate(seed);
        let mut statements: Vec<(String, usize)> =
            TEMPLATES.iter().map(|(sql, n)| (sql.to_string(), *n)).collect();
        statements.extend(scenario.servlets.iter().map(|s| (s.sql(&scenario.tables), 1)));

        let requests = Arc::new(RequestLog::new());
        let queries = QueryLog::new();
        let map = Arc::new(QiUrlMap::new());
        let mut mapper = Mapper::new(requests.clone(), queries.clone(), map.clone());
        // The typed entry, as the portal drives it: a registration scan
        // after every mapper run.
        let mut typed = Invalidator::new(InvalidatorConfig::default());
        let db = Database::new();
        for (run, chunk) in served.chunks(served.len().div_ceil(runs)).enumerate() {
            for (i, (stmt, page, values)) in chunk.iter().enumerate() {
                let (sql, n) = &statements[stmt % statements.len()];
                let t = (run * 1000 + i * 10) as u64;
                queries.record(sql, &values[..*n], true, t + 1, t + 2);
                requests.on_request(RequestRecord {
                    servlet: "s".into(),
                    page_key: PageKey::raw(format!("page{page}")),
                    received: t,
                    delivered: t + 3,
                });
            }
            let report = mapper.run_once();
            prop_assert_eq!(report.mapped as usize, chunk.len());
            typed.run_sync_point(&db, &map).unwrap();
        }
        let pages: Vec<PageKey> = (0..6).map(|p| PageKey::raw(format!("page{p}"))).collect();
        let want = fingerprint(typed.registry(), &pages);

        // The text entry: the same map, as the journal replays it …
        let replayed = QiUrlMap::new();
        prop_assert!(replayed.load(&map.all()).is_empty());
        prop_assert_eq!(&fingerprint(registered(&replayed).registry(), &pages), &want);
        // … and row by row.
        let mut by_text = Registry::new();
        for row in map.all() {
            let typed = type_text(&row.sql).unwrap();
            by_text.register_typed(&typed.template, typed.params, row.page_key);
        }
        prop_assert_eq!(&fingerprint(&by_text, &pages), &want);
    }
}

/// Durable recovery rebuilds the map from journaled text, typed as it is
/// replayed, and registers from it at the first sync point: the recovered
/// registry equals the one the crashed portal had built.
#[test]
fn recovered_registry_equals_the_crashed_one() {
    fn registry_of(portal: &CachePortal, pages: &[PageKey]) -> Vec<String> {
        portal.with_invalidator(|inv| fingerprint(inv.registry(), pages))
    }
    for seed in [3u64, 17, 40] {
        let scenario = Scenario::generate(seed);
        let dir = std::env::temp_dir().join(format!(
            "cacheportal_registration_paths_{}_{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = cacheportal_web::shared(scenario.build_database());
        let plan = cacheportal_db::FaultPlan::none();
        let portal = scenario.build_portal_durable(db.clone(), &dir, plan.clone(), 1);
        let mut pages = Vec::new();
        for round in 0..3 {
            for idx in 0..scenario.servlets.len() {
                for g in 0..4 {
                    let out = portal.request(&scenario.request(idx, g + round));
                    pages.extend(out.key);
                }
            }
            portal.sync_point().unwrap();
        }
        pages.sort();
        pages.dedup();
        let want = registry_of(&portal, &pages);
        assert!(
            want.len() > pages.len() + 1,
            "the crashed portal registered something"
        );
        let cache = portal.page_cache().clone();
        drop(portal);

        let recovered = scenario.recover_portal(db, cache, &dir, plan, 1);
        recovered.sync_point().unwrap();
        assert_eq!(registry_of(&recovered, &pages), want, "seed {seed}");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
