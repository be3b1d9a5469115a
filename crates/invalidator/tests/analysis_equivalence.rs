//! The compiled analysis against the one it replaced.
//!
//! [`TypeAnalysis`] classifies a type's WHERE conjuncts once, on the
//! parameterised text, and takes an instance as its parameter slice. Before
//! it, every instance was a *bound copy* of the type — the parameters
//! substituted into a clone of the `SELECT`, its conjuncts classified again,
//! the tuple's columns substituted into clones of those — and a poll was the
//! SQL text of the residual. That path is kept here, in [`oracle`], as the
//! reference: over generated types (one to three FROM occurrences and a
//! 66-occurrence list, self-joins, conjuncts mixing parameters, columns,
//! constants, `OR`, `IN`, `LIKE`, `BETWEEN`, columns that are ambiguous or do
//! not resolve), parameter tuples (one too short now and then) and delta
//! tuples, both must give the same verdict or the same error, and every
//! poll the same text byte for byte, the same `other_tables` and the same
//! `key` — the `DefaultHasher` of that text — per tuple and batched.

use cacheportal_db::sql::parser::parse_select;
use cacheportal_db::table::Row;
use cacheportal_db::{Database, DbError, Value};
use cacheportal_invalidator::query_type::QueryShape;
use cacheportal_invalidator::{BatchImpact, PollingQuery, TupleImpact, TypeAnalysis};
use proptest::prelude::*;

/// The AST-substituting analysis, as `analysis.rs` had it.
mod oracle {
    use cacheportal_db::eval::{bind, BindContext};
    use cacheportal_db::sql::ast::{AggFunc, Expr, Select, SelectItem, Statement, TableRef};
    use cacheportal_db::sql::rewrite::substitute_params;
    use cacheportal_db::table::Row;
    use cacheportal_db::{Database, DbError, DbResult, Value};
    use std::hash::{Hash, Hasher};

    /// A poll as text, with the key computed from the text.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Poll {
        pub sql: String,
        pub other_tables: Vec<String>,
        pub key: u64,
    }

    impl Poll {
        fn new(sql: String, other_tables: Vec<String>) -> Poll {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            sql.hash(&mut h);
            Poll {
                key: h.finish(),
                sql,
                other_tables,
            }
        }
    }

    /// What one tuple, or one batch of them, does to an instance.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Outcome {
        NoImpact,
        Affected,
        NeedsPolls(Vec<Poll>),
    }

    struct CompiledConjunct {
        expr: Expr,
        /// Bit i set ⇔ the conjunct references FROM occurrence i; `u64::MAX`
        /// when it could not be classified.
        occ_mask: u64,
        has_columns: bool,
        const_false: bool,
    }

    fn compile_conjunct(e: &Expr, ctx: &BindContext) -> CompiledConjunct {
        let cols = e.columns();
        let has_columns = !cols.is_empty();
        let mut mask = 0u64;
        let mut fallback = false;
        for c in &cols {
            match ctx.resolve(c) {
                Ok((t, _)) if t < 64 => mask |= 1 << t,
                _ => fallback = true,
            }
        }
        let const_false = if has_columns {
            false
        } else {
            match bind(e, &BindContext::new(vec![]), &[]) {
                Ok(b) => !b.eval_predicate(&[]),
                Err(_) => {
                    fallback = true;
                    false
                }
            }
        };
        CompiledConjunct {
            expr: e.clone(),
            occ_mask: if fallback { u64::MAX } else { mask },
            has_columns,
            const_false,
        }
    }

    /// One instance: the type's `SELECT` with the instance's values in it.
    pub struct BoundInstance {
        select: Select,
        ctx: BindContext,
        conjuncts: Vec<CompiledConjunct>,
    }

    impl BoundInstance {
        pub fn new(ty: &Select, params: &[Value], db: &Database) -> DbResult<BoundInstance> {
            let select = substitute_params(ty, params)?;
            let mut tables = Vec::with_capacity(select.from.len());
            for tref in &select.from {
                let schema = db
                    .catalog()
                    .get(&tref.table)
                    .map(|t| t.schema().clone())
                    .ok_or_else(|| DbError::UnknownTable(tref.table.clone()))?;
                tables.push((tref.binding().to_string(), schema));
            }
            let ctx = BindContext::new(tables);
            let conjuncts = match &select.where_clause {
                Some(w) => w
                    .conjuncts()
                    .into_iter()
                    .map(|c| compile_conjunct(c, &ctx))
                    .collect(),
                None => Vec::new(),
            };
            Ok(BoundInstance {
                select,
                ctx,
                conjuncts,
            })
        }
    }

    pub fn analyze_tuple(
        inst: &BoundInstance,
        occurrence: usize,
        tuple: &Row,
    ) -> DbResult<Outcome> {
        match tuple_residual(inst, occurrence, tuple)? {
            None => Ok(Outcome::NoImpact),
            Some(residual) if inst.select.from.len() == 1 => {
                assert!(residual.is_empty(), "single-table residual impossible");
                Ok(Outcome::Affected)
            }
            Some(residual) => Ok(Outcome::NeedsPolls(vec![build_poll(
                inst,
                occurrence,
                Expr::conjoin(residual),
            )])),
        }
    }

    pub fn analyze_tuple_batch(
        inst: &BoundInstance,
        occurrence: usize,
        tuples: &[Row],
        max_or_terms: usize,
    ) -> DbResult<(Outcome, usize)> {
        let mut residuals: Vec<Expr> = Vec::new();
        let mut survivors = 0usize;
        for tuple in tuples {
            match tuple_residual(inst, occurrence, tuple)? {
                None => continue,
                Some(residual) => {
                    survivors += 1;
                    if inst.select.from.len() == 1 {
                        return Ok((Outcome::Affected, survivors));
                    }
                    if residual.is_empty() {
                        return Ok((
                            Outcome::NeedsPolls(vec![build_poll(inst, occurrence, None)]),
                            survivors,
                        ));
                    }
                    residuals.push(Expr::conjoin(residual).expect("non-empty"));
                }
            }
        }
        if residuals.is_empty() {
            return Ok((
                if survivors > 0 {
                    Outcome::Affected
                } else {
                    Outcome::NoImpact
                },
                survivors,
            ));
        }
        let polls = residuals
            .chunks(max_or_terms)
            .map(|chunk| {
                let ored = chunk
                    .iter()
                    .cloned()
                    .reduce(|a, b| Expr::Or(Box::new(a), Box::new(b)))
                    .expect("chunk non-empty");
                build_poll(inst, occurrence, Some(ored))
            })
            .collect();
        Ok((Outcome::NeedsPolls(polls), survivors))
    }

    fn tuple_residual(
        inst: &BoundInstance,
        occurrence: usize,
        tuple: &Row,
    ) -> DbResult<Option<Vec<Expr>>> {
        let bit = if occurrence < 64 {
            1u64 << occurrence
        } else {
            0
        };
        let mut residual: Vec<Expr> = Vec::new();
        for compiled in &inst.conjuncts {
            if compiled.const_false {
                return Ok(None);
            }
            let must_walk =
                occurrence >= 64 || compiled.occ_mask == u64::MAX || (compiled.occ_mask & bit) != 0;
            if !must_walk {
                if compiled.has_columns {
                    residual.push(compiled.expr.clone());
                }
                continue;
            }
            let substituted = substitute_occurrence(&compiled.expr, &inst.ctx, occurrence, tuple)?;
            if !substituted.columns().is_empty() {
                residual.push(substituted);
            } else {
                let bound = bind(&substituted, &BindContext::new(vec![]), &[])?;
                if !bound.eval_predicate(&[]) {
                    return Ok(None);
                }
            }
        }
        Ok(Some(residual))
    }

    fn build_poll(inst: &BoundInstance, occurrence: usize, residual: Option<Expr>) -> Poll {
        let others: Vec<&TableRef> = inst
            .select
            .from
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != occurrence)
            .map(|(_, t)| t)
            .collect();
        let poll = Select {
            distinct: false,
            items: vec![SelectItem::Expr {
                expr: Expr::Agg {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                },
                alias: None,
            }],
            from: others.iter().map(|t| (*t).clone()).collect(),
            where_clause: residual,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        };
        let mut other_tables: Vec<String> = others
            .iter()
            .map(|t| t.table.to_ascii_lowercase())
            .collect();
        other_tables.sort();
        other_tables.dedup();
        Poll::new(Statement::Select(poll).to_sql(), other_tables)
    }

    fn substitute_occurrence(
        e: &Expr,
        ctx: &BindContext,
        occurrence: usize,
        tuple: &Row,
    ) -> DbResult<Expr> {
        let err: std::cell::RefCell<Option<DbError>> = std::cell::RefCell::new(None);
        let out = e.transform(&|node| {
            if let Expr::Column(c) = node {
                match ctx.resolve(c) {
                    Ok((t, col)) if t == occurrence => {
                        return Some(Expr::Literal(tuple[col].clone()));
                    }
                    Ok(_) => {}
                    Err(e) => {
                        *err.borrow_mut() = Some(e);
                    }
                }
            }
            None
        });
        match err.into_inner() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

use oracle::Outcome;

/// R(a, b, s) and S(a, c, s): `a` and `s` are ambiguous in a join of both.
fn schema() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE R (a INT, b INT, s TEXT)").unwrap();
    db.execute("CREATE TABLE S (a INT, c INT, s TEXT)").unwrap();
    db
}

/// A FROM list: its text, and the bindings conjuncts draw columns from, each
/// with its table. The last list has 66 occurrences, so that two of the
/// drawn bindings sit at positions the 64-bit occurrence mask cannot hold.
fn from_list(pick: u8) -> (String, Vec<(String, &'static str)>) {
    let named = |list: &[(&str, &'static str)]| {
        let text: Vec<String> = list
            .iter()
            .map(|(binding, table)| {
                if binding == table {
                    table.to_string()
                } else {
                    format!("{table} {binding}")
                }
            })
            .collect();
        let bindings = list.iter().map(|(b, t)| (b.to_string(), *t)).collect();
        (text.join(", "), bindings)
    };
    match pick % 6 {
        0 => named(&[("R", "R")]),
        1 => named(&[("R", "R"), ("S", "S")]),
        2 => named(&[("r1", "R"), ("r2", "R")]),
        3 => named(&[("R", "R"), ("S", "S"), ("r2", "R")]),
        4 => named(&[("s1", "S"), ("s2", "S"), ("R", "R")]),
        _ => {
            let mut text: Vec<String> = (0..64).map(|i| format!("R q{i}")).collect();
            text.push("S w".into());
            text.push("R z".into());
            let drawn = [("q0", "R"), ("q63", "R"), ("w", "S"), ("z", "R")];
            (
                text.join(", "),
                drawn.iter().map(|(b, t)| (b.to_string(), *t)).collect(),
            )
        }
    }
}

const LITERALS: [&str; 10] = [
    "0",
    "1",
    "2",
    "7",
    "'x'",
    "'O''Neil'",
    "'a%'",
    "NULL",
    "2.5",
    "-3",
];

fn value(pick: u8) -> Value {
    match pick % 10 {
        0 => Value::Int(0),
        1 => Value::Int(1),
        2 => Value::Int(2),
        3 => Value::Int(7),
        4 => "x".into(),
        5 => "O'Neil".into(),
        6 => "a%".into(),
        7 => Value::Null,
        8 => Value::Float(2.5),
        _ => Value::Int(-3),
    }
}

/// Four bytes of choice per operand-bearing slot of a conjunct.
type Picks = (u8, u8, u8, u8);

/// One operand: mostly a qualified column of a drawn binding, else an
/// unqualified one (ambiguous wherever both tables are joined), a parameter,
/// a literal, or — rarely — a column or a qualifier that does not exist.
fn operand(bindings: &[(String, &'static str)], (kind, pick, ..): Picks) -> String {
    let qualified = || {
        let (binding, table) = &bindings[pick as usize % bindings.len()];
        let columns = if *table == "R" {
            ["a", "b", "s"]
        } else {
            ["a", "c", "s"]
        };
        format!("{binding}.{}", columns[(pick / 8) as usize % 3])
    };
    match kind % 10 {
        0..=4 => qualified(),
        5 => ["a", "b", "c", "s"][pick as usize % 4].to_string(),
        6 | 7 => format!("${}", 1 + pick % 3),
        8 => LITERALS[pick as usize % LITERALS.len()].to_string(),
        _ => match pick % 12 {
            0 => "zz".to_string(),
            1 => "nosuch.a".to_string(),
            _ => qualified(),
        },
    }
}

fn conjunct(bindings: &[(String, &'static str)], shape: u8, p: [Picks; 4]) -> String {
    let op = |i: usize| operand(bindings, p[i]);
    let cmp = ["=", "<", ">=", "<>"][p[0].2 as usize % 4];
    match shape % 12 {
        0..=2 => format!("{} {cmp} {}", op(0), op(1)),
        3 => format!("{} IN ({}, {}, ${})", op(0), op(1), op(2), 1 + p[3].3 % 3),
        4 => format!(
            "{} LIKE {}",
            op(0),
            ["'a%'", "'%x'", "$1", "$2"][p[1].3 as usize % 4]
        ),
        5 => format!("({} = {} OR {} {cmp} {})", op(0), op(1), op(2), op(3)),
        6 => format!("{} BETWEEN {} AND {}", op(0), op(1), op(2)),
        7 => format!("{} IS NULL", op(0)),
        8 => format!("NOT ({} {cmp} {})", op(0), op(1)),
        9 => [
            "1 = 0".to_string(),
            "1 = 1".to_string(),
            format!(
                "${} {cmp} {}",
                1 + p[0].3 % 3,
                LITERALS[p[1].3 as usize % LITERALS.len()]
            ),
            "$1 = $2".to_string(),
        ][p[2].3 as usize % 4]
            .clone(),
        10 => format!("UPPER({}) = {}", op(0), op(1)),
        _ => format!("{} + 1 {cmp} {}", op(0), op(1)),
    }
}

fn poll_of(compiled: &PollingQuery) -> oracle::Poll {
    use std::hash::{Hash, Hasher};
    let sql = compiled.sql();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    sql.hash(&mut h);
    assert_eq!(
        compiled.key,
        h.finish(),
        "key is the hash of the text: {sql}"
    );
    assert_eq!(compiled.to_string(), sql);
    oracle::Poll {
        sql,
        other_tables: compiled.other_tables.to_vec(),
        key: compiled.key,
    }
}

fn tuple_impact(impact: TupleImpact) -> Outcome {
    match impact {
        TupleImpact::NoImpact => Outcome::NoImpact,
        TupleImpact::Affected => Outcome::Affected,
        TupleImpact::NeedsPoll(poll) => Outcome::NeedsPolls(vec![poll_of(&poll)]),
    }
}

fn batch_impact(impact: BatchImpact) -> Outcome {
    match impact {
        BatchImpact::NoImpact => Outcome::NoImpact,
        BatchImpact::Affected => Outcome::Affected,
        BatchImpact::NeedsPolls(polls) => Outcome::NeedsPolls(polls.iter().map(poll_of).collect()),
    }
}

type Conjunct = (u8, [Picks; 4]);

fn picks() -> impl Strategy<Value = Picks> {
    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
}

fn conjuncts() -> impl Strategy<Value = Vec<Conjunct>> {
    let four = (picks(), picks(), picks(), picks()).prop_map(|(a, b, c, d)| [a, b, c, d]);
    prop::collection::vec((any::<u8>(), four), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn compiled_analysis_agrees_with_the_bound_instance(
        from in any::<u8>(),
        where_clause in conjuncts(),
        projected_param in 0u8..8,
        params in prop::collection::vec(any::<u8>(), 3),
        short_by_one in 0u8..6,
        tuples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let db = schema();
        let (from_text, bindings) = from_list(from);
        let where_text: Vec<String> = where_clause
            .iter()
            .map(|(shape, p)| conjunct(&bindings, *shape, *p))
            .collect();
        // A marker outside WHERE counts towards what an instance must bind.
        let items = if projected_param == 0 { "$3" } else { "*" };
        let mut text = format!("SELECT {items} FROM {from_text}");
        if !where_text.is_empty() {
            text.push_str(" WHERE ");
            text.push_str(&where_text.join(" AND "));
        }
        let ty = parse_select(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let mut params: Vec<Value> = params.into_iter().map(value).collect();
        if short_by_one == 0 {
            params.pop();
        }
        let tuples: Vec<Row> = tuples
            .into_iter()
            .map(|(a, b, c)| vec![value(a), value(b), value(c)])
            .collect();

        let compiled = TypeAnalysis::new(&ty, QueryShape::classify(&ty), &db).unwrap();
        let bound = oracle::BoundInstance::new(&ty, &params, &db);
        let bound = bound.as_ref().map_err(DbError::clone);

        let last = ty.from.len() - 1;
        for occurrence in [0, 1, 2, 63, 64, 65] {
            if occurrence > last {
                continue;
            }
            for tuple in &tuples {
                prop_assert_eq!(
                    compiled.analyze_tuple(&params, occurrence, tuple).map(tuple_impact),
                    bound.clone().and_then(|inst| oracle::analyze_tuple(inst, occurrence, tuple)),
                    "{} with {:?}: occurrence {} meets {:?}", text, params, occurrence, tuple
                );
            }
            for max_or_terms in [1, 2, 8] {
                prop_assert_eq!(
                    compiled
                        .analyze_tuple_batch(&params, occurrence, &tuples, max_or_terms)
                        .map(|(impact, survivors)| (batch_impact(impact), survivors)),
                    bound.clone().and_then(|inst| {
                        oracle::analyze_tuple_batch(inst, occurrence, &tuples, max_or_terms)
                    }),
                    "{} with {:?}: occurrence {} meets {:?}, {} to a poll",
                    text, params, occurrence, tuples, max_or_terms
                );
            }
        }
    }
}
