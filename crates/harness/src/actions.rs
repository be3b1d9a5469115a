//! The interleaved action stream a fuzz run drives through a portal.
//!
//! Actions are fully serializable (they are the body of a reproducer file)
//! and deliberately low-level: indexes into the scenario's table/servlet
//! lists plus small integers, so a shrunk trace stays readable.

use crate::gen::{Scenario, GROUPS, KEYS};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One statement inside a generated transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// Insert `(k, g, payload ordinal)` into table `idx`.
    Insert(usize, i64, i64, i64),
    /// Delete group `g` from table `idx`.
    Delete(usize, i64),
    /// Rewrite `v` for group `g` of table `idx` to payload ordinal `n`.
    Update(usize, i64, i64),
}

impl Stmt {
    /// Render against the scenario's schema.
    pub fn sql(&self, sc: &Scenario) -> String {
        let t = |i: usize| &sc.tables[i % sc.tables.len()];
        match self {
            Stmt::Insert(i, k, g, n) => t(*i).insert_sql(*k, *g, *n),
            Stmt::Delete(i, g) => t(*i).delete_sql(*g),
            Stmt::Update(i, g, n) => t(*i).update_sql(*g, *n),
        }
    }
}

/// One workload action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Request servlet `idx` for group `g` (serves from cache or generates).
    Request(usize, i64),
    /// The first half of a request of servlet `idx` for group `g`, into
    /// slot `slot`: a hit is served whole, a miss is generated and left in
    /// the slot, unadmitted (`BeginMiss(slot, idx, g)`).
    BeginMiss(usize, usize, i64),
    /// Admit the miss waiting in slot `slot`. A slot that is not open (none
    /// was begun, it was admitted already, or a crash dropped it) makes this
    /// a no-op, so a shrunk trace stays runnable.
    Admit(usize),
    /// One autocommit mutation.
    Mutate(Stmt),
    /// Multi-statement transaction (atomic: all or nothing).
    Txn(Vec<Stmt>),
    /// Run a synchronization point; the oracle fires right after.
    Sync,
    /// Flip the default invalidation policy — and every registered type's
    /// override — to policy code `p` (0 = Exact, 1 = Conservative,
    /// 2 = TableLevel).
    SetPolicy(u8),
}

fn gen_stmt(rng: &mut StdRng, n_tables: usize) -> Stmt {
    let i = rng.gen_range(0..n_tables);
    match rng.gen_range(0..4u8) {
        0 | 1 => Stmt::Insert(
            i,
            rng.gen_range(0..KEYS),
            rng.gen_range(0..GROUPS),
            rng.gen_range(0..50i64),
        ),
        2 => Stmt::Delete(i, rng.gen_range(0..GROUPS)),
        _ => Stmt::Update(i, rng.gen_range(0..GROUPS), rng.gen_range(0..50i64)),
    }
}

/// A page is cached and journaled, ejected by a delete of its group, and
/// admitted again between an insert into the emptied group and the delete
/// that empties it again, so the window's deltas net out around the page.
/// A crash before the next sync point once let recovery keep that page on
/// its first admission's origin (`tests/repros/`): crash-restart streams
/// are biased toward this shape so that short runs reach it.
fn readmit_after_eject(rng: &mut StdRng, sc: &Scenario) -> [Action; 7] {
    let s = rng.gen_range(0..sc.servlets.len());
    let t = sc.servlets[s].kind.table();
    let g = rng.gen_range(0..GROUPS);
    let insert = Stmt::Insert(t, rng.gen_range(0..KEYS), g, rng.gen_range(0..50i64));
    [
        Action::Request(s, g),
        Action::Sync,
        Action::Mutate(Stmt::Delete(t, g)),
        Action::Sync,
        Action::Mutate(insert),
        Action::Request(s, g),
        Action::Mutate(Stmt::Delete(t, g)),
    ]
}

/// A miss split at its admission: the page is generated into `slot`, then
/// usually a statement on the group it shows commits (alone or in a
/// transaction) and a sync point runs, and then the page is admitted. The
/// admission must be declined when a sync point ran in between, or the
/// page would be cached without the update that sync consumed.
fn split_miss(rng: &mut StdRng, sc: &Scenario, slot: usize) -> Vec<Action> {
    let s = rng.gen_range(0..sc.servlets.len());
    let t = sc.servlets[s].kind.table();
    let g = rng.gen_range(0..GROUPS);
    let mut actions = vec![Action::BeginMiss(slot, s, g)];
    if rng.gen_bool(0.75) {
        let stmt = match rng.gen_range(0..3u8) {
            0 => Stmt::Insert(t, rng.gen_range(0..KEYS), g, rng.gen_range(0..50i64)),
            1 => Stmt::Delete(t, g),
            _ => Stmt::Update(t, g, rng.gen_range(0..50i64)),
        };
        actions.push(if rng.gen_bool(0.25) {
            Action::Txn(vec![stmt, gen_stmt(rng, sc.tables.len())])
        } else {
            Action::Mutate(stmt)
        });
    }
    if rng.gen_bool(0.75) {
        actions.push(Action::Sync);
    }
    actions.push(Action::Admit(slot));
    actions
}

/// Generate `n` actions for the scenario, deterministically from its seed.
pub fn gen_actions(sc: &Scenario, n: usize) -> Vec<Action> {
    gen_stream(sc, n, false)
}

/// [`gen_actions`] with about three in ten requests split into a
/// `BeginMiss` and an `Admit`, a mutation and a sync point usually between
/// them (`split_miss`). `gen_actions` draws nothing for the split, so its
/// streams, and the smoke matrix, do not depend on it.
pub fn gen_split_miss_actions(sc: &Scenario, n: usize) -> Vec<Action> {
    gen_stream(sc, n, true)
}

fn gen_stream(sc: &Scenario, n: usize, split_misses: bool) -> Vec<Action> {
    let mut rng = StdRng::seed_from_u64(sc.seed ^ 0xac71_0057_2ea3_0002);
    let n_tables = sc.tables.len();
    let n_servlets = sc.servlets.len();
    let crashes = sc.fault.crash_restart > 0.0;
    let mut actions = Vec::with_capacity(n);
    let mut slots = 0;
    while actions.len() < n {
        let roll = rng.gen_range(0..100u8);
        let action = if roll < 35 {
            if split_misses && rng.gen_bool(0.3) {
                actions.extend(split_miss(&mut rng, sc, slots));
                slots += 1;
                continue;
            }
            Action::Request(rng.gen_range(0..n_servlets), rng.gen_range(0..GROUPS))
        } else if roll < 68 {
            Action::Mutate(gen_stmt(&mut rng, n_tables))
        } else if roll < 76 {
            let len = rng.gen_range(2..=4usize);
            Action::Txn((0..len).map(|_| gen_stmt(&mut rng, n_tables)).collect())
        } else if roll < 80 {
            Action::SetPolicy(rng.gen_range(0..3u8))
        } else if crashes && rng.gen_bool(0.3) {
            actions.extend(readmit_after_eject(&mut rng, sc));
            continue;
        } else {
            Action::Sync
        };
        actions.push(action);
    }
    actions.truncate(n);
    actions
}
