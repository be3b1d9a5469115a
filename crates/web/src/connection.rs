//! Database connection abstraction — the JDBC analogue.
//!
//! Servlets talk to the database through `dyn Connection`, never through the
//! engine directly. This is the seam the sniffer's query logger wraps
//! (§3.2): it works no matter how the servlet obtained the connection
//! (explicit driver, pool, or data source), exactly like the paper's JDBC
//! driver wrapper.

use cacheportal_db::stripe::Striped;
use cacheportal_db::{Database, DbResult, ExecOutcome, PreparedStatement, QueryResult, Value};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared database handle (one DBMS, many connections).
pub type SharedDb = Arc<RwLock<Database>>;

/// Create a shared handle from an engine instance.
pub fn shared(db: Database) -> SharedDb {
    Arc::new(RwLock::new(db))
}

/// A database connection: the servlet-facing query interface.
pub trait Connection: Send {
    /// Run a SELECT.
    fn query(&mut self, sql: &str, params: &[Value]) -> DbResult<QueryResult>;
    /// Run a SELECT whose text the caller holds shared, as a servlet holds
    /// its templates: a wrapper that keeps the text keeps a clone of the
    /// handle instead of a copy. The same statement as [`Connection::query`].
    fn query_shared(&mut self, sql: &Arc<str>, params: &[Value]) -> DbResult<QueryResult> {
        self.query(sql, params)
    }
    /// Run any statement (updates arrive through here too).
    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ExecOutcome>;
}

/// Statement texts a connection keeps prepared. A site has a handful of
/// servlet templates; past this many the connection starts over.
const PREPARED_CAPACITY: usize = 64;

/// Direct connection to an in-process [`Database`] (the "native driver").
/// Like a JDBC connection it keeps the statements it has prepared: a
/// parameterised SELECT is prepared on the connection's first run of its
/// text, and every later run takes the database's read lock and nothing
/// else another connection writes.
pub struct DbConnection {
    db: SharedDb,
    prepared: Vec<(Box<str>, PreparedStatement)>,
}

impl DbConnection {
    /// Create the connection/pool.
    pub fn new(db: SharedDb) -> Self {
        DbConnection { db, prepared: Vec::new() }
    }
}

impl Connection for DbConnection {
    fn query(&mut self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        // SELECTs go through the engine's read-only path: a shared read
        // lock suffices, so connections never serialize behind each other
        // (or behind the invalidator's pollers) on reads.
        let db = self.db.read();
        if params.is_empty() {
            // A text with its values written in rarely comes twice.
            return db.query_with_params(sql, params);
        }
        let at = match self.prepared.iter().position(|(text, _)| **text == *sql) {
            Some(at) => at,
            None => {
                if self.prepared.len() >= PREPARED_CAPACITY {
                    self.prepared.clear();
                }
                self.prepared.push((sql.into(), db.prepare(sql)?));
                self.prepared.len() - 1
            }
        };
        db.query_prepared(&mut self.prepared[at].1, params)
    }

    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ExecOutcome> {
        self.db.write().execute_with_params(sql, params)
    }
}

/// Factory producing fresh connections (possibly wrapped by loggers).
pub type ConnectionFactory = Arc<dyn Fn() -> Box<dyn Connection> + Send + Sync>;

/// Pool statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolStats {
    /// Total checkouts served.
    pub checkouts: u64,
    /// Connections created by the factory.
    pub created: u64,
    /// Checkouts served by creating a connection beyond `max` because the
    /// pool was empty (resource-pressure signal; the paper's §5.3 starvation
    /// story is about exactly this kind of contention).
    pub overflow: u64,
}

/// One stripe of a pool: the connections its threads returned, and the
/// checkouts it served.
#[derive(Default)]
struct PoolStripe {
    idle: Vec<Box<dyn Connection>>,
    checkouts: u64,
}

/// A fixed-size connection pool with overflow accounting — the BEA WebLogic
/// "connection pool / data source" analogue (§3.2).
///
/// The idle connections are striped per thread ([`cacheportal_db::stripe`]):
/// a thread checks out from, and returns to, a stripe of its own, so two
/// request threads take no lock in common, and a thread gets back the
/// connection it returned, with the statements it prepared. Each stripe
/// keeps at most `max` idle connections.
pub struct ConnectionPool {
    factory: ConnectionFactory,
    stripes: Striped<Mutex<PoolStripe>>,
    max: usize,
    created: AtomicU64,
    overflow: AtomicU64,
}

impl ConnectionPool {
    /// Create the connection/pool.
    pub fn new(factory: ConnectionFactory, max: usize) -> Arc<Self> {
        Arc::new(ConnectionPool {
            factory,
            stripes: Striped::default(),
            max,
            created: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        })
    }

    /// Borrow a connection; it returns to the pool when dropped.
    pub fn checkout(self: &Arc<Self>) -> PooledConnection {
        let conn = {
            let mut stripe = self.stripes.mine().lock();
            stripe.checkouts += 1;
            stripe.idle.pop()
        };
        let conn = conn.unwrap_or_else(|| {
            let prev = self.created.fetch_add(1, Ordering::Relaxed);
            if prev as usize >= self.max {
                self.overflow.fetch_add(1, Ordering::Relaxed);
            }
            (self.factory)()
        });
        PooledConnection {
            conn: Some(conn),
            pool: Arc::clone(self),
        }
    }

    /// Pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            checkouts: self.stripes.iter().map(|s| s.lock().checkouts).sum(),
            created: self.created.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
        }
    }

    fn checkin(&self, conn: Box<dyn Connection>) {
        let mut stripe = self.stripes.mine().lock();
        if stripe.idle.len() < self.max {
            stripe.idle.push(conn);
        }
        // else: drop the overflow connection.
    }
}

/// RAII guard around a pooled connection.
pub struct PooledConnection {
    conn: Option<Box<dyn Connection>>,
    pool: Arc<ConnectionPool>,
}

impl Connection for PooledConnection {
    fn query(&mut self, sql: &str, params: &[Value]) -> DbResult<QueryResult> {
        self.conn.as_mut().expect("live connection").query(sql, params)
    }

    fn query_shared(&mut self, sql: &Arc<str>, params: &[Value]) -> DbResult<QueryResult> {
        self.conn.as_mut().expect("live connection").query_shared(sql, params)
    }

    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ExecOutcome> {
        self.conn
            .as_mut()
            .expect("live connection")
            .execute(sql, params)
    }
}

impl Drop for PooledConnection {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.pool.checkin(conn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_db() -> SharedDb {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        shared(db)
    }

    #[test]
    fn direct_connection_queries() {
        let db = test_db();
        let mut conn = DbConnection::new(db);
        let r = conn.query("SELECT * FROM t WHERE a = $1", &[Value::Int(1)]).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(conn.execute("DELETE FROM t", &[]).unwrap().affected(), 2);
    }

    #[test]
    fn pool_reuses_connections() {
        let db = test_db();
        let factory: ConnectionFactory =
            Arc::new(move || Box::new(DbConnection::new(db.clone())));
        let pool = ConnectionPool::new(factory, 2);
        {
            let mut c1 = pool.checkout();
            c1.query("SELECT * FROM t", &[]).unwrap();
        }
        {
            let _c1 = pool.checkout();
            let _c2 = pool.checkout();
        }
        let s = pool.stats();
        assert_eq!(s.checkouts, 3);
        assert_eq!(s.created, 2, "second round reuses the returned conn");
        assert_eq!(s.overflow, 0);
    }

    #[test]
    fn pool_overflow_is_counted_and_dropped() {
        let db = test_db();
        let factory: ConnectionFactory =
            Arc::new(move || Box::new(DbConnection::new(db.clone())));
        let pool = ConnectionPool::new(factory, 1);
        {
            let _c1 = pool.checkout();
            let _c2 = pool.checkout();
            let _c3 = pool.checkout();
        }
        let s = pool.stats();
        assert_eq!(s.created, 3);
        assert_eq!(s.overflow, 2);
        // Only `max` connections are retained.
        {
            let _c = pool.checkout();
        }
        assert_eq!(pool.stats().created, 3, "retained connection was reused");
    }
}
