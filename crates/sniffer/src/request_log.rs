//! The HTTP request log (the sniffer's *request logger*, §3.1).
//!
//! Implemented as a [`RequestObserver`] installed on the application server —
//! the servlet-wrapper design from the paper: nothing in the servlet or the
//! web server changes.
//!
//! The log keeps of a request what the mapper joins on: the page it produced
//! and the window it was served in. The request, cookie and POST strings of
//! §3.1 are what the page key was computed from, and the application server
//! does not record them. Only a query record that names no page is joined to
//! these entries — one logged on the servlet's thread is filed under the
//! page it names — so the application server's requests are kept only when
//! a statement was logged outside any request's scope while they were
//! served ([`RequestObserver::on_served`]'s `overlapped`). A page can
//! depend on such a query only if its result reached the page's servlet,
//! and the query logger counts the statement before it returns that result
//! ([`cacheportal_web::note_unscoped_statement`]): the request that owns it
//! is always kept. A request left out could only have owned a containment
//! row of a query it never read — an over-invalidation. On a site whose
//! servlets query on their own thread the log stays empty between mapper
//! runs. A record handed to [`RequestObserver::on_request`] directly — a
//! hand-fed or shipped log — is always kept.

use cacheportal_db::stripe::Striped;
use cacheportal_web::clock::Micros;
use cacheportal_web::{PageKey, RequestObserver, RequestRecord};
use parking_lot::Mutex;
use std::sync::Arc;

/// One logged request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LoggedRequest {
    /// Canonical page key (host + path + key params).
    pub(crate) page_key: PageKey,
    /// Servlet that served the request.
    pub(crate) servlet: Arc<str>,
    /// Receive timestamp.
    pub(crate) received: Micros,
    /// Delivery timestamp.
    pub(crate) delivered: Micros,
}

/// Take every stripe's records, stripe by stripe, into one vector of their
/// exact number; each stripe's buffer is freed as it empties.
pub(crate) fn drain_stripes<T>(stripes: &Striped<Mutex<Vec<T>>>) -> Vec<T> {
    let mut taken: Vec<Vec<T>> = (stripes.iter())
        .map(|stripe| std::mem::take(&mut *stripe.lock()))
        .filter(|records| !records.is_empty())
        .collect();
    if taken.len() <= 1 {
        return taken.pop().unwrap_or_default();
    }
    let mut drained = Vec::with_capacity(taken.iter().map(Vec::len).sum());
    for mut records in taken {
        drained.append(&mut records);
    }
    drained
}

/// Append-only request log the mapper drains. Striped per thread
/// ([`cacheportal_db::stripe`]) like the query log: a request thread
/// appends to a stripe of its own.
#[derive(Default)]
pub struct RequestLog {
    inner: Striped<Mutex<Vec<LoggedRequest>>>,
}

impl RequestLog {
    /// Create an empty log.
    pub fn new() -> Self {
        RequestLog::default()
    }

    /// Take every record currently in the log (the mapper consumes them).
    pub(crate) fn drain(&self) -> Vec<LoggedRequest> {
        drain_stripes(&self.inner)
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.inner.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RequestObserver for RequestLog {
    fn on_request(&self, record: RequestRecord) {
        self.inner.mine().lock().push(LoggedRequest {
            page_key: record.page_key,
            servlet: record.servlet,
            received: record.received,
            delivered: record.delivered,
        });
    }

    /// Keep a served request only if a query without a page may have run
    /// for it: no other record reads its window.
    fn on_served(&self, record: RequestRecord, overlapped: bool) {
        if overlapped {
            self.on_request(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64) -> RequestRecord {
        RequestRecord {
            servlet: "s".into(),
            page_key: PageKey::raw(format!("k{id}")),
            received: id * 10,
            delivered: id * 10 + 5,
        }
    }

    #[test]
    fn drain_empties_the_log() {
        let log = RequestLog::new();
        log.on_request(record(1));
        log.on_request(record(2));
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1].page_key, PageKey::raw("k2"));
        assert_eq!((drained[1].received, drained[1].delivered), (20, 25));
        assert_eq!(&*drained[1].servlet, "s");
        assert!(log.is_empty());
        assert!(log.drain().is_empty());
    }

    #[test]
    fn a_served_request_is_kept_only_when_overlapped() {
        let log = RequestLog::new();
        log.on_served(record(1), false);
        assert!(log.is_empty());
        log.on_served(record(2), true);
        assert_eq!(log.drain()[0].page_key, PageKey::raw("k2"));
    }
}
