//! Which page the current thread is generating.
//!
//! The paper's sniffer joins its two logs on clocks because its wrappers
//! share nothing else. Ours share a thread: the servlet wrapper
//! ([`AppServer::serve`]) and the driver wrapper (the sniffer's
//! `LoggedConnection`) both run on the thread that runs the servlet, so the
//! first leaves the request's page key and servlet name where the second
//! finds them. Both are carried by those two wrappers only: no servlet, SQL
//! text or [`Connection`] signature knows them.
//!
//! A statement logged on a thread in no scope — one a servlet handed work
//! to — names no page, and is joined to the request windows that contain
//! it. The driver wrapper counts each such statement
//! ([`note_unscoped_statement`]) before it logs it and before it returns its
//! result, so a request whose servlet waited for one sees the count move
//! between the start and the end of its generation, and only such a request
//! needs its window logged.
//!
//! [`AppServer::serve`]: crate::AppServer::serve
//! [`Connection`]: crate::Connection

use crate::url::PageKey;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    static CURRENT: RefCell<Option<(PageKey, Arc<str>)>> = const { RefCell::new(None) };
}

/// Statements logged outside any request scope, process-wide.
static UNSCOPED: AtomicU64 = AtomicU64::new(0);

/// Count one statement logged on a thread in no request's scope. Call it
/// before the statement is logged and before its result is returned: a
/// servlet that reads the result then ends after the count moved.
pub fn note_unscoped_statement() {
    UNSCOPED.fetch_add(1, Ordering::Relaxed);
}

/// Statements logged outside any request scope so far, process-wide. Two
/// reads around a servlet differ when a statement whose result reached the
/// servlet was logged on another thread: handing the work over and getting
/// the result back both synchronise, so the first read precedes the count
/// and the count precedes the second read, and the count only grows.
pub fn unscoped_statements() -> u64 {
    UNSCOPED.load(Ordering::Relaxed)
}

/// Call `f` with the page key of the request this thread is serving and the
/// name of the servlet generating it: `None` outside
/// [`AppServer::serve`](crate::AppServer::serve), and on any thread a
/// servlet hands work to.
pub fn with_current_page<R>(f: impl FnOnce(Option<(&PageKey, &Arc<str>)>) -> R) -> R {
    CURRENT.with_borrow(|current| f(current.as_ref().map(|(page, servlet)| (page, servlet))))
}

/// This thread generates `page` on `servlet` until the guard is dropped,
/// which puts back what was there before — on return, on a servlet's error,
/// on a panic unwinding through `serve`, and after a `serve` nested in a
/// servlet — so a thread never files the next request's queries under a
/// finished page.
pub struct RequestScope {
    previous: Option<(PageKey, Arc<str>)>,
    /// The guard restores the thread it was made on: it stays there.
    not_send: PhantomData<*const ()>,
}

impl RequestScope {
    /// Enter the scope of a request for `page`, served by `servlet`.
    pub fn enter(page: PageKey, servlet: Arc<str>) -> RequestScope {
        RequestScope {
            previous: CURRENT.replace(Some((page, servlet))),
            not_send: PhantomData,
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT.set(self.previous.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> PageKey {
        PageKey::raw(format!("p{n}"))
    }

    fn enter(n: u64) -> RequestScope {
        RequestScope::enter(page(n), "s".into())
    }

    fn current() -> Option<PageKey> {
        with_current_page(|now| now.map(|(page, _)| page.clone()))
    }

    #[test]
    fn scopes_nest_and_unwind() {
        assert_eq!(current(), None);
        let outer = enter(1);
        {
            let _inner = RequestScope::enter(page(2), "inner".into());
            with_current_page(|now| assert_eq!(now, Some((&page(2), &"inner".into()))));
        }
        assert_eq!(current(), Some(page(1)));
        let panicked = std::panic::catch_unwind(|| {
            let _inner = enter(3);
            panic!("a servlet panics");
        });
        assert!(panicked.is_err());
        assert_eq!(current(), Some(page(1)));
        // Another thread is in no request.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(current(), None));
        });
        drop(outer);
        assert_eq!(current(), None);
    }
}
