//! Which request the current thread is serving.
//!
//! The paper's sniffer joins its two logs on clocks because its wrappers
//! share nothing else. Ours share a thread: the servlet wrapper
//! ([`AppServer::serve`]) and the driver wrapper (the sniffer's
//! `LoggedConnection`) both run on the thread that runs the servlet, so the
//! first leaves the request's id and page key where the second finds them.
//! The id is opaque — one counter per application server — and both are
//! carried by those two wrappers only: no servlet, SQL text or
//! [`Connection`] signature knows them.
//!
//! [`AppServer::serve`]: crate::AppServer::serve
//! [`Connection`]: crate::Connection

use crate::url::PageKey;
use std::cell::RefCell;
use std::marker::PhantomData;

thread_local! {
    static CURRENT: RefCell<Option<(u64, PageKey)>> = const { RefCell::new(None) };
}

/// The id of the request this thread is serving: `None` outside
/// [`AppServer::serve`](crate::AppServer::serve), and on any thread a
/// servlet hands work to.
pub fn current_request() -> Option<u64> {
    CURRENT.with_borrow(|current| current.as_ref().map(|(id, _)| *id))
}

/// Call `f` with the id and the page key of the request this thread is
/// serving, `None` where [`current_request`] is.
pub fn with_current_request<R>(f: impl FnOnce(Option<(u64, &PageKey)>) -> R) -> R {
    CURRENT.with_borrow(|current| f(current.as_ref().map(|(id, page)| (*id, page))))
}

/// This thread serves request `id`, for the page `page`, until the guard is
/// dropped, which puts back what was there before — on return, on a
/// servlet's error, on a panic unwinding through `serve`, and after a
/// `serve` nested in a servlet — so a thread never stamps the next
/// request's queries with a dead id.
pub struct RequestScope {
    previous: Option<(u64, PageKey)>,
    /// The guard restores the thread it was made on: it stays there.
    not_send: PhantomData<*const ()>,
}

impl RequestScope {
    /// Enter the scope of request `id`, which generates `page`.
    pub fn enter(id: u64, page: PageKey) -> RequestScope {
        RequestScope {
            previous: CURRENT.replace(Some((id, page))),
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

    #[test]
    fn scopes_nest_and_unwind() {
        assert_eq!(current_request(), None);
        let outer = RequestScope::enter(1, page(1));
        {
            let _inner = RequestScope::enter(2, page(2));
            assert_eq!(current_request(), Some(2));
            with_current_request(|now| assert_eq!(now, Some((2, &page(2)))));
        }
        assert_eq!(current_request(), Some(1));
        with_current_request(|now| assert_eq!(now, Some((1, &page(1)))));
        let panicked = std::panic::catch_unwind(|| {
            let _inner = RequestScope::enter(3, page(3));
            panic!("a servlet panics");
        });
        assert!(panicked.is_err());
        assert_eq!(current_request(), Some(1));
        // Another thread is in no request.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(current_request(), None);
                with_current_request(|now| assert_eq!(now, None));
            });
        });
        drop(outer);
        assert_eq!(current_request(), None);
    }
}
