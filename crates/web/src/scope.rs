//! Which request the current thread is serving.
//!
//! The paper's sniffer joins its two logs on clocks because its wrappers
//! share nothing else. Ours share a thread: the servlet wrapper
//! ([`AppServer::serve`]) and the driver wrapper (the sniffer's
//! `LoggedConnection`) both run on the thread that runs the servlet, so the
//! first leaves the request's id where the second finds it. The id is
//! opaque — one counter per application server — and is carried by those two
//! wrappers only: no servlet, SQL text or [`Connection`] signature knows it.
//!
//! [`AppServer::serve`]: crate::AppServer::serve
//! [`Connection`]: crate::Connection

use std::cell::Cell;
use std::marker::PhantomData;

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The id of the request this thread is serving: `None` outside
/// [`AppServer::serve`](crate::AppServer::serve), and on any thread a
/// servlet hands work to.
pub fn current_request() -> Option<u64> {
    CURRENT.get()
}

/// This thread serves request `id` until the guard is dropped, which puts
/// back what was there before — on return, on a servlet's error, on a panic
/// unwinding through `serve`, and after a `serve` nested in a servlet — so a
/// thread never stamps the next request's queries with a dead id.
pub struct RequestScope {
    previous: Option<u64>,
    /// The guard restores the thread it was made on: it stays there.
    not_send: PhantomData<*const ()>,
}

impl RequestScope {
    /// Enter the scope of request `id`.
    pub fn enter(id: u64) -> RequestScope {
        RequestScope {
            previous: CURRENT.replace(Some(id)),
            not_send: PhantomData,
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT.set(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_unwind() {
        assert_eq!(current_request(), None);
        let outer = RequestScope::enter(1);
        {
            let _inner = RequestScope::enter(2);
            assert_eq!(current_request(), Some(2));
        }
        assert_eq!(current_request(), Some(1));
        let panicked = std::panic::catch_unwind(|| {
            let _inner = RequestScope::enter(3);
            panic!("a servlet panics");
        });
        assert!(panicked.is_err());
        assert_eq!(current_request(), Some(1));
        // Another thread is in no request.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(current_request(), None));
        });
        drop(outer);
        assert_eq!(current_request(), None);
    }
}
