//! Cooperative query cancellation and deadlines.
//!
//! A [`CancelToken`] is a cheap, cloneable handle (`Arc<AtomicBool>` plus an
//! optional deadline) that long-running operators poll at batch boundaries:
//! relational scans check once per `SCAN_BATCH`, morsel drivers once per
//! wave, SPARQL evaluation once per probe batch. Checking is a single
//! relaxed atomic load in the common case; the deadline comparison only
//! happens when a deadline was actually set.
//!
//! Tokens travel two ways:
//!
//! 1. **Explicitly** — the server's admission gate
//!    (`crosse_server::AdmissionGate::enter`) takes the query's token, so
//!    time queued for an execution slot counts against its deadline.
//! 2. **Ambiently** — a thread-local *current token* installed with
//!    [`CancelToken::make_current`] for the duration of a query. Execution
//!    contexts capture the ambient token once at construction (on the query
//!    thread) and then carry it explicitly, so worker threads spawned later
//!    still observe the same token even though thread-locals don't cross
//!    thread boundaries.
//!
//! The ambient channel exists so the serving layer can impose a deadline on
//! an entire multi-phase pipeline (SESQL Phase A/B/C/D) without threading a
//! parameter through every internal signature.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a query was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The token was cancelled explicitly (client disconnect, shutdown,
    /// user abort).
    Cancelled,
    /// The query's deadline passed before it finished.
    DeadlineExceeded,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "query cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "query deadline exceeded"),
        }
    }
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle shared between a controller (server
/// connection, CLI, test) and the operators executing a query.
///
/// The default token is *infallible*: no deadline, never cancelled, and
/// [`check`](CancelToken::check) compiles down to one relaxed load.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline that only trips when [`cancel`](Self::cancel)
    /// is called.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner { cancelled: AtomicBool::new(false), deadline: None }),
        }
    }

    /// A token that additionally trips once `deadline` has elapsed from now.
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + deadline),
            }),
        }
    }

    /// Trip the token. All clones observe the cancellation at their next
    /// [`check`](Self::check). Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has [`cancel`](Self::cancel) been called? (Does not consult the
    /// deadline; use [`check`](Self::check) for the full verdict.)
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The deadline, if one was set at construction.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Poll the token: `Err(Interrupt::Cancelled)` if tripped,
    /// `Err(Interrupt::DeadlineExceeded)` if the deadline passed, `Ok(())`
    /// otherwise. Cancellation wins over the deadline when both hold, so a
    /// disconnect is reported as a disconnect even on an expired query.
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Err(Interrupt::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// The ambient token for this thread, if one is installed; otherwise a
    /// fresh infallible token. Execution contexts call this once at
    /// construction on the query thread.
    pub fn current() -> CancelToken {
        AMBIENT.with(|slot| slot.borrow().last().cloned()).unwrap_or_default()
    }

    /// Install this token as the thread's ambient token for the lifetime of
    /// the returned guard. Guards nest; the innermost wins. The guard is
    /// `!Send` by construction (it must drop on the installing thread).
    pub fn make_current(&self) -> AmbientGuard {
        AMBIENT.with(|slot| slot.borrow_mut().push(self.clone()));
        AmbientGuard { _not_send: std::marker::PhantomData }
    }
}

thread_local! {
    static AMBIENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`CancelToken::make_current`]; restores the
/// previous ambient token on drop.
pub struct AmbientGuard {
    _not_send: std::marker::PhantomData<std::rc::Rc<()>>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|slot| {
            slot.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_ok() {
        let t = CancelToken::new();
        assert_eq!(t.check(), Ok(()));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert_eq!(c.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn deadline_trips() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(t.check(), Err(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        t.cancel();
        assert_eq!(t.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn ambient_nesting() {
        assert_eq!(CancelToken::current().check(), Ok(()));
        let outer = CancelToken::new();
        let _g1 = outer.make_current();
        {
            let inner = CancelToken::new();
            let _g2 = inner.make_current();
            inner.cancel();
            assert_eq!(CancelToken::current().check(), Err(Interrupt::Cancelled));
        }
        // Back to outer, which is untripped.
        assert_eq!(CancelToken::current().check(), Ok(()));
        outer.cancel();
        assert_eq!(CancelToken::current().check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn ambient_does_not_cross_threads() {
        let t = CancelToken::new();
        let _g = t.make_current();
        t.cancel();
        let handle = std::thread::spawn(|| CancelToken::current().check());
        assert_eq!(handle.join().unwrap(), Ok(()));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Interrupt::Cancelled.to_string(), "query cancelled");
        assert_eq!(Interrupt::DeadlineExceeded.to_string(), "query deadline exceeded");
    }
}
