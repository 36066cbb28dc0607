//! Fault-injection test hooks for the parallel sweep stack.
//!
//! The robustness layer promises that a panicking worker never aborts the
//! process and that interrupted sweeps return exact partial results.
//! Promises like these rot unless something exercises them, so the
//! parallel engines call [`point`] at their structural boundaries (span
//! start, block boundary) and this module decides whether to inject a
//! fault there:
//!
//! * **Disarmed** (the default): [`point`] is two relaxed atomic loads and
//!   a return — effectively free at block granularity, so production
//!   sweeps pay nothing.
//! * **Scoped** ([`with_faults`]): a test arms an explicit [`FaultPlan`]
//!   (panic at the k-th span, panic at the k-th block, fixed delays) for
//!   the duration of one closure. Scopes are serialized process-wide, so
//!   concurrent tests cannot see each other's faults, and the plan is
//!   global rather than thread-local because the faults must fire on
//!   *worker* threads that never ran the arming code.
//! * **Environment** (`COBRA_FAULTS=1`): a standing low-grade
//!   perturbation mode for CI — every span start sleeps briefly and
//!   yields, skewing worker interleavings so order-sensitive merge bugs
//!   surface. No panics are injected from the environment; panic
//!   injection is always an explicit test decision.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Where a fault-injection [`point`] sits in the parallel engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// A worker is about to start processing its contiguous span
    /// (including the inline single-thread "span").
    SpanStart,
    /// A sweep loop is about to process its next streamed block.
    Block,
}

/// What a [`with_faults`] scope injects. Counters are global across all
/// threads and reset when the scope is entered, so "panic at span 1"
/// means the second span *any* worker starts.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Panic when the span counter reaches this value (0-based).
    pub panic_at_span: Option<usize>,
    /// Panic when the block counter reaches this value (0-based).
    pub panic_at_block: Option<usize>,
    /// Sleep this long at every span start.
    pub span_delay: Option<Duration>,
    /// Sleep this long at every block boundary.
    pub block_delay: Option<Duration>,
}

impl FaultPlan {
    /// A plan that panics at the `k`-th span start.
    pub fn panic_on_span(k: usize) -> FaultPlan {
        FaultPlan {
            panic_at_span: Some(k),
            ..FaultPlan::default()
        }
    }

    /// A plan that panics at the `k`-th block boundary.
    pub fn panic_on_block(k: usize) -> FaultPlan {
        FaultPlan {
            panic_at_block: Some(k),
            ..FaultPlan::default()
        }
    }

    /// A plan that delays every span start by `d` (no panics) — skews
    /// worker interleavings without changing any result.
    pub fn delay_spans(d: Duration) -> FaultPlan {
        FaultPlan {
            span_delay: Some(d),
            ..FaultPlan::default()
        }
    }
}

/// The panic message every injected panic carries, so tests can tell an
/// injected fault from a genuine bug when asserting on surfaced errors.
pub const INJECTED_PANIC: &str = "cobra_util::faults injected panic";

static SCOPE_ARMED: AtomicBool = AtomicBool::new(false);
static SPAN_COUNTER: AtomicUsize = AtomicUsize::new(0);
static BLOCK_COUNTER: AtomicUsize = AtomicUsize::new(0);
static PLAN: Mutex<FaultPlan> = Mutex::new(FaultPlan {
    panic_at_span: None,
    panic_at_block: None,
    span_delay: None,
    block_delay: None,
});
/// Serializes [`with_faults`] scopes process-wide. Separate from `PLAN`
/// so the scope lock is held across the user closure while `PLAN` is
/// only locked for snapshots.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A fault scope's closure is *expected* to panic (that is the point),
    // so poisoning carries no information here.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Holds the scope lock without arming a plan. The plan and its counters
/// are process-global, so a unit test of this crate that reaches [`point`]
/// *outside* a scope takes this guard first: otherwise a sibling test's
/// armed scope injects its panic here, or this test's calls consume the
/// span index the sibling was waiting for.
#[cfg(test)]
pub(crate) fn exclude_scopes() -> MutexGuard<'static, ()> {
    lock(&SCOPE_LOCK)
}

/// True when `COBRA_FAULTS` is set to something other than `0`/empty —
/// the standing CI perturbation mode. Read once per process.
pub fn env_armed() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("COBRA_FAULTS").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// True when any injection mode (scope or environment) is active.
pub fn armed() -> bool {
    SCOPE_ARMED.load(Ordering::Relaxed) || env_armed()
}

/// Arms `plan` for the duration of `f`, then disarms — even when `f`
/// panics (injected panics that escape the engines' isolation propagate
/// through here). Scopes are serialized process-wide so concurrent tests
/// never observe each other's plans.
///
/// ```
/// use cobra_util::faults::{self, FaultPlan};
/// use std::panic::{catch_unwind, AssertUnwindSafe};
///
/// let caught = faults::with_faults(FaultPlan::panic_on_span(0), || {
///     catch_unwind(AssertUnwindSafe(|| {
///         faults::point(faults::Site::SpanStart);
///     }))
/// });
/// assert!(caught.is_err()); // the injected panic fired
/// assert!(!faults::armed() || faults::env_armed()); // and disarmed again
/// ```
pub fn with_faults<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            SCOPE_ARMED.store(false, Ordering::Relaxed);
            *lock(&PLAN) = FaultPlan::default();
        }
    }
    let _scope = lock(&SCOPE_LOCK);
    *lock(&PLAN) = plan;
    SPAN_COUNTER.store(0, Ordering::Relaxed);
    BLOCK_COUNTER.store(0, Ordering::Relaxed);
    SCOPE_ARMED.store(true, Ordering::Relaxed);
    let _disarm = Disarm;
    f()
}

/// A fault-injection site. No-op (two relaxed loads) when disarmed; when
/// a [`with_faults`] plan is armed this may sleep or panic according to
/// the plan, and under `COBRA_FAULTS=1` span starts sleep briefly to
/// perturb worker interleavings.
#[inline]
pub fn point(site: Site) {
    if !SCOPE_ARMED.load(Ordering::Relaxed) {
        if env_armed() {
            env_perturb(site);
        }
        return;
    }
    scoped_point(site);
}

#[cold]
fn env_perturb(site: Site) {
    match site {
        Site::SpanStart => {
            // Long enough to reorder span completions, short enough that
            // a full test suite stays fast (spans are O(threads) per
            // sweep, not O(scenarios)).
            std::thread::sleep(Duration::from_micros(100));
        }
        Site::Block => {
            // Blocks are frequent: a bare yield every few blocks skews
            // scheduling without measurable slowdown.
            if BLOCK_COUNTER
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(16)
            {
                std::thread::yield_now();
            }
        }
    }
}

#[cold]
fn scoped_point(site: Site) {
    let plan = *lock(&PLAN);
    match site {
        Site::SpanStart => {
            let idx = SPAN_COUNTER.fetch_add(1, Ordering::Relaxed);
            if let Some(d) = plan.span_delay {
                std::thread::sleep(d);
            }
            if plan.panic_at_span == Some(idx) {
                panic!("{INJECTED_PANIC} (span {idx})");
            }
        }
        Site::Block => {
            let idx = BLOCK_COUNTER.fetch_add(1, Ordering::Relaxed);
            if let Some(d) = plan.block_delay {
                std::thread::sleep(d);
            }
            if plan.panic_at_block == Some(idx) {
                panic!("{INJECTED_PANIC} (block {idx})");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn disarmed_points_are_noops() {
        let _disarmed = exclude_scopes();
        // must not panic or sleep noticeably
        for _ in 0..10_000 {
            point(Site::Block);
            point(Site::SpanStart);
        }
    }

    #[test]
    fn panic_fires_at_the_requested_span() {
        let result = with_faults(FaultPlan::panic_on_span(1), || {
            point(Site::SpanStart); // span 0: survives
            catch_unwind(AssertUnwindSafe(|| point(Site::SpanStart)))
        });
        let payload = result.expect_err("span 1 must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains(INJECTED_PANIC), "{msg}");
        // disarmed again: the same point is now a no-op
        let _disarmed = exclude_scopes();
        point(Site::SpanStart);
    }

    #[test]
    fn block_panics_and_delays_compose() {
        let result = with_faults(
            FaultPlan {
                panic_at_block: Some(0),
                block_delay: Some(Duration::from_millis(1)),
                ..FaultPlan::default()
            },
            || catch_unwind(AssertUnwindSafe(|| point(Site::Block))),
        );
        assert!(result.is_err());
    }

    #[test]
    fn counters_reset_per_scope() {
        for _ in 0..2 {
            let result = with_faults(FaultPlan::panic_on_span(0), || {
                catch_unwind(AssertUnwindSafe(|| point(Site::SpanStart)))
            });
            assert!(result.is_err(), "span counter must restart at 0");
        }
    }

    #[test]
    fn delay_only_plans_do_not_panic() {
        with_faults(FaultPlan::delay_spans(Duration::from_micros(50)), || {
            for _ in 0..3 {
                point(Site::SpanStart);
                point(Site::Block);
            }
        });
    }
}
