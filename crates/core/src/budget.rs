//! Sweep budgets and exact partial results.
//!
//! A 10⁸-scenario sweep is seconds of blocking work — too long for a
//! shared session answering concurrent requests to be uninterruptible.
//! [`SweepBudget`] bounds a sweep three ways (wall-clock deadline,
//! scenario cap, cooperative [`CancelToken`]), and the sweep engine
//! checks it at **block granularity**: its one block loop (run on the
//! calling thread for ordered folds, once per worker for mergeable ones)
//! polls the budget between blocks of at most
//! [`stream_block`](crate::scenario) scenarios, so an exhausted budget
//! stops the sweep within one block's work.
//!
//! The key property — enabled by the [`MergeFold`](crate::folds::MergeFold)
//! monoid structure from the fold engine — is that an interrupted sweep
//! is not best-effort garbage: it returns
//! [`SweepOutcome::Partial`] whose fold is the in-order merge of the
//! completed span prefixes, **bit-identical to an ordered fold over the
//! same scenario prefix**. Graceful degradation is exact by construction.
//!
//! There is no "budgeted" variant of anything: every fold entry takes a
//! `&SweepBudget`, and [`SweepBudget::unlimited`] is how a caller says
//! "run to completion".
//!
//! | precision ([`Precision`](crate::scenario::Precision)) | ordered closure fold | mergeable fold fanned across cores | the report of a `Partial` covers |
//! |---|---|---|---|
//! | [`Exact`](crate::scenario::Exact) | [`fold::<Exact>`](crate::session::CobraSession::fold) | [`fold_par::<Exact>`](crate::session::CobraSession::fold_par) | — (`()`) |
//! | [`Approx`](crate::scenario::Approx) | [`fold::<Approx>`](crate::session::CobraSession::fold) | [`fold_par::<Approx>`](crate::session::CobraSession::fold_par) | the probes inside the completed prefix |
//! | [`Certified`](crate::scenario::Certified) | [`fold::<Certified>`](crate::session::CobraSession::fold) | [`fold_par::<Certified>`](crate::session::CobraSession::fold_par) | every scenario of the completed prefix |

use crate::error::{CoreError, Result};
use cobra_util::CancelToken;
use std::time::{Duration, Instant};

/// Limits on one sweep: any combination of a wall-clock deadline, a
/// scenario cap, and a cooperative cancellation token. The default
/// ([`SweepBudget::unlimited`]) imposes nothing and compiles down to one
/// boolean check per streamed block on the hot path.
///
/// ```
/// use cobra_core::budget::SweepBudget;
/// use cobra_util::CancelToken;
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let budget = SweepBudget::unlimited()
///     .with_deadline(Duration::from_millis(250))
///     .with_scenario_cap(1_000_000)
///     .with_cancel_token(token.clone());
/// assert!(!budget.is_unlimited());
/// assert!(budget.stop_reason().is_none()); // nothing tripped yet
/// token.cancel();
/// assert!(budget.stop_reason().is_some());
/// ```
#[derive(Clone, Debug, Default)]
pub struct SweepBudget {
    deadline: Option<Instant>,
    scenario_cap: Option<usize>,
    cancel: Option<CancelToken>,
}

impl SweepBudget {
    /// A budget that imposes no limits — what a caller passes to run a
    /// sweep to completion.
    pub fn unlimited() -> SweepBudget {
        SweepBudget::default()
    }

    /// Adds a wall-clock deadline `d` from now. Checked at block
    /// granularity: the sweep stops within one block of the deadline
    /// passing, returning the exact fold over the scenarios completed.
    pub fn with_deadline(self, d: Duration) -> SweepBudget {
        self.with_deadline_at(Instant::now() + d)
    }

    /// Adds an absolute wall-clock deadline (e.g. a server request's
    /// arrival time plus its SLA).
    pub fn with_deadline_at(self, at: Instant) -> SweepBudget {
        SweepBudget {
            deadline: Some(self.deadline.map_or(at, |d| d.min(at))),
            ..self
        }
    }

    /// Caps the number of scenarios processed. Unlike the deadline and
    /// the token this is **deterministic**: a capped sweep folds exactly
    /// the first `cap` scenarios of the set's enumeration order, on any
    /// thread count. A cap of zero is rejected as
    /// [`CoreError::InfeasibleBudget`] at the sweep entry.
    pub fn with_scenario_cap(self, cap: usize) -> SweepBudget {
        SweepBudget {
            scenario_cap: Some(self.scenario_cap.map_or(cap, |c| c.min(cap))),
            ..self
        }
    }

    /// Attaches a cooperative cancellation token; tripping any clone of
    /// it stops the sweep at the next block boundary.
    pub fn with_cancel_token(self, token: CancelToken) -> SweepBudget {
        SweepBudget {
            cancel: Some(token),
            ..self
        }
    }

    /// True when no limit is set — lets hot loops skip the per-block
    /// deadline/token polls entirely.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.scenario_cap.is_none() && self.cancel.is_none()
    }

    /// The scenario cap, if any.
    pub fn scenario_cap(&self) -> Option<usize> {
        self.scenario_cap
    }

    /// Polls the *dynamic* limits (token, then deadline) — the per-block
    /// check the sweep loops run. The scenario cap is not polled here; it
    /// is applied deterministically by clamping the scenario range up
    /// front.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::Deadline);
            }
        }
        None
    }

    /// True when the budget has limits that must be *polled* per block
    /// (deadline or token) — a cap-only budget is applied by clamping the
    /// scenario range up front and needs no polls at all.
    pub(crate) fn has_dynamic_limits(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Rejects statically unsatisfiable budgets (currently: a scenario
    /// cap of zero over a non-empty set). Every fold entry calls this
    /// before any work.
    pub(crate) fn validate(&self, scenarios: usize) -> Result<()> {
        if self.scenario_cap == Some(0) && scenarios > 0 {
            return Err(CoreError::InfeasibleBudget(
                "scenario cap is 0: no sweep over a non-empty set can make progress; \
                 use a positive cap or drop the cap"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Why a budgeted sweep stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was tripped.
    Cancelled,
    /// The scenario cap was reached (a deliberate truncation, so capped
    /// partial results are deterministic and bit-identical across thread
    /// counts).
    ScenarioCap,
}

/// Result of a budgeted sweep: either the complete fold, or the **exact**
/// fold over the scenario prefix completed before the budget ran out.
///
/// A `Partial` fold is not an approximation: it is the in-order merge of
/// completed worker-span prefixes and equals, bit for bit, a sequential
/// fold over scenarios `0..scenarios_done` (property-pinned in
/// `tests/robustness.rs` across thread counts).
///
/// ```
/// use cobra_core::budget::{StopReason, SweepOutcome};
///
/// let outcome = SweepOutcome::Partial {
///     fold: 41,
///     scenarios_done: 41,
///     reason: StopReason::ScenarioCap,
/// };
/// assert_eq!(outcome.scenarios_done(), Some(41));
/// // keep the exact partial value…
/// assert_eq!(*outcome.fold(), 41);
/// // …or insist on completeness and turn the truncation into an error
/// assert!(outcome.into_complete().is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepOutcome<T> {
    /// Every scenario was folded.
    Complete(T),
    /// The budget ran out; `fold` covers exactly the first
    /// `scenarios_done` scenarios.
    Partial {
        /// The exact fold over scenarios `0..scenarios_done`.
        fold: T,
        /// How many scenarios (a prefix of the enumeration order) were
        /// folded before the sweep stopped.
        scenarios_done: usize,
        /// Which budget limit stopped the sweep.
        reason: StopReason,
    },
}

impl<T> SweepOutcome<T> {
    /// True for [`SweepOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, SweepOutcome::Complete(_))
    }

    /// The fold value, complete or partial.
    pub fn fold(&self) -> &T {
        match self {
            SweepOutcome::Complete(f) => f,
            SweepOutcome::Partial { fold, .. } => fold,
        }
    }

    /// Consumes the outcome, returning the fold value either way —
    /// callers that treat a partial prefix as good enough.
    pub fn into_fold(self) -> T {
        match self {
            SweepOutcome::Complete(f) => f,
            SweepOutcome::Partial { fold, .. } => fold,
        }
    }

    /// How many scenarios the partial fold covers (`None` when complete).
    pub fn scenarios_done(&self) -> Option<usize> {
        match self {
            SweepOutcome::Complete(_) => None,
            SweepOutcome::Partial { scenarios_done, .. } => Some(*scenarios_done),
        }
    }

    /// The stop reason, if the sweep was interrupted.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            SweepOutcome::Complete(_) => None,
            SweepOutcome::Partial { reason, .. } => Some(*reason),
        }
    }

    /// Demands a complete sweep: `Complete` unwraps, `Partial` becomes
    /// the matching typed error ([`CoreError::DeadlineExceeded`],
    /// [`CoreError::Cancelled`]; a reached scenario cap also maps to
    /// `Cancelled` — a cap is a caller-requested truncation, so callers
    /// that set one usually want to match on `Partial` instead).
    pub fn into_complete(self) -> Result<T> {
        match self {
            SweepOutcome::Complete(f) => Ok(f),
            SweepOutcome::Partial { reason, .. } => Err(match reason {
                StopReason::Deadline => CoreError::DeadlineExceeded,
                StopReason::Cancelled | StopReason::ScenarioCap => CoreError::Cancelled,
            }),
        }
    }

    /// Maps the fold value, preserving the outcome shape.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> SweepOutcome<U> {
        match self {
            SweepOutcome::Complete(v) => SweepOutcome::Complete(f(v)),
            SweepOutcome::Partial {
                fold,
                scenarios_done,
                reason,
            } => SweepOutcome::Partial {
                fold: f(fold),
                scenarios_done,
                reason,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let b = SweepBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.stop_reason().is_none());
        assert!(b.validate(1_000_000).is_ok());
    }

    #[test]
    fn tightest_limit_wins() {
        let b = SweepBudget::unlimited()
            .with_scenario_cap(100)
            .with_scenario_cap(7)
            .with_scenario_cap(50);
        assert_eq!(b.scenario_cap(), Some(7));
        let early = Instant::now();
        let b = SweepBudget::unlimited()
            .with_deadline_at(early + Duration::from_secs(60))
            .with_deadline_at(early);
        assert_eq!(b.stop_reason(), Some(StopReason::Deadline));
    }

    #[test]
    fn cancel_beats_deadline_in_poll_order() {
        let token = CancelToken::new();
        token.cancel();
        let b = SweepBudget::unlimited()
            .with_cancel_token(token)
            .with_deadline(Duration::ZERO);
        assert_eq!(b.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn zero_cap_is_infeasible_for_nonempty_sets() {
        let b = SweepBudget::unlimited().with_scenario_cap(0);
        assert!(matches!(
            b.validate(10),
            Err(CoreError::InfeasibleBudget(_))
        ));
        // an empty set has nothing to cap
        assert!(b.validate(0).is_ok());
    }

    #[test]
    fn outcome_accessors() {
        let c: SweepOutcome<i32> = SweepOutcome::Complete(5);
        assert!(c.is_complete());
        assert_eq!(c.scenarios_done(), None);
        assert_eq!(c.stop_reason(), None);
        assert_eq!(c.into_complete().unwrap(), 5);

        let p = SweepOutcome::Partial {
            fold: 3,
            scenarios_done: 9,
            reason: StopReason::Deadline,
        };
        assert_eq!(*p.fold(), 3);
        assert_eq!(p.scenarios_done(), Some(9));
        assert_eq!(p.map(|v| v * 2).into_fold(), 6);
        assert!(matches!(
            p.into_complete(),
            Err(CoreError::DeadlineExceeded)
        ));
        let cancelled = SweepOutcome::Partial {
            fold: (),
            scenarios_done: 0,
            reason: StopReason::Cancelled,
        };
        assert!(matches!(
            cancelled.into_complete(),
            Err(CoreError::Cancelled)
        ));
    }
}
