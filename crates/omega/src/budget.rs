//! Per-request governance: compile budgets, cooperative cancellation,
//! fault injection and tracing.
//!
//! A [`Budget`] bounds what one compilation may spend inside the Omega
//! substrate — wall-clock time, a fuel count of memoized set operations,
//! and the piece/fuel limits that keep exact negation and FME from
//! exploding combinatorially. A [`CancelToken`] is the sharper tool:
//! tripping it makes the next fallible operation return
//! [`OmegaError::Cancelled`] so the whole compilation aborts with a typed
//! error.
//!
//! Both ride on a [`RequestGovernor`], together with an optional
//! [`InjectPlan`] and trace [`Collector`]. The governor is armed on the
//! threads working on one request, never on the shared
//! [`Context`](crate::Context): every memoized operation consults the
//! calling thread's governor at entry (one thread-local read when none is
//! armed), so concurrent requests on one context never see each other's
//! budget, faults or trace.
//!
//! The distinction matters downstream: budget exhaustion means "stop
//! spending, a conservative answer is fine" (the driver degrades to
//! conservative communication), while cancellation means "the caller no
//! longer wants any answer" (the driver aborts).

use crate::inject::{FaultAction, InjectPlan, Injector};
use crate::OmegaError;
use dhpf_obs::Collector;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Resource limits for one compilation. All fields default to the
/// historical hard-coded behaviour: no deadline, no fuel cap, and the
/// negation/FME limits that previously lived as constants in `ops.rs`.
///
/// Construct fluently:
///
/// ```
/// use dhpf_omega::Budget;
/// let b = Budget::new().deadline_ms(5_000).op_fuel(2_000_000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline in milliseconds, measured from the moment a
    /// [`RequestGovernor`] is created for the budget. `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Total memoized Omega operations (sat, FME, negation, gist,
    /// simplify) the compilation may charge. `None` = unlimited.
    pub op_fuel: Option<u64>,
    /// Hard cap on the conjunct pieces an exact negation may produce
    /// before it is declared inexact (default 10 000 — the PR-5 value).
    pub max_negation_pieces: usize,
    /// Negation-piece cap above which semantic subsumption skips a pair
    /// (purely an optimization limit; default 64).
    pub subsume_negation_pieces: usize,
    /// Iteration fuel for the stride-form rewrite inside exact negation
    /// (default 500).
    pub stride_fuel: u32,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            deadline_ms: None,
            op_fuel: None,
            max_negation_pieces: 10_000,
            subsume_negation_pieces: 64,
            stride_fuel: 500,
        }
    }
}

impl Budget {
    /// An unlimited budget with the default exactness limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the wall-clock deadline in milliseconds.
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the total Omega-operation fuel.
    #[must_use]
    pub fn op_fuel(mut self, fuel: u64) -> Self {
        self.op_fuel = Some(fuel);
        self
    }

    /// Sets the exact-negation piece cap.
    #[must_use]
    pub fn max_negation_pieces(mut self, n: usize) -> Self {
        self.max_negation_pieces = n;
        self
    }

    /// Sets the subsumption-check piece cap.
    #[must_use]
    pub fn subsume_negation_pieces(mut self, n: usize) -> Self {
        self.subsume_negation_pieces = n;
        self
    }

    /// Sets the stride-form rewrite fuel.
    #[must_use]
    pub fn stride_fuel(mut self, fuel: u32) -> Self {
        self.stride_fuel = fuel;
        self
    }
}

/// A shared cancellation flag. Clones observe the same flag, so the token
/// can be handed to another thread (or a request handler) and tripped
/// while a compilation is in flight; the compilation aborts at its next
/// cancellation point with a typed error.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Process-wide monotonic anchor for deadline arithmetic: deadlines are
/// stored as microseconds-since-anchor in one `u64`, so the per-op
/// check is a clock read and a compare — no lock, no `Instant` in shared
/// state.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Microseconds elapsed since [`anchor`], saturating.
fn now_us() -> u64 {
    u64::try_from(anchor().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Trip-reason codes (0 = not tripped).
const TRIP_DEADLINE: u8 = 1;
const TRIP_FUEL: u8 = 2;
const TRIP_INJECTED: u8 = 3;

fn trip_reason(code: u8) -> Option<&'static str> {
    match code {
        TRIP_DEADLINE => Some("deadline"),
        TRIP_FUEL => Some("op fuel"),
        TRIP_INJECTED => Some("injected"),
        _ => None,
    }
}

struct GovernorInner {
    /// Remaining op fuel; `u64::MAX` = unlimited. Shared atomically so the
    /// parallel driver's worker threads spend from one pool.
    fuel: AtomicU64,
    /// Deadline in microseconds since [`anchor`]; `u64::MAX` = none.
    deadline_us: u64,
    cancel: Option<CancelToken>,
    tripped: AtomicBool,
    trip_code: AtomicU8,
    charged: AtomicU64,
    degraded: AtomicU64,
    /// The request's budget; the exactness limits are read from here.
    budget: Budget,
    /// True when the exactness limits differ from [`Budget::default`]:
    /// memoized results then bypass the shared cache entirely, because an
    /// entry computed under tighter (or looser) limits is not
    /// interchangeable with one computed under the defaults.
    non_default_limits: bool,
    /// False for a governor that carries only a trace collector: its ops
    /// are sampled but not charged, so a traced compile reports the same
    /// [`GovernorStats`] as an untraced one.
    enforcing: bool,
    inject: Option<Injector>,
    obs: Option<Collector>,
}

/// A **per-request** governor: deadline/fuel/cancellation enforcement,
/// fault injection and trace sampling, scoped to the requesting thread
/// (and any worker threads that re-arm it).
///
/// This is what lets a long-lived serving context compile many concurrent
/// requests, each under its *own* budget, plan and trace: nothing here is
/// stored on the shared [`Context`](crate::Context), so one slow client's
/// deadline, one chaos run's faults or one traced request's collector
/// never reach a sibling compilation. The governor is `Arc`-shared —
/// clone it into worker tasks and call
/// [`arm_on_thread`](Self::arm_on_thread) there so every thread working on
/// the request spends from one fuel pool, observes one deadline, counts
/// one set of injection sites and records into one trace.
///
/// The `dhpf-core` driver arms one automatically whenever
/// `CompileOptions` carries a budget, a cancel token, an injection plan or
/// a trace collector.
#[derive(Clone)]
pub struct RequestGovernor {
    inner: Arc<GovernorInner>,
}

impl std::fmt::Debug for RequestGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestGovernor")
            .field("stats", &self.stats())
            .finish()
    }
}

thread_local! {
    /// The request governor armed on the current thread, if any. A fast
    /// boolean gate keeps the unarmed paths to one thread-local read.
    static REQ_GOV: RefCell<Option<RequestGovernor>> = const { RefCell::new(None) };
    static REQ_GOV_ARMED: Cell<bool> = const { Cell::new(false) };
    /// Nesting depth of [`governor_grace`] scopes on the current thread.
    static GRACE_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Runs `f` on the governor armed on the calling thread (`None` if there
/// is none). Borrows in place: the hot path neither clones nor touches a
/// reference count.
fn with_governor<R>(f: impl FnOnce(&RequestGovernor) -> R) -> Option<R> {
    if !REQ_GOV_ARMED.with(Cell::get) {
        return None;
    }
    REQ_GOV.with_borrow(|g| g.as_ref().map(f))
}

/// Suspends budget enforcement and fault injection on the *current thread*
/// until the returned guard drops; cancellation stays live.
///
/// The degraded rebuild that runs after a budget trip must itself perform
/// set algebra — conservative communication maps still pass through code
/// generation, which subtracts conjuncts — and without a grace scope those
/// operations would fail with the very `BudgetExceeded` the rebuild is
/// recovering from. The scope is thread-local so sibling compile tasks on
/// other worker threads remain fully governed; it nests, and it suspends
/// injection too, so a fallback can never be re-injected into an
/// escalation loop.
#[must_use = "enforcement resumes when the guard drops"]
pub fn governor_grace() -> GraceGuard {
    GRACE_DEPTH.with(|d| d.set(d.get() + 1));
    GraceGuard { _priv: () }
}

/// RAII scope of [`governor_grace`].
pub struct GraceGuard {
    _priv: (),
}

impl Drop for GraceGuard {
    fn drop(&mut self) {
        GRACE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

fn in_grace() -> bool {
    GRACE_DEPTH.with(Cell::get) > 0
}

/// Cancellation checkpoint of the calling thread's request:
/// `Err(Cancelled)` once the armed governor's token has tripped. The
/// driver calls this between phases and at nest entry so cancellation is
/// prompt even when the set operations in flight are the infallible ones
/// (sat/gist/simplify) that cannot propagate an error.
///
/// # Errors
///
/// [`OmegaError::Cancelled`] once the request was cancelled.
pub fn check_cancelled() -> Result<(), OmegaError> {
    if with_governor(RequestGovernor::cancelled) == Some(true) {
        Err(OmegaError::Cancelled)
    } else {
        Ok(())
    }
}

/// Fault-injection checkpoint for a named host site (the dHPF driver uses
/// `"comm_sets"` and `"nest"`), against the plan of the calling thread's
/// governor. Suspended inside a [`governor_grace`] scope so the degraded
/// rebuild that follows an injected fault cannot be re-injected into an
/// escalation loop. The memoized Omega operations pass through the same
/// check at entry. No locks are held when an injected panic unwinds.
///
/// # Errors
///
/// The injected error when the plan fires here.
pub fn inject_check(site: &'static str) -> Result<(), OmegaError> {
    if in_grace() {
        return Ok(());
    }
    with_governor(|g| g.inject(site)).unwrap_or(Ok(()))
}

/// Reads one exactness limit in force on the calling thread: from the
/// armed governor's budget, or from [`Budget::default`].
pub(crate) fn exactness_limit<T>(f: impl Fn(&Budget) -> T) -> T {
    with_governor(|g| f(&g.inner.budget)).unwrap_or_else(|| f(&Budget::default()))
}

/// RAII sample of one set operation: on drop, records the call (count,
/// duration, input-size histogram) on the request's collector, under the
/// calling thread's innermost open span. Created *first* in each memoized
/// operation so it drops *last* — after any shard `MutexGuard` — keeping
/// the collector's lock disjoint from the shard locks.
pub(crate) struct OpTrace {
    obs: Collector,
    op: &'static str,
    size: u64,
    t0: Instant,
}

impl Drop for OpTrace {
    fn drop(&mut self) {
        self.obs.record_op(self.op, self.t0.elapsed(), self.size);
    }
}

/// Entry checkpoint of a memoized Omega operation, answered by the
/// governor armed on the calling thread: starts the op's trace sample
/// (named `traced_as`, with input size `size()`) when the request is
/// traced, charges the op at injection site `site`, and says whether the
/// result may use the shared memo tables. `Err` means the op must not run:
/// fallible operations propagate it (uncached — budget errors must never
/// be memoized), infallible ones substitute a sound conservative answer.
/// With no governor armed this is one thread-local read.
pub(crate) fn admit_op(
    site: &'static str,
    traced_as: &'static str,
    size: impl FnOnce() -> u64,
) -> (Option<OpTrace>, Result<bool, OmegaError>) {
    with_governor(|g| g.admit(site, traced_as, size)).unwrap_or((None, Ok(true)))
}

impl RequestGovernor {
    /// A governor enforcing `budget` (deadline measured from now) and, if
    /// given, `cancel`.
    pub fn new(budget: &Budget, cancel: Option<CancelToken>) -> Self {
        let d = Budget::default();
        let non_default_limits = budget.max_negation_pieces != d.max_negation_pieces
            || budget.subsume_negation_pieces != d.subsume_negation_pieces
            || budget.stride_fuel != d.stride_fuel;
        let deadline_us = budget.deadline_ms.map_or(u64::MAX, |ms| {
            let at = anchor().elapsed() + Duration::from_millis(ms);
            u64::try_from(at.as_micros()).unwrap_or(u64::MAX)
        });
        RequestGovernor {
            inner: Arc::new(GovernorInner {
                fuel: AtomicU64::new(budget.op_fuel.unwrap_or(u64::MAX)),
                deadline_us,
                enforcing: *budget != d || cancel.is_some(),
                cancel,
                tripped: AtomicBool::new(false),
                trip_code: AtomicU8::new(0),
                charged: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                budget: budget.clone(),
                non_default_limits,
                inject: None,
                obs: None,
            }),
        }
    }

    /// Mutable access while the governor is still being configured.
    ///
    /// # Panics
    ///
    /// If the governor was already cloned or armed: a plan or collector
    /// must be attached before the request starts.
    fn configure(&mut self) -> &mut GovernorInner {
        Arc::get_mut(&mut self.inner).expect("configure a RequestGovernor before sharing it")
    }

    /// Carries a deterministic fault-injection plan (`None` = none): its
    /// sites fire only on threads armed with this governor, with per-site
    /// arrival counters that start at zero.
    ///
    /// # Panics
    ///
    /// If the governor was already cloned or armed.
    #[must_use]
    pub fn with_inject(mut self, plan: Option<InjectPlan>) -> Self {
        let inner = self.configure();
        inner.enforcing |= plan.is_some();
        inner.inject = plan.map(Injector::new);
        self
    }

    /// Carries a trace collector (`None` = untraced): every memoized set
    /// operation — satisfiability, FME projection, negation, gist,
    /// simplify; cache hit or miss alike — run under this governor records
    /// a count/duration/size sample on the calling thread's innermost open
    /// span. Works with memoization disabled too, so `--no-cache` ablations
    /// still report their set-operation mix.
    ///
    /// # Panics
    ///
    /// If the governor was already cloned or armed.
    #[must_use]
    pub fn with_collector(mut self, obs: Option<Collector>) -> Self {
        self.configure().obs = obs;
        self
    }

    /// The governor armed on the calling thread, if any. A worker pool
    /// captures this on the submitting thread and re-arms it (via
    /// [`arm_on_thread`](Self::arm_on_thread)) on each pool thread, so
    /// every task of a request runs under that request's governor.
    pub fn current() -> Option<RequestGovernor> {
        with_governor(RequestGovernor::clone)
    }

    /// Arms this governor on the current thread until the guard drops.
    /// Nested arming restores the previous governor on drop, so scopes
    /// compose; the same governor may be armed on many threads at once
    /// (they share fuel, deadline, injection counters and counters).
    #[must_use = "enforcement stops when the guard drops"]
    pub fn arm_on_thread(&self) -> RequestGovernorGuard {
        let prev = REQ_GOV.with(|g| g.borrow_mut().replace(self.clone()));
        REQ_GOV_ARMED.with(|a| a.set(true));
        RequestGovernorGuard { prev }
    }

    #[cold]
    fn admit(
        &self,
        site: &'static str,
        traced_as: &'static str,
        size: impl FnOnce() -> u64,
    ) -> (Option<OpTrace>, Result<bool, OmegaError>) {
        let i = &self.inner;
        let trace = i.obs.as_ref().map(|obs| OpTrace {
            obs: obs.clone(),
            op: traced_as,
            size: size(),
            t0: Instant::now(),
        });
        let charged = if i.enforcing {
            self.charge(site)
        } else {
            Ok(())
        };
        (trace, charged.map(|()| !i.non_default_limits))
    }

    /// Charges one governed operation: cancellation always aborts; a grace
    /// scope (see [`governor_grace`]) suspends injection and budget
    /// enforcement; otherwise the plan may fire at `site`, fuel is spent
    /// and the deadline checked, and once tripped every further charge is
    /// refused with the trip reason.
    fn charge(&self, site: &'static str) -> Result<(), OmegaError> {
        let i = &self.inner;
        if self.cancelled() {
            return Err(OmegaError::Cancelled);
        }
        if in_grace() {
            return Ok(());
        }
        self.inject(site)?;
        i.charged.fetch_add(1, Ordering::Relaxed);
        if !i.tripped.load(Ordering::Relaxed) {
            let fuel = i.fuel.load(Ordering::Relaxed);
            if fuel != u64::MAX {
                let spent = i
                    .fuel
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| f.checked_sub(1));
                if spent.is_err() {
                    self.trip(TRIP_FUEL);
                }
            }
            if i.deadline_us != u64::MAX && now_us() > i.deadline_us {
                self.trip(TRIP_DEADLINE);
            }
        }
        if i.tripped.load(Ordering::Relaxed) {
            i.degraded.fetch_add(1, Ordering::Relaxed);
            let reason = trip_reason(i.trip_code.load(Ordering::Relaxed)).unwrap_or("budget");
            return Err(OmegaError::BudgetExceeded(reason));
        }
        Ok(())
    }

    /// Lets the plan (if any) decide the next arrival at `site`.
    fn inject(&self, site: &'static str) -> Result<(), OmegaError> {
        let i = &self.inner;
        match i.inject.as_ref().and_then(|inj| inj.arrive(site)) {
            None => Ok(()),
            Some(FaultAction::Error) => Err(OmegaError::InexactNegation),
            Some(FaultAction::Panic) => panic!("injected panic at site {site}"),
            Some(FaultAction::ExhaustBudget) => {
                self.trip(TRIP_INJECTED);
                i.degraded.fetch_add(1, Ordering::Relaxed);
                Err(OmegaError::BudgetExceeded("injected"))
            }
        }
    }

    fn trip(&self, code: u8) {
        // First tripper wins the reason; later trips keep it.
        let _ =
            self.inner
                .trip_code
                .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        self.inner.tripped.store(true, Ordering::Relaxed);
    }

    fn cancelled(&self) -> bool {
        self.inner
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    }

    /// True once the deadline passed, the fuel ran out, or the plan
    /// injected a budget exhaustion.
    pub fn tripped(&self) -> bool {
        self.inner.tripped.load(Ordering::Relaxed)
    }

    /// This governor's counters and trip reason.
    pub fn stats(&self) -> GovernorStats {
        GovernorStats {
            ops_charged: self.inner.charged.load(Ordering::Relaxed),
            ops_degraded: self.inner.degraded.load(Ordering::Relaxed),
            tripped: trip_reason(self.inner.trip_code.load(Ordering::Relaxed)),
        }
    }

    /// How many times the carried injection plan has fired (0 without a
    /// plan).
    pub fn injected_faults(&self) -> u64 {
        self.inner.inject.as_ref().map_or(0, Injector::fired)
    }
}

/// RAII scope of [`RequestGovernor::arm_on_thread`]: restores the
/// previously armed governor (or none) on drop.
pub struct RequestGovernorGuard {
    prev: Option<RequestGovernor>,
}

impl Drop for RequestGovernorGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        REQ_GOV_ARMED.with(|a| a.set(prev.is_some()));
        REQ_GOV.with(|g| *g.borrow_mut() = prev);
    }
}

/// Counters reported by [`RequestGovernor::stats`]:
/// how much work the governor saw and whether it tripped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Memoized operations charged against the budget.
    pub ops_charged: u64,
    /// Operations answered conservatively (or refused) after the budget
    /// tripped.
    pub ops_degraded: u64,
    /// Why the budget tripped, if it did (`"deadline"` or `"op fuel"`,
    /// or `"injected"` under fault injection).
    pub tripped: Option<&'static str>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builder_round_trips() {
        let b = Budget::new()
            .deadline_ms(100)
            .op_fuel(42)
            .max_negation_pieces(9)
            .subsume_negation_pieces(3)
            .stride_fuel(7);
        assert_eq!(b.deadline_ms, Some(100));
        assert_eq!(b.op_fuel, Some(42));
        assert_eq!(b.max_negation_pieces, 9);
        assert_eq!(b.subsume_negation_pieces, 3);
        assert_eq!(b.stride_fuel, 7);
    }

    #[test]
    fn cancel_token_is_shared() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }
}
