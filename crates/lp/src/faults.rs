//! Deterministic fault-injection plane for the LP solver.
//!
//! A [`FaultPlan`] is a *one-shot* fault armed at a specific injection
//! site: the plan names a [`FaultKind`], and fires the `nth` time its
//! site is reached, then never again. Plans are installed per
//! [`LpSolver`](crate::LpSolver) session — either programmatically via
//! `install_fault_plan` or from the `QAVA_LP_FAULTS` environment
//! variable — and are threaded into the simplex core through a
//! thread-local while the backend runs, so the injection sites inside
//! `revised`/`ft` need no plumbing through every signature.
//!
//! Fault specs (for `QAVA_LP_FAULTS` and [`FaultPlan::parse`]):
//!
//! ```text
//! refactor-fail[:N]   Nth basis refactorization reports singular
//! shaky-pivot[:N]     Nth FT update sees a below-threshold pivot
//! accuracy-trip[:N]   Nth FT accuracy check reports drift
//! pivot-limit[:N]     Nth backend call's result becomes PivotLimit
//! warm-poison[:N]     Nth warm-start lookup returns a corrupted basis
//! deadline[:N]        Nth solve boundary behaves as an expired deadline
//! chaos:SEED          a pseudo-random recoverable fault derived from SEED
//! ```
//!
//! Any other kind is an "unknown fault kind" error.
//!
//! `N` defaults to 1 and is 1-based. Everything is deterministic: the
//! same plan against the same workload trips at the same site, which is
//! what makes the chaos suite's "certified bound within 1e-7 of the
//! fault-free value" assertion meaningful.

use std::cell::{Cell, RefCell};

/// The kinds of fault the plane can inject.
///
/// All but [`FaultKind::Deadline`] are *recoverable*: the solver's
/// in-backend recovery (watchdog refactorization, Bland retry) or the
/// session failover ladder is expected to absorb them and still produce
/// a certified verdict. `Deadline` simulates an expired per-request
/// deadline and surfaces as [`LpError::Cancelled`](crate::LpError).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A basis refactorization transiently reports "singular".
    RefactorFail,
    /// An FT update pivot is treated as numerically shaky.
    ShakyPivot,
    /// The Forrest–Tomlin accuracy check reports determinant drift.
    AccuracyTrip,
    /// A backend call's successful result is replaced by `PivotLimit`.
    PivotLimit,
    /// A warm-start basis from the cache is corrupted before use.
    WarmPoison,
    /// A solve boundary behaves as if the request deadline expired.
    Deadline,
}

/// The recoverable kinds, in spec order (used by [`FaultPlan::chaos`]).
const RECOVERABLE: [FaultKind; 5] = [
    FaultKind::RefactorFail,
    FaultKind::ShakyPivot,
    FaultKind::AccuracyTrip,
    FaultKind::PivotLimit,
    FaultKind::WarmPoison,
];

/// Where in the solve pipeline a fault can trip. Each [`FaultKind`]
/// maps to exactly one site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Site {
    /// `Revised::refactor` — a full basis refactorization.
    Refactor,
    /// `FtBasis::update` — the incremental pivot.
    UpdatePivot,
    /// `FtBasis::update` — the post-update accuracy check.
    FtAccuracy,
    /// The session's call into `LpBackend::solve_core`.
    BackendCall,
    /// A warm-start cache hit, before the basis is used.
    WarmLookup,
    /// Entry to `solve_std_rows`, where deadlines are enforced.
    SolveBoundary,
}

impl FaultKind {
    pub(crate) fn site(self) -> Site {
        match self {
            FaultKind::RefactorFail => Site::Refactor,
            FaultKind::ShakyPivot => Site::UpdatePivot,
            FaultKind::AccuracyTrip => Site::FtAccuracy,
            FaultKind::PivotLimit => Site::BackendCall,
            FaultKind::WarmPoison => Site::WarmLookup,
            FaultKind::Deadline => Site::SolveBoundary,
        }
    }

    /// The spec string for this kind (inverse of parsing).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::RefactorFail => "refactor-fail",
            FaultKind::ShakyPivot => "shaky-pivot",
            FaultKind::AccuracyTrip => "accuracy-trip",
            FaultKind::PivotLimit => "pivot-limit",
            FaultKind::WarmPoison => "warm-poison",
            FaultKind::Deadline => "deadline",
        }
    }

    fn from_label(s: &str) -> Option<FaultKind> {
        Some(match s {
            "refactor-fail" => FaultKind::RefactorFail,
            "shaky-pivot" => FaultKind::ShakyPivot,
            "accuracy-trip" => FaultKind::AccuracyTrip,
            "pivot-limit" => FaultKind::PivotLimit,
            "warm-poison" => FaultKind::WarmPoison,
            "deadline" => FaultKind::Deadline,
            _ => return None,
        })
    }
}

/// A one-shot fault plan: fire `kind` the `nth` time its site is
/// reached, then stay quiet.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    kind: FaultKind,
    nth: usize,
    seen: usize,
    fired: bool,
}

impl FaultPlan {
    /// A plan that fires `kind` on the `nth` (1-based) visit to its
    /// site. `nth` of 0 is treated as 1.
    pub fn new(kind: FaultKind, nth: usize) -> Self {
        FaultPlan { kind, nth: nth.max(1), seen: 0, fired: false }
    }

    /// A plan that fires `kind` on the first visit to its site.
    pub fn once(kind: FaultKind) -> Self {
        FaultPlan::new(kind, 1)
    }

    /// A pseudo-random *recoverable* single-fault plan derived
    /// deterministically from `seed` — the chaos suite's generator.
    /// Deadline faults are excluded: chaos mode asserts every row still
    /// certifies, and a simulated deadline expiry is designed not to.
    pub fn chaos(seed: u64) -> Self {
        let mut s = splitmix64(seed);
        let kind = RECOVERABLE[(s % RECOVERABLE.len() as u64) as usize];
        s = splitmix64(s);
        FaultPlan::new(kind, 1 + (s % 4) as usize)
    }

    /// Parses a fault spec (`kind[:N]` or `chaos:SEED`); see the module
    /// docs for the grammar.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (head, tail) = match spec.split_once(':') {
            Some((h, t)) => (h, Some(t)),
            None => (spec, None),
        };
        if head == "chaos" {
            let seed: u64 = tail
                .ok_or("chaos needs a seed: chaos:SEED")?
                .parse()
                .map_err(|_| format!("bad chaos seed in `{spec}`"))?;
            return Ok(FaultPlan::chaos(seed));
        }
        let kind = FaultKind::from_label(head).ok_or_else(|| {
            format!(
                "unknown fault kind `{head}` (expected refactor-fail, shaky-pivot, \
                 accuracy-trip, pivot-limit, warm-poison, deadline, \
                 or chaos:SEED)"
            )
        })?;
        let nth = match tail {
            Some(t) => t.parse().map_err(|_| format!("bad fault count in `{spec}`"))?,
            None => 1,
        };
        Ok(FaultPlan::new(kind, nth))
    }

    /// The fault kind this plan injects.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Which visit to the site fires the fault (1-based).
    pub fn nth(&self) -> usize {
        self.nth
    }

    /// Whether the fault has fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The spec string that reproduces this plan (`kind:N`).
    pub fn label(&self) -> String {
        format!("{}:{}", self.kind.label(), self.nth)
    }

    /// Called at an injection site: returns true iff the fault fires
    /// here and now. At most one `true` per plan, ever.
    pub(crate) fn arm(&mut self, site: Site) -> bool {
        if self.fired || self.kind.site() != site {
            return false;
        }
        self.seen += 1;
        if self.seen == self.nth {
            self.fired = true;
            true
        } else {
            false
        }
    }
}

/// Reads a plan from `QAVA_LP_FAULTS`, panicking loudly on a malformed
/// spec — a silently ignored fault plan would defeat the whole point.
pub(crate) fn from_env() -> Option<FaultPlan> {
    let spec = std::env::var("QAVA_LP_FAULTS").ok()?;
    let spec = spec.trim();
    if spec.is_empty() {
        return None;
    }
    match FaultPlan::parse(spec) {
        Ok(plan) => Some(plan),
        Err(e) => panic!("QAVA_LP_FAULTS: {e}"),
    }
}

thread_local! {
    /// The plan active for the backend call currently running on this
    /// thread (installed by the session around `solve_core`).
    static ACTIVE: RefCell<Option<FaultPlan>> = const { RefCell::new(None) };
    /// Fast-path mirror of `ACTIVE.is_some()` so the hot simplex loop
    /// pays one `Cell` read when no fault plane is installed.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Swaps the thread-active plan, returning the previous one. The
/// session installs its plan around each backend call and takes it back
/// afterwards (round-tripping the visit counters).
pub(crate) fn install(plan: Option<FaultPlan>) -> Option<FaultPlan> {
    ARMED.with(|a| a.set(plan.is_some()));
    ACTIVE.with(|p| std::mem::replace(&mut *p.borrow_mut(), plan))
}

/// Probes the thread-active plan at an injection site. Returns true iff
/// an installed plan fires here. No plan → false, at `Cell`-read cost.
pub(crate) fn trip(site: Site) -> bool {
    if !ARMED.with(|a| a.get()) {
        return false;
    }
    ACTIVE.with(|p| p.borrow_mut().as_mut().is_some_and(|plan| plan.arm(site)))
}

/// SplitMix64 — the standard 64-bit seed mixer; good avalanche from
/// sequential or structured seeds, which is exactly what the chaos
/// suite feeds it.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for kind in [
            FaultKind::RefactorFail,
            FaultKind::ShakyPivot,
            FaultKind::AccuracyTrip,
            FaultKind::PivotLimit,
            FaultKind::WarmPoison,
            FaultKind::Deadline,
        ] {
            let plan = FaultPlan::parse(kind.label()).unwrap();
            assert_eq!(plan.kind(), kind);
            assert_eq!(plan.nth(), 1);
            let plan = FaultPlan::parse(&format!("{}:3", kind.label())).unwrap();
            assert_eq!(plan.kind(), kind);
            assert_eq!(plan.nth(), 3);
            assert_eq!(FaultPlan::parse(&plan.label()).unwrap().nth(), 3);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("segfault").is_err());
        assert!(FaultPlan::parse("refactor-fail:x").is_err());
        assert!(FaultPlan::parse("chaos").is_err());
        assert!(FaultPlan::parse("chaos:banana").is_err());
    }

    #[test]
    fn arm_fires_exactly_once_at_nth_visit() {
        let mut plan = FaultPlan::new(FaultKind::RefactorFail, 3);
        assert!(!plan.arm(Site::Refactor));
        assert!(!plan.arm(Site::UpdatePivot), "wrong site never fires");
        assert!(!plan.arm(Site::Refactor));
        assert!(!plan.fired());
        assert!(plan.arm(Site::Refactor), "third visit fires");
        assert!(plan.fired());
        assert!(!plan.arm(Site::Refactor), "one-shot: never again");
    }

    #[test]
    fn chaos_is_deterministic_and_recoverable() {
        for seed in 0..64u64 {
            let a = FaultPlan::chaos(seed);
            let b = FaultPlan::chaos(seed);
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.nth(), b.nth());
            assert_ne!(a.kind(), FaultKind::Deadline, "chaos avoids deadlines");
            assert!((1..=4).contains(&a.nth()));
        }
        // Every recoverable kind is drawn (avalanche sanity).
        let kinds: std::collections::HashSet<_> =
            (0..64u64).map(|s| FaultPlan::chaos(s).kind().label()).collect();
        for kind in RECOVERABLE {
            assert!(kinds.contains(kind.label()), "chaos never draws {}: {kinds:?}", kind.label());
        }
    }

    #[test]
    fn install_and_trip_round_trip() {
        let prev = install(Some(FaultPlan::once(FaultKind::ShakyPivot)));
        assert!(prev.is_none());
        assert!(!trip(Site::Refactor));
        assert!(trip(Site::UpdatePivot));
        assert!(!trip(Site::UpdatePivot), "one-shot through the thread-local too");
        let back = install(None).expect("plan still installed");
        assert!(back.fired());
        assert!(!trip(Site::UpdatePivot), "uninstalled plane is inert");
    }
}
