//! Parametric sweeps: certified bound-vs-parameter curves with LP reuse
//! between neighboring points.
//!
//! The suite's benchmark families — Coupon `Pr[T > 100/300/500]`, the
//! Ref `p` ladder, the 3DWalk εmax ladder — are the *same program* at
//! neighboring parameter values, yet the table drivers re-solve every
//! point from scratch. A sweep ([`run_sweep`]) instead walks one
//! family's points **in order** through a single shared [`LpSolver`]
//! session with dual-simplex reoptimization enabled
//! (`LpSolver::set_reoptimize`): each point's LPs find the previous
//! point's optimal basis in the session's warm-start cache and try a
//! handful of dual pivots on the perturbed RHS/objective instead of a
//! cold two-phase primal solve. Every point runs the same synthesis as
//! a cold run — for the RepRSM engines the same Ser search over
//! `[0, εmax]` — so it issues the same LPs; only how each LP is solved
//! differs.
//!
//! ## Fallback and honesty semantics
//!
//! Reuse is a fast path, never a verdict source, at every layer:
//!
//! * a dual reoptimization that fails for any reason (stale or singular
//!   cached basis, lost dual feasibility, degenerate stall, injected
//!   `dual-pivot` fault) degrades inside the session to the ordinary
//!   cold primal solve;
//! * with [`SweepRequest::check_cold`] (the `qava --sweep` default),
//!   every point is additionally re-solved in a fresh cold session and
//!   the two certified bounds are compared at the same relative `1e-7`
//!   tolerance the chaos suite uses. A drifted point **reports the cold
//!   bound** — the sweep-session attempt moves to the point's
//!   [`abandoned`](SweepPoint::abandoned) bucket — so a sweep is never
//!   looser than the per-point baseline. With the check on, a point
//!   costs its sweep attempt plus a cold solve.
//!
//! Per-point reopt-vs-cold statistics (`LpStats::reopt_attempts` /
//! `reopt_successes`) ride on the ordinary stats plumbing and surface in
//! the `qava --sweep` footer.

use crate::engine::{AnalysisRequest, Direction, EngineRegistry};
use crate::logprob::LogProb;
use crate::suite::Benchmark;
use qava_lp::{BackendChoice, LpSolver, LpStats};
use std::time::Instant;

/// Relative tolerance of the cold cross-check, matching the chaos
/// suite's value-preservation contract.
pub const DRIFT_TOL: f64 = 1e-7;

/// The engine a sweep runs per point when [`SweepRequest::engine`] is
/// `None`: the direction's primary table engine.
pub fn primary_engine(direction: Direction) -> &'static str {
    match direction {
        Direction::Upper => "hoeffding-linear",
        Direction::Lower => "explowsyn",
    }
}

/// One family sweep: an *ordered* list of neighboring points plus the
/// reuse/verification policy.
#[derive(Debug, Clone)]
pub struct SweepRequest<'a> {
    /// The family's points, in sweep order. Order matters: point `k+1`
    /// reuses point `k`'s bases, so neighbors should differ by small
    /// parameter steps (the suite families are already ordered this
    /// way).
    pub rows: &'a [Benchmark],
    /// Engine to run per point; `None` picks [`primary_engine`] of the
    /// row's direction.
    pub engine: Option<&'static str>,
    /// LP backend policy for both the shared sweep session and the cold
    /// cross-check sessions.
    pub backend: BackendChoice,
    /// Re-solve every point in a fresh cold session and fall back to the
    /// cold bound when the sweep bound drifts beyond [`DRIFT_TOL`].
    pub check_cold: bool,
}

impl<'a> SweepRequest<'a> {
    /// A sweep over `rows` with the default engine, backend and the cold
    /// cross-check enabled.
    pub fn new(rows: &'a [Benchmark]) -> Self {
        SweepRequest { rows, engine: None, backend: BackendChoice::default(), check_cold: true }
    }
}

/// Outcome of one sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Benchmark name (e.g. `Coupon`).
    pub name: &'static str,
    /// Row label (e.g. `Pr[T > 300]`).
    pub label: String,
    /// Engine that ran this point.
    pub engine: &'static str,
    /// The certified bound backing this point, or the failure rendered
    /// as text.
    pub bound: Result<LogProb, String>,
    /// Wall-clock time of the point, seconds — sweep run plus (when
    /// enabled) the cold cross-check.
    pub seconds: f64,
    /// LP statistics behind the **reported** bound (the shared sweep
    /// session's share, or the cold session's after a fallback),
    /// including this point's `reopt_attempts`/`reopt_successes`.
    pub lp: LpStats,
    /// LP statistics of a sweep-session attempt that was discarded in
    /// favor of its cold cross-check; empty otherwise. Kept apart from
    /// [`lp`](Self::lp) so sweep totals never double-count, mirroring
    /// the race driver's abandoned bucket.
    pub abandoned: LpStats,
    /// LP statistics of a cold cross-check that *confirmed* the sweep
    /// bound; empty when the check was off or the point fell back cold.
    pub audit: LpStats,
    /// Always `false`: sweep points no longer seed each other's ε search.
    /// Kept only because the `sweep` benchmark workload still reads it
    /// for its `sweep.seeded_points` metric; the next benchmark change
    /// removes both together.
    pub seeded: bool,
    /// Whether the point reports its cold solve (sweep run failed or
    /// drifted past [`DRIFT_TOL`]).
    pub cold_fallback: bool,
    /// `|Δ ln bound|` between the sweep run and the cold cross-check,
    /// when both certified.
    pub drift: Option<f64>,
}

/// A certified bound-vs-parameter curve with per-point reuse statistics.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Family name (the benchmark name of the first row).
    pub family: &'static str,
    /// One entry per requested row, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl SweepReport {
    /// Merged LP statistics behind the reported bounds (cold
    /// cross-checks and discarded attempts excluded).
    pub fn lp_stats(&self) -> LpStats {
        let mut total = LpStats::default();
        for p in &self.points {
            total.merge(&p.lp);
        }
        total
    }

    /// Points whose bound is a failure.
    pub fn failures(&self) -> usize {
        self.points.iter().filter(|p| p.bound.is_err()).count()
    }

    /// Points that fell back to their cold solve.
    pub fn cold_fallbacks(&self) -> usize {
        self.points.iter().filter(|p| p.cold_fallback).count()
    }

    /// Largest observed sweep-vs-cold drift, when any point was checked.
    pub fn max_drift(&self) -> Option<f64> {
        self.points.iter().filter_map(|p| p.drift).fold(None, |m, d| Some(m.map_or(d, |x: f64| x.max(d))))
    }
}

/// Runs one family sweep over the built-in engine registry.
pub fn run_sweep(req: &SweepRequest<'_>) -> SweepReport {
    run_sweep_in(&EngineRegistry::with_builtins(), req)
}

/// Runs one family sweep with an explicit registry: the points run
/// strictly in order inside one shared reoptimizing [`LpSolver`]
/// session; see the module docs for the fallback semantics.
pub fn run_sweep_in(registry: &EngineRegistry, req: &SweepRequest<'_>) -> SweepReport {
    let family = req.rows.first().map_or("", |b| b.name);
    let mut points = Vec::with_capacity(req.rows.len());
    let mut solver = LpSolver::with_choice(req.backend);
    solver.set_reoptimize(true);

    for b in req.rows {
        let name = req.engine.unwrap_or_else(|| primary_engine(b.direction));
        let Some(engine) = registry.engine(name) else {
            points.push(SweepPoint {
                name: b.name,
                label: b.label.clone(),
                engine: name,
                bound: Err(format!("unknown engine `{name}`")),
                seconds: 0.0,
                lp: LpStats::default(),
                abandoned: LpStats::default(),
                audit: LpStats::default(),
                seeded: false,
                cold_fallback: false,
                drift: None,
            });
            continue;
        };
        let pts = b.compile();
        let t0 = Instant::now();
        let areq = AnalysisRequest::new(&pts, engine.direction());
        let report = engine.run(&areq, &mut solver);

        let mut lp = report.lp;
        let mut outcome = report.outcome;
        let mut abandoned = LpStats::default();
        let mut audit = LpStats::default();
        let mut cold_fallback = false;
        let mut drift = None;

        if req.check_cold || outcome.is_err() {
            // The authority: same engine, fresh session, no reoptimization.
            let cold_req = AnalysisRequest::new(&pts, engine.direction());
            let mut cold_solver = LpSolver::with_choice(req.backend);
            let cold = engine.run(&cold_req, &mut cold_solver);
            match (&outcome, &cold.outcome) {
                (Ok(fast), Ok(authority)) => {
                    let (lf, lc) = (fast.bound.ln(), authority.bound.ln());
                    let d = (lf - lc).abs();
                    drift = Some(d);
                    if d > DRIFT_TOL * (1.0 + lc.abs()) {
                        abandoned = std::mem::take(&mut lp);
                        lp = cold.lp;
                        outcome = cold.outcome;
                        cold_fallback = true;
                    } else {
                        audit = cold.lp;
                    }
                }
                (Err(_), Ok(_)) => {
                    abandoned = std::mem::take(&mut lp);
                    lp = cold.lp;
                    outcome = cold.outcome;
                    cold_fallback = true;
                }
                // Both failed (or only the cold check failed): keep the
                // sweep outcome, bank the check's work.
                _ => audit = cold.lp,
            }
        }
        let seconds = t0.elapsed().as_secs_f64();

        points.push(SweepPoint {
            name: b.name,
            label: b.label.clone(),
            engine: name,
            bound: outcome.map(|c| c.bound).map_err(|e| e.to_string()),
            seconds,
            lp,
            abandoned,
            audit,
            seeded: false,
            cold_fallback,
            drift,
        });
    }

    SweepReport { family, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{coupon_rows, refsearch_rows};

    #[test]
    fn ref_sweep_certifies_and_matches_cold() {
        // The lower-bound family is the cheapest synthesis; the sweep
        // must certify every point and agree with its cold authority.
        let rows = refsearch_rows();
        let report = run_sweep(&SweepRequest::new(&rows));
        assert_eq!(report.family, "Ref");
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.failures(), 0);
        for p in &report.points {
            assert!(p.bound.is_ok(), "{}: {:?}", p.label, p.bound);
            let d = p.drift.expect("check_cold compares every certified point");
            assert!(d <= DRIFT_TOL * (1.0 + p.bound.as_ref().unwrap().ln().abs()) || p.cold_fallback);
        }
    }

    /// Every point's sweep-session attempt issues exactly as many LP
    /// solves as its cold run: a sweep reuses bases, never a different
    /// search. After a cold fallback the attempt sits in `abandoned` and
    /// the cold run in `lp`.
    fn assert_same_search_as_cold(report: &SweepReport) {
        for p in &report.points {
            let (attempt, cold) =
                if p.cold_fallback { (&p.abandoned, &p.lp) } else { (&p.lp, &p.audit) };
            assert_eq!(
                attempt.solves, cold.solves,
                "{} {}: sweep attempt vs cold LP solves",
                report.family, p.label
            );
        }
    }

    #[test]
    fn every_sweep_point_runs_the_cold_search() {
        for rows in crate::suite::sweep_families() {
            let report = run_sweep(&SweepRequest::new(&rows));
            assert_eq!(report.failures(), 0, "{}", report.family);
            assert_same_search_as_cold(&report);
        }
    }

    #[test]
    fn coupon_sweep_matches_cold_search_and_is_monotone() {
        let rows = coupon_rows();
        let report = run_sweep(&SweepRequest::new(&rows));
        assert_eq!(report.failures(), 0);
        assert_same_search_as_cold(&report);
        // Metamorphic monotonicity: Pr[T > n] is non-increasing in n.
        let lns: Vec<f64> =
            report.points.iter().map(|p| p.bound.as_ref().unwrap().ln()).collect();
        assert!(
            lns.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "coupon bounds must be non-increasing in n: {lns:?}"
        );
    }

    #[test]
    fn unknown_engine_fails_points_without_panicking() {
        let rows = refsearch_rows();
        let mut req = SweepRequest::new(&rows);
        req.engine = Some("interior-point");
        let report = run_sweep(&req);
        assert_eq!(report.failures(), 3);
        assert!(report.points[0].bound.as_ref().unwrap_err().contains("unknown engine"));
    }
}
