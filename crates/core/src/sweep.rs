//! Parametric sweeps: certified bound-vs-parameter curves over the
//! suite's benchmark families (Coupon `Pr[T > 100/300/500]`, the Ref
//! `p` ladder, the 3DWalk εmax ladder).
//!
//! A sweep ([`run_sweep`]) is a batch of independent rows: each point is
//! compiled and solved like its `qava --suite` row, by its direction's
//! [`primary_engine`] (or [`SweepRequest::engine`]) in a fresh
//! `LpSolver` session, so it carries that row's bound and work counters
//! bit for bit. Points share no LP state: dual-reoptimizing a point from
//! its neighbor's bases moves the last digits of the Ser objective, and
//! the ternary search would then land on a bound that depends on the
//! neighbor. [`run_sweeps_in`] runs the points of many families as the
//! tasks of one pool; the schedule changes wall time only.

use crate::engine::{Direction, EngineRegistry};
use crate::logprob::LogProb;
use crate::suite::runner::{run_task, EngineRun};
use crate::suite::Benchmark;
use qava_lp::{BackendChoice, LpStats};
use rayon::prelude::*;

/// Unused by the sweep. Left for the `sweep` benchmark workload's
/// reference check; the next benchmark change drops it.
pub const DRIFT_TOL: f64 = 1e-7;

/// The engine a sweep runs per point when [`SweepRequest::engine`] is
/// `None`: the direction's primary table engine.
pub fn primary_engine(direction: Direction) -> &'static str {
    match direction {
        Direction::Upper => "hoeffding-linear",
        Direction::Lower => "explowsyn",
    }
}

/// One family sweep: the family's points and how to run them.
#[derive(Debug, Clone)]
pub struct SweepRequest<'a> {
    /// The family's points, in the order the report lists them.
    pub rows: &'a [Benchmark],
    /// Engine to run per point; `None` picks [`primary_engine`] of the
    /// row's direction.
    pub engine: Option<&'static str>,
    /// LP backend policy of every point's session.
    pub backend: BackendChoice,
    /// No effect: every point is its own cold run. Left for the `sweep`
    /// benchmark workload; the next benchmark change drops it.
    pub check_cold: bool,
}

impl<'a> SweepRequest<'a> {
    /// A sweep over `rows` with the default engine and backend.
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
    /// The certified bound, or the failure rendered as text.
    pub bound: Result<LogProb, String>,
    /// Wall-clock synthesis time of the point (excluding compilation),
    /// seconds. Points run concurrently on the sweep's task pool, so
    /// this is the point's work, not a span of the pass's wall time.
    pub seconds: f64,
    /// LP statistics of the point's session.
    pub lp: LpStats,
    /// Always empty. This and the next three fields are left for the
    /// `sweep` benchmark workload; the next benchmark change drops them.
    pub abandoned: LpStats,
    /// Always empty.
    pub audit: LpStats,
    /// Always `false`.
    pub seeded: bool,
    /// Always `false`.
    pub cold_fallback: bool,
}

/// A certified bound-vs-parameter curve with per-point LP statistics.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Family name (the benchmark name of the first row).
    pub family: &'static str,
    /// One entry per requested row, in request order.
    pub points: Vec<SweepPoint>,
}

impl SweepReport {
    /// Points whose bound is a failure.
    pub fn failures(&self) -> usize {
        self.points.iter().filter(|p| p.bound.is_err()).count()
    }
}

/// Runs one family sweep over the built-in engine registry.
pub fn run_sweep(req: &SweepRequest<'_>) -> SweepReport {
    run_sweep_in(&EngineRegistry::with_builtins(), req)
}

/// Runs one family sweep with an explicit registry: [`run_sweeps_in`]
/// over that one family.
pub fn run_sweep_in(registry: &EngineRegistry, req: &SweepRequest<'_>) -> SweepReport {
    run_sweeps_in(registry, std::slice::from_ref(req)).pop().expect("one report per request")
}

/// Runs several family sweeps and returns one report per request, in
/// order. Every point of every request is one task of a flat pool, run
/// like a sequential-mode suite row (see the module docs).
pub fn run_sweeps_in(registry: &EngineRegistry, reqs: &[SweepRequest<'_>]) -> Vec<SweepReport> {
    let tasks: Vec<(&SweepRequest<'_>, &Benchmark)> =
        reqs.iter().flat_map(|req| req.rows.iter().map(move |b| (req, b))).collect();
    let runs: Vec<EngineRun> = tasks
        .par_iter()
        .map(|&(req, b)| {
            let engine = req.engine.unwrap_or_else(|| primary_engine(b.direction));
            run_task(registry, b, engine, req.backend, None)
        })
        .collect();
    let mut runs = runs.into_iter();
    reqs.iter()
        .map(|req| SweepReport {
            family: req.rows.first().map_or("", |b| b.name),
            points: req.rows.iter().zip(runs.by_ref()).map(|(b, run)| point(b, run)).collect(),
        })
        .collect()
}

fn point(b: &Benchmark, run: EngineRun) -> SweepPoint {
    SweepPoint {
        name: b.name,
        label: b.label.clone(),
        engine: run.engine,
        bound: run.bound,
        seconds: run.seconds,
        lp: run.lp,
        abandoned: LpStats::default(),
        audit: LpStats::default(),
        seeded: false,
        cold_fallback: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{coupon_rows, refsearch_rows};

    /// The schedule never changes an answer: every family swept in one
    /// pool gives, point for point, the same bits and the same work as
    /// that family swept alone.
    #[test]
    fn pooled_sweeps_match_each_family_alone() {
        let families = crate::suite::sweep_families();
        let registry = EngineRegistry::with_builtins();
        let reqs: Vec<_> = families.iter().map(|rows| SweepRequest::new(rows)).collect();
        let pooled = run_sweeps_in(&registry, &reqs);
        assert_eq!(pooled.len(), reqs.len());
        let bits =
            |p: &SweepPoint| p.bound.as_ref().map(|b| b.ln().to_bits()).map_err(Clone::clone);
        for (req, report) in reqs.iter().zip(&pooled) {
            let alone = run_sweep_in(&registry, req);
            assert_eq!(report.family, alone.family);
            assert_eq!(report.points.len(), alone.points.len());
            for (p, q) in report.points.iter().zip(&alone.points) {
                let at = format!("{} {}", report.family, p.label);
                assert_eq!(bits(p), bits(q), "{at}: bound");
                assert_eq!((p.lp.solves, p.lp.pivots), (q.lp.solves, q.lp.pivots), "{at}: lp");
            }
        }
    }

    #[test]
    fn coupon_sweep_is_monotone() {
        let rows = coupon_rows();
        let report = run_sweep(&SweepRequest::new(&rows));
        assert_eq!(report.failures(), 0);
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
