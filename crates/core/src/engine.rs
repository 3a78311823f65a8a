//! The unified bound-engine API: one runtime-dispatchable handle over
//! every bound-synthesis algorithm in the crate, an [`EngineRegistry`]
//! mirroring `LpSolver::register_backend` one layer up, and in-process
//! **candidate racing** ([`race`]).
//!
//! The paper's evaluation runs several synthesis algorithms side by side
//! per benchmark; historically each lived behind its own free-function
//! family (`synthesize_reprsm_bound*`, `synthesize_upper_bound*`, …) and
//! every caller — suite runner, CLI, `tables` — glued them together by
//! hand. This module promotes the algorithm to a value:
//!
//! * [`BoundEngine`] is the pluggable synthesis interface: a name, a
//!   bound [`Direction`], a cheap [`applicable`](BoundEngine::applicable)
//!   screen, and [`run`](BoundEngine::run), which takes an
//!   [`AnalysisRequest`] (compiled PTS + budget/tolerance knobs) and an
//!   `LpSolver` session and returns a uniform [`AnalysisReport`]
//!   (certified bound, certificate, per-engine `LpStats`, wall time).
//! * The six built-in engines wrap the existing algorithms:
//!   `hoeffding-linear` and `azuma` (§5.1 / Remark 2), `explinsyn`
//!   (§5.2), `polyrsm-quadratic` (Remark 3), `explowsyn` (§6) and
//!   `polylow` (Remark 5). Each adapter only wires the request into the
//!   algorithm's session-threaded `*_in` function.
//! * [`EngineRegistry`] holds engines by name;
//!   [`register_engine`](EngineRegistry::register_engine) attaches
//!   external implementations exactly like `LpSolver::register_backend`
//!   attaches LP backends.
//! * [`race`] runs the applicable engines of a direction concurrently on
//!   the rayon pool, each inside its **own** `LpSolver` session, and
//!   returns the first *certified* bound; the losers are cancelled
//!   cooperatively through a shared flag their sessions poll at LP-solve
//!   boundaries ([`qava_lp::LpError::Cancelled`]). Loser statistics are
//!   kept honest in a separate `abandoned` bucket
//!   ([`RaceOutcome::abandoned`]) so suite footers never double-count
//!   pivots spent by cancelled candidates.
//!
//! Soundness of racing: every engine's bound is individually certified
//! (it comes with a checked certificate), so returning whichever
//! certified bound arrives first is sound for *bounds* — the race trades
//! tightness for latency, never correctness. Determinism of the value:
//! a racer's result is computed entirely inside its private session, so
//! the bound reported for a winning engine is bit-identical to what that
//! engine reports when run alone (pinned by
//! `tests/engine_conformance.rs`).

use crate::hoeffding::{self, BoundKind};
use crate::logprob::LogProb;
use crate::template::SolvedTemplate;
use crate::{explinsyn, explowsyn, polylow, polyrsm};
use qava_convex::SolverOptions;
use qava_lp::{BackendChoice, LpError, LpSolver, LpStats};
use qava_pts::Pts;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which side of the true violation probability a bound certifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Upper bounds (UQAVA; Table 1 of the paper).
    Upper,
    /// Lower bounds (LQAVA; Table 2 — sound under a.s. termination).
    Lower,
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::Upper => write!(f, "upper"),
            Direction::Lower => write!(f, "lower"),
        }
    }
}

/// Everything an engine needs to run on one program: the compiled PTS
/// plus the budget/tolerance knobs the algorithms expose. One request is
/// shared (immutably) by every engine of a run or race.
#[derive(Debug, Clone)]
pub struct AnalysisRequest<'a> {
    /// The compiled, invariant-annotated transition system.
    pub pts: &'a Pts,
    /// The bound direction being asked for. Engines of the other
    /// direction are filtered out by the registry/race helpers.
    pub direction: Direction,
    /// Ser ternary-search iteration budget for the RepRSM engines
    /// (Theorem C.1's granularity/LP-count trade-off).
    pub ser_iterations: usize,
    /// Interior-point options for the convex-programming engine.
    pub convex: SolverOptions,
    /// Optional wall-clock budget for each engine run. Enforced at
    /// LP-solve boundaries through the session's deadline check, so an
    /// expired run winds down with [`EngineError::Cancelled`] rather
    /// than being killed mid-pivot — the same cooperative path a lost
    /// race uses.
    pub deadline: Option<Duration>,
}

impl<'a> AnalysisRequest<'a> {
    /// A request with the default budgets.
    pub fn new(pts: &'a Pts, direction: Direction) -> Self {
        AnalysisRequest {
            pts,
            direction,
            ser_iterations: hoeffding::DEFAULT_SER_ITERATIONS,
            convex: SolverOptions::default(),
            deadline: None,
        }
    }

    /// Sets a per-run wall-clock budget (see [`Self::deadline`]).
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Shorthand for an upper-bound request with default budgets.
    pub fn upper(pts: &'a Pts) -> Self {
        Self::new(pts, Direction::Upper)
    }

    /// Shorthand for a lower-bound request with default budgets.
    pub fn lower(pts: &'a Pts) -> Self {
        Self::new(pts, Direction::Lower)
    }
}

/// The certificate backing a certified bound — what a caller would
/// re-check or print symbolically (Tables 3–5).
#[derive(Debug, Clone)]
pub enum Certificate {
    /// An exponential template with affine exponent per live location
    /// (RepRSM η or pre/post fixed-point exponent).
    Template(SolvedTemplate),
    /// A raw solution vector over quadratic-template unknowns (the
    /// Handelman engines; see `polyrsm`/`polylow` for the layout).
    Quadratic(Vec<f64>),
}

/// A certified bound with its certificate and engine-specific scalars.
#[derive(Debug, Clone)]
pub struct Certified {
    /// The certified bound on the violation probability.
    pub bound: LogProb,
    /// The certificate that backs it.
    pub certificate: Certificate,
    /// Engine-specific diagnostics (`("epsilon", …)`, `("lp_solves", …)`,
    /// …), for display layers that used to read result-struct fields.
    pub details: Vec<(&'static str, f64)>,
}

/// Why an engine produced no certified bound.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The run was cooperatively cancelled: it lost a [`race`] and its
    /// session's cancel flag was raised, or its request's deadline
    /// expired. No verdict of any kind.
    Cancelled,
    /// The engine genuinely declined or failed (no certificate exists,
    /// numerical failure, …), rendered exactly as the legacy error.
    Failed(String),
    /// The engine panicked mid-run. Only [`race`] produces this — it
    /// isolates each racer behind a panic boundary so one buggy
    /// candidate cannot take down the whole race; running an engine
    /// directly propagates the panic as usual.
    Panicked(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Cancelled => {
                write!(f, "cancelled (lost the candidate race or ran out of deadline)")
            }
            EngineError::Failed(msg) => write!(f, "{msg}"),
            EngineError::Panicked(msg) => write!(f, "engine panicked: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The uniform outcome of one engine on one request.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// [`BoundEngine::name`] of the engine that ran.
    pub engine: &'static str,
    /// The engine's bound direction.
    pub direction: Direction,
    /// The certified bound, or why there is none.
    pub outcome: Result<Certified, EngineError>,
    /// LP statistics this run added to its session (solves, pivots,
    /// warm-start traffic, wall time inside the LP pipeline).
    pub lp: LpStats,
    /// Wall-clock time of the whole run, seconds.
    pub wall_seconds: f64,
}

impl AnalysisReport {
    /// The certified bound, if any.
    pub fn bound(&self) -> Option<LogProb> {
        self.outcome.as_ref().ok().map(|c| c.bound)
    }

    /// Whether the run ended because it was cancelled (vs. failed or
    /// succeeded).
    pub fn cancelled(&self) -> bool {
        matches!(self.outcome, Err(EngineError::Cancelled))
    }
}

/// A runtime-dispatchable bound-synthesis algorithm.
///
/// `Send + Sync` is part of the contract so registries can be shared
/// across the suite driver's worker threads and engines can race.
pub trait BoundEngine: Send + Sync {
    /// Short stable name, used for registry lookup, `--engines` lists
    /// and statistics attribution.
    fn name(&self) -> &'static str;

    /// Which bound direction this engine certifies.
    fn direction(&self) -> Direction;

    /// Cheap applicability screen, checked before scheduling a run. The
    /// default rejects programs whose initial location is absorbing (the
    /// answer is trivially 0 or 1 and every algorithm declines).
    fn applicable(&self, pts: &Pts) -> bool {
        !pts.is_absorbing(pts.initial_state().loc)
    }

    /// Runs the engine inside the given solver session.
    ///
    /// Implementations must confine all LP work to `solver` (so
    /// statistics and cooperative cancellation work), must report the
    /// statistics *this run* added to the session in
    /// [`AnalysisReport::lp`] while leaving the session-wide running
    /// total intact (see [`scoped_stats`]), and must map a cancelled
    /// session ([`qava_lp::LpError::Cancelled`]) to
    /// [`EngineError::Cancelled`].
    fn run(&self, req: &AnalysisRequest<'_>, solver: &mut LpSolver) -> AnalysisReport;
}

/// Runs `f` against the session while carving its [`LpStats`] into a
/// private slice: the returned stats are exactly what `f` added, and the
/// session's own running total (anything accumulated before plus `f`'s
/// share) is preserved. The building block every engine adapter uses to
/// fill [`AnalysisReport::lp`] honestly even when the caller shares one
/// session across several analyses (as `qava` single-file mode does).
pub fn scoped_stats<T>(
    solver: &mut LpSolver,
    f: impl FnOnce(&mut LpSolver) -> T,
) -> (T, LpStats) {
    let before = solver.take_stats();
    let out = f(solver);
    let mine = solver.take_stats();
    solver.merge_stats(&before);
    solver.merge_stats(&mine);
    (out, mine)
}

/// Shared `run` plumbing: timing, stats scoping, report assembly.
fn run_report(
    name: &'static str,
    direction: Direction,
    req: &AnalysisRequest<'_>,
    solver: &mut LpSolver,
    f: impl FnOnce(&AnalysisRequest<'_>, &mut LpSolver) -> Result<Certified, EngineError>,
) -> AnalysisReport {
    let started = Instant::now();
    if let Some(budget) = req.deadline {
        solver.set_deadline_in(budget);
    }
    let (outcome, lp) = scoped_stats(solver, |solver| f(req, solver));
    if req.deadline.is_some() {
        solver.clear_deadline();
    }
    AnalysisReport {
        engine: name,
        direction,
        outcome,
        lp,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// §5.1: affine RepRSM + Hoeffding's lemma (`hoeffding-linear`).
#[derive(Debug, Clone, Copy, Default)]
pub struct HoeffdingLinear;

/// POPL'17 baseline: affine RepRSM + Azuma's inequality (`azuma`).
#[derive(Debug, Clone, Copy, Default)]
pub struct AzumaLinear;

/// §5.2: complete exponential upper bounds via convex programming
/// (`explinsyn`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpLinSyn;

/// Remark 3: quadratic RepRSM via Handelman certificates
/// (`polyrsm-quadratic`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PolyRsmQuadratic;

/// §6: exponential lower bounds via Jensen strengthening (`explowsyn`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpLowSyn;

/// Remark 5: quadratic lower bounds via Handelman certificates
/// (`polylow`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PolyLowQuadratic;

/// The shared adapter behind both affine RepRSM engines — they differ
/// only in the concentration inequality ([`BoundKind`]).
fn run_reprsm(
    name: &'static str,
    kind: BoundKind,
    req: &AnalysisRequest<'_>,
    solver: &mut LpSolver,
) -> AnalysisReport {
    run_report(name, Direction::Upper, req, solver, |req, solver| {
        hoeffding::synthesize_reprsm_bound_in(req.pts, kind, req.ser_iterations, solver)
            .map(|r| Certified {
                bound: r.bound,
                certificate: Certificate::Template(r.template),
                details: vec![
                    ("epsilon", r.epsilon),
                    ("omega", r.omega),
                    ("lp_solves", r.lp_solves as f64),
                ],
            })
            .map_err(|e| match e {
                hoeffding::RepRsmError::Lp(LpError::Cancelled) => EngineError::Cancelled,
                other => EngineError::Failed(other.to_string()),
            })
    })
}

impl BoundEngine for HoeffdingLinear {
    fn name(&self) -> &'static str {
        "hoeffding-linear"
    }

    fn direction(&self) -> Direction {
        Direction::Upper
    }

    fn run(&self, req: &AnalysisRequest<'_>, solver: &mut LpSolver) -> AnalysisReport {
        run_reprsm(self.name(), BoundKind::Hoeffding, req, solver)
    }
}

impl BoundEngine for AzumaLinear {
    fn name(&self) -> &'static str {
        "azuma"
    }

    fn direction(&self) -> Direction {
        Direction::Upper
    }

    fn run(&self, req: &AnalysisRequest<'_>, solver: &mut LpSolver) -> AnalysisReport {
        run_reprsm(self.name(), BoundKind::Azuma, req, solver)
    }
}

impl BoundEngine for ExpLinSyn {
    fn name(&self) -> &'static str {
        "explinsyn"
    }

    fn direction(&self) -> Direction {
        Direction::Upper
    }

    fn run(&self, req: &AnalysisRequest<'_>, solver: &mut LpSolver) -> AnalysisReport {
        run_report(self.name(), self.direction(), req, solver, |req, solver| {
            explinsyn::synthesize_upper_bound_with_in(req.pts, &req.convex, solver)
                .map(|r| Certified {
                    bound: r.bound,
                    certificate: Certificate::Template(r.template),
                    details: vec![
                        ("floored", f64::from(u8::from(r.floored))),
                        ("newton_iterations", r.newton_iterations as f64),
                    ],
                })
                .map_err(|e| match e {
                    explinsyn::ExpLinSynError::Cancelled => EngineError::Cancelled,
                    other => EngineError::Failed(other.to_string()),
                })
        })
    }
}

impl BoundEngine for PolyRsmQuadratic {
    fn name(&self) -> &'static str {
        "polyrsm-quadratic"
    }

    fn direction(&self) -> Direction {
        Direction::Upper
    }

    fn run(&self, req: &AnalysisRequest<'_>, solver: &mut LpSolver) -> AnalysisReport {
        run_report(self.name(), self.direction(), req, solver, |req, solver| {
            polyrsm::synthesize_quadratic_bound_in(
                req.pts,
                BoundKind::Hoeffding,
                req.ser_iterations,
                solver,
            )
            .map(|r| Certified {
                bound: r.bound,
                certificate: Certificate::Quadratic(r.solution),
                details: vec![
                    ("epsilon", r.epsilon),
                    ("omega", r.omega),
                    ("lp_solves", r.lp_solves as f64),
                ],
            })
            .map_err(|e| match e {
                polyrsm::PolyRsmError::Lp(LpError::Cancelled) => EngineError::Cancelled,
                other => EngineError::Failed(other.to_string()),
            })
        })
    }
}

impl BoundEngine for ExpLowSyn {
    fn name(&self) -> &'static str {
        "explowsyn"
    }

    fn direction(&self) -> Direction {
        Direction::Lower
    }

    fn run(&self, req: &AnalysisRequest<'_>, solver: &mut LpSolver) -> AnalysisReport {
        run_report(self.name(), self.direction(), req, solver, |req, solver| {
            explowsyn::synthesize_lower_bound_in(req.pts, solver)
                .map(|r| Certified {
                    bound: r.bound,
                    certificate: Certificate::Template(r.template),
                    details: vec![("lattice_bound", r.lattice_bound)],
                })
                .map_err(|e| match e {
                    explowsyn::ExpLowSynError::Lp(LpError::Cancelled) => EngineError::Cancelled,
                    other => EngineError::Failed(other.to_string()),
                })
        })
    }
}

impl BoundEngine for PolyLowQuadratic {
    fn name(&self) -> &'static str {
        "polylow"
    }

    fn direction(&self) -> Direction {
        Direction::Lower
    }

    fn run(&self, req: &AnalysisRequest<'_>, solver: &mut LpSolver) -> AnalysisReport {
        run_report(self.name(), self.direction(), req, solver, |req, solver| {
            polylow::synthesize_quadratic_lower_bound_in(req.pts, solver)
                .map(|r| Certified {
                    bound: r.bound,
                    certificate: Certificate::Quadratic(r.solution),
                    details: Vec::new(),
                })
                .map_err(|e| match e {
                    polylow::PolyLowError::Lp(LpError::Cancelled) => EngineError::Cancelled,
                    other => EngineError::Failed(other.to_string()),
                })
        })
    }
}

/// A by-name collection of [`BoundEngine`]s — the synthesis-layer mirror
/// of `LpSolver`'s backend registry.
pub struct EngineRegistry {
    engines: Vec<Box<dyn BoundEngine>>,
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry").field("engines", &self.names()).finish()
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl EngineRegistry {
    /// An empty registry (no built-ins).
    pub fn new() -> Self {
        EngineRegistry { engines: Vec::new() }
    }

    /// A registry holding the six built-in engines, upper before lower:
    /// `hoeffding-linear`, `azuma`, `explinsyn`, `polyrsm-quadratic`,
    /// `explowsyn`, `polylow`.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register_engine(Box::new(HoeffdingLinear));
        r.register_engine(Box::new(AzumaLinear));
        r.register_engine(Box::new(ExpLinSyn));
        r.register_engine(Box::new(PolyRsmQuadratic));
        r.register_engine(Box::new(ExpLowSyn));
        r.register_engine(Box::new(PolyLowQuadratic));
        r
    }

    /// Registers an engine. Lookup scans newest-first, so registering a
    /// name again shadows the earlier engine (externals can override a
    /// built-in without removing it).
    pub fn register_engine(&mut self, engine: Box<dyn BoundEngine>) {
        self.engines.push(engine);
    }

    /// Looks an engine up by [`name`](BoundEngine::name).
    pub fn engine(&self, name: &str) -> Option<&dyn BoundEngine> {
        self.engines.iter().rev().find(|e| e.name() == name).map(Box::as_ref)
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// All registered engines, in registration order.
    pub fn engines(&self) -> impl Iterator<Item = &dyn BoundEngine> {
        self.engines.iter().map(Box::as_ref)
    }

    /// The registered engines certifying `direction`, in registration
    /// order (shadowed duplicates excluded). Dedup is by name with the
    /// newest registration winning — never by pointer identity, which
    /// is meaningless for the zero-sized built-in engine types.
    pub fn for_direction(&self, direction: Direction) -> Vec<&dyn BoundEngine> {
        self.engines
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                e.direction() == direction
                    && self.engines.iter().rposition(|o| o.name() == e.name()) == Some(*i)
            })
            .map(|(_, e)| e.as_ref())
            .collect()
    }

    /// The engines that would race for `req`: right direction and
    /// applicable to the program.
    pub fn applicable(&self, req: &AnalysisRequest<'_>) -> Vec<&dyn BoundEngine> {
        self.for_direction(req.direction).into_iter().filter(|e| e.applicable(req.pts)).collect()
    }

    /// Runs one engine by name inside a fresh session with the given
    /// backend policy. Returns `None` for unknown names.
    pub fn run_engine(
        &self,
        name: &str,
        req: &AnalysisRequest<'_>,
        backend: BackendChoice,
    ) -> Option<AnalysisReport> {
        let engine = self.engine(name)?;
        let mut solver = LpSolver::with_choice(backend);
        Some(engine.run(req, &mut solver))
    }
}

/// Outcome of one candidate race.
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    /// One report per raced engine, in input order — the winner's with
    /// its certified bound, the losers' typically
    /// [`EngineError::Cancelled`].
    pub reports: Vec<AnalysisReport>,
    /// Index into [`reports`](Self::reports) of the first engine to
    /// certify a bound; `None` when every racer failed.
    pub winner: Option<usize>,
    /// Engines that were filtered out before the start (wrong direction
    /// or inapplicable to the program).
    pub skipped: Vec<&'static str>,
    /// Merged LP statistics of every **non-winning** racer. Kept apart
    /// from the winner's [`AnalysisReport::lp`] so aggregate footers can
    /// report certified work and abandoned work separately instead of
    /// double-counting pivots spent by cancelled candidates.
    pub abandoned: LpStats,
}

impl RaceOutcome {
    /// The winning report, if any racer certified a bound.
    pub fn winning_report(&self) -> Option<&AnalysisReport> {
        self.winner.map(|i| &self.reports[i])
    }
}

/// Renders a panic payload the way the default panic hook would: the
/// `&str`/`String` message when there is one, a placeholder otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Races `engines` on `req`: every engine of the right direction that is
/// applicable to the program runs concurrently on the rayon pool, each
/// inside its own fresh [`LpSolver`] session (with the given backend
/// policy). The first engine to return a **certified** bound wins and
/// raises a shared cancellation flag; the others observe it at their
/// next LP-solve boundary and wind down with
/// [`qava_lp::LpError::Cancelled`] → [`EngineError::Cancelled`].
///
/// Every racer's result is computed entirely inside its private session,
/// so the winner's bound is identical to what that engine reports when
/// run alone — racing affects *which* engine answers, never *what* an
/// engine answers.
///
/// Each racer additionally runs behind a panic boundary: a candidate
/// that panics is recorded as [`EngineError::Panicked`] (an ordinary
/// loser with empty stats) and the remaining candidates keep racing.
pub fn race(
    engines: &[&dyn BoundEngine],
    req: &AnalysisRequest<'_>,
    backend: BackendChoice,
) -> RaceOutcome {
    race_with(engines, req, backend, Arc::new(AtomicBool::new(false)), &|_| {})
}

/// [`race`] with the two hooks a resident service needs.
///
/// * `cancel` is the race's shared cancellation flag, supplied by the
///   caller instead of freshly allocated: raising it externally (a
///   client disconnect, a server shutting down) winds down
///   *every* racer at its next LP-solve boundary, exactly as the winner
///   normally winds down the losers. A race whose flag was raised before
///   any engine certified ends with `winner == None` and all-Cancelled
///   reports. (The winner still raises this same flag on certifying, so
///   a caller-observed `true` does not by itself mean the race was
///   aborted — check `winner`.)
/// * `configure` runs on each racer's freshly created private session
///   before the engine starts — the seam for installing process-wide
///   state such as a [`qava_lp::SharedBasisCache`], a deadline, or a
///   non-default cache capacity. It must not install anything that could
///   change a certified *verdict* (shared warm-start bases are advisory
///   by construction, so they are safe).
pub fn race_with(
    engines: &[&dyn BoundEngine],
    req: &AnalysisRequest<'_>,
    backend: BackendChoice,
    cancel: Arc<AtomicBool>,
    configure: &(dyn Fn(&mut LpSolver) + Sync),
) -> RaceOutcome {
    let mut skipped = Vec::new();
    let racers: Vec<&dyn BoundEngine> = engines
        .iter()
        .copied()
        .filter(|e| {
            let runs = e.direction() == req.direction && e.applicable(req.pts);
            if !runs {
                skipped.push(e.name());
            }
            runs
        })
        .collect();

    let first_certified = Arc::new(AtomicUsize::new(usize::MAX));
    let tasks: Vec<(usize, &dyn BoundEngine)> = racers.into_iter().enumerate().collect();
    let reports: Vec<AnalysisReport> = tasks
        .par_iter()
        .map(|&(i, engine)| {
            let mut solver = LpSolver::with_choice(backend);
            solver.set_cancel_flag(cancel.clone());
            configure(&mut solver);
            let started = Instant::now();
            // Panic boundary: a racer that panics becomes an ordinary
            // loser (Err(Panicked), no stats) instead of poisoning the
            // pool and aborting the race — it never claims the winner
            // slot and never cancels the healthy candidates.
            let report = catch_unwind(AssertUnwindSafe(|| engine.run(req, &mut solver)))
                .unwrap_or_else(|payload| AnalysisReport {
                    engine: engine.name(),
                    direction: engine.direction(),
                    outcome: Err(EngineError::Panicked(panic_message(payload.as_ref()))),
                    lp: LpStats::default(),
                    wall_seconds: started.elapsed().as_secs_f64(),
                });
            if report.outcome.is_ok()
                && first_certified
                    .compare_exchange(usize::MAX, i, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                cancel.store(true, Ordering::SeqCst);
            }
            report
        })
        .collect();

    let w = first_certified.load(Ordering::SeqCst);
    let winner = (w != usize::MAX).then_some(w);
    let mut abandoned = LpStats::default();
    for (i, report) in reports.iter().enumerate() {
        if winner != Some(i) {
            abandoned.merge(&report.lp);
        }
    }
    RaceOutcome { reports, winner, skipped, abandoned }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn race_pts() -> Pts {
        let src = r"
            x := 40; y := 0;
            while x <= 99 and y <= 99 invariant x <= 100 and y <= 101 {
                if prob(0.5) { x, y := x + 1, y + 2; } else { x := x + 1; }
            }
            assert x >= 100;
        ";
        qava_lang::compile(src, &BTreeMap::new()).unwrap()
    }

    #[test]
    fn builtin_registry_lineup() {
        let reg = EngineRegistry::with_builtins();
        assert_eq!(
            reg.names(),
            vec![
                "hoeffding-linear",
                "azuma",
                "explinsyn",
                "polyrsm-quadratic",
                "explowsyn",
                "polylow"
            ]
        );
        let upper: Vec<_> =
            reg.for_direction(Direction::Upper).iter().map(|e| e.name()).collect();
        assert_eq!(upper, vec!["hoeffding-linear", "azuma", "explinsyn", "polyrsm-quadratic"]);
        let lower: Vec<_> =
            reg.for_direction(Direction::Lower).iter().map(|e| e.name()).collect();
        assert_eq!(lower, vec!["explowsyn", "polylow"]);
        assert!(reg.engine("explinsyn").is_some());
        assert!(reg.engine("interior-point").is_none());
    }

    #[test]
    fn registered_external_engine_shadows_builtin() {
        struct Stub;
        impl BoundEngine for Stub {
            fn name(&self) -> &'static str {
                "explinsyn"
            }
            fn direction(&self) -> Direction {
                Direction::Upper
            }
            fn run(&self, req: &AnalysisRequest<'_>, solver: &mut LpSolver) -> AnalysisReport {
                run_report(self.name(), self.direction(), req, solver, |_, _| {
                    Err(EngineError::Failed("stub".into()))
                })
            }
        }
        let mut reg = EngineRegistry::with_builtins();
        reg.register_engine(Box::new(Stub));
        let pts = race_pts();
        let report = reg
            .run_engine("explinsyn", &AnalysisRequest::upper(&pts), BackendChoice::default())
            .unwrap();
        assert!(
            matches!(&report.outcome, Err(EngineError::Failed(m)) if m == "stub"),
            "external engine must shadow the built-in: {:?}",
            report.outcome.as_ref().err()
        );
        // The shadowed built-in no longer appears in the direction lineup
        // (one entry per live name).
        let upper = reg.for_direction(Direction::Upper);
        assert_eq!(upper.iter().filter(|e| e.name() == "explinsyn").count(), 1);
        // Re-registering the *same zero-sized type* must dedup too —
        // ZST boxes share data pointers, so identity cannot be the test.
        let mut reg = EngineRegistry::with_builtins();
        reg.register_engine(Box::new(ExpLinSyn));
        let upper = reg.for_direction(Direction::Upper);
        assert_eq!(upper.iter().filter(|e| e.name() == "explinsyn").count(), 1);
    }

    #[test]
    fn engine_report_matches_direct_call() {
        let pts = race_pts();
        let reg = EngineRegistry::with_builtins();
        let report = reg
            .run_engine("hoeffding-linear", &AnalysisRequest::upper(&pts), BackendChoice::default())
            .unwrap();
        let direct = hoeffding::synthesize_reprsm_bound_in(
            &pts,
            BoundKind::Hoeffding,
            hoeffding::DEFAULT_SER_ITERATIONS,
            &mut LpSolver::new(),
        )
        .unwrap();
        assert_eq!(report.bound().unwrap().ln(), direct.bound.ln());
        assert!(report.lp.solves > 0, "the report must carry this run's LP stats");
        assert!(report.wall_seconds >= 0.0);
        match &report.outcome.as_ref().unwrap().certificate {
            Certificate::Template(t) => assert!(!t.per_location.is_empty()),
            other => panic!("RepRSM certificate must be a template, got {other:?}"),
        }
    }

    #[test]
    fn scoped_stats_preserves_session_totals() {
        let pts = race_pts();
        let mut solver = LpSolver::new();
        // Pre-existing work on the session.
        let _ = hoeffding::synthesize_reprsm_bound_in(&pts, BoundKind::Hoeffding, 2, &mut solver);
        let before_total = solver.stats().solves;
        assert!(before_total > 0);
        let (_, mine) = scoped_stats(&mut solver, |s| {
            hoeffding::synthesize_reprsm_bound_in(&pts, BoundKind::Azuma, 2, s)
        });
        assert!(mine.solves > 0);
        assert_eq!(
            solver.stats().solves,
            before_total + mine.solves,
            "session total = pre-existing + scoped share"
        );
    }

    #[test]
    fn race_returns_first_certified_and_banks_loser_stats() {
        let pts = race_pts();
        let reg = EngineRegistry::with_builtins();
        let req = AnalysisRequest::upper(&pts);
        let engines = reg.for_direction(Direction::Upper);
        let outcome = race(&engines, &req, BackendChoice::default());
        let winner = outcome.winning_report().expect("some upper engine certifies Race");
        let report_named: Vec<_> = outcome.reports.iter().map(|r| r.engine).collect();
        assert_eq!(
            report_named,
            vec!["hoeffding-linear", "azuma", "explinsyn", "polyrsm-quadratic"]
        );
        // The winner's bound equals that engine run alone.
        let alone = reg
            .run_engine(winner.engine, &req, BackendChoice::default())
            .unwrap()
            .bound()
            .unwrap();
        assert_eq!(winner.bound().unwrap().ln(), alone.ln());
        // Loser stats all land in the abandoned bucket, none in the
        // winner's.
        let loser_solves: usize = outcome
            .reports
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != outcome.winner)
            .map(|(_, r)| r.lp.solves)
            .sum();
        assert_eq!(outcome.abandoned.solves, loser_solves);
    }

    #[test]
    fn race_skips_wrong_direction_and_inapplicable() {
        let pts = race_pts();
        let reg = EngineRegistry::with_builtins();
        let req = AnalysisRequest::upper(&pts);
        let all: Vec<&dyn BoundEngine> = reg.engines().collect();
        let outcome = race(&all, &req, BackendChoice::default());
        assert!(outcome.skipped.contains(&"explowsyn"));
        assert!(outcome.skipped.contains(&"polylow"));
        assert_eq!(outcome.reports.len(), 4);
    }

    #[test]
    fn race_with_no_applicable_engine_reports_no_winner() {
        let pts = qava_lang::compile("x := 0; assert false;", &BTreeMap::new()).unwrap();
        let reg = EngineRegistry::with_builtins();
        let req = AnalysisRequest::upper(&pts);
        let engines = reg.for_direction(Direction::Upper);
        let outcome = race(&engines, &req, BackendChoice::default());
        assert!(outcome.winner.is_none());
        assert_eq!(outcome.reports.len(), 0, "absorbing initial: everything screened out");
        assert_eq!(outcome.skipped.len(), 4);
    }

    #[test]
    fn race_with_externally_raised_flag_cancels_every_racer() {
        let pts = race_pts();
        let reg = EngineRegistry::with_builtins();
        let req = AnalysisRequest::upper(&pts);
        let engines = reg.for_direction(Direction::Upper);
        // The daemon's client-disconnect path in miniature: the flag is
        // up before the race starts (a disconnect observed between
        // admission and launch), so no engine may certify.
        let cancel = Arc::new(AtomicBool::new(true));
        let outcome = race_with(&engines, &req, BackendChoice::default(), cancel, &|_| {});
        assert!(outcome.winner.is_none(), "a cancelled race has no winner");
        for report in &outcome.reports {
            assert!(
                matches!(report.outcome, Err(EngineError::Cancelled)),
                "{}: {:?}",
                report.engine,
                report.outcome.as_ref().err()
            );
        }
    }

    #[test]
    fn race_with_configure_shares_warmth_across_races() {
        let pts = race_pts();
        let reg = EngineRegistry::with_builtins();
        let req = AnalysisRequest::upper(&pts);
        let engines = reg.for_direction(Direction::Upper);
        let shared = Arc::new(qava_lp::SharedBasisCache::default());
        let run = |shared: &Arc<qava_lp::SharedBasisCache>| {
            let shared = shared.clone();
            race_with(
                &engines,
                &req,
                BackendChoice::default(),
                Arc::new(AtomicBool::new(false)),
                &move |solver| solver.set_shared_cache(shared.clone()),
            )
        };
        let first = run(&shared);
        let second = run(&shared);
        // Shared warmth may change which LPs run warm, never a verdict:
        // each race's winner (whichever engine thread timing favoured)
        // matches that engine run alone, up to warm-start rounding.
        for outcome in [&first, &second] {
            let winner = outcome.winning_report().expect("some upper engine certifies Race");
            let solo = reg
                .run_engine(winner.engine, &req, BackendChoice::default())
                .unwrap()
                .bound()
                .unwrap()
                .ln();
            let raced = winner.bound().unwrap().ln();
            assert!(
                (raced - solo).abs() <= 1e-9 * solo.abs().max(1.0),
                "{}: shared cache changed the bound (raced ln {raced}, solo ln {solo})",
                winner.engine
            );
        }
        let persistent: usize = second
            .reports
            .iter()
            .map(|r| r.lp.persistent_warm_hits)
            .chain(std::iter::once(second.abandoned.persistent_warm_hits))
            .sum();
        assert!(persistent > 0, "second race must inherit first-race bases");
    }

    /// Pins the accounting contract a resident daemon relies on: with one
    /// private session per concurrent request, the per-request
    /// [`scoped_stats`] slices **partition** the process totals — every
    /// solve, pivot and wall-clock second lands in exactly one slice, and
    /// merging the slices reproduces merging the session totals. Without
    /// this, concurrent requests could double-count (or lose) work in the
    /// daemon's `stats` response.
    #[test]
    fn scoped_stats_slices_partition_process_totals_under_concurrency() {
        use qava_lp::{Cmp, LinExpr, LpBuilder};
        let slices = std::sync::Mutex::new(Vec::new());
        let sessions = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..8usize {
                let slices = &slices;
                let sessions = &sessions;
                s.spawn(move || {
                    let mut solver = LpSolver::default();
                    for i in 0..6usize {
                        let (_, slice) = scoped_stats(&mut solver, |solver| {
                            let mut lp = LpBuilder::new();
                            let x = lp.add_var_nonneg("x");
                            let y = lp.add_var_nonneg("y");
                            lp.constrain(
                                LinExpr::new().term(x, 1.0).term(y, 1.0),
                                Cmp::Le,
                                1.0 + (t * 6 + i) as f64,
                            );
                            lp.maximize(LinExpr::new().term(x, 2.0).term(y, 1.0));
                            solver.solve(&lp).unwrap()
                        });
                        assert!(slice.solves >= 1, "a slice sees its own work");
                        assert!(slice.wall_seconds >= 0.0);
                        slices.lock().unwrap().push(slice);
                    }
                    sessions.lock().unwrap().push(solver.take_stats());
                });
            }
        });
        let fold = |parts: &[LpStats]| {
            let mut total = LpStats::default();
            for p in parts {
                total.merge(p);
            }
            total
        };
        let from_slices = fold(&slices.lock().unwrap());
        let from_sessions = fold(&sessions.lock().unwrap());
        // Counters must match *exactly*; wall time is f64 so the two
        // merge orders may round differently in the last bits.
        let strip = |mut s: LpStats| {
            s.wall_seconds = 0.0;
            s.backends.sort_by_key(|t| t.name);
            for t in &mut s.backends {
                t.wall_seconds = 0.0;
            }
            s
        };
        assert_eq!(
            strip(from_slices.clone()),
            strip(from_sessions.clone()),
            "slices must partition session totals"
        );
        assert!(
            (from_slices.wall_seconds - from_sessions.wall_seconds).abs() < 1e-6,
            "every wall-clock second lands in exactly one slice: {} vs {}",
            from_slices.wall_seconds,
            from_sessions.wall_seconds
        );
        assert_eq!(from_slices.solves, 48, "6 solves per each of 8 threads");
    }
}
