//! The traced run's instrumentation, all of it outside the program:
//! spans recorded around the public calls into each layer, a
//! pass-through [`LpBackend`] that times every core solve, and a
//! pass-through [`BoundEngine`] that times every engine run and installs
//! that backend into the engine's session.
//!
//! Spans stay in memory until [`write_tsv`] at the end of the run.

use qava_core::engine::{
    AnalysisReport, AnalysisRequest, BoundEngine, Direction, EngineRegistry, ExpLinSyn, ExpLowSyn,
    HoeffdingLinear,
};
use qava_lp::{
    CoreSolution, CscMatrix, DenseTableau, LpBackend, LpError, LpSolver, LuFtSimplex, SparseRevised,
};
use qava_pts::Pts;
use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`lang.parse`, `synth`, `lp.backend`, …).
    pub layer: &'static str,
    /// Detail within the layer: engine or backend name, or empty.
    pub tag: &'static str,
    /// Nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recording index of the enclosing span on this thread.
    pub parent: Option<usize>,
    /// Row or request id the span belongs to.
    pub id: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread (indices into `SPANS`) and the current id.
    static STACK: RefCell<(Vec<usize>, usize)> = const { RefCell::new((Vec::new(), 0)) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
}

/// Sets the row/request id stamped on spans opened by this thread.
pub fn set_id(id: usize) {
    STACK.with(|s| s.borrow_mut().1 = id);
}

/// Runs `f` inside a span.
pub fn span<T>(layer: &'static str, tag: &'static str, f: impl FnOnce() -> T) -> T {
    let (parent, id) = STACK.with(|s| {
        let s = s.borrow();
        (s.0.last().copied(), s.1)
    });
    let idx = {
        let mut all = spans();
        let start_ns = now_ns();
        all.push(Span {
            layer,
            tag,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().0.push(idx));
    let out = f();
    STACK.with(|s| s.borrow_mut().0.pop());
    spans()[idx].end_ns = now_ns();
    out
}

/// Index of the next span to be recorded: spans of a pass are
/// `since(mark)` with the mark taken before it.
pub fn mark() -> usize {
    spans().len()
}

/// Copies of the spans recorded since `mark`.
pub fn since(mark: usize) -> Vec<Span> {
    spans()[mark..].to_vec()
}

/// Writes every recorded span as tab-separated lines.
pub fn write_tsv(path: &std::path::Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::from("layer\ttag\tid\tstart_ns\tend_ns\tparent\n");
    for s in spans().iter() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{parent}",
            s.layer, s.tag, s.id, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Name the pass-through backend registers under.
pub const TRACED_BACKEND: &str = "traced";

/// Pass-through [`LpBackend`]: forwards every trait method to the
/// built-in backend that `BackendChoice::Auto` would route the system to,
/// timing each core solve and dual reoptimization as an `lp.backend` span
/// tagged with that backend's name.
///
/// `LpSolver::register_backend` appends and pins one backend; Auto's
/// routing indexes the built-in slots, so a wrapper registered under a
/// built-in name would never be reached. This wrapper therefore
/// re-applies Auto's size/density rule to the system it is handed (the
/// same presolved, equilibrated matrix the session routes on). The
/// traced run checks that bounds, solves and pivots match the untraced
/// run, which catches any drift between this rule and the session's.
pub struct TracedLp;

impl TracedLp {
    fn route(a: &CscMatrix) -> &'static dyn LpBackend {
        let (m, n) = (a.rows(), a.cols());
        if m <= 16 && n <= 96 {
            &DenseTableau
        } else if m >= 64 && a.nnz() as f64 / (m * n) as f64 <= 0.25 {
            &LuFtSimplex
        } else {
            &SparseRevised
        }
    }
}

impl LpBackend for TracedLp {
    fn name(&self) -> &'static str {
        TRACED_BACKEND
    }

    fn supports_warm_start(&self) -> bool {
        true
    }

    fn solve_core(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        warm: Option<&[usize]>,
    ) -> Result<CoreSolution, LpError> {
        let inner = Self::route(a);
        span("lp.backend", inner.name(), || {
            inner.solve_core(costs, a, b, warm)
        })
    }

    fn supports_reoptimize(&self) -> bool {
        true
    }

    fn reoptimize_core(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        basis: &[usize],
    ) -> Option<CoreSolution> {
        let inner = Self::route(a);
        if !inner.supports_reoptimize() {
            return None;
        }
        span("lp.backend", inner.name(), || {
            inner.reoptimize_core(costs, a, b, basis)
        })
    }
}

/// Routes `solver`'s solves through [`TracedLp`] (registering it on the
/// session's first traced use).
pub fn install(solver: &mut LpSolver) {
    if !solver.select_backend(TRACED_BACKEND) {
        solver.register_backend(Box::new(TracedLp));
    }
}

/// Pass-through [`BoundEngine`]: an `synth` span around the wrapped
/// engine's run, with [`TracedLp`] installed in its session. Registered
/// over the built-in of the same name, it traces runners that take a
/// registry (`sweep::run_sweep_in`) without changing what they run.
pub struct TracedEngine(pub Box<dyn BoundEngine>);

impl BoundEngine for TracedEngine {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn direction(&self) -> Direction {
        self.0.direction()
    }

    fn applicable(&self, pts: &Pts) -> bool {
        self.0.applicable(pts)
    }

    fn run(&self, req: &AnalysisRequest<'_>, solver: &mut LpSolver) -> AnalysisReport {
        install(solver);
        span("synth", self.0.name(), || self.0.run(req, solver))
    }
}

/// The built-in registry with the paper tables' engines traced.
pub fn traced_registry() -> EngineRegistry {
    let mut registry = EngineRegistry::with_builtins();
    registry.register_engine(Box::new(TracedEngine(Box::new(HoeffdingLinear))));
    registry.register_engine(Box::new(TracedEngine(Box::new(ExpLinSyn))));
    registry.register_engine(Box::new(TracedEngine(Box::new(ExpLowSyn))));
    registry
}
