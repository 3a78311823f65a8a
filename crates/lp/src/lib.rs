#![warn(missing_docs)]

//! A self-contained linear-programming solver with runtime-pluggable
//! backends.
//!
//! Everything in `qava` that goes through Farkas' lemma — repulsing-ranking-
//! supermartingale synthesis (§5.1 of the paper), Handelman certificates,
//! the Jensen-strengthened lower-bound LP (§6), polyhedron emptiness and
//! implication checks — ends in a linear program. This crate provides:
//!
//! * [`LpBuilder`] — incremental model construction with named variables and
//!   sparse [`LinExpr`] linear expressions;
//! * the [`LpBackend`] **trait** — the runtime-dispatchable core-solver
//!   interface — with **three** built-in implementations, exactly the
//!   ones [`BackendChoice::Auto`] routes to:
//!   * [`DenseTableau`] (`dense`) — the two-phase tableau; minimal fixed
//!     cost for µs-scale models, and the differential-testing oracle
//!     (also exported standalone as [`solve_standard_dense`]);
//!   * [`SparseRevised`] (`sparse`) — revised simplex over CSC columns
//!     with an explicit dense basis inverse: O(m²) rank-one updates,
//!     unbeatable constants on small/dense bases;
//!   * [`LuFtSimplex`] (`lu-ft`) — the same pivoting loop over a
//!     Markowitz-ordered **sparse LU factorization with Forrest–Tomlin
//!     spike swaps**: basis exchanges edit the U factor in place (column
//!     replacement + row-permutation rotation + one sparse spike-row
//!     eta), so solves stay O(nnz(L) + nnz(U)) between
//!     refactorizations; refactorization is driven by U fill-in growth,
//!     spike-pivot magnitude and a determinant-identity accuracy check.
//!
//!   The two revised engines share one pivoting loop and differ only in
//!   the basis representation, so they can be differentially raced
//!   against each other (and the dense oracle) — the conformance corpus
//!   in `tests/corpus/` and the metamorphic suite in `tests/prop.rs` do
//!   exactly that;
//! * the [`LpSolver`] **session** — one per synthesis run — owning the
//!   shared pipeline (presolve: empty/duplicate-row removal and
//!   fixed-variable elimination; max-norm equilibration), the backend
//!   selection policy ([`BackendChoice`]: `auto` routes by size **and**
//!   density — µs-scale models to the dense tableau, large sparse
//!   systems to the Forrest–Tomlin LU simplex, mid-size/dense ones to
//!   the dense-inverse revised simplex), a bounded-LRU warm-start basis
//!   cache keyed by LP sparsity pattern, and per-solve statistics
//!   ([`LpStats`]: pivots, presolve reductions, warm-start hits,
//!   feasibility-watchdog restarts, anti-cycling retries, wall time).
//!   For **right-hand-side families** — solves that differ only in the
//!   right-hand sides of some rows, like the Ser search's ε probes —
//!   [`LpSolver::prepare`] lowers, presolves and equilibrates a model
//!   once, and [`LpSolver::solve_prepared`] solves each member from it,
//!   bit for bit as [`LpSolver::solve`] would: [`LpBuilder::constrain`]
//!   returns the [`RowId`] a member patches, presolve's right-hand-side
//!   arithmetic is replayed from a tape through the same functions
//!   presolve runs (a member for which any such decision, or the
//!   lowering's sign rule, would come out differently runs the full
//!   pipeline instead), and the backend may reuse the fresh
//!   factorization of an unchanged warm basis instead of refactorizing
//!   it, and the storage of its earlier runs' basis engines
//!   ([`LpBackend::solve_core_prepared`], [`FactorMemo`]).
//!   Sessions also carry optional **cooperative cancellation flags**
//!   ([`LpSolver::add_cancel_flag`]), polled once per solve boundary:
//!   once one is raised, further solves return [`LpError::Cancelled`] without
//!   work — the engine-racing layer in `qava-core` winds down losing
//!   candidates through it, never interrupting a solve in flight;
//! * exact infeasibility / unboundedness reporting via [`LpError`].
//!
//! The synthesis LPs routinely reach hundreds of rows and thousands of
//! columns at a few percent density; the revised method prices columns in
//! O(nnz), and on a basis that sparse the LU representation keeps the
//! whole per-pivot hot path at O(nnz) too.
//!
//! # Failure semantics
//!
//! The session's contract under degradation is: **a verdict is only ever
//! produced by a backend run that actually succeeded** — never
//! reconstructed from a failed run's partial state.
//!
//! * **In-backend recovery** comes first: the feasibility watchdog
//!   refactorizes mid-run and falls back from a warm to a cold start,
//!   and a cold run that loses feasibility under Dantzig pricing is
//!   retried under Bland's rule. [`LpStats`] counts these
//!   (`watchdog_restarts`, split into `watchdog_singular` /
//!   `watchdog_infeasible` by cause, and `bland_retries`).
//! * **The failover ladder** comes second: if a built-in backend still
//!   returns [`LpError::PivotLimit`], the session invalidates the
//!   warm-start cache entry that seeded the failed run and steps down
//!   `lu-ft → sparse → dense`, re-running the full pipeline
//!   (presolve + equilibration) on each rung. Each step increments
//!   `LpStats::failovers`; a rung that succeeds increments
//!   `LpStats::failover_recoveries` and its verdict is the session's.
//!   `Infeasible`/`Unbounded` are *verdicts*, not faults — they return
//!   immediately without failover. [`LpSolver::set_failover`] disables
//!   the ladder for callers that want raw backend behavior.
//! * **Deadlines and cancellation** share one boundary: a raised cancel
//!   flag ([`LpSolver::add_cancel_flag`]) or an expired deadline
//!   ([`LpSolver::set_deadline`]) makes the next solve return
//!   [`LpError::Cancelled`] before any work; solves in flight are never
//!   interrupted.
//! * **Fault injection** ([`faults`], env-gated via `QAVA_LP_FAULTS`)
//!   exercises all of the above deterministically: every injected
//!   transient fault must be absorbed by recovery or the ladder without
//!   moving any certified objective beyond the conformance tolerance —
//!   the chaos suite (`qava --suite --chaos SEED`) asserts exactly that.
//!
//! # Examples
//!
//! Every solve runs inside an explicit session; the synthesis layers
//! share one per run, so structurally identical solves warm-start each
//! other:
//!
//! ```
//! use qava_lp::{Cmp, LinExpr, LpBuilder, LpSolver};
//!
//! let mut solver = LpSolver::new();
//! let mut lp = LpBuilder::new();
//! let x = lp.add_var("x");
//! let y = lp.add_var("y");
//! lp.constrain(LinExpr::new().term(x, 1.0).term(y, 2.0), Cmp::Le, 14.0);
//! lp.constrain(LinExpr::new().term(x, 3.0).term(y, -1.0), Cmp::Ge, 0.0);
//! lp.constrain(LinExpr::new().term(x, 1.0).term(y, -1.0), Cmp::Le, 2.0);
//! lp.maximize(LinExpr::new().term(x, 3.0).term(y, 4.0));
//! let sol = solver.solve(&lp)?;
//! assert!((sol.objective - 34.0).abs() < 1e-7);
//! assert_eq!(solver.stats().solves, 1);
//! # Ok::<(), qava_lp::LpError>(())
//! ```
//!
//! # Registering and selecting backends
//!
//! Sessions are born with the three built-ins, selected by policy or by
//! name; external backends implement [`LpBackend`] against the
//! presolved/equilibrated core form and plug in without touching any
//! synthesis code:
//!
//! ```
//! use qava_lp::{BackendChoice, CoreSolution, CscMatrix, LpBackend, LpError, LpSolver};
//!
//! struct MyBackend;
//! impl LpBackend for MyBackend {
//!     fn name(&self) -> &'static str { "mine" }
//!     fn solve_core(
//!         &self,
//!         _costs: &[f64],
//!         _a: &CscMatrix,
//!         _b: &[f64],
//!         _warm: Option<&[usize]>,
//!     ) -> Result<CoreSolution, LpError> {
//!         Err(LpError::PivotLimit) // a real backend solves here
//!     }
//! }
//!
//! let mut solver = LpSolver::with_choice(BackendChoice::Sparse);
//! solver.register_backend(Box::new(MyBackend)); // registered AND selected
//! assert_eq!(solver.backend_names(), vec!["sparse", "dense", "lu-ft", "mine"]);
//! assert!(solver.select_backend("lu-ft")); // …and back to a built-in
//! ```

mod cache;
mod csc;
mod expr;
pub mod faults;
mod ft;
mod lu;
mod presolve;
mod revised;
mod simplex;
mod solver;

pub use cache::{SharedBasisCache, DEFAULT_SHARED_CACHE_CAPACITY};
pub use csc::CscMatrix;
pub use expr::{LinExpr, VarId};
pub use faults::{FaultKind, FaultPlan};
pub use revised::FactorMemo;
pub use simplex::{solve_standard_dense, MAX_PIVOTS};
pub use solver::{
    BackendChoice, BackendTally, CoreSolution, DenseTableau, LpBackend, LpSolver, LpStats,
    LuFtSimplex, PreparedLp, SparseRevised,
};

/// Names the arithmetic behind every `qava_linalg::vecops` kernel. It is
/// the same on every CPU, so the label is fixed.
pub fn kernel_provenance() -> &'static str {
    "portable-fma"
}

/// Test-facing introspection into the revised-simplex core. Not part of
/// the stable API: the metamorphic suite (`tests/prop.rs`) uses it to
/// assert that the Forrest–Tomlin and dense-inverse engines visit
/// identical pivot sequences, which localizes any divergence to the
/// basis representation rather than the shared pricing loop.
#[doc(hidden)]
pub mod debug {
    use crate::csc::CscMatrix;
    use crate::revised;
    use crate::{LpError, PreparedLp};

    /// `(replays, fallbacks)` of a [`PreparedLp`]: the members
    /// [`LpSolver::solve_prepared`](crate::LpSolver::solve_prepared)
    /// solved by replaying the prepared presolve, and the members that
    /// ran the full pipeline instead.
    pub fn prepared_counts(prep: &PreparedLp) -> (usize, usize) {
        prep.replay_counts()
    }

    /// Which basis engine a [`trace_pivots`] run drives.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TraceEngine {
        /// Explicit dense inverse (the `sparse` backend's engine).
        DenseInverse,
        /// LU factors + Forrest–Tomlin spike swaps (`lu-ft`).
        LuFt,
    }

    /// Runs the cold two-phase revised simplex on an (already standard
    /// form, `b ≥ 0`) system with the given engine, recording every
    /// pivot as `(entering column, leaving slot)`.
    ///
    /// Returns the recorded pivot sequence alongside the outcome:
    /// `Ok(Some(x))` on an optimum, `Ok(None)` when the feasibility
    /// watchdog abandoned the run (no retry is attempted here — the
    /// trace must reflect a single deterministic run).
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::PivotLimit`], with the partial trace attached.
    #[allow(clippy::type_complexity)]
    pub fn trace_pivots(
        engine: TraceEngine,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        force_bland: bool,
    ) -> (Result<Option<Vec<f64>>, LpError>, Vec<(usize, usize)>) {
        match engine {
            TraceEngine::DenseInverse => {
                revised::trace_cold_pivots::<revised::DenseInverse>(costs, a, b, force_bland)
            }
            TraceEngine::LuFt => {
                revised::trace_cold_pivots::<crate::ft::FtBasis>(costs, a, b, force_bland)
            }
        }
    }

    /// Bench hook: factorizes once, applies a fixed greedy chain of
    /// `updates` basis exchanges on `a` (no refactorization ever), then
    /// runs `solves` rounds of one sparse ftran + one dense btran —
    /// measuring exactly the "ftran/btran work at equal refactorization
    /// counts" the basis-update schemes compete on. The chain is
    /// deterministic, so every engine replays the identical exchanges.
    pub fn update_solve_cycle(
        engine: TraceEngine,
        a: &CscMatrix,
        updates: usize,
        solves: usize,
    ) -> f64 {
        match engine {
            TraceEngine::DenseInverse => {
                crate::revised::update_solve_cycle::<crate::revised::DenseInverse>(
                    a, updates, solves,
                )
            }
            TraceEngine::LuFt => {
                crate::revised::update_solve_cycle::<crate::ft::FtBasis>(a, updates, solves)
            }
        }
    }
}

use presolve::StdRows;
use qava_linalg::EPS;

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Minimize,
    Maximize,
}

/// A stored constraint row: `coeffs · x (cmp) rhs`.
#[derive(Debug, Clone)]
struct Row {
    coeffs: Vec<(usize, f64)>,
    cmp: Cmp,
    /// The right-hand side with the expression's constant folded in
    /// ([`fold_rhs`]).
    rhs: f64,
    /// The expression's constant, kept so a new right-hand side can be
    /// folded the same way ([`LpSolver::solve_prepared`]).
    constant: f64,
}

/// Identifier of a constraint row of an [`LpBuilder`] model, returned by
/// [`LpBuilder::constrain`]; names the row whose right-hand side a
/// [`LpSolver::solve_prepared`] call changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(usize);

/// Moves an expression's constant onto the right-hand side:
/// `expr + constant (cmp) rhs` is stored as `expr (cmp) rhs − constant`.
fn fold_rhs(rhs: f64, constant: f64) -> f64 {
    rhs - constant
}

/// The standard-form lowering's sign rule: a row is negated exactly when
/// its right-hand side is negative. Returns the sign applied to the row
/// and the resulting non-negative right-hand side.
fn lower_rhs(rhs: f64) -> (f64, f64) {
    if rhs < 0.0 {
        (-1.0, -rhs)
    } else {
        (1.0, rhs)
    }
}

/// Errors returned by [`LpSolver::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The pivot limit was exceeded (numerically pathological input).
    PivotLimit,
    /// One of the session's cooperative cancellation flags was raised
    /// ([`LpSolver::add_cancel_flag`]) before this solve started. The
    /// bound-engine racer uses this to wind down losing candidates at
    /// LP-solve boundaries; the solve performed no work.
    Cancelled,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::PivotLimit => write!(f, "simplex pivot limit exceeded"),
            LpError::Cancelled => write!(f, "solve cancelled (session cancellation flag raised)"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution of a linear program.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal value of the objective, in the direction that was requested.
    pub objective: f64,
    values: Vec<f64>,
}

impl LpSolution {
    /// Value of variable `v` at the optimum.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// All variable values in declaration order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Evaluates a linear expression at the optimum.
    pub fn eval(&self, e: &LinExpr) -> f64 {
        e.eval(&self.values)
    }
}

/// Incremental linear-program builder; see the crate-level example.
#[derive(Debug, Clone)]
pub struct LpBuilder {
    names: Vec<String>,
    nonneg: Vec<bool>,
    rows: Vec<Row>,
    objective: Vec<(usize, f64)>,
    direction: Direction,
}

impl Default for LpBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl LpBuilder {
    /// Creates an empty model (minimization of 0 by default).
    pub fn new() -> Self {
        LpBuilder {
            names: Vec::new(),
            nonneg: Vec::new(),
            rows: Vec::new(),
            objective: Vec::new(),
            direction: Direction::Minimize,
        }
    }

    /// Adds a **free** (unbounded-sign) variable and returns its id.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.names.push(name.into());
        self.nonneg.push(false);
        VarId::from_index(self.names.len() - 1)
    }

    /// Adds a variable constrained to be non-negative.
    ///
    /// Declaring non-negativity here instead of via [`constrain`](Self::constrain)
    /// avoids an extra row in the simplex tableau.
    pub fn add_var_nonneg(&mut self, name: impl Into<String>) -> VarId {
        self.names.push(name.into());
        self.nonneg.push(true);
        VarId::from_index(self.names.len() - 1)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Name of a variable (used in `Debug` dumps of synthesized templates).
    pub fn var_name(&self, v: VarId) -> &str {
        &self.names[v.index()]
    }

    /// Adds the constraint `expr (cmp) rhs`. Any constant inside `expr` is
    /// folded onto the right-hand side.
    pub fn constrain(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) -> RowId {
        let (coeffs, constant) = expr.into_parts();
        self.rows.push(Row { coeffs, cmp, rhs: fold_rhs(rhs, constant), constant });
        RowId(self.rows.len() - 1)
    }

    /// Replaces a row's right-hand side, as if it had been built with
    /// `rhs`, and returns what the lowering makes of it ([`lower_rhs`]).
    fn set_rhs(&mut self, row: RowId, rhs: f64) -> (f64, f64) {
        let r = &mut self.rows[row.0];
        r.rhs = fold_rhs(rhs, r.constant);
        lower_rhs(r.rhs)
    }

    /// Sets the objective to *minimize* `expr`. Constant terms are ignored
    /// for the pivoting itself; callers that care reconstruct exact values
    /// via [`LpSolution::eval`].
    pub fn minimize(&mut self, expr: LinExpr) {
        let (coeffs, _) = expr.into_parts();
        self.objective = coeffs;
        self.direction = Direction::Minimize;
    }

    /// Sets the objective to *maximize* `expr`.
    pub fn maximize(&mut self, expr: LinExpr) {
        let (coeffs, _) = expr.into_parts();
        self.objective = coeffs;
        self.direction = Direction::Maximize;
    }

    /// Lowers the model to sparse standard form
    /// `min cᵀy, A·y = b, y ≥ 0, b ≥ 0` without materializing a dense
    /// matrix: non-negative variables keep one column, free variables get
    /// a plus and a minus column, and each inequality gets a slack.
    fn lower(&self) -> (StdRows, ColMap) {
        let n = self.names.len();
        let mut col_of_plus = vec![0usize; n];
        let mut col_of_minus = vec![usize::MAX; n];
        let mut ncols = 0usize;
        for j in 0..n {
            col_of_plus[j] = ncols;
            ncols += 1;
            if !self.nonneg[j] {
                col_of_minus[j] = ncols;
                ncols += 1;
            }
        }
        let nslack = self.rows.iter().filter(|r| r.cmp != Cmp::Eq).count();
        let total = ncols + nslack;

        let m = self.rows.len();
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut b = vec![0.0; m];
        let mut slack_idx = ncols;
        let mut accum: Vec<f64> = vec![0.0; total];
        for (i, row) in self.rows.iter().enumerate() {
            // Normalize so the right-hand side is non-negative.
            let (sign, rhs) = lower_rhs(row.rhs);
            // Coalesce duplicate variables through a dense scratch vector
            // (columns touched per row are few; only touched slots are
            // visited and reset).
            let mut touched: Vec<usize> = Vec::with_capacity(row.coeffs.len() * 2);
            for &(j, c) in &row.coeffs {
                let c = c * sign;
                if accum[col_of_plus[j]] == 0.0 {
                    touched.push(col_of_plus[j]);
                }
                accum[col_of_plus[j]] += c;
                if col_of_minus[j] != usize::MAX {
                    if accum[col_of_minus[j]] == 0.0 {
                        touched.push(col_of_minus[j]);
                    }
                    accum[col_of_minus[j]] -= c;
                }
            }
            let mut sparse: Vec<(usize, f64)> = Vec::with_capacity(touched.len() + 1);
            touched.sort_unstable();
            touched.dedup();
            for &slot in &touched {
                if accum[slot] != 0.0 {
                    sparse.push((slot, accum[slot]));
                }
                accum[slot] = 0.0;
            }
            b[i] = rhs;
            let effective = match (row.cmp, sign < 0.0) {
                (Cmp::Eq, _) => Cmp::Eq,
                (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
                (Cmp::Ge, false) | (Cmp::Le, true) => Cmp::Ge,
            };
            match effective {
                Cmp::Le => {
                    sparse.push((slack_idx, 1.0));
                    slack_idx += 1;
                }
                Cmp::Ge => {
                    sparse.push((slack_idx, -1.0));
                    slack_idx += 1;
                }
                Cmp::Eq => {}
            }
            rows.push(sparse);
        }

        let mut costs = vec![0.0; total];
        let obj_sign = match self.direction {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        };
        for &(j, c) in &self.objective {
            costs[col_of_plus[j]] += obj_sign * c;
            if col_of_minus[j] != usize::MAX {
                costs[col_of_minus[j]] -= obj_sign * c;
            }
        }

        (
            StdRows { costs, rows, b, ncols: total },
            ColMap { col_of_plus, col_of_minus, num_orig: n },
        )
    }
}

/// Column split bookkeeping of the standard-form lowering.
struct ColMap {
    col_of_plus: Vec<usize>,
    col_of_minus: Vec<usize>,
    num_orig: usize,
}

impl ColMap {
    /// Maps a standard-form solution vector back to original variables.
    fn recover(&self, x: &[f64]) -> Vec<f64> {
        (0..self.num_orig)
            .map(|j| {
                let plus = x[self.col_of_plus[j]];
                let minus = if self.col_of_minus[j] == usize::MAX {
                    0.0
                } else {
                    x[self.col_of_minus[j]]
                };
                let v = plus - minus;
                if v.abs() <= EPS {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(lp: &mut LpBuilder, terms: &[(VarId, f64)], rhs: f64) {
        let mut e = LinExpr::new();
        for &(v, c) in terms {
            e = e.term(v, c);
        }
        lp.constrain(e, Cmp::Le, rhs);
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0 -> 36.
        let mut lp = LpBuilder::new();
        let x = lp.add_var_nonneg("x");
        let y = lp.add_var_nonneg("y");
        le(&mut lp, &[(x, 1.0)], 4.0);
        le(&mut lp, &[(y, 2.0)], 12.0);
        le(&mut lp, &[(x, 3.0), (y, 2.0)], 18.0);
        lp.maximize(LinExpr::new().term(x, 3.0).term(y, 5.0));
        let sol = LpSolver::new().solve(&lp).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-7);
        assert!((sol.value(x) - 2.0).abs() < 1e-7);
        assert!((sol.value(y) - 6.0).abs() < 1e-7);
    }

    #[test]
    fn minimization_with_ge_rows() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 -> x=7, y=3, obj 23.
        let mut lp = LpBuilder::new();
        let x = lp.add_var_nonneg("x");
        let y = lp.add_var_nonneg("y");
        lp.constrain(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Ge, 10.0);
        lp.constrain(LinExpr::new().term(x, 1.0), Cmp::Ge, 2.0);
        lp.constrain(LinExpr::new().term(y, 1.0), Cmp::Ge, 3.0);
        lp.minimize(LinExpr::new().term(x, 2.0).term(y, 3.0));
        let sol = LpSolver::new().solve(&lp).unwrap();
        assert!((sol.objective - 23.0).abs() < 1e-7, "got {}", sol.objective);
    }

    #[test]
    fn free_variables_go_negative() {
        // min x s.t. x >= -5 -> -5 with x free.
        let mut lp = LpBuilder::new();
        let x = lp.add_var("x");
        lp.constrain(LinExpr::new().term(x, 1.0), Cmp::Ge, -5.0);
        lp.minimize(LinExpr::new().term(x, 1.0));
        let sol = LpSolver::new().solve(&lp).unwrap();
        assert!((sol.value(x) + 5.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x=2, y=1.
        let mut lp = LpBuilder::new();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.constrain(LinExpr::new().term(x, 1.0).term(y, 2.0), Cmp::Eq, 4.0);
        lp.constrain(LinExpr::new().term(x, 1.0).term(y, -1.0), Cmp::Eq, 1.0);
        lp.minimize(LinExpr::new().term(x, 1.0).term(y, 1.0));
        let sol = LpSolver::new().solve(&lp).unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-7);
        assert!((sol.value(y) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpBuilder::new();
        let x = lp.add_var_nonneg("x");
        lp.constrain(LinExpr::new().term(x, 1.0), Cmp::Le, 1.0);
        lp.constrain(LinExpr::new().term(x, 1.0), Cmp::Ge, 2.0);
        lp.minimize(LinExpr::new().term(x, 1.0));
        assert_eq!(LpSolver::new().solve(&lp).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpBuilder::new();
        let x = lp.add_var_nonneg("x");
        lp.maximize(LinExpr::new().term(x, 1.0));
        assert_eq!(LpSolver::new().solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Several constraints meet at the optimal vertex.
        let mut lp = LpBuilder::new();
        let x = lp.add_var_nonneg("x");
        let y = lp.add_var_nonneg("y");
        le(&mut lp, &[(x, 1.0), (y, 1.0)], 1.0);
        le(&mut lp, &[(x, 1.0)], 1.0);
        le(&mut lp, &[(y, 1.0)], 1.0);
        le(&mut lp, &[(x, 2.0), (y, 2.0)], 2.0);
        lp.maximize(LinExpr::new().term(x, 1.0).term(y, 1.0));
        let sol = LpSolver::new().solve(&lp).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-7);
    }

    #[test]
    fn constants_fold_into_rhs() {
        // x + 3 <= 5  ==  x <= 2.
        let mut lp = LpBuilder::new();
        let x = lp.add_var_nonneg("x");
        lp.constrain(LinExpr::new().term(x, 1.0).constant(3.0), Cmp::Le, 5.0);
        lp.maximize(LinExpr::new().term(x, 1.0));
        let sol = LpSolver::new().solve(&lp).unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn zero_objective_feasibility_probe() {
        let mut lp = LpBuilder::new();
        let x = lp.add_var("x");
        lp.constrain(LinExpr::new().term(x, 1.0), Cmp::Eq, 7.0);
        let sol = LpSolver::new().solve(&lp).unwrap();
        assert!((sol.value(x) - 7.0).abs() < 1e-7);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // -x <= -3  ==  x >= 3.
        let mut lp = LpBuilder::new();
        let x = lp.add_var_nonneg("x");
        lp.constrain(LinExpr::new().term(x, -1.0), Cmp::Le, -3.0);
        lp.minimize(LinExpr::new().term(x, 1.0));
        let sol = LpSolver::new().solve(&lp).unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn eval_on_solution() {
        let mut lp = LpBuilder::new();
        let x = lp.add_var("x");
        lp.constrain(LinExpr::new().term(x, 1.0), Cmp::Eq, 2.0);
        let sol = LpSolver::new().solve(&lp).unwrap();
        let e = LinExpr::new().term(x, 10.0).constant(1.0);
        assert!((sol.eval(&e) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_equalities_are_fine() {
        // x + y = 2 stated twice plus x - y = 0 -> x = y = 1.
        let mut lp = LpBuilder::new();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.constrain(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Eq, 2.0);
        lp.constrain(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Eq, 2.0);
        lp.constrain(LinExpr::new().term(x, 1.0).term(y, -1.0), Cmp::Eq, 0.0);
        lp.minimize(LinExpr::new().term(x, 1.0));
        let sol = LpSolver::new().solve(&lp).unwrap();
        assert!((sol.value(x) - 1.0).abs() < 1e-7);
        assert!((sol.value(y) - 1.0).abs() < 1e-7);
    }
}
