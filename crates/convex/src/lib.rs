#![warn(missing_docs)]

//! Convex optimization for the canonical constraints of ExpLinSyn (§5.2).
//!
//! After Minkowski decomposition and quantifier elimination, the paper's
//! complete upper-bound synthesis reduces to problems of the form
//!
//! ```text
//! minimize    c · x
//! subject to  Σ_m w_m · exp(u_m(x)) · Π_k φ_{[a,b]}(t_{m,k}(x)) ≤ 1   (i = 1..I)
//!             E · x = f
//! ```
//!
//! where `u`, `t` are affine in the unknowns `x`, `w_m > 0`, and
//! `φ_{[a,b]}` is the moment-generating function of a uniform distribution
//! (discrete distributions expand exactly into extra `exp` terms, so they
//! never reach the solver). Each term is log-convex, hence every constraint
//! is convex; this is exactly the class Theorem 5.4 of the paper proves
//! convex.
//!
//! The solver is a standard **log-barrier path-following interior-point
//! method**: a phase-I problem (minimize the slack shift `s` with every term
//! multiplied by `e^{-s}`) finds a strictly feasible point, then damped
//! Newton steps with equality-constrained KKT systems follow the central
//! path. This replaces the CVX/Matlab stack used by the paper's prototype.
//!
//! # Examples
//!
//! ```
//! use qava_convex::{ConvexProblem, ExpSumConstraint, ExpTerm, SolverOptions};
//!
//! // minimize a  s.t.  0.75·e^a + 0.25·e^{-a} <= 1   (=> a* = ln(1/3))
//! let mut p = ConvexProblem::new(1);
//! p.set_objective(vec![1.0]);
//! p.add_constraint(ExpSumConstraint::new(vec![
//!     ExpTerm::exp_affine(0.75, vec![1.0], 0.0),
//!     ExpTerm::exp_affine(0.25, vec![-1.0], 0.0),
//! ]));
//! let sol = p.solve(&SolverOptions::default())?;
//! assert!((sol.x[0] - (1.0f64 / 3.0).ln()).abs() < 1e-5);
//! # Ok::<(), qava_convex::ConvexError>(())
//! ```

mod mgf;
mod solver;

pub use mgf::UniformMgf;

use qava_linalg::vecops;

/// One log-convex term `w · exp(lin·x + constant) · Π φ(t_k(x))`.
#[derive(Debug, Clone)]
pub struct ExpTerm {
    /// Positive multiplicative weight `w`.
    pub weight: f64,
    /// Affine exponent coefficients.
    pub lin: Vec<f64>,
    /// Affine exponent offset.
    pub constant: f64,
    /// Uniform-distribution MGF factors `φ_{[a,b]}(lin·x + constant)`.
    pub uniform_factors: Vec<UniformFactorRef>,
}

/// A uniform-MGF factor: the distribution and the affine argument `t(x)`.
#[derive(Debug, Clone)]
pub struct UniformFactorRef {
    /// The uniform distribution's MGF.
    pub mgf: UniformMgf,
    /// Affine argument coefficients.
    pub lin: Vec<f64>,
    /// Affine argument offset.
    pub constant: f64,
}

impl ExpTerm {
    /// A plain `w · exp(lin·x + constant)` term (no MGF factors).
    ///
    /// # Panics
    ///
    /// Panics unless `weight > 0`.
    pub fn exp_affine(weight: f64, lin: Vec<f64>, constant: f64) -> Self {
        assert!(weight > 0.0, "term weights must be positive");
        ExpTerm { weight, lin, constant, uniform_factors: Vec::new() }
    }

    /// Attaches a uniform-MGF factor `φ_{[a,b]}(lin·x + constant)`.
    #[must_use]
    pub fn with_uniform_factor(mut self, mgf: UniformMgf, lin: Vec<f64>, constant: f64) -> Self {
        self.uniform_factors.push(UniformFactorRef { mgf, lin, constant });
        self
    }

    /// The log of the term value at `x` (without the phase-I shift).
    pub(crate) fn log_value(&self, x: &[f64]) -> f64 {
        self.log_value_with(self.weight.ln(), x)
    }

    /// [`Self::log_value`] with `ln(weight)` supplied by the caller, which
    /// computes it once per barrier run instead of once per evaluation.
    pub(crate) fn log_value_with(&self, ln_weight: f64, x: &[f64]) -> f64 {
        let mut rho = ln_weight + vecops::dot(&self.lin, x) + self.constant;
        for f in &self.uniform_factors {
            rho += f.mgf.log_value(vecops::dot(&f.lin, x) + f.constant);
        }
        rho
    }
}

/// A term's value from its log, `+∞` once the exponent overflows.
fn capped_exp(rho: f64) -> f64 {
    if rho > 700.0 {
        f64::INFINITY
    } else {
        rho.exp()
    }
}

/// A constraint `Σ_m term_m(x) ≤ 1`.
#[derive(Debug, Clone)]
pub struct ExpSumConstraint {
    /// The log-convex summands.
    pub terms: Vec<ExpTerm>,
    /// Optional provenance label surfaced in error messages.
    pub label: String,
}

impl ExpSumConstraint {
    /// Builds a constraint from terms with an empty label.
    pub fn new(terms: Vec<ExpTerm>) -> Self {
        ExpSumConstraint { terms, label: String::new() }
    }

    /// Attaches a human-readable provenance label.
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Encodes the linear inequality `coeffs·x ≤ rhs` as the single-term
    /// constraint `exp(coeffs·x − rhs) ≤ 1`.
    pub fn linear(coeffs: Vec<f64>, rhs: f64) -> Self {
        ExpSumConstraint::new(vec![ExpTerm::exp_affine(1.0, coeffs, -rhs)])
    }

    /// Evaluates `Σ_m term_m(x)`; `+∞` if any exponent overflows.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|t| capped_exp(t.log_value(x))).sum()
    }

    /// [`Self::eval`] with each term's `ln(weight)` supplied by the caller.
    pub(crate) fn eval_with(&self, ln_weights: &[f64], x: &[f64]) -> f64 {
        self.terms
            .iter()
            .zip(ln_weights)
            .map(|(t, &lw)| capped_exp(t.log_value_with(lw, x)))
            .sum()
    }
}

/// Errors from [`ConvexProblem::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvexError {
    /// No strictly feasible point exists (phase I failed).
    Infeasible,
    /// The Newton iteration failed to make progress.
    NumericalFailure(String),
}

impl std::fmt::Display for ConvexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvexError::Infeasible => write!(f, "convex program has no strictly feasible point"),
            ConvexError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for ConvexError {}

/// Result of a successful solve.
#[derive(Debug, Clone)]
pub struct ConvexSolution {
    /// The (ε-)optimal point.
    pub x: Vec<f64>,
    /// Objective value `c·x` at `x`.
    pub objective: f64,
    /// `true` when the objective hit the configured floor, meaning the
    /// problem is (numerically) unbounded below — for bound synthesis this
    /// reads as "the violation probability bound is effectively zero".
    pub floored: bool,
    /// Newton iterations of the phase-II barrier path, the one that
    /// minimizes the real objective. Phase I (the search for a strictly
    /// feasible start) runs Newton steps of its own that are not counted.
    pub newton_iterations: usize,
}

/// Tuning knobs for the interior-point solver.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Barrier parameter multiplier per outer iteration.
    pub mu: f64,
    /// Target duality-gap-style tolerance `m / t`.
    pub tol: f64,
    /// Maximum Newton iterations per centering step. A centering usually
    /// ends before this cap: when the Newton decrement `λ²/2` falls below
    /// `1e-10`, when the line search finds no acceptable step, or when the
    /// decrease the line search certified, `0.01·step·λ²`, is below the
    /// rounding unit `f64::EPSILON·|B(x)|` of the barrier value. Past that
    /// last point further steps are rounding noise. Every such exit leaves
    /// a strictly feasible point, and any strictly feasible point
    /// certifies a bound, so an early exit can loosen a bound but never
    /// make it unsound.
    pub max_newton: usize,
    /// Objective floor below which the problem is declared unbounded.
    pub obj_floor: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { mu: 20.0, tol: 1e-9, max_newton: 200, obj_floor: -5e4 }
    }
}

/// The convex program `min c·x` over exp-sum constraints and equalities.
#[derive(Debug, Clone, Default)]
pub struct ConvexProblem {
    n: usize,
    objective: Vec<f64>,
    constraints: Vec<ExpSumConstraint>,
    equalities: Vec<(Vec<f64>, f64)>,
}

impl ConvexProblem {
    /// Creates a problem over `n` unknowns with zero objective.
    pub fn new(n: usize) -> Self {
        ConvexProblem {
            n,
            objective: vec![0.0; n],
            constraints: Vec::new(),
            equalities: Vec::new(),
        }
    }

    /// Number of unknowns.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of exp-sum constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the linear objective (minimized).
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != self.num_vars()`.
    pub fn set_objective(&mut self, c: Vec<f64>) {
        assert_eq!(c.len(), self.n, "objective width mismatch");
        self.objective = c;
    }

    /// Adds an exp-sum constraint. Empty constraints (`0 ≤ 1`) are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any affine row has the wrong width.
    pub fn add_constraint(&mut self, c: ExpSumConstraint) {
        for t in &c.terms {
            assert_eq!(t.lin.len(), self.n, "term width mismatch");
            for f in &t.uniform_factors {
                assert_eq!(f.lin.len(), self.n, "factor width mismatch");
            }
        }
        if !c.terms.is_empty() {
            self.constraints.push(c);
        }
    }

    /// Adds the linear equality `coeffs·x = rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != self.num_vars()`.
    pub fn add_equality(&mut self, coeffs: Vec<f64>, rhs: f64) {
        assert_eq!(coeffs.len(), self.n, "equality width mismatch");
        self.equalities.push((coeffs, rhs));
    }

    /// Evaluates constraint `i` at `x` (for diagnostics and tests).
    pub fn constraint_value(&self, i: usize, x: &[f64]) -> f64 {
        self.constraints[i].eval(x)
    }

    /// `true` when `x` satisfies every constraint within `tol` (equalities
    /// within `tol` absolutely).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        self.constraints.iter().all(|c| c.eval(x) <= 1.0 + tol)
            && self
                .equalities
                .iter()
                .all(|(row, rhs)| (vecops::dot(row, x) - rhs).abs() <= tol)
    }

    /// Runs the interior-point method.
    ///
    /// # Errors
    ///
    /// [`ConvexError::Infeasible`] when phase I cannot find a strictly
    /// feasible point; [`ConvexError::NumericalFailure`] when Newton stalls.
    pub fn solve(&self, opts: &SolverOptions) -> Result<ConvexSolution, ConvexError> {
        solver::solve(self, opts)
    }

    pub(crate) fn objective_ref(&self) -> &[f64] {
        &self.objective
    }

    pub(crate) fn constraints_ref(&self) -> &[ExpSumConstraint] {
        &self.constraints
    }

    pub(crate) fn equalities_ref(&self) -> &[(Vec<f64>, f64)] {
        &self.equalities
    }
}
