//! Property-based tests for the simplex solver.
//!
//! Strategy: generate random bounded LPs whose feasibility is guaranteed by
//! construction (box constraints plus random cutting planes through a known
//! interior point), then check that the reported optimum is (a) feasible and
//! (b) at least as good as a cloud of random feasible points.

use proptest::prelude::*;
use qava_lp::{Cmp, LinExpr, LpBuilder, VarId};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// A randomly generated LP instance that is feasible by construction: the
/// anchor point satisfies every constraint.
#[derive(Debug, Clone)]
struct RandomLp {
    dim: usize,
    /// Rows `(coeffs, rhs)` meaning `coeffs · x <= rhs`.
    rows: Vec<(Vec<f64>, f64)>,
    objective: Vec<f64>,
    anchor: Vec<f64>,
}

fn random_lp_strategy() -> impl Strategy<Value = RandomLp> {
    (2usize..5, 1usize..7, any::<u64>()).prop_map(|(dim, ncuts, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let anchor: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut rows = Vec::new();
        // Bounding box keeps the LP bounded in every direction.
        for j in 0..dim {
            let mut pos = vec![0.0; dim];
            pos[j] = 1.0;
            rows.push((pos.clone(), anchor[j] + rng.gen_range(0.5..4.0)));
            let mut neg = vec![0.0; dim];
            neg[j] = -1.0;
            rows.push((neg, -anchor[j] + rng.gen_range(0.5..4.0)));
        }
        // Random cutting planes kept feasible for the anchor.
        for _ in 0..ncuts {
            let coeffs: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let at_anchor: f64 = coeffs.iter().zip(&anchor).map(|(c, a)| c * a).sum();
            rows.push((coeffs, at_anchor + rng.gen_range(0.1..3.0)));
        }
        let objective: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
        RandomLp { dim, rows, objective, anchor }
    })
}

fn build(lp: &RandomLp) -> (LpBuilder, Vec<VarId>) {
    let mut b = LpBuilder::new();
    let vars: Vec<VarId> = (0..lp.dim).map(|j| b.add_var(format!("x{j}"))).collect();
    for (coeffs, rhs) in &lp.rows {
        let mut e = LinExpr::new();
        for (j, &c) in coeffs.iter().enumerate() {
            e = e.term(vars[j], c);
        }
        b.constrain(e, Cmp::Le, *rhs);
    }
    let mut obj = LinExpr::new();
    for (j, &c) in lp.objective.iter().enumerate() {
        obj = obj.term(vars[j], c);
    }
    b.minimize(obj);
    (b, vars)
}

fn is_feasible(lp: &RandomLp, x: &[f64], tol: f64) -> bool {
    lp.rows.iter().all(|(coeffs, rhs)| {
        coeffs.iter().zip(x).map(|(c, v)| c * v).sum::<f64>() <= rhs + tol
    })
}

fn objective_at(lp: &RandomLp, x: &[f64]) -> f64 {
    lp.objective.iter().zip(x).map(|(c, v)| c * v).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The returned optimum is feasible and dominates random feasible points.
    #[test]
    fn optimum_is_feasible_and_dominant(instance in random_lp_strategy(), probe_seed in any::<u64>()) {
        let (builder, vars) = build(&instance);
        let sol = builder.solve().expect("constructed LP is feasible and bounded");
        let x: Vec<f64> = vars.iter().map(|&v| sol.value(v)).collect();
        prop_assert!(is_feasible(&instance, &x, 1e-6), "solver returned infeasible point {x:?}");
        prop_assert!(is_feasible(&instance, &instance.anchor, 1e-9), "anchor broken by construction");

        // The anchor itself must not beat the optimum.
        let opt = objective_at(&instance, &x);
        prop_assert!(opt <= objective_at(&instance, &instance.anchor) + 1e-6);

        // Nor may random feasible perturbations around the anchor.
        let mut rng = StdRng::seed_from_u64(probe_seed);
        for _ in 0..50 {
            let probe: Vec<f64> = instance
                .anchor
                .iter()
                .map(|a| a + rng.gen_range(-1.0..1.0))
                .collect();
            if is_feasible(&instance, &probe, 0.0) {
                prop_assert!(opt <= objective_at(&instance, &probe) + 1e-6,
                    "probe {probe:?} beats reported optimum");
            }
        }
    }

    /// Solving the same LP twice gives the same optimal value (determinism).
    #[test]
    fn deterministic(instance in random_lp_strategy()) {
        let (b1, _) = build(&instance);
        let (b2, _) = build(&instance);
        let o1 = b1.solve().unwrap().objective;
        let o2 = b2.solve().unwrap().objective;
        prop_assert!((o1 - o2).abs() < 1e-9);
    }

    /// Adding a redundant constraint (implied by an existing one) never
    /// changes the optimum.
    #[test]
    fn redundant_row_invariance(instance in random_lp_strategy()) {
        let (b1, _) = build(&instance);
        let base = b1.solve().unwrap().objective;

        let mut relaxed = instance.clone();
        let (coeffs, rhs) = relaxed.rows[0].clone();
        relaxed.rows.push((coeffs, rhs + 1.0)); // strictly weaker copy
        let (b2, _) = build(&relaxed);
        let with_redundant = b2.solve().unwrap().objective;
        prop_assert!((base - with_redundant).abs() < 1e-7);
    }
}

// ---------------------------------------------------------------------
// Differential tests: every backend registered through the `LpBackend`
// trait on random standard-form LPs. Backends are selected **at
// runtime** via `LpSolver` sessions, so all three cores are exercised
// unconditionally in every build. All backends must agree on the verdict (optimal / infeasible /
// unbounded) and, when optimal, on the objective value — the argmin may
// differ when the optimum face is not a vertex singleton.
// ---------------------------------------------------------------------

use qava_linalg::Matrix;
use qava_lp::{
    BackendChoice, CoreSolution, CscMatrix, LpBackend, LpError, LpSolver, LuFtSimplex,
    SparseRevised, solve_standard_dense,
};

/// The runtime-selected backends every differential case runs through.
const DIFF_BACKENDS: [BackendChoice; 3] =
    [BackendChoice::Sparse, BackendChoice::Dense, BackendChoice::LuFt];

/// One fresh session per (case, backend): differential cases must not
/// warm-start each other across proptest iterations.
fn solve_with(choice: BackendChoice, inst: &StdLpInstance) -> Result<Vec<f64>, LpError> {
    LpSolver::with_choice(choice).solve_standard(&inst.costs, &inst.matrix(), &inst.b)
}

/// A random standard-form LP `min cᵀx, A·x = b, x ≥ 0` that is feasible
/// by construction (`b = A·x₀` for a non-negative `x₀`).
#[derive(Debug, Clone)]
struct StdLpInstance {
    costs: Vec<f64>,
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
}

impl StdLpInstance {
    fn matrix(&self) -> Matrix {
        Matrix::from_rows(self.a.clone())
    }
}

fn feasible_std_lp(seed: u64) -> StdLpInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = rng.gen_range(1usize..6);
    let n = m + rng.gen_range(1usize..7);
    // ~half the entries zero so presolve and CSC actually see sparsity.
    let a: Vec<Vec<f64>> = (0..m)
        .map(|_| {
            (0..n)
                .map(|_| if rng.gen_bool(0.5) { rng.gen_range(-3.0..3.0) } else { 0.0 })
                .collect()
        })
        .collect();
    let x0: Vec<f64> = (0..n)
        .map(|_| if rng.gen_bool(0.7) { rng.gen_range(0.0..4.0) } else { 0.0 })
        .collect();
    let mut b: Vec<f64> = (0..m)
        .map(|i| a[i].iter().zip(&x0).map(|(c, x)| c * x).sum())
        .collect();
    // Standard form wants b ≥ 0: flip offending rows.
    let mut a = a;
    for i in 0..m {
        if b[i] < 0.0 {
            b[i] = -b[i];
            for v in a[i].iter_mut() {
                *v = -*v;
            }
        }
    }
    // Bound the feasible region so the minimum exists: one extra row
    // Σx + s = Σx₀ + margin with a fresh slack keeps every xⱼ bounded.
    let margin: f64 = rng.gen_range(1.0..5.0);
    let total: f64 = x0.iter().sum::<f64>() + margin;
    for row in a.iter_mut() {
        row.push(0.0);
    }
    let mut cap = vec![1.0; n];
    cap.push(1.0);
    a.push(cap);
    b.push(total);
    let costs: Vec<f64> = (0..n + 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
    StdLpInstance { costs, a, b }
}

/// A deliberately degenerate variant of [`feasible_std_lp`]: extra rows
/// that are sums of existing ones (linearly dependent, so presolve's
/// exact-duplicate pass keeps them) and a sparser anchor point, so the
/// optimum sits on a vertex where many bases are interchangeable. This
/// is the regime where anti-cycling (sticky Bland) and the basis
/// representations' tiny-pivot handling earn their keep.
fn degenerate_std_lp(seed: u64) -> StdLpInstance {
    let mut inst = feasible_std_lp(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_DE6E);
    let m = inst.a.len();
    let extra = 1 + (seed as usize) % 3;
    for _ in 0..extra {
        let i = rng.gen_range(0..m);
        let j = rng.gen_range(0..m);
        let sum: Vec<f64> = inst.a[i].iter().zip(&inst.a[j]).map(|(x, y)| x + y).collect();
        inst.b.push(inst.b[i] + inst.b[j]);
        inst.a.push(sum);
    }
    inst
}

fn objective(costs: &[f64], x: &[f64]) -> f64 {
    costs.iter().zip(x).map(|(c, v)| c * v).sum()
}

fn check_feasible(inst: &StdLpInstance, x: &[f64], tol: f64) -> Result<(), String> {
    for (i, row) in inst.a.iter().enumerate() {
        let ax: f64 = row.iter().zip(x).map(|(c, v)| c * v).sum();
        if (ax - inst.b[i]).abs() > tol {
            return Err(format!("row {i}: A·x = {ax} vs b = {}", inst.b[i]));
        }
    }
    if let Some(v) = x.iter().find(|&&v| v < -tol) {
        return Err(format!("negative component {v}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On feasible bounded LPs every backend finds an optimum of the same
    /// value, and all report feasible points.
    #[test]
    fn differential_feasible(seed in any::<u64>()) {
        let inst = feasible_std_lp(seed);
        let tol = 1e-6 * (1.0 + inst.b.iter().fold(0.0f64, |a, &v| a.max(v.abs())));
        let mut objectives: Vec<(BackendChoice, f64)> = Vec::new();
        for choice in DIFF_BACKENDS {
            let x = solve_with(choice, &inst)
                .expect("constructed LP is feasible and bounded");
            prop_assert!(check_feasible(&inst, &x, tol).is_ok(),
                "{choice} infeasible point: {:?}", check_feasible(&inst, &x, tol));
            objectives.push((choice, objective(&inst.costs, &x)));
        }
        let (_, o0) = objectives[0];
        for &(choice, o) in &objectives[1..] {
            prop_assert!((o0 - o).abs() <= 1e-5 * (1.0 + o0.abs().max(o.abs())),
                "objective mismatch: {} {o0} vs {choice} {o}", objectives[0].0);
        }
    }

    /// Appending a contradictory copy of a row makes every backend report
    /// infeasibility.
    #[test]
    fn differential_infeasible(seed in any::<u64>()) {
        let mut inst = feasible_std_lp(seed);
        let clash = inst.a[0].clone();
        let clash_rhs = inst.b[0] + 3.0; // clearly conflicting duplicate
        inst.a.push(clash);
        inst.b.push(clash_rhs);
        for choice in DIFF_BACKENDS {
            prop_assert_eq!(solve_with(choice, &inst).unwrap_err(), LpError::Infeasible,
                "backend {}", choice);
        }
    }

    /// Adding a non-negative ray with negative cost makes every backend
    /// report unboundedness: the fresh column pair (v, −v) gives
    /// A·(e_j + e_k) = 0 with cost < 0.
    #[test]
    fn differential_unbounded(seed in any::<u64>()) {
        let mut inst = feasible_std_lp(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD_EF01);
        let ray: Vec<f64> = inst.a.iter().map(|_| rng.gen_range(-2.0..2.0)).collect();
        for (i, row) in inst.a.iter_mut().enumerate() {
            row.push(ray[i]);
            row.push(-ray[i]);
        }
        inst.costs.push(-1.0);
        inst.costs.push(0.0);
        for choice in DIFF_BACKENDS {
            prop_assert_eq!(solve_with(choice, &inst).unwrap_err(), LpError::Unbounded,
                "backend {}", choice);
        }
    }

    /// On degenerate LPs (dependent rows, sparse anchors) every backend
    /// still terminates with a feasible point of the same value — the
    /// anti-cycling and tiny-pivot machinery of both revised-simplex
    /// representations under maximal tie pressure.
    #[test]
    fn differential_degenerate(seed in any::<u64>()) {
        let inst = degenerate_std_lp(seed);
        let tol = 1e-6 * (1.0 + inst.b.iter().fold(0.0f64, |a, &v| a.max(v.abs())));
        let mut objectives: Vec<(BackendChoice, f64)> = Vec::new();
        for choice in DIFF_BACKENDS {
            let x = solve_with(choice, &inst)
                .expect("degenerate instance stays feasible and bounded");
            prop_assert!(check_feasible(&inst, &x, tol).is_ok(),
                "{choice} infeasible point: {:?}", check_feasible(&inst, &x, tol));
            objectives.push((choice, objective(&inst.costs, &x)));
        }
        let (_, o0) = objectives[0];
        for &(choice, o) in &objectives[1..] {
            prop_assert!((o0 - o).abs() <= 1e-5 * (1.0 + o0.abs().max(o.abs())),
                "objective mismatch: {} {o0} vs {choice} {o}", objectives[0].0);
        }
    }

    /// Warm-started re-solves agree with cold solves of every backend:
    /// one warm-capable session solves a drifting sequence of
    /// same-pattern LPs (hitting the basis cache) and each solve is
    /// cross-checked against a cold dense session.
    #[test]
    fn differential_warm_start_chain(seed in any::<u64>()) {
        let inst = feasible_std_lp(seed);
        for warm_choice in [BackendChoice::Sparse, BackendChoice::LuFt] {
            let mut warm = LpSolver::with_choice(warm_choice);
            for step in 0..4 {
                let mut drifted = inst.clone();
                for v in drifted.b.iter_mut() {
                    *v *= 1.0 + 0.05 * step as f64;
                }
                let xw = warm.solve_standard(&drifted.costs, &drifted.matrix(), &drifted.b)
                    .expect("scaled instance stays feasible and bounded");
                let xc = solve_with(BackendChoice::Dense, &drifted)
                    .expect("cold dense solve of the same instance");
                let ow = objective(&drifted.costs, &xw);
                let oc = objective(&drifted.costs, &xc);
                prop_assert!((ow - oc).abs() <= 1e-5 * (1.0 + ow.abs().max(oc.abs())),
                    "step {step}: warm {warm_choice} {ow} vs cold dense {oc}");
            }
        }
    }

    /// A hostile warm-start basis — singular (duplicated column) or
    /// nearly singular — must never change a verdict or an optimum: the
    /// warm-capable backends hit the refactorization backstop, reject
    /// the basis, and fall back to the cold path.
    #[test]
    fn differential_hostile_warm_basis(seed in any::<u64>()) {
        let inst = feasible_std_lp(seed);
        let csc = CscMatrix::from_dense(&inst.matrix());
        let m = inst.a.len();
        let reference = solve_with(BackendChoice::Dense, &inst)
            .expect("constructed LP is feasible and bounded");
        let oref = objective(&inst.costs, &reference);
        // Singular: the same column in every basis slot. Near-singular /
        // stale: all slots on the last column except slot 0.
        let singular = vec![0usize; m];
        let mut stale = vec![inst.a[0].len() - 1; m];
        stale[0] = 0;
        for (label, basis) in [("singular", &singular), ("stale", &stale)] {
            for backend in [
                Box::new(SparseRevised) as Box<dyn LpBackend>,
                Box::new(LuFtSimplex) as Box<dyn LpBackend>,
            ] {
                let core = backend
                    .solve_core(&inst.costs, &csc, &inst.b, Some(basis))
                    .unwrap_or_else(|e| panic!("{} warm={label}: {e}", backend.name()));
                let o = objective(&inst.costs, &core.x);
                prop_assert!((o - oref).abs() <= 1e-5 * (1.0 + o.abs().max(oref.abs())),
                    "{} with {label} warm basis: {o} vs {oref}", backend.name());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Error-path plumbing through the trait object: a registered custom
// backend's verdicts must surface unchanged through the session pipeline.
// ---------------------------------------------------------------------

/// A mock backend that always gives up — the PivotLimit error path, which
/// no reasonably-sized real instance triggers deterministically.
struct GivesUp;

impl LpBackend for GivesUp {
    fn name(&self) -> &'static str {
        "gives-up"
    }

    fn solve_core(
        &self,
        _costs: &[f64],
        _a: &CscMatrix,
        _b: &[f64],
        _warm: Option<&[usize]>,
    ) -> Result<CoreSolution, LpError> {
        Err(LpError::PivotLimit)
    }
}

#[test]
fn pivot_limit_propagates_through_registered_backend() {
    let inst = feasible_std_lp(7);
    // With the failover ladder disabled, the custom backend's raw
    // verdict surfaces unchanged — the differential-testing contract.
    let mut solver = LpSolver::new();
    solver.set_failover(false);
    solver.register_backend(Box::new(GivesUp));
    assert_eq!(
        solver.solve_standard(&inst.costs, &inst.matrix(), &inst.b).unwrap_err(),
        LpError::PivotLimit
    );
    // The failed solve is still accounted to the backend that ran it.
    let stats = solver.stats();
    assert_eq!(stats.solves, 1);
    assert_eq!(stats.backends.len(), 1);
    assert_eq!(stats.backends[0].name, "gives-up");
    assert_eq!(stats.failovers, 0);
    // Selecting a real backend afterwards recovers the optimum.
    assert!(solver.select_backend("sparse"));
    solver
        .solve_standard(&inst.costs, &inst.matrix(), &inst.b)
        .expect("sparse backend solves the same instance");
}

#[test]
fn pivot_limit_rescued_by_failover_ladder() {
    let inst = feasible_std_lp(7);
    // Default sessions instead rescue the solve: the ladder steps down
    // to a built-in rung, which must certify the same optimum the
    // backend would have.
    let mut oracle = LpSolver::with_choice(BackendChoice::Dense);
    let xref = oracle.solve_standard(&inst.costs, &inst.matrix(), &inst.b).unwrap();
    let oref = objective(&inst.costs, &xref);
    let mut solver = LpSolver::new();
    solver.register_backend(Box::new(GivesUp));
    let x = solver
        .solve_standard(&inst.costs, &inst.matrix(), &inst.b)
        .expect("the ladder rescues the giving-up backend");
    let o = objective(&inst.costs, &x);
    assert!((o - oref).abs() <= 1e-7 * (1.0 + oref.abs()), "{o} vs {oref}");
    let stats = solver.stats();
    assert_eq!(stats.failovers, 1, "the first rung rescues");
    assert_eq!(stats.failover_recoveries, 1);
    let names: Vec<_> = stats.backends.iter().map(|t| t.name).collect();
    assert_eq!(names, vec!["gives-up", "lu-ft"], "both the failure and the rescue are tallied");
}

/// Regression (column-scaling undo): a template-LP-shaped system mixing
/// `1e-7` failure-probability coefficients with `1e2` invariant bounds in
/// the same row. The second column's max-norm is `3e-7`, far outside the
/// `[0.25, 4]` dead-band, so the solver rescales it and must scale the
/// solution back; a broken undo path reports x₁ off by seven orders of
/// magnitude.
#[test]
fn column_scaling_undo_regression() {
    let a = Matrix::from_rows(vec![vec![1.0, 1e-7], vec![2.0, 3e-7]]);
    // Unique solution x = (2, 1e7): b = (2 + 1, 4 + 3).
    let b = vec![3.0, 7.0];
    let costs = vec![1.0, 1.0];
    for (label, x) in [
        (
            "sparse",
            LpSolver::with_choice(BackendChoice::Sparse).solve_standard(&costs, &a, &b).unwrap(),
        ),
        (
            "lu-ft",
            LpSolver::with_choice(BackendChoice::LuFt).solve_standard(&costs, &a, &b).unwrap(),
        ),
        ("dense", solve_standard_dense(&costs, &a, &b).unwrap()),
    ] {
        assert!((x[0] - 2.0).abs() < 1e-5, "{label}: x0 = {}", x[0]);
        assert!(
            (x[1] - 1e7).abs() < 1e7 * 1e-6,
            "{label}: x1 = {} (column-scaling undo broken?)",
            x[1]
        );
    }

    // And the 1e2-heavy variant: rows outside the dead-band upward.
    let a = Matrix::from_rows(vec![vec![1e2, 0.0, 1.0], vec![0.0, 2e2, 1.0]]);
    let b = vec![5e2, 8e2];
    let costs = vec![1.0, 1.0, 0.0];
    for (label, x) in [
        (
            "sparse",
            LpSolver::with_choice(BackendChoice::Sparse).solve_standard(&costs, &a, &b).unwrap(),
        ),
        (
            "lu-ft",
            LpSolver::with_choice(BackendChoice::LuFt).solve_standard(&costs, &a, &b).unwrap(),
        ),
        ("dense", solve_standard_dense(&costs, &a, &b).unwrap()),
    ] {
        let r1 = 1e2 * x[0] + x[2];
        let r2 = 2e2 * x[1] + x[2];
        assert!((r1 - 5e2).abs() < 1e-4, "{label}: row1 = {r1}");
        assert!((r2 - 8e2).abs() < 1e-4, "{label}: row2 = {r2}");
    }
}

// ---------------------------------------------------------------------
// Metamorphic properties: a solved LP and a mechanically transformed
// twin must agree in ways the transformation dictates exactly. Unlike
// the differential block above (which needs a second solver to disagree
// with), these detect a backend that is consistently wrong — all three
// engines run every property.
// ---------------------------------------------------------------------

use qava_lp::debug::{trace_pivots, TraceEngine};

/// Deterministic Fisher–Yates permutation of `0..n` from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..i + 1));
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row-permutation invariance: reordering the constraints is pure
    /// bookkeeping — every backend must report the same optimum.
    #[test]
    fn metamorphic_row_permutation(seed in any::<u64>(), perm_seed in any::<u64>()) {
        let inst = feasible_std_lp(seed);
        let perm = permutation(inst.a.len(), perm_seed);
        let permuted = StdLpInstance {
            costs: inst.costs.clone(),
            a: perm.iter().map(|&i| inst.a[i].clone()).collect(),
            b: perm.iter().map(|&i| inst.b[i]).collect(),
        };
        for choice in DIFF_BACKENDS {
            let x0 = solve_with(choice, &inst).expect("base instance solvable");
            let x1 = solve_with(choice, &permuted).expect("permuted instance solvable");
            let (o0, o1) = (objective(&inst.costs, &x0), objective(&permuted.costs, &x1));
            prop_assert!((o0 - o1).abs() <= 1e-6 * (1.0 + o0.abs().max(o1.abs())),
                "{choice}: row permutation moved the optimum {o0} -> {o1}");
        }
    }

    /// Column-scaling invariance: scaling column j of A by s and cost j
    /// by s substitutes x_j' = x_j / s — the optimal objective is
    /// untouched. Exercises every backend's interaction with the
    /// session's equilibrator and its undo path (the historical
    /// column-scaling-undo bug class, now for all three engines).
    #[test]
    fn metamorphic_column_scaling(seed in any::<u64>(), scale_seed in any::<u64>()) {
        let inst = feasible_std_lp(seed);
        let n = inst.costs.len();
        let mut rng = StdRng::seed_from_u64(scale_seed);
        let scales: Vec<f64> = (0..n)
            .map(|_| {
                let s = rng.gen_range(-4.0f64..4.0);
                // Log-uniform-ish over [2^-4, 2^4], never zero.
                (2.0f64).powf(s)
            })
            .collect();
        let scaled = StdLpInstance {
            costs: inst.costs.iter().zip(&scales).map(|(c, s)| c * s).collect(),
            a: inst
                .a
                .iter()
                .map(|row| row.iter().zip(&scales).map(|(v, s)| v * s).collect())
                .collect(),
            b: inst.b.clone(),
        };
        for choice in DIFF_BACKENDS {
            let x0 = solve_with(choice, &inst).expect("base instance solvable");
            let x1 = solve_with(choice, &scaled).expect("scaled instance solvable");
            let (o0, o1) = (objective(&inst.costs, &x0), objective(&scaled.costs, &x1));
            prop_assert!((o0 - o1).abs() <= 1e-5 * (1.0 + o0.abs().max(o1.abs())),
                "{choice}: column scaling moved the optimum {o0} -> {o1}");
        }
    }

    /// Objective-scaling covariance: multiplying every cost by λ > 0
    /// leaves the argmin alone and scales the optimum by exactly λ.
    #[test]
    fn metamorphic_objective_scaling(seed in any::<u64>(), lambda_exp in -3i32..4) {
        let lambda = (2.0f64).powi(lambda_exp) * 1.5;
        let inst = feasible_std_lp(seed);
        let scaled = StdLpInstance {
            costs: inst.costs.iter().map(|c| c * lambda).collect(),
            a: inst.a.clone(),
            b: inst.b.clone(),
        };
        for choice in DIFF_BACKENDS {
            let x0 = solve_with(choice, &inst).expect("base instance solvable");
            let x1 = solve_with(choice, &scaled).expect("scaled instance solvable");
            let (o0, o1) = (objective(&inst.costs, &x0), objective(&scaled.costs, &x1));
            prop_assert!((lambda * o0 - o1).abs() <= 1e-5 * (1.0 + o1.abs()),
                "{choice}: λ={lambda}: optimum {o0} should scale to {}, got {o1}", lambda * o0);
        }
    }

    /// The Forrest–Tomlin and dense-inverse engines share every line of
    /// the pricing loop; under Bland's rule (deterministic lowest-index
    /// selection, no near-tie races) they must therefore visit the
    /// **identical** pivot sequence on identical instances. When this
    /// fails, the bug is in the basis representation — the one part the
    /// engines do not share — which is exactly where a differential
    /// objective mismatch cannot localize it.
    #[test]
    fn metamorphic_ft_and_dense_inverse_pivot_sequences_agree(seed in any::<u64>()) {
        let inst = feasible_std_lp(seed);
        let csc = CscMatrix::from_dense(&inst.matrix());
        let (rd, dense) =
            trace_pivots(TraceEngine::DenseInverse, &inst.costs, &csc, &inst.b, true);
        let (rf, ft) = trace_pivots(TraceEngine::LuFt, &inst.costs, &csc, &inst.b, true);
        prop_assert_eq!(dense.len(), ft.len(),
            "pivot counts diverged: dense inverse {} vs ft {}", dense.len(), ft.len());
        for (i, (pd, pf)) in dense.iter().zip(&ft).enumerate() {
            prop_assert_eq!(pd, pf, "pivot {i} diverged: dense inverse {:?} vs ft {:?}", pd, pf);
        }
        // Verdicts agree too (both Ok-with-solution here by
        // construction; still compare shape, not just the trace).
        prop_assert_eq!(rd.is_ok(), rf.is_ok());
        if let (Ok(Some(xd)), Ok(Some(xf))) = (rd, rf) {
            let (od, of) = (objective(&inst.costs, &xd), objective(&inst.costs, &xf));
            prop_assert!((od - of).abs() <= 1e-6 * (1.0 + od.abs().max(of.abs())),
                "same pivot path, different optimum: {od} vs {of}");
        }
    }

    /// Same property under maximal degeneracy (dependent rows force tie
    /// after tie through the Bland order).
    #[test]
    fn metamorphic_pivot_sequences_agree_on_degenerate_instances(seed in any::<u64>()) {
        let inst = degenerate_std_lp(seed);
        let csc = CscMatrix::from_dense(&inst.matrix());
        let (_, dense) =
            trace_pivots(TraceEngine::DenseInverse, &inst.costs, &csc, &inst.b, true);
        let (_, ft) = trace_pivots(TraceEngine::LuFt, &inst.costs, &csc, &inst.b, true);
        prop_assert_eq!(&dense, &ft, "degenerate pivot sequences diverged");
    }
}
