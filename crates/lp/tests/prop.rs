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
        let sol = LpSolver::new().solve(&builder).expect("constructed LP is feasible and bounded");
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

    /// Solving the same LP twice in one session gives the same optimal
    /// value (determinism, with the second solve warm-started).
    #[test]
    fn deterministic(instance in random_lp_strategy()) {
        let (b1, _) = build(&instance);
        let (b2, _) = build(&instance);
        let mut solver = LpSolver::new();
        let o1 = solver.solve(&b1).unwrap().objective;
        let o2 = solver.solve(&b2).unwrap().objective;
        prop_assert!((o1 - o2).abs() < 1e-9);
    }

    /// Adding a redundant constraint (implied by an existing one) never
    /// changes the optimum.
    #[test]
    fn redundant_row_invariance(instance in random_lp_strategy()) {
        let (b1, _) = build(&instance);
        let base = LpSolver::new().solve(&b1).unwrap().objective;

        let mut relaxed = instance.clone();
        let (coeffs, rhs) = relaxed.rows[0].clone();
        relaxed.rows.push((coeffs, rhs + 1.0)); // strictly weaker copy
        let (b2, _) = build(&relaxed);
        let with_redundant = LpSolver::new().solve(&b2).unwrap().objective;
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

// ---------------------------------------------------------------------
// Prepared right-hand-side families (`LpSolver::prepare` /
// `solve_prepared`): every member must come out exactly as an ordinary
// solve of the model rebuilt with that member's right-hand sides — the
// same bits, the same verdict, the same work and the same session state.
// The twin session rebuilds and calls `solve`; the prepared session
// replays the prepared presolve, or falls back to the full pipeline.
// ---------------------------------------------------------------------

use qava_lp::debug::prepared_counts;
use qava_lp::{FaultKind, FaultPlan, LpSolution, LpStats, PreparedLp, RowId};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A model row: `(terms, expression constant, cmp, rhs)`.
type ModelRow = (Vec<(usize, f64)>, f64, Cmp, f64);

/// A builder model plus a sequence of members: new right-hand sides for
/// the `family` rows.
#[derive(Debug, Clone)]
struct FamilyModel {
    nonneg: Vec<bool>,
    rows: Vec<ModelRow>,
    objective: Vec<f64>,
    maximize: bool,
    family: Vec<usize>,
    members: Vec<Vec<f64>>,
}

impl FamilyModel {
    /// The model with `rhs` on the family rows (`None`: the base model).
    fn build(&self, rhs: Option<&[f64]>) -> (LpBuilder, Vec<RowId>) {
        let mut b = LpBuilder::new();
        let vars: Vec<VarId> = self
            .nonneg
            .iter()
            .enumerate()
            .map(|(j, &nn)| if nn { b.add_var_nonneg(format!("x{j}")) } else { b.add_var(format!("x{j}")) })
            .collect();
        let mut ids = Vec::new();
        for (i, (terms, constant, cmp, base)) in self.rows.iter().enumerate() {
            let mut e = LinExpr::new().constant(*constant);
            for &(j, c) in terms {
                e = e.term(vars[j], c);
            }
            let value = match (rhs, self.family.iter().position(|&f| f == i)) {
                (Some(rhs), Some(k)) => rhs[k],
                _ => *base,
            };
            ids.push(b.constrain(e, *cmp, value));
        }
        let mut obj = LinExpr::new();
        for (j, &c) in self.objective.iter().enumerate() {
            obj = obj.term(vars[j], c);
        }
        if self.maximize {
            b.maximize(obj);
        } else {
            b.minimize(obj);
        }
        (b, ids)
    }

    fn patches(&self, ids: &[RowId], rhs: &[f64]) -> Vec<(RowId, f64)> {
        self.family.iter().zip(rhs).map(|(&i, &v)| (ids[i], v)).collect()
    }
}

/// A bounded model around a feasible anchor with the structure presolve
/// reduces: a singleton equality fixing a non-negative variable (its
/// substitution turns inequality rows into singletons in turn), an
/// equality row and its exact double (a duplicate pair), an empty
/// equality, and constants folded into right-hand sides. Members move
/// one to three rows' right-hand sides: mostly small steps (often
/// leaving the optimal basis in place), sometimes a repeat, sometimes a
/// jump past zero that flips the row's sign.
fn family_model(seed: u64) -> FamilyModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = rng.gen_range(2usize..6);
    let nonneg: Vec<bool> = (0..dim).map(|_| rng.gen_bool(0.6)).collect();
    let anchor: Vec<f64> = (0..dim)
        .map(|j| if nonneg[j] { rng.gen_range(0.0..3.0) } else { rng.gen_range(-2.0..2.0) })
        .collect();
    let mut rows = Vec::new();
    for j in 0..dim {
        rows.push((vec![(j, 1.0)], 0.0, Cmp::Le, anchor[j] + rng.gen_range(0.5..3.0)));
        if !nonneg[j] {
            rows.push((vec![(j, 1.0)], 0.0, Cmp::Ge, anchor[j] - rng.gen_range(0.5..3.0)));
        }
    }
    for _ in 0..rng.gen_range(1usize..5) {
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for j in 0..dim {
            if rng.gen_bool(0.7) {
                terms.push((j, rng.gen_range(-3.0..3.0)));
            }
        }
        let at: f64 = terms.iter().map(|&(j, c)| c * anchor[j]).sum();
        let constant = if rng.gen_bool(0.3) { rng.gen_range(-2.0..2.0) } else { 0.0 };
        rows.push((terms, constant, Cmp::Le, at + constant + rng.gen_range(0.1..2.0)));
    }
    if let Some(j) = (0..dim).find(|&j| nonneg[j]) {
        if rng.gen_bool(0.7) {
            let c = rng.gen_range(0.5..2.0);
            rows.push((vec![(j, c)], 0.0, Cmp::Eq, c * anchor[j]));
        }
    }
    if rng.gen_bool(0.5) {
        let terms: Vec<(usize, f64)> = (0..dim).map(|j| (j, rng.gen_range(0.5..2.0))).collect();
        let at: f64 = terms.iter().map(|&(j, c)| c * anchor[j]).sum();
        let doubled: Vec<(usize, f64)> = terms.iter().map(|&(j, c)| (j, 2.0 * c)).collect();
        rows.push((terms, 0.0, Cmp::Eq, at));
        rows.push((doubled, 0.0, Cmp::Eq, 2.0 * at));
    }
    if rng.gen_bool(0.3) {
        rows.push((Vec::new(), 0.0, Cmp::Eq, 0.0));
    }
    let objective: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let nfam = rng.gen_range(1usize..4).min(rows.len());
    let mut family: Vec<usize> = Vec::new();
    while family.len() < nfam {
        let i = rng.gen_range(0..rows.len());
        if !family.contains(&i) {
            family.push(i);
        }
    }
    let mut current: Vec<f64> = family.iter().map(|&i| rows[i].3).collect();
    let members = (0..rng.gen_range(3usize..8))
        .map(|_| {
            for v in current.iter_mut() {
                let roll: f64 = rng.gen_range(0.0..1.0);
                if roll < 0.08 {
                    *v = -*v - rng.gen_range(0.0..1.0);
                } else if roll < 0.85 {
                    *v += rng.gen_range(-0.3..0.3);
                }
            }
            current.clone()
        })
        .collect();
    FamilyModel { nonneg, rows, objective, maximize: rng.gen_bool(0.5), family, members }
}

fn session(choice: usize) -> LpSolver {
    let choice = [BackendChoice::Auto, BackendChoice::Sparse, BackendChoice::LuFt, BackendChoice::Dense]
        [choice % 4];
    LpSolver::with_choice(choice)
}

/// The statistics with the wall times zeroed: everything a prepared
/// solve must leave exactly as an ordinary one does.
fn work(stats: &LpStats) -> LpStats {
    let mut w = stats.clone();
    w.wall_seconds = 0.0;
    for t in &mut w.backends {
        t.wall_seconds = 0.0;
    }
    w
}

fn same_result(
    prepared: &Result<LpSolution, LpError>,
    rebuilt: &Result<LpSolution, LpError>,
) -> Result<(), String> {
    match (prepared, rebuilt) {
        (Ok(p), Ok(r)) => {
            let pb: Vec<u64> = p.values().iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u64> = r.values().iter().map(|v| v.to_bits()).collect();
            if pb != rb || p.objective.to_bits() != r.objective.to_bits() {
                return Err(format!(
                    "values {:?} / objective {} vs rebuilt {:?} / {}",
                    p.values(),
                    p.objective,
                    r.values(),
                    r.objective
                ));
            }
            Ok(())
        }
        (Err(p), Err(r)) if p == r => Ok(()),
        _ => Err(format!("verdict {prepared:?} vs rebuilt {rebuilt:?}")),
    }
}

/// Runs every member through a prepared LP on `prep_session` and through
/// rebuild-and-solve on `twin`, comparing after each member.
fn run_family(
    model: &FamilyModel,
    prep_session: &mut LpSolver,
    twin: &mut LpSolver,
) -> Result<PreparedLp, String> {
    let (base, ids) = model.build(None);
    let mut prep = prep_session.prepare(&base);
    for (k, rhs) in model.members.iter().enumerate() {
        let got = prep_session.solve_prepared(&mut prep, &model.patches(&ids, rhs));
        let want = twin.solve(&model.build(Some(rhs)).0);
        same_result(&got, &want).map_err(|e| format!("member {k}: {e}"))?;
        if work(prep_session.stats()) != work(twin.stats()) {
            return Err(format!(
                "member {k}: stats {:?} vs rebuilt {:?}",
                prep_session.stats(),
                twin.stats()
            ));
        }
        if prep_session.fault_fired() != twin.fault_fired() {
            return Err(format!("member {k}: fault fired differently"));
        }
    }
    let (replays, fallbacks) = prepared_counts(&prep);
    if replays + fallbacks > model.members.len() {
        return Err(format!("{replays} replays + {fallbacks} fallbacks, {} members", model.members.len()));
    }
    Ok(prep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every member of a prepared family equals an ordinary solve of the
    /// rebuilt model by `to_bits`, with the same verdicts and statistics.
    #[test]
    fn prepared_family_matches_rebuilt_solves(
        seed in any::<u64>(),
        choice in 0usize..4,
    ) {
        let model = family_model(seed);
        let mut prep_session = session(choice);
        let mut twin = session(choice);
        let run = run_family(&model, &mut prep_session, &mut twin);
        prop_assert!(run.is_ok(), "{}", run.unwrap_err());
    }

    /// Every single-fault plan fires at the same site, with the same
    /// outcome, through the prepared path as through ordinary solves.
    #[test]
    fn prepared_family_matches_under_every_single_fault(
        seed in any::<u64>(),
        choice in 0usize..4,
    ) {
        let model = family_model(seed);
        let kinds = [
            FaultKind::RefactorFail,
            FaultKind::ShakyPivot,
            FaultKind::AccuracyTrip,
            FaultKind::PivotLimit,
            FaultKind::WarmPoison,
            FaultKind::Deadline,
        ];
        for kind in kinds {
            for nth in 1..=3 {
                let mut prep_session = session(choice);
                let mut twin = session(choice);
                prep_session.install_fault_plan(FaultPlan::new(kind, nth));
                twin.install_fault_plan(FaultPlan::new(kind, nth));
                let run = run_family(&model, &mut prep_session, &mut twin);
                prop_assert!(run.is_ok(), "{}:{nth}: {}", kind.label(), run.unwrap_err());
            }
        }
    }
}

/// `model` with member sequences aimed at the factorization memo's
/// take-back paths. Every member is repeated one to three times: a
/// repeat's warm run makes no pivot, so the prepared LP keeps the fresh
/// factorization of its basis and the next repeat reuses it. Between
/// members, a jump moves the family rows far (scaled, shifted, or
/// flipped), so the cached warm basis is mostly primal infeasible there:
/// the warm start is rejected before any pivot, hands its factorization
/// back, and the member after the jump may warm-start from that same
/// basis again.
fn memo_model(seed: u64) -> FamilyModel {
    let mut model = family_model(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F00D);
    let mut members = Vec::new();
    for member in &model.members {
        for _ in 0..rng.gen_range(1usize..4) {
            members.push(member.clone());
        }
        if rng.gen_bool(0.6) {
            let jump: Vec<f64> = member
                .iter()
                .map(|&v| match rng.gen_range(0u8..3) {
                    0 => v * rng.gen_range(-4.0..4.0),
                    1 => v + rng.gen_range(-5.0..5.0),
                    _ => -v,
                })
                .collect();
            for _ in 0..rng.gen_range(1usize..3) {
                members.push(jump.clone());
            }
            members.push(member.clone());
        }
    }
    model.members = members;
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Repeated members and jumps to members whose warm basis is primal
    /// infeasible — the runs whose factorization goes back to the memo
    /// and is reused — equal ordinary solves of the rebuilt models by
    /// `to_bits`, with the same verdicts and statistics, on the two
    /// warm-starting engines and under the automatic choice.
    #[test]
    fn prepared_family_matches_rebuilt_through_factor_reuse(
        seed in any::<u64>(),
        choice in 0usize..3,
    ) {
        let model = memo_model(seed);
        let mut prep_session = session(choice);
        let mut twin = session(choice);
        let run = run_family(&model, &mut prep_session, &mut twin);
        prop_assert!(run.is_ok(), "{}", run.unwrap_err());
    }
}

/// One fixed family through both warm-starting engines: a repeated
/// member (zero-pivot warm runs), jumps whose warm basis is primal
/// infeasible — to infeasible members (`0.9·x0 + 1.1·x1 + 0.7·x2 ≤ r0`
/// cut below what `0.8·x1 + 1.9·x2 ≥ r2` demands) and to a feasible
/// one — some repeated, and returns to the first member's basis. The
/// coefficients are not dyadic, so a factorization updated by a pivot
/// differs from a fresh one in its last bits.
#[test]
fn prepared_factor_memo_take_back_matches_rebuilt() {
    let model = FamilyModel {
        nonneg: vec![true, true, true],
        rows: vec![
            (vec![(0, 0.9), (1, 1.1), (2, 0.7)], 0.0, Cmp::Le, 4.0),
            (vec![(0, 1.3), (1, -0.6)], 0.0, Cmp::Le, 1.1),
            (vec![(1, 0.8), (2, 1.9)], 0.0, Cmp::Ge, 1.0),
            (vec![(0, 1.2), (2, -0.9)], 0.0, Cmp::Le, 2.3),
        ],
        objective: vec![-2.1, -1.3, 0.7],
        maximize: false,
        family: vec![0, 2],
        members: vec![
            vec![4.0, 1.0],
            vec![4.0, 1.0],
            vec![4.0, 1.0],
            vec![0.5, 3.0],
            vec![0.5, 3.0],
            vec![4.0, 1.0],
            vec![4.0, 1.0],
            vec![0.2, 5.0],
            vec![4.0, 1.0],
            vec![2.0, 3.0],
            vec![2.0, 3.0],
            vec![4.0, 1.0],
        ],
    };
    for choice in 1..3 {
        let mut prep_session = session(choice);
        let mut twin = session(choice);
        run_family(&model, &mut prep_session, &mut twin)
            .unwrap_or_else(|e| panic!("choice {choice}: {e}"));
    }
}

/// A family whose members all replay the prepared presolve: the
/// differential tests above must not pass vacuously on fallbacks, and
/// an unchanged warm basis must not change a bit (its factorization is
/// reused, not recomputed).
#[test]
fn prepared_family_replays_when_nothing_flips() {
    for choice in 0..4 {
        let model = FamilyModel {
            nonneg: vec![true, true, false],
            rows: vec![
                (vec![(0, 1.0), (1, 1.0), (2, 1.0)], 0.0, Cmp::Le, 4.0),
                (vec![(0, 1.0), (1, -1.0)], 0.5, Cmp::Le, 2.5),
                (vec![(2, 1.0)], 0.0, Cmp::Ge, -1.0),
                (vec![(2, 1.0)], 0.0, Cmp::Le, 3.0),
                (vec![(0, 2.0)], 0.0, Cmp::Eq, 1.0),
            ],
            objective: vec![-1.0, -2.0, -0.5],
            maximize: false,
            family: vec![0, 4],
            members: vec![
                vec![4.0, 1.0],
                vec![4.0, 1.0],
                vec![4.5, 1.0],
                vec![4.5, 1.5],
                vec![3.0, 0.5],
                vec![3.0, 0.5],
            ],
        };
        let mut prep_session = session(choice);
        let mut twin = session(choice);
        let prep = run_family(&model, &mut prep_session, &mut twin).unwrap();
        assert_eq!(prepared_counts(&prep), (6, 0), "choice {choice}");
    }
}

/// A forced fallback: under every backend choice, the last member of
/// `model` must fall back to the full pipeline (every earlier member
/// replays), match the rebuilt solve, and reach the verdict `want`.
fn assert_falls_back(model: &FamilyModel, want: Result<(), LpError>) {
    for choice in 0..4 {
        let mut prep_session = session(choice);
        let mut twin = session(choice);
        let prep = run_family(model, &mut prep_session, &mut twin).unwrap();
        let (replays, fallbacks) = prepared_counts(&prep);
        assert_eq!(fallbacks, 1, "choice {choice}: the member must fall back");
        assert_eq!(replays, model.members.len() - 1, "choice {choice}");
        let last = model.members.last().unwrap();
        let got = LpSolver::with_choice(BackendChoice::Dense)
            .solve(&model.build(Some(last)).0)
            .map(|_| ());
        assert_eq!(got, want, "choice {choice}");
    }
}

#[test]
fn prepared_fallback_singleton_fix_turning_negative() {
    // −x = r fixes x = −r: 0 at r = 0, clearly negative at r = 1 while
    // the row still lowers with the same sign.
    let model = FamilyModel {
        nonneg: vec![true, true],
        rows: vec![
            (vec![(0, -1.0)], 0.0, Cmp::Eq, 0.0),
            (vec![(0, 1.0), (1, 1.0)], 0.0, Cmp::Le, 3.0),
        ],
        objective: vec![-1.0, -1.0],
        maximize: false,
        family: vec![0],
        members: vec![vec![0.0], vec![1.0]],
    };
    assert_falls_back(&model, Err(LpError::Infeasible));
}

#[test]
fn prepared_fallback_duplicate_pair_changing_class() {
    // x + y = 1 and 2x + 2y = r: a dropped copy at r = 2; borderline
    // (kept for the simplex) at r = 2 + 2e-9; infeasible at r = 2.5.
    let dup = |r: f64| FamilyModel {
        nonneg: vec![true, true],
        rows: vec![
            (vec![(0, 1.0), (1, 1.0)], 0.0, Cmp::Eq, 1.0),
            (vec![(0, 2.0), (1, 2.0)], 0.0, Cmp::Eq, 2.0),
            (vec![(0, 1.0), (1, -1.0)], 0.0, Cmp::Le, 0.5),
        ],
        objective: vec![1.0, 2.0],
        maximize: false,
        family: vec![1],
        members: vec![vec![2.0], vec![r]],
    };
    assert_falls_back(&dup(2.0 + 2e-9), Ok(()));
    assert_falls_back(&dup(2.5), Err(LpError::Infeasible));
}

#[test]
fn prepared_fallback_empty_row_exceeding_tolerance() {
    let model = FamilyModel {
        nonneg: vec![true, true],
        rows: vec![
            (Vec::new(), 0.0, Cmp::Eq, 0.0),
            (vec![(0, 1.0), (1, 1.0)], 0.0, Cmp::Le, 3.0),
        ],
        objective: vec![-1.0, -1.0],
        maximize: false,
        family: vec![0],
        members: vec![vec![0.0], vec![1e-12], vec![1e-3]],
    };
    assert_falls_back(&model, Err(LpError::Infeasible));
}

#[test]
fn prepared_fallback_patched_row_changing_sign() {
    // x + y ≤ r over a free y: r = 3 lowers as is, r = −1 negated.
    let model = FamilyModel {
        nonneg: vec![true, false],
        rows: vec![
            (vec![(0, 1.0), (1, 1.0)], 0.0, Cmp::Le, 3.0),
            (vec![(1, 1.0)], 0.0, Cmp::Ge, -5.0),
            (vec![(0, 1.0)], 0.0, Cmp::Le, 2.0),
        ],
        objective: vec![-1.0, -1.0],
        maximize: false,
        family: vec![0],
        members: vec![vec![3.0], vec![2.0], vec![-1.0]],
    };
    assert_falls_back(&model, Ok(()));
}

/// The deadline and the cancel flag stop prepared members at the same
/// boundary, without counting them, exactly as they stop `solve`.
#[test]
fn prepared_family_honors_deadline_and_cancel_flag() {
    let model = family_model(42);
    let (base, ids) = model.build(None);
    for choice in 0..4 {
        let mut prep_session = session(choice);
        let mut twin = session(choice);
        let mut prep = prep_session.prepare(&base);
        let flag = Arc::new(AtomicBool::new(false));
        prep_session.add_cancel_flag(flag.clone());
        twin.add_cancel_flag(flag.clone());
        for (k, rhs) in model.members.iter().enumerate() {
            if k == 2 {
                flag.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            let got = prep_session.solve_prepared(&mut prep, &model.patches(&ids, rhs));
            let want = twin.solve(&model.build(Some(rhs)).0);
            same_result(&got, &want).unwrap();
            if k >= 2 {
                assert_eq!(got.unwrap_err(), LpError::Cancelled);
            }
        }
        assert_eq!(work(prep_session.stats()), work(twin.stats()));

        let mut prep_session = session(choice);
        let mut twin = session(choice);
        let mut prep = prep_session.prepare(&base);
        prep_session.set_deadline_in(std::time::Duration::ZERO);
        twin.set_deadline_in(std::time::Duration::ZERO);
        let rhs = &model.members[0];
        let got = prep_session.solve_prepared(&mut prep, &model.patches(&ids, rhs));
        let want = twin.solve(&model.build(Some(rhs)).0);
        assert_eq!(got.unwrap_err(), LpError::Cancelled);
        assert_eq!(want.unwrap_err(), LpError::Cancelled);
        assert_eq!(prep_session.stats().solves, 0);
        assert_eq!(prepared_counts(&prep), (0, 0));
    }
}
