//! Cross-solver property tests: the simplex (`qava-lp`) and the barrier
//! method (`qava-convex`) implement different algorithms for overlapping
//! problem classes — on random *linear* programs they must agree.

use proptest::prelude::*;
use qava::convex::{ConvexProblem, ExpSumConstraint, SolverOptions};
use qava::lp::{Cmp, LinExpr, LpBuilder, LpError, LpSolver};

/// A random bounded LP: minimize c·x over a box [0, B]^n cut by extra
/// halfspaces through its interior.
#[derive(Debug, Clone)]
struct RandomLp {
    n: usize,
    box_hi: f64,
    costs: Vec<f64>,
    cuts: Vec<(Vec<f64>, f64)>,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..5, 1.0f64..8.0).prop_flat_map(|(n, box_hi)| {
        let costs = proptest::collection::vec(-3.0f64..3.0, n);
        let cut = (proptest::collection::vec(-2.0f64..2.0, n), 0.5f64..6.0);
        let cuts = proptest::collection::vec(cut, 0..3);
        (Just(n), Just(box_hi), costs, cuts).prop_map(|(n, box_hi, costs, cuts)| RandomLp {
            n,
            box_hi,
            costs,
            cuts,
        })
    })
}

fn solve_with_simplex(lp: &RandomLp) -> Result<f64, LpError> {
    let mut b = LpBuilder::new();
    let xs: Vec<_> = (0..lp.n).map(|i| b.add_var_nonneg(format!("x{i}"))).collect();
    for &x in &xs {
        b.constrain(LinExpr::var(x, 1.0), Cmp::Le, lp.box_hi);
    }
    for (row, rhs) in &lp.cuts {
        let mut e = LinExpr::new();
        for (x, &c) in xs.iter().zip(row) {
            e = e.term(*x, c);
        }
        b.constrain(e, Cmp::Le, *rhs);
    }
    let mut obj = LinExpr::new();
    for (x, &c) in xs.iter().zip(&lp.costs) {
        obj = obj.term(*x, c);
    }
    b.minimize(obj);
    LpSolver::new().solve(&b).map(|s| s.objective)
}

fn solve_with_barrier(lp: &RandomLp) -> Result<f64, qava::convex::ConvexError> {
    let mut p = ConvexProblem::new(lp.n);
    p.set_objective(lp.costs.clone());
    for i in 0..lp.n {
        let mut up = vec![0.0; lp.n];
        up[i] = 1.0;
        p.add_constraint(ExpSumConstraint::linear(up, lp.box_hi));
        let mut down = vec![0.0; lp.n];
        down[i] = -1.0;
        p.add_constraint(ExpSumConstraint::linear(down, 0.0));
    }
    for (row, rhs) in &lp.cuts {
        p.add_constraint(ExpSumConstraint::linear(row.clone(), *rhs));
    }
    let opts = SolverOptions { tol: 1e-10, ..SolverOptions::default() };
    p.solve(&opts).map(|s| s.objective)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On feasible bounded LPs the two solvers agree to interior-point
    /// accuracy. (The box always contains 0, so feasibility only fails if
    /// a cut excludes the whole box — the simplex detects that; we only
    /// compare when both succeed.)
    #[test]
    fn simplex_and_barrier_agree(lp in random_lp()) {
        let s = solve_with_simplex(&lp);
        let b = solve_with_barrier(&lp);
        if let (Ok(s), Ok(b)) = (s, b) {
            // Interior-point accuracy on these scales is ~1e-6 absolute.
            prop_assert!(
                (s - b).abs() < 1e-4 * (1.0 + s.abs()),
                "simplex {s} vs barrier {b}"
            );
        }
    }

    /// The simplex never reports an objective better than a feasible point
    /// exhibits (lower-bound sanity via the barrier's strictly feasible
    /// iterate).
    #[test]
    fn simplex_objective_is_a_true_minimum(lp in random_lp()) {
        if let Ok(s) = solve_with_simplex(&lp) {
            // The origin is always feasible with objective 0.
            prop_assert!(s <= 1e-9, "minimizing over a box containing 0 can't exceed 0, got {s}");
        }
    }
}
