//! Property tests for vertex enumeration and Minkowski decomposition.
//!
//! The key oracle: for a *bounded* polyhedron, the support function computed
//! from the enumerated vertices must match the LP optimum in every direction.
//! For unbounded polyhedra we check soundness of the decomposition `P = Q + C`
//! by sampling points of `conv(V) + cone(R) + span(L)` and verifying they lie
//! in `P`.

use proptest::prelude::*;
use qava_lp::{Cmp, LinExpr, LpBuilder, LpSolver};
use qava_polyhedra::{Halfspace, Polyhedron};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// Random bounded polytope: a box plus random cuts that keep the origin.
fn random_polytope() -> impl Strategy<Value = Polyhedron> {
    (2usize..4, 0usize..6, any::<u64>()).prop_map(|(dim, ncuts, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cs = Vec::new();
        for j in 0..dim {
            let mut pos = vec![0.0; dim];
            pos[j] = 1.0;
            cs.push(Halfspace::le(pos.clone(), rng.gen_range(0.5..3.0)));
            let mut negc = vec![0.0; dim];
            negc[j] = -1.0;
            cs.push(Halfspace::le(negc, rng.gen_range(0.5..3.0)));
        }
        for _ in 0..ncuts {
            let coeffs: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            cs.push(Halfspace::le(coeffs, rng.gen_range(0.2..2.0)));
        }
        Polyhedron::from_constraints(dim, cs)
    })
}

/// Random possibly-unbounded polyhedron.
fn random_polyhedron() -> impl Strategy<Value = Polyhedron> {
    (2usize..4, 1usize..6, any::<u64>()).prop_map(|(dim, nrows, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let cs = (0..nrows)
            .map(|_| {
                let coeffs: Vec<f64> =
                    (0..dim).map(|_| rng.gen_range(-2.0..2.0_f64).round()).collect();
                Halfspace::le(coeffs, rng.gen_range(-1.0..3.0_f64).round())
            })
            .collect();
        Polyhedron::from_constraints(dim, cs)
    })
}

fn lp_support(p: &Polyhedron, dir: &[f64]) -> Result<f64, qava_lp::LpError> {
    let mut lp = LpBuilder::new();
    let vars: Vec<_> = (0..p.dim()).map(|j| lp.add_var(format!("x{j}"))).collect();
    for h in p.constraints() {
        let mut e = LinExpr::new();
        for (j, &c) in h.coeffs.iter().enumerate() {
            e = e.term(vars[j], c);
        }
        lp.constrain(e, Cmp::Le, h.rhs);
    }
    let mut obj = LinExpr::new();
    for (j, &c) in dir.iter().enumerate() {
        obj = obj.term(vars[j], c);
    }
    lp.maximize(obj);
    LpSolver::new().solve(&lp).map(|s| s.objective)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On bounded polytopes the vertex support function equals the LP optimum.
    #[test]
    fn support_function_matches_lp(p in random_polytope(), dseed in any::<u64>()) {
        let g = p.generators();
        if p.is_empty_in(&mut LpSolver::new()) {
            prop_assert!(g.vertices.is_empty());
            return Ok(());
        }
        prop_assert!(g.rays.is_empty(), "polytope has unexpected rays");
        prop_assert!(g.lines.is_empty(), "polytope has unexpected lines");
        prop_assert!(!g.vertices.is_empty());

        // Every vertex is feasible.
        for v in &g.vertices {
            prop_assert!(p.closure_contains(v, 1e-6), "vertex {v:?} infeasible");
        }

        let mut rng = StdRng::seed_from_u64(dseed);
        for _ in 0..8 {
            let dir: Vec<f64> = (0..p.dim()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let lp_val = lp_support(&p, &dir).expect("bounded & nonempty");
            let vert_val = g
                .vertices
                .iter()
                .map(|v| qava_linalg::vecops::dot(&dir, v))
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((lp_val - vert_val).abs() < 1e-5,
                "support mismatch in dir {dir:?}: lp {lp_val} vs vertices {vert_val}");
        }
    }

    /// Sampled combinations of the decomposition generators stay inside P.
    #[test]
    fn minkowski_samples_are_feasible(p in random_polyhedron(), sseed in any::<u64>()) {
        let Some((vertices, cone)) = p.minkowski_decompose() else {
            prop_assert!(p.is_empty_in(&mut LpSolver::new()), "decomposition failed on nonempty polyhedron");
            return Ok(());
        };
        let mut rng = StdRng::seed_from_u64(sseed);
        for _ in 0..20 {
            // Random convex combination of the vertices...
            let mut weights: Vec<f64> = vertices.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
            let mut x = vec![0.0; p.dim()];
            for (w, v) in weights.iter().zip(&vertices) {
                qava_linalg::vecops::axpy(*w, v, &mut x);
            }
            // ... plus non-negative multiples of rays ...
            for r in &cone.rays {
                qava_linalg::vecops::axpy(rng.gen_range(0.0..5.0), r, &mut x);
            }
            // ... plus arbitrary multiples of lines.
            for l in &cone.lines {
                qava_linalg::vecops::axpy(rng.gen_range(-5.0..5.0), l, &mut x);
            }
            prop_assert!(p.closure_contains(&x, 1e-5), "sample {x:?} escaped P");
        }
    }

    /// LP emptiness agrees with generator emptiness.
    #[test]
    fn emptiness_agreement(p in random_polyhedron()) {
        let lp_empty = p.is_empty_in(&mut LpSolver::new());
        let gen_empty = p.generators().vertices.is_empty();
        prop_assert_eq!(lp_empty, gen_empty,
            "LP and DD disagree on emptiness of {}", p);
    }
}
