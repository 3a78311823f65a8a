//! Independent numerical verification of synthesized templates.
//!
//! A synthesized template is only as trustworthy as the constraint
//! generation that produced it, so this module re-checks the fixed-point
//! inequalities *semantically*: it samples points of each transition's
//! `Ψ = I ∧ guard` (via the Minkowski generators) and evaluates
//!
//! ```text
//! Σ_j p_j · exp(α_j·v + β_j) · Π_s E[exp(γ_{j,s}·r_s)]
//! ```
//!
//! exactly (discrete sites by summation, uniform sites by closed-form MGF),
//! confirming `≤ 1` for pre fixed-points (upper bounds, Theorem 4.1/(1))
//! or `≥ 1` for post fixed-points (lower bounds, Theorem 4.1/(2)).

use crate::canonical::{canonicalize_in, CanonicalConstraint};
use crate::template::TemplateSpace;
use qava_convex::UniformMgf;
use qava_lp::LpSolver;
use qava_pts::Pts;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// A single fixed-point violation found by sampling.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Transition whose canonical constraint failed.
    pub transition_index: usize,
    /// The sampled valuation.
    pub point: Vec<f64>,
    /// The canonical left-hand side at that point.
    pub lhs: f64,
}

/// Checks the **pre** fixed-point property (`LHS ≤ 1`) of an exponential
/// template given by the raw solution vector over a fresh
/// `TemplateSpace::new(pts, false)` allocation.
///
/// # Errors
///
/// The list of sampled violations, if any.
pub fn check_pre_fixed_point(
    pts: &Pts,
    solution: &[f64],
    samples_per_constraint: usize,
    seed: u64,
) -> Result<(), Vec<Violation>> {
    check(pts, solution, samples_per_constraint, seed, true)
}

/// Checks the **post** fixed-point property (`LHS ≥ 1`).
///
/// # Errors
///
/// The list of sampled violations, if any.
pub fn check_post_fixed_point(
    pts: &Pts,
    solution: &[f64],
    samples_per_constraint: usize,
    seed: u64,
) -> Result<(), Vec<Violation>> {
    check(pts, solution, samples_per_constraint, seed, false)
}

fn check(
    pts: &Pts,
    solution: &[f64],
    samples_per_constraint: usize,
    seed: u64,
    pre: bool,
) -> Result<(), Vec<Violation>> {
    let space = TemplateSpace::new(pts, false);
    assert!(
        solution.len() >= space.len(),
        "solution vector shorter than the template space"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut violations = Vec::new();
    for con in canonicalize_in(pts, &space, &mut LpSolver::new()) {
        if con.terms.is_empty() {
            continue;
        }
        let Some((vertices, cone)) = con.guard.minkowski_decompose() else {
            continue;
        };
        for _ in 0..samples_per_constraint {
            let point = sample_point(&vertices, &cone, &mut rng);
            let lhs = canonical_lhs(&con, solution, &point);
            let ok = if pre { lhs <= 1.0 + 1e-6 } else { lhs >= 1.0 - 1e-6 };
            if !ok {
                violations.push(Violation {
                    transition_index: con.transition_index,
                    point,
                    lhs,
                });
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Samples a point of `conv(V) + cone(R) + span(L)`.
fn sample_point(
    vertices: &[Vec<f64>],
    cone: &qava_polyhedra::ConeGenerators,
    rng: &mut StdRng,
) -> Vec<f64> {
    let dim = vertices[0].len();
    let mut weights: Vec<f64> = vertices.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut x = vec![0.0; dim];
    for (w, v) in weights.iter_mut().zip(vertices) {
        *w /= total;
        qava_linalg::vecops::axpy(*w, v, &mut x);
    }
    for r in &cone.rays {
        qava_linalg::vecops::axpy(rng.gen_range(0.0..20.0), r, &mut x);
    }
    for l in &cone.lines {
        qava_linalg::vecops::axpy(rng.gen_range(-20.0..20.0), l, &mut x);
    }
    x
}

/// Evaluates the canonical left-hand side exactly at a concrete valuation.
pub(crate) fn canonical_lhs(con: &CanonicalConstraint, solution: &[f64], v: &[f64]) -> f64 {
    let mut total = 0.0;
    for term in &con.terms {
        let mut exponent = term.beta.eval(solution);
        for (a, &vk) in term.alpha.iter().zip(v) {
            exponent += a.eval(solution) * vk;
        }
        let mut factor = 1.0;
        for (dist, gamma) in &term.gammas {
            let g = gamma.eval(solution);
            factor *= match dist.discrete_points() {
                Some(points) => points.iter().map(|&(val, p)| p * (g * val).exp()).sum::<f64>(),
                None => {
                    let (lo, hi) = dist.support_bounds();
                    UniformMgf::new(lo, hi).value(g)
                }
            };
        }
        total += term.prob * exponent.exp() * factor;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn a_wrong_template_is_caught() {
        let src = r"
            x := 0;
            while x <= 9 invariant x <= 10 {
                if prob(0.5) { x := x + 1; } else { x := x + 1; }
            }
            assert x <= 5;
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let space = TemplateSpace::new(&pts, false);
        // The all-zeros template means θ ≡ 1 everywhere; the violation
        // transition contributes exp(0) = 1 and the loop 1 ≤ 1 holds, but a
        // positive slope on x breaks the loop constraint.
        let mut bad = vec![0.0; space.len()];
        let head = pts.loc_by_name("while@3").unwrap();
        bad[space.a_index(head, 0)] = 1.0; // θ grows with x but the loop increments x
        let r = check_pre_fixed_point(&pts, &bad, 50, 1);
        assert!(r.is_err(), "growing exponent cannot be a pre fixed-point");
    }
}
