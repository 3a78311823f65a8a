//! Farkas' lemma as a constraint compiler (Lemma 2 of the paper).
//!
//! Every quantified implication the LP-based algorithms generate has the
//! shape
//!
//! ```text
//! ∀v ∈ P = {v | A·v ≤ b} :   c(x)·v ≤ d(x)
//! ```
//!
//! with `c`, `d` affine in the template unknowns `x`. For nonempty `P`,
//! Farkas' lemma makes this equivalent to
//!
//! ```text
//! ∃y ≥ 0 :   yᵀA = c(x)  ∧  yᵀb ≤ d(x)
//! ```
//!
//! which is *jointly linear* in `(x, y)` because `A`, `b` are constants.
//! [`encode_implication`] emits exactly these rows into an [`LpBuilder`],
//! allocating the fresh multipliers. The empty-`A` degenerate case (`P` is
//! the whole space) compiles to `c(x) = 0 ∧ 0 ≤ d(x)`.
//!
//! This module only *encodes*; solving happens wherever the synthesis
//! layer threads its [`qava_lp::LpSolver`] session, so consecutive Farkas
//! LPs of one run share that session's warm-start cache.

use crate::template::UCoef;
use qava_lp::{Cmp, LinExpr, LpBuilder, RowId, VarId};
use qava_polyhedra::Polyhedron;

/// Emits the Farkas encoding of `∀v ∈ closure(poly): c(x)·v ≤ d(x)`
/// and returns the row `yᵀb − d(x) ≤ d.constant`, the only row whose
/// right-hand side depends on `d`'s constant.
///
/// `unknowns[i]` must be the LP variable of template unknown `i`; `c` has
/// one entry per dimension of `poly`.
///
/// # Panics
///
/// Panics if `c.len() != poly.dim()`.
pub fn encode_implication(
    lp: &mut LpBuilder,
    unknowns: &[VarId],
    poly: &Polyhedron,
    c: &[UCoef],
    d: &UCoef,
) -> RowId {
    assert_eq!(c.len(), poly.dim(), "coefficient count must match dimension");
    let rows = poly.constraints();
    let ys: Vec<VarId> = (0..rows.len())
        .map(|i| lp.add_var_nonneg(format!("farkas_y{i}")))
        .collect();

    // yᵀA = c(x): one equality per dimension.
    for (j, cj) in c.iter().enumerate() {
        let mut e = LinExpr::new();
        for (i, h) in rows.iter().enumerate() {
            e = e.term(ys[i], h.coeffs[j]);
        }
        // Move c(x) to the left: yᵀA − c(x) = 0.
        e = sub_ucoef(e, cj, unknowns);
        lp.constrain(e, Cmp::Eq, cj.constant);
    }

    // yᵀb ≤ d(x)  ⇔  yᵀb − d(x) ≤ 0.
    let mut e = LinExpr::new();
    for (i, h) in rows.iter().enumerate() {
        e = e.term(ys[i], h.rhs);
    }
    e = sub_ucoef(e, d, unknowns);
    lp.constrain(e, Cmp::Le, d.constant)
}

/// Subtracts the linear part of a [`UCoef`] from an expression (its constant
/// is handled by the caller on the right-hand side).
fn sub_ucoef(mut e: LinExpr, u: &UCoef, unknowns: &[VarId]) -> LinExpr {
    for (idx, &coef) in u.lin.iter().enumerate() {
        if coef != 0.0 {
            e = e.term(unknowns[idx], -coef);
        }
    }
    e
}

/// Convenience: `∀v ∈ closure(poly): lhs(x, v) ≥ 0` where
/// `lhs = c(x)·v + d(x)`, encoded as the implication `−c(x)·v ≤ d(x)`.
pub fn encode_nonnegativity(
    lp: &mut LpBuilder,
    unknowns: &[VarId],
    poly: &Polyhedron,
    c: &[UCoef],
    d: &UCoef,
) {
    let neg: Vec<UCoef> = c.iter().map(UCoef::negated).collect();
    encode_implication(lp, unknowns, poly, &neg, d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qava_polyhedra::Halfspace;

    /// Solves: does there exist a template value making the implication
    /// hold, optimizing `objective` over the single unknown? Solved
    /// through an explicit session, as the synthesis layers do.
    fn probe(
        poly: &Polyhedron,
        mk: impl Fn(usize) -> (Vec<UCoef>, UCoef),
        maximize: bool,
    ) -> Result<f64, qava_lp::LpError> {
        let mut solver = qava_lp::LpSolver::new();
        let mut lp = LpBuilder::new();
        let x = lp.add_var("x0");
        let (c, d) = mk(1);
        encode_implication(&mut lp, &[x], poly, &c, &d);
        if maximize {
            lp.maximize(LinExpr::var(x, 1.0));
        } else {
            lp.minimize(LinExpr::var(x, 1.0));
        }
        solver.solve(&lp).map(|s| s.value(x))
    }

    #[test]
    fn bound_recovery_on_interval() {
        // ∀v ∈ [0, 5]: v ≤ x  ⇔  x ≥ 5. Minimizing x must yield 5.
        let poly = Polyhedron::from_constraints(
            1,
            vec![Halfspace::le(vec![1.0], 5.0), Halfspace::ge(vec![1.0], 0.0)],
        );
        let x_min = probe(
            &poly,
            |n| {
                // c(x)·v = 1·v, d(x) = x.
                let c = vec![UCoef::constant(n, 1.0)];
                let mut d = UCoef::zero(n);
                d.add_unknown(0, 1.0);
                (c, d)
            },
            false,
        )
        .unwrap();
        assert!((x_min - 5.0).abs() < 1e-7, "got {x_min}");
    }

    #[test]
    fn slope_forced_on_unbounded_set() {
        // ∀v ≥ 0: x·v ≤ 1 forces x ≤ 0. Maximizing x gives 0.
        let poly = Polyhedron::from_constraints(1, vec![Halfspace::ge(vec![1.0], 0.0)]);
        let x_max = probe(
            &poly,
            |n| {
                let mut cx = UCoef::zero(n);
                cx.add_unknown(0, 1.0);
                (vec![cx], UCoef::constant(n, 1.0))
            },
            true,
        )
        .unwrap();
        assert!(x_max.abs() < 1e-7, "got {x_max}");
    }

    #[test]
    fn whole_space_forces_zero_coefficients() {
        // ∀v ∈ ℝ: x·v ≤ 0 forces x = 0 (empty A ⇒ c(x) = 0).
        let poly = Polyhedron::universe(1);
        let x_max = probe(
            &poly,
            |n| {
                let mut cx = UCoef::zero(n);
                cx.add_unknown(0, 1.0);
                (vec![cx], UCoef::zero(n))
            },
            true,
        )
        .unwrap();
        assert!(x_max.abs() < 1e-9);
    }

    #[test]
    fn infeasible_implication_detected() {
        // ∀v ∈ ℝ: 1·v ≤ x is impossible for any x (c constant nonzero,
        // universe quantification).
        let poly = Polyhedron::universe(1);
        let r = probe(
            &poly,
            |n| {
                let c = vec![UCoef::constant(n, 1.0)];
                let mut d = UCoef::zero(n);
                d.add_unknown(0, 1.0);
                (c, d)
            },
            false,
        );
        assert_eq!(r.unwrap_err(), qava_lp::LpError::Infeasible);
    }

    #[test]
    fn nonnegativity_helper() {
        // ∀v ∈ [2, 3]: v + x ≥ 0  ⇔  x ≥ −2. Minimizing x gives −2.
        let poly = Polyhedron::from_constraints(
            1,
            vec![Halfspace::le(vec![1.0], 3.0), Halfspace::ge(vec![1.0], 2.0)],
        );
        let mut lp = LpBuilder::new();
        let x = lp.add_var("x0");
        let c = vec![UCoef::constant(1, 1.0)];
        let mut d = UCoef::zero(1);
        d.add_unknown(0, 1.0);
        encode_nonnegativity(&mut lp, &[x], &poly, &c, &d);
        lp.minimize(LinExpr::var(x, 1.0));
        let sol = qava_lp::LpSolver::new().solve(&lp).unwrap();
        assert!((sol.value(x) + 2.0).abs() < 1e-7, "got {}", sol.value(x));
    }
}
