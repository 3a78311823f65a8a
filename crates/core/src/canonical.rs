//! Canonicalization of pre/post fixed-point constraints (Step 3 of
//! ExpLinSyn, §5.2, shared with ExpLowSyn, §6).
//!
//! For a transition `τ = (ℓ, φ, F₁ … F_k)` and exponential templates
//! `θ(ℓ, v) = exp(a_ℓ·v + b_ℓ)`, dividing the fixed-point inequality by
//! `θ(ℓ, v)` yields the canonical form
//!
//! ```text
//! Σ_j p_j · exp(α_j·v + β_j) · Π_s E[exp(γ_{j,s}·r_s)]   ⋚   1
//! ```
//!
//! over `Ψ = I(ℓ) ∧ φ`, where for a fork with destination `d`, update
//! `v' = Q·v + Σ_s c_s·r_s + e`:
//!
//! * `α_j = a_d·Q − a_ℓ`,
//! * `β_j = a_d·e + b_d − b_ℓ`,
//! * `γ_{j,s} = a_d·c_s`;
//!
//! forks to `ℓ_f` contribute `α = −a_ℓ, β = −b_ℓ` (since `θ(ℓ_f) ≡ 1`), and
//! forks to `ℓ_t` vanish (`θ(ℓ_t) ≡ 0`) but their probability mass is
//! remembered for the `Q = Σ' p_j` factor of the Jensen strengthening.

use crate::template::{TemplateSpace, UCoef};
use qava_pts::{Distribution, LocId, Pts};
use qava_polyhedra::Polyhedron;

/// One fork of a canonical constraint.
#[derive(Debug, Clone)]
pub struct CanonicalTerm {
    /// Fork probability `p_j`.
    pub prob: f64,
    /// `α_j` — one affine-in-unknowns coefficient per program variable.
    pub alpha: Vec<UCoef>,
    /// `β_j`.
    pub beta: UCoef,
    /// `(distribution, γ_{j,s})` per sampling site of the fork's update.
    pub gammas: Vec<(Distribution, UCoef)>,
}

/// The canonical constraint of one transition.
#[derive(Debug, Clone)]
pub struct CanonicalConstraint {
    /// Source location.
    pub src: LocId,
    /// Index of the transition in `pts.transitions()`.
    pub transition_index: usize,
    /// `Ψ = I(src) ∧ guard` (closure).
    pub guard: Polyhedron,
    /// Non-vanishing fork terms.
    pub terms: Vec<CanonicalTerm>,
    /// Probability mass of forks into `ℓ_t` (vanishing terms).
    pub mass_to_terminal: f64,
}

impl CanonicalConstraint {
    /// `Q = Σ' p_j`, the paper's normalization constant of Step 4 (§6).
    pub fn live_mass(&self) -> f64 {
        1.0 - self.mass_to_terminal
    }
}

/// Canonicalizes every transition of `pts` whose `Ψ` is nonempty, with
/// the `Ψ`-emptiness probes threaded through an explicit solver session.
///
/// The `space` must have been created with `include_absorbing = false`:
/// absorbing locations have no template in the exponential algorithms.
pub fn canonicalize_in(
    pts: &Pts,
    space: &TemplateSpace,
    solver: &mut qava_lp::LpSolver,
) -> Vec<CanonicalConstraint> {
    let n = space.len();
    let nvars = pts.num_vars();
    let mut out = Vec::new();
    for (ti, t) in pts.transitions().iter().enumerate() {
        let psi = pts.invariant(t.src).intersection(&t.guard);
        if psi.is_empty_in(solver) {
            continue;
        }
        let mut terms = Vec::new();
        let mut mass_to_terminal = 0.0;
        for fork in &t.forks {
            if fork.dest == pts.terminal_location() {
                mass_to_terminal += fork.prob;
                continue;
            }
            let mut alpha: Vec<UCoef> = (0..nvars).map(|_| UCoef::zero(n)).collect();
            let mut beta = UCoef::zero(n);
            let mut gammas = Vec::new();
            // −a_ℓ·v − b_ℓ from dividing by θ(src).
            for (k, a) in alpha.iter_mut().enumerate() {
                a.add_unknown(space.a_index(t.src, k), -1.0);
            }
            beta.add_unknown(space.b_index(t.src), -1.0);
            if fork.dest != pts.failure_location() {
                let q = fork.update.matrix();
                let e = fork.update.offset();
                for k in 0..nvars {
                    // (a_d·Q)_k = Σ_m a_d[m]·Q[m,k].
                    for m in 0..nvars {
                        if q[(m, k)] != 0.0 {
                            alpha[k].add_unknown(space.a_index(fork.dest, m), q[(m, k)]);
                        }
                    }
                }
                for (m, &em) in e.iter().enumerate() {
                    if em != 0.0 {
                        beta.add_unknown(space.a_index(fork.dest, m), em);
                    }
                }
                beta.add_unknown(space.b_index(fork.dest), 1.0);
                for site in fork.update.samples() {
                    let mut gamma = UCoef::zero(n);
                    for (m, &cm) in site.coeffs.iter().enumerate() {
                        if cm != 0.0 {
                            gamma.add_unknown(space.a_index(fork.dest, m), cm);
                        }
                    }
                    gammas.push((site.dist.clone(), gamma));
                }
            }
            terms.push(CanonicalTerm { prob: fork.prob, alpha, beta, gammas });
        }
        out.push(CanonicalConstraint {
            src: t.src,
            transition_index: ti,
            guard: psi,
            terms,
            mass_to_terminal,
        });
    }
    out
}

/// Weighted exp-affine summands from discrete sites: `(weight, exponent)`.
pub type DiscreteSummands = Vec<(f64, UCoef)>;

/// Uniform-site MGF factors shared by all summands: `(lo, hi, γ)`.
pub type ContinuousSummands = Vec<(f64, f64, UCoef)>;

/// Expands a canonical term at a fixed valuation `v*` into weighted
/// exp-affine summands by multiplying out the *discrete* sampling sites:
/// each combination of discrete support points becomes one
/// `(weight, exponent)` pair; uniform sites are returned separately for the
/// convex solver's MGF factors.
///
/// Returns `(summands, uniform_sites)` where each summand is
/// `(weight, exponent-UCoef)` and `uniform_sites` is shared by all
/// summands (`(lo, hi, γ)` per site).
pub fn expand_term_at_vertex(
    term: &CanonicalTerm,
    vertex: &[f64],
    n_unknowns: usize,
) -> (DiscreteSummands, ContinuousSummands) {
    // Base exponent α·v* + β.
    let mut base = UCoef::zero(n_unknowns);
    base.add_scaled(&term.beta, 1.0);
    for (a, &vk) in term.alpha.iter().zip(vertex) {
        base.add_scaled(a, vk);
    }

    let mut summands: Vec<(f64, UCoef)> = vec![(term.prob, base)];
    let mut uniform_sites = Vec::new();
    for (dist, gamma) in &term.gammas {
        match dist.discrete_points() {
            Some(points) => {
                let mut next = Vec::with_capacity(summands.len() * points.len());
                for (w, expo) in &summands {
                    for &(value, p) in &points {
                        let mut e = expo.clone();
                        e.add_scaled(gamma, value);
                        next.push((w * p, e));
                    }
                }
                summands = next;
            }
            None => {
                let (lo, hi) = dist.support_bounds();
                uniform_sites.push((lo, hi, gamma.clone()));
            }
        }
    }
    (summands, uniform_sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qava_lp::LpSolver;
    use qava_pts::{AffineUpdate, Fork, PtsBuilder};
    use qava_polyhedra::Halfspace;

    /// The tortoise-hare race PTS (Fig. 1) built directly.
    fn race() -> Pts {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        b.add_var("y");
        let head = b.add_location("head");
        b.set_initial(head, vec![40.0, 0.0]);
        b.set_invariant(
            head,
            Polyhedron::from_constraints(
                2,
                vec![Halfspace::le(vec![1.0, 0.0], 100.0), Halfspace::le(vec![0.0, 1.0], 101.0)],
            ),
        );
        let step1 = AffineUpdate::identity(2).with_offset(vec![1.0, 2.0]);
        let step2 = AffineUpdate::identity(2).with_offset(vec![1.0, 0.0]);
        b.add_transition(
            head,
            Polyhedron::from_constraints(
                2,
                vec![Halfspace::le(vec![1.0, 0.0], 99.0), Halfspace::le(vec![0.0, 1.0], 99.0)],
            ),
            vec![Fork::new(head, 0.5, step1), Fork::new(head, 0.5, step2)],
        );
        b.add_transition(
            head,
            Polyhedron::from_constraints(2, vec![Halfspace::ge(vec![1.0, 0.0], 100.0)]),
            vec![Fork::new(b.terminal_location(), 1.0, AffineUpdate::identity(2))],
        );
        b.add_transition(
            head,
            Polyhedron::from_constraints(
                2,
                vec![Halfspace::le(vec![1.0, 0.0], 99.0), Halfspace::ge(vec![0.0, 1.0], 100.0)],
            ),
            vec![Fork::new(b.failure_location(), 1.0, AffineUpdate::identity(2))],
        );
        b.finish().unwrap()
    }

    #[test]
    fn race_canonicalization_matches_example_5() {
        let pts = race();
        let space = TemplateSpace::new(&pts, false);
        let cons = canonicalize_in(&pts, &space, &mut LpSolver::new());
        assert_eq!(cons.len(), 3);

        // Loop transition: identity Q, offsets (1,2) and (1,0) — α must be
        // zero (a_head − a_head) and β = a·e (same location).
        let head = pts.loc_by_name("head").unwrap();
        let loop_c = &cons[0];
        assert_eq!(loop_c.terms.len(), 2);
        let x = {
            // a = (2, 3), b = 7.
            let mut x = vec![0.0; space.len()];
            x[space.a_index(head, 0)] = 2.0;
            x[space.a_index(head, 1)] = 3.0;
            x[space.b_index(head)] = 7.0;
            x
        };
        for k in 0..2 {
            assert_eq!(loop_c.terms[0].alpha[k].eval(&x), 0.0, "identity update ⇒ α = 0");
        }
        // β₁ = a·(1,2) = 2 + 6 = 8 (b cancels).
        assert!((loop_c.terms[0].beta.eval(&x) - 8.0).abs() < 1e-12);
        // β₂ = a·(1,0) = 2.
        assert!((loop_c.terms[1].beta.eval(&x) - 2.0).abs() < 1e-12);

        // Terminal transition: no terms, all mass to ℓ_t.
        assert!(cons[1].terms.is_empty());
        assert!((cons[1].mass_to_terminal - 1.0).abs() < 1e-12);
        assert_eq!(cons[1].live_mass(), 0.0);

        // Failure transition: α = −a, β = −b.
        let fail_c = &cons[2];
        assert_eq!(fail_c.terms.len(), 1);
        assert_eq!(fail_c.terms[0].alpha[0].eval(&x), -2.0);
        assert_eq!(fail_c.terms[0].alpha[1].eval(&x), -3.0);
        assert_eq!(fail_c.terms[0].beta.eval(&x), -7.0);
    }

    #[test]
    fn empty_psi_transitions_skipped() {
        let mut pts = race();
        // Shrink the invariant to make the failure guard unsatisfiable.
        pts.set_invariant(
            pts.loc_by_name("head").unwrap(),
            Polyhedron::from_constraints(2, vec![Halfspace::le(vec![0.0, 1.0], 50.0)]),
        );
        let space = TemplateSpace::new(&pts, false);
        let cons = canonicalize_in(&pts, &space, &mut LpSolver::new());
        assert_eq!(cons.len(), 2, "y ≥ 100 conflicts with y ≤ 50");
    }

    #[test]
    fn expansion_multiplies_discrete_sites() {
        let pts = race();
        let space = TemplateSpace::new(&pts, false);
        let n = space.len();
        let head = pts.loc_by_name("head").unwrap();
        // A synthetic term with one two-point site and one uniform site.
        let mut gamma = UCoef::zero(n);
        gamma.add_unknown(space.a_index(head, 0), 1.0);
        let term = CanonicalTerm {
            prob: 0.5,
            alpha: vec![UCoef::zero(n), UCoef::zero(n)],
            beta: UCoef::zero(n),
            gammas: vec![
                (Distribution::coin(-1.0, 1.0), gamma.clone()),
                (Distribution::Uniform(0.0, 2.0), gamma.clone()),
            ],
        };
        let (summands, uniforms) = expand_term_at_vertex(&term, &[0.0, 0.0], n);
        assert_eq!(summands.len(), 2, "coin expands to two summands");
        assert!((summands[0].0 - 0.25).abs() < 1e-12);
        assert_eq!(uniforms.len(), 1);
        assert_eq!(uniforms[0].0, 0.0);
        assert_eq!(uniforms[0].1, 2.0);
    }
}
