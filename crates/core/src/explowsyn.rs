//! **ExpLowSyn** (§6): sound polynomial-time synthesis of exponential
//! *lower* bounds on the assertion-violation probability of almost-surely
//! terminating affine PTSs.
//!
//! By Theorem 4.4 the fixed point of the probability transformer is unique
//! under almost-sure termination, so every *bounded post fixed-point* is a
//! lower bound on `vpf` (Theorem 4.1, equation (2)). The algorithm:
//!
//! 1. exponential templates `θ(ℓ, v) = exp(a_ℓ·v + b_ℓ)` per live location;
//! 2. boundedness (Step 2): `a_ℓ·v + b_ℓ ≤ M` on `I(ℓ)` with a fresh
//!    unknown `M` — this puts `θ` inside some lattice `K_M`;
//! 3. canonical post fixed-point constraints
//!    `Σ_j p_j·exp(α_j·v+β_j)·E[exp(γ_j·r)] ≥ 1` over `Ψ`;
//! 4. **Jensen strengthening** (Theorem 6.1): with `Q = Σ' p_j`,
//!    `Q⁻¹·Σ_j p_j·(α_j·v + β_j + γ_j·E[r]) ≥ −ln Q` — linear in the
//!    unknowns (sound but incomplete);
//! 5. Farkas' lemma and one LP, maximizing `a_init·v_init + b_init`.
//!
//! Callers are responsible for the almost-sure-termination side condition
//! (provable with [`crate::rsm`]).

use crate::canonical::canonicalize_in;
use crate::farkas::encode_implication;
use crate::logprob::LogProb;
use crate::template::{SolvedTemplate, TemplateSpace, UCoef};
use qava_lp::{Cmp, LinExpr, LpBuilder, LpError, LpSolver, VarId};
use qava_pts::Pts;

/// Errors from [`synthesize_lower_bound_in`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExpLowSynError {
    /// The Jensen-strengthened LP is infeasible: no exponential post
    /// fixed-point with affine exponent is certifiable this way.
    NoTemplate,
    /// Some transition sends all probability mass to `ℓ_t` from a
    /// satisfiable guard — an exponential (hence positive) template cannot
    /// be a post fixed-point there.
    DeadEndTransition {
        /// Index of the offending transition.
        transition: usize,
    },
    /// The initial location is absorbing.
    TrivialInitial,
    /// LP failure.
    Lp(LpError),
}

impl std::fmt::Display for ExpLowSynError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpLowSynError::NoTemplate => {
                write!(f, "no exponential post fixed-point certifiable via Jensen strengthening")
            }
            ExpLowSynError::DeadEndTransition { transition } => write!(
                f,
                "transition {transition} moves to ℓ_t with probability 1; positive templates cannot lower-bound it"
            ),
            ExpLowSynError::TrivialInitial => write!(f, "initial location is absorbing"),
            ExpLowSynError::Lp(e) => write!(f, "LP failure: {e}"),
        }
    }
}

impl std::error::Error for ExpLowSynError {}

/// A synthesized exponential lower bound.
#[derive(Debug, Clone)]
pub struct ExpLowSynResult {
    /// Certified lower bound `exp(a_init·v_init + b_init)` on the violation
    /// probability (valid only under almost-sure termination).
    pub bound: LogProb,
    /// The synthesized template (for the symbolic Table 5).
    pub template: SolvedTemplate,
    /// Raw solution over the template unknowns.
    pub solution: Vec<f64>,
    /// The boundedness witness `M` of Step 2.
    pub lattice_bound: f64,
}

/// Runs ExpLowSyn.
///
/// The result is a sound lower bound **provided** the PTS terminates almost
/// surely from every reachable state (the paper's standing assumption for
/// LQAVA; see [`crate::rsm::prove_almost_sure_termination`]). The
/// canonicalization emptiness probes and the Jensen-strengthened LP run
/// through the given solver session; the `explowsyn` engine calls this.
///
/// # Errors
///
/// See [`ExpLowSynError`].
pub fn synthesize_lower_bound_in(
    pts: &Pts,
    solver: &mut LpSolver,
) -> Result<ExpLowSynResult, ExpLowSynError> {
    let init = pts.initial_state();
    if pts.is_absorbing(init.loc) {
        return Err(ExpLowSynError::TrivialInitial);
    }
    let mut space = TemplateSpace::new(pts, false);
    let m_idx = space.add_extra("M");
    let n = space.len();

    let mut lp = LpBuilder::new();
    let unknowns: Vec<VarId> = (0..n).map(|i| lp.add_var(format!("u{i}"))).collect();

    // Step 2 (boundedness): ∀v ∈ I(ℓ): a_ℓ·v + b_ℓ − M ≤ 0.
    let nvars = pts.num_vars();
    for l in pts.live_locations() {
        let c: Vec<UCoef> = (0..nvars)
            .map(|k| {
                let mut u = UCoef::zero(n);
                u.add_unknown(space.a_index(l, k), 1.0);
                u
            })
            .collect();
        let mut d = UCoef::zero(n);
        d.add_unknown(space.b_index(l), -1.0);
        d.add_unknown(m_idx, 1.0);
        encode_implication(&mut lp, &unknowns, pts.invariant(l), &c, &d);
    }

    // Steps 3–4: Jensen-strengthened post fixed-point rows.
    for con in canonicalize_in(pts, &space, solver) {
        let q = con.live_mass();
        if q <= 1e-12 {
            return Err(ExpLowSynError::DeadEndTransition {
                transition: con.transition_index,
            });
        }
        // Q⁻¹·Σ_j p_j·(α_j·v + β_j + Σ_s γ_s·E[r_s]) ≥ −ln Q
        //  ⇔  −Σ c(x)·v ≤ κ(x) + Q·ln Q   (after multiplying by Q > 0).
        let mut c: Vec<UCoef> = (0..nvars).map(|_| UCoef::zero(n)).collect();
        let mut kappa = UCoef::zero(n);
        for term in &con.terms {
            for (ck, a) in c.iter_mut().zip(&term.alpha) {
                ck.add_scaled(a, term.prob);
            }
            kappa.add_scaled(&term.beta, term.prob);
            for (dist, gamma) in &term.gammas {
                kappa.add_scaled(gamma, term.prob * dist.mean());
            }
        }
        let neg_c: Vec<UCoef> = c.iter().map(UCoef::negated).collect();
        let mut d = kappa;
        d.constant += q * q.ln();
        encode_implication(&mut lp, &unknowns, &con.guard, &neg_c, &d);
    }

    // The bound can never certify above 1: a_init·v_init + b_init ≤ 0.
    // (Implied by soundness at any solution; keeps the LP bounded above.)
    let eta_init = space.eta_at(init.loc, &init.vals);
    let mut cut = LinExpr::new();
    for (i, &coef) in eta_init.lin.iter().enumerate() {
        if coef != 0.0 {
            cut = cut.term(unknowns[i], coef);
        }
    }
    lp.constrain(cut.clone(), Cmp::Le, -eta_init.constant);

    lp.maximize(cut);
    let sol = match solver.solve(&lp) {
        Ok(s) => s,
        Err(LpError::Infeasible) => return Err(ExpLowSynError::NoTemplate),
        Err(e) => return Err(ExpLowSynError::Lp(e)),
    };
    let x: Vec<f64> = unknowns.iter().map(|&v| sol.value(v)).collect();
    Ok(ExpLowSynResult {
        bound: LogProb::from_ln(sol.objective).clamp_to_unit(),
        template: SolvedTemplate::from_solution(pts, &space, &x),
        lattice_bound: x[m_idx],
        solution: x,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// §3.3 / Fig. 3: the random walk on unreliable hardware.
    fn m1dwalk(p: f64) -> Pts {
        let src = r"
            param p = 1e-7;
            x := 1;
            while x <= 99 invariant x <= 100 {
                switch {
                    prob(p): { exit; }
                    prob(0.75 * (1 - p)): { x := x + 1; }
                    prob(0.25 * (1 - p)): { x := x - 1; }
                }
            }
            assert false;
        ";
        let mut params = BTreeMap::new();
        params.insert("p".to_string(), p);
        qava_lang::compile(src, &params).unwrap()
    }

    #[test]
    fn m1dwalk_matches_paper_row() {
        // The optimal Jensen-strengthened solution is a = −2·ln(1−p) (from
        // 0.75a − 0.25a ≥ −ln(1−p)) and b = −100a (boundedness of a·x + b
        // over the invariant x ≤ 100), giving exp(−99a) at x = 1. For
        // p = 1e-7 that is exp(−1.98e-5) ≈ 0.99998 — exactly the number the
        // paper derives in §3.3 and prints symbolically in Table 5
        // (exp(2e-7·x − 2e-5)). Table 2's figures (e.g. 0.999984) are
        // slightly looser/inconsistent with the paper's own symbolic rows,
        // so we assert against the closed form.
        for p in [1e-7f64, 1e-5, 1e-4] {
            let a = -2.0 * (1.0 - p).ln();
            let expected = (-99.0 * a).exp();
            let r = synthesize_lower_bound_in(&m1dwalk(p), &mut LpSolver::new()).unwrap();
            let got = r.bound.to_f64();
            assert!(
                (got - expected).abs() < 1e-6,
                "p = {p}: expected ≈ {expected}, got {got}"
            );
        }
    }

    #[test]
    fn lower_bound_is_post_fixed_point() {
        let pts = m1dwalk(1e-5);
        let r = synthesize_lower_bound_in(&pts, &mut LpSolver::new()).unwrap();
        let report = crate::verify::check_post_fixed_point(&pts, &r.solution, 300, 5);
        assert!(report.is_ok(), "violations: {report:?}");
    }

    #[test]
    fn lower_never_exceeds_upper() {
        let pts = m1dwalk(1e-4);
        let lo = synthesize_lower_bound_in(&pts, &mut LpSolver::new()).unwrap();
        let hi = crate::explinsyn::synthesize_upper_bound_in(&pts, &mut LpSolver::new()).unwrap();
        assert!(
            lo.bound.ln() <= hi.bound.ln() + 1e-6,
            "lower {} above upper {}",
            lo.bound,
            hi.bound
        );
    }

    #[test]
    fn coin_flip_lower_bound_exact() {
        let src = r"
            x := 0;
            if prob(0.3) { assert false; } else { exit; }
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let r = synthesize_lower_bound_in(&pts, &mut LpSolver::new()).unwrap();
        assert!(
            (r.bound.to_f64() - 0.3).abs() < 1e-6,
            "expected 0.3, got {}",
            r.bound.to_f64()
        );
    }

    #[test]
    fn dead_end_detected() {
        // A guard region from which the program always terminates silently:
        // the post fixed-point cannot be exponential there.
        let src = r"
            x := 0;
            while x <= 9 invariant x <= 10 { x := x + 1; }
            exit;
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let r = synthesize_lower_bound_in(&pts, &mut LpSolver::new());
        assert!(
            matches!(r, Err(ExpLowSynError::DeadEndTransition { .. })),
            "got {r:?}"
        );
    }
}
