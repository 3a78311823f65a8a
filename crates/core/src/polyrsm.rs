//! Polynomial (quadratic) RepRSM synthesis — the extension of §5.1 that
//! Remark 3 of the paper sketches.
//!
//! The template is `η(ℓ, v) = Σ_{i≤j} q_{ij}·v_i·v_j + Σ_i a_i·v_i + b`
//! per location. Conditions (C1)–(C4) are the same as the affine case; the
//! quantified polynomial implications are discharged with **Handelman's
//! theorem** ([`crate::handelman`]) instead of Farkas' lemma, which keeps
//! everything in LP land (the paper suggests Positivstellensatz + SDP;
//! Handelman is the LP-complete member of that family on compact regions —
//! DESIGN.md records the substitution).
//!
//! The bilinear `8·ε·ω` objective is handled by the same Ser ternary
//! search as the affine algorithm. Expected values of quadratic templates
//! need second moments of the sampling distributions
//! ([`qava_pts::Distribution::second_moment`]).
//!
//! The quadratic class strictly extends the affine one: a symmetric
//! (driftless) random walk with a step deadline has *no* affine RepRSM —
//! every affine `η` must decrease in expectation while ending non-negative
//! at a failure that only happens after many steps — but `t − k·x²`-shaped
//! templates certify it (see the module tests).

use crate::hoeffding::BoundKind;
use crate::logprob::LogProb;
use crate::poly::{CPoly, UPoly};
use crate::template::UCoef;
use qava_lp::{Cmp, LinExpr, LpBuilder, LpError, LpSolver, VarId};
use qava_pts::{Fork, LocId, Pts};
use qava_polyhedra::Polyhedron;

/// Errors from [`synthesize_quadratic_bound_in`].
#[derive(Debug, Clone, PartialEq)]
pub enum PolyRsmError {
    /// No quadratic RepRSM certifiable at the configured Handelman degree.
    NoQuadraticRepRsm,
    /// The initial location is absorbing.
    TrivialInitial,
    /// A sampling site uses a continuous distribution; condition (C4)
    /// enumeration currently supports discrete supports only.
    ContinuousDistribution,
    /// The discrete-support product of some fork is too large.
    SupportTooLarge {
        /// The offending transition index.
        transition: usize,
    },
    /// LP failure.
    Lp(LpError),
}

impl std::fmt::Display for PolyRsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolyRsmError::NoQuadraticRepRsm => {
                write!(f, "no quadratic repulsing ranking supermartingale certifiable")
            }
            PolyRsmError::TrivialInitial => write!(f, "initial location is absorbing"),
            PolyRsmError::ContinuousDistribution => {
                write!(f, "continuous sampling unsupported in quadratic (C4) enumeration")
            }
            PolyRsmError::SupportTooLarge { transition } => {
                write!(f, "transition {transition}: discrete support product too large")
            }
            PolyRsmError::Lp(e) => write!(f, "LP failure: {e}"),
        }
    }
}

impl std::error::Error for PolyRsmError {}

/// A synthesized quadratic RepRSM bound.
#[derive(Debug, Clone)]
pub struct PolyRsmResult {
    /// The certified upper bound `exp(factor·ε·ω)`, clamped to `[0, 1]`.
    pub bound: LogProb,
    /// The decrease parameter found by the Ser search.
    pub epsilon: f64,
    /// `ω = η(ℓ_init, v_init)` at the optimum.
    pub omega: f64,
    /// Raw unknown vector (see [`QuadSpace`] for the layout).
    pub solution: Vec<f64>,
    /// Number of LPs solved.
    pub lp_solves: usize,
}

/// Unknown layout for quadratic templates: per live-or-absorbing location,
/// `n·(n+1)/2` quadratic coefficients (row-major upper triangle), `n`
/// linear ones and a constant.
#[derive(Debug, Clone)]
pub struct QuadSpace {
    nvars: usize,
    per_loc: usize,
    offsets: Vec<usize>,
    len: usize,
}

impl QuadSpace {
    /// Allocates a quadratic template for every location (absorbing ones
    /// included, as in the affine RepRSM synthesis).
    pub fn new(pts: &Pts) -> Self {
        let n = pts.num_vars();
        let per_loc = n * (n + 1) / 2 + n + 1;
        let offsets = (0..pts.num_locations()).map(|i| i * per_loc).collect();
        QuadSpace { nvars: n, per_loc, offsets, len: pts.num_locations() * per_loc }
    }

    /// Total number of template unknowns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no unknowns (zero-variable PTS).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn quad_index(&self, l: LocId, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.nvars);
        // Upper-triangle row-major: (i, j) with i ≤ j.
        let row_start: usize = (0..i).map(|r| self.nvars - r).sum();
        self.offsets[l.index()] + row_start + (j - i)
    }

    fn lin_index(&self, l: LocId, i: usize) -> usize {
        self.offsets[l.index()] + self.nvars * (self.nvars + 1) / 2 + i
    }

    fn const_index(&self, l: LocId) -> usize {
        self.offsets[l.index()] + self.per_loc - 1
    }

    /// `η(ℓ, ·)` as a polynomial with unknown-affine coefficients.
    pub fn eta(&self, l: LocId) -> UPoly {
        let n = self.nvars;
        let mut p = UPoly::zero(n, self.len);
        for i in 0..n {
            for j in i..n {
                let mut m = vec![0u32; n];
                m[i] += 1;
                m[j] += 1;
                p.add_unknown_term(m, self.quad_index(l, i, j), 1.0);
            }
            let mut m = vec![0u32; n];
            m[i] = 1;
            p.add_unknown_term(m, self.lin_index(l, i), 1.0);
        }
        p.add_unknown_term(vec![0; n], self.const_index(l), 1.0);
        p
    }

    /// `E[η(dst, upd(v, r))]` as a polynomial in `v`, using first and
    /// second moments of the sampling sites.
    pub fn expected_eta_after(&self, dst: LocId, fork: &Fork) -> UPoly {
        let n = self.nvars;
        let u = &fork.update;
        // L_i(v) = (Qv + e)_i; m_i = E[R_i]; M_ij = E[R_i R_j].
        let l_poly: Vec<CPoly> =
            (0..n).map(|i| CPoly::affine(u.matrix().row(i), u.offset()[i])).collect();
        let mut mean_r = vec![0.0; n];
        let mut second_r = vec![vec![0.0; n]; n];
        for s in u.samples() {
            let mu = s.dist.mean();
            let m2 = s.dist.second_moment();
            for (mri, &ci) in mean_r.iter_mut().zip(&s.coeffs) {
                *mri += mu * ci;
            }
            // Cross-site independence: E[R_i R_j] picks up m2 on the same
            // site and μ_s·μ_t across sites; the cross part is folded in
            // below via mean_r ⊗ mean_r corrected by per-site covariance.
            for (row, &ci) in second_r.iter_mut().zip(&s.coeffs) {
                for (slot, &cj) in row.iter_mut().zip(&s.coeffs) {
                    *slot += (m2 - mu * mu) * ci * cj;
                }
            }
        }
        // E[R_i R_j] = Cov(R_i, R_j) + E[R_i]E[R_j].
        for i in 0..n {
            for j in 0..n {
                second_r[i][j] += mean_r[i] * mean_r[j];
            }
        }

        let mut out = UPoly::zero(n, self.len);
        for i in 0..n {
            for j in i..n {
                // E[v'_i v'_j] = L_i L_j + m_j L_i + m_i L_j + E[R_i R_j].
                let mut p = l_poly[i].mul(&l_poly[j]);
                p.add_scaled(&l_poly[i], mean_r[j]);
                p.add_scaled(&l_poly[j], mean_r[i]);
                p.add_scaled(&CPoly::constant(n, second_r[i][j]), 1.0);
                let mut q = UCoef::zero(self.len);
                q.add_unknown(self.quad_index(dst, i, j), 1.0);
                out.add_ucoef_times_cpoly(&q, &p);
            }
            // E[v'_i] = L_i + m_i.
            let mut p = l_poly[i].clone();
            p.add_scaled(&CPoly::constant(n, mean_r[i]), 1.0);
            let mut a = UCoef::zero(self.len);
            a.add_unknown(self.lin_index(dst, i), 1.0);
            out.add_ucoef_times_cpoly(&a, &p);
        }
        let mut b = UCoef::zero(self.len);
        b.add_unknown(self.const_index(dst), 1.0);
        out.add_ucoef_times_cpoly(&b, &CPoly::constant(n, 1.0));
        out
    }

    /// `η(dst, upd(v, r̂))` for a concrete draw vector `r̂` (one value per
    /// sampling site), as a polynomial in `v`.
    pub fn eta_after_draws(&self, dst: LocId, fork: &Fork, draws: &[f64]) -> UPoly {
        let n = self.nvars;
        let u = &fork.update;
        let mut offset = u.offset().to_vec();
        for (s, &r) in u.samples().iter().zip(draws) {
            for (oi, &ci) in offset.iter_mut().zip(&s.coeffs) {
                *oi += r * ci;
            }
        }
        let l_poly: Vec<CPoly> =
            (0..n).map(|i| CPoly::affine(u.matrix().row(i), offset[i])).collect();
        let mut out = UPoly::zero(n, self.len);
        for i in 0..n {
            for j in i..n {
                let p = l_poly[i].mul(&l_poly[j]);
                let mut q = UCoef::zero(self.len);
                q.add_unknown(self.quad_index(dst, i, j), 1.0);
                out.add_ucoef_times_cpoly(&q, &p);
            }
            let mut a = UCoef::zero(self.len);
            a.add_unknown(self.lin_index(dst, i), 1.0);
            out.add_ucoef_times_cpoly(&a, &l_poly[i]);
        }
        let mut b = UCoef::zero(self.len);
        b.add_unknown(self.const_index(dst), 1.0);
        out.add_ucoef_times_cpoly(&b, &CPoly::constant(n, 1.0));
        out
    }

    /// Evaluates the solved template at a state.
    pub fn eval(&self, l: LocId, v: &[f64], x: &[f64]) -> f64 {
        self.eta(l).eval(v, x)
    }
}

/// Cap on enumerated discrete-support combinations per fork in (C4).
const MAX_SUPPORT_COMBOS: usize = 1024;
/// ε search cap (Δ is normalized to 1, so larger ε is vacuous).
const EPS_CAP: f64 = 1.0;
/// Handelman product degree: the templates are quadratic, so degree-2
/// products match every monomial that can appear.
const HANDELMAN_DEGREE: u32 = 2;

/// Synthesizes a quadratic RepRSM bound `exp(factor·ε·η(init))`,
/// threading every Handelman LP of the Ser search through the given
/// solver session; the `polyrsm-quadratic` engine calls this.
///
/// # Errors
///
/// See [`PolyRsmError`].
pub fn synthesize_quadratic_bound_in(
    pts: &Pts,
    kind: BoundKind,
    ser_iterations: usize,
    solver: &mut LpSolver,
) -> Result<PolyRsmResult, PolyRsmError> {
    let init = pts.initial_state();
    if pts.is_absorbing(init.loc) {
        return Err(PolyRsmError::TrivialInitial);
    }
    let space = QuadSpace::new(pts);
    let gen = Generator::new(pts, &space, kind, solver)?;
    let mut lp_solves = 0usize;

    let eps_max = {
        let (lp, _, eps_var) = gen.build_lp(None);
        lp_solves += 1;
        match solver.solve(&lp) {
            Ok(sol) => sol.value(eps_var.expect("eps variable present")).min(EPS_CAP),
            Err(LpError::Infeasible) => return Err(PolyRsmError::NoQuadraticRepRsm),
            Err(e) => return Err(PolyRsmError::Lp(e)),
        }
    };

    let omega_at =
        |eps: f64, count: &mut usize, solver: &mut LpSolver| -> Result<f64, PolyRsmError> {
            let (lp, _, _) = gen.build_lp(Some(eps));
            *count += 1;
            match solver.solve(&lp) {
                Ok(sol) => Ok(sol.objective.min(0.0)),
                Err(LpError::Infeasible) => Ok(f64::INFINITY),
                Err(e) => Err(PolyRsmError::Lp(e)),
            }
        };

    let mut lo = 0.0f64;
    let mut hi = eps_max;
    for _ in 0..ser_iterations {
        if hi - lo < 1e-10 {
            break;
        }
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        let f1 = m1 * omega_at(m1, &mut lp_solves, solver)?;
        let f2 = m2 * omega_at(m2, &mut lp_solves, solver)?;
        if f1 < f2 {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    let eps_star = (lo + hi) / 2.0;

    let (lp, unknowns, _) = gen.build_lp(Some(eps_star));
    lp_solves += 1;
    let sol = match solver.solve(&lp) {
        Ok(s) => s,
        Err(LpError::Infeasible) => return Err(PolyRsmError::NoQuadraticRepRsm),
        Err(e) => return Err(PolyRsmError::Lp(e)),
    };
    let x: Vec<f64> = unknowns.iter().map(|&v| sol.value(v)).collect();
    let omega = sol.objective.min(0.0);
    let factor = match kind {
        BoundKind::Hoeffding => 8.0,
        BoundKind::Azuma => 4.0,
    };
    Ok(PolyRsmResult {
        bound: LogProb::from_ln(factor * eps_star * omega).clamp_to_unit(),
        epsilon: eps_star,
        omega,
        solution: x,
        lp_solves,
    })
}

/// Pre-generated constraint material shared across ε probes.
struct Generator<'a> {
    pts: &'a Pts,
    space: &'a QuadSpace,
    kind: BoundKind,
    /// (C3): `(Ψ, η(src) − Σ p·E[η(dst, upd)])`; ε is appended per probe.
    c3: Vec<(Polyhedron, UPoly)>,
    /// (C4): `(Ψ, diff)` per fork and support combination; β bounds are
    /// appended per probe.
    c4: Vec<(Polyhedron, UPoly)>,
}

impl<'a> Generator<'a> {
    fn new(
        pts: &'a Pts,
        space: &'a QuadSpace,
        kind: BoundKind,
        solver: &mut LpSolver,
    ) -> Result<Self, PolyRsmError> {
        let mut c3 = Vec::new();
        let mut c4 = Vec::new();
        for (ti, t) in pts.transitions().iter().enumerate() {
            let psi = pts.invariant(t.src).intersection(&t.guard);
            if psi.is_empty_in(solver) {
                continue;
            }
            // (C3): η(src) − Σ_j p_j·E[η(dst_j)] − ε ≥ 0 on Ψ.
            let mut lhs = space.eta(t.src);
            for fork in &t.forks {
                lhs.add_scaled(&space.expected_eta_after(fork.dest, fork), -fork.prob);
            }
            c3.push((psi.clone(), lhs));

            // (C4): β ≤ η(dst, upd(v, r̂)) − η(src, v) ≤ β + 1 per combo.
            for fork in &t.forks {
                let sites = fork.update.samples();
                if sites.iter().any(|s| s.dist.discrete_points().is_none()) {
                    return Err(PolyRsmError::ContinuousDistribution);
                }
                let mut combos: Vec<Vec<f64>> = vec![Vec::new()];
                for s in sites {
                    let points = s.dist.discrete_points().expect("checked discrete");
                    let mut next = Vec::with_capacity(combos.len() * points.len());
                    for combo in &combos {
                        for &(value, _) in &points {
                            let mut c2 = combo.clone();
                            c2.push(value);
                            next.push(c2);
                        }
                    }
                    combos = next;
                    if combos.len() > MAX_SUPPORT_COMBOS {
                        return Err(PolyRsmError::SupportTooLarge { transition: ti });
                    }
                }
                for combo in combos {
                    let mut diff = space.eta_after_draws(fork.dest, fork, &combo);
                    diff.add_scaled(&space.eta(t.src), -1.0);
                    c4.push((psi.clone(), diff));
                }
            }
        }
        Ok(Generator { pts, space, kind, c3, c4 })
    }

    /// Builds the LP; with `eps = None`, ε is a variable maximized for
    /// εmax, otherwise it is substituted and `η(init)` is minimized.
    fn build_lp(&self, eps: Option<f64>) -> (LpBuilder, Vec<VarId>, Option<VarId>) {
        let n = self.space.len();
        let mut lp = LpBuilder::new();
        let unknowns: Vec<VarId> = (0..n).map(|i| lp.add_var(format!("q{i}"))).collect();
        let beta = lp.add_var("beta");
        let eps_var = match eps {
            None => {
                let e = lp.add_var_nonneg("epsilon");
                lp.constrain(LinExpr::var(e, 1.0), Cmp::Le, EPS_CAP);
                Some(e)
            }
            Some(_) => None,
        };
        if self.kind == BoundKind::Azuma {
            lp.constrain(LinExpr::var(beta, 1.0), Cmp::Eq, -0.5);
        }

        // Widened basis: template unknowns + β (+ ε). Handelman sees the
        // widened UCoefs.
        let mut xs = unknowns.clone();
        xs.push(beta);
        let extra = if let Some(e) = eps_var {
            xs.push(e);
            2
        } else {
            1
        };
        let widen = |p: &UPoly, beta_coef: f64, eps_coef: f64, eps_val: f64| -> UPoly {
            let mut out = UPoly::zero(p.nvars(), n + extra);
            for (id, c) in p.iter_ids() {
                let mut lin = c.lin.clone();
                lin.resize(n + extra, 0.0);
                let w = UCoef { lin, constant: c.constant };
                out.add_term_id(id, &w);
            }
            let zero_m = vec![0u32; p.nvars()];
            let mut konst = UCoef::zero(n + extra);
            konst.lin[n] = beta_coef;
            if extra == 2 {
                konst.lin[n + 1] = eps_coef;
            } else {
                konst.constant += eps_coef * eps_val;
            }
            out.add_term(zero_m, &konst);
            out
        };

        // (C1): η(init) ≤ 0.
        let init = self.pts.initial_state();
        let eta_init = self.space.eta(init.loc);
        let mut c1 = LinExpr::new();
        let mut c1_const = 0.0;
        for (m, c) in eta_init.iter() {
            let mono: f64 = m
                .iter()
                .zip(&init.vals)
                .map(|(&e, &x)| x.powi(e as i32))
                .product();
            for (idx, &coef) in c.lin.iter().enumerate() {
                if coef != 0.0 {
                    c1 = c1.term(unknowns[idx], coef * mono);
                }
            }
            c1_const += c.constant * mono;
        }
        lp.constrain(c1, Cmp::Le, -c1_const);

        // (C2): η(ℓ_f, ·) ≥ 0 on I(ℓ_f).
        let fail = self.pts.failure_location();
        let eta_fail = widen(&self.space.eta(fail), 0.0, 0.0, 0.0);
        crate::handelman::encode_poly_nonneg(
            &mut lp,
            &xs,
            self.pts.invariant(fail),
            &eta_fail,
            HANDELMAN_DEGREE,
        );

        // (C3): lhs − ε ≥ 0 on Ψ.
        for (psi, lhs) in &self.c3 {
            let p = widen(lhs, 0.0, -1.0, eps.unwrap_or(0.0));
            crate::handelman::encode_poly_nonneg(&mut lp, &xs, psi, &p, HANDELMAN_DEGREE);
        }

        // (C4): diff − β ≥ 0 and β + 1 − diff ≥ 0 on Ψ.
        for (psi, diff) in &self.c4 {
            let lower = widen(diff, -1.0, 0.0, 0.0);
            crate::handelman::encode_poly_nonneg(&mut lp, &xs, psi, &lower, HANDELMAN_DEGREE);
            let mut negated = UPoly::zero(diff.nvars(), diff.n_unknowns());
            negated.add_scaled(diff, -1.0);
            let mut upper = widen(&negated, 1.0, 0.0, 0.0);
            let one = UCoef::constant(n + extra, 1.0);
            upper.add_term(vec![0; diff.nvars()], &one);
            crate::handelman::encode_poly_nonneg(&mut lp, &xs, psi, &upper, HANDELMAN_DEGREE);
        }

        // Objective.
        match eps_var {
            Some(e) => lp.maximize(LinExpr::var(e, 1.0)),
            None => {
                let mut obj = LinExpr::new();
                for (m, c) in self.space.eta(init.loc).iter() {
                    let mono: f64 = m
                        .iter()
                        .zip(&init.vals)
                        .map(|(&e2, &x)| x.powi(e2 as i32))
                        .product();
                    for (idx, &coef) in c.lin.iter().enumerate() {
                        if coef != 0.0 {
                            obj = obj.term(unknowns[idx], coef * mono);
                        }
                    }
                }
                lp.minimize(obj);
            }
        }
        (lp, unknowns, eps_var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hoeffding::{
        synthesize_reprsm_bound_in, RepRsmError, RepRsmResult, DEFAULT_SER_ITERATIONS,
    };
    use std::collections::BTreeMap;

    fn affine(pts: &Pts) -> Result<RepRsmResult, RepRsmError> {
        let ser = DEFAULT_SER_ITERATIONS;
        synthesize_reprsm_bound_in(pts, BoundKind::Hoeffding, ser, &mut LpSolver::new())
    }

    fn quadratic(pts: &Pts) -> Result<PolyRsmResult, PolyRsmError> {
        synthesize_quadratic_bound_in(pts, BoundKind::Hoeffding, 40, &mut LpSolver::new())
    }

    /// A driftless walk with a step deadline: fail if neither boundary of
    /// [−4, 4] is hit within 60 steps.
    fn symmetric_deadline_walk() -> Pts {
        let src = r"
            x := 0; t := 0;
            while x >= -4 and x <= 4 and t <= 60
                invariant x >= -5 and x <= 5 and t >= 0 and t <= 61 {
                if prob(0.5) { x, t := x + 1, t + 1; } else { x, t := x - 1, t + 1; }
            }
            assert t <= 60;
        ";
        qava_lang::compile(src, &BTreeMap::new()).unwrap()
    }

    #[test]
    fn no_affine_reprsm_for_driftless_walk() {
        // The affine synthesis cannot certify anything nontrivial here:
        // E[Δx] = 0, so only the t-direction can decrease, but η must be
        // ≥ 0 at the late failure and ≤ 0 initially.
        let pts = symmetric_deadline_walk();
        match affine(&pts) {
            Err(RepRsmError::NoRepRsm) => {}
            Ok(r) => assert!(
                r.bound.ln() > -1e-6,
                "affine RepRSM should be trivial here, got {}",
                r.bound
            ),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn quadratic_reprsm_certifies_driftless_walk() {
        let pts = symmetric_deadline_walk();
        let r = quadratic(&pts).unwrap();
        assert!(r.epsilon > 0.0, "ε must be positive");
        assert!(r.omega < 0.0, "ω must be negative for a nontrivial bound");
        assert!(
            r.bound.ln() < -1e-4,
            "quadratic template must certify a bound below 1, got {}",
            r.bound
        );
    }

    #[test]
    fn quadratic_bound_is_sound_against_oracle() {
        let pts = symmetric_deadline_walk();
        let r = quadratic(&pts).unwrap();
        let oracle = crate::fixpoint::VpfOracle::explore(&pts, 100_000).unwrap();
        let (lo, hi) = oracle.interval(10_000);
        assert!(hi - lo < 1e-9, "oracle converged");
        assert!(
            r.bound.to_f64() >= lo - 1e-9,
            "certified bound {} below true vpf {lo}",
            r.bound
        );
    }

    #[test]
    fn quadratic_subsumes_affine_on_biased_walk() {
        // Where an affine RepRSM exists, the quadratic class (which
        // contains it) must certify at least as good a bound up to Ser
        // search resolution.
        let src = r"
            x := 0;
            while x >= -9 and x <= 9 invariant x >= -10 and x <= 10 {
                if prob(0.75) { x := x + 1; } else { x := x - 1; }
            }
            assert x <= -10;
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let affine = affine(&pts).unwrap();
        let quad = quadratic(&pts).unwrap();
        assert!(
            quad.bound.ln() <= affine.bound.ln() + 0.5,
            "quadratic {} much worse than affine {}",
            quad.bound,
            affine.bound
        );
    }

    #[test]
    fn eta_evaluation_matches_layout() {
        let pts = symmetric_deadline_walk();
        let space = QuadSpace::new(&pts);
        let head = pts.initial_state().loc;
        let mut x = vec![0.0; space.len()];
        // η(head) = x² + 2xt + 3t² + 4x + 5t + 6 (vars are x, t in
        // declaration order).
        x[space.quad_index(head, 0, 0)] = 1.0;
        x[space.quad_index(head, 0, 1)] = 2.0;
        x[space.quad_index(head, 1, 1)] = 3.0;
        x[space.lin_index(head, 0)] = 4.0;
        x[space.lin_index(head, 1)] = 5.0;
        x[space.const_index(head)] = 6.0;
        let v = [2.0, 3.0];
        let want = 4.0 + 12.0 + 27.0 + 8.0 + 15.0 + 6.0;
        assert_eq!(space.eval(head, &v, &x), want);
    }

    #[test]
    fn expected_eta_uses_second_moments() {
        // One location, x' = x + r with r = ±1 fair: E[x'²] = x² + 1
        // because E[r] = 0, E[r²] = 1.
        let src = r"
            x := 0;
            while x >= -3 and x <= 3 invariant x >= -4 and x <= 4 {
                if prob(0.5) { x := x + 1; } else { x := x - 1; }
            }
            assert x <= -4;
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let space = QuadSpace::new(&pts);
        let head = pts.initial_state().loc;
        let loop_t = pts
            .transitions()
            .iter()
            .find(|t| t.forks.len() == 2)
            .expect("loop transition");
        // Combined over both forks with η(head) = x²: Σ p·E[η] at x = 2 is
        // 0.5·(3²) + 0.5·(1²) = 5 = x² + 1.
        let mut x = vec![0.0; space.len()];
        x[space.quad_index(head, 0, 0)] = 1.0;
        let total: f64 = loop_t
            .forks
            .iter()
            .map(|f| f.prob * space.expected_eta_after(f.dest, f).eval(&[2.0], &x))
            .sum();
        assert!((total - 5.0).abs() < 1e-12, "got {total}");
    }
}
