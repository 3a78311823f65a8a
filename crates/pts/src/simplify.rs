//! Semantics-preserving PTS simplification: integer guard tightening and
//! forward fusion of deterministic hops.
//!
//! The paper's hand-drawn PTSs (e.g. Fig. 1) attach guards like
//! `x ≤ 99 ∧ y ≥ 100` directly to the loop head and route assertion
//! checks straight into `ℓ_t`/`ℓ_f`. A mechanical lowering instead produces
//! intermediate locations (branch junctions, assertion checks) whose
//! invariants are trivially `⊤`. Those extra locations are harmless for
//! simulation but *catastrophic* for template synthesis: the pre fixed-point
//! constraint of a hop through a `⊤`-invariant location must hold on an
//! unbounded region, which (via the recession-cone condition (D1) of
//! Proposition 1) can forbid the very exponent signs the optimal bound
//! needs. Fusing the hops recovers exactly the PTS shapes the paper
//! analyzes — and both passes preserve the violation probability `vpf` of
//! every surviving state, because they only collapse probability-1
//! deterministic steps and never change which absorbing location a path
//! reaches.
//!
//! Two passes run in order:
//!
//! 1. **Integer tightening** ([`tighten_integral`]): when every quantity in
//!    the PTS is integral (initial valuation, update matrices/offsets,
//!    discrete sampling supports), reachable valuations stay on the integer
//!    grid, so a strict guard `c·v < d` with integral `c` is equivalent to
//!    `c·v ≤ ⌈d⌉ − 1`. This is what justifies the paper's `x ≤ 99` guard
//!    for the violation branch of `assert x ≥ 100` (Fig. 1).
//! 2. **Forward fusion** ([`fuse_deterministic_hops`]): a transition
//!    `(ℓ, h, [1: U → m])` with a single probability-1, sample-free fork is
//!    replaced by the transitions of `m` pulled back through `U`: for every
//!    `(m, g, forks)` a transition `(ℓ, h ∧ U⁻¹g, forks ∘ U)`. Empty
//!    composed guards are dropped. Locations left unreachable are pruned.

use crate::model::{Fork, LocId, Pts, Transition};
use crate::{AffineUpdate, Distribution};
use qava_lp::LpSolver;
use qava_polyhedra::{Halfspace, Polyhedron};

/// Absolute tolerance for "is this an integer" tests.
const INT_TOL: f64 = 1e-9;
/// Fusion passes are capped to guard against pathological cycles; real
/// programs settle in two or three passes.
const MAX_FUSION_PASSES: usize = 64;

/// Runs the full pipeline: integer tightening, forward fusion,
/// unreachable-location pruning, and invariant propagation (so that in
/// particular `ℓ_f` receives the invariant condition (C2) of §5.1 needs).
/// This is the entry point used by the language frontend after lowering.
pub fn simplify(pts: &Pts) -> Pts {
    let mut p = pts.clone();
    tighten_integral(&mut p);
    fuse_deterministic_hops(&mut p);
    prune_unreachable(&mut p);
    crate::propagate::propagate_invariants(&mut p, 4);
    p
}

fn is_int(v: f64) -> bool {
    (v - v.round()).abs() <= INT_TOL
}

/// `true` when all dynamics of the PTS keep valuations on the integer grid:
/// integral initial valuation, integral update matrices and offsets, and
/// only discrete sampling distributions with integral support points.
pub fn is_integral(pts: &Pts) -> bool {
    if !pts.init_vals.iter().copied().all(is_int) {
        return false;
    }
    pts.transitions.iter().all(|t| {
        t.forks.iter().all(|f| {
            let u = &f.update;
            let n = u.dim();
            (0..n).all(|i| u.matrix().row(i).iter().copied().all(is_int))
                && u.offset().iter().copied().all(is_int)
                && u.samples().iter().all(|s| {
                    s.coeffs.iter().copied().all(is_int) && integral_support(&s.dist)
                })
        })
    })
}

fn integral_support(d: &Distribution) -> bool {
    match d.discrete_points() {
        Some(points) => points.iter().all(|&(v, _)| is_int(v)),
        None => false,
    }
}

/// Rewrites strict guard inequalities over integral data into equivalent
/// non-strict ones (`c·v < d` with integral `c` and integer-valued `v`
/// becomes `c·v ≤ ⌈d⌉ − 1`), and rounds down non-integral right-hand sides
/// of non-strict constraints. No-op for non-integral PTSs.
pub fn tighten_integral(pts: &mut Pts) {
    if !is_integral(pts) {
        return;
    }
    for t in &mut pts.transitions {
        tighten_poly(&mut t.guard);
    }
    for inv in &mut pts.invariants {
        tighten_poly(inv);
    }
}

fn tighten_poly(p: &mut Polyhedron) {
    let tightened: Vec<Halfspace> = p
        .constraints()
        .iter()
        .map(|h| {
            if !h.coeffs.iter().copied().all(is_int) {
                return h.clone();
            }
            if h.strict {
                // c·v < d over integers ⇔ c·v ≤ ⌈d⌉ − 1.
                let rhs = if is_int(h.rhs) { h.rhs.round() - 1.0 } else { h.rhs.floor() };
                Halfspace::le(h.coeffs.clone(), rhs)
            } else if is_int(h.rhs) {
                Halfspace::le(h.coeffs.clone(), h.rhs.round())
            } else {
                Halfspace::le(h.coeffs.clone(), h.rhs.floor())
            }
        })
        .collect();
    *p = Polyhedron::from_constraints(p.dim(), tightened);
}

/// The preimage `U⁻¹(P) = {v | Q·v + e ∈ P}` of a polyhedron under a
/// deterministic affine update: `c·(Qv + e) ≤ d  ⇔  (cᵀQ)·v ≤ d − c·e`.
fn preimage(p: &Polyhedron, u: &AffineUpdate) -> Polyhedron {
    let constraints = p
        .constraints()
        .iter()
        .map(|h| {
            let coeffs = u.matrix().mul_vec_transposed(&h.coeffs);
            let shift: f64 = h.coeffs.iter().zip(u.offset()).map(|(c, e)| c * e).sum();
            Halfspace { coeffs, rhs: h.rhs - shift, strict: h.strict }
        })
        .collect();
    Polyhedron::from_constraints(p.dim(), constraints)
}

/// Repeatedly inlines probability-1, sample-free, single-fork hops into
/// their destination's outgoing transitions. Self-loops are never fused
/// (they are genuine loop structure), which also guarantees termination on
/// deterministic cycles.
pub fn fuse_deterministic_hops(pts: &mut Pts) {
    let mut solver = LpSolver::new();
    for _ in 0..MAX_FUSION_PASSES {
        if !fuse_one_pass(pts, &mut solver) {
            break;
        }
    }
}

fn fuse_one_pass(pts: &mut Pts, solver: &mut LpSolver) -> bool {
    let mut changed = false;
    let mut out: Vec<Transition> = Vec::with_capacity(pts.transitions.len());
    for t in &pts.transitions {
        let fusable = t.forks.len() == 1
            && (t.forks[0].prob - 1.0).abs() < 1e-12
            && t.forks[0].update.samples().is_empty()
            && !pts.is_absorbing(t.forks[0].dest)
            && t.forks[0].dest != t.src;
        if !fusable {
            out.push(t.clone());
            continue;
        }
        let hop = &t.forks[0];
        let dest_transitions: Vec<&Transition> =
            pts.transitions.iter().filter(|dt| dt.src == hop.dest).collect();
        if dest_transitions.is_empty() {
            // Incomplete location (no outgoing transitions): keep the hop.
            out.push(t.clone());
            continue;
        }
        changed = true;
        for dt in dest_transitions {
            let guard = t.guard.intersection(&preimage(&dt.guard, &hop.update));
            if guard.is_empty_in(solver) {
                continue;
            }
            let forks = dt
                .forks
                .iter()
                .map(|f| Fork::new(f.dest, f.prob, f.update.compose_after(&hop.update)))
                .collect();
            out.push(Transition { src: t.src, guard, forks });
        }
    }
    pts.transitions = out;
    changed
}

/// Drops locations not reachable from the initial location along fork edges
/// (ignoring guard satisfiability — a sound over-approximation of
/// reachability), remapping ids. The two absorbing locations are always
/// kept.
pub fn prune_unreachable(pts: &mut Pts) {
    let nloc = pts.loc_names.len();
    let mut reach = vec![false; nloc];
    reach[0] = true;
    reach[1] = true;
    let mut stack = vec![pts.init_loc.index()];
    reach[pts.init_loc.index()] = true;
    while let Some(l) = stack.pop() {
        for t in pts.transitions.iter().filter(|t| t.src.index() == l) {
            for f in &t.forks {
                if !reach[f.dest.index()] {
                    reach[f.dest.index()] = true;
                    stack.push(f.dest.index());
                }
            }
        }
    }
    if reach.iter().all(|&r| r) {
        return;
    }
    let mut remap = vec![usize::MAX; nloc];
    let mut next = 0usize;
    for (i, &r) in reach.iter().enumerate() {
        if r {
            remap[i] = next;
            next += 1;
        }
    }
    pts.loc_names = std::mem::take(&mut pts.loc_names)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| reach[*i])
        .map(|(_, n)| n)
        .collect();
    pts.invariants = std::mem::take(&mut pts.invariants)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| reach[*i])
        .map(|(_, p)| p)
        .collect();
    pts.transitions.retain(|t| reach[t.src.index()]);
    for t in &mut pts.transitions {
        t.src = LocId::from_index(remap[t.src.index()]);
        for f in &mut t.forks {
            f.dest = LocId::from_index(remap[f.dest.index()]);
        }
    }
    pts.init_loc = LocId::from_index(remap[pts.init_loc.index()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PtsBuilder;
    use qava_linalg::Matrix;

    /// Mechanically lowered race shape: loop head → junction → loop head,
    /// loop head → assert check → ℓ_t/ℓ_f.
    fn race_unfused() -> Pts {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        b.add_var("y");
        let head = b.add_location("head");
        let junction = b.add_location("junction");
        let check = b.add_location("check");
        b.set_initial(head, vec![40.0, 0.0]);
        b.set_invariant(
            head,
            Polyhedron::from_constraints(
                2,
                vec![Halfspace::le(vec![1.0, 0.0], 100.0), Halfspace::le(vec![0.0, 1.0], 101.0)],
            ),
        );
        let id = AffineUpdate::identity(2);
        // head --(x ≤ 99 ∧ y ≤ 99)--> junction
        b.add_transition(
            head,
            Polyhedron::from_constraints(
                2,
                vec![Halfspace::le(vec![1.0, 0.0], 99.0), Halfspace::le(vec![0.0, 1.0], 99.0)],
            ),
            vec![Fork::new(junction, 1.0, id.clone())],
        );
        // head --(x > 99)--> check ; head --(x ≤ 99 ∧ y > 99)--> check
        b.add_transition(
            head,
            Polyhedron::from_constraints(2, vec![Halfspace::lt(vec![-1.0, 0.0], -99.0)]),
            vec![Fork::new(check, 1.0, id.clone())],
        );
        b.add_transition(
            head,
            Polyhedron::from_constraints(
                2,
                vec![Halfspace::le(vec![1.0, 0.0], 99.0), Halfspace::lt(vec![0.0, -1.0], -99.0)],
            ),
            vec![Fork::new(check, 1.0, id.clone())],
        );
        // junction --⊤--> head (probabilistic steps)
        b.add_transition(
            junction,
            Polyhedron::universe(2),
            vec![
                Fork::new(head, 0.5, id.clone().with_offset(vec![1.0, 2.0])),
                Fork::new(head, 0.5, id.clone().with_offset(vec![1.0, 0.0])),
            ],
        );
        // check --(x ≥ 100)--> ℓ_t ; check --(x < 100)--> ℓ_f
        b.add_transition(
            check,
            Polyhedron::from_constraints(2, vec![Halfspace::ge(vec![1.0, 0.0], 100.0)]),
            vec![Fork::new(b.terminal_location(), 1.0, id.clone())],
        );
        b.add_transition(
            check,
            Polyhedron::from_constraints(2, vec![Halfspace::lt(vec![1.0, 0.0], 100.0)]),
            vec![Fork::new(b.failure_location(), 1.0, id)],
        );
        b.finish().unwrap()
    }

    #[test]
    fn race_fuses_to_single_live_location() {
        let pts = simplify(&race_unfused());
        assert_eq!(pts.live_locations().count(), 1, "only the loop head survives");
        // Paper shape: loop transition + pass exit + fail exit. The two
        // check-routed exits compose with the assert split; the sliver
        // x > 99 ∧ x < 100 is emptied by integer tightening.
        let head = pts.initial_state().loc;
        let from_head: Vec<_> = pts.transitions().iter().filter(|t| t.src == head).collect();
        assert_eq!(from_head.len(), 3, "loop, →ℓ_t, →ℓ_f: {from_head:#?}");
        let to_fail: Vec<_> = from_head
            .iter()
            .filter(|t| t.forks.iter().any(|f| f.dest == pts.failure_location()))
            .collect();
        assert_eq!(to_fail.len(), 1);
        // The failure guard must be x ≤ 99 ∧ y ≥ 100 (satisfied by (99,100),
        // not by (100,100) or (99,99)).
        let g = &to_fail[0].guard;
        assert!(g.contains(&[99.0, 100.0], 1e-9));
        assert!(!g.contains(&[100.0, 100.0], 1e-9));
        assert!(!g.contains(&[99.0, 99.0], 1e-9));
    }

    #[test]
    fn integrality_detected() {
        let pts = race_unfused();
        assert!(is_integral(&pts));
    }

    #[test]
    fn non_integral_updates_block_tightening() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let l = b.add_location("l");
        b.set_initial(l, vec![0.0]);
        b.add_transition(
            l,
            Polyhedron::from_constraints(1, vec![Halfspace::lt(vec![1.0], 10.0)]),
            vec![Fork::new(l, 1.0, AffineUpdate::increment(1, 0, 0.5))],
        );
        b.add_transition(
            l,
            Polyhedron::from_constraints(1, vec![Halfspace::ge(vec![1.0], 10.0)]),
            vec![Fork::new(b.terminal_location(), 1.0, AffineUpdate::identity(1))],
        );
        let mut pts = b.finish().unwrap();
        assert!(!is_integral(&pts));
        tighten_integral(&mut pts);
        assert!(pts.transitions()[0].guard.constraints()[0].strict, "strictness kept");
    }

    #[test]
    fn strict_guard_tightens_to_integer_complement() {
        let mut pts = race_unfused();
        tighten_integral(&mut pts);
        // head --(x > 99)--> check becomes x ≥ 100, i.e. −x ≤ −100.
        let g = &pts.transitions()[1].guard.constraints()[0];
        assert!(!g.strict);
        assert_eq!(g.rhs, -100.0);
    }

    #[test]
    fn preimage_shifts_by_offset() {
        // P = {x ≤ 10}, U: x := x + 3  ⇒  U⁻¹P = {x ≤ 7}.
        let p = Polyhedron::from_constraints(1, vec![Halfspace::le(vec![1.0], 10.0)]);
        let pre = preimage(&p, &AffineUpdate::increment(1, 0, 3.0));
        assert_eq!(pre.constraints()[0].rhs, 7.0);
    }

    #[test]
    fn preimage_transforms_by_matrix() {
        // P = {x + y ≤ 4}, U: (x, y) := (2x, x + y) ⇒ pre: 2x + (x + y) ≤ 4.
        let p = Polyhedron::from_constraints(2, vec![Halfspace::le(vec![1.0, 1.0], 4.0)]);
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 2.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 1.0;
        let pre = preimage(&p, &AffineUpdate::new(m, vec![0.0, 0.0]));
        assert_eq!(pre.constraints()[0].coeffs, vec![3.0, 1.0]);
        assert_eq!(pre.constraints()[0].rhs, 4.0);
    }

    #[test]
    fn self_loops_are_not_fused() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let l = b.add_location("l");
        b.set_initial(l, vec![0.0]);
        b.add_transition(
            l,
            Polyhedron::from_constraints(1, vec![Halfspace::le(vec![1.0], 9.0)]),
            vec![Fork::new(l, 1.0, AffineUpdate::increment(1, 0, 1.0))],
        );
        b.add_transition(
            l,
            Polyhedron::from_constraints(1, vec![Halfspace::ge(vec![1.0], 10.0)]),
            vec![Fork::new(b.terminal_location(), 1.0, AffineUpdate::identity(1))],
        );
        let pts = simplify(&b.finish().unwrap());
        assert_eq!(pts.transitions().len(), 2, "the counting loop must survive");
    }

    #[test]
    fn deterministic_two_cycle_terminates_and_preserves_structure() {
        // A → B → A with deterministic identity hops plus an exit at A; the
        // fusion must terminate and keep the system complete at A.
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let a = b.add_location("a");
        let bb = b.add_location("b");
        b.set_initial(a, vec![0.0]);
        let id = AffineUpdate::identity(1);
        b.add_transition(
            a,
            Polyhedron::from_constraints(1, vec![Halfspace::le(vec![1.0], 5.0)]),
            vec![Fork::new(bb, 1.0, AffineUpdate::increment(1, 0, 1.0))],
        );
        b.add_transition(
            a,
            Polyhedron::from_constraints(1, vec![Halfspace::ge(vec![1.0], 6.0)]),
            vec![Fork::new(b.terminal_location(), 1.0, id.clone())],
        );
        b.add_transition(bb, Polyhedron::universe(1), vec![Fork::new(a, 1.0, id)]);
        let pts = simplify(&b.finish().unwrap());
        // A→B fused through B's hop back to A gives the self-loop x := x+1.
        assert_eq!(pts.live_locations().count(), 1);
        let mut rng = rand::rngs::mock::StepRng::new(0, 0);
        let mut st = pts.initial_state();
        for _ in 0..20 {
            match pts.step(&st, &mut rng) {
                crate::StepOutcome::Moved(s) => st = s,
                crate::StepOutcome::Absorbed => break,
                crate::StepOutcome::Stuck => panic!("fusion broke completeness"),
            }
        }
        assert_eq!(st.loc, pts.terminal_location());
        assert_eq!(st.vals, vec![6.0]);
    }

    #[test]
    fn unreachable_locations_pruned() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let a = b.add_location("a");
        let orphan = b.add_location("orphan");
        b.set_initial(a, vec![0.0]);
        b.add_transition(
            a,
            Polyhedron::universe(1),
            vec![Fork::new(b.terminal_location(), 1.0, AffineUpdate::identity(1))],
        );
        b.add_transition(
            orphan,
            Polyhedron::universe(1),
            vec![Fork::new(b.failure_location(), 1.0, AffineUpdate::identity(1))],
        );
        let mut pts = b.finish().unwrap();
        prune_unreachable(&mut pts);
        assert_eq!(pts.live_locations().count(), 1);
        assert_eq!(pts.transitions().len(), 1);
        assert_eq!(pts.loc_name(pts.initial_state().loc), "a");
    }
}
