//! Lightweight invariant propagation.
//!
//! The paper derives invariants manually for *every* location of its PTSs
//! (the red annotations of Fig. 1) and notes that invariant generation is an
//! orthogonal problem (§7). Our language frontend attaches user invariants
//! to loop heads only; this pass closes the gap for the remaining
//! locations — most importantly the failure location `ℓ_f`, whose invariant
//! scopes condition (C2) of RepRSM synthesis (§5.1). Leaving `I(ℓ_f) = ⊤`
//! forces the RepRSM to be non-negative on all of `ℝⁿ`, which flattens its
//! linear part and degrades every Hoeffding/Azuma bound to 1.
//!
//! The pass is a sound "weak join": a location entered **only through
//! identity-update edges** inherits every constraint implied by
//! `I(src) ∧ guard` of *all* of its incoming edges (checked by LP
//! implication probes, using closures of strict constraints). Edges that
//! carry real updates disqualify the location — exactly the cases where the
//! paper, too, would rely on a dedicated invariant generator.

use crate::model::{LocId, Pts};
use qava_linalg::Matrix;
use qava_lp::LpSolver;
use qava_polyhedra::{Halfspace, Polyhedron};

/// Propagates invariants for up to `rounds` sweeps; returns the number of
/// locations whose invariant was refined. Absorbing locations participate:
/// refining `I(ℓ_f)` is what makes (C2) of §5.1 non-vacuous.
pub fn propagate_invariants(pts: &mut Pts, rounds: usize) -> usize {
    let mut solver = LpSolver::new();
    let mut refined_total = 0;
    for _ in 0..rounds {
        let mut refined_this_round = 0;
        let n_locs = pts.num_locations();
        for loc in (0..n_locs).map(LocId::from_index) {
            if loc == pts.initial_state().loc {
                continue; // the initial location's invariant is an input
            }
            if !pts.invariant(loc).constraints().is_empty() {
                continue; // user-supplied or already refined
            }
            if let Some(inv) = inferred_invariant(pts, loc, &mut solver) {
                if !inv.constraints().is_empty() {
                    pts.invariants[loc.index()] = inv;
                    refined_this_round += 1;
                }
            }
        }
        refined_total += refined_this_round;
        if refined_this_round == 0 {
            break;
        }
    }
    refined_total
}

/// Computes the weak join of the incoming edge conditions of `loc`, or
/// `None` when some incoming edge disqualifies the location (non-identity
/// update, or a self-loop that would make the inference circular).
fn inferred_invariant(pts: &Pts, loc: LocId, solver: &mut LpSolver) -> Option<Polyhedron> {
    let n = pts.num_vars();

    let mut sources: Vec<Polyhedron> = Vec::new();
    for t in pts.transitions() {
        for fork in &t.forks {
            if fork.dest != loc {
                continue;
            }
            if t.src == loc {
                return None; // self-loop: circular, skip
            }
            let identity = fork.update.matrix() == &Matrix::identity(n)
                && fork.update.offset().iter().all(|&e| e == 0.0)
                && fork.update.samples().is_empty();
            if !identity {
                return None;
            }
            sources.push(pts.invariant(t.src).intersection(&t.guard));
        }
    }
    if sources.is_empty() {
        return None;
    }

    // Candidate constraints: every row of the first source condition that
    // all the other sources imply.
    let mut kept: Vec<Halfspace> = Vec::new();
    'candidates: for cand in sources[0].constraints() {
        // Closure semantics: drop strictness for the invariant.
        let h = Halfspace::le(cand.coeffs.clone(), cand.rhs);
        for other in &sources[1..] {
            if !other.implies_in(&h, solver) {
                continue 'candidates;
            }
        }
        kept.push(h);
    }
    Some(Polyhedron::from_constraints(n, kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AffineUpdate, Fork, PtsBuilder};

    /// head --(x ≤ 99 ∧ y ≥ 100)--> ℓ_f plus a loop, Fig.-1 style.
    fn race_like() -> Pts {
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
        let id = AffineUpdate::identity(2);
        b.add_transition(
            head,
            Polyhedron::from_constraints(
                2,
                vec![Halfspace::le(vec![1.0, 0.0], 99.0), Halfspace::le(vec![0.0, 1.0], 99.0)],
            ),
            vec![
                Fork::new(head, 0.5, id.clone().with_offset(vec![1.0, 2.0])),
                Fork::new(head, 0.5, id.clone().with_offset(vec![1.0, 0.0])),
            ],
        );
        b.add_transition(
            head,
            Polyhedron::from_constraints(2, vec![Halfspace::ge(vec![1.0, 0.0], 100.0)]),
            vec![Fork::new(b.terminal_location(), 1.0, id.clone())],
        );
        b.add_transition(
            head,
            Polyhedron::from_constraints(
                2,
                vec![Halfspace::le(vec![1.0, 0.0], 99.0), Halfspace::ge(vec![0.0, 1.0], 100.0)],
            ),
            vec![Fork::new(b.failure_location(), 1.0, id)],
        );
        b.finish().unwrap()
    }

    #[test]
    fn failure_location_inherits_edge_condition() {
        let mut pts = race_like();
        assert!(pts.invariant(pts.failure_location()).constraints().is_empty());
        let refined = propagate_invariants(&mut pts, 3);
        assert!(refined >= 1);
        let inv = pts.invariant(pts.failure_location());
        let s = &mut LpSolver::new();
        assert!(inv.implies_in(&Halfspace::le(vec![1.0, 0.0], 99.0), s), "x ≤ 99 inherited");
        assert!(inv.implies_in(&Halfspace::ge(vec![0.0, 1.0], 100.0), s), "y ≥ 100 inherited");
    }

    #[test]
    fn terminal_location_inherits_too() {
        let mut pts = race_like();
        propagate_invariants(&mut pts, 3);
        let inv = pts.invariant(pts.terminal_location());
        let s = &mut LpSolver::new();
        assert!(inv.implies_in(&Halfspace::ge(vec![1.0, 0.0], 100.0), s));
    }

    #[test]
    fn self_loop_sources_skip_propagation() {
        // The loop head enters itself with real updates; nothing changes.
        let mut pts = race_like();
        let head = pts.initial_state().loc;
        let before = pts.invariant(head).clone();
        propagate_invariants(&mut pts, 3);
        assert_eq!(pts.invariant(head), &before);
    }

    #[test]
    fn updated_edges_disqualify() {
        // dest entered via x := x + 1: stays trivial.
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let a = b.add_location("a");
        b.set_initial(a, vec![0.0]);
        b.set_invariant(a, Polyhedron::from_constraints(1, vec![Halfspace::le(vec![1.0], 5.0)]));
        b.add_transition(
            a,
            Polyhedron::universe(1),
            vec![Fork::new(b.failure_location(), 1.0, AffineUpdate::increment(1, 0, 1.0))],
        );
        let mut pts = b.finish().unwrap();
        propagate_invariants(&mut pts, 3);
        assert!(pts.invariant(pts.failure_location()).constraints().is_empty());
    }

    #[test]
    fn weak_join_keeps_only_common_constraints() {
        // Two edges into ℓ_f: x ∈ [0, 5] and x ∈ [3, 9]. Only constraints
        // implied by both survive; the first source's rows are candidates,
        // so x ≤ 5 is dropped (not implied by [3, 9]) but nothing forbids
        // an empty result either — here no common row exists except none.
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let a = b.add_location("a");
        let c = b.add_location("c");
        b.set_initial(a, vec![0.0]);
        let id = AffineUpdate::identity(1);
        b.add_transition(
            a,
            Polyhedron::from_constraints(
                1,
                vec![Halfspace::ge(vec![1.0], 0.0), Halfspace::le(vec![1.0], 5.0)],
            ),
            vec![Fork::new(b.failure_location(), 1.0, id.clone())],
        );
        b.add_transition(
            a,
            Polyhedron::from_constraints(1, vec![Halfspace::lt(vec![-1.0], 0.0)]),
            vec![Fork::new(c, 1.0, id.clone())],
        );
        b.add_transition(
            c,
            Polyhedron::from_constraints(
                1,
                vec![Halfspace::ge(vec![1.0], 3.0), Halfspace::le(vec![1.0], 9.0)],
            ),
            vec![Fork::new(b.failure_location(), 1.0, id.clone())],
        );
        b.add_transition(
            c,
            Polyhedron::from_constraints(1, vec![Halfspace::lt(vec![1.0], 3.0)]),
            vec![Fork::new(b.terminal_location(), 1.0, id)],
        );
        let mut pts = b.finish().unwrap();
        propagate_invariants(&mut pts, 3);
        let inv = pts.invariant(pts.failure_location());
        let s = &mut LpSolver::new();
        assert!(inv.implies_in(&Halfspace::ge(vec![1.0], 0.0), s), "x ≥ 0 common to both");
        assert!(!inv.implies_in(&Halfspace::le(vec![1.0], 5.0), s), "x ≤ 5 not common");
    }
}
