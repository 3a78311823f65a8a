//! The transition-system structure, its builder, validation, and execution
//! semantics.

use crate::AffineUpdate;
use qava_lp::LpSolver;
use qava_polyhedra::Polyhedron;
use rand::Rng;

/// Identifier of a program variable within a [`Pts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Builds an id from a raw index (callers must keep it in range for the
    /// PTS it is used with).
    pub fn from_index(i: usize) -> Self {
        VarId(i)
    }

    /// Zero-based index into valuations.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a location within a [`Pts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocId(pub(crate) usize);

impl LocId {
    /// Builds an id from a raw index (callers must keep it in range for the
    /// PTS it is used with).
    pub fn from_index(i: usize) -> Self {
        LocId(i)
    }

    /// Zero-based index into location tables.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One probabilistic fork of a transition: with probability `prob`, apply
/// `update` and move to `dest`.
#[derive(Debug, Clone)]
pub struct Fork {
    /// Destination location.
    pub dest: LocId,
    /// Probability in `(0, 1]`.
    pub prob: f64,
    /// Applied update function.
    pub update: AffineUpdate,
}

impl Fork {
    /// Creates a fork.
    pub fn new(dest: LocId, prob: f64, update: AffineUpdate) -> Self {
        Fork { dest, prob, update }
    }
}

/// A guarded probabilistic transition.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Source location.
    pub src: LocId,
    /// Guard condition over program variables.
    pub guard: Polyhedron,
    /// The forks; probabilities sum to 1.
    pub forks: Vec<Fork>,
}

/// A runtime state: location plus valuation.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Current location.
    pub loc: LocId,
    /// Current valuation of program variables.
    pub vals: Vec<f64>,
}

/// Result of one execution step.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Moved to a new state.
    Moved(State),
    /// Already at `ℓ_t` or `ℓ_f` (absorbing).
    Absorbed,
    /// No transition guard was satisfied — the PTS violates the completeness
    /// assumption at this state.
    Stuck,
}

/// Errors detected while building or validating a PTS.
#[derive(Debug, Clone, PartialEq)]
pub enum PtsError {
    /// No initial location/valuation was set.
    MissingInitial,
    /// Fork probabilities of a transition do not sum to 1.
    BadForkProbabilities {
        /// Index of the offending transition.
        transition: usize,
        /// Actual sum.
        sum: f64,
    },
    /// A fork probability lies outside `(0, 1]`.
    ForkProbabilityOutOfRange {
        /// Index of the offending transition.
        transition: usize,
    },
    /// A transition leaves the terminal or failure location.
    TransitionFromAbsorbing {
        /// Index of the offending transition.
        transition: usize,
    },
    /// Guard or update dimension disagrees with the variable count.
    DimensionMismatch {
        /// Index of the offending transition.
        transition: usize,
    },
    /// A distribution failed validation.
    BadDistribution(String),
    /// Two transitions from the same location overlap on a full-dimensional
    /// set, violating mutual exclusion.
    OverlappingGuards {
        /// Indices of the two offending transitions.
        transitions: (usize, usize),
        /// A witness point in the overlap.
        witness: Vec<f64>,
    },
    /// The initial valuation violates the initial location's invariant.
    InitialOutsideInvariant,
}

impl std::fmt::Display for PtsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PtsError::MissingInitial => write!(f, "initial location and valuation not set"),
            PtsError::BadForkProbabilities { transition, sum } => {
                write!(f, "transition {transition}: fork probabilities sum to {sum}")
            }
            PtsError::ForkProbabilityOutOfRange { transition } => {
                write!(f, "transition {transition}: fork probability outside (0, 1]")
            }
            PtsError::TransitionFromAbsorbing { transition } => {
                write!(f, "transition {transition} leaves an absorbing location")
            }
            PtsError::DimensionMismatch { transition } => {
                write!(f, "transition {transition}: dimension mismatch")
            }
            PtsError::BadDistribution(msg) => write!(f, "invalid distribution: {msg}"),
            PtsError::OverlappingGuards { transitions: (a, b), witness } => {
                write!(f, "transitions {a} and {b} overlap at {witness:?}")
            }
            PtsError::InitialOutsideInvariant => {
                write!(f, "initial valuation violates the initial location's invariant")
            }
        }
    }
}

impl std::error::Error for PtsError {}

/// Builder for [`Pts`]; see the crate-level example.
#[derive(Debug, Clone)]
pub struct PtsBuilder {
    var_names: Vec<String>,
    loc_names: Vec<String>,
    transitions: Vec<Transition>,
    invariants: Vec<Option<Polyhedron>>,
    initial: Option<(LocId, Vec<f64>)>,
}

impl Default for PtsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PtsBuilder {
    /// Creates a builder pre-populated with the two absorbing locations
    /// `terminal` (`ℓ_t`) and `failure` (`ℓ_f`).
    pub fn new() -> Self {
        PtsBuilder {
            var_names: Vec::new(),
            loc_names: vec!["terminal".into(), "failure".into()],
            transitions: Vec::new(),
            invariants: vec![None, None],
            initial: None,
        }
    }

    /// Declares a program variable.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.var_names.push(name.into());
        VarId(self.var_names.len() - 1)
    }

    /// Declares a location.
    pub fn add_location(&mut self, name: impl Into<String>) -> LocId {
        self.loc_names.push(name.into());
        self.invariants.push(None);
        LocId(self.loc_names.len() - 1)
    }

    /// The absorbing termination location `ℓ_t`.
    pub fn terminal_location(&self) -> LocId {
        LocId(0)
    }

    /// The absorbing assertion-violation location `ℓ_f`.
    pub fn failure_location(&self) -> LocId {
        LocId(1)
    }

    /// Sets the initial location and valuation.
    pub fn set_initial(&mut self, loc: LocId, vals: Vec<f64>) {
        self.initial = Some((loc, vals));
    }

    /// Attaches an invariant to a location (default: the universe).
    pub fn set_invariant(&mut self, loc: LocId, inv: Polyhedron) {
        self.invariants[loc.0] = Some(inv);
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, src: LocId, guard: Polyhedron, forks: Vec<Fork>) {
        self.transitions.push(Transition { src, guard, forks });
    }

    /// Validates the structure and produces the immutable [`Pts`].
    ///
    /// # Errors
    ///
    /// Any [`PtsError`] describing the first structural defect found.
    /// Guard-overlap checking is *not* performed here because it needs LP
    /// probes; call [`Pts::check_determinism`] separately.
    pub fn finish(self) -> Result<Pts, PtsError> {
        let (init_loc, init_vals) = self.initial.clone().ok_or(PtsError::MissingInitial)?;
        let n = self.var_names.len();
        if init_vals.len() != n {
            return Err(PtsError::MissingInitial);
        }
        for (i, t) in self.transitions.iter().enumerate() {
            if t.src.0 < 2 {
                return Err(PtsError::TransitionFromAbsorbing { transition: i });
            }
            if t.guard.dim() != n {
                return Err(PtsError::DimensionMismatch { transition: i });
            }
            let mut sum = 0.0;
            for fork in &t.forks {
                if fork.prob <= 0.0 || fork.prob > 1.0 {
                    return Err(PtsError::ForkProbabilityOutOfRange { transition: i });
                }
                if fork.update.dim() != n {
                    return Err(PtsError::DimensionMismatch { transition: i });
                }
                for s in fork.update.samples() {
                    s.dist.validate().map_err(PtsError::BadDistribution)?;
                }
                sum += fork.prob;
            }
            if (sum - 1.0).abs() > 1e-9 {
                return Err(PtsError::BadForkProbabilities { transition: i, sum });
            }
        }
        let invariants: Vec<Polyhedron> = self
            .invariants
            .into_iter()
            .map(|inv| inv.unwrap_or_else(|| Polyhedron::universe(n)))
            .collect();
        if !invariants[init_loc.0].closure_contains(&init_vals, 1e-9) {
            return Err(PtsError::InitialOutsideInvariant);
        }
        Ok(Pts {
            var_names: self.var_names,
            loc_names: self.loc_names,
            transitions: self.transitions,
            invariants,
            init_loc,
            init_vals,
        })
    }
}

/// An immutable, validated probabilistic transition system.
#[derive(Debug, Clone)]
pub struct Pts {
    pub(crate) var_names: Vec<String>,
    pub(crate) loc_names: Vec<String>,
    pub(crate) transitions: Vec<Transition>,
    pub(crate) invariants: Vec<Polyhedron>,
    pub(crate) init_loc: LocId,
    pub(crate) init_vals: Vec<f64>,
}

impl Pts {
    /// Number of program variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of locations, including the two absorbing ones.
    pub fn num_locations(&self) -> usize {
        self.loc_names.len()
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0]
    }

    /// Name of a location.
    pub fn loc_name(&self, l: LocId) -> &str {
        &self.loc_names[l.0]
    }

    /// Looks a location up by name.
    pub fn loc_by_name(&self, name: &str) -> Option<LocId> {
        self.loc_names.iter().position(|n| n == name).map(LocId)
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The invariant attached to a location (universe when unset).
    pub fn invariant(&self, l: LocId) -> &Polyhedron {
        &self.invariants[l.0]
    }

    /// Replaces a location's invariant. Invariants are modeling inputs (the
    /// paper derives them manually, §7), so refining one after construction
    /// is a supported workflow.
    ///
    /// # Panics
    ///
    /// Panics if the invariant's dimension disagrees with the variable
    /// count, or if the initial valuation would fall outside the new
    /// invariant of the initial location.
    pub fn set_invariant(&mut self, l: LocId, inv: Polyhedron) {
        assert_eq!(inv.dim(), self.num_vars(), "invariant dimension mismatch");
        if l == self.init_loc {
            assert!(
                inv.closure_contains(&self.init_vals, 1e-9),
                "initial valuation violates the new invariant"
            );
        }
        self.invariants[l.0] = inv;
    }

    /// The termination location `ℓ_t`.
    pub fn terminal_location(&self) -> LocId {
        LocId(0)
    }

    /// The assertion-violation location `ℓ_f`.
    pub fn failure_location(&self) -> LocId {
        LocId(1)
    }

    /// The initial state `(ℓ_init, v_init)`.
    pub fn initial_state(&self) -> State {
        State { loc: self.init_loc, vals: self.init_vals.clone() }
    }

    /// Non-absorbing location ids in declaration order.
    pub fn live_locations(&self) -> impl Iterator<Item = LocId> + '_ {
        (2..self.loc_names.len()).map(LocId)
    }

    /// `true` for `ℓ_t` and `ℓ_f`.
    pub fn is_absorbing(&self, l: LocId) -> bool {
        l.0 < 2
    }

    /// Executes one step of the PTS process (Definition 1 in the paper's
    /// appendix): pick the transition whose guard holds, choose a fork with
    /// its probability, draw all samples, apply the update.
    pub fn step<R: Rng + ?Sized>(&self, state: &State, rng: &mut R) -> StepOutcome {
        if self.is_absorbing(state.loc) {
            return StepOutcome::Absorbed;
        }
        let Some(t) = self
            .transitions
            .iter()
            .find(|t| t.src == state.loc && t.guard.contains(&state.vals, 1e-12))
        else {
            return StepOutcome::Stuck;
        };
        let mut u: f64 = rng.gen();
        let mut chosen = t.forks.last().expect("validated nonempty forks");
        for fork in &t.forks {
            if u < fork.prob {
                chosen = fork;
                break;
            }
            u -= fork.prob;
        }
        StepOutcome::Moved(State {
            loc: chosen.dest,
            vals: chosen.update.apply(&state.vals, rng),
        })
    }

    /// Checks pairwise mutual exclusion of guards out of each location by
    /// searching for a full-dimensional overlap (an interior point with
    /// `margin` slack in the intersection of two guards and the location
    /// invariant).
    ///
    /// # Errors
    ///
    /// [`PtsError::OverlappingGuards`] with a witness point.
    pub fn check_determinism(&self, margin: f64) -> Result<(), PtsError> {
        let mut solver = LpSolver::new();
        for i in 0..self.transitions.len() {
            for j in i + 1..self.transitions.len() {
                let (a, b) = (&self.transitions[i], &self.transitions[j]);
                if a.src != b.src {
                    continue;
                }
                let joint = a
                    .guard
                    .intersection(&b.guard)
                    .intersection(&self.invariants[a.src.0]);
                if let Some(witness) = joint.interior_point_in(margin, &mut solver) {
                    return Err(PtsError::OverlappingGuards { transitions: (i, j), witness });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distribution;
    use qava_polyhedra::Halfspace;
    use rand::rngs::StdRng;
    use rand::SeedableRng as _;

    /// The asymmetric random walk of Fig. 2 without the time counter.
    fn walk() -> Pts {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let head = b.add_location("head");
        b.set_initial(head, vec![0.0]);
        b.add_transition(
            head,
            Polyhedron::from_constraints(1, vec![Halfspace::le(vec![1.0], 99.0)]),
            vec![
                Fork::new(head, 0.75, AffineUpdate::increment(1, 0, 1.0)),
                Fork::new(head, 0.25, AffineUpdate::increment(1, 0, -1.0)),
            ],
        );
        let term = b.terminal_location();
        b.add_transition(
            head,
            Polyhedron::from_constraints(1, vec![Halfspace::ge(vec![1.0], 100.0)]),
            vec![Fork::new(term, 1.0, AffineUpdate::identity(1))],
        );
        b.finish().unwrap()
    }

    #[test]
    fn walk_terminates_with_drift() {
        let pts = walk();
        let mut rng = StdRng::seed_from_u64(11);
        let mut state = pts.initial_state();
        let mut steps = 0;
        loop {
            match pts.step(&state, &mut rng) {
                StepOutcome::Moved(s) => state = s,
                StepOutcome::Absorbed => break,
                StepOutcome::Stuck => panic!("walk got stuck at {state:?}"),
            }
            steps += 1;
            assert!(steps < 100_000, "positive-drift walk should finish quickly");
        }
        assert_eq!(state.loc, pts.terminal_location());
        assert!(state.vals[0] >= 100.0);
    }

    #[test]
    fn determinism_check_passes_on_partition() {
        walk().check_determinism(1e-6).unwrap();
    }

    #[test]
    fn determinism_check_catches_overlap() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let head = b.add_location("head");
        b.set_initial(head, vec![0.0]);
        let term = b.terminal_location();
        // Two guards x <= 10 and x >= 5 overlap on [5, 10].
        b.add_transition(
            head,
            Polyhedron::from_constraints(1, vec![Halfspace::le(vec![1.0], 10.0)]),
            vec![Fork::new(term, 1.0, AffineUpdate::identity(1))],
        );
        b.add_transition(
            head,
            Polyhedron::from_constraints(1, vec![Halfspace::ge(vec![1.0], 5.0)]),
            vec![Fork::new(term, 1.0, AffineUpdate::identity(1))],
        );
        let pts = b.finish().unwrap();
        match pts.check_determinism(1e-6) {
            Err(PtsError::OverlappingGuards { witness, .. }) => {
                assert!((5.0..=10.0).contains(&witness[0]));
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn bad_probabilities_rejected() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let head = b.add_location("head");
        b.set_initial(head, vec![0.0]);
        b.add_transition(
            head,
            Polyhedron::universe(1),
            vec![
                Fork::new(head, 0.5, AffineUpdate::identity(1)),
                Fork::new(head, 0.3, AffineUpdate::identity(1)),
            ],
        );
        assert!(matches!(b.finish(), Err(PtsError::BadForkProbabilities { .. })));
    }

    #[test]
    fn transition_from_absorbing_rejected() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let head = b.add_location("head");
        b.set_initial(head, vec![0.0]);
        let term = b.terminal_location();
        b.add_transition(
            term,
            Polyhedron::universe(1),
            vec![Fork::new(head, 1.0, AffineUpdate::identity(1))],
        );
        assert!(matches!(b.finish(), Err(PtsError::TransitionFromAbsorbing { .. })));
    }

    #[test]
    fn missing_initial_rejected() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        b.add_location("head");
        assert_eq!(b.finish().unwrap_err(), PtsError::MissingInitial);
    }

    #[test]
    fn initial_must_satisfy_invariant() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let head = b.add_location("head");
        b.set_initial(head, vec![50.0]);
        b.set_invariant(head, Polyhedron::from_constraints(1, vec![Halfspace::le(vec![1.0], 10.0)]));
        assert_eq!(b.finish().unwrap_err(), PtsError::InitialOutsideInvariant);
    }

    #[test]
    fn invalid_distribution_rejected() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let head = b.add_location("head");
        b.set_initial(head, vec![0.0]);
        let bad = AffineUpdate::identity(1)
            .with_sample(Distribution::Discrete(vec![(0.0, 0.7)]), vec![1.0]);
        b.add_transition(head, Polyhedron::universe(1), vec![Fork::new(head, 1.0, bad)]);
        assert!(matches!(b.finish(), Err(PtsError::BadDistribution(_))));
    }

    #[test]
    fn stuck_when_incomplete() {
        let mut b = PtsBuilder::new();
        b.add_var("x");
        let head = b.add_location("head");
        b.set_initial(head, vec![500.0]);
        // Only guard: x <= 99; starting at 500 nothing fires.
        b.add_transition(
            head,
            Polyhedron::from_constraints(1, vec![Halfspace::le(vec![1.0], 99.0)]),
            vec![Fork::new(head, 1.0, AffineUpdate::identity(1))],
        );
        let pts = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(pts.step(&pts.initial_state(), &mut rng), StepOutcome::Stuck);
    }

    #[test]
    fn absorbing_states_stay_put() {
        let pts = walk();
        let mut rng = StdRng::seed_from_u64(0);
        let s = State { loc: pts.failure_location(), vals: vec![1.0] };
        assert_eq!(pts.step(&s, &mut rng), StepOutcome::Absorbed);
    }

    #[test]
    fn name_lookups() {
        let pts = walk();
        assert_eq!(pts.loc_name(pts.terminal_location()), "terminal");
        assert_eq!(pts.loc_by_name("head"), Some(LocId(2)));
        assert_eq!(pts.loc_by_name("nope"), None);
        assert_eq!(pts.var_name(VarId(0)), "x");
    }
}
