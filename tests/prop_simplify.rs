//! Property test: `qava_pts::simplify` preserves the violation probability.
//!
//! Random structured programs over small integer ranges are lowered through
//! `qava-lang` (whose pipeline applies the full simplification) and checked
//! against the exhaustive value-iteration oracle of `qava-core::fixpoint`
//! run on the same program — the oracle explores the *simplified* system's
//! reachable states exactly, so equality with a hand-rolled interpreter of
//! the original source is the real property under test.

mod common;

use common::certify;
use proptest::prelude::*;
use qava::analysis::engine::{AnalysisRequest, EngineRegistry};
use qava::analysis::fixpoint::VpfOracle;
use qava::lp::BackendChoice;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::collections::BTreeMap;

/// A random but structurally valid program: a bounded counter loop with a
/// probabilistic body and a final threshold assertion.
#[derive(Debug, Clone)]
struct RandomWalkProgram {
    start: i32,
    hi: i32,
    up_prob_percent: u8,
    step_up: i32,
    step_down: i32,
    threshold: i32,
}

impl RandomWalkProgram {
    fn source(&self) -> String {
        format!(
            r"
            x := {start}; t := 0;
            while x >= 1 and x <= {hi} and t <= 40
                invariant x >= {lo_inv} and x <= {hi_inv} and t >= 0 and t <= 41 {{
                if prob(0.{p:02}) {{ x, t := x + {up}, t + 1; }}
                else {{ x, t := x - {down}, t + 1; }}
            }}
            assert x >= {thr};
            ",
            start = self.start,
            hi = self.hi,
            lo_inv = 1 - self.step_down,
            hi_inv = self.hi + self.step_up,
            p = self.up_prob_percent,
            up = self.step_up,
            down = self.step_down,
            thr = self.threshold,
        )
    }

    /// Direct interpreter for the source semantics, never touching the PTS
    /// pipeline: exact expected violation frequency by exhaustive
    /// enumeration over the bounded step budget.
    fn exact_vpf(&self) -> f64 {
        // Dynamic programming over (x, t), t ≤ 41 steps.
        let p = f64::from(self.up_prob_percent) / 100.0;
        let lo_state = 1 - self.step_down - self.step_up - 1;
        let hi_state = self.hi + self.step_up + self.step_down + 1;
        let width = (hi_state - lo_state + 1) as usize;
        let idx = |x: i32| (x - lo_state) as usize;
        // violation[x][t]: probability of eventually violating from (x, t).
        // Work backwards from t = 41 (loop cannot continue past t = 40).
        let violated = |x: i32| x < self.threshold;
        let mut next = vec![0.0f64; width];
        for x in lo_state..=hi_state {
            next[idx(x)] = if violated(x) { 1.0 } else { 0.0 };
        }
        for t in (0..=40).rev() {
            let mut cur = vec![0.0f64; width];
            for x in lo_state..=hi_state {
                let in_loop = (1..=self.hi).contains(&x) && t <= 40;
                cur[idx(x)] = if in_loop {
                    p * next[idx(x + self.step_up)]
                        + (1.0 - p) * next[idx(x - self.step_down)]
                } else if violated(x) {
                    1.0
                } else {
                    0.0
                };
            }
            next = cur;
            let _ = t;
        }
        next[idx(self.start)]
    }
}

fn program_strategy() -> impl Strategy<Value = RandomWalkProgram> {
    (1i32..8, 4i32..10, 5u8..96, 1i32..3, 1i32..3, -2i32..12).prop_map(
        |(start, hi, p, up, down, thr)| RandomWalkProgram {
            start: start.min(hi),
            hi,
            up_prob_percent: p,
            step_up: up,
            step_down: down,
            threshold: thr,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The compiled (simplified) PTS's vpf equals the direct interpreter's.
    #[test]
    fn simplified_pts_preserves_vpf(prog in program_strategy()) {
        let pts = qava::lang::compile(&prog.source(), &BTreeMap::new()).unwrap();
        let oracle = VpfOracle::explore(&pts, 200_000).unwrap();
        let (lo, hi) = oracle.interval(5_000);
        let exact = prog.exact_vpf();
        prop_assert!(hi - lo < 1e-9, "oracle failed to converge: [{lo}, {hi}]");
        prop_assert!(
            (lo - exact).abs() < 1e-9,
            "pipeline vpf {lo} differs from direct interpretation {exact}\n{}",
            prog.source()
        );
    }

    /// Upper-bound synthesis is sound on every random program where it
    /// succeeds: the certified bound dominates the exact vpf.
    #[test]
    fn explinsyn_sound_on_random_programs(prog in program_strategy()) {
        let pts = qava::lang::compile(&prog.source(), &BTreeMap::new()).unwrap();
        if let Ok(r) = certify("explinsyn", &pts) {
            let exact = prog.exact_vpf();
            prop_assert!(
                r.bound.to_f64() >= exact - 1e-9,
                "bound {} below exact vpf {exact}\n{}",
                r.bound,
                prog.source()
            );
        }
    }

    /// Hoeffding synthesis is likewise sound where it succeeds.
    #[test]
    fn hoeffding_sound_on_random_programs(prog in program_strategy()) {
        let pts = qava::lang::compile(&prog.source(), &BTreeMap::new()).unwrap();
        let req = AnalysisRequest { ser_iterations: 20, ..AnalysisRequest::upper(&pts) };
        let report = EngineRegistry::with_builtins()
            .run_engine("hoeffding-linear", &req, BackendChoice::default())
            .expect("built-in engine");
        if let Ok(r) = report.outcome {
            let exact = prog.exact_vpf();
            prop_assert!(
                r.bound.to_f64() >= exact - 1e-9,
                "bound {} below exact vpf {exact}\n{}",
                r.bound,
                prog.source()
            );
        }
    }
}

/// Deterministic spot check that the interpreter itself is right, so the
/// property above is anchored: compare against a seeded simulation once.
#[test]
fn interpreter_matches_simulation() {
    let prog = RandomWalkProgram {
        start: 3,
        hi: 6,
        up_prob_percent: 55,
        step_up: 1,
        step_down: 1,
        threshold: 5,
    };
    let pts = qava::lang::compile(&prog.source(), &BTreeMap::new()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut violations = 0u32;
    let trials = 200_000u32;
    for _ in 0..trials {
        let mut st = pts.initial_state();
        for _ in 0..1_000 {
            match pts.step(&st, &mut rng) {
                qava::pts::StepOutcome::Moved(s) => st = s,
                _ => break,
            }
        }
        if st.loc == pts.failure_location() {
            violations += 1;
        }
        // Mix the rng a little so trials differ even on absorbed paths.
        let _: f64 = rng.gen();
    }
    let sim = f64::from(violations) / f64::from(trials);
    let exact = prog.exact_vpf();
    assert!((sim - exact).abs() < 0.01, "sim {sim} vs exact {exact}");
}
