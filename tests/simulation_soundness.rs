//! Soundness against ground truth: for programs whose violation
//! probability is large enough to estimate, the certified bounds must
//! bracket a seeded Monte-Carlo estimate. This is a stronger validation
//! than the paper reports (it had no executable ground truth).

mod common;

use common::certify;
use qava::sim::Simulator;
use std::collections::BTreeMap;

fn compile(src: &str) -> qava::pts::Pts {
    qava::lang::compile(src, &BTreeMap::new()).expect("test program compiles")
}

#[track_caller]
fn check_upper(src: &str, trials: usize) {
    let pts = compile(src);
    let upper = certify("explinsyn", &pts).expect("upper bound synthesizes");
    let est = Simulator::new(0xABCD).estimate_violation(&pts, trials, 200_000);
    assert!(
        est.lower_ci() <= upper.bound.to_f64() + 1e-12,
        "upper bound {} below the empirical CI floor {}",
        upper.bound,
        est.lower_ci()
    );
}

#[track_caller]
fn check_lower(src: &str, trials: usize) {
    let pts = compile(src);
    let lower = certify("explowsyn", &pts).expect("lower bound synthesizes");
    let est = Simulator::new(0xABCD).estimate_violation(&pts, trials, 200_000);
    assert!(
        lower.bound.to_f64() <= est.upper_ci() + 1e-12,
        "lower bound {} above the empirical CI ceiling {}",
        lower.bound,
        est.upper_ci()
    );
}

/// A short race whose violation probability is around 15%.
const SHORT_RACE: &str = r"
    x := 2; y := 0;
    while x <= 9 and y <= 9 invariant x <= 10 and y <= 11 {
        if prob(0.5) { x, y := x + 1, y + 2; } else { x := x + 1; }
    }
    assert x >= 10;
";

#[test]
fn short_race_upper_sound() {
    check_upper(SHORT_RACE, 50_000);
}

/// A biased walk with a moderate violation probability.
const SHORT_WALK: &str = r"
    x := 0; t := 0;
    while x <= 9 and t <= 30 invariant x >= -31 and x <= 10 and t >= 0 and t <= 31 {
        switch {
            prob(0.75): { x, t := x + 1, t + 1; }
            prob(0.25): { x, t := x - 1, t + 1; }
        }
    }
    assert x >= 10;
";

#[test]
fn short_walk_upper_sound() {
    check_upper(SHORT_WALK, 50_000);
}

#[test]
fn short_walk_hoeffding_sound() {
    let pts = compile(SHORT_WALK);
    let upper = certify("hoeffding-linear", &pts).unwrap();
    let est = Simulator::new(0xABCD).estimate_violation(&pts, 50_000, 100_000);
    assert!(est.lower_ci() <= upper.bound.to_f64());
}

/// The §3.3 hardware walk with an exaggerated fault rate, so the lower
/// bound sits in estimable territory.
const FAULTY_WALK: &str = r"
    x := 1;
    while x <= 19 invariant x <= 20 {
        switch {
            prob(0.01): { exit; }
            prob(0.75 * 0.99): { x := x + 1; }
            prob(0.25 * 0.99): { x := x - 1; }
        }
    }
    assert false;
";

#[test]
fn faulty_walk_lower_sound() {
    check_lower(FAULTY_WALK, 50_000);
}

#[test]
fn faulty_walk_bracket() {
    let pts = compile(FAULTY_WALK);
    let lower = certify("explowsyn", &pts).unwrap();
    let upper = certify("explinsyn", &pts).unwrap();
    let est = Simulator::new(0xF00D).estimate_violation(&pts, 100_000, 100_000);
    assert!(lower.bound.to_f64() <= est.upper_ci());
    assert!(est.lower_ci() <= upper.bound.to_f64());
    // The bracket is informative, not vacuous: both ends within 5% of the
    // estimate for this well-behaved program.
    assert!(upper.bound.to_f64() - lower.bound.to_f64() < 0.05);
}

/// A coin flip has an exactly computable violation probability; all three
/// syntheses must agree with it.
#[test]
fn coin_flip_exact_everywhere() {
    let src = r"
        x := 0;
        if prob(0.25) { assert false; } else { exit; }
    ";
    let pts = compile(src);
    let upper = certify("explinsyn", &pts).unwrap();
    let lower = certify("explowsyn", &pts).unwrap();
    assert!((upper.bound.to_f64() - 0.25).abs() < 1e-4, "upper {}", upper.bound);
    assert!((lower.bound.to_f64() - 0.25).abs() < 1e-4, "lower {}", lower.bound);
    let est = Simulator::new(3).estimate_violation(&pts, 200_000, 100);
    assert!((est.probability - 0.25).abs() < 0.01);
}

/// Two sequential gates: violation probability is the product 0.3 × 0.5.
#[test]
fn sequential_gates_product() {
    let src = r"
        x := 0;
        if prob(0.3) {
            if prob(0.5) { assert false; } else { exit; }
        } else { exit; }
    ";
    let pts = compile(src);
    let upper = certify("explinsyn", &pts).unwrap();
    let lower = certify("explowsyn", &pts).unwrap();
    assert!((upper.bound.to_f64() - 0.15).abs() < 1e-4, "upper {}", upper.bound);
    assert!((lower.bound.to_f64() - 0.15).abs() < 1e-4, "lower {}", lower.bound);
}

/// The simulator agrees with the closed-form ruin probability of the
/// asymmetric gambler's-ruin walk, and the certified bounds bracket it.
/// For p = 3/4 up, start 1, absorbing at 0 and 20:
/// P[ruin] = ((q/p)^1 − (q/p)^20) / (1 − (q/p)^20) with q/p = 1/3.
#[test]
fn gamblers_ruin_closed_form() {
    let src = r"
        x := 1;
        while x >= 1 and x <= 19 invariant x >= 0 and x <= 20 {
            if prob(0.75) { x := x + 1; } else { x := x - 1; }
        }
        assert x >= 20;
    ";
    let pts = compile(src);
    let rho: f64 = 1.0 / 3.0;
    let ruin = (rho - rho.powi(20)) / (1.0 - rho.powi(20));
    let est = Simulator::new(11).estimate_violation(&pts, 200_000, 100_000);
    assert!((est.probability - ruin).abs() < 0.005, "sim {} vs exact {ruin}", est.probability);
    let upper = certify("explinsyn", &pts).unwrap();
    assert!(upper.bound.to_f64() + 1e-9 >= ruin, "upper {} vs exact {ruin}", upper.bound);
    // The optimal exponential template for gambler's ruin is tight at the
    // closed form's leading term (q/p)^x.
    assert!(upper.bound.to_f64() <= rho * 1.05, "upper {} far from (q/p)^1", upper.bound);
}
