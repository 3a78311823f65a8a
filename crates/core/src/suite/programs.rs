//! The twelve benchmark programs and their table rows.

use super::{sci, Benchmark, Category, Direction, PaperReference};
use std::collections::BTreeMap;

fn params(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

// ---------------------------------------------------------------- Deviation

/// RdAdder (Fig 4, reconstructed): 500 fair random increments; deviation of
/// the sum `x` from its mean 250 by at least `d`.
pub const RDADDER: &str = r"
    param n = 500;
    param d = 25;
    i := 0; x := 0;
    while i <= n - 1 invariant i >= 0 and i <= n and x >= 0 and x <= i {
        if prob(0.5) { i, x := i + 1, x + 1; } else { i := i + 1; }
    }
    assert x <= n / 2 - 1 + d;
";

/// The three RdAdder rows of Table 1.
pub fn rdadder_rows() -> Vec<Benchmark> {
    [
        (25.0, sci(7.54, -2), sci(7.43, -2), sci(8.00, -2)),
        (50.0, sci(3.95, -5), sci(3.54, -5), sci(4.54, -5)),
        (75.0, sci(1.44, -10), sci(9.17, -11), sci(1.69, -10)),
    ]
    .into_iter()
    .map(|(d, h, e, p)| Benchmark {
        name: "RdAdder",
        category: Category::Deviation,
        direction: Direction::Upper,
        label: format!("Pr[X − E[X] ≥ {d}]"),
        source: RDADDER,
        params: params(&[("d", d)]),
        paper: PaperReference {
            hoeffding: Some(h),
            explinsyn: Some(e),
            previous: Some(p),
            ..Default::default()
        },
    })
    .collect()
}

/// Robot (Fig 5, abstracted): the dead-reckoning drift `d = x − ex` takes a
/// ±0.05 noise kick on the noisy move command (probability 0.1 — Fig 5
/// elides the other commands, and the paper's own Table 4 exponent
/// coefficient ≈13.85 on `x − ex` pins the kick probability to 0.1; a 0.4
/// kick rate would cap every sound exponential bound near `e^{-3}`, far
/// above the paper's `9.64e-6`) over 500 iterations.
pub const ROBOT: &str = r"
    param n = 500;
    param dev = 1.8;
    i := 0; d := 0;
    while i <= n - 1 invariant i >= 0 and i <= n and d <= 0.05 * i and d >= -(0.05 * i) {
        switch {
            prob(0.05): { i, d := i + 1, d + 0.05; }
            prob(0.05): { i, d := i + 1, d - 0.05; }
            prob(0.9): { i := i + 1; }
        }
    }
    assert d <= dev - 0.05;
";

/// The three Robot rows of Table 1.
pub fn robot_rows() -> Vec<Benchmark> {
    [
        (1.8, sci(1.66, -1), sci(9.64, -6), sci(2.04, -5)),
        (2.0, sci(6.81, -3), sci(4.78, -7), sci(1.62, -6)),
        (2.2, sci(5.66, -5), sci(1.51, -8), sci(9.85, -8)),
    ]
    .into_iter()
    .map(|(dev, h, e, p)| Benchmark {
        name: "Robot",
        category: Category::Deviation,
        direction: Direction::Upper,
        label: format!("Pr[X − E[X] ≥ {dev}]"),
        source: ROBOT,
        params: params(&[("dev", dev)]),
        paper: PaperReference {
            hoeffding: Some(h),
            explinsyn: Some(e),
            previous: Some(p),
            ..Default::default()
        },
    })
    .collect()
}

// ------------------------------------------------------------ Concentration

/// Coupon (Fig 9): coupon collector with 5 items and phase-dependent success
/// probabilities; violation iff collection exceeds `n` rounds.
pub const COUPON: &str = r"
    param n = 100;
    i := 0; t := 0;
    while i <= 4 and t <= n invariant i >= 0 and i <= 5 and t >= 0 and t <= n + 1 {
        if i == 0 { i, t := i + 1, t + 1; } else {
        if i == 1 {
            switch { prob(0.8): { i, t := i + 1, t + 1; } prob(0.2): { t := t + 1; } }
        } else {
        if i == 2 {
            switch { prob(0.6): { i, t := i + 1, t + 1; } prob(0.4): { t := t + 1; } }
        } else {
        if i == 3 {
            switch { prob(0.4): { i, t := i + 1, t + 1; } prob(0.6): { t := t + 1; } }
        } else {
            switch { prob(0.2): { i, t := i + 1, t + 1; } prob(0.8): { t := t + 1; } }
        } } } }
    }
    assert i >= 5;
";

/// The three Coupon rows of Table 1.
pub fn coupon_rows() -> Vec<Benchmark> {
    [
        (100.0, sci(1.02, -1), sci(7.01, -5), sci(6.00, -3)),
        (300.0, sci(4.02, -5), sci(7.44, -22), sci(9.01, -10)),
        (500.0, sci(1.40, -8), sci(4.01, -40), sci(1.05, -16)),
    ]
    .into_iter()
    .map(|(n, h, e, p)| Benchmark {
        name: "Coupon",
        category: Category::Concentration,
        direction: Direction::Upper,
        label: format!("Pr[T > {n}]"),
        source: COUPON,
        params: params(&[("n", n)]),
        paper: PaperReference {
            hoeffding: Some(h),
            explinsyn: Some(e),
            previous: Some(p),
            ..Default::default()
        },
    })
    .collect()
}

/// Prspeed (Fig 10): a walk whose speed is randomized after a warm-up phase;
/// violation iff more than `n` steps are taken.
pub const PRSPEED: &str = r"
    param n = 150;
    x := 0; y := 0; t := 0;
    while x + 3 <= 50 and t <= n
        invariant x >= 0 and x <= 50 and y >= 0 and y <= 50 and t >= 0 and t <= n + 1 {
        if y <= 49 {
            if prob(0.5) { y, t := y + 1, t + 1; } else { t := t + 1; }
        } else {
            switch {
                prob(0.25): { t := t + 1; }
                prob(0.25): { x, t := x + 1, t + 1; }
                prob(0.25): { x, t := x + 2, t + 1; }
                prob(0.25): { x, t := x + 3, t + 1; }
            }
        }
    }
    assert x + 3 >= 51;
";

/// The three Prspeed rows of Table 1.
pub fn prspeed_rows() -> Vec<Benchmark> {
    [
        (150.0, sci(5.42, -7), sci(7.43, -23), sci(5.00, -3)),
        (200.0, sci(1.89, -10), sci(8.03, -36), sci(2.59, -5)),
        (250.0, sci(5.65, -14), sci(2.71, -49), sci(9.17, -8)),
    ]
    .into_iter()
    .map(|(n, h, e, p)| Benchmark {
        name: "Prspeed",
        category: Category::Concentration,
        direction: Direction::Upper,
        label: format!("Pr[T > {n}]"),
        source: PRSPEED,
        params: params(&[("n", n)]),
        paper: PaperReference {
            hoeffding: Some(h),
            explinsyn: Some(e),
            previous: Some(p),
            ..Default::default()
        },
    })
    .collect()
}

/// Rdwalk (Fig 2): the asymmetric random walk of §3.2; violation iff the
/// walk fails to reach 100 within `n` steps.
pub const RDWALK: &str = r"
    param n = 400;
    x := 0; t := 0;
    while x <= 99 and t <= n
        invariant x >= -(n + 1) and x <= 100 and t >= 0 and t <= n + 1 {
        switch {
            prob(0.75): { x, t := x + 1, t + 1; }
            prob(0.25): { x, t := x - 1, t + 1; }
        }
    }
    assert x >= 100;
";

/// The three Rdwalk rows of Table 1.
pub fn rdwalk_rows() -> Vec<Benchmark> {
    [
        (400.0, sci(1.85, -3), sci(2.12, -7), sci(3.18, -6)),
        (500.0, sci(1.43, -5), sci(1.57, -12), sci(1.40, -10)),
        (600.0, sci(5.47, -8), sci(4.81, -18), sci(2.68, -15)),
    ]
    .into_iter()
    .map(|(n, h, e, p)| Benchmark {
        name: "Rdwalk",
        category: Category::Concentration,
        direction: Direction::Upper,
        label: format!("Pr[T > {n}]"),
        source: RDWALK,
        params: params(&[("n", n)]),
        paper: PaperReference {
            hoeffding: Some(h),
            explinsyn: Some(e),
            previous: Some(p),
            ..Default::default()
        },
    })
    .collect()
}

// ----------------------------------------------------------------- StoInv

/// 1DWalk (Fig 6): downward-drifting walk with an in-loop assertion
/// `x ≤ 1000`.
pub const WALK1D: &str = r"
    param x0 = 10;
    x := x0;
    while x >= 0 invariant x >= -2 and x <= 1001 {
        if x >= 1001 { assert false; } else { skip; }
        switch {
            prob(0.5): { x := x - 2; }
            prob(0.5): { x := x + 1; }
        }
    }
";

/// The three 1DWalk rows of Table 1.
pub fn walk1d_rows() -> Vec<Benchmark> {
    [
        (10.0, sci(1.73, -64), sci(7.82, -208), sci(5.1, -5)),
        (50.0, sci(6.77, -62), sci(1.79, -199), sci(1.0, -4)),
        (100.0, sci(1.04, -58), sci(5.03, -189), sci(2.5, -4)),
    ]
    .into_iter()
    .map(|(x0, h, e, p)| Benchmark {
        name: "1DWalk",
        category: Category::StoInv,
        direction: Direction::Upper,
        label: format!("x = {x0}"),
        source: WALK1D,
        params: params(&[("x0", x0)]),
        paper: PaperReference {
            hoeffding: Some(h),
            explinsyn: Some(e),
            previous: Some(p),
            ..Default::default()
        },
    })
    .collect()
}

/// 2DWalk (Fig 7): x drifts up while y drifts down; the in-loop assertion
/// `x ≥ 1` is violated if x hits zero before y does.
pub const WALK2D: &str = r"
    param x0 = 1000;
    param y0 = 10;
    x := x0; y := y0;
    while y >= 1 invariant x >= 0 and y >= 0 {
        if x <= 0 { assert false; } else { skip; }
        if prob(0.5) {
            switch { prob(0.75): { x := x + 1; } prob(0.25): { x := x - 1; } }
        } else {
            switch { prob(0.75): { y := y - 1; } prob(0.25): { y := y + 1; } }
        }
    }
";

/// The three 2DWalk rows of Table 1.
pub fn walk2d_rows() -> Vec<Benchmark> {
    [
        (1000.0, 10.0, sci(4.14, -73), sci(1.0, -655), sci(2.4, -11)),
        (500.0, 40.0, sci(6.43, -37), sci(9.61, -278), sci(5.5, -4)),
        (400.0, 50.0, sci(1.11, -29), sci(1.02, -218), sci(1.9, -2)),
    ]
    .into_iter()
    .map(|(x0, y0, h, e, p)| Benchmark {
        name: "2DWalk",
        category: Category::StoInv,
        direction: Direction::Upper,
        label: format!("(x, y) = ({x0}, {y0})"),
        source: WALK2D,
        params: params(&[("x0", x0), ("y0", y0)]),
        paper: PaperReference {
            hoeffding: Some(h),
            explinsyn: Some(e),
            previous: Some(p),
            ..Default::default()
        },
    })
    .collect()
}

/// 3DWalk (Fig 8): three coordinates drift down in big steps and up in
/// small ones; the in-loop assertion bounds their sum by 1000.
pub const WALK3D: &str = r"
    param x0 = 100;
    param y0 = 100;
    param z0 = 100;
    x := x0; y := y0; z := z0;
    while x >= 0 and y >= 0 and z >= 0
        invariant x >= -1 and y >= -1 and z >= -1 and x + y + z <= 1000.2 {
        if x + y + z >= 1000.1 { assert false; } else { skip; }
        if prob(0.9) {
            if prob(0.5) { x, y := x - 1, y - 1; } else { z := z - 1; }
        } else {
            if prob(0.5) { x, y := x + 0.1, y + 0.1; } else { z := z + 0.1; }
        }
    }
";

/// The three 3DWalk rows of Table 1.
pub fn walk3d_rows() -> Vec<Benchmark> {
    [
        (100.0, 100.0, 100.0, sci(4.83, -281), sci(1.0, -3230), sci(4.4, -17)),
        (100.0, 150.0, 200.0, sci(6.66, -221), sci(1.0, -2538), sci(2.9, -9)),
        (300.0, 100.0, 150.0, sci(7.86, -181), sci(1.0, -2076), sci(1.3, -7)),
    ]
    .into_iter()
    .map(|(x0, y0, z0, h, e, p)| Benchmark {
        name: "3DWalk",
        category: Category::StoInv,
        direction: Direction::Upper,
        label: format!("(x, y, z) = ({x0}, {y0}, {z0})"),
        source: WALK3D,
        params: params(&[("x0", x0), ("y0", y0), ("z0", z0)]),
        paper: PaperReference {
            hoeffding: Some(h),
            explinsyn: Some(e),
            previous: Some(p),
            ..Default::default()
        },
    })
    .collect()
}

/// Race (Fig 1, §3.1): the tortoise-hare race.
pub const RACE: &str = r"
    param start = 40;
    x := start; y := 0;
    while x <= 99 and y <= 99 invariant x <= 100 and y <= 101 and y >= 0 {
        if prob(0.5) { x, y := x + 1, y + 2; } else { x := x + 1; }
    }
    assert x >= 100;
";

/// The three Race rows of Table 1 (no previous results exist).
pub fn race_rows() -> Vec<Benchmark> {
    [
        (40.0, sci(9.08, -4), sci(1.52, -7)),
        (35.0, sci(6.84, -3), sci(2.16, -5)),
        (45.0, sci(6.65, -5), sci(8.65, -11)),
    ]
    .into_iter()
    .map(|(start, h, e)| Benchmark {
        name: "Race",
        category: Category::StoInv,
        direction: Direction::Upper,
        label: format!("(x, y) = ({start}, 0)"),
        source: RACE,
        params: params(&[("start", start)]),
        paper: PaperReference {
            hoeffding: Some(h),
            explinsyn: Some(e),
            ..Default::default()
        },
    })
    .collect()
}

// ---------------------------------------------------------------- Hardware

/// M1DWalk (Fig 3, §3.3): the asymmetric walk on hardware that fails with
/// probability `p` per iteration; `assert false` at the end, so the
/// violation probability is exactly the probability of a fully correct run.
pub const M1DWALK: &str = r"
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

/// The three M1DWalk rows of Table 2 (no prior tool applies).
pub fn m1dwalk_rows() -> Vec<Benchmark> {
    [(1e-7, 0.999984), (1e-5, 0.998401), (1e-4, 0.984126)]
        .into_iter()
        .map(|(p, low)| Benchmark {
            name: "M1DWalk",
            category: Category::Hardware,
            direction: Direction::Lower,
            label: format!("p = {p:.0e}"),
            source: M1DWALK,
            params: params(&[("p", p)]),
            paper: PaperReference {
                explowsyn: Some(crate::logprob::LogProb::from_prob(low)),
                ..Default::default()
            },
        })
        .collect()
}

/// Newton (Fig 11, abstracted): 41 iterations of Newton's method on
/// unreliable hardware, each passing five failure gates.
pub const NEWTON: &str = r"
    param p = 5e-4;
    i := 0;
    while i <= 40 invariant i >= 0 and i <= 41 {
        if prob((1-p) * (1-p) * (1-p) * (1-p) * (1-p)) { skip; } else { exit; }
        if prob(0.9999) { skip; } else { exit; }
        if prob(0.9999) { skip; } else { exit; }
        if prob((1-p) * (1-p) * (1-p)) { skip; } else { exit; }
        if prob((1-p) * (1-p) * (1-p) * (1-p) * (1-p) * (1-p)) { skip; } else { exit; }
        i := i + 1;
    }
    assert false;
";

/// The three Newton rows of Table 2 (no prior numbers published).
pub fn newton_rows() -> Vec<Benchmark> {
    [(5e-4, 0.728492), (1e-3, 0.534989), (1.5e-3, 0.392823)]
        .into_iter()
        .map(|(p, low)| Benchmark {
            name: "Newton",
            category: Category::Hardware,
            direction: Direction::Lower,
            label: format!("p = {p:.1e}"),
            source: NEWTON,
            params: params(&[("p", p)]),
            paper: PaperReference {
                explowsyn: Some(crate::logprob::LogProb::from_prob(low)),
                ..Default::default()
            },
        })
        .collect()
}

/// Ref (Fig 12, abstracted): the `Searchref` triple loop on unreliable
/// hardware — 20×16×16 inner gates of strength `(1−p)³` plus one `(1−p)`
/// gate per outer iteration.
pub const REFSEARCH: &str = r"
    param p = 1e-7;
    i := 0;
    while i <= 19
        invariant i >= 0 and i <= 20 and j >= 0 and j <= 16 and k >= 0 and k <= 16 {
        j := 0;
        while j <= 15
            invariant j >= 0 and j <= 16 and i >= 0 and i <= 19 and k >= 0 and k <= 16 {
            k := 0;
            while k <= 15
                invariant k >= 0 and k <= 16 and j >= 0 and j <= 15 and i >= 0 and i <= 19 {
                if prob((1-p) * (1-p) * (1-p)) { skip; } else { exit; }
                k := k + 1;
            }
            j := j + 1;
        }
        if prob(1 - p) { skip; } else { exit; }
        i := i + 1;
    }
    assert false;
";

/// The three Ref rows of Table 2; `p = 1e-7` has prior numbers from
/// Carbin–Misailovic–Rinard \[5\] (0.994885) and Smith–Hsu–Albarghouthi \[41\]
/// (0.992832) — we report the tighter one.
pub fn refsearch_rows() -> Vec<Benchmark> {
    [
        (1e-7, 0.998463, Some(0.994885)),
        (1e-6, 0.984738, None),
        (1e-5, 0.857443, None),
    ]
    .into_iter()
    .map(|(p, low, prev)| Benchmark {
        name: "Ref",
        category: Category::Hardware,
        direction: Direction::Lower,
        label: format!("p = {p:.0e}"),
        source: REFSEARCH,
        params: params(&[("p", p)]),
        paper: PaperReference {
            explowsyn: Some(crate::logprob::LogProb::from_prob(low)),
            previous: prev.map(crate::logprob::LogProb::from_prob),
            ..Default::default()
        },
    })
    .collect()
}

/// The parametric families the sweep driver runs (`crate::sweep`,
/// `qava --sweep`), each ordered by its sweep parameter: Coupon's
/// deadline `n`, 3DWalk's εmax ladder, Ref's per-operation fault
/// probability `p`.
pub fn sweep_families() -> Vec<Vec<Benchmark>> {
    vec![coupon_rows(), walk3d_rows(), refsearch_rows()]
}
