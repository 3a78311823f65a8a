//! Regenerates the paper's evaluation tables.
//!
//! ```text
//! tables            # Tables 1 and 2 (numeric bounds, timings, ratios)
//! tables --table1   # upper bounds only
//! tables --table2   # lower bounds only
//! tables --symbolic # Tables 3–5 (symbolic templates)
//! tables --check    # Monte-Carlo sanity: lower ≤ empirical ≤ upper
//! ```
//!
//! Bounds are reported in the paper's `m.me±EE` notation, timings in
//! seconds, and the last column is the paper's ratio
//! `previous / ours` (Table 1) or `(1 − previous) / (1 − ours)` (Table 2),
//! as orders of magnitude when large.
//!
//! Tables 1 and 2 are produced by the **parallel suite driver**
//! ([`qava_core::suite::runner`]): every (row, algorithm) pair runs on
//! its own worker, and results are reassembled in paper order, so the
//! output is deterministic. Pass `--serial` to force one worker (e.g.
//! for timing columns comparable with the paper's single-core numbers).

use qava_core::engine::{AnalysisRequest, Certificate, Direction, EngineRegistry};
use qava_core::logprob::LogProb;
use qava_core::suite::runner::{default_engines, run_rows_with, suite_lp_stats};
use qava_lp::BackendChoice;
use qava_core::suite::{table1, table2, Benchmark};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    if has("--serial") {
        // One suite worker: timing columns comparable with the paper's
        // single-core numbers. Must run before the first fan-out.
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .expect("configuring the global pool cannot fail");
    }
    // `--lp-backend B` forwards to every task's solver
    // session (same flag, same parser, as `qava --lp-backend`).
    let backend = match BackendChoice::from_args(&args) {
        Ok(b) => b.unwrap_or_default(),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };
    let all = args
        .iter()
        .enumerate()
        .all(|(i, a)| a == "--serial" || a == "--lp-backend"
            || (i > 0 && args[i - 1] == "--lp-backend"));

    // Provenance header: the tables below depend on the LP backend, so
    // bench artifacts must say which produced them.
    println!("lp backend: {backend}");
    println!();

    if all || has("--table1") {
        print_table1(backend);
    }
    if all || has("--table2") {
        print_table2(backend);
    }
    if has("--symbolic") {
        print_symbolic();
    }
    if has("--check") {
        monte_carlo_check();
    }
}

/// `1.52e-7`-style scientific formatting straight from log-space, so that
/// 3DWalk's 1e-3230 prints without underflowing.
fn fmt_log(p: Option<LogProb>) -> String {
    match p {
        None => "—".to_string(),
        Some(p) => {
            let l10 = p.log10();
            if l10.is_infinite() && l10 < 0.0 {
                return "0".to_string();
            }
            let e = l10.floor();
            let m = 10f64.powf(l10 - e);
            format!("{m:.2}e{e:+.0}")
        }
    }
}

/// Orders-of-magnitude ratio column.
fn fmt_ratio(ours: LogProb, previous: Option<LogProb>, lower: bool) -> String {
    let Some(prev) = previous else { return "no result".to_string() };
    let r10 = if lower {
        // (1 − previous) / (1 − ours) for Table 2.
        let a = (1.0 - prev.to_f64()).max(f64::MIN_POSITIVE);
        let b = (1.0 - ours.to_f64()).max(f64::MIN_POSITIVE);
        (a / b).log10()
    } else {
        prev.log10() - ours.log10()
    };
    if r10.abs() < 3.0 {
        format!("{:.2}", 10f64.powf(r10))
    } else {
        format!("1e{r10:+.0}")
    }
}

fn print_table1(backend: BackendChoice) {
    println!("== Table 1: upper bounds on assertion-violation probability ==");
    println!(
        "{:<14} {:<22} {:>10} {:>7}  {:>10} {:>7}  {:>10}  {:>9}",
        "benchmark", "row", "§5.1", "t(s)", "§5.2", "t(s)", "previous", "ratio"
    );
    let rows = table1();
    let reports = run_rows_with(&rows, |b| default_engines(b.direction).to_vec(), backend);
    let mut current = "";
    for (b, report) in rows.iter().zip(&reports) {
        if b.name != current {
            current = b.name;
            println!("-- {} ({})", b.name, b.category);
        }
        let hoeff = report.run("hoeffding-linear").expect("scheduled");
        let exp = report.run("explinsyn").expect("scheduled");
        let ratio = exp
            .bound
            .as_ref()
            .map(|r| fmt_ratio(*r, b.paper.previous, false))
            .unwrap_or_else(|_| "—".to_string());
        println!(
            "{:<14} {:<22} {:>10} {:>7.2}  {:>10} {:>7.2}  {:>10}  {:>9}",
            b.name,
            b.label,
            fmt_log(hoeff.bound.as_ref().ok().copied()),
            hoeff.seconds,
            fmt_log(exp.bound.as_ref().ok().copied()),
            exp.seconds,
            fmt_log(b.paper.previous),
            ratio,
        );
    }
    print!("{}", suite_lp_stats(&reports));
    println!();
}

fn print_table2(backend: BackendChoice) {
    println!("== Table 2: lower bounds on assertion-violation probability ==");
    println!(
        "{:<14} {:<14} {:>12} {:>7}  {:>12}  {:>9}",
        "benchmark", "row", "§6 lower", "t(s)", "previous", "ratio"
    );
    let rows = table2();
    let reports = run_rows_with(&rows, |b| default_engines(b.direction).to_vec(), backend);
    let mut current = "";
    for (b, report) in rows.iter().zip(&reports) {
        if b.name != current {
            current = b.name;
            println!("-- {} ({})", b.name, b.category);
        }
        let low = report.run("explowsyn").expect("scheduled");
        let (bound_str, ratio) = match &low.bound {
            Ok(r) => (format!("{:.6}", r.to_f64()), fmt_ratio(*r, b.paper.previous, true)),
            Err(_) => ("failed".to_string(), "—".to_string()),
        };
        println!(
            "{:<14} {:<14} {:>12} {:>7.2}  {:>12}  {:>9}",
            b.name,
            b.label,
            bound_str,
            low.seconds,
            b.paper.previous.map(|p| format!("{:.6}", p.to_f64())).unwrap_or("—".into()),
            ratio,
        );
    }
    print!("{}", suite_lp_stats(&reports));
    println!();
}

fn symbolic_rows(registry: &EngineRegistry, b: &Benchmark, engine: &str) {
    let pts = b.compile();
    let direction = registry.engine(engine).expect("built-in engine").direction();
    let req = AnalysisRequest::new(&pts, direction);
    let tmpl = registry
        .run_engine(engine, &req, BackendChoice::default())
        .expect("built-in engine")
        .outcome
        .ok()
        .and_then(|c| {
            // The §5.1 header records the Hoeffding factor around η.
            let prefix = c
                .details
                .iter()
                .find(|(k, _)| *k == "epsilon")
                .map_or_else(|| "exp".to_string(), |(_, eps)| format!("exp(8·{eps:.3}·η)"));
            match c.certificate {
                Certificate::Template(t) => Some((prefix, t)),
                Certificate::Quadratic(_) => None,
            }
        });
    match tmpl {
        Some((prefix, t)) if !t.per_location.is_empty() => {
            println!("{:<12} {:<22} {prefix}({})", b.name, b.label, t.exponent_string(0));
        }
        _ => println!("{:<12} {:<22} —", b.name, b.label),
    }
}

fn print_symbolic() {
    let registry = EngineRegistry::with_builtins();
    println!("== Table 3: symbolic Hoeffding bounds (§5.1) ==");
    for b in table1() {
        symbolic_rows(&registry, &b, "hoeffding-linear");
    }
    println!();
    println!("== Table 4: symbolic ExpLinSyn bounds (§5.2) ==");
    for b in table1() {
        symbolic_rows(&registry, &b, "explinsyn");
    }
    println!();
    println!("== Table 5: symbolic ExpLowSyn bounds (§6) ==");
    for b in table2() {
        symbolic_rows(&registry, &b, "explowsyn");
    }
    println!();
}

fn monte_carlo_check() {
    println!("== Monte-Carlo sanity: certified lower ≤ empirical ≤ certified upper ==");
    let registry = EngineRegistry::with_builtins();
    let mut sim = qava_sim::Simulator::new(0xC0FFEE);
    for b in table1().into_iter().chain(table2()) {
        let pts = b.compile();
        let est = sim.estimate_violation(&pts, 20_000, 100_000);
        let bound_via = |engine: &str, direction| {
            registry
                .run_engine(engine, &AnalysisRequest::new(&pts, direction), BackendChoice::default())
                .expect("built-in engine")
                .bound()
        };
        let upper = bound_via("explinsyn", Direction::Upper);
        let lower = bound_via("explowsyn", Direction::Lower);
        let ok_upper = upper.is_none_or(|u| est.lower_ci() <= u.to_f64() + 1e-9);
        let ok_lower = lower.is_none_or(|l| l.to_f64() <= est.upper_ci() + 1e-9);
        println!(
            "{:<12} {:<22} empirical {:.5}  upper {:>10}  lower {:>10}  {}",
            b.name,
            b.label,
            est.probability,
            fmt_log(upper),
            fmt_log(lower),
            if ok_upper && ok_lower { "OK" } else { "VIOLATED" },
        );
    }
}
