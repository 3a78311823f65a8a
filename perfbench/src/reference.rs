//! The reference ln-bounds every run is checked against, and the LP
//! counters shared by every workload.

use qava_core::suite::runner::{default_engines, run_rows_with};
use qava_core::suite::{table1, table2, Benchmark};
use qava_lp::{BackendChoice, LpStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Captured from one in-process suite pass by [`capture`]; one line per
/// (row, engine): `name \t label \t engine \t ln_bound`.
const REFERENCE: &str = include_str!("../reference.tsv");

/// Tolerance of the suite and daemon checks: relative, in ln-space (the
/// daemon conformance contract's 1e-9).
pub const SUITE_TOL: f64 = 1e-9;

/// The backends `BackendChoice::Auto` routes to; each gets
/// `lp.<backend>.{solves,pivots,ms}`.
pub const ROUTED_BACKENDS: [&str; 3] = ["dense", "sparse", "lu-ft"];

/// The engines with `synth.<engine>.*` metrics: the paper tables' lineup.
pub const ENGINES: [&str; 3] = ["hoeffding-linear", "explinsyn", "explowsyn"];

/// All 36 rows of Tables 1 and 2, in paper order.
pub fn suite_rows() -> Vec<Benchmark> {
    let mut rows = table1();
    rows.extend(table2());
    rows
}

/// The paper tables' engine lineup for a row.
pub fn engines_for(b: &Benchmark) -> Vec<&'static str> {
    default_engines(b.direction).to_vec()
}

pub struct Reference(BTreeMap<(String, String, String), f64>);

impl Reference {
    pub fn load() -> Result<Reference, String> {
        let mut map = BTreeMap::new();
        for line in REFERENCE
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            let [name, label, engine, ln] = f[..] else {
                return Err(format!("malformed reference line: {line}"));
            };
            let ln: f64 = ln
                .parse()
                .map_err(|e| format!("reference line {line}: {e}"))?;
            map.insert(
                (name.to_string(), label.to_string(), engine.to_string()),
                ln,
            );
        }
        Ok(Reference(map))
    }

    /// Checks one certified ln-bound (or failure) of row `name`/`label`
    /// against the reference at `tol` relative; `Err` describes the miss.
    pub fn check(
        &self,
        (name, label): (&str, &str),
        engine: &str,
        bound: Result<f64, &str>,
        tol: f64,
    ) -> Result<(), String> {
        let what = format!("{name} {label} / {engine}");
        let key = (name.to_string(), label.to_string(), engine.to_string());
        let Some(&want) = self.0.get(&key) else {
            return Err(format!("{what}: no reference bound"));
        };
        match bound {
            Err(e) => Err(format!("{what}: not certified: {e}")),
            Ok(ln) if (ln - want).abs() <= tol * (1.0 + want.abs()) => Ok(()),
            Ok(ln) => Err(format!("{what}: ln bound {ln} misses the reference {want}")),
        }
    }
}

/// Writes the reference file from one in-process suite pass.
pub fn capture(path: &std::path::Path) -> Result<(), String> {
    let rows = suite_rows();
    let reports = run_rows_with(&rows, engines_for, BackendChoice::Auto);
    let mut out = String::from(
        "# ln-bounds of every (row, engine) run of the paper suite, captured with\n\
         # `perfbench --capture-reference perfbench/reference.tsv`.\n",
    );
    for (b, report) in rows.iter().zip(&reports) {
        for run in &report.runs {
            let ln = run
                .bound
                .as_ref()
                .map_err(|e| format!("{} {}: {e}", b.name, b.label))?
                .ln();
            let _ = writeln!(out, "{}\t{}\t{}\t{ln:?}", b.name, b.label, run.engine);
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// The LP layer's work counters of one pass.
pub fn lp_counts(lp: &LpStats, out: &mut BTreeMap<String, f64>) {
    let warm = lp.warm_start_hits + lp.warm_start_misses;
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    put("lp.solves", lp.solves as f64);
    put("lp.pivots", lp.pivots as f64);
    put("lp.warm_hit_ratio", ratio(lp.warm_start_hits, warm));
    put("lp.watchdog_restarts", lp.watchdog_restarts as f64);
    put("lp.bland_retries", lp.bland_retries as f64);
    put("lp.failovers", lp.failovers as f64);
    put("lp.accuracy_refactors", lp.accuracy_refactors as f64);
    put("lp.reopt_attempts", lp.reopt_attempts as f64);
    put(
        "lp.reopt_success_ratio",
        ratio(lp.reopt_successes, lp.reopt_attempts),
    );
    for name in ROUTED_BACKENDS {
        let t = lp.backends.iter().find(|t| t.name == name);
        put(
            &format!("lp.{name}.solves"),
            t.map_or(0.0, |t| t.solves as f64),
        );
        put(
            &format!("lp.{name}.pivots"),
            t.map_or(0.0, |t| t.pivots as f64),
        );
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
