//! Benchmark-trajectory comparison: diffs a freshly generated
//! `BENCH_lp.json` against a committed baseline, **warning** on
//! suite-level median regressions and **failing** on LP-kernel ones.
//!
//! ```text
//! cargo run -p qava-bench --bin bench_compare -- \
//!     [--baseline BENCH_lp.baseline.json] [--fresh BENCH_lp.json] \
//!     [--tolerance 0.10] [--kernel-prefix lp/] [--kernel-tolerance 0.25]
//! ```
//!
//! Intended CI flow: copy the committed `BENCH_lp.json` aside, rerun the
//! criterion benches (which rewrite it), then run this tool against the
//! copy. Two regimes, split by benchmark name:
//!
//! * **LP-kernel benches** (names under `--kernel-prefix`, default
//!   `lp/`): pinned-backend solver kernels with little non-LP work, and
//!   the benches this repo's perf PRs are judged on. A median regression
//!   beyond `--kernel-tolerance` (default 25%, wide enough for shared-
//!   runner noise) prints an `::error::` annotation and the exit code is
//!   **1** — a hard CI gate.
//! * **suite-level benches** (everything else): end-to-end synthesis
//!   timings dominated by non-LP work and far noisier. Regressions
//!   beyond `--tolerance` surface as `::warning::` annotations that
//!   GitHub renders on the build, and a human decides — these never
//!   affect the exit code.
//!
//! Missing files are a notice, not an error, so the step stays green on
//! fresh clones without bench results.
//!
//! The bench file is a flat `{"name": median_ns, …}` map written by the
//! vendored criterion shim; the parser below reads exactly that shape
//! (no external JSON dependency in this offline workspace).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: bench_compare [--baseline PATH] [--fresh PATH] [--tolerance FRACTION]
                     [--kernel-prefix PREFIX] [--kernel-tolerance FRACTION]

defaults: --baseline BENCH_lp.baseline.json --fresh BENCH_lp.json --tolerance 0.10
          --kernel-prefix lp/ --kernel-tolerance 0.25
Benchmarks whose name starts with PREFIX are the LP-kernel gate: a median
regression beyond --kernel-tolerance exits 1. Everything else is warn-only
at --tolerance. Relative paths are resolved against the current directory,
then upward to the workspace root (cargo runs benches with the package as
cwd).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline = "BENCH_lp.baseline.json".to_string();
    let mut fresh = "BENCH_lp.json".to_string();
    let mut tolerance = 0.10f64;
    let mut kernel_prefix = "lp/".to_string();
    let mut kernel_tolerance = 0.25f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{what} needs a value"))
        };
        let result = match a.as_str() {
            "--baseline" => take("--baseline").map(|v| baseline = v),
            "--fresh" => take("--fresh").map(|v| fresh = v),
            "--tolerance" => take("--tolerance").and_then(|v| {
                v.parse::<f64>().map(|t| tolerance = t).map_err(|_| format!("bad tolerance `{v}`"))
            }),
            "--kernel-prefix" => take("--kernel-prefix").map(|v| kernel_prefix = v),
            "--kernel-tolerance" => take("--kernel-tolerance").and_then(|v| {
                v.parse::<f64>()
                    .map(|t| kernel_tolerance = t)
                    .map_err(|_| format!("bad tolerance `{v}`"))
            }),
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(msg) = result {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    }

    let (Some(base_path), Some(fresh_path)) = (resolve(&baseline), resolve(&fresh)) else {
        println!(
            "bench_compare: baseline `{baseline}` or fresh `{fresh}` not found; \
             nothing to compare (ok on runners without bench results)"
        );
        return ExitCode::SUCCESS;
    };
    let (base, fresh_map) = match (load(&base_path), load(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            println!("bench_compare: {e}; skipping comparison");
            return ExitCode::SUCCESS;
        }
    };

    let report = compare(&base, &fresh_map, tolerance, &kernel_prefix, kernel_tolerance);
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "bench_compare: {} benchmarks compared, {} suite regressions > {:.0}% (warn-only), \
         {} kernel regressions > {:.0}% (gating), {} improvements, \
         {} only-in-baseline, {} only-in-fresh",
        report.compared,
        report.regressions,
        tolerance * 100.0,
        report.kernel_regressions,
        kernel_tolerance * 100.0,
        report.improvements,
        report.only_baseline,
        report.only_fresh,
    );
    // Suite-level regressions are warn-only by design; only the LP-kernel
    // gate fails the build.
    if report.kernel_regressions > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Resolves `path` against the cwd, then each ancestor (cargo sets the
/// package directory as cwd for benches; the bench file lives at the
/// workspace root).
fn resolve(path: &str) -> Option<PathBuf> {
    let p = Path::new(path);
    if p.is_absolute() {
        return p.exists().then(|| p.to_path_buf());
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join(p);
        if candidate.exists() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn load(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    parse_flat_json(&text).map_err(|e| format!("cannot parse `{}`: {e}", path.display()))
}

/// Parses the flat `{"name": number, …}` map the criterion shim emits.
fn parse_flat_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let mut rest = text.trim();
    rest = rest.strip_prefix('{').ok_or("expected `{`")?.trim_end();
    rest = rest.strip_suffix('}').ok_or("expected `}`")?;
    loop {
        rest = rest.trim_start_matches([' ', '\t', '\n', '\r', ',']);
        if rest.is_empty() {
            return Ok(out);
        }
        rest = rest.strip_prefix('"').ok_or("expected `\"` before key")?;
        let end = rest.find('"').ok_or("unterminated key")?;
        let key = &rest[..end];
        rest = rest[end + 1..].trim_start();
        rest = rest.strip_prefix(':').ok_or("expected `:` after key")?.trim_start();
        let vend = rest
            .find([',', '}', '\n', ' ', '\t', '\r'])
            .unwrap_or(rest.len());
        let value: f64 = rest[..vend]
            .parse()
            .map_err(|_| format!("bad number for `{key}`: `{}`", &rest[..vend]))?;
        out.insert(key.to_string(), value);
        rest = &rest[vend..];
    }
}

struct Report {
    lines: Vec<String>,
    compared: usize,
    regressions: usize,
    kernel_regressions: usize,
    improvements: usize,
    only_baseline: usize,
    only_fresh: usize,
}

fn compare(
    base: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    tol: f64,
    kernel_prefix: &str,
    kernel_tol: f64,
) -> Report {
    let mut r = Report {
        lines: Vec::new(),
        compared: 0,
        regressions: 0,
        kernel_regressions: 0,
        improvements: 0,
        only_baseline: 0,
        only_fresh: 0,
    };
    for (name, &old) in base {
        match fresh.get(name) {
            None if name.starts_with(kernel_prefix) => {
                // A vanished kernel bench is a gate failure, not a
                // notice: treating it as a pass would let a bench rename
                // (or a silently dropped matrix row) delete the CI gate
                // without anyone noticing.
                r.only_baseline += 1;
                r.kernel_regressions += 1;
                r.lines.push(format!(
                    "::error::bench_compare: LP-kernel bench `{name}` vanished from the fresh \
                     run — renamed or dropped? The kernel gate covers every baseline `lp/` \
                     entry; update the committed baseline in the same change that renames a \
                     bench — gating"
                ));
            }
            None => {
                r.only_baseline += 1;
                r.lines.push(format!("bench_compare: `{name}` missing from fresh run"));
            }
            Some(&new) if old > 0.0 => {
                r.compared += 1;
                let kernel = name.starts_with(kernel_prefix);
                let delta = new / old - 1.0;
                if kernel && delta > kernel_tol {
                    r.kernel_regressions += 1;
                    // `::error::`/`::warning::` render as annotations in
                    // GitHub CI while remaining plain text elsewhere.
                    r.lines.push(format!(
                        "::error::bench_compare: LP-kernel bench `{name}` regressed {:+.1}% \
                         ({old:.0} ns → {new:.0} ns) — gating",
                        delta * 100.0
                    ));
                } else if delta > tol {
                    // Kernel regressions inside the gate's noise band
                    // still warn — the most-watched benches must never
                    // get less visibility than the suite ones.
                    r.regressions += 1;
                    r.lines.push(format!(
                        "::warning::bench_compare: `{name}` regressed {:+.1}% \
                         ({old:.0} ns → {new:.0} ns)",
                        delta * 100.0
                    ));
                } else if delta < -tol {
                    r.improvements += 1;
                    r.lines.push(format!(
                        "bench_compare: `{name}` improved {:+.1}% ({old:.0} ns → {new:.0} ns)",
                        delta * 100.0
                    ));
                }
            }
            Some(_) => r.compared += 1,
        }
    }
    r.only_fresh = fresh.keys().filter(|k| !base.contains_key(*k)).count();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shim_format() {
        let text = "{\n  \"a/b/c\": 123.5,\n  \"d\": 7.0\n}\n";
        let m = parse_flat_json(text).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m["a/b/c"], 123.5);
        assert_eq!(m["d"], 7.0);
        assert!(parse_flat_json("nope").is_err());
        assert_eq!(parse_flat_json("{}").unwrap().len(), 0);
    }

    #[test]
    fn flags_only_real_regressions() {
        let base: BTreeMap<String, f64> =
            [("fast", 100.0), ("slow", 100.0), ("noisy", 100.0), ("gone", 5.0)]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
        let fresh: BTreeMap<String, f64> =
            [("fast", 50.0), ("slow", 140.0), ("noisy", 105.0), ("new", 3.0)]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
        let r = compare(&base, &fresh, 0.10, "lp/", 0.25);
        assert_eq!(r.compared, 3);
        assert_eq!(r.regressions, 1, "only `slow` is beyond +10%");
        assert_eq!(r.kernel_regressions, 0, "no lp/ benches in this set");
        assert_eq!(r.improvements, 1, "only `fast` is beyond -10%");
        assert_eq!(r.only_baseline, 1);
        assert_eq!(r.only_fresh, 1);
        assert!(r.lines.iter().any(|l| l.contains("::warning::") && l.contains("`slow`")));
    }

    #[test]
    fn kernel_benches_gate_while_suite_benches_warn() {
        let base: BTreeMap<String, f64> = [
            ("lp/kernel/3dwalk_large/lu-ft", 100.0),
            ("lp/kernel/coupon_mid/sparse", 100.0),
            ("lp/kernel/rdwalk_small/dense", 100.0),
            ("table1/concentration/hoeffding/X", 100.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let fresh: BTreeMap<String, f64> = [
            ("lp/kernel/3dwalk_large/lu-ft", 140.0), // +40%: gates
            ("lp/kernel/coupon_mid/sparse", 120.0),  // +20%: under the gate, still warns
            ("lp/kernel/rdwalk_small/dense", 60.0),  // -40%: improvement
            ("table1/concentration/hoeffding/X", 300.0), // +200%: still warn-only
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let r = compare(&base, &fresh, 0.10, "lp/", 0.25);
        assert_eq!(r.compared, 4);
        assert_eq!(r.kernel_regressions, 1, "only the +40% kernel bench gates");
        assert_eq!(r.regressions, 2, "the +20% kernel bench and the suite bench warn");
        assert_eq!(r.improvements, 1);
        assert!(r
            .lines
            .iter()
            .any(|l| l.contains("::error::") && l.contains("`lp/kernel/3dwalk_large/lu-ft`")));
        assert!(r
            .lines
            .iter()
            .any(|l| l.contains("::warning::") && l.contains("hoeffding")));
    }

    #[test]
    fn vanished_kernel_bench_is_a_hard_failure() {
        // A suite bench may come and go (notice only), but a baseline
        // `lp/` entry missing from the fresh run must gate: otherwise
        // renaming a kernel bench silently drops it from CI.
        let base: BTreeMap<String, f64> = [
            ("lp/kernel/3dwalk_large/lu-ft", 100.0),
            ("lp/kernel/coupon_mid/sparse", 100.0),
            ("table1/concentration/hoeffding/X", 100.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let fresh: BTreeMap<String, f64> = [
            ("lp/kernel/coupon_mid/sparse", 101.0),
            ("lp/kernel/3dwalk_large/lu_ft", 100.0), // renamed: does not count
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let r = compare(&base, &fresh, 0.10, "lp/", 0.25);
        assert_eq!(r.only_baseline, 2, "the vanished kernel and suite benches");
        assert_eq!(r.kernel_regressions, 1, "only the vanished kernel bench gates");
        assert!(r
            .lines
            .iter()
            .any(|l| l.contains("::error::") && l.contains("vanished")));
        // The vanished suite bench stays a plain notice.
        assert!(r
            .lines
            .iter()
            .any(|l| !l.contains("::error::") && l.contains("hoeffding")));
    }
}
