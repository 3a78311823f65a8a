//! End-to-end benchmark of qava; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload suite|sweep|daemon --seed N --seconds S --trace 0|1
//! perfbench --capture-reference perfbench/reference.tsv
//! ```
//!
//! Run from the repository root. Prints every metric by name with its
//! unit, then, as the last line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
//! with the end-to-end metrics of `BENCHMARK.json` (`--trace 0`) or its
//! per-layer metrics (`--trace 1`).

mod daemon;
mod harness;
mod layers;
mod reference;
mod stats;
mod suite;
mod sweep;
mod trace;

use harness::{Outcome, Workload};
use qavad::json::Json;
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required (suite, sweep or daemon)".into());
    }
    Ok(parsed)
}

/// The metric names and units `BENCHMARK.json` lists for this mode,
/// checked against the units the benchmark measures in.
fn listed_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = qavad::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key}"))?;
    list.iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).map(str::to_string);
            let (name, unit) = field("name")
                .zip(field("unit"))
                .ok_or(format!("malformed {key} entry in BENCHMARK.json"))?;
            if unit != unit_of(&name) {
                return Err(format!(
                    "BENCHMARK.json gives {name} unit {unit}, the benchmark measures {}",
                    unit_of(&name)
                ));
            }
            Ok((name, unit))
        })
        .collect()
}

/// Units of everything the benchmark computes, by metric name.
fn unit_of(name: &str) -> &'static str {
    let last = name.rsplit('.').next().unwrap_or(name);
    match last {
        "setup_s" => "s",
        "peak_rss_mb" => "MB",
        "analyses_per_s" => "1/s",
        "p50" | "p99" | "tail" if name.starts_with("pass_s") => "s",
        "p50" | "p99" if name.contains("_us") => "us",
        "p50" | "p99" | "ms" => "ms",
        _ if last.ends_with("_ms") => "ms",
        _ if last.ends_with("_pct") => "%",
        _ if last.ends_with("_ratio") => "ratio",
        _ if last.ends_with("_bytes") => "bytes",
        _ => "count",
    }
}

fn drive<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let mut rng = stats::Rng::new(args.seed);
    if args.trace {
        harness::traced(w, args.seconds, &mut rng)
    } else {
        harness::end_to_end(w, args.seconds, &mut rng)
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    harness::set_threads(harness::nproc());
    let outcome = match args.workload.as_str() {
        "suite" => drive(&suite::Suite, args),
        "sweep" => drive(&sweep::Sweep, args),
        "daemon" => drive(&daemon::DaemonWorkload, args),
        other => return Err(format!("unknown workload {other} (suite, sweep or daemon)")),
    }?;
    if args.trace {
        let path =
            Path::new(".bench_tmp").join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        trace::write_tsv(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = &argv[..] {
        if flag == "--capture-reference" {
            return match reference::capture(Path::new(path)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let result = parse_args(&argv).and_then(|args| {
        let listed = listed_metrics(args.trace)?;
        let outcome = run(&args)?;
        Ok((args, listed, outcome))
    });
    let (args, listed, mut outcome) = match result {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "# workload {} seed {} trace {} | nproc {} | vec kernel {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        harness::nproc(),
        qava_lp::kernel_provenance()
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    let mut idle = Vec::new();
    let mut fields = Vec::new();
    for (name, unit) in &listed {
        let value = outcome.metrics.remove(name).unwrap_or_else(|| {
            idle.push(name.as_str());
            0.0
        });
        if !value.is_finite() {
            eprintln!("perfbench: {name} is {value}");
            return ExitCode::FAILURE;
        }
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !idle.is_empty() {
        println!(
            "# layers this workload does not exercise (reported as 0): {}",
            idle.join(", ")
        );
    }
    for (name, value) in &outcome.metrics {
        println!("# also measured: {name} = {value} {}", unit_of(name));
    }
    println!(
        "# failed_ratio = {} ({} of {} analyses)",
        reference::ratio(outcome.failed, outcome.attempted),
        outcome.failed,
        outcome.attempted
    );
    for line in outcome.failures.iter().chain(&outcome.problems).take(20) {
        eprintln!("perfbench: FAIL {line}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
