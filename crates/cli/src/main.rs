//! `qava` — analyze a probabilistic program from the command line.
//!
//! ```text
//! qava <program.qava> [--engines LIST] [--race] [--upper] [--lower]
//!                     [--deadline-ms N] [--simulate N] [--symbolic]
//!                     [--param name=value]...
//! qava --suite [--race | --chaos SEED] [--lp-backend B] [--json]
//!              [--connect SOCK]
//! qava --sweep [--lp-backend B]
//! qava <program.qava> --connect SOCK [engine flags]
//! ```
//!
//! Analyses run through the bound-engine registry
//! ([`qava_core::engine`]): every algorithm is a named engine
//! (`hoeffding-linear`, `azuma`, `explinsyn`, `polyrsm-quadratic`,
//! `explowsyn`, `polylow`), selected with `--engines` or the legacy mode
//! flags. With `--race` the selected engines of each bound direction
//! race in-process and the first certified bound wins; losers are
//! cancelled cooperatively and their LP statistics are reported in a
//! separate `abandoned` bucket.
//!
//! With no mode flags, runs the default engine lineup (`explinsyn`,
//! `hoeffding-linear`, `explowsyn`). `--suite` runs the paper's full
//! Table 1/Table 2 benchmark suite through the parallel driver
//! ([`qava_core::suite::runner`]) and prints one line per (row, engine)
//! outcome — one line per race with `--race`, naming the winner.
//! `--suite --chaos SEED` is the robustness gate: it replays the suite
//! with one deterministic recoverable solver fault injected per task and
//! fails loudly unless every row still certifies the fault-free bound.
//! `--sweep` runs the suite's parametric families (Coupon, 3DWalk, Ref)
//! through the sweep driver ([`qava_core::sweep`]): every point is
//! solved like its `--suite` row, in a fresh solver session on one
//! thread pool, and prints the same bound, giving a certified
//! bound-vs-parameter curve with the pass's wall time in the footer.
//!
//! `--connect SOCK` routes the analysis through a resident `qavad`
//! daemon (see the `qavad` crate) instead of solving in-process: the
//! daemon reuses compiled programs and an in-memory warm-start basis
//! cache across requests. `--suite --connect` drives the
//! whole suite through the daemon and prints the identical report;
//! `--suite --json` emits the machine-readable suite document
//! ([`qavad::protocol::suite_json`]) that the daemon conformance tests
//! diff against in-process results.
//! Exit code 0 on success, 1 on usage errors, 2 on compile errors, 3
//! when a requested analysis fails.

use qava_core::engine::{
    race, AnalysisRequest, BoundEngine, Certificate, Direction, EngineRegistry,
};
use qava_core::rsm::prove_almost_sure_termination_in;
use qava_core::suite::runner::suite_abandoned_lp_stats;
use qava_lp::{BackendChoice, LpSolver, LpStats};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: qava <program.qava> [options]

engines (default: explinsyn + hoeffding-linear + explowsyn):
  --engines LIST   comma-separated bound engines from the registry:
                   hoeffding-linear, azuma, explinsyn, polyrsm-quadratic
                   (upper); explowsyn, polylow (lower)
  --race           race the selected engines of each direction in
                   process: first certified bound wins, losers are
                   cancelled at LP-solve boundaries and their solver
                   statistics land in a separate `abandoned` bucket

legacy mode flags (shorthands for --engines):
  --upper          complete exponential upper bound (ExpLinSyn, §5.2)
  --hoeffding      RepRSM + Hoeffding upper bound (§5.1)
  --azuma          RepRSM + Azuma baseline (POPL'17, for comparison)
  --lower          exponential lower bound (ExpLowSyn, §6); requires
                   almost-sure termination, which is certified first
  --quadratic      also try quadratic exponents (Remarks 3/5, Handelman)

other analyses and output:
  --deadline-ms N  wall-clock budget per engine run, enforced at
                   LP-solve boundaries: an expired run winds down as
                   cancelled instead of blocking the invocation
  --simulate N     seeded Monte-Carlo estimate over N trials
  --dump-pts       print the compiled transition system
  --symbolic       also print the synthesized exponential templates
  --param k=v      override a `param` declaration (repeatable)
  --seed S         Monte-Carlo seed (default 0)

solver:
  --lp-backend B   LP backend policy: auto (default; routes by size and
                   density — tiny models on the dense tableau, large
                   sparse systems on the Forrest–Tomlin LU simplex, the
                   rest on the sparse revised simplex), or pin one of
                   those three: dense, sparse (dense-inverse revised
                   simplex), or lu-ft (LU + Forrest–Tomlin spike swaps)
                   — applies to single-file analyses and to --suite,
                   which also prints per-backend solve statistics

daemon:
  --connect SOCK   send the analysis to a resident qavad daemon on the
                   given Unix socket instead of solving in-process; the
                   daemon shares compiled programs and an in-memory
                   warm-start basis cache across requests (with --suite:
                   drive every row through the daemon; local-only flags
                   --dump-pts/--simulate/--symbolic do not apply)

suite:
  --suite          run the paper's benchmark suite (Tables 1-2) through
                   the parallel driver instead of analyzing one file
                   (honors --race, --chaos, --lp-backend, --json and
                   --connect)
  --json           with --suite: print the machine-readable suite
                   document (rows, failures, per-backend LP statistics)
                   instead of the human report
  --chaos SEED     with --suite: replay the suite twice — fault-free,
                   then with one seeded recoverable solver fault per
                   (row, engine) task — and fail unless every row still
                   certifies a bound within 1e-7 of the fault-free value
  --sweep          run the suite's parametric families (Coupon
                   Pr[T > n], the 3DWalk εmax ladder, the Ref p ladder)
                   through the sweep driver: every point is solved like
                   its --suite row, in a fresh solver session on one
                   thread pool, and the footer reports the pass's wall
                   time against its summed point time (honors
                   --lp-backend; not combinable with --race or --chaos)
";

struct Options {
    path: String,
    engines: Vec<String>,
    race: bool,
    upper: bool,
    hoeffding: bool,
    azuma: bool,
    lower: bool,
    quadratic: bool,
    simulate: Option<usize>,
    symbolic: bool,
    dump_pts: bool,
    seed: u64,
    deadline_ms: Option<u64>,
    params: BTreeMap<String, f64>,
    lp_backend: BackendChoice,
    connect: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        path: String::new(),
        engines: Vec::new(),
        race: false,
        upper: false,
        hoeffding: false,
        azuma: false,
        lower: false,
        quadratic: false,
        simulate: None,
        symbolic: false,
        dump_pts: false,
        seed: 0,
        deadline_ms: None,
        params: BTreeMap::new(),
        lp_backend: BackendChoice::default(),
        connect: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--upper" => opts.upper = true,
            "--hoeffding" => opts.hoeffding = true,
            "--azuma" => opts.azuma = true,
            "--lower" => opts.lower = true,
            "--quadratic" => opts.quadratic = true,
            "--race" => opts.race = true,
            "--symbolic" => opts.symbolic = true,
            "--dump-pts" => opts.dump_pts = true,
            "--engines" => {
                let list = it.next().ok_or("--engines needs a comma-separated list")?;
                opts.engines.extend(list.split(',').map(|s| s.trim().to_string()));
            }
            "--simulate" => {
                let n = it.next().ok_or("--simulate needs a trial count")?;
                opts.simulate =
                    Some(n.parse().map_err(|_| format!("bad trial count `{n}`"))?);
            }
            "--seed" => {
                let s = it.next().ok_or("--seed needs a value")?;
                opts.seed = s.parse().map_err(|_| format!("bad seed `{s}`"))?;
            }
            "--deadline-ms" => {
                let s = it.next().ok_or("--deadline-ms needs a millisecond count")?;
                opts.deadline_ms =
                    Some(s.parse().map_err(|_| format!("bad deadline `{s}`"))?);
            }
            "--lp-backend" => {
                opts.lp_backend = BackendChoice::parse_flag(it.next().map(String::as_str))?;
            }
            "--connect" => {
                let sock = it.next().ok_or("--connect needs a socket path")?;
                opts.connect = Some(sock.clone());
            }
            "--param" => {
                let kv = it.next().ok_or("--param needs name=value")?;
                let (k, v) = kv.split_once('=').ok_or_else(|| {
                    format!("bad --param `{kv}` (expected name=value)")
                })?;
                let value: f64 =
                    v.parse().map_err(|_| format!("bad parameter value `{v}`"))?;
                opts.params.insert(k.to_string(), value);
            }
            "--help" | "-h" => return Err(String::new()),
            _ if a.starts_with('-') => return Err(format!("unknown flag `{a}`")),
            _ if opts.path.is_empty() => opts.path = a.clone(),
            _ => return Err(format!("unexpected argument `{a}`")),
        }
    }
    if opts.path.is_empty() {
        return Err("no program file given".to_string());
    }
    Ok(opts)
}

/// Resolves the engine lineup: `--engines` wins, then the legacy mode
/// flags, then the default lineup. Names are validated against the
/// registry.
fn engine_lineup(opts: &Options, registry: &EngineRegistry) -> Result<Vec<String>, String> {
    let names: Vec<String> = if !opts.engines.is_empty() {
        opts.engines.clone()
    } else {
        let mut names = Vec::new();
        // `--quadratic` is additive ("also try quadratic exponents"), so
        // it deliberately does not suppress the default lineup.
        let any_flag = opts.upper
            || opts.hoeffding
            || opts.azuma
            || opts.lower
            || opts.simulate.is_some();
        if opts.upper || !any_flag {
            names.push("explinsyn");
        }
        if opts.hoeffding || !any_flag {
            names.push("hoeffding-linear");
        }
        if opts.azuma {
            names.push("azuma");
        }
        if opts.quadratic {
            names.push("polyrsm-quadratic");
        }
        if opts.lower || !any_flag {
            names.push("explowsyn");
        }
        if opts.quadratic {
            names.push("polylow");
        }
        names.into_iter().map(String::from).collect()
    };
    for name in &names {
        if registry.engine(name).is_none() {
            return Err(format!(
                "unknown engine `{name}` (registered: {})",
                registry.names().join(", ")
            ));
        }
    }
    Ok(names)
}

fn print_template(kind: &str, t: &qava_core::template::SolvedTemplate) {
    for (i, (loc, _, _)) in t.per_location.iter().enumerate() {
        println!("  {kind} template at {loc}: exp({})", t.exponent_string(i));
    }
}

fn print_stats_footer(certified: &LpStats, abandoned: &LpStats) {
    print!("{certified}");
    if abandoned.solves > 0 {
        print!("lp[abandoned]: {}", format_abandoned(abandoned));
    }
}

/// One-line summary of the abandoned bucket (cancelled racers). The
/// health counters are included so a watchdog restart or Bland retry
/// inside a cancelled racer is still visible — the certified footer
/// above deliberately excludes this bucket.
fn format_abandoned(lp: &LpStats) -> String {
    format!(
        "{} solves, {} pivots, {:.3}s, {} watchdog restarts, {} bland retries \
         (cancelled racers; excluded from the totals above)\n",
        lp.solves, lp.pivots, lp.wall_seconds, lp.watchdog_restarts, lp.bland_retries
    )
}

/// Runs the full Table 1/2 suite — in-process through the parallel
/// driver, or through a resident `qavad` daemon with `--connect`. Both
/// paths produce the same [`qava_core::suite::runner::RowReport`]s and
/// print through the same code below, so their outputs are directly
/// diffable.
fn run_suite(
    backend: BackendChoice,
    racing: bool,
    json: bool,
    connect: Option<&str>,
) -> ExitCode {
    use qava_core::suite::runner::{
        default_engines, race_rows_with, run_rows_with, suite_lp_stats,
    };
    use qava_core::suite::{table1, table2};
    let rows: Vec<_> = table1().into_iter().chain(table2()).collect();
    let reports = match connect {
        Some(sock) => {
            // Send our backend policy explicitly so `--lp-backend` means
            // the same thing on both paths regardless of how the daemon
            // was started.
            match qavad::client::run_suite_via_daemon(
                std::path::Path::new(sock),
                &rows,
                racing,
                Some(&backend.to_string()),
            ) {
                Ok(reports) => reports,
                Err(e) => {
                    eprintln!("error: daemon suite failed: {e}");
                    return ExitCode::from(3);
                }
            }
        }
        None if racing => race_rows_with(&rows, backend),
        None => run_rows_with(&rows, |b| default_engines(b.direction).to_vec(), backend),
    };
    if json {
        println!(
            "{}",
            qavad::protocol::suite_json(&reports, racing, &backend.to_string()).render()
        );
        let failures =
            reports.iter().flat_map(|r| &r.runs).filter(|run| run.bound.is_err()).count();
        return if failures == 0 { ExitCode::SUCCESS } else { ExitCode::from(3) };
    }
    let mut failures = 0usize;
    for report in &reports {
        for run in &report.runs {
            match &run.bound {
                Ok(b) => {
                    let suffix = if run.raced.is_empty() {
                        String::new()
                    } else {
                        let losers: Vec<_> =
                            run.raced.iter().filter(|&&n| n != run.engine).copied().collect();
                        if losers.is_empty() {
                            "  [raced unopposed]".to_string()
                        } else {
                            format!(
                                "  [won over {}; abandoned {} solves / {} pivots]",
                                losers.join(", "),
                                run.abandoned.solves,
                                run.abandoned.pivots,
                            )
                        }
                    };
                    println!(
                        "{:<12} {:<24} {:<17} ln(bound) = {:>12.4}  ({:.2}s){suffix}",
                        report.name, report.label, run.engine, b.ln(), run.seconds
                    );
                }
                Err(e) => {
                    failures += 1;
                    // A failed race has no winner to crow about; name the
                    // lineup without claiming anything was "won over".
                    let suffix = if run.raced.is_empty() {
                        String::new()
                    } else {
                        format!(
                            "  [race of {}; {} solves / {} pivots spent]",
                            run.raced.join(", "),
                            run.abandoned.solves,
                            run.abandoned.pivots,
                        )
                    };
                    println!(
                        "{:<12} {:<24} {:<17} failed: {e}{suffix}",
                        report.name, report.label, run.engine
                    );
                }
            }
        }
    }
    println!(
        "{} rows, {} runs, {failures} failures",
        reports.len(),
        reports.iter().map(|r| r.runs.len()).sum::<usize>()
    );
    // Per-backend solver statistics: certified work only, with the
    // cancelled racers' share reported separately so nothing is counted
    // twice.
    print_stats_footer(&suite_lp_stats(&reports), &suite_abandoned_lp_stats(&reports));
    ExitCode::SUCCESS
}

/// The certified bound-vs-parameter curves behind `qava --sweep`: every
/// parametric family of the suite, each point solved like its suite row
/// (see [`qava_core::sweep`]).
fn run_sweep_suite(backend: BackendChoice) -> ExitCode {
    let started = Instant::now();
    let reports = qava_core::suite::runner::sweep_families_with(backend, true);
    let wall = started.elapsed().as_secs_f64();
    let mut failures = 0usize;
    let mut points = 0usize;
    let mut point_work = 0.0f64;
    let mut certified = LpStats::default();
    for report in &reports {
        for p in &report.points {
            points += 1;
            point_work += p.seconds;
            certified.merge(&p.lp);
            match &p.bound {
                Ok(b) => println!(
                    "{:<12} {:<24} {:<17} ln(bound) = {:>12.4}  ({:.2}s)",
                    p.name,
                    p.label,
                    p.engine,
                    b.ln(),
                    p.seconds
                ),
                Err(e) => {
                    failures += 1;
                    println!("{:<12} {:<24} {:<17} failed: {e}", p.name, p.label, p.engine);
                }
            }
        }
    }
    println!(
        "sweep: {} families, {points} points, {failures} failures; \
         wall {wall:.2} s for {point_work:.2} s of point work",
        reports.len()
    );
    print_stats_footer(&certified, &LpStats::default());
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

/// The robustness gate behind `--suite --chaos SEED`: replay the suite
/// fault-free, then again with one seeded recoverable fault injected
/// into every (row, engine) task's solver session, and require every
/// row to still certify a bound within 1e-7 of the fault-free value.
fn run_chaos_suite(backend: BackendChoice, seed: u64) -> ExitCode {
    use qava_core::suite::runner::{
        default_engines, run_rows_chaos, run_rows_with, suite_lp_stats,
    };
    use qava_core::suite::{table1, table2};
    let rows: Vec<_> = table1().into_iter().chain(table2()).collect();
    let engines = |b: &qava_core::suite::Benchmark| default_engines(b.direction).to_vec();
    let clean = run_rows_with(&rows, engines, backend);
    let chaotic = run_rows_chaos(&rows, engines, backend, seed);

    let tol = |reference: f64| 1e-7 * (1.0 + reference.abs());
    let mut certified_rows = 0usize;
    let mut faults_fired = 0usize;
    let mut divergences = 0usize;
    let mut uncertified = 0usize;
    let mut max_divergence = 0.0f64;
    for (c, f) in clean.iter().zip(&chaotic) {
        let mut row_ok = true;
        for (cr, fr) in c.runs.iter().zip(&f.runs) {
            let plan = fr.fault.as_deref().unwrap_or("no fault fired");
            faults_fired += usize::from(fr.fault.is_some());
            match (&cr.bound, &fr.bound) {
                (Ok(clean_bound), Ok(chaos_bound)) => {
                    let (lc, lf) = (clean_bound.ln(), chaos_bound.ln());
                    let delta = (lf - lc).abs();
                    max_divergence = max_divergence.max(delta);
                    if delta > tol(lc) {
                        row_ok = false;
                        divergences += 1;
                        println!(
                            "{:<12} {:<24} {:<17} DIVERGED under {plan}: \
                             ln(bound) {lf:.10} vs fault-free {lc:.10}",
                            c.name, c.label, fr.engine
                        );
                    }
                }
                (Ok(_), Err(e)) => {
                    row_ok = false;
                    uncertified += 1;
                    println!(
                        "{:<12} {:<24} {:<17} LOST CERTIFICATION under {plan}: {e}",
                        c.name, c.label, fr.engine
                    );
                }
                // A row the fault-free suite cannot certify is outside
                // the chaos contract; nothing to compare.
                (Err(_), _) => {}
            }
        }
        certified_rows += usize::from(row_ok);
    }
    println!(
        "chaos: {certified_rows}/{} rows certified under seed {seed} \
         ({faults_fired} faults fired, max ln-bound divergence {max_divergence:.2e})",
        rows.len()
    );
    print_stats_footer(&suite_lp_stats(&chaotic), &LpStats::default());
    if divergences == 0 && uncertified == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

/// Extracts `--connect SOCK` from a raw `--suite` argument list.
fn connect_from_args(args: &[String]) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == "--connect") {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| "--connect needs a socket path".to_string()),
    }
}

/// Extracts `--chaos SEED` from a raw `--suite` argument list.
fn chaos_from_args(args: &[String]) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == "--chaos") {
        None => Ok(None),
        Some(i) => {
            let seed = args.get(i + 1).ok_or("--chaos needs a seed")?;
            seed.parse().map(Some).map_err(|_| format!("bad chaos seed `{seed}`"))
        }
    }
}

/// Routes one file's analysis through a resident `qavad` daemon. The
/// daemon compiles the source (reusing its compile-once store), runs the
/// requested lineup with this invocation's backend policy and deadline,
/// and replies with per-run bounds and LP statistics; compile errors and
/// rejected requests come back as request errors.
fn run_connected_file(socket: &str, source: &str, opts: &Options) -> ExitCode {
    let registry = EngineRegistry::with_builtins();
    let lineup = match engine_lineup(opts, &registry) {
        Ok(l) => l,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };
    let mut client = match qavad::Client::connect(std::path::Path::new(socket)) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if let Err(e) = client.hello() {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    let spec = qavad::client::AnalyzeSpec {
        id: 0,
        source,
        params: &opts.params,
        engines: lineup,
        race: opts.race,
        deadline_ms: opts.deadline_ms,
        invariant_iters: 0,
        lp_backend: Some(opts.lp_backend.to_string()),
    };
    let response = match client.analyze(&spec) {
        Ok(response) => response,
        Err(e) => {
            eprintln!("error: {e}");
            // A compile failure reported by the daemon keeps the local
            // compile-error exit code; everything else is usage/transport.
            return ExitCode::from(if e.starts_with("compile error") { 2 } else { 1 });
        }
    };
    let mut failures = 0usize;
    let mut certified = LpStats::default();
    let mut abandoned = LpStats::default();
    for run in &response.runs {
        certified.merge(&run.lp);
        abandoned.merge(&run.abandoned);
        let raced = if run.raced.is_empty() {
            String::new()
        } else {
            format!("  [raced {}]", run.raced.join(", "))
        };
        match &run.bound {
            Ok(b) => println!(
                "{} (daemon): ln(bound) = {:.4}  ({:.2}s){raced}",
                run.engine,
                b.ln(),
                run.seconds
            ),
            Err(e) => {
                failures += 1;
                println!("{} (daemon): failed — {e}{raced}", run.engine);
            }
        }
    }
    if certified.solves > 0 || abandoned.solves > 0 {
        print_stats_footer(&certified, &abandoned);
    }
    if failures > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints one engine report line (plus template with `--symbolic`).
fn print_report(report: &qava_core::engine::AnalysisReport, symbolic: bool) -> bool {
    let dir = match report.direction {
        Direction::Upper => "upper",
        Direction::Lower => "lower",
    };
    match &report.outcome {
        Ok(c) => {
            // A floored objective means "essentially zero", not the
            // printed constant — and its template is the solver floor's,
            // not a meaningful certificate.
            let floored =
                c.details.iter().any(|&(k, v)| k == "floored" && v != 0.0);
            let details: Vec<String> = c
                .details
                .iter()
                .filter(|(k, _)| *k != "floored")
                .map(|(k, v)| {
                    if (v.fract() == 0.0 && v.abs() < 1e9) || *v == 0.0 {
                        format!("{k} = {v}")
                    } else {
                        format!("{k} = {v:.4}")
                    }
                })
                .collect();
            let suffix = if details.is_empty() {
                String::new()
            } else {
                format!(" ({})", details.join(", "))
            };
            if floored {
                println!("{dir} bound ({}): ≈ 0 (objective floored){suffix}", report.engine);
            } else {
                println!("{dir} bound ({}): {}{suffix}", report.engine, c.bound);
                if symbolic {
                    if let Certificate::Template(t) = &c.certificate {
                        print_template(report.engine, t);
                    }
                }
            }
            true
        }
        Err(e) => {
            println!("{dir} bound ({}): failed — {e}", report.engine);
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--suite" || a == "--sweep") {
        // --suite/--sweep ignore the single-file options; only
        // --lp-backend, --race and --chaos apply.
        let backend = match BackendChoice::from_args(&args) {
            Ok(b) => b.unwrap_or_default(),
            Err(msg) => {
                eprintln!("error: {msg}\n");
                eprintln!("{USAGE}");
                return ExitCode::from(1);
            }
        };
        let chaos = match chaos_from_args(&args) {
            Ok(c) => c,
            Err(msg) => {
                eprintln!("error: {msg}\n");
                eprintln!("{USAGE}");
                return ExitCode::from(1);
            }
        };
        let connect = match connect_from_args(&args) {
            Ok(c) => c,
            Err(msg) => {
                eprintln!("error: {msg}\n");
                eprintln!("{USAGE}");
                return ExitCode::from(1);
            }
        };
        if args.iter().any(|a| a == "--sweep") {
            if chaos.is_some() || args.iter().any(|a| a == "--race") || connect.is_some() {
                eprintln!(
                    "error: --sweep runs the sweep driver alone; drop --race/--chaos/--connect\n"
                );
                eprintln!("{USAGE}");
                return ExitCode::from(1);
            }
            return run_sweep_suite(backend);
        }
        if let Some(seed) = chaos {
            if args.iter().any(|a| a == "--race") || connect.is_some() {
                eprintln!("error: --chaos replays the sequential driver; drop --race/--connect\n");
                eprintln!("{USAGE}");
                return ExitCode::from(1);
            }
            return run_chaos_suite(backend, seed);
        }
        return run_suite(
            backend,
            args.iter().any(|a| a == "--race"),
            args.iter().any(|a| a == "--json"),
            connect.as_deref(),
        );
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };

    let source = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read `{}`: {e}", opts.path);
            return ExitCode::from(1);
        }
    };
    if let Some(sock) = opts.connect.clone() {
        if opts.dump_pts || opts.symbolic || opts.simulate.is_some() {
            eprintln!(
                "error: --connect runs on the daemon; drop --dump-pts/--symbolic/--simulate\n"
            );
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
        return run_connected_file(&sock, &source, &opts);
    }
    let pts = match qava_lang::compile(&source, &opts.params) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}: {} variables, {} live locations, {} transitions",
        opts.path,
        pts.num_vars(),
        pts.live_locations().count(),
        pts.transitions().len()
    );

    if opts.dump_pts {
        print!("{pts}");
    }

    let registry = EngineRegistry::with_builtins();
    let lineup = match engine_lineup(&opts, &registry) {
        Ok(l) => l,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };

    let mut failures = 0u32;
    // One solver session for the whole invocation: every sequential
    // analysis below shares its warm-start cache and contributes to one
    // stats report (racers hold private sessions; their certified share
    // is folded back in).
    let mut solver = LpSolver::with_choice(opts.lp_backend);
    let mut abandoned = LpStats::default();

    // The lower-bound engines are sound only under almost-sure
    // termination: certify it once, up front, if any are requested.
    let wants_lower =
        lineup.iter().any(|n| registry.engine(n).is_some_and(|e| e.direction() == Direction::Lower));
    let lower_ok = if wants_lower {
        match prove_almost_sure_termination_in(&pts, &mut solver) {
            Ok(cert) => {
                println!(
                    "almost-sure termination: certified (expected steps ≤ {:.1})",
                    cert.initial_rank
                );
                true
            }
            Err(e) => {
                println!("lower bounds: skipped — cannot certify a.s. termination ({e})");
                failures += 1;
                false
            }
        }
    } else {
        false
    };

    for direction in [Direction::Upper, Direction::Lower] {
        let group: Vec<&dyn BoundEngine> = lineup
            .iter()
            .filter_map(|n| registry.engine(n))
            .filter(|e| e.direction() == direction)
            .collect();
        if group.is_empty() || (direction == Direction::Lower && !lower_ok) {
            continue;
        }
        let mut req = AnalysisRequest::new(&pts, direction);
        if let Some(ms) = opts.deadline_ms {
            req = req.deadline(Duration::from_millis(ms));
        }
        if opts.race && group.len() > 1 {
            let outcome = race(&group, &req, opts.lp_backend);
            abandoned.merge(&outcome.abandoned);
            match outcome.winning_report() {
                Some(winner) => {
                    let losers: Vec<_> = outcome
                        .reports
                        .iter()
                        .filter(|r| r.engine != winner.engine)
                        .map(|r| r.engine)
                        .collect();
                    println!(
                        "race ({direction}): {} won over {}",
                        winner.engine,
                        if losers.is_empty() { "nobody".to_string() } else { losers.join(", ") }
                    );
                    print_report(winner, opts.symbolic);
                    solver.merge_stats(&winner.lp);
                }
                None => {
                    println!("race ({direction}): no engine certified a bound");
                    for report in &outcome.reports {
                        print_report(report, false);
                    }
                    failures += 1;
                }
            }
        } else {
            for engine in group {
                let report = engine.run(&req, &mut solver);
                if !print_report(&report, opts.symbolic) {
                    failures += 1;
                }
            }
        }
    }

    if let Some(trials) = opts.simulate {
        let est = qava_sim::Simulator::new(opts.seed).estimate_violation(&pts, trials, 1_000_000);
        println!(
            "simulation: {:.6} over {} trials (99% CI ± {:.2e}, {} timeouts)",
            est.probability, est.trials, est.ci_half_width, est.timeouts
        );
    }

    // Abandoned-only work (e.g. a race where nothing certified) still
    // prints a footer: spent LP work must never be invisible.
    let stats = solver.stats();
    if stats.solves > 0 || abandoned.solves > 0 {
        print_stats_footer(stats, &abandoned);
    }

    if failures > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn lineup(list: &[&str]) -> Vec<String> {
        let opts = parse_args(&args(list)).unwrap();
        engine_lineup(&opts, &EngineRegistry::with_builtins()).unwrap()
    }

    #[test]
    fn default_modes_enabled() {
        assert_eq!(lineup(&["p.qava"]), vec!["explinsyn", "hoeffding-linear", "explowsyn"]);
    }

    #[test]
    fn explicit_mode_disables_defaults() {
        assert_eq!(lineup(&["p.qava", "--upper"]), vec!["explinsyn"]);
        assert_eq!(lineup(&["p.qava", "--azuma"]), vec!["azuma"]);
    }

    #[test]
    fn quadratic_is_additive() {
        // `--quadratic` "also" tries quadratic exponents: the default
        // lineup keeps running alongside the Handelman engines.
        assert_eq!(
            lineup(&["p.qava", "--quadratic"]),
            vec!["explinsyn", "hoeffding-linear", "polyrsm-quadratic", "explowsyn", "polylow"]
        );
        assert_eq!(
            lineup(&["p.qava", "--upper", "--quadratic"]),
            vec!["explinsyn", "polyrsm-quadratic", "polylow"]
        );
    }

    #[test]
    fn engines_flag_overrides_modes() {
        assert_eq!(
            lineup(&["p.qava", "--upper", "--engines", "azuma,polylow"]),
            vec!["azuma", "polylow"]
        );
    }

    #[test]
    fn unknown_engine_rejected() {
        let opts = parse_args(&args(&["p.qava", "--engines", "simplex-prayer"])).unwrap();
        let err = engine_lineup(&opts, &EngineRegistry::with_builtins()).unwrap_err();
        assert!(err.contains("unknown engine `simplex-prayer`"));
        assert!(err.contains("hoeffding-linear"), "message lists the registry: {err}");
    }

    #[test]
    fn race_flag_parses() {
        assert!(parse_args(&args(&["p.qava", "--race"])).unwrap().race);
        assert!(!parse_args(&args(&["p.qava"])).unwrap().race);
    }

    #[test]
    fn params_parse() {
        let o = parse_args(&args(&["p.qava", "--param", "n=3.5", "--param", "p=1e-7"])).unwrap();
        assert_eq!(o.params["n"], 3.5);
        assert_eq!(o.params["p"], 1e-7);
    }

    #[test]
    fn bad_flag_rejected() {
        assert!(parse_args(&args(&["p.qava", "--frobnicate"])).is_err());
    }

    #[test]
    fn missing_file_rejected() {
        assert!(parse_args(&args(&["--upper"])).is_err());
    }

    #[test]
    fn lp_backend_parses() {
        let o = parse_args(&args(&["p.qava", "--lp-backend", "sparse"])).unwrap();
        assert_eq!(o.lp_backend, BackendChoice::Sparse);
        let o = parse_args(&args(&["p.qava", "--lp-backend", "lu-ft"])).unwrap();
        assert_eq!(o.lp_backend, BackendChoice::LuFt);
        let o = parse_args(&args(&["p.qava"])).unwrap();
        assert_eq!(o.lp_backend, BackendChoice::default());
        // Unknown values — the deleted `lu`/`lu-bg` engines included —
        // fail with the library parser's message, list and all.
        for bad in ["lu", "lu-bg", "cuda"] {
            let err = parse_args(&args(&["p.qava", "--lp-backend", bad])).err();
            assert_eq!(err, bad.parse::<BackendChoice>().err(), "{bad}");
            assert!(err.unwrap().contains("auto, sparse, dense, or lu-ft"), "{bad}");
        }
        let err = parse_args(&args(&["p.qava", "--lp-backend"])).err();
        assert_eq!(err, BackendChoice::parse_flag(None).err());
    }

    #[test]
    fn deadline_ms_parses() {
        let o = parse_args(&args(&["p.qava", "--deadline-ms", "250"])).unwrap();
        assert_eq!(o.deadline_ms, Some(250));
        assert_eq!(parse_args(&args(&["p.qava"])).unwrap().deadline_ms, None);
        assert!(parse_args(&args(&["p.qava", "--deadline-ms", "soon"])).is_err());
        assert!(parse_args(&args(&["p.qava", "--deadline-ms"])).is_err());
    }

    #[test]
    fn chaos_seed_parses() {
        assert_eq!(chaos_from_args(&args(&["--suite"])).unwrap(), None);
        assert_eq!(chaos_from_args(&args(&["--suite", "--chaos", "4242"])).unwrap(), Some(4242));
        assert!(chaos_from_args(&args(&["--suite", "--chaos"])).is_err());
        assert!(chaos_from_args(&args(&["--suite", "--chaos", "dice"])).is_err());
    }

    #[test]
    fn simulate_takes_count() {
        let o = parse_args(&args(&["p.qava", "--simulate", "1000", "--seed", "9"])).unwrap();
        assert_eq!(o.simulate, Some(1000));
        assert_eq!(o.seed, 9);
        // --simulate alone runs no synthesis engines.
        assert_eq!(lineup(&["p.qava", "--simulate", "10"]), Vec::<String>::new());
    }
}
