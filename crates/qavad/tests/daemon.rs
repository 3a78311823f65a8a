//! End-to-end tests of the resident analysis service: a real daemon on
//! a real Unix socket, driven by real client connections.
//!
//! The heavyweight test is the conformance gate: the full 36-row suite
//! driven through the daemon must certify bit-identical bounds (1e-9 in
//! ln-space) to the in-process driver, and a second daemon-mediated run
//! must hit the shared in-memory warm-start cache. The cheap tests pin
//! the failure modes: disconnect-cancellation freeing the single
//! analysis slot, pipelined requests answered in order (and cancelled
//! when their client hangs up), deadline expiry winding down as
//! cancelled, and protocol-level rejection keeping the connection
//! usable; and that the `cache_file` setting writes nothing.

use qava_core::suite::runner::{default_engines, run_rows_with, EngineRun, RowReport};
use qava_core::suite::{table1, table2, Benchmark};
use qava_lp::BackendChoice;
use qavad::client::{run_suite_via_daemon, AnalyzeSpec, Client, SUITE_INVARIANT_ITERS};
use qavad::json::Json;
use qavad::protocol::engine_run_from_json;
use qavad::server::{Daemon, DaemonConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A unique scratch directory per test (tests run in one process but on
/// different names).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qavad-test-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Boots a daemon on its own thread and waits until it accepts
/// connections. Returns the join handle; stop it with a `shutdown`
/// request.
fn boot(config: DaemonConfig) -> std::thread::JoinHandle<()> {
    let socket = config.socket.clone();
    let daemon = Daemon::bind(config).expect("bind daemon");
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(&socket) {
            Ok(mut client) => {
                client.hello().expect("hello");
                return handle;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10))
            }
            Err(e) => panic!("daemon never came up on {}: {e}", socket.display()),
        }
    }
}

fn shutdown(socket: &Path, handle: std::thread::JoinHandle<()>) {
    Client::connect(socket).expect("connect for shutdown").shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

fn suite_rows() -> Vec<Benchmark> {
    table1().into_iter().chain(table2()).collect()
}

/// Asserts two suite runs certified identical outcomes: same engines in
/// the same order, bounds within 1e-9 in ln-space, failures for
/// failures.
fn assert_conformant(daemon_side: &[RowReport], in_process: &[RowReport]) {
    assert_eq!(daemon_side.len(), in_process.len());
    for (d, p) in daemon_side.iter().zip(in_process) {
        assert_eq!(d.name, p.name, "row order must match");
        assert_runs_conformant(&format!("{} ({})", d.name, d.label), &d.runs, &p.runs);
    }
}

/// [`assert_conformant`] for one row's runs.
fn assert_runs_conformant(row: &str, daemon_side: &[EngineRun], in_process: &[EngineRun]) {
    assert_eq!(daemon_side.len(), in_process.len(), "{row}: run count");
    for (dr, pr) in daemon_side.iter().zip(in_process) {
        assert_eq!(dr.engine, pr.engine, "{row}: engine");
        match (&dr.bound, &pr.bound) {
            (Ok(db), Ok(pb)) => assert!(
                (db.ln() - pb.ln()).abs() <= 1e-9,
                "{row} / {}: daemon ln {} vs in-process ln {}",
                dr.engine,
                db.ln(),
                pb.ln()
            ),
            (Err(_), Err(_)) => {}
            (daemon, local) => panic!(
                "{row} / {}: verdicts diverge (daemon {daemon:?}, in-process {local:?})",
                dr.engine
            ),
        }
    }
}

fn persistent_hits(client: &mut Client) -> usize {
    let stats = client.stats().expect("stats");
    stats
        .get("lp")
        .and_then(|lp| lp.get("persistent_warm_hits"))
        .and_then(Json::as_usize)
        .expect("stats carries lp.persistent_warm_hits")
}

/// The acceptance gate of the daemon: full-suite conformance and warm
/// cross-request cache hits on the second run.
#[test]
fn suite_over_daemon_is_conformant_and_warms_across_runs() {
    let dir = scratch("suite");
    let socket = dir.join("qavad.sock");
    let rows = suite_rows();
    assert_eq!(rows.len(), 36);

    let reference =
        run_rows_with(&rows, |b| default_engines(b.direction).to_vec(), BackendChoice::default());

    let handle = boot(DaemonConfig::new(&socket));

    // Run 1 (cold daemon): every bound must already match in-process.
    let first = run_suite_via_daemon(&socket, &rows, false, None).expect("daemon suite run 1");
    assert_conformant(&first, &reference);

    // Run 2 (fresh clients, same daemon): the shared cache now carries
    // run 1's bases, so solves must start warm from the shared store —
    // and the compile-once PTS store must be hitting.
    let second = run_suite_via_daemon(&socket, &rows, false, None).expect("daemon suite run 2");
    assert_conformant(&second, &reference);
    let mut client = Client::connect(&socket).expect("stats client");
    let hits_after_second = persistent_hits(&mut client);
    assert!(
        hits_after_second > 0,
        "second daemon-mediated run must hit the shared warm-start cache"
    );
    let stats = client.stats().expect("stats");
    let pts_hits = stats.get("pts_hits").and_then(Json::as_usize).unwrap_or(0);
    assert!(pts_hits > 0, "repeated rows must reuse compiled programs");
    drop(client);

    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Racing through the daemon: same certified values, winner drawn from
/// the raced lineup.
#[test]
fn raced_rows_through_the_daemon_certify_in_process_values() {
    let dir = scratch("race");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    // A couple of upper rows (race mode's interesting case: two engines
    // in the lineup) is enough — full-suite racing is covered by the
    // in-process race conformance tests.
    let rows: Vec<Benchmark> = suite_rows().into_iter().take(3).collect();
    let reference =
        run_rows_with(&rows, |b| default_engines(b.direction).to_vec(), BackendChoice::default());
    let raced = run_suite_via_daemon(&socket, &rows, true, None).expect("raced daemon suite");
    for (d, p) in raced.iter().zip(&reference) {
        assert_eq!(d.runs.len(), 1, "{}: race mode reports one run per row", d.name);
        let run = &d.runs[0];
        let won = run.bound.as_ref().expect("race certifies");
        assert!(!run.raced.is_empty(), "race run names its lineup");
        assert!(run.raced.contains(&run.engine), "winner comes from the lineup");
        let local = p
            .runs
            .iter()
            .find(|r| r.engine == run.engine)
            .expect("winner exists in sequential reference")
            .bound
            .as_ref()
            .expect("reference certifies");
        assert!(
            (won.ln() - local.ln()).abs() <= 1e-9,
            "{}: raced daemon bound diverges from that engine alone",
            d.name
        );
    }
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw `analyze` request line (newline included) for `b` with the
/// given engine lineup — what a client writes when it pipelines or
/// hangs up without waiting for answers.
fn analyze_line(b: &Benchmark, id: usize, engines: &[&str]) -> String {
    let request = qavad::json::obj(vec![
        ("cmd", Json::Str("analyze".to_string())),
        ("id", Json::Num(id as f64)),
        ("source", Json::Str(b.source.to_string())),
        (
            "params",
            Json::Obj(b.params.iter().map(|(k, &v)| (k.clone(), Json::from_f64(v))).collect()),
        ),
        ("engines", Json::Arr(engines.iter().map(|e| Json::Str((*e).to_string())).collect())),
        ("invariant_iters", Json::Num(SUITE_INVARIANT_ITERS as f64)),
    ]);
    format!("{}\n", request.render())
}

fn disconnect_cancels(client: &mut Client) -> usize {
    let stats = client.stats().expect("stats");
    let stats = stats.get("disconnect_cancels").and_then(Json::as_usize);
    stats.expect("stats carries disconnect_cancels")
}

/// A client that vanishes mid-solve must cancel its analysis and free
/// the (only) analysis slot for the next request.
#[test]
fn disconnect_mid_solve_cancels_and_frees_the_worker() {
    let dir = scratch("disconnect");
    let socket = dir.join("qavad.sock");
    let mut config = DaemonConfig::new(&socket);
    config.max_inflight = 1;
    let handle = boot(config);

    // Hang up right after sending a heavyweight request, without reading
    // the response: the daemon sees the departure whether the request is
    // still queued or already running, so the timing of the hang-up
    // (and the speed of the build) cannot let the analysis finish first.
    let rows = suite_rows();
    let heavy = rows.iter().find(|b| b.name == "3DWalk").expect("3DWalk row exists");
    let mut vanishing = UnixStream::connect(&socket).expect("connect");
    let request = analyze_line(heavy, 0, &["explinsyn"]);
    vanishing.write_all(request.as_bytes()).expect("send analyze");
    drop(vanishing);

    // With the only slot occupied by the abandoned analysis, this
    // request completes only once cancellation released the permit.
    let mut client = Client::connect(&socket).expect("second client");
    let quick = &rows[0];
    let response = client
        .analyze(&AnalyzeSpec {
            id: 1,
            source: quick.source,
            params: &quick.params,
            engines: vec!["hoeffding-linear".to_string()],
            race: false,
            deadline_ms: None,
            invariant_iters: SUITE_INVARIANT_ITERS,
            lp_backend: None,
        })
        .expect("analysis after an abandoned request");
    assert!(response.runs[0].bound.is_ok(), "follow-up analysis certifies");
    // The follow-up can win the slot while the abandoned request is still
    // compiling; that request registers, and is cancelled, only after.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut cancels = disconnect_cancels(&mut client);
    while cancels < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        cancels = disconnect_cancels(&mut client);
    }
    assert!(cancels >= 1, "the daemon must have observed the disconnect and cancelled");
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipelining: requests written back to back in one `write` are
/// answered in order, each with its own `id` and its in-process bound.
/// A client that pipelines heavy requests and then hangs up cancels
/// them.
#[test]
fn pipelined_requests_answer_in_order_and_hang_up_cancels_them() {
    let dir = scratch("pipeline");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let rows: Vec<Benchmark> = suite_rows().into_iter().take(3).collect();
    let reference =
        run_rows_with(&rows, |b| default_engines(b.direction).to_vec(), BackendChoice::default());

    // Three analyses with a hello between the first and the second, all
    // in a single write.
    let mut batch = String::new();
    for (i, b) in rows.iter().enumerate() {
        batch.push_str(&analyze_line(b, 10 + i, default_engines(b.direction)));
        if i == 0 {
            batch.push_str("{\"cmd\":\"hello\"}\n");
        }
    }
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.write_all(batch.as_bytes()).expect("pipelined write");
    let mut responses = BufReader::new(stream.try_clone().expect("clone"));
    let mut next = || {
        let mut line = String::new();
        responses.read_line(&mut line).expect("read response");
        let doc = qavad::json::parse(line.trim_end()).expect("response is JSON");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        doc
    };
    for (i, (b, local)) in rows.iter().zip(&reference).enumerate() {
        let doc = next();
        assert_eq!(doc.get("id").and_then(Json::as_usize), Some(10 + i), "responses in order");
        let runs: Vec<_> = doc
            .get("runs")
            .and_then(Json::as_arr)
            .expect("analyze response has runs")
            .iter()
            .map(|r| engine_run_from_json(r).expect("decodable run"))
            .collect();
        assert_runs_conformant(b.name, &runs, &local.runs);
        if i == 0 {
            let hello = next();
            let server = hello.get("server").and_then(Json::as_str);
            assert_eq!(server, Some("qavad"), "the hello is answered second");
        }
    }
    drop(responses);
    drop(stream);

    // Two heavy requests pipelined, then a hang-up: both are cancelled
    // (the second may already see the departure when it registers), and
    // the counter rises without anyone waiting on the answers.
    let mut client = Client::connect(&socket).expect("stats client");
    let before = disconnect_cancels(&mut client);
    let all = suite_rows();
    let heavy = all.iter().find(|b| b.name == "3DWalk").expect("3DWalk row exists");
    let mut vanishing = UnixStream::connect(&socket).expect("connect");
    let two = analyze_line(heavy, 20, &["explinsyn"]) + &analyze_line(heavy, 21, &["explinsyn"]);
    vanishing.write_all(two.as_bytes()).expect("pipelined heavy write");
    drop(vanishing);
    let deadline = Instant::now() + Duration::from_secs(120);
    while disconnect_cancels(&mut client) <= before {
        assert!(Instant::now() < deadline, "abandoned pipelined analyses were never cancelled");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deadline expiry winds the request down as cancelled instead of
/// blocking the daemon.
#[test]
fn deadline_expiry_reports_cancelled() {
    let dir = scratch("deadline");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let rows = suite_rows();
    let heavy = rows.iter().find(|b| b.name == "3DWalk").expect("3DWalk row exists");
    let mut client = Client::connect(&socket).expect("client");
    // hoeffding-linear does all its work through LpSolver solves, so the
    // deadline (enforced at solve boundaries) is guaranteed to trip;
    // explinsyn's convex phase only polls the cancel flag.
    let response = client
        .analyze(&AnalyzeSpec {
            id: 7,
            source: heavy.source,
            params: &heavy.params,
            engines: vec!["hoeffding-linear".to_string()],
            race: false,
            deadline_ms: Some(1),
            invariant_iters: SUITE_INVARIANT_ITERS,
            lp_backend: None,
        })
        .expect("deadline-bounded analyze still answers");
    let err = response.runs[0].bound.as_ref().expect_err("1ms is not enough to certify");
    assert!(err.contains("cancelled"), "deadline expiry surfaces as cancellation: {err}");
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `DaemonConfig::cache_file` has no effect: a daemon configured with
/// one answers requests and shuts down without ever creating the file.
#[test]
fn configured_cache_file_is_never_created() {
    let dir = scratch("no-cache-file");
    let socket = dir.join("qavad.sock");
    let cache = dir.join("warm.cache");
    let mut config = DaemonConfig::new(&socket);
    config.cache_file = Some(cache.clone());
    let handle = boot(config);
    let mut client = Client::connect(&socket).expect("client");
    let quick = &suite_rows()[0];
    for id in 0..2 {
        let response = client
            .analyze(&AnalyzeSpec {
                id,
                source: quick.source,
                params: &quick.params,
                engines: vec!["hoeffding-linear".to_string()],
                race: false,
                deadline_ms: None,
                invariant_iters: SUITE_INVARIANT_ITERS,
                lp_backend: None,
            })
            .expect("analyze");
        assert!(response.runs[0].bound.is_ok());
    }
    client.stats().expect("stats");
    drop(client);
    shutdown(&socket, handle);
    assert!(!cache.exists(), "the daemon must not write {}", cache.display());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol failures cost one request, not the connection: garbage and
/// unknown commands are answered with `ok:false`, then the same
/// connection still serves real requests.
#[test]
fn protocol_errors_keep_the_connection_usable() {
    let dir = scratch("protocol");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let mut client = Client::connect(&socket).expect("client");

    let garbage = client.request(&Json::Str("not an object".to_string()));
    assert!(garbage.is_err(), "a non-object request is rejected");
    let unknown = client.request(&qavad::json::obj(vec![(
        "cmd",
        Json::Str("transmogrify".to_string()),
    )]));
    assert!(unknown.unwrap_err().contains("unknown cmd"));
    let no_engines = client.request(&qavad::json::obj(vec![
        ("cmd", Json::Str("analyze".to_string())),
        ("source", Json::Str("var x; while x > 0 { x := x - 1; }".to_string())),
    ]));
    assert!(no_engines.unwrap_err().contains("engines"));

    // Same connection, real request, still fine.
    client.hello().expect("connection survived the abuse");
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request naming a backend the daemon does not have (here the retired
/// eta-file engine) gets one `ok:false` answer carrying the library
/// parser's message, and the connection goes on serving analyses.
#[test]
fn unknown_lp_backend_costs_one_request() {
    let dir = scratch("backend");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let mut client = Client::connect(&socket).expect("client");
    let quick = &suite_rows()[0];
    let spec = |lp_backend: &str| AnalyzeSpec {
        id: 7,
        source: quick.source,
        params: &quick.params,
        engines: vec!["hoeffding-linear".to_string()],
        race: false,
        deadline_ms: None,
        invariant_iters: SUITE_INVARIANT_ITERS,
        lp_backend: Some(lp_backend.to_string()),
    };

    let err = client.analyze(&spec("lu")).err().expect("`lu` is not a backend");
    assert!(err.contains(&"lu".parse::<BackendChoice>().unwrap_err()), "{err}");
    let response = client.analyze(&spec("lu-ft")).expect("connection still serves");
    assert!(response.runs[0].bound.is_ok());
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Engine names resolve against the daemon's registry: a name it does
/// not know costs one `ok:false` answer, in plain and race mode alike,
/// and the connection goes on serving analyses.
#[test]
fn unknown_engine_costs_one_request() {
    let dir = scratch("engine");
    let socket = dir.join("qavad.sock");
    let handle = boot(DaemonConfig::new(&socket));
    let mut client = Client::connect(&socket).expect("client");
    let quick = &suite_rows()[0];
    let spec = |engines: &[&str], race: bool| AnalyzeSpec {
        id: 9,
        source: quick.source,
        params: &quick.params,
        engines: engines.iter().map(ToString::to_string).collect(),
        race,
        deadline_ms: None,
        invariant_iters: SUITE_INVARIANT_ITERS,
        lp_backend: None,
    };

    let unknown: &[&str] = &["no-such-engine"];
    let mixed: &[&str] = &["hoeffding-linear", "no-such-engine"];
    for (engines, race) in [(unknown, false), (mixed, false), (unknown, true), (mixed, true)] {
        let err = client.analyze(&spec(engines, race)).err().expect("unknown engine");
        assert!(err.contains("unknown engine `no-such-engine`"), "{err}");
    }
    let known: &[&str] = &["hoeffding-linear", "explinsyn"];
    let response = client.analyze(&spec(known, false)).expect("connection still serves");
    assert_eq!(response.runs.len(), 2);
    assert!(response.runs.iter().all(|r| r.bound.is_ok()), "{:?}", response.runs);
    drop(client);
    shutdown(&socket, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
