//! `qava FILE` prints a §6 lower bound only for a program it has proved
//! almost surely terminating, whether the lineup runs in this process or
//! on a `qavad` daemon (`--connect`).

use qavad::{Client, Daemon, DaemonConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// Never terminates, so its violation probability is 0; the lower-bound
/// engine alone would still certify a lower bound of 1 for it.
const NONTERMINATING: &str = "x := 1; while x >= 1 invariant x >= 1 { \
    if prob(0.5) { x := x + 1; } else { x := x + 2; } } assert false;";

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qava-cli-test-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn qava(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qava")).args(args).output().expect("run qava")
}

/// Boots an in-process daemon and waits until it answers.
fn boot(socket: &Path) -> std::thread::JoinHandle<()> {
    let daemon = Daemon::bind(DaemonConfig::new(socket)).expect("bind daemon");
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while Client::connect(socket).and_then(|mut c| c.hello().map(drop)).is_err() {
        assert!(Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle
}

#[test]
fn no_lower_bound_without_almost_sure_termination_on_either_path() {
    let dir = scratch("gate");
    let program = dir.join("nt.qava");
    std::fs::write(&program, NONTERMINATING).expect("write program");
    let program = program.to_str().expect("utf-8 path");
    let socket = dir.join("qavad.sock");
    let handle = boot(&socket);
    let sock = socket.to_str().expect("utf-8 path");

    for args in [
        vec![program, "--engines", "explowsyn"],
        vec![program, "--engines", "explowsyn", "--connect", sock],
        vec![program, "--engines", "explowsyn", "--race", "--connect", sock],
    ] {
        let out = qava(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stdout}");
        assert!(stdout.contains("lower bounds: skipped"), "{args:?}: {stdout}");
        assert!(!stdout.contains("explowsyn"), "{args:?} ran the lower engine: {stdout}");
    }

    Client::connect(&socket).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}
