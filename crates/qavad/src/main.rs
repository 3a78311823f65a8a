//! The `qavad` binary: parse flags, bind the daemon, serve until a
//! `shutdown` request.

use qava_lp::BackendChoice;
use qavad::server::{banner, Daemon, DaemonConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: qavad --socket PATH [options]

options:
  --socket PATH          Unix-domain socket to listen on (required)
  --cache-file PATH      persist the warm-start basis cache here; loaded
                         on startup (an unreadable file logs a warning
                         and starts cold), spilled after requests that
                         warmed it and on shutdown
  --cache-capacity N     LRU bound of the shared basis cache
                         (default 4096)
  --max-inflight N       concurrent analysis bound (default: the rayon
                         pool width)
  --lp-backend B         auto | sparse | dense | lu-ft: auto routes by
                         size and density to the other three (default
                         auto; requests may override with \"lp_backend\")

Clients speak newline-delimited JSON (see the qavad::protocol docs);
`qava --connect PATH` and `qava --suite --connect PATH` are the
first-party clients. Stop the daemon with a {\"cmd\":\"shutdown\"}
request.
";

fn parse_config(args: &[String]) -> Result<DaemonConfig, String> {
    let mut socket: Option<PathBuf> = None;
    let mut config = DaemonConfig::new("");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(it.next().ok_or("--socket needs a path")?.into()),
            "--cache-file" => {
                config.cache_file = Some(it.next().ok_or("--cache-file needs a path")?.into());
            }
            "--cache-capacity" => {
                let n = it.next().ok_or("--cache-capacity needs a count")?;
                config.cache_capacity =
                    n.parse().map_err(|_| format!("bad cache capacity `{n}`"))?;
            }
            "--max-inflight" => {
                let n = it.next().ok_or("--max-inflight needs a count")?;
                config.max_inflight =
                    n.parse().map_err(|_| format!("bad inflight bound `{n}`"))?;
            }
            "--lp-backend" => {
                config.backend = BackendChoice::parse_flag(it.next().map(String::as_str))?;
            }
            "--help" | "-h" => return Err(String::new()),
            _ => return Err(format!("unknown flag `{a}`")),
        }
    }
    config.socket = socket.ok_or("--socket is required")?;
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_config(&args) {
        Ok(config) => config,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };
    let daemon = match Daemon::bind(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("qavad: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", banner(&daemon));
    match daemon.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qavad: {e}");
            ExitCode::from(1)
        }
    }
}
