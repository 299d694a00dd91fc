//! `ssp-serve` — the persistent adaptation-as-a-service daemon.
//!
//! Reads adapt+simulate requests (workload names, `tune <name>`
//! auto-tune requests, or raw fuzz-case specs, one per line; blank
//! lines and `#` comments skipped) and answers one JSON object per
//! line, in request order. Two transports:
//!
//! * **stdin** (default): the whole of stdin is one batch; responses go
//!   to stdout, then the daemon exits. A fuzz corpus file can be piped
//!   in verbatim.
//! * **unix socket** (`--socket PATH`): accepts connections in a loop;
//!   each length-prefixed request frame (one batch of request lines)
//!   yields one response frame. Stop the daemon with SIGINT/SIGTERM or
//!   by sending the single request line `shutdown` in a frame.
//!
//! Flags:
//!
//! * `--socket PATH` — serve over a unix socket instead of stdin;
//! * `--store DIR` — open (or create) a persistent store at `DIR`, so
//!   answers (and the candidates of `tune` requests) survive restarts;
//! * `--max-cycles N` — cap every simulation at `N` cycles (capped
//!   machine configs fingerprint differently, so capped and uncapped
//!   answers never mix in the caches);
//! * `--workers N` — override the worker pool size (default:
//!   `SSP_THREADS`, else all cores);
//! * `--tune-rounds N` — greedy-round cap for `tune` requests (default:
//!   the `ssp-tune` crate's cap; part of the tune cache key).
//!
//! On exit the daemon prints its `ssp-serve-report/2` statistics
//! document to stderr.

use ssp_bench::persist::Store;
use ssp_serve::{read_frame, write_frame, Server, ServerConfig};
use std::io::Read;
use std::os::unix::net::UnixListener;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut socket: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => match args.next() {
                Some(p) => socket = Some(p),
                None => return usage("--socket needs a path"),
            },
            "--store" => match args.next() {
                Some(p) => store_dir = Some(p),
                None => return usage("--store needs a directory"),
            },
            "--max-cycles" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => {
                    config.io.max_cycles = n;
                    config.ooo.max_cycles = n;
                    config.oracle.max_cycles = n;
                }
                _ => return usage("--max-cycles needs a positive integer"),
            },
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.workers = n,
                _ => return usage("--workers needs a positive integer"),
            },
            "--tune-rounds" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.tune_rounds = n,
                _ => return usage("--tune-rounds needs a positive integer"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let mut server = Server::new(config);
    if let Some(dir) = &store_dir {
        match Store::open(dir) {
            Ok(store) => server = server.with_store(store),
            Err(e) => {
                eprintln!("ssp-serve: cannot open store at {dir:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let code = match socket {
        None => serve_stdin(&server),
        Some(path) => serve_socket(&server, &path),
    };
    eprintln!("{}", server.report_json());
    code
}

fn usage(err: &str) -> ExitCode {
    eprintln!("ssp-serve: {err}");
    eprintln!(
        "usage: ssp_serve [--socket PATH] [--store DIR] [--max-cycles N] [--workers N] [--tune-rounds N] < requests"
    );
    ExitCode::FAILURE
}

/// Stdin transport: one batch, one exit.
fn serve_stdin(server: &Server) -> ExitCode {
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("ssp-serve: reading stdin: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", server.handle_batch(&input));
    ExitCode::SUCCESS
}

/// Socket transport: accept loop, one response frame per request frame.
fn serve_socket(server: &Server, path: &str) -> ExitCode {
    // A stale socket file from a previous daemon would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ssp-serve: cannot bind {path:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("ssp-serve: listening on {path:?}");
    for conn in listener.incoming() {
        let mut conn = match conn {
            Ok(c) => c,
            Err(e) => {
                eprintln!("ssp-serve: accept failed: {e}");
                continue;
            }
        };
        loop {
            let payload = match read_frame(&mut conn) {
                Ok(Some(p)) => p,
                Ok(None) => break, // client hung up cleanly
                Err(e) => {
                    eprintln!("ssp-serve: bad frame: {e}");
                    break;
                }
            };
            let input = String::from_utf8_lossy(&payload);
            if input.trim() == "shutdown" {
                let _ = write_frame(&mut conn, b"{\"kind\": \"shutdown\"}\n");
                let _ = std::fs::remove_file(path);
                return ExitCode::SUCCESS;
            }
            let response = server.handle_batch(&input);
            if let Err(e) = write_frame(&mut conn, response.as_bytes()) {
                eprintln!("ssp-serve: writing response: {e}");
                break;
            }
        }
    }
    ExitCode::SUCCESS
}
