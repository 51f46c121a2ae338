//! The `nvpim-serve` binary: run the simulation service from the shell.
//!
//! ```text
//! nvpim-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!             [--timeout-ms MS] [--cache-entries N] [--cache-dir DIR]
//!             [--cache-max-bytes N] [--cache-max-age S]
//! ```
//!
//! Prints one `listening on <addr>` line once bound (scripts wait for it),
//! then serves until `POST /shutdown` drains the queue.

use std::path::PathBuf;
use std::process::ExitCode;

use nvpim_serve::{Server, ServerConfig};

fn main() -> ExitCode {
    let mut config = ServerConfig { addr: "127.0.0.1:7878".into(), ..ServerConfig::default() };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            "--addr" => match args.next() {
                Some(v) => config.addr = v,
                None => return missing(&flag),
            },
            "--workers" => match parse_num(args.next(), &flag) {
                Ok(v) => config.workers = v,
                Err(code) => return code,
            },
            "--queue-depth" => match parse_num(args.next(), &flag) {
                Ok(v) if v > 0 => config.queue_depth = v,
                Ok(_) => return invalid(&flag, "must be positive"),
                Err(code) => return code,
            },
            "--timeout-ms" => match parse_num(args.next(), &flag) {
                Ok(v) => config.timeout_ms = v as u64,
                Err(code) => return code,
            },
            "--cache-entries" => match parse_num(args.next(), &flag) {
                Ok(v) if v > 0 => config.cache_entries = v,
                Ok(_) => return invalid(&flag, "must be positive"),
                Err(code) => return code,
            },
            "--cache-dir" => match args.next() {
                Some(v) => config.cache_dir = Some(PathBuf::from(v)),
                None => return missing(&flag),
            },
            "--cache-max-bytes" => match parse_num(args.next(), &flag) {
                Ok(v) => config.cache_max_bytes = v as u64,
                Err(code) => return code,
            },
            "--cache-max-age" => match parse_num(args.next(), &flag) {
                Ok(v) => config.cache_max_age_s = v as u64,
                Err(code) => return code,
            },
            other => {
                eprintln!("nvpim-serve: unknown flag {other}");
                print_help();
                return ExitCode::FAILURE;
            }
        }
    }

    let handle = match Server::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("nvpim-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());
    handle.join();
    println!("drained, exiting");
    ExitCode::SUCCESS
}

fn parse_num(value: Option<String>, flag: &str) -> Result<usize, ExitCode> {
    match value {
        Some(v) => v.parse().map_err(|_| {
            eprintln!("nvpim-serve: {flag} expects a non-negative integer, got {v:?}");
            ExitCode::FAILURE
        }),
        None => {
            eprintln!("nvpim-serve: {flag} requires a value");
            Err(ExitCode::FAILURE)
        }
    }
}

fn missing(flag: &str) -> ExitCode {
    eprintln!("nvpim-serve: {flag} requires a value");
    ExitCode::FAILURE
}

fn invalid(flag: &str, why: &str) -> ExitCode {
    eprintln!("nvpim-serve: {flag} {why}");
    ExitCode::FAILURE
}

fn print_help() {
    println!(
        "nvpim-serve — HTTP service for nvpim endurance simulations

USAGE:
    nvpim-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT     bind address (default 127.0.0.1:7878; port 0 = ephemeral)
    --workers N          worker threads, 0 = auto (default 0)
    --queue-depth N      pending-connection bound before 429 (default 64)
    --timeout-ms MS      per-request budget for /simulate, 0 = unlimited (default 30000)
    --cache-entries N    in-memory result-cache capacity (default 256)
    --cache-dir DIR      enable on-disk cache spill, manifests, and event log
    --cache-max-bytes N  spill-directory byte budget, 0 = unlimited (default 0)
    --cache-max-age S    spill-entry age limit in seconds, 0 = unlimited (default 0)
    -h, --help           this help

ENDPOINTS:
    GET  /           service index          GET  /health    liveness + drain state
    GET  /metrics    counters + cache stats POST /simulate  one simulation (JSON body)
    POST /batch      NDJSON-streamed sweep  POST /shutdown  graceful drain"
    );
}
