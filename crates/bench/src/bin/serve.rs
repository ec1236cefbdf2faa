//! `hira serve` — a long-running sweep service over the content-addressed
//! sweep cache: line-delimited JSON requests in, streamed JSON events out.
//! Repeated or overlapping sweeps replay cached points in milliseconds;
//! only never-seen configurations simulate.
//!
//! Transports:
//!
//! * default — requests on stdin, events on stdout (one JSON object per
//!   line each way). End of input is a graceful shutdown.
//! * `--socket=<path>` — listen on a Unix socket instead; clients connect
//!   one at a time (requests and events on the same stream). A `shutdown`
//!   op stops the whole server, end of one client's input just ends that
//!   connection.
//!
//! Flags: the shared cache axis (`--cache=<dir>` persists results across
//! server runs; without it a scratch store lives for this session only),
//! the shared observability axis (`--trace[=<path>]` writes a span per
//! sweep and per accepted connection plus an event per protocol error;
//! `--log-level=` filters it; `--metrics`/`--progress` are served over
//! the wire instead — see the `metrics` op and `progress` events), plus
//! the `HIRA_*` scale/thread knobs. See [`hira_bench::serve`] for the
//! full wire protocol.
//!
//! Example session (stdio):
//!
//! ```text
//! > {"op":"sweep","id":"a","policies":["baseline","hira4"],"insts":2000}
//! < {"event":"accepted","id":"a","sweep":"serve","points":2,...}
//! < {"event":"record","id":"a","cached":false,...}
//! < {"event":"done","id":"a",...}
//! > {"op":"shutdown"}
//! < {"event":"bye"}
//! ```

use hira_bench::serve::Server;
use hira_bench::{CacheSpec, ObsSpec, Scale};
use hira_engine::Executor;
use hira_obs::{field, Level, TraceSink};
use std::io::{BufRead, BufReader, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let socket = args
        .iter()
        .find_map(|a| a.strip_prefix("--socket=").map(std::path::PathBuf::from));
    let cache = CacheSpec::parse(&args).unwrap_or_else(|e| panic!("{e}"));
    let sink = ObsSpec::parse(&args)
        .unwrap_or_else(|e| panic!("{e}"))
        .sink("serve");
    let mut server = Server::new(Executor::from_env(), Scale::from_env(), &cache);
    if let Some(s) = &sink {
        server = server.with_trace(s.clone());
    }
    eprintln!(
        "serve: ready ({})",
        cache
            .dir()
            .map_or("scratch store, this session only".to_string(), |d| {
                format!("cache at {}", d.display())
            })
    );

    match socket {
        None => serve_stdio(&mut server, sink.as_ref()),
        Some(path) => serve_socket(&mut server, &path, sink.as_ref()),
    }
    if let Some(s) = &sink {
        s.flush();
    }
}

/// Requests on stdin, events on stdout; EOF is a graceful shutdown.
fn serve_stdio(server: &mut Server, sink: Option<&TraceSink>) {
    let _span = sink.map(|s| s.span(Level::Info, "connection", vec![field("transport", "stdio")]));
    let stdout = std::io::stdout();
    let emit = move |line: &str| {
        let mut out = stdout.lock();
        // A broken pipe here means the client is gone; the read loop will
        // see EOF next and wind down.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if !server.handle(&line, &emit) {
            return;
        }
    }
    emit("{\"event\":\"bye\"}");
}

/// Accepts one client at a time on a Unix socket; a `shutdown` op stops
/// the server, a disconnect just ends that client's session.
fn serve_socket(server: &mut Server, path: &std::path::Path, sink: Option<&TraceSink>) {
    // A previous run's socket file would make bind fail with AddrInUse.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .unwrap_or_else(|e| panic!("serve: cannot bind {}: {e}", path.display()));
    eprintln!("serve: listening on {}", path.display());
    let mut connections = 0u64;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        connections += 1;
        let _span = sink.map(|s| {
            s.span(
                Level::Info,
                "connection",
                vec![
                    field("transport", "socket"),
                    field("connection", connections),
                ],
            )
        });
        let write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let write_half = std::sync::Mutex::new(write_half);
        let emit = |line: &str| {
            let mut out = write_half.lock().unwrap();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        };
        let mut alive = true;
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            alive = server.handle(&line, &emit);
            if !alive {
                break;
            }
        }
        if !alive {
            break;
        }
        emit("{\"event\":\"bye\"}");
    }
    let _ = std::fs::remove_file(path);
}
