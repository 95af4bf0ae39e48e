//! `dspatch-serve`: the resident campaign service.
//!
//! Usage:
//!
//! ```text
//! dspatch-serve --store DIR [--addr IP] [--port N] [--http-threads N] [--queue N]
//! ```
//!
//! Binds, prints `dspatch-serve listening on http://ADDR:PORT` to stdout
//! (scripts and tests scrape the ephemeral port from this line), and serves
//! until SIGTERM/SIGINT or `POST /admin/shutdown`, then drains gracefully —
//! accepted campaigns complete, sockets close, exit 0. Results live in
//! `DIR/results.jsonl` (content-addressed cells) and `DIR/campaigns.jsonl`
//! (completed campaigns, replayed on startup). Exit codes: 0 clean drain,
//! 2 usage error, otherwise the `HarnessError` class codes `dspatch-lab`
//! uses (4 I/O, 5 corrupt store, 6 store/code-version mismatch).

// Failures on serve paths carry typed context; panicking helpers are
// forbidden outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use dspatch_serve::{Server, ServerConfig};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: dspatch-serve --store DIR [--addr IP] [--port N] [--http-threads N] [--queue N]"
    );
    std::process::exit(2);
}

/// Usage-class failure: exit 2, like `dspatch-lab`.
fn fail(message: &str) -> ! {
    eprintln!("dspatch-serve: {message}");
    std::process::exit(2);
}

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGTERM and SIGINT through the libc `signal`
/// symbol every Unix target links anyway — no crate dependency for two
/// constants and one call.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` only touches an AtomicBool, which is
    // async-signal-safe; the handler address stays valid for the process
    // lifetime.
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let mut config = ServerConfig::default();
    let mut store_dir: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--store" => store_dir = Some(value("--store")),
            "--addr" => config.addr = value("--addr"),
            "--port" => {
                config.port = value("--port")
                    .parse()
                    .unwrap_or_else(|_| fail("--port needs an integer in 0..=65535"));
            }
            "--http-threads" => {
                config.http_threads = value("--http-threads")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| fail("--http-threads needs an integer >= 1"));
            }
            "--queue" => {
                config.queue_capacity = value("--queue")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| fail("--queue needs an integer >= 1"));
            }
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown flag '{other}'")),
        }
    }
    let Some(store_dir) = store_dir else {
        eprintln!("dspatch-serve: --store DIR is required");
        usage();
    };
    config.store_dir = std::path::PathBuf::from(store_dir);

    install_signal_handlers();

    let server = match Server::start(&config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("dspatch-serve: {error}");
            std::process::exit(error.class().exit_code());
        }
    };
    println!("dspatch-serve listening on http://{}", server.local_addr());
    drop(std::io::stdout().flush());

    // Serve until a signal arrives or a client posts /admin/shutdown.
    while !SHUTDOWN.load(Ordering::SeqCst) && !server.draining() {
        std::thread::sleep(Duration::from_millis(100));
    }

    eprintln!("dspatch-serve: draining (accepted campaigns will complete)");
    server.begin_drain();
    server.wait();
    eprintln!("dspatch-serve: drained cleanly");
}
