//! The `ivme-server` binary: serve the IVM^ε engine over TCP.
//!
//! ```text
//! ivme-server [--addr 127.0.0.1:7143] [--data-dir DIR] [--fsync none|group]
//!             [--snapshot-every N] [--repl-listen HOST:PORT]
//! ivme-server replica PRIMARY:PORT [--listen 127.0.0.1:7145]
//! ```
//!
//! Clients speak the shell's command grammar, one command per line (drive
//! it with `ivme client <addr>`, `nc`, or any line-oriented socket tool).
//! With `--data-dir` the server recovers its state on boot (snapshot +
//! WAL replay) and persists every committed write; SIGINT/SIGTERM (and
//! the `shutdown` command) trigger a clean shutdown — drain, fsync,
//! final snapshot — instead of dropping in-flight work.
//!
//! With `--repl-listen` (which requires `--data-dir` and `--fsync group`)
//! the server additionally streams committed, fsynced rounds to follower
//! processes started with the `replica` subcommand;
//! see `docs/PROTOCOL.md` for the wire format and the README's
//! quickstart for the two command lines of a replicated deployment.

use ivme_server::repl::{Replica, ReplicaConfig};
use ivme_server::{FsyncMode, Server, ServerConfig};

#[cfg(unix)]
mod sig {
    //! Minimal async-signal-safe SIGINT/SIGTERM handling with no
    //! dependency: the handler only stores to a static atomic; `main`
    //! polls the flag. (A self-pipe would also work but needs more libc
    //! surface than the one `signal` symbol.)
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn handle(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        #[allow(clippy::fn_to_numeric_cast)]
        let h = handle as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, h);
            signal(SIGTERM, h);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("replica") {
        args.next();
        run_replica(args);
        return;
    }
    let mut config = ServerConfig {
        addr: "127.0.0.1:7143".to_owned(),
        ..ServerConfig::default()
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--data-dir" => config.data_dir = Some(value("--data-dir").into()),
            "--fsync" => {
                config.fsync = FsyncMode::parse(&value("--fsync")).unwrap_or_else(|e| die(&e))
            }
            "--snapshot-every" => {
                config.snapshot_every = value("--snapshot-every").parse().unwrap_or_else(|_| {
                    die("--snapshot-every must be an integer (0 = only on shutdown)")
                })
            }
            "--repl-listen" => config.repl_listen = Some(value("--repl-listen")),
            "--help" | "-h" => {
                println!(
                    "usage: ivme-server [--addr HOST:PORT] [--data-dir DIR] [--fsync none|group]\n\
                     \x20                  [--snapshot-every N] [--repl-listen HOST:PORT]\n\
                     \x20      ivme-server replica PRIMARY:PORT [--listen HOST:PORT]\n\
                     \n\
                     --repl-listen requires --data-dir and --fsync group (the default)."
                );
                return;
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
    }
    let mut server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => die(&format!("cannot start server: {e}")),
    };
    println!("ivme-server listening on {}", server.addr());
    if let Some(addr) = server.repl_addr() {
        println!("ivme-server replication listener on {addr}");
    }
    // Poll for a signal or a client-issued `shutdown` instead of blocking
    // in `join()`: the signal handler may only touch the atomic, so the
    // orderly drain has to run here on the main thread.
    #[cfg(unix)]
    sig::install();
    loop {
        #[cfg(unix)]
        if sig::REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
            eprintln!("ivme-server: signal received, shutting down cleanly");
            match server.shutdown() {
                Ok(msg) => eprint!("ivme-server: {msg}"),
                Err(e) => eprintln!("ivme-server: shutdown error: {e}"),
            }
            return;
        }
        if server.is_shutdown() {
            // A client sent `shutdown` (or stop() ran): the writer has
            // already drained and persisted; nothing left to do here.
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// `ivme-server replica PRIMARY:PORT [--listen HOST:PORT]` — a read-only
/// follower that bootstraps from the primary's replication listener and
/// serves every read command at a bounded staleness epoch.
fn run_replica(mut args: std::iter::Peekable<impl Iterator<Item = String>>) {
    let Some(primary) = args.next() else {
        die("replica needs the primary's replication address (ivme-server replica HOST:PORT)")
    };
    if primary.starts_with('-') {
        die("replica needs the primary's replication address before any flags");
    }
    let mut config = ReplicaConfig {
        primary,
        listen: "127.0.0.1:7145".to_owned(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                config.listen = args.next().unwrap_or_else(|| die("--listen needs a value"));
            }
            "--help" | "-h" => {
                println!("usage: ivme-server replica PRIMARY:PORT [--listen HOST:PORT]");
                return;
            }
            other => die(&format!("unknown replica argument `{other}` (try --help)")),
        }
    }
    let replica = match Replica::start(config) {
        Ok(r) => r,
        Err(e) => die(&format!("cannot start replica: {e}")),
    };
    println!("ivme replica serving reads on {}", replica.addr());
    #[cfg(unix)]
    sig::install();
    loop {
        #[cfg(unix)]
        if sig::REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
            eprintln!("ivme replica: signal received, stopping");
            return; // Drop joins every thread.
        }
        if replica.is_shutdown() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
