//! The `ivme` binary: local interactive shell, or remote client.
//!
//! ```text
//! ivme                    run the REPL against an in-process engine
//! ivme client <addr>      connect to an ivme-server and run the same
//!                         REPL over TCP (stdin lines -> command lines,
//!                         framed responses -> stdout)
//! ```
//!
//! In client mode errors are printed as `error: <msg>` on stdout, exactly
//! like the local REPL prints engine errors — scripts drive both the same
//! way (`ivme client 127.0.0.1:7143 < script.txt`).

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

use ivme_cli::proto;
use ivme_cli::Shell;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => run_local(),
        Some("client") => {
            let Some(addr) = args.get(1) else {
                eprintln!("usage: ivme client <host:port>");
                std::process::exit(2);
            };
            if let Err(e) = run_client(addr) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Some("--help" | "-h") => println!("usage: ivme [client <host:port>]"),
        Some(other) => {
            eprintln!("unknown argument `{other}` (usage: ivme [client <host:port>])");
            std::process::exit(2);
        }
    }
}

fn run_local() {
    let mut shell = Shell::new();
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    println!("ivme — IVM^ε engine shell (type `help`)");
    print!("> ");
    let _ = stdout.flush();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        match shell.execute(&line) {
            Ok(Some(out)) => print!("{out}"),
            Ok(None) => {
                print!("{}", proto::BYE);
                break;
            }
            Err(e) => println!("error: {e}"),
        }
        print!("> ");
        let _ = stdout.flush();
    }
}

fn run_client(addr: &str) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    eprintln!("connected to ivme-server at {addr}");
    for line in stdin.lock().lines() {
        let line = line?;
        writeln!(writer, "{line}")?;
        writer.flush()?;
        match proto::read_response(&mut reader)? {
            None => break, // server closed the connection
            Some(Ok(payload)) => print!("{payload}"),
            Some(Err(msg)) => println!("error: {msg}"),
        }
        stdout.flush()?;
        if matches!(proto::parse_command(&line), Ok(Some(proto::Command::Quit))) {
            break;
        }
    }
    Ok(())
}
