//! Closed-loop multi-client driver for the `ivme-server` serving layer.
//!
//! Spawns `N` reader clients and `M` writer clients over loopback TCP,
//! drives them closed-loop (every client waits for its response before
//! issuing the next request — writers at *script* granularity: a whole
//! pipelined batch script goes out in one burst, then all its acks are
//! read), and reports read-latency percentiles plus write throughput.
//! This is the measurement harness behind `fig_recovery`,
//! `fig_replication` and the loopback concurrency test; it knows nothing about the engine — it
//! speaks only the wire protocol ([`ivme_cli::proto`]).

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ivme_cli::proto;
use ivme_data::Tuple;

/// One pipelined request burst: `text` holds complete command lines, the
/// driver writes it in one syscall and then reads exactly `requests`
/// framed responses. `updates` is how many engine updates the script
/// carries (for throughput accounting).
#[derive(Clone, Debug)]
pub struct Script {
    pub text: String,
    pub requests: usize,
    pub updates: usize,
}

impl Script {
    /// A script of arbitrary command lines carrying no updates.
    pub fn lines(lines: &[&str]) -> Script {
        Script {
            text: lines.iter().map(|l| format!("{l}\n")).collect(),
            requests: lines.len(),
            updates: 0,
        }
    }
}

/// Renders one atomic insert batch as a pipelined script:
/// `.batch begin`, one `insert` per tuple, `.batch commit`.
pub fn insert_batch_script(relation: &str, tuples: &[Tuple]) -> Script {
    update_batch_script(relation, tuples, true)
}

/// Renders one atomic delete batch (the retraction of
/// [`insert_batch_script`]).
pub fn delete_batch_script(relation: &str, tuples: &[Tuple]) -> Script {
    update_batch_script(relation, tuples, false)
}

fn update_batch_script(relation: &str, tuples: &[Tuple], insert: bool) -> Script {
    use std::fmt::Write as _;
    let verb = if insert { "insert" } else { "delete" };
    let mut text = String::with_capacity(tuples.len() * 24 + 32);
    text.push_str(".batch begin\n");
    for t in tuples {
        let _ = write!(text, "{verb} {relation} ");
        // Canonical tuple rendering, shared with the WAL's serializers.
        proto::push_tuple(&mut text, t);
        text.push('\n');
    }
    text.push_str(".batch commit\n");
    Script {
        text,
        requests: tuples.len() + 2,
        updates: tuples.len(),
    }
}

/// What one closed-loop run measured.
#[derive(Clone, Debug, Default)]
pub struct DriveReport {
    /// Per-read wall latencies (request write → response fully read),
    /// all readers merged, sorted ascending. Warmup reads are excluded.
    pub read_latencies_ns: Vec<u64>,
    /// Reads issued and discarded during the per-client warmup window
    /// (connection setup, first-touch caches, scheduler migration — one
    /// early stall must not masquerade as steady-state tail).
    pub warmup_reads: usize,
    /// Wall time of the read phase: max over readers of their loop time.
    pub read_secs: f64,
    /// Engine updates carried by successfully acked writer scripts.
    pub write_updates: usize,
    /// Writer scripts whose commit was rejected (`err` response).
    pub write_errors: usize,
    /// Wall time of the write phase: max over writers of their loop time.
    pub write_secs: f64,
}

impl DriveReport {
    /// The `q`-quantile read latency (q in [0, 1]; 0.5 = median).
    pub fn read_quantile(&self, q: f64) -> Duration {
        if self.read_latencies_ns.is_empty() {
            return Duration::ZERO;
        }
        let last = self.read_latencies_ns.len() - 1;
        let i = ((last as f64) * q).round() as usize;
        Duration::from_nanos(self.read_latencies_ns[i.min(last)])
    }

    /// Worst observed read latency.
    pub fn read_max(&self) -> Duration {
        Duration::from_nanos(*self.read_latencies_ns.last().unwrap_or(&0))
    }

    /// Closed-loop read throughput over all readers (ops/s).
    pub fn reads_per_sec(&self) -> f64 {
        self.read_latencies_ns.len() as f64 / self.read_secs.max(1e-9)
    }

    /// Acked write throughput in engine updates/s.
    pub fn updates_per_sec(&self) -> f64 {
        self.write_updates as f64 / self.write_secs.max(1e-9)
    }
}

/// One client connection with the blocking request/response helpers the
/// driver threads use.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one command line and reads its framed response.
    pub fn request(&mut self, line: &str) -> std::io::Result<proto::Response> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        proto::read_response(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            )
        })
    }

    /// Sends one command line, panicking on an `err` response — setup
    /// helper for harnesses.
    pub fn expect_ok(&mut self, line: &str) -> String {
        match self.request(line) {
            Ok(Ok(s)) => s,
            Ok(Err(e)) => panic!("`{line}` failed: {e}"),
            Err(e) => panic!("`{line}` I/O error: {e}"),
        }
    }

    /// Writes a whole pipelined script in one burst, then reads all of
    /// its responses. Returns the number of `err` responses.
    pub fn run_script(&mut self, script: &Script) -> std::io::Result<usize> {
        self.writer.write_all(script.text.as_bytes())?;
        self.writer.flush()?;
        let mut errors = 0;
        for _ in 0..script.requests {
            match proto::read_response(&mut self.reader)? {
                Some(Ok(_)) => {}
                Some(Err(_)) => errors += 1,
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed connection mid-script",
                    ))
                }
            }
        }
        Ok(errors)
    }
}

/// Drives `readers` reader clients (each issuing `read_cmd`
/// `warmup_per_client` untimed times and then `reads_per_client` timed
/// times, closed loop) concurrently with one writer client per entry of
/// `writer_scripts` (each running its scripts in order, closed loop at
/// script granularity). Returns the merged report.
///
/// Warmup reads are real requests — they exercise the full wire path —
/// but their latencies are discarded: connection setup and first-touch
/// effects land in the warmup window instead of inflating the recorded
/// tail. All clients connect before any traffic starts, so the phases
/// overlap for the whole run as long as the workloads are sized
/// comparably.
pub fn drive(
    addr: SocketAddr,
    readers: usize,
    read_cmd: &str,
    warmup_per_client: usize,
    reads_per_client: usize,
    writer_scripts: &[Vec<Script>],
) -> DriveReport {
    drive_multi(
        &[addr],
        readers,
        read_cmd,
        warmup_per_client,
        reads_per_client,
        writer_scripts,
    )
}

/// [`drive`] across a replicated deployment: reader clients are assigned
/// round-robin over `addrs` (so aggregate read throughput scales with the
/// fleet), while every writer goes to `addrs[0]` — the primary, the only
/// member that accepts writes. With a single address this is exactly
/// [`drive`].
pub fn drive_multi(
    addrs: &[SocketAddr],
    readers: usize,
    read_cmd: &str,
    warmup_per_client: usize,
    reads_per_client: usize,
    writer_scripts: &[Vec<Script>],
) -> DriveReport {
    assert!(!addrs.is_empty(), "drive_multi needs at least one address");
    let mut reader_conns: Vec<Client> = (0..readers)
        .map(|i| Client::connect(addrs[i % addrs.len()]).expect("reader connect"))
        .collect();
    let mut writer_conns: Vec<Client> = writer_scripts
        .iter()
        .map(|_| Client::connect(addrs[0]).expect("writer connect"))
        .collect();
    let mut report = DriveReport::default();
    std::thread::scope(|scope| {
        let read_handles: Vec<_> = reader_conns
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    for _ in 0..warmup_per_client {
                        let resp = client.request(read_cmd).expect("warmup read");
                        assert!(resp.is_ok(), "warmup `{read_cmd}` failed: {resp:?}");
                    }
                    let mut lat = Vec::with_capacity(reads_per_client);
                    let t0 = Instant::now();
                    for _ in 0..reads_per_client {
                        let r0 = Instant::now();
                        let resp = client.request(read_cmd).expect("read request");
                        lat.push(r0.elapsed().as_nanos() as u64);
                        assert!(resp.is_ok(), "read `{read_cmd}` failed: {resp:?}");
                    }
                    (lat, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        let write_handles: Vec<_> = writer_conns
            .iter_mut()
            .zip(writer_scripts)
            .map(|(client, scripts)| {
                scope.spawn(move || {
                    let mut updates = 0usize;
                    let mut errors = 0usize;
                    let t0 = Instant::now();
                    for s in scripts {
                        let e = client.run_script(s).expect("writer script");
                        if e == 0 {
                            updates += s.updates;
                        }
                        errors += e;
                    }
                    (updates, errors, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        for h in read_handles {
            let (lat, secs) = h.join().expect("reader thread");
            report.read_latencies_ns.extend(lat);
            report.read_secs = report.read_secs.max(secs);
            report.warmup_reads += warmup_per_client;
        }
        for h in write_handles {
            let (updates, errors, secs) = h.join().expect("writer thread");
            report.write_updates += updates;
            report.write_errors += errors;
            report.write_secs = report.write_secs.max(secs);
        }
    });
    report.read_latencies_ns.sort_unstable();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_render_the_shared_grammar() {
        let s = insert_batch_script("S", &[Tuple::ints(&[7]), Tuple::ints(&[8, 9])]);
        assert_eq!(
            s.text,
            ".batch begin\ninsert S 7\ninsert S 8,9\n.batch commit\n"
        );
        assert_eq!(s.requests, 4);
        assert_eq!(s.updates, 2);
        // Every line parses as a command of the shared grammar.
        for line in s.text.lines() {
            assert!(
                ivme_cli::proto::parse_command(line).unwrap().is_some(),
                "{line}"
            );
        }
        let d = delete_batch_script("S", &[Tuple::ints(&[7])]);
        assert!(d.text.contains("delete S 7\n"), "{}", d.text);
        let l = Script::lines(&["count", "page 0 5"]);
        assert_eq!(l.requests, 2);
        assert_eq!(l.updates, 0);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut r = DriveReport {
            read_latencies_ns: (1..=100).collect(),
            read_secs: 1.0,
            ..DriveReport::default()
        };
        r.read_latencies_ns.sort_unstable();
        assert_eq!(r.read_quantile(0.0), Duration::from_nanos(1));
        assert_eq!(r.read_quantile(0.5), Duration::from_nanos(51));
        assert_eq!(r.read_quantile(1.0), Duration::from_nanos(100));
        assert_eq!(r.read_max(), Duration::from_nanos(100));
        assert_eq!(r.reads_per_sec(), 100.0);
        let empty = DriveReport::default();
        assert_eq!(empty.read_quantile(0.99), Duration::ZERO);
    }
}
