//! Measurement helpers shared by every workload: the one `Summary` of a
//! timing sample, the fastest-repeat estimator, the one JSON emitter, the
//! `VmHWM` reader, the open-loop pacer and the keep-awake spinners.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Median and tail of one timing sample, in the sample's unit.
///
/// The tail is the p99 when at least ten samples lie beyond it (a
/// thousand samples), else the p90 under the same rule, else the median —
/// a p99 of 300 samples is three observations and says nothing. `tail_q`
/// says which it is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub max: f64,
}

/// Nearest-rank percentile of a sorted slice.
fn rank(sorted: &[u64], q: f64) -> f64 {
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i] as f64
}

/// Summarizes `samples` (sorted in place). An empty sample is all zeros.
pub fn summarize(samples: &mut [u64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            count: 0,
            p50: 0.0,
            tail: 0.0,
            tail_q: 0.5,
            max: 0.0,
        };
    }
    samples.sort_unstable();
    let n = samples.len() as f64;
    let tail_q = [0.99, 0.9]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0)
        .unwrap_or(0.5);
    Summary {
        count: samples.len(),
        p50: rank(samples, 0.5),
        tail: rank(samples, tail_q),
        tail_q,
        max: *samples.last().expect("non-empty") as f64,
    }
}

/// One latency sample: when the operation was due, in nanoseconds since
/// the window began, how long it took from then, and — for a commit —
/// which of the update stream's distinct steps it was (`key`; the stream
/// is a cycle, so every step comes round again with the database in the
/// same state). Reads are not keyed (0).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    pub at_ns: u64,
    pub ns: u64,
    pub key: u32,
}

/// Median of a set of durations.
pub fn p50(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    rank(ns, 0.5)
}

/// The fastest repeat of every distinct operation: `samples` grouped by
/// `key`, the shortest duration of each group, in key order. What a run
/// reports about commits is computed from these.
///
/// The host's other tenants only ever add time, for seconds at a stretch
/// (a fixed arithmetic loop on this box runs at three speeds 25 % apart),
/// and a window repeats every step of the stream ten to hundreds of times,
/// a cycle apart: the fastest repeat is that step on an undisturbed box.
/// It needs one quiet moment as long as the step itself per step, where
/// the best one-second slice of the window (tried, refused by the driver
/// as too noisy) needs a whole quiet second, and a whole-window median
/// needs a quiet window. A regression slows every repeat, the fastest
/// included; work the program does only on some visits of a step (a
/// rebalance whose timing drifts) is in the whole-window tail, not here.
pub fn fastest_by_key(samples: &[Timed]) -> Vec<u64> {
    let mut fastest = std::collections::BTreeMap::new();
    for s in samples {
        fastest
            .entry(s.key)
            .and_modify(|ns: &mut u64| *ns = (*ns).min(s.ns))
            .or_insert(s.ns);
    }
    fastest.into_values().collect()
}

/// Median of a small set of measurements (set-up repeats).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; `None` where
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line the driver reads: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A float as JSON: every digit Rust's shortest round-trip rendering
/// gives. Non-finite values have no JSON form; they render as `null` so a
/// broken measurement fails the consumer's parse instead of passing as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for embedding in JSON (span names, workload names).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The open-loop pacer: requests arrive as a Poisson process — each gap
/// is drawn from the exponential distribution with the rate's mean, from
/// the run's seed — and a request's due time never depends on what
/// happened to the requests before it.
///
/// Poisson, not evenly spaced: evenly spaced reads beat against the
/// writer's commit period (both are about 500 µs), so whether a read lands
/// just before or just after a publish — which decides whether it pays for
/// the new snapshot's first merge — is the same for seconds at a time and
/// then flips, and the median read flips with it. Independent arrivals
/// have no phase to lock.
///
/// The pacer waits by sleeping, never by spinning: a pacer spinning at
/// normal priority competes with the server's threads for whichever core
/// it sits on, and commit latency flipped between two levels 40 % apart
/// with its placement.
pub struct Pacer {
    start: Instant,
    mean_gap: Duration,
    /// Offset of the last request handed out.
    at: Duration,
    rng: StdRng,
}

impl Pacer {
    /// A pacer for the calling thread. A sleep normally ends up to 50 µs
    /// late by the kernel's timer slack alone (as long as a read takes);
    /// the thread's slack is set to the minimum.
    pub fn new(start: Instant, per_second: u32, seed: u64) -> Pacer {
        minimize_timer_slack();
        Pacer {
            start,
            mean_gap: Duration::from_secs(1) / per_second,
            at: Duration::ZERO,
            rng: StdRng::seed_from_u64(seed ^ 0x0be1_100b_5eed_9ace),
        }
    }

    /// The next request's due time.
    pub fn next_due(&mut self) -> Instant {
        let u: f64 = self.rng.gen();
        self.at += self.mean_gap.mul_f64(-(1.0 - u).ln());
        self.start + self.at
    }

    /// Sleeps until the next request is due and returns its due time;
    /// returns at once when that time has already passed.
    pub fn wait(&mut self) -> Instant {
        let due = self.next_due();
        if let Some(nap) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(nap);
        }
        due
    }
}

/// Keeps every core awake while it lives: one spinning thread per core at
/// `SCHED_IDLE`, the priority below every other, so any thread with work
/// preempts a spinner at once and the scheduler still places work as if the
/// core were idle — but the core never halts.
///
/// Waking a halted vCPU costs 30 to 150 µs on this VM, depending on the
/// host's load that minute, and a served read is three or four wake-ups:
/// with cores free to halt, `get_p50_us` on a quiescent server read 57 µs
/// one hour and 150 µs the next, none of it the program's. This is
/// `idle=poll` from user space. It is not used on `engine-direct`, whose
/// one thread never sleeps (a spinner on the sibling core would only slow
/// it). Where the policy cannot be set the spinners do not start, and the
/// run says so.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts the spinners; `None` when `SCHED_IDLE` is not available.
    pub fn start() -> Option<KeepAwake> {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let (ready, started) = std::sync::mpsc::channel();
        let spinners: Vec<_> = (0..cores)
            .map(|_| {
                let (stop, ready) = (Arc::clone(&stop), ready.clone());
                std::thread::spawn(move || {
                    let idle = enter_sched_idle();
                    let _ = ready.send(idle);
                    // `Relaxed`: the flag publishes no other data.
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let all_idle = (0..cores).all(|_| started.recv() == Ok(true));
        let awake = KeepAwake { stop, spinners };
        all_idle.then_some(awake) // dropped, and so stopped, otherwise
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`; `false` where that fails or
/// does not exist.
fn enter_sched_idle() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let priority = 0i32; // `struct sched_param` is one `int`
                             // SAFETY: `param` points to a live `int`-sized `sched_param` the
                             // call only reads; pid 0 is the calling thread, and lowering its
                             // own priority needs no privilege and touches no memory.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// Sets the calling thread's timer slack to one nanosecond (Linux only;
/// elsewhere, and on failure, sleeps keep the default slack and the
/// generator's lateness, which is reported, is that much larger).
fn minimize_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: `prctl(PR_SET_TIMERSLACK, ns)` takes integer arguments
        // only, touches no memory of this process, and affects nothing but
        // how precisely the calling thread's own sleeps end.
        unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_a_p99_only_with_ten_samples_beyond_it() {
        let mut few: Vec<u64> = (1..=50).collect();
        let s = summarize(&mut few);
        assert_eq!((s.count, s.p50, s.tail_q), (50, 25.0, 0.5));
        assert_eq!(s.tail, s.p50, "no tail with under 100 samples");

        let mut mid: Vec<u64> = (1..=500).rev().collect();
        let s = summarize(&mut mid);
        assert_eq!((s.p50, s.tail_q, s.tail), (250.0, 0.9, 450.0));

        let mut many: Vec<u64> = (1..=1000).collect();
        let s = summarize(&mut many);
        assert_eq!((s.tail_q, s.tail, s.max), (0.99, 990.0, 1000.0));

        assert_eq!(summarize(&mut []).count, 0);
    }

    #[test]
    fn the_fastest_repeat_of_each_key_is_kept_in_key_order() {
        let t = |key, ns| Timed { at_ns: 0, ns, key };
        let samples = [t(2, 30), t(0, 12), t(2, 25), t(1, 7), t(0, 10), t(2, 40)];
        assert_eq!(fastest_by_key(&samples), vec![10, 7, 25]);
        assert_eq!(p50(&mut fastest_by_key(&samples)), 10.0);
        assert!(fastest_by_key(&[]).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.8127,
                },
                Metric {
                    name: "reads_per_s",
                    unit: "1/s",
                    value: 1e21,
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"reads_per_s\": {\"value\": 1000000000000000000000, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn keep_awake_spinners_start_and_stop() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        match KeepAwake::start() {
            Some(awake) => {
                assert_eq!(awake.spinners.len(), cores);
                assert!(awake.spinners.iter().all(|s| !s.is_finished()));
                drop(awake); // joins: returns only once every spinner ended
            }
            None => assert!(
                !enter_sched_idle(),
                "SCHED_IDLE works but the spinners gave up"
            ),
        }
    }

    #[test]
    fn pacer_draws_exponential_gaps_from_the_seed_and_never_waits_for_the_past() {
        let start = Instant::now();
        let mut a = Pacer::new(start, 2000, 7);
        let mut b = Pacer::new(start, 2000, 7);
        let mut c = Pacer::new(start, 2000, 8);
        let dues: Vec<Instant> = (0..20_000).map(|_| a.next_due()).collect();
        assert!(
            (0..20_000).all(|k| b.next_due() == dues[k]),
            "same seed, same schedule"
        );
        assert!(
            (0..100).any(|k| c.next_due() != dues[k]),
            "other seed, other schedule"
        );
        assert!(dues.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap 500 µs; an exponential's median is ln 2 of its mean.
        let mean = (dues[19_999] - start).as_secs_f64() / 20_000.0;
        assert!((mean - 500e-6).abs() < 15e-6, "mean gap {mean}");
        let mut gaps: Vec<Duration> = dues.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort();
        let median = gaps[gaps.len() / 2].as_secs_f64();
        assert!(
            (median - 500e-6 * std::f64::consts::LN_2).abs() < 15e-6,
            "median gap {median}"
        );

        // A stall does not shift the schedule: overdue requests come back
        // at once, each with its own (past) due time.
        let mut p = Pacer::new(Instant::now(), 2000, 1);
        std::thread::sleep(Duration::from_millis(5));
        let t0 = Instant::now();
        let (d1, d2) = (p.wait(), p.wait());
        assert!(d1 < d2 && d2 < t0);
        // And a request in the future is waited for.
        let mut p = Pacer::new(Instant::now() + Duration::from_millis(2), 2000, 1);
        let due = p.wait();
        assert!(Instant::now() >= due);
    }
}
