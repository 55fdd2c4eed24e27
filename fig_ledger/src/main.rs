//! `fig_ledger` — the repository's benchmark.
//!
//! ```text
//! fig_ledger --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! fig_ledger [--seed N] [--seconds S] [--trace 0|1]             all five workloads, one child process each
//! fig_ledger --check-repeat [--seed N] [--seconds S]            the untraced set twice; fails on a gated
//!                                                                metric that moved by more than its bound
//! ```
//!
//! A single run prints every metric by name with its unit and, as its
//! last line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed`, `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. It exits
//! non-zero when the correctness gate fails. See README.md.

mod decl;
mod drive;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use decl::MetricDecl;
use inputs::Sizes;
use stats::Metric;
use workloads::{Outcome, RunSpec};

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check_repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        traced: false,
        check_repeat: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = decl::WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                args.workload = Some(w.name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                args.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The declared metrics of the run's mode, in declaration order, with the
/// values the run measured. A declared metric the run did not produce is
/// an error: the harness and the declarations must not drift apart.
fn declared_metrics(out: &Outcome, traced: bool) -> Result<Vec<Metric>, String> {
    decl::metrics(traced)
        .iter()
        .map(|d| {
            let value = *out
                .values
                .get(d.name)
                .ok_or_else(|| format!("run produced no value for declared metric {}", d.name))?;
            Ok(Metric {
                name: d.name,
                unit: d.unit,
                value,
            })
        })
        .collect()
}

fn run_one(args: &Args, workload: &'static str) -> Result<ExitCode, String> {
    let spec = RunSpec {
        workload,
        seed: args.seed,
        warmup: workloads::WARMUP,
        seconds: args.seconds,
        sizes: Sizes::full(),
    };
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "fig_ledger: workload {workload}, seed {}, window {} s, trace {}, {cores} core(s)",
        spec.seed, spec.seconds, args.traced as u8
    );
    if let Some(w) = decl::WORKLOADS.iter().find(|w| w.name == workload) {
        println!("  why: {}", w.why);
    }
    let out = if args.traced {
        layers::run_traced(&spec)?
    } else {
        workloads::run_end_to_end(&spec)?
    };
    for note in &out.notes {
        println!("  note: {note}");
    }
    let metrics = declared_metrics(&out, args.traced)?;
    for m in &metrics {
        println!("  {} = {} {}", m.name, stats::json_number(m.value), m.unit);
    }
    println!(
        "{}",
        stats::result_json(out.correct, out.attempted.max(1), out.failed, &metrics)
    );
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    values: Vec<(String, f64)>,
}

/// Reads the values back out of a result line this program printed.
fn parse_result_line(line: &str) -> Option<ChildResult> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut values = Vec::new();
    for entry in body.split("\"}") {
        let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.rsplit_once('"')?.1;
        let value = rest.split_once(',')?.0.parse().ok()?;
        values.push((name.to_owned(), value));
    }
    Some(ChildResult { correct, values })
}

/// Runs one workload in a child process (so `peak_rss_mb` is that
/// workload's alone), echoing its output.
fn run_child(args: &Args, workload: &str, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or("");
    for line in text.lines().filter(|l| *l != last) {
        println!("{line}");
    }
    let parsed = parse_result_line(last)
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    if !output.status.success() || !parsed.correct {
        return Err(format!(
            "{workload}: correctness gate failed (exit {})",
            output.status
        ));
    }
    Ok(parsed)
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    for w in &decl::WORKLOADS {
        run_child(args, w.name, args.traced)?;
        println!();
    }
    Ok(ExitCode::SUCCESS)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it got better).
fn worsening(d: &MetricDecl, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if d.higher_is_better {
        -change
    } else {
        change
    }
}

/// `--check-repeat`: the untraced set twice with the same seed. The same
/// code on the same inputs must agree with itself within each metric's
/// bound, in either direction.
fn check_repeat(args: &Args) -> Result<ExitCode, String> {
    let mut exceeded = 0;
    let mut table = vec![format!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    )];
    for w in &decl::WORKLOADS {
        let first = run_child(args, w.name, false)?;
        let second = run_child(args, w.name, false)?;
        for d in &decl::END_TO_END {
            let get = |r: &ChildResult| {
                r.values
                    .iter()
                    .find(|(n, _)| n == d.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{}: {} missing", w.name, d.name))
            };
            let (a, b) = (get(&first)?, get(&second)?);
            let diff = worsening(d, a, b).abs();
            let flag = if diff > d.bound { " EXCEEDED" } else { "" };
            exceeded += (diff > d.bound) as usize;
            table.push(format!(
                "{:<16} {:<22} {a:>14.4} {b:>14.4} {:>7.1}% {:>5.0}%{flag}",
                w.name,
                d.name,
                diff * 100.0,
                d.bound * 100.0
            ));
        }
    }
    println!("\ncheck-repeat, seed {}:", args.seed);
    for line in table {
        println!("{line}");
    }
    if exceeded > 0 {
        println!("{exceeded} metric(s) differ from themselves by more than their bound");
        return Ok(ExitCode::FAILURE);
    }
    println!("every gated metric repeats within its bound");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.workload {
        _ if args.check_repeat => check_repeat(&args),
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fig_ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "omv-mem",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Some("omv-mem"), 42, 20.0, true)
        );
        assert!(!args(&["--trace", "0"]).unwrap().traced);
        assert!(args(&["--trace", "--seed", "3"]).unwrap().traced);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn a_result_line_reads_back() {
        let metrics = [
            Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            },
            Metric {
                name: "core.sharded_apply_us_per_batch.s1",
                unit: "us",
                value: 1234.5,
            },
        ];
        let r = parse_result_line(&stats::result_json(true, 5, 0, &metrics)).unwrap();
        assert!(r.correct);
        assert_eq!(
            r.values,
            vec![
                ("setup_s".to_owned(), 0.25),
                ("core.sharded_apply_us_per_batch.s1".to_owned(), 1234.5)
            ]
        );
        assert!(
            !parse_result_line(&stats::result_json(false, 1, 1, &[]))
                .unwrap()
                .correct
        );
        assert!(parse_result_line("not a result").is_none());
    }

    /// The harness and the declarations cannot drift apart: all five
    /// workloads, tiny instances, a 200 ms window, both modes — every
    /// declared metric comes back exactly once, under a name the contract
    /// allows, and the gate passes.
    #[test]
    fn every_workload_reports_every_declared_metric_once() {
        for w in &decl::WORKLOADS {
            for traced in [false, true] {
                let spec = RunSpec {
                    workload: w.name,
                    seed: 9,
                    warmup: std::time::Duration::from_millis(50),
                    seconds: 0.2,
                    sizes: Sizes::tiny(),
                };
                let out = if traced {
                    layers::run_traced(&spec)
                } else {
                    workloads::run_end_to_end(&spec)
                }
                .unwrap_or_else(|e| panic!("{} trace {traced}: {e}", w.name));
                assert!(out.correct, "{} trace {traced}: {:?}", w.name, out.notes);
                assert!(out.attempted > 0 && out.failed == 0, "{}", w.name);
                let metrics = declared_metrics(&out, traced).unwrap();
                let line = stats::result_json(true, out.attempted, out.failed, &metrics);
                let back = parse_result_line(&line).unwrap();
                let declared: Vec<&str> = decl::metrics(traced).iter().map(|d| d.name).collect();
                let reported: Vec<&str> = back.values.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(reported, declared, "{} trace {traced}", w.name);
                for (name, value) in &back.values {
                    assert!(
                        name.chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "{name}"
                    );
                    assert!(value.is_finite(), "{} {name} = {value}", w.name);
                    // An end-to-end metric that reads 0 cannot be bounded.
                    assert!(traced || *value > 0.0, "{} {name} = {value}", w.name);
                }
            }
        }
    }

    #[test]
    fn worsening_respects_direction() {
        let lower = &decl::END_TO_END[0];
        let higher = decl::END_TO_END
            .iter()
            .find(|d| d.higher_is_better)
            .unwrap();
        assert!((worsening(lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);
    }
}
