//! `ivme-bench` — shared measurement helpers for the experiment harness.
//!
//! Each `benches/fig*.rs` target regenerates one table or figure of the
//! paper, or sweeps one serving-stack dimension (see docs/ARCHITECTURE.md
//! for the system being measured; the repository's end-to-end benchmark
//! and its recorded outcomes are `fig_ledger/README.md`). The helpers
//! here provide consistent timing, delay-probing, and log-log slope
//! fitting.

use std::time::{Duration, Instant};

use ivme_core::IvmEngine;

/// Times a closure once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// Statistics of per-item delays (in nanoseconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct DelayStats {
    pub count: usize,
    pub total_ns: u128,
    pub max_ns: u128,
}

impl DelayStats {
    pub fn avg_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Measures the enumeration delay of an engine: per-`next()` latency over
/// up to `limit` tuples (the paper's delay = max gap between consecutive
/// answers, including time to the first answer).
pub fn measure_delay(engine: &IvmEngine, limit: usize) -> DelayStats {
    let mut stats = DelayStats::default();
    let mut it = engine.enumerate();
    loop {
        let t0 = Instant::now();
        let item = it.next();
        let d = t0.elapsed().as_nanos();
        if item.is_none() {
            break;
        }
        stats.count += 1;
        stats.total_ns += d;
        stats.max_ns = stats.max_ns.max(d);
        if stats.count >= limit {
            break;
        }
    }
    stats
}

/// Least-squares slope of `log2(y)` against `log2(x)` — used to fit the
/// scaling exponents the paper predicts (e.g. delay ~ N^{1−ε}).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    assert!(points.len() >= 2);
    let xs: Vec<f64> = points.iter().map(|p| p.0.log2()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1.max(1.0).log2()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let num: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    num / den
}

/// Pretty seconds.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    }
}

/// Pretty nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_exact_powerlaw() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| ((1 << i) as f64, ((1 << i) as f64).powf(1.5)))
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 1.5).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(2500.0), "2.5µs");
        assert!(fmt_dur(Duration::from_millis(12)).ends_with("ms"));
    }
}
