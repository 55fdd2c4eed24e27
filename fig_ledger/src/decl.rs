//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same lists; a unit test keeps the two equal.

/// One workload and why it exists (one line; the long form is in
/// README.md).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const ENGINE_DIRECT: &str = "engine-direct";
pub const OMV_MEM: &str = "omv-mem";
pub const OMV_DURABLE: &str = "omv-durable";
pub const TWOPATH_PUBLISH: &str = "twopath-publish";
pub const READ_QUIESCENT: &str = "read-quiescent";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: ENGINE_DIRECT,
        why: "no server: 64-update batches, lookups and enumeration straight on IvmEngine; the floor a server-layer change must not move",
    },
    Workload {
        name: OMV_MEM,
        why: "memory-only server, result of at most 1000 tuples: publish is cheap, so proto, TCP and writer hand-offs dominate",
    },
    Workload {
        name: OMV_DURABLE,
        why: "omv-mem's traffic with a data dir, fsync group, checkpoints every 64 rounds, then stop and recover: the cost of WAL, snapshot and recovery is the difference",
    },
    Workload {
        name: TWOPATH_PUBLISH,
        why: "engine-direct's inputs through the server: a ~20k-tuple result is re-materialized by ShardedEngine::snapshot on every commit and dominates the round",
    },
    Workload {
        name: READ_QUIESCENT,
        why: "twopath-publish's traffic, then the writer stops and the reader goes on alone: reads of a quiescent snapshot bypass writer and publish, so a publish change predicts no move in them",
    },
];

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDecl {
    e2e(name, unit, higher, 0.0)
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them (the driver requires it), so the list holds
/// only what all five workloads measure; see README.md for how each
/// workload measures each. The bound is the widest the driver allows:
/// this box cannot resolve less (README.md, "Steadiness").
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("write_updates_per_s", "1/s", true, 0.25),
    e2e("commit_p50_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Per-layer metrics (layer = module), reported by the traced run. The
/// first eleven are user-visible numbers that are reported, not gated:
/// read latencies and the three tails do not repeat within any bound on
/// this box (README.md, "Steadiness"), and the other six only some
/// workloads can measure. They keep the names ISSUE 11 gave them. A
/// metric a workload has no work for reads 0 there.
pub const PER_LAYER: [MetricDecl; 55] = [
    layer("get_p50_us", "us", false),
    layer("page_p50_us", "us", false),
    layer("commit_p99_us", "us", false),
    layer("get_p99_us", "us", false),
    layer("page_p99_us", "us", false),
    layer("reads_per_s", "1/s", true),
    layer("enum_tuples_per_s", "1/s", true),
    layer("enum_delay_p99_ns", "ns", false),
    layer("recovery_s", "s", false),
    layer("wal_bytes_per_update", "B", false),
    layer("error_share", "ratio", false),
    layer("data.batch_build_ns_per_update", "ns", false),
    layer("core.preprocess_s", "s", false),
    layer("core.ivm_apply_us_per_batch", "us", false),
    layer("core.ivm_apply_us_per_batch.eps0", "us", false),
    layer("core.ivm_apply_us_per_batch.eps1", "us", false),
    layer("core.sharded_apply_us_per_batch.s1", "us", false),
    layer("core.sharded_apply_us_per_batch.s2", "us", false),
    layer("core.enum_delay_p50_ns.eps0", "ns", false),
    layer("core.enum_delay_p50_ns.eps1", "ns", false),
    layer("core.minor_rebalances", "count", false),
    layer("core.major_rebalances", "count", false),
    layer("core.heavy_keys", "count", false),
    layer("core.aux_space_tuples", "count", false),
    layer("core.snapshot_us_per_round", "us", false),
    layer("core.snapshot_tuples_per_round", "count", false),
    layer("core.enum_first_tuple_ns", "ns", false),
    layer("core.enum_delay_max_ns", "ns", false),
    layer("core.lookup_ns", "ns", false),
    layer("core.page_us", "us", false),
    layer("proto.parse_ns_per_line", "ns", false),
    layer("proto.response_ns_per_reply", "ns", false),
    layer("proto.wal_render_ns_per_update", "ns", false),
    layer("render.get_ns", "ns", false),
    layer("render.page_us", "us", false),
    layer("publish.swap_ns", "ns", false),
    layer("net.loopback_rtt_us", "us", false),
    layer("server.group_commits", "count", true),
    layer("server.grouped_batches", "count", true),
    layer("server.snapshots_published", "count", true),
    layer("server.round_residual_us", "us", false),
    layer("wal.append_us_per_round", "us", false),
    layer("wal.fsync_us", "us", false),
    layer("wal.bytes_per_round", "B", false),
    layer("wal.fsyncs", "count", false),
    layer("snapshot.write_ms", "ms", false),
    layer("snapshot.load_ms", "ms", false),
    layer("snapshot.bytes", "B", false),
    layer("snapshot.checkpoints", "count", false),
    layer("recovery.wal_scan_ms", "ms", false),
    layer("recovery.replay_frames", "count", false),
    layer("repl.catchup_ms", "ms", false),
    layer("repl.catchup_updates_per_s", "1/s", true),
    layer("driver.read_late_p99_us", "us", false),
    layer("driver.trace_overhead_share", "ratio", false),
];

/// The declared metric list for a run mode.
pub fn metrics(traced: bool) -> &'static [MetricDecl] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The declarations rendered as the driver's `BENCHMARK.json` lists.
    fn rendered(decls: &[MetricDecl], with_bound: bool) -> Vec<String> {
        decls
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                let bound = if with_bound {
                    format!(", \"bound\": {}", m.bound)
                } else {
                    String::new()
                };
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
                    m.name, m.unit
                )
            })
            .collect()
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(name_ok(w.name, 64) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` and this file cannot drift apart: every list entry
    /// of the JSON is, verbatim, what the declarations render to.
    #[test]
    fn benchmark_json_states_these_declarations() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str, next: &str| -> Vec<String> {
            let from = json.find(&format!("\"{key}\": [")).expect(key);
            let to = json[from..].find(next).expect(next) + from;
            json[from..to]
                .lines()
                .map(|l| l.trim().trim_end_matches(',').to_owned())
                .filter(|l| l.starts_with('{'))
                .collect()
        };
        assert_eq!(
            section("end_to_end", "\"per_layer\""),
            rendered(&END_TO_END, true)
        );
        assert_eq!(section("per_layer", "]\n}"), rendered(&PER_LAYER, false));
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        assert_eq!(section("workloads", "\"end_to_end\""), workloads);
        assert!(json.contains("\"paths\": [\"fig_ledger\"]"));
    }
}
