//! What the benchmark measures: workloads, metrics, directions, bounds.
//!
//! This table is the single source of `BENCHMARK.json` (the `describe`
//! subcommand prints it; a unit test fails when the committed file
//! differs) and of the verdicts `compare` hands out.

use crate::json::Json;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base by which the metric may worsen before that is a
    /// regression. Per-layer metrics explain; they carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees: how long a run takes to set up,
/// how fast it replays, how much memory it needs, and what it simulates.
///
/// Each bound is about three times the quartile spread the metric showed
/// over ten seeds when the benchmark was defined (README.md has the
/// table). The host's speed drifts by several percent over minutes, so
/// the two host-time metrics carry the widest bound the contract allows.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("sim_avg_latency", "model_time", Lower, 0.04),
    e2e("sim_hit_ratio", "ratio", Higher, 0.02),
];

/// One row per layer quantity (layer = module). README.md maps each to
/// the end-to-end metric and workload it should move.
pub const PER_LAYER: &[Metric] = &[
    layer("workload.gen_ns_per_req", "ns", Lower),
    layer("workload.decode_ns_per_req", "ns", Lower),
    layer("primitives.sha1_ns_per_id", "ns", Lower),
    layer("engine.compat_loop_ns_per_req", "ns", Lower),
    layer("engine.event_loop_ns_per_req", "ns", Lower),
    layer("clock.wheel_ns_per_event_shallow", "ns", Lower),
    layer("clock.wheel_ns_per_event_deep", "ns", Lower),
    layer("clock.events_per_req", "count", Lower),
    layer("policy.gd_hit_ns", "ns", Lower),
    layer("policy.gd_miss_ns", "ns", Lower),
    layer("policy.gd_hit_ratio", "ratio", Higher),
    layer("policy.gd_evictions_per_req", "count", Lower),
    layer("policy.lfu_ns_per_op", "ns", Lower),
    layer("directory.exact_probe_ns", "ns", Lower),
    layer("directory.bloom_probe_ns", "ns", Lower),
    layer("directory.update_ns", "ns", Lower),
    layer("directory.probes_per_req", "count", Lower),
    layer("directory.probe_hit_ratio", "ratio", Higher),
    layer("directory.stale_ratio", "ratio", Lower),
    layer("pastry.route_ns", "ns", Lower),
    layer("pastry.hops_mean", "count", Lower),
    layer("pastry.hops_p99", "count", Lower),
    layer("pastry.routes_per_req", "count", Lower),
    layer("pastry.join_ns_per_node", "ns", Lower),
    layer("p2p.build_s", "s", Lower),
    layer("p2p.destage_ns", "ns", Lower),
    layer("p2p.fetch_ns", "ns", Lower),
    layer("p2p.push_fetch_ns", "ns", Lower),
    layer("p2p.warm_routes_ns_per_key", "ns", Lower),
    layer("p2p.destages_per_req", "count", Lower),
    layer("p2p.lookups_per_req", "count", Lower),
    layer("p2p.pushes_per_req", "count", Lower),
    layer("p2p.evictions_per_req", "count", Lower),
    layer("p2p.diverted_ratio", "ratio", Lower),
    layer("p2p.membership_op_ns", "ns", Lower),
    layer("transport.send_clean_ns", "ns", Lower),
    layer("transport.send_lossy_ns", "ns", Lower),
    layer("transport.retries_per_send", "count", Lower),
    layer("transport.sends_per_req", "count", Lower),
    layer("hiergd.build_s", "s", Lower),
    layer("hiergd.prepare_wave_ns_per_req", "ns", Lower),
    layer("hiergd.admit_ns_p50", "ns", Lower),
    layer("hiergd.admit_ns_p99", "ns", Lower),
    layer("hiergd.glue_ns_per_req", "ns", Lower),
    layer("site.nc_ns_per_req", "ns", Lower),
    layer("site.scec_ns_per_req", "ns", Lower),
    layer("site.fcec_ns_per_req", "ns", Lower),
    layer("site.fc_build_s", "s", Lower),
    layer("recorder.stats_ns_per_req", "ns", Lower),
    layer("recorder.eventlog_ns_per_req", "ns", Lower),
    layer("recorder.events_per_req", "count", Lower),
    layer("fault.plan_parse_ns", "ns", Lower),
    layer("fault.drill_ns_per_req", "ns", Lower),
    layer("fault.timeouts_per_req", "count", Lower),
    layer("fault.retries_per_req", "count", Lower),
    layer("fault.events_applied", "count", Higher),
    layer("chaos.plans_per_s", "1/s", Higher),
    layer("chaos.plans_per_s_event", "1/s", Higher),
    layer("adversary.sweep_s", "s", Lower),
    layer("overload.sweep_s", "s", Lower),
    layer("durability.sweep_s", "s", Lower),
    layer("ledger.coverage", "ratio", Higher),
    layer("ledger.trace_overhead_ratio", "ratio", Lower),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `(name, why)` of every workload, in the order `run` executes them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fig2_small_proxy",
        "Hier-GD, proxy at 10% of U, 100 clients: ~43% of requests leave the proxy, so directory, pastry and p2p do the work",
    ),
    (
        "fig2_full_proxy",
        "Same traces, proxy at 100% of U: the proxy greedy-dual absorbs ~99%, so p2p, pastry and directory are bypassed",
    ),
    (
        "fig2_event_clock",
        "fig2_small_proxy under the event clock: two wheel events per request, the only workload where clock cost shows",
    ),
    (
        "large_cluster_bloom",
        "1,000 clients per cluster and a Bloom directory: long routes, stores beyond the CPU cache, set-up and memory that matter",
    ),
    (
        "unified_schemes",
        "NC, SC-EC and FC-EC back to back: no pastry or p2p at all, the bare engine loop - the control for Hier-GD-only changes",
    ),
    (
        "fault_drill",
        "Five fault plans through run_churn in both clock modes: membership writes, armed transport, repair and audits beside serving",
    ),
];

/// The document committed as `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric_json = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(metric_json).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(metric_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_matches_this_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(committed).unwrap(),
            benchmark_json(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- describe > BENCHMARK.json"
        );
    }

    #[test]
    fn table_stays_inside_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        assert!(names.iter().all(|n| well_formed_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
