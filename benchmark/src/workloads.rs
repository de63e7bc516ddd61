//! The six workloads: what each feeds the simulator and how it is shaped.
//!
//! Every input is derived from the benchmark's `--seed`; the simulator
//! receives only the generated traces and the committed plan specs.

use webcache_p2p::DirectoryKind;
use webcache_primitives::seed::{derive, derive_indexed};
use webcache_sim::{
    ChurnConfig, ClockMode, ExperimentConfig, FaultPlan, HierGdEngine, HierGdOptions, NetworkModel,
    NoopRecorder, Recorder, SchemeKind, Sizing,
};
use webcache_workload::{ProWGen, ProWGenConfig, Trace};

/// The event clock runs on latencies scaled to 1/16: a request then
/// occupies its proxy for less than one arrival period, so queues stay
/// stable — the regime the overload and durability harnesses default to.
pub const EVENT_NET_SCALE: f64 = 1.0 / 16.0;

/// Requests per `prepare_wave` batch in the simulator's engine loop; the
/// traced run drives the scheme in the same waves.
pub const WAVE: usize = 1024;

/// A Hier-GD configuration at figure-2 scale.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub cache_frac: f64,
    pub clients: usize,
    pub bloom: bool,
    pub clock: ClockMode,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// One Hier-GD replay of the full traces.
    HierGd(Shape),
    /// NC, SC-EC and FC-EC back to back over the full traces.
    Unified,
    /// The committed fault plans through `run_churn`, both clock modes.
    FaultDrill,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

const SMALL: Shape =
    Shape { cache_frac: 0.10, clients: 100, bloom: false, clock: ClockMode::Compat };

pub const UNIFIED_SCHEMES: [SchemeKind; 3] = [SchemeKind::Nc, SchemeKind::ScEc, SchemeKind::FcEc];

pub fn workload(name: &str) -> Option<Workload> {
    let kind = match name {
        "fig2_small_proxy" => Kind::HierGd(SMALL),
        "fig2_full_proxy" => Kind::HierGd(Shape { cache_frac: 1.0, ..SMALL }),
        "fig2_event_clock" => Kind::HierGd(Shape { clock: ClockMode::Event, ..SMALL }),
        "large_cluster_bloom" => Kind::HierGd(Shape { clients: 1000, bloom: true, ..SMALL }),
        "unified_schemes" => Kind::Unified,
        "fault_drill" => Kind::FaultDrill,
        _ => return None,
    };
    let name = crate::spec::WORKLOADS.iter().find(|w| w.0 == name)?.0;
    Some(Workload { name, kind })
}

impl Workload {
    /// The Hier-GD configuration the per-layer replays are sized by: the
    /// workload's own where it runs Hier-GD, the figure-2 default where
    /// it does not.
    pub fn shape(&self) -> Shape {
        match self.kind {
            Kind::HierGd(shape) => shape,
            Kind::Unified | Kind::FaultDrill => SMALL,
        }
    }
}

/// ProWGen defaults — 10,000 objects, 1,000,000 requests — for each of
/// two proxies: the paper's `--full` scale.
pub fn full_traces(seed: u64) -> Vec<Trace> {
    (0..2)
        .map(|p| {
            ProWGen::new(ProWGenConfig {
                seed: derive_indexed(seed, "proxy-trace", p),
                ..ProWGenConfig::default()
            })
            .generate()
        })
        .collect()
}

pub fn net_for(clock: ClockMode) -> NetworkModel {
    match clock {
        ClockMode::Compat => NetworkModel::default(),
        ClockMode::Event => NetworkModel::default().scaled(EVENT_NET_SCALE),
    }
}

pub fn other_clock(clock: ClockMode) -> ClockMode {
    match clock {
        ClockMode::Compat => ClockMode::Event,
        ClockMode::Event => ClockMode::Compat,
    }
}

/// The experiment `shape` describes, for `scheme`, over `traces` (the
/// Bloom directory is sized from the traces, as the figures do).
pub fn experiment(shape: &Shape, scheme: SchemeKind, traces: &[Trace]) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(scheme, shape.cache_frac);
    cfg.clients_per_cluster = shape.clients;
    cfg.clock = shape.clock;
    cfg.net = net_for(shape.clock);
    if shape.bloom {
        cfg.hiergd.directory = DirectoryKind::Bloom {
            counters_per_key: 8.0,
            expected_entries: Sizing::derive(&cfg, traces).p2p_capacity,
        };
    }
    cfg
}

/// A Hier-GD engine in absolute sizes: what `build_engine` derives from
/// an [`ExperimentConfig`], or what `run_churn` builds for a drill. The
/// benchmark builds the concrete type where it must read the P2P caches
/// back after a run, attach a recorder of its own, or arm a transport —
/// none of which `Box<dyn SchemeEngine>` allows — and the per-layer
/// replays size their stand-alone instances from the same numbers.
#[derive(Clone, Copy, Debug)]
pub struct HierGdSpec {
    pub proxies: usize,
    pub proxy_capacity: usize,
    pub clients: usize,
    pub client_capacity: usize,
    pub num_objects: u32,
    pub net: NetworkModel,
    pub opts: HierGdOptions,
    pub clock: ClockMode,
}

impl HierGdSpec {
    pub fn of_experiment(cfg: &ExperimentConfig, traces: &[Trace]) -> Self {
        let s = Sizing::derive(cfg, traces);
        HierGdSpec {
            proxies: cfg.num_proxies,
            proxy_capacity: s.proxy_capacity,
            clients: cfg.clients_per_cluster,
            client_capacity: s.client_cache_capacity,
            num_objects: traces.iter().map(|t| t.num_objects).max().unwrap_or(0),
            net: cfg.net,
            opts: cfg.hiergd,
            clock: cfg.clock,
        }
    }

    /// The engine `run_churn` builds for `cfg`, before any fault is armed.
    pub fn of_drill(cfg: &ChurnConfig, trace: &Trace) -> Self {
        HierGdSpec {
            proxies: 1,
            proxy_capacity: cfg.proxy_capacity,
            clients: cfg.clients_per_cluster,
            client_capacity: cfg.client_cache_capacity,
            num_objects: trace.num_objects,
            net: cfg.net,
            opts: HierGdOptions { replication: cfg.replication, ..HierGdOptions::default() },
            clock: cfg.clock,
        }
    }

    pub fn with_clock(self, clock: ClockMode) -> Self {
        HierGdSpec { clock, net: net_for(clock), ..self }
    }

    pub fn bloom(&self) -> bool {
        matches!(self.opts.directory, DirectoryKind::Bloom { .. })
    }

    pub fn build(&self) -> HierGdEngine {
        self.build_recorded(NoopRecorder)
    }

    pub fn build_recorded<R: Recorder>(&self, recorder: R) -> HierGdEngine<R> {
        HierGdEngine::with_recorder(
            self.proxies,
            self.proxy_capacity,
            self.clients,
            self.client_capacity,
            self.num_objects,
            self.net,
            self.opts,
            recorder,
        )
    }
}

/// The committed fault plans, in drill order.
pub const PLANS: [(&str, &str); 5] = [
    ("churn_transport", include_str!("../plans/churn_transport.plan")),
    ("partition_crash", include_str!("../plans/partition_crash.plan")),
    ("domain_repair", include_str!("../plans/domain_repair.plan")),
    ("adversary_audit", include_str!("../plans/adversary_audit.plan")),
    ("overload_defense", include_str!("../plans/overload_defense.plan")),
];

pub fn parse_plan(spec: &str) -> FaultPlan {
    spec.parse().unwrap_or_else(|e| panic!("committed plan {spec:?} does not parse: {e}"))
}

/// One `run_churn` call of the fault drill.
#[derive(Clone, Debug)]
pub struct Drill {
    pub label: String,
    pub cfg: ChurnConfig,
}

/// Each plan once per clock mode: 200,000 requests over 5,000 objects,
/// 128 machines, k = 2; the audit defense armed for the plan that needs
/// it (it is inert without adversaries).
pub fn drills(seed: u64) -> Vec<Drill> {
    let mut out = Vec::new();
    for (name, spec) in PLANS {
        for clock in [ClockMode::Compat, ClockMode::Event] {
            out.push(Drill {
                label: format!("{name}/{}", clock.label()),
                cfg: ChurnConfig {
                    requests: 200_000,
                    distinct_objects: 5_000,
                    clients_per_cluster: 128,
                    replication: 2,
                    trace_seed: derive(seed, "drill-trace"),
                    net: net_for(clock),
                    plan: parse_plan(spec),
                    clock,
                    audit_rate: 0.3,
                    ..ChurnConfig::default()
                },
            });
        }
    }
    out
}

/// The trace `run_churn` generates for `cfg`, so the per-layer replays
/// of the fault drill take their keys from the drill's own requests.
pub fn drill_trace(cfg: &ChurnConfig) -> Trace {
    ProWGen::new(ProWGenConfig {
        requests: cfg.requests,
        distinct_objects: cfg.distinct_objects,
        num_clients: cfg.trace_clients.max(1) as u32,
        seed: cfg.trace_seed,
        ..ProWGenConfig::default()
    })
    .generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_is_defined() {
        for (name, _) in crate::spec::WORKLOADS {
            assert_eq!(workload(name).map(|w| w.name), Some(*name));
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn committed_plans_parse_and_round_trip() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("plans");
        let mut on_disk: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        on_disk.sort();
        let mut listed: Vec<String> = PLANS.iter().map(|(n, _)| format!("{n}.plan")).collect();
        listed.sort();
        assert_eq!(on_disk, listed, "plans/ and PLANS disagree");
        for (name, spec) in PLANS {
            let plan: FaultPlan = spec.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!plan.is_none(), "{name} injects nothing");
            let printed = plan.to_spec();
            assert_eq!(printed, spec.trim(), "{name} is not committed in canonical form");
            assert_eq!(printed.parse::<FaultPlan>().unwrap(), plan, "{name}");
        }
    }

    #[test]
    fn drills_cover_every_plan_in_both_clock_modes() {
        let all = drills(7);
        assert_eq!(all.len(), 2 * PLANS.len());
        assert!(all.iter().all(|d| d.cfg.validate().is_ok()));
        assert_eq!(all[1].cfg.clock, ClockMode::Event);
        assert_eq!(all[0].cfg.trace_seed, all[9].cfg.trace_seed);
        assert_ne!(all[0].cfg.trace_seed, drills(8)[0].cfg.trace_seed);
    }
}
