//! Experiment configuration: the paper's sizing rules and scheme registry.

use crate::clock::{ClockMode, SimClock};
use crate::cost_benefit::CostBenefitEngine;
use crate::engine::{Engine, SchemeEngine};
use crate::error::SimError;
use crate::hiergd::{HierGdEngine, HierGdOptions};
use crate::lfu_schemes::LfuFamilyEngine;
use crate::metrics::RunMetrics;
use crate::net::NetworkModel;
use crate::recorder::{NoopRecorder, Recorder};
use std::fmt;
use std::str::FromStr;
use webcache_workload::Trace;

/// The seven caching schemes of the paper (§2–3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No cache cooperation, LFU.
    Nc,
    /// NC exploiting client caches (unified-cache upper bound).
    NcEc,
    /// Simple cache cooperation, LFU.
    Sc,
    /// SC exploiting client caches.
    ScEc,
    /// Full cooperation, cost-benefit replacement.
    Fc,
    /// FC exploiting client caches.
    FcEc,
    /// The cooperative hierarchical greedy-dual algorithm (§3).
    HierGd,
}

impl SchemeKind {
    /// All schemes, in the paper's presentation order.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::Nc,
        SchemeKind::Sc,
        SchemeKind::Fc,
        SchemeKind::NcEc,
        SchemeKind::ScEc,
        SchemeKind::FcEc,
        SchemeKind::HierGd,
    ];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::Nc => "NC",
            SchemeKind::NcEc => "NC-EC",
            SchemeKind::Sc => "SC",
            SchemeKind::ScEc => "SC-EC",
            SchemeKind::Fc => "FC",
            SchemeKind::FcEc => "FC-EC",
            SchemeKind::HierGd => "Hier-GD",
        }
    }

    /// True if the scheme exploits client caches.
    pub fn uses_client_caches(&self) -> bool {
        matches!(self, SchemeKind::NcEc | SchemeKind::ScEc | SchemeKind::FcEc | SchemeKind::HierGd)
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for SchemeKind {
    type Err = SimError;

    /// Parses a scheme name, case-insensitively, with or without the
    /// hyphen: `"NC-EC"`, `"nc-ec"` and `"ncec"` all name
    /// [`SchemeKind::NcEc`]. Round-trips with [`SchemeKind::label`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "nc" => Ok(SchemeKind::Nc),
            "nc-ec" | "ncec" => Ok(SchemeKind::NcEc),
            "sc" => Ok(SchemeKind::Sc),
            "sc-ec" | "scec" => Ok(SchemeKind::ScEc),
            "fc" => Ok(SchemeKind::Fc),
            "fc-ec" | "fcec" => Ok(SchemeKind::FcEc),
            "hier-gd" | "hiergd" => Ok(SchemeKind::HierGd),
            other => Err(SimError::UnknownScheme(other.to_string())),
        }
    }
}

/// One experiment: a scheme at a sizing point (§5.1 defaults).
///
/// All fields are plain values, so the config is `Copy` — sweeps and
/// harnesses pass it by value instead of cloning per grid point.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Scheme to run.
    pub scheme: SchemeKind,
    /// Proxies in the cluster (paper default 2; Figure 5(d) sweeps to 10).
    pub num_proxies: usize,
    /// Proxy cache size as a fraction of the infinite cache size `U`
    /// (the x-axis of every figure: 0.10 ..= 1.00).
    pub cache_frac: f64,
    /// Clients per cluster (paper default 100; Figure 5(c) sweeps to
    /// 1000).
    pub clients_per_cluster: usize,
    /// Per-client cooperative cache size as a fraction of `U` (paper:
    /// 0.001, i.e. 0.1%).
    pub per_client_frac: f64,
    /// Network latencies.
    pub net: NetworkModel,
    /// Hier-GD design knobs (ignored by other schemes).
    pub hiergd: HierGdOptions,
    /// Clock mode: [`ClockMode::Compat`] (default) reproduces the
    /// analytic inline pricing byte-for-byte; [`ClockMode::Event`] runs
    /// the full discrete-event schedule with proxy occupancy.
    pub clock: ClockMode,
}

impl ExperimentConfig {
    /// Paper defaults for `scheme` at `cache_frac`.
    pub fn new(scheme: SchemeKind, cache_frac: f64) -> Self {
        ExperimentConfig {
            scheme,
            num_proxies: 2,
            cache_frac,
            clients_per_cluster: 100,
            per_client_frac: 0.001,
            net: NetworkModel::default(),
            hiergd: HierGdOptions::default(),
            clock: ClockMode::default(),
        }
    }

    /// Starts a [builder](ExperimentConfigBuilder) from the paper
    /// defaults; `build()` validates, so a config obtained this way is
    /// known-good.
    pub fn builder(scheme: SchemeKind, cache_frac: f64) -> ExperimentConfigBuilder {
        ExperimentConfigBuilder { cfg: ExperimentConfig::new(scheme, cache_frac) }
    }

    /// This config re-pointed at another grid point: same topology and
    /// knobs, different scheme and proxy size. Sweeps and harnesses use
    /// it instead of struct-update syntax.
    pub fn at(&self, scheme: SchemeKind, cache_frac: f64) -> Self {
        ExperimentConfig { scheme, cache_frac, ..*self }
    }

    /// Validates ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.num_proxies == 0 {
            return Err(SimError::InvalidConfig("num_proxies must be positive".into()));
        }
        if !(0.0..=1.5).contains(&self.cache_frac) || self.cache_frac <= 0.0 {
            return Err(SimError::InvalidConfig("cache_frac must be in (0, 1.5]".into()));
        }
        if self.scheme.uses_client_caches() && self.clients_per_cluster == 0 {
            return Err(SimError::InvalidConfig(
                "client-cache schemes need clients_per_cluster > 0".into(),
            ));
        }
        if self.per_client_frac <= 0.0 || self.per_client_frac > 0.1 {
            return Err(SimError::InvalidConfig("per_client_frac must be in (0, 0.1]".into()));
        }
        self.net.validate()
    }
}

/// Builds an [`ExperimentConfig`] from the paper defaults, one override
/// at a time; [`build`](ExperimentConfigBuilder::build) validates the
/// result.
///
/// ```
/// use webcache_sim::config::{ExperimentConfig, SchemeKind};
/// let cfg = ExperimentConfig::builder(SchemeKind::HierGd, 0.2)
///     .num_proxies(4)
///     .clients_per_cluster(50)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.num_proxies, 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Sets the proxy count (paper default 2).
    pub fn num_proxies(mut self, n: usize) -> Self {
        self.cfg.num_proxies = n;
        self
    }

    /// Sets the clients per cluster (paper default 100).
    pub fn clients_per_cluster(mut self, n: usize) -> Self {
        self.cfg.clients_per_cluster = n;
        self
    }

    /// Sets the per-client cache fraction of `U` (paper default 0.001).
    pub fn per_client_frac(mut self, f: f64) -> Self {
        self.cfg.per_client_frac = f;
        self
    }

    /// Sets the network latency model.
    pub fn net(mut self, net: NetworkModel) -> Self {
        self.cfg.net = net;
        self
    }

    /// Sets the Hier-GD design knobs.
    pub fn hiergd(mut self, opts: HierGdOptions) -> Self {
        self.cfg.hiergd = opts;
        self
    }

    /// Sets the clock mode (default [`ClockMode::Compat`]).
    pub fn clock(mut self, mode: ClockMode) -> Self {
        self.cfg.clock = mode;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<ExperimentConfig, SimError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Derived sizes for an experiment over a given workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizing {
    /// The infinite cache size `U`: distinct objects referenced more than
    /// once (§5.1), measured on the first proxy's trace.
    pub infinite_cache_size: usize,
    /// Proxy cache capacity in objects.
    pub proxy_capacity: usize,
    /// One client cache's capacity in objects.
    pub client_cache_capacity: usize,
    /// Aggregate P2P tier capacity (clients × per-client).
    pub p2p_capacity: usize,
}

impl Sizing {
    /// Applies the paper's sizing rules to `cfg` over `traces`.
    pub fn derive(cfg: &ExperimentConfig, traces: &[Trace]) -> Self {
        assert!(!traces.is_empty(), "need at least one trace");
        let u = traces[0].stats().infinite_cache_size;
        let proxy_capacity = ((u as f64 * cfg.cache_frac).round() as usize).max(1);
        let client_cache_capacity = ((u as f64 * cfg.per_client_frac).round() as usize).max(1);
        let p2p_capacity = if cfg.scheme.uses_client_caches() {
            client_cache_capacity * cfg.clients_per_cluster
        } else {
            0
        };
        Sizing { infinite_cache_size: u, proxy_capacity, client_cache_capacity, p2p_capacity }
    }
}

/// Builds the engine for `cfg` (trace-dependent sizing included).
pub fn build_engine(
    cfg: &ExperimentConfig,
    traces: &[Trace],
) -> Result<Box<dyn SchemeEngine>, SimError> {
    build_engine_recorded(cfg, traces, NoopRecorder)
}

/// [`build_engine`] with a [`Recorder`] wired into the engine. Only
/// Hier-GD has P2P-layer events to report; the recorder is still
/// accepted for every scheme so harness code is uniform (per-request
/// events come from the [`Engine`] run loop).
pub fn build_engine_recorded<R: Recorder + 'static>(
    cfg: &ExperimentConfig,
    traces: &[Trace],
    recorder: R,
) -> Result<Box<dyn SchemeEngine>, SimError> {
    cfg.validate()?;
    let s = Sizing::derive(cfg, traces);
    let p = cfg.num_proxies;
    Ok(match cfg.scheme {
        SchemeKind::Nc => Box::new(LfuFamilyEngine::new(p, s.proxy_capacity, 0, false)),
        SchemeKind::NcEc => {
            Box::new(LfuFamilyEngine::new(p, s.proxy_capacity, s.p2p_capacity, false))
        }
        SchemeKind::Sc => Box::new(LfuFamilyEngine::new(p, s.proxy_capacity, 0, true)),
        SchemeKind::ScEc => {
            Box::new(LfuFamilyEngine::new(p, s.proxy_capacity, s.p2p_capacity, true))
        }
        SchemeKind::Fc => {
            Box::new(CostBenefitEngine::new(p, s.proxy_capacity, 0, &cfg.net, traces))
        }
        SchemeKind::FcEc => {
            Box::new(CostBenefitEngine::new(p, s.proxy_capacity, s.p2p_capacity, &cfg.net, traces))
        }
        SchemeKind::HierGd => Box::new(HierGdEngine::with_recorder(
            p,
            s.proxy_capacity,
            cfg.clients_per_cluster,
            s.client_cache_capacity,
            traces.iter().map(|t| t.num_objects).max().unwrap_or(0),
            cfg.net,
            cfg.hiergd,
            recorder,
        )),
    })
}

/// Runs one experiment end to end.
pub fn run_experiment(cfg: &ExperimentConfig, traces: &[Trace]) -> Result<RunMetrics, SimError> {
    run_experiment_recorded(cfg, traces, NoopRecorder)
}

/// [`run_experiment`] with a [`Recorder`] observing the run: every
/// served request (hit class + latency), and — for Hier-GD — every P2P
/// protocol event. Pass a shared handle (e.g. `Arc<StatsRecorder>`) to
/// read the stats back afterwards.
pub fn run_experiment_recorded<R: Recorder + Clone + 'static>(
    cfg: &ExperimentConfig,
    traces: &[Trace],
    recorder: R,
) -> Result<RunMetrics, SimError> {
    if traces.len() != cfg.num_proxies {
        return Err(SimError::TraceCountMismatch {
            traces: traces.len(),
            proxies: cfg.num_proxies,
        });
    }
    let mut engine = build_engine_recorded(cfg, traces, recorder.clone())?;
    let mut clock = SimClock::new(cfg.clock);
    Ok(Engine::new(engine.as_mut(), traces, &cfg.net).run(&mut clock, &recorder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_workload::{ProWGen, ProWGenConfig};

    fn traces(n: usize) -> Vec<Trace> {
        (0..n)
            .map(|p| {
                ProWGen::new(ProWGenConfig {
                    requests: 10_000,
                    distinct_objects: 800,
                    num_clients: 10,
                    seed: 100 + p as u64,
                    ..ProWGenConfig::default()
                })
                .generate()
            })
            .collect()
    }

    #[test]
    fn sizing_follows_paper_rules() {
        let ts = traces(2);
        let u = ts[0].stats().infinite_cache_size;
        let cfg = ExperimentConfig::new(SchemeKind::ScEc, 0.10);
        let s = Sizing::derive(&cfg, &ts);
        assert_eq!(s.infinite_cache_size, u);
        assert_eq!(s.proxy_capacity, ((u as f64 * 0.10).round() as usize).max(1));
        assert_eq!(s.client_cache_capacity, ((u as f64 * 0.001).round() as usize).max(1));
        assert_eq!(s.p2p_capacity, s.client_cache_capacity * 100);
        // Non-EC schemes get no P2P tier.
        let s_nc = Sizing::derive(&ExperimentConfig::new(SchemeKind::Nc, 0.10), &ts);
        assert_eq!(s_nc.p2p_capacity, 0);
    }

    #[test]
    fn all_schemes_run() {
        let ts = traces(2);
        for scheme in SchemeKind::ALL {
            let mut cfg = ExperimentConfig::new(scheme, 0.2);
            // Keep Hier-GD's overlay small for test speed.
            cfg.clients_per_cluster = 10;
            let m = run_experiment(&cfg, &ts).unwrap();
            assert_eq!(m.requests, 20_000, "{}", scheme.label());
            assert!(m.avg_latency() > 0.0);
        }
    }

    #[test]
    fn labels_and_flags() {
        assert_eq!(SchemeKind::HierGd.label(), "Hier-GD");
        assert!(SchemeKind::FcEc.uses_client_caches());
        assert!(!SchemeKind::Fc.uses_client_caches());
        assert_eq!(SchemeKind::ALL.len(), 7);
    }

    #[test]
    fn validation() {
        let mut cfg = ExperimentConfig::new(SchemeKind::Nc, 0.5);
        assert!(cfg.validate().is_ok());
        cfg.num_proxies = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ExperimentConfig::new(SchemeKind::Nc, 0.0);
        assert!(cfg.validate().is_err());
        cfg.cache_frac = 0.5;
        cfg.per_client_frac = 0.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn trace_count_mismatch_is_typed() {
        let ts = traces(1);
        let cfg = ExperimentConfig::new(SchemeKind::Nc, 0.5);
        match run_experiment(&cfg, &ts) {
            Err(SimError::TraceCountMismatch { traces: 1, proxies: 2 }) => {}
            other => panic!("expected TraceCountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn scheme_names_round_trip_with_labels() {
        for scheme in SchemeKind::ALL {
            // Display == label(), and both spellings parse back.
            assert_eq!(scheme.to_string(), scheme.label());
            assert_eq!(scheme.label().parse::<SchemeKind>().unwrap(), scheme);
            let squished = scheme.label().to_ascii_lowercase().replace('-', "");
            assert_eq!(squished.parse::<SchemeKind>().unwrap(), scheme);
        }
        match "zzz".parse::<SchemeKind>() {
            Err(SimError::UnknownScheme(name)) => assert_eq!(name, "zzz"),
            other => panic!("expected UnknownScheme, got {other:?}"),
        }
    }

    #[test]
    fn builder_validates_and_applies_overrides() {
        let cfg = ExperimentConfig::builder(SchemeKind::HierGd, 0.3)
            .num_proxies(4)
            .clients_per_cluster(50)
            .per_client_frac(0.002)
            .build()
            .unwrap();
        assert_eq!(cfg.num_proxies, 4);
        assert_eq!(cfg.clients_per_cluster, 50);
        assert!((cfg.per_client_frac - 0.002).abs() < 1e-12);
        assert!(matches!(
            ExperimentConfig::builder(SchemeKind::Nc, 0.3).num_proxies(0).build(),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn at_repoints_the_grid() {
        let base =
            ExperimentConfig::builder(SchemeKind::Nc, 0.1).clients_per_cluster(30).build().unwrap();
        let p = base.at(SchemeKind::HierGd, 0.5);
        assert_eq!(p.scheme, SchemeKind::HierGd);
        assert!((p.cache_frac - 0.5).abs() < 1e-12);
        assert_eq!(p.clients_per_cluster, 30);
    }
}
