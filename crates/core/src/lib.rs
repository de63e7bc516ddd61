//! **webcache-sim** — the trace-driven cooperative Web-caching simulator
//! reproducing Zhu & Hu, *Exploiting Client Caches: An Approach to Building
//! Large Web Caches* (ICPP 2003).
//!
//! The paper's claim: federating the browser caches of all clients in an
//! organization into a Pastry-based P2P cache behind each proxy makes
//! cooperative proxy caching dramatically more effective, especially when
//! proxy caches are small relative to the object universe; and a practical
//! algorithm — hierarchical greedy-dual (**Hier-GD**) — captures most of
//! that benefit.
//!
//! This crate assembles the pieces built in the sibling crates into the
//! seven caching schemes of §2–3 and the experiment harness of §5:
//!
//! | module | role |
//! |---|---|
//! | [`net`] | the Ts/Tc/Tl/Tp2p latency model (§5.1) + [`LatencyModel`] trait |
//! | [`clock`] | discrete-event clock: hierarchical time wheel, [`ClockMode`] |
//! | [`event`] | the event vocabulary (arrival / completion / timeout / fault) |
//! | [`engine`] | the [`Engine`] event loop driving every scheme |
//! | [`site`] | proxy + unified P2P tier (the §5.1 upper-bound model) |
//! | [`lfu_schemes`] | NC, NC-EC, SC, SC-EC (LFU replacement) |
//! | [`cost_benefit`] | FC, FC-EC (perfect-knowledge cost-benefit) |
//! | [`hiergd`] | Hier-GD over the real Pastry P2P client cache |
//! | [`metrics`] | average latency, hit breakdown, latency gain |
//! | [`config`] | §5.1 sizing rules and the scheme registry |
//! | [`fault`] | deterministic fault plans + the churn drill harness |
//! | [`chaos`] | seeded chaos explorer: random plans, oracles, shrinking |
//! | [`adversary`] | attacker-fraction × audit-rate sweep of the receipt defense |
//! | [`overload`] | flash-crowd intensity × defense sweep of the overload stack |
//! | [`error`] | the [`SimError`] type every fallible API returns |
//! | [`recorder`] | pluggable observability taps (stats, event log) |
//! | [`sweep`](crate::sweep()) | Rayon-parallel (scheme × size) grids for the figures |
//!
//! # Quick start
//!
//! ```
//! use webcache_sim::config::{run_experiment, ExperimentConfig, SchemeKind};
//! use webcache_workload::{ProWGen, ProWGenConfig};
//!
//! // Two statistically identical client clusters (one per proxy).
//! let traces: Vec<_> = (0..2)
//!     .map(|p| ProWGen::new(ProWGenConfig {
//!         requests: 20_000,
//!         distinct_objects: 1_000,
//!         seed: p,
//!         ..ProWGenConfig::default()
//!     }).generate())
//!     .collect();
//!
//! let nc = run_experiment(&ExperimentConfig::new(SchemeKind::Nc, 0.2), &traces).unwrap();
//! let cfg = ExperimentConfig::builder(SchemeKind::HierGd, 0.2)
//!     .clients_per_cluster(20) // keep the demo overlay small
//!     .build()
//!     .unwrap();
//! let hg = run_experiment(&cfg, &traces).unwrap();
//! let gain = webcache_sim::metrics::latency_gain_percent(&nc, &hg);
//! assert!(gain > 0.0);
//! ```
//!
//! # Observability
//!
//! Every run can carry a [`Recorder`]: [`StatsRecorder`] aggregates
//! per-class hit counters, log₂ latency/hop histograms, and P2P protocol
//! counters; [`EventLogRecorder`] keeps a bounded ring of raw events with
//! CSV/JSON export. The default [`NoopRecorder`] is statically compiled
//! out, so un-instrumented runs pay nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod chaos;
pub mod clock;
pub mod config;
pub mod cost_benefit;
pub mod durability;
pub mod engine;
pub mod error;
pub mod event;
pub mod fault;
pub mod hiergd;
pub mod lfu_schemes;
pub mod metrics;
pub mod net;
pub mod overload;
pub mod recorder;
pub mod scenario;
pub mod site;
pub mod squirrel;
pub mod sweep;
pub mod throughput;

pub use adversary::{run_adversary, AdversaryConfig};
pub use chaos::{run_chaos, ChaosConfig, ChaosFailure, ChaosReport};
pub use clock::{ClockMode, SimClock, TICKS_PER_ROUND, TICKS_PER_UNIT};
pub use config::{
    build_engine, run_experiment, run_experiment_recorded, ExperimentConfig,
    ExperimentConfigBuilder, SchemeKind, Sizing,
};
pub use durability::{run_durability, DurabilityConfig};
pub use engine::{Admission, Engine, NoCacheEngine, SchemeEngine};
pub use error::SimError;
pub use event::Event;
pub use fault::{run_churn, ChurnConfig, ChurnReport, FaultAction, FaultEvent, FaultPlan};
pub use hiergd::{HierGdEngine, HierGdOptions};
pub use metrics::{latency_gain_percent, ClassCounts, RunMetrics};
pub use net::{HitClass, LatencyModel, NetworkModel};
pub use overload::{run_overload, OverloadConfig};
pub use recorder::{
    EventLogRecorder, NoopRecorder, Recorder, SimEvent, SimEventKind, StatsRecorder, StatsSnapshot,
};
pub use scenario::{Field, Row, ScenarioReport};
pub use site::{SiteTier, TierTraffic, TwoTierLfuSite};
pub use squirrel::SquirrelEngine;
pub use sweep::{gain_curve, sweep, sweep_recorded, SweepResult, PAPER_CACHE_FRACS};
pub use throughput::{measure_throughput, ThroughputPoint, ThroughputReport};
pub use webcache_p2p::{
    MessageClass, OverloadDefense, SendOutcome, TransportFaults, UnreliableTransport,
};
