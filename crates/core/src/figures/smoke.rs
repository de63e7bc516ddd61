//! The fixed configs the test suite pins under `tests/golden/`: each
//! scenario sweep at a size the suite runs in about a second (run by its
//! function here), and four churn drills. Each config is a row of [`super::FIGURES`] in
//! one clock, named for it: `<sweep>_smoke` and `<sweep>_smoke_event`,
//! `churn_plan`, `churn_crashes_event`, `churn_1000` and
//! `churn_1000_event`.

use crate::error::SimError;
use crate::fault::{ChurnConfig, FaultPlan};
use crate::scenario::ScenarioReport;
use crate::{run_adversary, run_durability, run_overload, AdversaryConfig, ClockMode};
use crate::{DurabilityConfig, NetworkModel, OverloadConfig};

/// A sweep small enough for the test suite but big enough that forgers
/// poison a measurable slice of the directory: one fraction, undefended
/// vs a 25% spot-check rate.
pub(super) fn adversary(clock: ClockMode) -> Result<ScenarioReport, SimError> {
    run_adversary(&AdversaryConfig {
        base: ChurnConfig {
            requests: 6_000,
            distinct_objects: 400,
            trace_clients: 20,
            clients_per_cluster: 20,
            proxy_capacity: 20,
            client_cache_capacity: 4,
            clock,
            ..ChurnConfig::default()
        },
        attacker_fracs: vec![0.10],
        audit_rates: vec![0.0, 0.25],
        forge_rate: 0.5,
        strikes: 3,
        seed: 0x00AD_5E11,
    })
}

/// A sweep small enough for the test suite but big enough that the 8×
/// spike drives the event-clock proxy into overload: the latency model
/// is scaled down 16× so the baseline has service headroom and the
/// spike — not the steady state — is what saturates the queue.
pub(super) fn overload(clock: ClockMode) -> Result<ScenarioReport, SimError> {
    run_overload(&OverloadConfig {
        base: ChurnConfig {
            requests: 8_000,
            distinct_objects: 400,
            trace_clients: 20,
            clients_per_cluster: 20,
            client_cache_capacity: 2,
            clock,
            net: NetworkModel::default().scaled(1.0 / 16.0),
            ..ChurnConfig::default()
        },
        intensities: vec![8],
        spike_at: 1_000,
        spike_span: 3_000,
        ..OverloadConfig::default()
    })
}

/// A sweep small enough for the test suite but big enough that an
/// 8-machine domain failure in a 32-machine cluster genuinely destroys
/// blindly-placed replica sets: one quarter of the overlay dies at
/// request 2,000, with the latency model scaled down 16× so the
/// event-clock repair pricing has service headroom to show up in.
pub(super) fn durability(clock: ClockMode) -> Result<ScenarioReport, SimError> {
    run_durability(&DurabilityConfig {
        base: ChurnConfig {
            requests: 8_000,
            distinct_objects: 400,
            trace_clients: 20,
            clients_per_cluster: 32,
            client_cache_capacity: 4,
            clock,
            net: NetworkModel::default().scaled(1.0 / 16.0),
            ..ChurnConfig::default()
        },
        bursts: vec![8],
        ks: vec![2],
        burst_at: 2_000,
        ..DurabilityConfig::default()
    })
}

/// An explicit plan of every membership fault but a partition — four
/// crashes, a departure, a rejoin and a slow node — with 1 % message
/// loss, over 9,000 requests in the compat clock.
pub(super) fn churn_plan() -> ChurnConfig {
    let plan: FaultPlan =
        "crash@900,crash@2100,depart@3300,crash@4500,rejoin@5400,slow@6300,crash@7200,\
         loss=0.01,seed=53710"
            .parse()
            .expect("spec is valid");
    ChurnConfig {
        requests: 9_000,
        distinct_objects: 1_200,
        trace_clients: 40,
        clients_per_cluster: 32,
        trace_seed: 0xBEEF,
        plan,
        clock: ClockMode::Compat,
        ..ChurnConfig::default()
    }
}

/// `webcache churn --crashes 10 --loss 0.01 --seed 2003 --clock event`:
/// ten crashes spread evenly over the default 40,000-request run.
pub(super) fn churn_crashes_event() -> ChurnConfig {
    let base = ChurnConfig { clock: ClockMode::Event, ..ChurnConfig::default() };
    let crashes = FaultPlan::spread_crashes(10, base.requests as u64);
    ChurnConfig { plan: FaultPlan { loss: 0.01, seed: 2003, ..crashes }, ..base }
}

/// The drill at the paper's largest cluster, 1,000 clients: silent
/// crashes, a departure and a rejoin, a 70/30 partition and its heal —
/// the only pinned drill whose overlay joins, fails and splits at that
/// size.
pub(super) fn churn_1000(clock: ClockMode) -> ChurnConfig {
    ChurnConfig {
        requests: 200_000,
        distinct_objects: 5_000,
        clients_per_cluster: 1_000,
        replication: 2,
        clock,
        plan: "crash@20000,depart@50000,rejoin@80000,partition@100000{70|30},crash@120000,\
               heal@150000,crash@170000,seed=7"
            .parse()
            .expect("spec is valid"),
        ..ChurnConfig::default()
    }
}
