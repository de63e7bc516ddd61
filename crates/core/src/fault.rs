//! Deterministic fault injection: plans, the churn harness, its report.
//!
//! The paper's simulations (§5) assume a stable client population; §4.1
//! only gestures at Pastry's self-organization. This module measures what
//! actually happens when that assumption breaks. A [`FaultPlan`] schedules
//! **unannounced crashes** (nobody is told — detection is lazy, paid for
//! in timeouts), graceful departures, rejoins, slow nodes, and a
//! message-loss probability at fixed request indices; [`run_churn`]
//! drives a Hier-GD engine through the plan twice — once faulty, once
//! fault-free on the same trace — and reports detection latency, stale
//! directory hits, re-replications, availability, and the latency delta
//! in a [`ChurnReport`].
//!
//! Everything is seeded: the same plan, trace seed and topology reproduce
//! the same report bit for bit (the golden churn test pins this).
//!
//! The drill runs through the discrete-event clock in **both** modes:
//! faults are genuine scheduled events on the time wheel, arrivals
//! self-schedule one round apart. [`ClockMode::Compat`] prices requests
//! analytically at arrival (byte-identical to the pre-clock harness);
//! [`ClockMode::Event`] serializes requests through the proxy's busy
//! period, so a slow node becomes queuing delay instead of an additive
//! penalty.
//!
//! Every detection in this module — dead-node probes, slow-node stalls,
//! breaker trips — is priced in units of the single timeout constant:
//! `t_timeout = TIMEOUT_RTT_MULTIPLE · Tp2p` (see
//! [`webcache_primitives::TIMEOUT_RTT_MULTIPLE`], the one source of
//! truth the transport and the network model both derive from).
//!
//! **Overload.** `spike@N:SPAN:X` compresses the arrival schedule into a
//! flash crowd; under the event clock the backlog can then outlive the
//! spike — the metastable failure mode. The defense keys (`breaker=K`,
//! `budget=F`, `shed=HI:LO`) arm per-destination circuit breakers and
//! retry budgets on the transport and watermark load shedding in the
//! drive loop. All defense randomness draws from `derive(seed,
//! "overload")`: with the defenses disarmed that stream is never
//! touched, so every pre-overload golden stays byte-identical.

use crate::clock::{ticks_of, ClockMode, SimClock, TICKS_PER_ROUND, TICKS_PER_UNIT};
use crate::engine::{Admission, SchemeEngine};
use crate::error::SimError;
use crate::event::Event;
use crate::hiergd::{HierGdEngine, HierGdOptions};
use crate::metrics::RunMetrics;
use crate::net::{HitClass, NetworkModel};
use crate::recorder::{StatsRecorder, StatsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::Arc;
use webcache_p2p::{Behavior, NetFaults, OverloadDefense, TransportFaults};
use webcache_pastry::NodeId;
use webcache_primitives::seed::{derive, SeedStream};
use webcache_primitives::Log2Histogram;
use webcache_workload::Trace;

/// Quiet interval a tripped circuit breaker stays open before its
/// half-open probe, in sends toward the tripped destination (the
/// breaker also adds a small seeded jitter so a fleet of breakers never
/// probes in lockstep). The `breaker=K` plan key arms breakers with
/// this interval.
pub const DEFAULT_BREAKER_QUIET: u64 = 64;

/// Retry-budget token cap armed by the `budget=F` plan key: a node can
/// bank at most this many retransmissions' worth of budget, however
/// long its clean streak.
pub const DEFAULT_RETRY_BUDGET_CAP: u64 = 32;

/// One scheduled fault, applied before the request at its index is served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill a machine silently: no announcement, lazy detection.
    Crash,
    /// Graceful departure: residents are handed off first.
    Depart,
    /// A fresh machine joins the cluster.
    Rejoin,
    /// Mark a machine slow: requests it serves stall one timeout.
    Slow,
    /// Cut the overlay into two islands. The payload is the percentage of
    /// live machines on the **A** side — the side the proxy stays
    /// connected to; the rest form island B, unreachable until `heal`.
    Partition(u8),
    /// Merge the islands back and run the anti-entropy reconciliation
    /// sweep (no-op if the overlay is whole).
    Heal,
    /// Turn a machine into a free-rider: it accepts destages and sends
    /// store receipts, then silently discards the objects, and refuses
    /// to host diversions for neighbors.
    FreeRide,
    /// Turn a machine into a receipt forger: whenever a directory entry
    /// is dropped by replacement, it re-claims the object it never held
    /// with probability `rate` (stored in per-mille).
    Forge(u16),
    /// Turn a machine into a garbage responder: it acks fetches then
    /// serves a corrupted payload with probability `rate` (per-mille),
    /// caught by the xxhash checksum.
    Garble(u16),
    /// A flash crowd: for the next `span` requests, arrivals self-schedule
    /// `times`× closer together than the nominal one-round gap. Pure
    /// arrival-schedule state — no engine mutation, no target draw — so
    /// adding a spike to a plan never reshuffles what its other events hit.
    Spike {
        /// How many requests the compressed arrival window covers.
        span: u32,
        /// Arrival-rate multiplier (integer ×, at least 2).
        times: u16,
    },
    /// Correlated failure: crash **every** live machine in failure domain
    /// `D` at once (rack power, a bad kernel push). Targets are fully
    /// determined by the domain assignment — the action consumes no
    /// target-selection draws, so adding it to a plan never reshuffles
    /// what the other events hit. Requires the `domains=D` key.
    DomainFail(u32),
    /// A burst: `K` simultaneous seeded crashes (uncorrelated machines
    /// dying in the same instant). Each target comes from the same picks
    /// stream as a scheduled `crash@`, so `burst@N:3` hits exactly the
    /// machines three consecutive `crash@N` tokens would.
    Burst(u32),
}

impl FaultAction {
    /// The spec-grammar keyword (`crash@N` etc.).
    pub fn keyword(&self) -> &'static str {
        match self {
            FaultAction::Crash => "crash",
            FaultAction::Depart => "depart",
            FaultAction::Rejoin => "rejoin",
            FaultAction::Slow => "slow",
            FaultAction::Partition(_) => "partition",
            FaultAction::Heal => "heal",
            FaultAction::FreeRide => "freeride",
            FaultAction::Forge(_) => "forge",
            FaultAction::Garble(_) => "garble",
            FaultAction::Spike { .. } => "spike",
            FaultAction::DomainFail(_) => "domainfail",
            FaultAction::Burst(_) => "burst",
        }
    }
}

/// A fault scheduled at a request index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Request index the fault fires before (0-based).
    pub at: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic fault schedule for one churn run.
///
/// Parsed from a small spec string — comma- or semicolon-separated
/// tokens of `crash@N`, `depart@N`, `rejoin@N`, `slow@N`,
/// `partition@N{A|B}` (cut the overlay before request `N`, with `A`% of
/// the live machines staying on the proxy's side and `B`% islanded;
/// `A + B` must be 100), `heal@N`, `loss=F`, `seed=N`, and the
/// message-level transport keys `mloss=F`, `dup=F`, `reorder=F`,
/// `corrupt=F`, plus `window=N` (serve only the first `N` requests —
/// how the chaos shrinker narrows a failing plan while keeping the spec
/// replayable). Three adversary verbs turn machines hostile:
/// `freeride@N` (accept destages, send receipts, silently discard),
/// `forge@N:R` (re-claim dropped directory entries with probability `R`
/// in `(0, 1]`), and `garble@N:R` (serve corrupted payloads with
/// probability `R`). `spike@N:SPAN:X` schedules a flash crowd: the
/// `SPAN` requests after `N` arrive `X`× closer together (X ≥ 2). Three
/// defense keys arm the overload-resilience layer — `breaker=K`
/// (per-destination circuit breakers trip after `K` consecutive
/// timeout-priced failures), `budget=F` (per-node retry budgets refilled
/// by fraction `F` of clean successes), and `shed=H:L` (watermark load
/// shedding: above a backlog of `H` rounds the proxy degrades arrivals
/// straight to the origin, until the backlog drains below `L` rounds):
///
/// ```
/// use webcache_sim::fault::FaultPlan;
/// let plan: FaultPlan = "crash@100, crash@200; rejoin@500, loss=0.01".parse().unwrap();
/// assert_eq!(plan.events.len(), 3);
/// assert!((plan.loss - 0.01).abs() < 1e-12);
/// ```
///
/// Target nodes are *not* named in the spec: they are drawn from the live
/// membership by a splitmix64 stream seeded with `seed`, which keeps
/// plans topology-independent yet fully reproducible. Duplicate
/// `key=value` tokens are rejected (a typo'd spec silently overriding
/// itself is exactly the kind of bug a reproducer spec cannot afford);
/// duplicate *event* indices are allowed — two crashes in the same
/// request gap are a legitimate schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, sorted by request index (stable for ties).
    pub events: Vec<FaultEvent>,
    /// Per-hop message loss probability in `[0, 1)` (the PR-3 overlay
    /// fault coin; distinct from the transport-level `mloss`).
    pub loss: f64,
    /// Transport-level per-attempt message loss in `[0, 1)`.
    pub mloss: f64,
    /// Transport-level delivery duplication probability in `[0, 1)`.
    pub dup: f64,
    /// Transport-level delivery reordering probability in `[0, 1)`.
    pub reorder: f64,
    /// Transport-level payload corruption probability in `[0, 1)`.
    pub corrupt: f64,
    /// Circuit-breaker trip threshold: consecutive timeout-priced
    /// failures to one destination before sends to it fail fast
    /// (0 = breakers off).
    pub breaker: u32,
    /// Retry-budget refill ratio: tokens earned per clean first-attempt
    /// success, as a fraction in `(0, 1]` (0 = budgets off; ladders
    /// retry freely).
    pub budget: f64,
    /// Load-shed high watermark in rounds of proxy backlog
    /// (0 = shedding off). Event-clock mode only: compat mode has no
    /// queue to measure.
    pub shed_high: u64,
    /// Load-shed low watermark in rounds: shedding stops once the
    /// backlog drains below this. Must sit below `shed_high`.
    pub shed_low: u64,
    /// Correlated failure domains the cluster is carved into
    /// (0 = domains off). Every machine is assigned a domain from the
    /// `derive(seed, "domains")` stream; `domainfail@N:D` then crashes
    /// all of domain `D` at once, and replica placement spreads copies
    /// across distinct domains (unless the drill runs blind).
    pub domains: u32,
    /// Proactive-repair scan budget per round (0 = reactive only). Each
    /// round the background repair scheduler probes one suspect corpse,
    /// drains limbo, and walks up to this many directory entries looking
    /// for below-floor replica sets. Scanning reads the proxy's own
    /// directory and is free; under the event clock every entry a step
    /// actually restores is priced as real proxy work (the copy moved
    /// over the LAN).
    pub repair: u32,
    /// Serve only the first `window` requests of the trace (0 = all).
    pub window: u64,
    /// Seed for target selection, the loss stream, and the transport.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no events, no loss. Running under it is
    /// bit-identical to a fault-free run.
    pub fn none() -> Self {
        FaultPlan {
            events: Vec::new(),
            loss: 0.0,
            mloss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            breaker: 0,
            budget: 0.0,
            shed_high: 0,
            shed_low: 0,
            domains: 0,
            repair: 0,
            window: 0,
            seed: 0,
        }
    }

    /// True if this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
            && self.loss <= 0.0
            && !self.has_transport()
            && !self.has_overload_defense()
            && !self.has_durability()
    }

    /// True when any transport-level fault probability is set; only then
    /// is an [`webcache_p2p::UnreliableTransport`] installed, so plans
    /// without the new keys stay bit-identical to their pre-transport
    /// runs.
    pub fn has_transport(&self) -> bool {
        self.mloss > 0.0 || self.dup > 0.0 || self.reorder > 0.0 || self.corrupt > 0.0
    }

    /// The transport fault configuration this plan describes, with the
    /// transport's seed derived from the plan seed (label-separated from
    /// the target-selection and per-hop loss streams).
    pub fn transport_faults(&self) -> TransportFaults {
        TransportFaults {
            loss: self.mloss,
            duplication: self.dup,
            reorder: self.reorder,
            corruption: self.corrupt,
            seed: derive(self.seed, "transport"),
        }
    }

    /// This plan with a different selection/loss seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds one event, keeping the schedule sorted.
    pub fn push(&mut self, at: u64, action: FaultAction) {
        self.events.push(FaultEvent { at, action });
        self.events.sort_by_key(|e| e.at);
    }

    /// Scheduled events of one kind.
    pub fn count(&self, action: FaultAction) -> usize {
        self.events.iter().filter(|e| e.action == action).count()
    }

    /// True when the schedule cuts the overlay at least once.
    pub fn has_partition(&self) -> bool {
        self.events.iter().any(|e| matches!(e.action, FaultAction::Partition(_)))
    }

    /// True when the schedule compresses the arrival rate at least once.
    pub fn has_spike(&self) -> bool {
        self.events.iter().any(|e| matches!(e.action, FaultAction::Spike { .. }))
    }

    /// True when any overload defense is configured — breakers, retry
    /// budgets, or watermark shedding. Only then is the defense layer
    /// armed (and the overload block of the report rendered), so plans
    /// without the defense keys stay bit-identical to their pre-overload
    /// runs.
    pub fn has_overload_defense(&self) -> bool {
        self.breaker > 0 || self.budget > 0.0 || self.shed_high > 0
    }

    /// The transport-level overload defense this plan describes
    /// (breakers + retry budgets; shedding lives in the drive loop).
    /// The defense's jitter seed is derived with its own label, so
    /// arming it never reshuffles target selection, per-hop loss or the
    /// transport streams — and a disarmed defense draws nothing at all.
    pub fn overload_defense(&self) -> OverloadDefense {
        OverloadDefense {
            breaker_threshold: self.breaker,
            breaker_quiet: if self.breaker > 0 { DEFAULT_BREAKER_QUIET } else { 0 },
            retry_budget_ratio: self.budget,
            retry_budget_cap: if self.budget > 0.0 { DEFAULT_RETRY_BUDGET_CAP } else { 0 },
            seed: derive(self.seed, "overload"),
        }
    }

    /// True when the plan exercises the durability subsystem — failure
    /// domains, the proactive repair scheduler, or a correlated/burst
    /// failure event. Only then are domains assigned, the repair pacer
    /// armed, and the durability block of the report rendered, so plans
    /// without the new knobs stay bit-identical to their pre-durability
    /// runs.
    pub fn has_durability(&self) -> bool {
        self.domains > 0
            || self.repair > 0
            || self
                .events
                .iter()
                .any(|e| matches!(e.action, FaultAction::DomainFail(_) | FaultAction::Burst(_)))
    }

    /// True when the schedule turns at least one machine hostile. Only
    /// then is the misbehavior subsystem (and the audit defense) armed,
    /// so plans without the adversary keys stay bit-identical to their
    /// pre-adversary runs.
    pub fn has_adversary(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.action,
                FaultAction::FreeRide | FaultAction::Forge(_) | FaultAction::Garble(_)
            )
        })
    }

    /// Renders the plan back into its spec grammar (round-trips through
    /// [`FromStr`] up to token order and float formatting).
    pub fn to_spec(&self) -> String {
        let mut parts: Vec<String> = self
            .events
            .iter()
            .map(|e| match e.action {
                FaultAction::Partition(pct) => {
                    format!("partition@{}{{{}|{}}}", e.at, pct, 100 - pct)
                }
                FaultAction::Forge(pm) | FaultAction::Garble(pm) => {
                    format!("{}@{}:{}", e.action.keyword(), e.at, f64::from(pm) / 1000.0)
                }
                FaultAction::Spike { span, times } => {
                    format!("spike@{}:{}:{}", e.at, span, times)
                }
                FaultAction::DomainFail(d) => format!("domainfail@{}:{}", e.at, d),
                FaultAction::Burst(k) => format!("burst@{}:{}", e.at, k),
                action => format!("{}@{}", action.keyword(), e.at),
            })
            .collect();
        if self.loss > 0.0 {
            parts.push(format!("loss={}", self.loss));
        }
        if self.mloss > 0.0 {
            parts.push(format!("mloss={}", self.mloss));
        }
        if self.dup > 0.0 {
            parts.push(format!("dup={}", self.dup));
        }
        if self.reorder > 0.0 {
            parts.push(format!("reorder={}", self.reorder));
        }
        if self.corrupt > 0.0 {
            parts.push(format!("corrupt={}", self.corrupt));
        }
        if self.breaker > 0 {
            parts.push(format!("breaker={}", self.breaker));
        }
        if self.budget > 0.0 {
            parts.push(format!("budget={}", self.budget));
        }
        if self.shed_high > 0 {
            parts.push(format!("shed={}:{}", self.shed_high, self.shed_low));
        }
        if self.domains > 0 {
            parts.push(format!("domains={}", self.domains));
        }
        if self.repair > 0 {
            parts.push(format!("repair={}", self.repair));
        }
        if self.window > 0 {
            parts.push(format!("window={}", self.window));
        }
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        parts.join(",")
    }
}

impl FromStr for FaultPlan {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        /// One token of the spec and its byte offset. Every bad value is
        /// reported the same way: what it was meant to be, its text, the
        /// token it sits in and where that token starts.
        #[derive(Clone, Copy)]
        struct Token<'a> {
            token: &'a str,
            at: usize,
        }
        impl Token<'_> {
            fn value<T: FromStr>(self, what: &str, text: &str) -> Result<T, SimError> {
                let text = text.trim();
                text.parse().map_err(|_| {
                    SimError::InvalidConfig(format!(
                        "bad {what} '{text}' in '{}' at byte {}",
                        self.token, self.at
                    ))
                })
            }
            fn probability(self, key: &str, text: &str) -> Result<f64, SimError> {
                let p: f64 = self.value(&format!("{key} probability"), text)?;
                if !(0.0..1.0).contains(&p) {
                    return Err(SimError::InvalidConfig(format!(
                        "{key} in '{}' at byte {} must be in [0, 1), got {p}",
                        self.token, self.at
                    )));
                }
                Ok(p)
            }
        }
        let mut plan = FaultPlan::none();
        let mut seen_keys: Vec<&str> = Vec::new();
        // Byte offset of the current piece within `s`, so every error can
        // point at the offending token (a shrunk reproducer spec is often
        // machine-assembled and hand-edited — "unknown key" without a
        // position is not actionable in a 20-token spec).
        let mut offset = 0usize;
        for raw in s.split([',', ';']) {
            let token = raw.trim();
            let token_at = offset + (raw.len() - raw.trim_start().len());
            offset += raw.len() + 1;
            if token.is_empty() {
                continue;
            }
            let tok = Token { token, at: token_at };
            if let Some((key, text)) = token.split_once('=') {
                let key = key.trim();
                if seen_keys.contains(&key) {
                    return Err(SimError::InvalidConfig(format!(
                        "duplicate fault key '{key}' at byte {token_at} (a spec overriding \
                         itself is a typo)"
                    )));
                }
                match key {
                    "loss" => plan.loss = tok.probability(key, text)?,
                    "mloss" => plan.mloss = tok.probability(key, text)?,
                    "dup" => plan.dup = tok.probability(key, text)?,
                    "reorder" => plan.reorder = tok.probability(key, text)?,
                    "corrupt" => plan.corrupt = tok.probability(key, text)?,
                    "window" => plan.window = tok.value("window", text)?,
                    "seed" => plan.seed = tok.value("seed", text)?,
                    "breaker" => {
                        plan.breaker = tok.value("breaker threshold", text)?;
                    }
                    "budget" => {
                        let f: f64 = tok.value("budget ratio", text)?;
                        if !(f > 0.0 && f <= 1.0) {
                            return Err(SimError::InvalidConfig(format!(
                                "budget ratio in '{token}' at byte {token_at} must be in \
                                 (0, 1], got {f}"
                            )));
                        }
                        plan.budget = f;
                    }
                    "shed" => {
                        let Some((hi, lo)) = text.split_once(':') else {
                            return Err(SimError::InvalidConfig(format!(
                                "shed key '{token}' at byte {token_at} needs both watermarks \
                                 (expected shed=H:L in rounds of backlog, e.g. shed=48:12)"
                            )));
                        };
                        let high: u64 = tok.value("shed watermark", hi)?;
                        let low: u64 = tok.value("shed watermark", lo)?;
                        if high == 0 || low >= high {
                            return Err(SimError::InvalidConfig(format!(
                                "shed watermarks in '{token}' at byte {token_at} must satisfy \
                                 H > L >= 0, got {high}:{low}"
                            )));
                        }
                        plan.shed_high = high;
                        plan.shed_low = low;
                    }
                    "domains" => {
                        let d: u32 = tok.value("domain count", text)?;
                        if d == 0 {
                            return Err(SimError::InvalidConfig(format!(
                                "domain count in '{token}' at byte {token_at} must be at \
                                 least 1 (omit the key to leave domains off)"
                            )));
                        }
                        plan.domains = d;
                    }
                    "repair" => {
                        let n: u32 = tok.value("repair budget", text)?;
                        if n == 0 {
                            return Err(SimError::InvalidConfig(format!(
                                "repair budget in '{token}' at byte {token_at} must be at \
                                 least 1 scan per round (omit the key for reactive-only)"
                            )));
                        }
                        plan.repair = n;
                    }
                    other => {
                        return Err(SimError::InvalidConfig(format!(
                            "unknown fault key '{other}' in '{token}' at byte {token_at} \
                             (expected loss, mloss, dup, reorder, corrupt, breaker, budget, \
                             shed, domains, repair, window or seed)"
                        )));
                    }
                }
                seen_keys.push(key);
                continue;
            }
            let Some((verb, rest)) = token.split_once('@') else {
                return Err(SimError::InvalidConfig(format!(
                    "bad fault token '{token}' at byte {token_at} (expected verb@index, \
                     loss=p or seed=n)"
                )));
            };
            let (at_str, action) = match verb.trim() {
                "crash" => (rest, FaultAction::Crash),
                "depart" => (rest, FaultAction::Depart),
                "rejoin" => (rest, FaultAction::Rejoin),
                "slow" => (rest, FaultAction::Slow),
                "heal" => (rest, FaultAction::Heal),
                "freeride" => (rest, FaultAction::FreeRide),
                verb @ ("forge" | "garble") => {
                    let Some((at, rate_str)) = rest.split_once(':') else {
                        return Err(SimError::InvalidConfig(format!(
                            "{verb} token '{token}' at byte {token_at} is missing its rate \
                             (expected {verb}@N:R with R in (0, 1], e.g. {verb}@100:0.25)"
                        )));
                    };
                    let rate: f64 = tok.value(&format!("{verb} rate"), rate_str)?;
                    if !(rate > 0.0 && rate <= 1.0) {
                        return Err(SimError::InvalidConfig(format!(
                            "{verb} rate in '{token}' at byte {token_at} must be in (0, 1], \
                             got {rate}"
                        )));
                    }
                    // Per-mille keeps the action Copy + Eq; a positive
                    // rate never rounds down to "never fires".
                    let pm = ((rate * 1000.0).round() as u16).max(1);
                    (
                        at,
                        if verb == "forge" {
                            FaultAction::Forge(pm)
                        } else {
                            FaultAction::Garble(pm)
                        },
                    )
                }
                "spike" => {
                    let Some((at, tail)) = rest.split_once(':') else {
                        return Err(SimError::InvalidConfig(format!(
                            "spike token '{token}' at byte {token_at} is missing its span and \
                             intensity (expected spike@N:SPAN:X, e.g. spike@2000:1024:8)"
                        )));
                    };
                    let Some((span_str, times_str)) = tail.split_once(':') else {
                        return Err(SimError::InvalidConfig(format!(
                            "spike token '{token}' at byte {token_at} is missing its intensity \
                             (expected spike@N:SPAN:X, e.g. spike@2000:1024:8)"
                        )));
                    };
                    let span: u32 = tok.value("spike span", span_str)?;
                    let times: u16 = tok.value("spike intensity", times_str)?;
                    if span == 0 {
                        return Err(SimError::InvalidConfig(format!(
                            "spike span in '{token}' at byte {token_at} must cover at least \
                             one request"
                        )));
                    }
                    if times < 2 {
                        return Err(SimError::InvalidConfig(format!(
                            "spike intensity in '{token}' at byte {token_at} must be at \
                             least 2x, got {times}"
                        )));
                    }
                    (at, FaultAction::Spike { span, times })
                }
                "partition" => {
                    let Some((at, cut)) = rest.split_once('{') else {
                        return Err(SimError::InvalidConfig(format!(
                            "partition token '{token}' at byte {token_at} is missing its \
                             island split (expected partition@N{{A|B}}, e.g. partition@100{{60|40}})"
                        )));
                    };
                    let Some(body) = cut.trim().strip_suffix('}') else {
                        return Err(SimError::InvalidConfig(format!(
                            "partition token '{token}' at byte {token_at} has an unterminated \
                             '{{' (expected partition@N{{A|B}})"
                        )));
                    };
                    let Some((a, b)) = body.split_once('|') else {
                        return Err(SimError::InvalidConfig(format!(
                            "partition token '{token}' at byte {token_at} needs two island \
                             percentages separated by '|' (expected partition@N{{A|B}})"
                        )));
                    };
                    let pa: u8 = tok.value("island percentage", a)?;
                    let pb: u8 = tok.value("island percentage", b)?;
                    if u32::from(pa) + u32::from(pb) != 100 {
                        return Err(SimError::InvalidConfig(format!(
                            "island percentages in '{token}' at byte {token_at} must sum to \
                             100, got {pa} + {pb}"
                        )));
                    }
                    if !(1..=99).contains(&pa) {
                        return Err(SimError::InvalidConfig(format!(
                            "each island in '{token}' at byte {token_at} needs between 1% and \
                             99% of the machines"
                        )));
                    }
                    (at, FaultAction::Partition(pa))
                }
                verb @ ("domainfail" | "burst") => {
                    let Some((at, payload_str)) = rest.split_once(':') else {
                        return Err(SimError::InvalidConfig(format!(
                            "{verb} token '{token}' at byte {token_at} is missing its {} \
                             (expected {verb}@N:{}, e.g. {verb}@100:{})",
                            if verb == "domainfail" { "domain" } else { "size" },
                            if verb == "domainfail" { "D" } else { "K" },
                            if verb == "domainfail" { "2" } else { "3" },
                        )));
                    };
                    let what =
                        if verb == "domainfail" { "domainfail domain" } else { "burst size" };
                    let payload: u32 = tok.value(what, payload_str)?;
                    if verb == "burst" {
                        if payload < 2 {
                            return Err(SimError::InvalidConfig(format!(
                                "burst size in '{token}' at byte {token_at} must be at \
                                 least 2 simultaneous crashes (use crash@N for one)"
                            )));
                        }
                        (at, FaultAction::Burst(payload))
                    } else {
                        (at, FaultAction::DomainFail(payload))
                    }
                }
                other => {
                    return Err(SimError::InvalidConfig(format!(
                        "unknown fault verb '{other}' in '{token}' at byte {token_at} \
                         (expected crash, depart, rejoin, slow, partition, heal, freeride, \
                         forge, garble, spike, domainfail or burst)"
                    )));
                }
            };
            let at: u64 = tok.value("request index", at_str)?;
            plan.events.push(FaultEvent { at, action });
        }
        // Cross-token validation: a domainfail names a domain that must
        // exist, and the domains= key may sit anywhere in the spec.
        for e in &plan.events {
            if let FaultAction::DomainFail(d) = e.action {
                if plan.domains == 0 {
                    return Err(SimError::InvalidConfig(format!(
                        "domainfail@{}:{d} needs the domains=D key (the cluster is not \
                         carved into failure domains)",
                        e.at
                    )));
                }
                if d >= plan.domains {
                    return Err(SimError::InvalidConfig(format!(
                        "domainfail@{}:{d} names a domain outside 0..{} (domains={})",
                        e.at, plan.domains, plan.domains
                    )));
                }
            }
        }
        plan.events.sort_by_key(|e| e.at);
        Ok(plan)
    }
}

/// Configuration of one churn drill: topology, workload, and the plan.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Requests to serve.
    pub requests: usize,
    /// Distinct objects in the synthetic workload.
    pub distinct_objects: usize,
    /// Clients issuing requests in the trace.
    pub trace_clients: usize,
    /// Client cache machines in the cluster (overlay size).
    pub clients_per_cluster: usize,
    /// Proxy cache capacity in objects.
    pub proxy_capacity: usize,
    /// One client cache's capacity in objects.
    pub client_cache_capacity: usize,
    /// Leaf-set replication factor `k` (1 = primary only).
    pub replication: usize,
    /// Workload generator seed.
    pub trace_seed: u64,
    /// Latency model (including the `t_timeout` penalty).
    pub net: NetworkModel,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Clock mode driving the drill (see the module docs).
    pub clock: ClockMode,
    /// Probability that the proxy audits a store receipt with a
    /// possession challenge (the spot-check defense; 0 = undefended).
    /// Only takes effect when the plan schedules at least one adversary.
    pub audit_rate: f64,
    /// Failed audits before a node is quarantined (min 1).
    pub audit_strikes: u32,
    /// Ignore failure domains when placing replicas (the undefended
    /// placement cell of the durability sweep). A config-level flag
    /// rather than a plan key so a defended/naive pair can share one
    /// plan spec — identical failure injection, different placement.
    /// No effect unless the plan sets `domains=`.
    pub blind_placement: bool,
}

impl Default for ChurnConfig {
    /// A mid-size drill: 40 000 requests over a 64-machine cluster with
    /// `k = 2` replication — large enough for crashes to land on loaded
    /// nodes, small enough for CI.
    fn default() -> Self {
        ChurnConfig {
            requests: 40_000,
            distinct_objects: 2_000,
            trace_clients: 50,
            clients_per_cluster: 64,
            proxy_capacity: 100,
            client_cache_capacity: 4,
            replication: 2,
            trace_seed: 0xC0FFEE,
            net: NetworkModel::default(),
            plan: FaultPlan::none(),
            clock: ClockMode::default(),
            audit_rate: 0.0,
            audit_strikes: 3,
            blind_placement: false,
        }
    }
}

impl ChurnConfig {
    /// Validates ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.requests == 0 {
            return Err(SimError::InvalidConfig("requests must be positive".into()));
        }
        if self.clients_per_cluster == 0 {
            return Err(SimError::InvalidConfig("clients_per_cluster must be positive".into()));
        }
        if self.replication == 0 {
            return Err(SimError::InvalidConfig("replication factor must be >= 1".into()));
        }
        for (name, p) in [
            ("loss", self.plan.loss),
            ("mloss", self.plan.mloss),
            ("dup", self.plan.dup),
            ("reorder", self.plan.reorder),
            ("corrupt", self.plan.corrupt),
        ] {
            if !(0.0..1.0).contains(&p) {
                return Err(SimError::InvalidConfig(format!("{name} must be in [0, 1), got {p}")));
            }
        }
        if !(0.0..=1.0).contains(&self.plan.budget) {
            return Err(SimError::InvalidConfig(format!(
                "budget ratio must be in [0, 1], got {}",
                self.plan.budget
            )));
        }
        if self.plan.shed_high > 0 && self.plan.shed_low >= self.plan.shed_high {
            return Err(SimError::InvalidConfig(format!(
                "shed low watermark must sit below the high watermark, got {}:{}",
                self.plan.shed_high, self.plan.shed_low
            )));
        }
        if !(0.0..=1.0).contains(&self.audit_rate) {
            return Err(SimError::InvalidConfig(format!(
                "audit_rate must be in [0, 1], got {}",
                self.audit_rate
            )));
        }
        if self.audit_strikes == 0 {
            return Err(SimError::InvalidConfig("audit_strikes must be >= 1".into()));
        }
        // Programmatically-built plans (the chaos explorer uses `push`)
        // bypass the parser's cross-token check, so re-validate here.
        for e in &self.plan.events {
            if let FaultAction::DomainFail(d) = e.action {
                if self.plan.domains == 0 || d >= self.plan.domains {
                    return Err(SimError::InvalidConfig(format!(
                        "domainfail@{}:{d} names a domain outside 0..{} (set domains=D)",
                        e.at, self.plan.domains
                    )));
                }
            }
        }
        self.net.validate()
    }
}

/// What a churn drill measured. All latency fields are integer
/// milli-units so the JSON rendering is bit-stable across platforms.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnReport {
    /// Requests served (every request is served — the cascade degrades
    /// to proxy → server, it never fails).
    pub requests: u64,
    /// Requests per hit class, in `HitClass::ALL` order.
    pub served_by_class: [u64; HitClass::ALL.len()],
    /// Served / issued, in percent (structurally 100).
    pub availability_percent: f64,
    /// Silent crashes injected.
    pub crashes: u64,
    /// Graceful departures injected.
    pub departures: u64,
    /// Rejoins injected.
    pub rejoins: u64,
    /// Slow-node marks injected.
    pub slows: u64,
    /// Network partitions injected (overlay cut into two islands).
    pub partitions: u64,
    /// Heal sweeps run. Every cut is healed — at its scheduled `heal@`
    /// event, or implicitly at end of run — so this always equals
    /// `partitions`.
    pub heals: u64,
    /// Directory entries merged by anti-entropy reconciliation on heal.
    pub entries_reconciled: u64,
    /// Split-brain primaries demoted (or garbage-collected) on heal.
    pub primaries_demoted: u64,
    /// Scheduled actions skipped because no live node was left to target
    /// (or a cut/heal found the overlay already in that state).
    pub skipped_actions: u64,
    /// Machines turned into free-riders.
    pub freerides: u64,
    /// Machines turned into receipt forgers.
    pub forges: u64,
    /// Machines turned into garbage responders.
    pub garbles: u64,
    /// Possession challenges the proxy issued (audit defense traffic).
    pub audits_challenged: u64,
    /// Possession challenges the audited node could not answer.
    pub audits_failed: u64,
    /// Store receipts exposed as forged by a failed audit.
    pub forged_receipts: u64,
    /// Nodes quarantined after exhausting their audit strikes.
    pub quarantines: u64,
    /// Fresh machines joined to replace quarantined ones (the expelled
    /// machine is reimaged; the overlay back-fills its capacity).
    pub quarantine_replacements: u64,
    /// True when the plan scheduled at least one adversary (gates the
    /// adversary block of the JSON rendering, keeping pre-adversary
    /// goldens byte-identical).
    pub adversarial: bool,
    /// Flash-crowd windows fired.
    pub spikes: u64,
    /// Cache-fabric admissions skipped by watermark shedding: while the
    /// proxy is above its high watermark the request generates no
    /// destage/diversion background work at all.
    pub shed_background: u64,
    /// Client fetches degraded straight to the origin server by
    /// watermark shedding (same requests as `shed_background`: a shed
    /// request both skips its background work and goes to origin).
    pub degraded_to_origin: u64,
    /// Sends that fail-fasted on an open circuit breaker.
    pub breaker_fast_fails: u64,
    /// Retry ladders abandoned by an exhausted retry budget.
    pub retry_budget_denials: u64,
    /// True when the plan scheduled a spike or configured a defense
    /// (gates the overload block of the JSON rendering, keeping
    /// pre-overload goldens byte-identical).
    pub overloaded: bool,
    /// Correlated domain failures injected.
    pub domainfails: u64,
    /// Simultaneous-crash bursts injected.
    pub bursts: u64,
    /// Objects permanently lost with the no-silent-loss ledger armed:
    /// every loss path increments this exactly once per object (distinct
    /// from the legacy `objects_lost`, which counts crash-reclaim drops
    /// at node granularity).
    pub objects_lost_permanent: u64,
    /// Entries restored to the replica floor by the background repair
    /// scheduler before any request tripped over them.
    pub proactive_repairs: u64,
    /// Directory entries examined by the paced repair scan.
    pub repair_scans: u64,
    /// Worst single-round at-risk gauge (limbo objects plus below-floor
    /// entries seen by the last completed scan cycle).
    pub at_risk_peak: u64,
    /// Sum of the at-risk gauge over all rounds — the area under the
    /// vulnerability curve (gauge × rounds). Smaller is safer.
    pub at_risk_area: u64,
    /// Mean rounds from a loss-capable fault to the at-risk gauge
    /// returning to zero (0 when nothing was ever at risk or the run
    /// ended still exposed).
    pub mean_time_to_repair: f64,
    /// True when the plan exercises durability (gates the durability
    /// block of the JSON rendering, keeping pre-durability goldens
    /// byte-identical).
    pub durability: bool,
    /// Crashes detected by traffic before the trace ended.
    pub detected_crashes: u64,
    /// Crashes still undetected at end of run (no message walked in).
    pub undetected_crashes: u64,
    /// Mean requests between a crash and its detection.
    pub detection_latency_avg: f64,
    /// Worst-case requests between a crash and its detection.
    pub detection_latency_max: u64,
    /// Timeout-equivalent stalls paid (dead nodes, loss, slow nodes).
    pub timeouts: u64,
    /// Timeouts that exposed a crashed node.
    pub dead_node_timeouts: u64,
    /// Directory-approved lookups whose primary died with a crash.
    pub stale_hits: u64,
    /// Stale hits rescued by a leaf-set replica.
    pub stale_hits_replica_served: u64,
    /// Replica promotions that restored the replication factor.
    pub rereplications: u64,
    /// Fresh replica copies created by re-replications.
    pub replica_copies: u64,
    /// Objects lost for good (crash reclaimed with no surviving copy).
    pub objects_lost: u64,
    /// Mean end-to-end latency of the faulty run, in milli-units.
    pub avg_latency_milli: u64,
    /// Mean end-to-end latency of the fault-free twin run, milli-units.
    pub fault_free_avg_latency_milli: u64,
    /// Relative latency degradation vs the fault-free twin, in percent
    /// (the latency-gain delta: how much of the paper's win churn eats).
    pub latency_delta_percent: f64,
    /// `check_invariants` findings at detection points (must be 0).
    pub invariant_violations: u64,
    /// The plan that ran, in spec grammar.
    pub plan_spec: String,
}

impl ChurnReport {
    /// True when every issued request was served.
    pub fn fully_available(&self) -> bool {
        (self.availability_percent - 100.0).abs() < 1e-9
    }

    /// Renders the report as a JSON document with a fixed field order
    /// (hand-rolled: the offline build has no serde_json). Bit-stable
    /// for a fixed seed + plan — the golden churn test diffs it.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"requests\": {},", self.requests);
        s.push_str("  \"served_by_class\": {");
        for (i, class) in HitClass::ALL.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\": {}",
                if i == 0 { "" } else { ", " },
                class.label(),
                self.served_by_class[class.index()]
            );
        }
        s.push_str("},\n");
        let _ = writeln!(s, "  \"availability_percent\": {:.4},", self.availability_percent);
        for (name, v) in [
            ("crashes", self.crashes),
            ("departures", self.departures),
            ("rejoins", self.rejoins),
            ("slows", self.slows),
            ("partitions", self.partitions),
            ("heals", self.heals),
            ("entries_reconciled", self.entries_reconciled),
            ("primaries_demoted", self.primaries_demoted),
            ("skipped_actions", self.skipped_actions),
            ("detected_crashes", self.detected_crashes),
            ("undetected_crashes", self.undetected_crashes),
        ] {
            let _ = writeln!(s, "  \"{name}\": {v},");
        }
        if self.adversarial {
            // Adversary counters appear only for adversarial plans, so
            // every pre-adversary golden stays byte-identical.
            for (name, v) in [
                ("freerides", self.freerides),
                ("forges", self.forges),
                ("garbles", self.garbles),
                ("audits_challenged", self.audits_challenged),
                ("audits_failed", self.audits_failed),
                ("forged_receipts", self.forged_receipts),
                ("quarantines", self.quarantines),
                ("quarantine_replacements", self.quarantine_replacements),
            ] {
                let _ = writeln!(s, "  \"{name}\": {v},");
            }
        }
        if self.overloaded {
            // Overload counters appear only for spiked/defended plans,
            // so every pre-overload golden stays byte-identical.
            for (name, v) in [
                ("spikes", self.spikes),
                ("shed_background", self.shed_background),
                ("degraded_to_origin", self.degraded_to_origin),
                ("breaker_fast_fails", self.breaker_fast_fails),
                ("retry_budget_denials", self.retry_budget_denials),
            ] {
                let _ = writeln!(s, "  \"{name}\": {v},");
            }
        }
        if self.durability {
            // Durability counters appear only for domain/repair plans,
            // so every pre-durability golden stays byte-identical.
            for (name, v) in [
                ("domainfails", self.domainfails),
                ("bursts", self.bursts),
                ("objects_lost_permanent", self.objects_lost_permanent),
                ("proactive_repairs", self.proactive_repairs),
                ("repair_scans", self.repair_scans),
                ("at_risk_peak", self.at_risk_peak),
                ("at_risk_area", self.at_risk_area),
            ] {
                let _ = writeln!(s, "  \"{name}\": {v},");
            }
            let _ = writeln!(s, "  \"mean_time_to_repair\": {:.4},", self.mean_time_to_repair);
        }
        let _ = writeln!(s, "  \"detection_latency_avg\": {:.4},", self.detection_latency_avg);
        for (name, v) in [
            ("detection_latency_max", self.detection_latency_max),
            ("timeouts", self.timeouts),
            ("dead_node_timeouts", self.dead_node_timeouts),
            ("stale_hits", self.stale_hits),
            ("stale_hits_replica_served", self.stale_hits_replica_served),
            ("rereplications", self.rereplications),
            ("replica_copies", self.replica_copies),
            ("objects_lost", self.objects_lost),
            ("avg_latency_milli", self.avg_latency_milli),
            ("fault_free_avg_latency_milli", self.fault_free_avg_latency_milli),
        ] {
            let _ = writeln!(s, "  \"{name}\": {v},");
        }
        let _ = writeln!(s, "  \"latency_delta_percent\": {:.4},", self.latency_delta_percent);
        let _ = writeln!(s, "  \"invariant_violations\": {},", self.invariant_violations);
        let _ = writeln!(s, "  \"plan_spec\": \"{}\"", self.plan_spec);
        s.push_str("}\n");
        s
    }

    /// Renders an aligned text summary for terminals.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{:<28} {:>12}", "requests", self.requests);
        let _ = writeln!(s, "{:<28} {:>11.2}%", "availability", self.availability_percent);
        for (name, v) in [
            ("crashes", self.crashes),
            ("departures", self.departures),
            ("rejoins", self.rejoins),
            ("slows", self.slows),
            ("partitions", self.partitions),
            ("heal sweeps", self.heals),
            ("entries reconciled", self.entries_reconciled),
            ("primaries demoted", self.primaries_demoted),
            ("free-riders", self.freerides),
            ("receipt forgers", self.forges),
            ("garbage responders", self.garbles),
            ("audits challenged", self.audits_challenged),
            ("audits failed", self.audits_failed),
            ("forged receipts caught", self.forged_receipts),
            ("nodes quarantined", self.quarantines),
            ("quarantine replacements", self.quarantine_replacements),
            ("detected crashes", self.detected_crashes),
            ("undetected crashes", self.undetected_crashes),
            ("detection latency max", self.detection_latency_max),
            ("timeouts", self.timeouts),
            ("dead-node timeouts", self.dead_node_timeouts),
            ("stale directory hits", self.stale_hits),
            ("  rescued by replica", self.stale_hits_replica_served),
            ("re-replications", self.rereplications),
            ("objects lost", self.objects_lost),
            ("invariant violations", self.invariant_violations),
        ] {
            let _ = writeln!(s, "{name:<28} {v:>12}");
        }
        if self.overloaded {
            for (name, v) in [
                ("flash-crowd spikes", self.spikes),
                ("background shed", self.shed_background),
                ("degraded to origin", self.degraded_to_origin),
                ("breaker fast-fails", self.breaker_fast_fails),
                ("retry-budget denials", self.retry_budget_denials),
            ] {
                let _ = writeln!(s, "{name:<28} {v:>12}");
            }
        }
        if self.durability {
            for (name, v) in [
                ("domain failures", self.domainfails),
                ("crash bursts", self.bursts),
                ("objects lost (ledgered)", self.objects_lost_permanent),
                ("proactive repairs", self.proactive_repairs),
                ("repair scans", self.repair_scans),
                ("at-risk peak", self.at_risk_peak),
                ("at-risk area", self.at_risk_area),
            ] {
                let _ = writeln!(s, "{name:<28} {v:>12}");
            }
            let _ = writeln!(s, "{:<28} {:>12.4}", "mean time to repair", self.mean_time_to_repair);
        }
        let _ = writeln!(s, "{:<28} {:>12.4}", "detection latency avg", self.detection_latency_avg);
        let _ = writeln!(
            s,
            "{:<28} {:>9.3} vs {:.3} fault-free ({:+.2}%)",
            "avg latency",
            self.avg_latency_milli as f64 / 1000.0,
            self.fault_free_avg_latency_milli as f64 / 1000.0,
            self.latency_delta_percent
        );
        s
    }
}

/// Requests per latency window in [`DriveOutcome::windows`]. Windows
/// bucket the trace by request index, so the overload harness can turn
/// one drive into a goodput/recovery curve without re-running it.
pub(crate) const OVERLOAD_WINDOW: usize = 512;

/// Per-window latency aggregates over the request-index axis.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WindowStat {
    /// Requests recorded into this window.
    pub(crate) requests: u64,
    /// Sum of end-to-end latencies in integer milli-units.
    pub(crate) latency_milli_sum: u64,
    /// Requests this window degraded straight to origin by shedding.
    pub(crate) degraded: u64,
}

/// Everything one driven run produced.
pub(crate) struct DriveOutcome {
    pub(crate) metrics: RunMetrics,
    pub(crate) snapshot: StatsSnapshot,
    pub(crate) crashes: u64,
    pub(crate) departures: u64,
    pub(crate) rejoins: u64,
    pub(crate) slows: u64,
    pub(crate) partitions: u64,
    pub(crate) heals: u64,
    pub(crate) freerides: u64,
    pub(crate) forges: u64,
    pub(crate) garbles: u64,
    pub(crate) quarantine_replacements: u64,
    pub(crate) skipped: u64,
    pub(crate) detections: Vec<u64>,
    pub(crate) undetected: u64,
    pub(crate) invariant_violations: u64,
    pub(crate) spikes: u64,
    pub(crate) shed_background: u64,
    pub(crate) degraded: u64,
    pub(crate) domainfails: u64,
    pub(crate) bursts: u64,
    /// Worst single-round at-risk gauge over the run.
    pub(crate) at_risk_peak: u64,
    /// Sum of the at-risk gauge over all rounds (vulnerability area).
    pub(crate) risk_area: u64,
    /// Rounds from each loss-capable fault to the gauge draining to 0.
    pub(crate) repair_rounds: Vec<u64>,
    /// True when the watermark hysteresis was still engaged at the end
    /// of the run — the stability oracle's stuck-degraded signal.
    pub(crate) end_shedding: bool,
    pub(crate) windows: Vec<WindowStat>,
    /// Per-request end-to-end latency in integer milli-units, as each
    /// request experienced it: the analytic price under the compat
    /// clock, wait + service under the event clock. The overload sweep
    /// reads its p99 — the recorder's own latency histogram prices at
    /// admission time and never sees queueing delay.
    pub(crate) measured_milli: Log2Histogram,
}

/// Runs the full churn drill: the faulty run, then a fault-free twin on
/// the same trace for the latency delta.
pub fn run_churn(cfg: &ChurnConfig) -> Result<ChurnReport, SimError> {
    cfg.validate()?;
    let trace = cfg.trace();

    let (faulty, engine) = drive(cfg, &trace, &cfg.plan)?;
    // The fault-free twin replays the same request window so the latency
    // delta compares like with like.
    let twin_plan = FaultPlan { window: cfg.plan.window, ..FaultPlan::none() };
    let (baseline, _) = drive(cfg, &trace, &twin_plan)?;

    let served: u64 = faulty.metrics.requests;
    let issued = if cfg.plan.window > 0 {
        cfg.plan.window.min(cfg.requests as u64)
    } else {
        cfg.requests as u64
    };
    let avg_milli = faulty.avg_latency_milli();
    let base_milli = baseline.avg_latency_milli();
    let delta =
        if base_milli == 0 { 0.0 } else { (avg_milli as f64 / base_milli as f64 - 1.0) * 100.0 };
    let detected = faulty.detections.len() as u64;
    let detection_latency_avg = if faulty.detections.is_empty() {
        0.0
    } else {
        faulty.detections.iter().sum::<u64>() as f64 / detected as f64
    };
    let mut served_by_class = [0u64; HitClass::ALL.len()];
    for (class, n) in faulty.metrics.by_class.iter() {
        served_by_class[class.index()] = n;
    }

    Ok(ChurnReport {
        requests: served,
        served_by_class,
        availability_percent: if issued == 0 {
            100.0
        } else {
            served as f64 / issued as f64 * 100.0
        },
        crashes: faulty.crashes,
        departures: faulty.departures,
        rejoins: faulty.rejoins,
        slows: faulty.slows,
        partitions: faulty.partitions,
        heals: faulty.heals,
        entries_reconciled: faulty.snapshot.entries_reconciled,
        primaries_demoted: faulty.snapshot.primaries_demoted,
        skipped_actions: faulty.skipped,
        freerides: faulty.freerides,
        forges: faulty.forges,
        garbles: faulty.garbles,
        audits_challenged: faulty.snapshot.audits_challenged,
        audits_failed: faulty.snapshot.audits_failed,
        forged_receipts: faulty.snapshot.forged_receipts,
        quarantines: faulty.snapshot.quarantines,
        quarantine_replacements: faulty.quarantine_replacements,
        adversarial: cfg.plan.has_adversary(),
        spikes: faulty.spikes,
        shed_background: faulty.shed_background,
        degraded_to_origin: faulty.degraded,
        breaker_fast_fails: faulty.snapshot.breaker_fast_fails,
        retry_budget_denials: faulty.snapshot.retry_budget_denials,
        overloaded: cfg.plan.has_spike() || cfg.plan.has_overload_defense(),
        domainfails: faulty.domainfails,
        bursts: faulty.bursts,
        objects_lost_permanent: faulty.snapshot.objects_lost_permanent,
        proactive_repairs: faulty.snapshot.proactive_repairs,
        repair_scans: engine.p2p(0).ledger().repair_scans,
        at_risk_peak: faulty.at_risk_peak,
        at_risk_area: faulty.risk_area,
        mean_time_to_repair: faulty.mean_time_to_repair(),
        durability: cfg.plan.has_durability(),
        detected_crashes: detected,
        undetected_crashes: faulty.undetected,
        detection_latency_avg,
        detection_latency_max: faulty.detections.iter().copied().max().unwrap_or(0),
        timeouts: faulty.snapshot.timeouts,
        dead_node_timeouts: faulty.snapshot.dead_node_timeouts,
        stale_hits: faulty.snapshot.stale_directory_hits,
        stale_hits_replica_served: faulty.snapshot.stale_hits_replica_served,
        rereplications: faulty.snapshot.rereplications,
        replica_copies: faulty.snapshot.replica_copies,
        objects_lost: faulty.snapshot.objects_lost,
        avg_latency_milli: avg_milli,
        fault_free_avg_latency_milli: base_milli,
        latency_delta_percent: delta,
        invariant_violations: faulty.invariant_violations,
        plan_spec: cfg.plan.to_spec(),
    })
}

/// Debug aid for bisecting chaos failures down from an end-state oracle
/// to the first request (or fault action) that broke the structure: set
/// `CHAOS_DEBUG_INVARIANTS=1` and the drive panics at the first
/// violation instead of reporting it at the end. Checked once; the
/// per-request cost when unset is a single atomic load.
fn debug_invariants() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("CHAOS_DEBUG_INVARIANTS").is_some())
}

/// Drives one engine through the trace under `plan`, returning both what
/// it measured and the engine itself — the chaos explorer interrogates
/// the end state (invariants, replica floor, contents snapshot) after
/// the drive.
pub(crate) fn drive(
    cfg: &ChurnConfig,
    trace: &Trace,
    plan: &FaultPlan,
) -> Result<(DriveOutcome, HierGdEngine<Arc<StatsRecorder>>), SimError> {
    let recorder = Arc::new(StatsRecorder::new());
    let opts = HierGdOptions { replication: cfg.replication, ..HierGdOptions::default() };
    let mut engine = HierGdEngine::with_recorder(
        1,
        cfg.proxy_capacity.max(1),
        cfg.clients_per_cluster,
        cfg.client_cache_capacity.max(1),
        trace.num_objects,
        cfg.net,
        opts,
        Arc::clone(&recorder),
    );
    if plan.loss > 0.0 || !plan.events.is_empty() {
        engine.set_client_faults(0, NetFaults::new(plan.loss, plan.seed));
    }
    if plan.has_transport() {
        engine.set_client_transport(0, plan.transport_faults());
    }
    let adversarial = plan.has_adversary();
    if adversarial {
        // The adversary stream is label-separated from target selection,
        // per-hop loss and the transport, so arming the defense never
        // reshuffles which machines the other faults hit.
        engine.enable_client_adversary(
            0,
            derive(plan.seed, "adversary"),
            cfg.audit_rate,
            cfg.audit_strikes,
        );
    }
    if plan.breaker > 0 || plan.budget > 0.0 {
        // Breakers and budgets live in the transport; shedding is pure
        // drive-loop state. The defense stream is label-separated, so a
        // defended plan hits the same machines as its undefended twin.
        engine.arm_client_overload_defense(0, plan.overload_defense());
    }
    if plan.domains > 0 {
        // The domain stream is label-separated from everything else, so
        // carving the cluster into domains never reshuffles which
        // machines the other faults hit — and the defended/naive pair of
        // a sweep differs only in the spread flag, not the assignment.
        engine.assign_client_domains(
            0,
            plan.domains,
            derive(plan.seed, "domains"),
            !cfg.blind_placement,
        );
    }
    let durability = plan.has_durability();

    // Target selection stream, decoupled from the loss stream so adding
    // loss never reshuffles which machines crash.
    let mut picks = SeedStream::new(plan.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut outstanding: BTreeMap<u128, u64> = BTreeMap::new();
    let mut out = DriveOutcome {
        metrics: RunMetrics::default(),
        snapshot: recorder.snapshot(),
        crashes: 0,
        departures: 0,
        rejoins: 0,
        slows: 0,
        partitions: 0,
        heals: 0,
        freerides: 0,
        forges: 0,
        garbles: 0,
        quarantine_replacements: 0,
        skipped: 0,
        detections: Vec::new(),
        undetected: 0,
        invariant_violations: 0,
        spikes: 0,
        shed_background: 0,
        degraded: 0,
        domainfails: 0,
        bursts: 0,
        at_risk_peak: 0,
        risk_area: 0,
        repair_rounds: Vec::new(),
        end_shedding: false,
        windows: Vec::new(),
        measured_milli: Log2Histogram::new(),
    };

    let limit = if plan.window > 0 {
        (plan.window.min(trace.requests.len() as u64)) as usize
    } else {
        trace.requests.len()
    };

    // Faults go on the time wheel up front: a fault at index `n` lands on
    // the same tick as arrival `n` but with a lower FIFO rank (it was
    // scheduled first), so it still fires *before* the request it gates —
    // exactly the pre-clock "apply before serving request `at`" order.
    let mut clock = SimClock::new(cfg.clock);
    for (n, ev) in plan.events.iter().enumerate() {
        if ev.at < limit as u64 {
            clock.schedule_at(ev.at * TICKS_PER_ROUND, Event::Fault { index: n });
        }
    }
    if limit > 0 {
        clock.schedule_at(0, Event::Arrival { proxy: 0, index: 0 });
    }
    // Event mode only: the proxy is busy until this tick.
    let mut next_free = 0u64;
    // Flash-crowd state: while the arrival index sits below `spike_until`
    // the next arrival self-schedules `spike_times`× closer than the
    // nominal one-round gap. Fault events keep their uncompressed tick
    // mapping (`at * TICKS_PER_ROUND`), so a second event scheduled
    // inside a compressed region fires at a later request index than its
    // nominal `at` — deterministic, and exactly what a flash crowd does
    // to a wall-clock schedule.
    let mut spike_until = 0u64;
    let mut spike_times = 1u64;
    // Watermark hysteresis: set above the high watermark, cleared below
    // the low one.
    let mut shedding = false;
    // Durability bookkeeping: the round of the last loss-capable fault
    // still awaiting the at-risk gauge draining to zero (MTTR sampling).
    let mut pending_repair_from: Option<u64> = None;

    while let Some(event) = clock.pop() {
        match event {
            Event::Fault { index } => {
                let action = plan.events[index].action;
                let at = plan.events[index].at;
                if let FaultAction::Spike { span, times } = action {
                    // Pure arrival-schedule state — overlapping spikes
                    // extend the window and the newest intensity wins.
                    spike_until = spike_until.max(at + u64::from(span));
                    spike_times = u64::from(times);
                    out.spikes += 1;
                } else {
                    apply_action(&mut engine, action, &mut picks, at, &mut outstanding, &mut out)?;
                    if durability
                        && matches!(
                            action,
                            FaultAction::Crash
                                | FaultAction::Depart
                                | FaultAction::DomainFail(_)
                                | FaultAction::Burst(_)
                        )
                    {
                        // MTTR measures from the *last* loss-capable
                        // fault: a fresh failure mid-repair restarts the
                        // exposure window.
                        pending_repair_from = Some(at);
                    }
                    if debug_invariants() {
                        let v = engine.p2p(0).check_invariants();
                        assert!(
                            v.is_empty(),
                            "first violation after {action:?} at request {at}: {v:#?}"
                        );
                    }
                }
            }
            Event::Arrival { proxy: _, index: i } => {
                if i + 1 < limit {
                    let gap = if (i as u64) < spike_until {
                        (TICKS_PER_ROUND / spike_times).max(1)
                    } else {
                        TICKS_PER_ROUND
                    };
                    clock.schedule_in(gap, Event::Arrival { proxy: 0, index: i + 1 });
                }
                let req = &trace.requests[i];
                // Watermark load shedding: above `shed_high` rounds of
                // backlog the proxy stops admitting into the cache
                // fabric — the request generates no background work and
                // degrades straight to the origin server, without
                // occupying the proxy — until the backlog drains below
                // `shed_low`. Backlog only exists in event mode, so the
                // check is a no-op under the analytic clock.
                if plan.shed_high > 0 {
                    let backlog = next_free.saturating_sub(clock.now());
                    if backlog >= plan.shed_high * TICKS_PER_ROUND {
                        shedding = true;
                    } else if backlog <= plan.shed_low * TICKS_PER_ROUND {
                        shedding = false;
                    }
                }
                let wi = i / OVERLOAD_WINDOW;
                if out.windows.len() <= wi {
                    out.windows.resize(wi + 1, WindowStat::default());
                }
                if shedding {
                    out.shed_background += 1;
                    out.degraded += 1;
                    let admission = Admission { class: HitClass::Server, stalls: 0 };
                    let latency = engine.price(&cfg.net, &admission);
                    let recorded = match clock.mode() {
                        ClockMode::Compat => {
                            out.metrics.record(admission.class, latency);
                            latency
                        }
                        ClockMode::Event => {
                            let now = clock.now();
                            let done = now + ticks_of(latency).max(1);
                            let measured = (done - now) as f64 / TICKS_PER_UNIT as f64;
                            clock.schedule_at(
                                done,
                                Event::Completion {
                                    proxy: 0,
                                    class: admission.class,
                                    latency: measured,
                                },
                            );
                            measured
                        }
                    };
                    let milli = (recorded * 1000.0).round() as u64;
                    out.measured_milli.record(milli);
                    let w = &mut out.windows[wi];
                    w.requests += 1;
                    w.latency_milli_sum += milli;
                    w.degraded += 1;
                    continue;
                }
                let admission = engine.admit(0, req);
                let latency = engine.price(&cfg.net, &admission);
                let recorded = match clock.mode() {
                    ClockMode::Compat => {
                        out.metrics.record(admission.class, latency);
                        latency
                    }
                    ClockMode::Event => {
                        let now = clock.now();
                        let start = now.max(next_free);
                        let done = start + ticks_of(latency).max(1);
                        next_free = done;
                        if admission.stalls > 0 {
                            let stall =
                                ticks_of(admission.stalls as f64 * cfg.net.t_timeout).max(1);
                            clock.schedule_at(
                                start + stall,
                                Event::Timeout { proxy: 0, units: admission.stalls },
                            );
                        }
                        let measured = (done - now) as f64 / TICKS_PER_UNIT as f64;
                        clock.schedule_at(
                            done,
                            Event::Completion {
                                proxy: 0,
                                class: admission.class,
                                latency: measured,
                            },
                        );
                        measured
                    }
                };
                {
                    let milli = (recorded * 1000.0).round() as u64;
                    out.measured_milli.record(milli);
                    let w = &mut out.windows[wi];
                    w.requests += 1;
                    w.latency_milli_sum += milli;
                }

                if debug_invariants() {
                    let v = engine.p2p(0).check_invariants();
                    assert!(
                        v.is_empty(),
                        "first violation at request {i} ({:032x}): {v:#?}",
                        req.object
                    );
                }

                // Proactive repair: one paced scheduler step per round.
                // Scanning is a local read of the proxy's own directory
                // and costs nothing, but each entry the step actually
                // *restored* moved an object copy over the LAN — under
                // the event clock that is real proxy work, one LAN round
                // trip of busy time per restored entry, so a repair storm
                // after a big burst buys safety with latency, exactly the
                // trade the durability sweep measures. Under the compat
                // clock the step is a fixed quota (analytic pricing has
                // no backlog to extend).
                if plan.repair > 0 {
                    let o = engine.repair_client_step(0, plan.repair);
                    if clock.mode() == ClockMode::Event && o.repaired > 0 {
                        let busy = ticks_of(f64::from(o.repaired) * cfg.net.tp2p).max(1);
                        next_free = next_free.max(clock.now()) + busy;
                    }
                }
                if durability {
                    let gauge = engine.client_at_risk(0);
                    out.risk_area += gauge;
                    out.at_risk_peak = out.at_risk_peak.max(gauge);
                    if gauge == 0 {
                        if let Some(from) = pending_repair_from.take() {
                            out.repair_rounds.push((i as u64).saturating_sub(from));
                        }
                    }
                }

                // Lazy detection bookkeeping: a crash leaves `crashed_ids`
                // only when traffic walked into the corpse and repair ran.
                // Detection latency stays in request-index units in both
                // modes (cache dynamics are identical at admission time).
                // Every crash enters `outstanding` as it enters the
                // overlay's crashed set (`apply_action` is the only path
                // to either), so equal sizes mean nothing was detected
                // this round — the common case, decided without a scan.
                let p2p = engine.p2p(0);
                if outstanding.len() != p2p.crashed_len() {
                    outstanding.retain(|&key, &mut crashed_at| {
                        if p2p.crashed_ids().any(|n| n.0 == key) {
                            return true;
                        }
                        out.detections.push(i as u64 - crashed_at);
                        // Acceptance criterion: the structure must be clean
                        // at every detection point.
                        out.invariant_violations += p2p.check_invariants().len() as u64;
                        false
                    });
                }

                // Quarantine replacement: an expelled machine gets
                // reimaged by the organization and a clean cache daemon
                // joins in its place on the next request, so the defense
                // costs a transient, not a permanent capacity hole. The
                // fresh ids come from the same picks stream as scheduled
                // rejoins; adversary-free plans never quarantine, so
                // their draw sequences are untouched.
                if adversarial {
                    let q = engine.p2p(0).quarantined_len() as u64;
                    while out.quarantine_replacements < q {
                        let id = fresh_node_id(&engine, &mut picks);
                        engine.join_client(0, id);
                        out.quarantine_replacements += 1;
                    }
                }
            }
            Event::Completion { class, latency, .. } => out.metrics.record(class, latency),
            Event::Timeout { .. } => {}
        }
    }
    // A plan may leave the cut open past its last request. Heal before
    // the final accounting so the end state is always a single authority
    // — the convergence oracle interrogates the post-heal quiescent
    // state, and "the network never came back" is not a state this
    // simulation distinguishes from "about to come back".
    if engine.p2p(0).is_partitioned() && engine.heal_clients(0) {
        out.heals += 1;
    }
    out.undetected = outstanding.len() as u64;
    out.end_shedding = shedding;
    engine.finish(&mut out.metrics);
    out.snapshot = recorder.snapshot();
    Ok((out, engine))
}

/// Applies one scheduled action; targets are drawn from live membership.
/// While a partition is active, targets come from island A only — the
/// proxy cannot reach island B, so it has nobody to crash, depart or
/// slow over there (B-side state is frozen until the heal).
fn apply_action<R: crate::recorder::Recorder>(
    engine: &mut HierGdEngine<R>,
    action: FaultAction,
    picks: &mut SeedStream,
    at: u64,
    outstanding: &mut BTreeMap<u128, u64>,
    out: &mut DriveOutcome,
) -> Result<(), SimError> {
    match action {
        FaultAction::Rejoin => {
            let id = fresh_node_id(engine, picks);
            engine.join_client(0, id);
            out.rejoins += 1;
            return Ok(());
        }
        FaultAction::Partition(pct) => {
            // Cut and heal consume no target draw, so adding a partition
            // pair to a plan never reshuffles which machines its other
            // events hit.
            if engine.partition_clients(0, pct) {
                out.partitions += 1;
            } else {
                out.skipped += 1;
            }
            return Ok(());
        }
        FaultAction::Heal => {
            if engine.heal_clients(0) {
                out.heals += 1;
            } else {
                out.skipped += 1;
            }
            return Ok(());
        }
        FaultAction::Spike { .. } => {
            unreachable!("spike events are intercepted by the drive loop")
        }
        FaultAction::DomainFail(d) => {
            // Targets are fully determined by the domain assignment —
            // the action consumes no picks draws, so adding a domainfail
            // to a plan never reshuffles what its other events hit.
            let targets: Vec<NodeId> = engine
                .live_clients_in_domain(0, d)
                .into_iter()
                .filter(|&n| engine.p2p(0).in_island_a(n))
                .collect();
            let mut crashed = 0u64;
            for target in targets {
                // Same guard as a scheduled crash, re-checked per kill:
                // the doomed domain may be all that's left of island A.
                if engine.p2p(0).is_partitioned()
                    && engine.p2p(0).node_ids().filter(|&n| engine.p2p(0).in_island_a(n)).count()
                        <= 1
                {
                    out.skipped += 1;
                    continue;
                }
                engine.crash_client(0, target)?;
                outstanding.insert(target.0, at);
                out.crashes += 1;
                crashed += 1;
            }
            if crashed > 0 {
                out.domainfails += 1;
            } else {
                out.skipped += 1;
            }
            return Ok(());
        }
        FaultAction::Burst(k) => {
            // K simultaneous seeded crashes: each target comes from the
            // same picks stream as a scheduled crash, re-collecting the
            // live membership between draws.
            let mut crashed = 0u64;
            for _ in 0..k {
                let live: Vec<NodeId> =
                    engine.p2p(0).node_ids().filter(|&n| engine.p2p(0).in_island_a(n)).collect();
                if live.is_empty() || (engine.p2p(0).is_partitioned() && live.len() <= 1) {
                    out.skipped += 1;
                    break;
                }
                let target = live[picks.pick(live.len())];
                engine.crash_client(0, target)?;
                outstanding.insert(target.0, at);
                out.crashes += 1;
                crashed += 1;
            }
            if crashed > 0 {
                out.bursts += 1;
            } else {
                out.skipped += 1;
            }
            return Ok(());
        }
        _ => {}
    }
    let adversarial =
        matches!(action, FaultAction::FreeRide | FaultAction::Forge(_) | FaultAction::Garble(_));
    let live: Vec<NodeId> = engine
        .p2p(0)
        .node_ids()
        .filter(|&n| engine.p2p(0).in_island_a(n))
        // Adversary actions corrupt a currently honest machine; flipping
        // an already-hostile one would silently drop the injection.
        .filter(|&n| !adversarial || engine.p2p(0).behavior_of(n) == Behavior::Honest)
        .collect();
    if live.is_empty() {
        out.skipped += 1;
        return Ok(());
    }
    // Never remove island A's last machine while the cut is up: the
    // proxy's clients are anchored on the A side, and losing it would
    // silently re-home them across a cut no message may legally cross.
    if engine.p2p(0).is_partitioned()
        && live.len() <= 1
        && matches!(action, FaultAction::Crash | FaultAction::Depart)
    {
        out.skipped += 1;
        return Ok(());
    }
    let target = live[picks.pick(live.len())];
    match action {
        FaultAction::Crash => {
            engine.crash_client(0, target)?;
            outstanding.insert(target.0, at);
            out.crashes += 1;
        }
        FaultAction::Depart => {
            engine.depart_client(0, target)?;
            out.departures += 1;
        }
        FaultAction::Slow => {
            engine.mark_client_slow(0, target);
            out.slows += 1;
        }
        FaultAction::FreeRide => {
            engine.set_client_behavior(0, target, Behavior::FreeRider);
            out.freerides += 1;
        }
        FaultAction::Forge(pm) => {
            engine.set_client_behavior(0, target, Behavior::Forger { rate_pm: pm });
            out.forges += 1;
        }
        FaultAction::Garble(pm) => {
            engine.set_client_behavior(0, target, Behavior::Garbler { rate_pm: pm });
            out.garbles += 1;
        }
        FaultAction::Rejoin
        | FaultAction::Partition(_)
        | FaultAction::Heal
        | FaultAction::Spike { .. }
        | FaultAction::DomainFail(_)
        | FaultAction::Burst(_) => {
            unreachable!("handled above")
        }
    }
    Ok(())
}

/// A node id not currently in the cluster (live or crashed-undetected).
fn fresh_node_id<R: crate::recorder::Recorder>(
    engine: &HierGdEngine<R>,
    picks: &mut SeedStream,
) -> NodeId {
    loop {
        let hi = picks.next_u64() as u128;
        let lo = picks.next_u64() as u128;
        let id = NodeId((hi << 64) | lo);
        let taken = engine.p2p(0).node_ids().any(|n| n == id)
            || engine.p2p(0).crashed_ids().any(|n| n == id);
        if !taken {
            return id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips() {
        let plan: FaultPlan =
            "crash@10, depart@20; rejoin@30, slow@5, loss=0.02, seed=9".parse().unwrap();
        assert_eq!(plan.events.len(), 4);
        assert_eq!(plan.events[0], FaultEvent { at: 5, action: FaultAction::Slow });
        assert!((plan.loss - 0.02).abs() < 1e-12);
        assert_eq!(plan.seed, 9);
        let respelled: FaultPlan = plan.to_spec().parse().unwrap();
        assert_eq!(respelled, plan);
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for bad in ["crash", "explode@5", "crash@x", "loss=2.0", "loss=abc", "pigs=fly"] {
            assert!(
                matches!(bad.parse::<FaultPlan>(), Err(SimError::InvalidConfig(_))),
                "'{bad}' should not parse"
            );
        }
    }

    #[test]
    fn partition_grammar_round_trips() {
        let plan: FaultPlan = "partition@100{60|40}, heal@900, crash@50, seed=6".parse().unwrap();
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.events[1], FaultEvent { at: 100, action: FaultAction::Partition(60) });
        assert_eq!(plan.events[2], FaultEvent { at: 900, action: FaultAction::Heal });
        assert!(plan.has_partition());
        assert_eq!(plan.count(FaultAction::Heal), 1);
        assert_eq!(plan.to_spec(), "crash@50,partition@100{60|40},heal@900,seed=6");
        let respelled: FaultPlan = plan.to_spec().parse().unwrap();
        assert_eq!(respelled, plan);
        assert!(!"crash@5".parse::<FaultPlan>().unwrap().has_partition());
    }

    #[test]
    fn malformed_partition_specs_are_typed_errors() {
        for (bad, needle) in [
            ("partition@5", "missing its island split"),
            ("partition@5{60|40", "unterminated '{'"),
            ("partition@5{6040}", "separated by '|'"),
            ("partition@5{banana|40}", "bad island percentage 'banana'"),
            ("partition@5{70|40}", "must sum to 100, got 70 + 40"),
            ("partition@5{100|0}", "between 1% and 99%"),
            ("partition@x{60|40}", "bad request index"),
            ("heal@x", "bad request index"),
            ("heal@1{60|40}", "bad request index"),
        ] {
            let err = bad.parse::<FaultPlan>().unwrap_err();
            assert!(err.to_string().contains(needle), "'{bad}' -> {err}");
        }
    }

    #[test]
    fn errors_carry_the_offending_token_and_byte_offset() {
        // The unknown key sits after "crash@5, " — nine bytes in.
        let err = "crash@5, pigs=fly".parse::<FaultPlan>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'pigs'") && msg.contains("'pigs=fly'"), "{msg}");
        assert!(msg.contains("at byte 9"), "{msg}");
        // Same for unknown verbs and malformed partition tokens.
        let err = "heal@2; explode@5".parse::<FaultPlan>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'explode'") && msg.contains("at byte 8"), "{msg}");
        let err = "crash@1,partition@9{3|4}".parse::<FaultPlan>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'partition@9{3|4}'") && msg.contains("at byte 8"), "{msg}");
        // The seven oldest keys point at their token like every later one,
        // for unparseable and out-of-range values alike.
        for (spec, text, at) in [
            ("crash@1, loss=abc", "bad loss probability 'abc' in 'loss=abc'", "at byte 9"),
            ("crash@1, corrupt=1.5", "corrupt in 'corrupt=1.5'", "at byte 9"),
            ("mloss=0.1,dup=0.1;reorder=x", "bad reorder probability 'x'", "at byte 18"),
            ("crash@1,window=-5", "bad window '-5' in 'window=-5'", "at byte 8"),
            ("heal@2; seed=0x10", "bad seed '0x10' in 'seed=0x10'", "at byte 8"),
        ] {
            let msg = spec.parse::<FaultPlan>().unwrap_err().to_string();
            assert!(msg.contains(text) && msg.contains(at), "'{spec}' -> {msg}");
        }
    }

    #[test]
    fn transport_keys_round_trip() {
        let plan: FaultPlan =
            "crash@10, mloss=0.05, dup=0.1, reorder=0.02, corrupt=0.01, window=500, seed=4"
                .parse()
                .unwrap();
        assert!((plan.mloss - 0.05).abs() < 1e-12);
        assert!((plan.dup - 0.1).abs() < 1e-12);
        assert!((plan.reorder - 0.02).abs() < 1e-12);
        assert!((plan.corrupt - 0.01).abs() < 1e-12);
        assert_eq!(plan.window, 500);
        assert!(plan.has_transport());
        let respelled: FaultPlan = plan.to_spec().parse().unwrap();
        assert_eq!(respelled, plan);
        let t = plan.transport_faults();
        assert!((t.loss - 0.05).abs() < 1e-12);
        assert_ne!(t.seed, plan.seed, "the transport stream must be label-separated");
    }

    #[test]
    fn malformed_transport_specs_are_typed_errors() {
        for bad in [
            "mloss=1.0",
            "mloss=-0.1",
            "mloss=abc",
            "dup=2",
            "dup=oops",
            "reorder=1.5",
            "reorder=x",
            "corrupt=-1",
            "corrupt=nope",
            "window=abc",
            "window=-5",
            "mloss",
            "dup@3",
        ] {
            assert!(
                matches!(bad.parse::<FaultPlan>(), Err(SimError::InvalidConfig(_))),
                "'{bad}' should not parse"
            );
        }
    }

    #[test]
    fn out_of_range_probabilities_name_the_key() {
        let err = "corrupt=1.0".parse::<FaultPlan>().unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        let err = "reorder=-0.5".parse::<FaultPlan>().unwrap_err();
        assert!(err.to_string().contains("reorder"), "{err}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        for bad in
            ["loss=0.1,loss=0.2", "seed=1,seed=2", "mloss=0.1, mloss=0.1", "window=5;window=6"]
        {
            let err = bad.parse::<FaultPlan>().unwrap_err();
            assert!(err.to_string().contains("duplicate"), "'{bad}' -> {err}");
        }
    }

    #[test]
    fn duplicate_event_indices_are_allowed() {
        // Two crashes in the same request gap are a legitimate schedule
        // (and exactly what a shrunk reproducer often looks like).
        let plan: FaultPlan = "crash@5,crash@5,depart@5".parse().unwrap();
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.count(FaultAction::Crash), 2);
    }

    #[test]
    fn transport_only_plans_are_not_none() {
        let plan: FaultPlan = "dup=0.05".parse().unwrap();
        assert!(!plan.is_none());
        assert!(plan.has_transport());
        assert!(!"".parse::<FaultPlan>().unwrap().has_transport());
    }

    #[test]
    fn empty_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!("".parse::<FaultPlan>().unwrap().is_none());
        assert!(!"crash@1".parse::<FaultPlan>().unwrap().is_none());
        assert!(!"loss=0.5".parse::<FaultPlan>().unwrap().is_none());
    }

    #[test]
    fn adversary_grammar_round_trips() {
        let plan: FaultPlan =
            "freeride@10, forge@20:0.25, garble@30:0.5, crash@40, seed=8".parse().unwrap();
        assert_eq!(plan.events.len(), 4);
        assert_eq!(plan.events[0], FaultEvent { at: 10, action: FaultAction::FreeRide });
        assert_eq!(plan.events[1], FaultEvent { at: 20, action: FaultAction::Forge(250) });
        assert_eq!(plan.events[2], FaultEvent { at: 30, action: FaultAction::Garble(500) });
        assert!(plan.has_adversary());
        assert_eq!(plan.to_spec(), "freeride@10,forge@20:0.25,garble@30:0.5,crash@40,seed=8");
        let respelled: FaultPlan = plan.to_spec().parse().unwrap();
        assert_eq!(respelled, plan);
        // A full-rate forger round-trips through the "1" rendering.
        let full: FaultPlan = "forge@5:1".parse().unwrap();
        assert_eq!(full.events[0].action, FaultAction::Forge(1000));
        assert_eq!(full.to_spec().parse::<FaultPlan>().unwrap(), full);
        // A tiny positive rate never rounds down to "never fires".
        let tiny: FaultPlan = "garble@5:0.0001".parse().unwrap();
        assert_eq!(tiny.events[0].action, FaultAction::Garble(1));
        assert!(!"crash@5,loss=0.1".parse::<FaultPlan>().unwrap().has_adversary());
    }

    #[test]
    fn malformed_adversary_specs_are_typed_errors() {
        for (bad, needle) in [
            ("forge@5", "missing its rate"),
            ("garble@5", "missing its rate"),
            ("forge@5:banana", "bad forge rate 'banana'"),
            ("garble@5:", "bad garble rate ''"),
            ("forge@5:0", "must be in (0, 1], got 0"),
            ("garble@5:1.5", "must be in (0, 1], got 1.5"),
            ("forge@5:-0.1", "must be in (0, 1]"),
            ("freeride@x", "bad request index"),
            ("forge@x:0.5", "bad request index"),
        ] {
            let err = bad.parse::<FaultPlan>().unwrap_err();
            assert!(err.to_string().contains(needle), "'{bad}' -> {err}");
        }
    }

    #[test]
    fn spike_and_defense_grammar_round_trips() {
        let plan: FaultPlan =
            "spike@100:400:8, crash@50, breaker=3, budget=0.1, shed=48:12, seed=11"
                .parse()
                .unwrap();
        assert_eq!(
            plan.events[1],
            FaultEvent { at: 100, action: FaultAction::Spike { span: 400, times: 8 } }
        );
        assert!(plan.has_spike());
        assert!(plan.has_overload_defense());
        assert_eq!(plan.breaker, 3);
        assert!((plan.budget - 0.1).abs() < 1e-12);
        assert_eq!((plan.shed_high, plan.shed_low), (48, 12));
        assert_eq!(
            plan.to_spec(),
            "crash@50,spike@100:400:8,breaker=3,budget=0.1,shed=48:12,seed=11"
        );
        let respelled: FaultPlan = plan.to_spec().parse().unwrap();
        assert_eq!(respelled, plan);
        // The defense stream is label-separated from everything else,
        // and the default quiet/cap knobs ride along with the key.
        let d = plan.overload_defense();
        assert_ne!(d.seed, plan.seed);
        assert_eq!(d.breaker_threshold, 3);
        assert_eq!(d.breaker_quiet, DEFAULT_BREAKER_QUIET);
        assert_eq!(d.retry_budget_cap, DEFAULT_RETRY_BUDGET_CAP);
        // Defense-only plans are not none (they shed under load).
        assert!(!"breaker=2".parse::<FaultPlan>().unwrap().is_none());
        assert!(!"shed=16:4".parse::<FaultPlan>().unwrap().is_none());
        assert!(!"crash@5".parse::<FaultPlan>().unwrap().has_overload_defense());
    }

    #[test]
    fn malformed_spike_and_defense_specs_are_typed_errors() {
        for (bad, needle) in [
            ("spike@5", "missing its span and intensity"),
            ("spike@5:100", "missing its intensity"),
            ("spike@5:banana:4", "bad spike span 'banana'"),
            ("spike@5:100:x", "bad spike intensity 'x'"),
            ("spike@5:0:4", "must cover at least one request"),
            ("spike@5:100:1", "must be at least 2x"),
            ("spike@x:100:4", "bad request index"),
            ("breaker=abc", "bad breaker threshold 'abc'"),
            ("budget=0", "must be in (0, 1], got 0"),
            ("budget=1.5", "must be in (0, 1]"),
            ("budget=nope", "bad budget ratio 'nope'"),
            ("shed=48", "needs both watermarks"),
            ("shed=x:2", "bad shed watermark 'x'"),
            ("shed=2:48", "must satisfy H > L"),
            ("shed=0:0", "must satisfy H > L"),
        ] {
            let err = bad.parse::<FaultPlan>().unwrap_err();
            assert!(err.to_string().contains(needle), "'{bad}' -> {err}");
        }
    }

    #[test]
    fn flash_crowd_backs_up_the_event_clock_and_shedding_relieves_it() {
        let spike = "spike@1000:2000:16, seed=5";
        let mut naive_cfg = small_cfg(spike.parse().unwrap());
        naive_cfg.clock = ClockMode::Event;
        let naive = run_churn(&naive_cfg).unwrap();
        assert_eq!(naive.spikes, 1);
        assert_eq!(naive.degraded_to_origin, 0);
        assert!(naive.overloaded);

        let mut defended_cfg = small_cfg(format!("{spike}, shed=16:4").parse().unwrap());
        defended_cfg.clock = ClockMode::Event;
        let defended = run_churn(&defended_cfg).unwrap();
        assert!(defended.degraded_to_origin > 0, "shedding never engaged");
        assert_eq!(defended.shed_background, defended.degraded_to_origin);
        assert!(
            defended.avg_latency_milli < naive.avg_latency_milli,
            "shedding must relieve the flash crowd: defended {} vs naive {}",
            defended.avg_latency_milli,
            naive.avg_latency_milli
        );
    }

    #[test]
    fn defense_keys_without_faults_change_nothing() {
        // Breakers and budgets only matter when the transport actually
        // fails; on a fault-free run the armed defense must not shift a
        // single counter (it draws nothing until a breaker trips).
        for clock in [ClockMode::Compat, ClockMode::Event] {
            let mut plain_cfg = small_cfg(FaultPlan::none());
            plain_cfg.clock = clock;
            let plain = run_churn(&plain_cfg).unwrap();
            let mut armed_cfg = small_cfg("breaker=3, budget=0.1".parse().unwrap());
            armed_cfg.clock = clock;
            let armed = run_churn(&armed_cfg).unwrap();
            assert_eq!(armed.avg_latency_milli, plain.avg_latency_milli, "{clock:?}");
            assert_eq!(armed.served_by_class, plain.served_by_class, "{clock:?}");
            assert_eq!(armed.breaker_fast_fails, 0, "{clock:?}");
            assert_eq!(armed.retry_budget_denials, 0, "{clock:?}");
            assert!(armed.overloaded && !plain.overloaded, "{clock:?}");
        }
    }

    #[test]
    fn durability_grammar_round_trips() {
        let plan: FaultPlan =
            "domainfail@100:2, burst@200:3, crash@50, domains=4, repair=8, seed=13"
                .parse()
                .unwrap();
        assert_eq!(plan.events[1], FaultEvent { at: 100, action: FaultAction::DomainFail(2) });
        assert_eq!(plan.events[2], FaultEvent { at: 200, action: FaultAction::Burst(3) });
        assert_eq!(plan.domains, 4);
        assert_eq!(plan.repair, 8);
        assert!(plan.has_durability());
        assert_eq!(
            plan.to_spec(),
            "crash@50,domainfail@100:2,burst@200:3,domains=4,repair=8,seed=13"
        );
        let respelled: FaultPlan = plan.to_spec().parse().unwrap();
        assert_eq!(respelled, plan);
        // The durability knobs arm the subsystem on their own.
        assert!("domains=2".parse::<FaultPlan>().unwrap().has_durability());
        assert!("repair=4".parse::<FaultPlan>().unwrap().has_durability());
        assert!("burst@5:2".parse::<FaultPlan>().unwrap().has_durability());
        assert!(!"domains=2".parse::<FaultPlan>().unwrap().is_none());
        assert!(!"crash@5,loss=0.1".parse::<FaultPlan>().unwrap().has_durability());
    }

    #[test]
    fn malformed_durability_specs_are_typed_errors() {
        for (bad, needle) in [
            ("domainfail@5", "missing its domain"),
            ("domainfail@5:x, domains=4", "bad domainfail domain 'x'"),
            ("burst@5", "missing its size"),
            ("burst@5:x", "bad burst size 'x'"),
            ("burst@5:1", "at least 2 simultaneous crashes"),
            ("burst@x:3", "bad request index"),
            ("domainfail@x:1, domains=4", "bad request index"),
            ("domains=0", "at least 1"),
            ("domains=abc", "bad domain count 'abc'"),
            ("repair=0", "at least 1 scan"),
            ("repair=x", "bad repair budget 'x'"),
            ("domainfail@5:2", "needs the domains=D key"),
            ("domainfail@5:4, domains=4", "outside 0..4"),
        ] {
            let err = bad.parse::<FaultPlan>().unwrap_err();
            assert!(err.to_string().contains(needle), "'{bad}' -> {err}");
        }
        // Programmatic plans hit the same check through validate().
        let mut plan = FaultPlan::none();
        plan.push(5, FaultAction::DomainFail(0));
        let cfg = ChurnConfig { plan, ..ChurnConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn domainfail_crashes_the_domain_and_repair_restores_the_floor() {
        for clock in [ClockMode::Compat, ClockMode::Event] {
            let plan: FaultPlan = "domainfail@500:1, domains=4, repair=8, seed=19".parse().unwrap();
            let mut cfg = small_cfg(plan);
            cfg.clock = clock;
            let report = run_churn(&cfg).unwrap();
            assert!(report.fully_available(), "{clock:?}");
            assert_eq!(report.domainfails, 1, "{clock:?}");
            assert!(report.crashes >= 1, "{clock:?}");
            assert!(report.durability, "{clock:?}");
            assert!(report.repair_scans > 0, "{clock:?}");
            assert!(report.at_risk_peak > 0, "the crash must register as risk, {clock:?}");
            assert!(report.proactive_repairs > 0, "{clock:?}");
            assert_eq!(report.invariant_violations, 0, "{clock:?}");
            let json = report.to_json();
            assert!(json.contains("\"at_risk_area\""), "{json}");
            assert!(report.to_table().contains("mean time to repair"));
        }
    }

    #[test]
    fn burst_crashes_k_machines_at_once() {
        let plan: FaultPlan = "burst@500:3, repair=8, seed=23".parse().unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        assert_eq!(report.bursts, 1);
        assert_eq!(report.crashes, 3);
        assert!(report.fully_available());
        assert_eq!(report.invariant_violations, 0);
    }

    #[test]
    fn repair_key_without_faults_changes_nothing() {
        // A healthy cluster gives the repair scheduler nothing to do:
        // the scan runs (and is counted) but repairs nothing, loses
        // nothing, and — under the compat clock, where background work
        // is not priced — shifts no latency.
        let plain = run_churn(&small_cfg(FaultPlan::none())).unwrap();
        let armed = run_churn(&small_cfg("repair=6".parse().unwrap())).unwrap();
        assert_eq!(armed.avg_latency_milli, plain.avg_latency_milli);
        assert_eq!(armed.served_by_class, plain.served_by_class);
        assert_eq!(armed.objects_lost_permanent, 0);
        assert_eq!(armed.proactive_repairs, 0);
        assert!(armed.repair_scans > 0);
        assert_eq!(armed.at_risk_peak, 0);
        assert!(armed.durability && !plain.durability);
        assert!(!plain.to_json().contains("objects_lost_permanent"));
    }

    fn small_cfg(plan: FaultPlan) -> ChurnConfig {
        ChurnConfig {
            requests: 4_000,
            distinct_objects: 400,
            trace_clients: 10,
            clients_per_cluster: 16,
            proxy_capacity: 20,
            client_cache_capacity: 4,
            replication: 2,
            trace_seed: 7,
            plan,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn churn_run_serves_everything_and_reconciles() {
        let plan: FaultPlan =
            "crash@500, crash@900, depart@1500, rejoin@2000, slow@2500, loss=0.005, seed=3"
                .parse()
                .unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        assert_eq!(report.requests, 4_000);
        assert!(report.fully_available(), "availability {}", report.availability_percent);
        assert_eq!(report.crashes, 2);
        assert_eq!(report.departures, 1);
        assert_eq!(report.rejoins, 1);
        assert_eq!(report.slows, 1);
        assert_eq!(report.detected_crashes + report.undetected_crashes, report.crashes);
        assert_eq!(report.invariant_violations, 0);
        assert!(report.timeouts >= report.dead_node_timeouts);
        assert!(report.stale_hits >= report.stale_hits_replica_served);
    }

    #[test]
    fn adversarial_churn_defended_run_quarantines_and_stays_available() {
        let plan: FaultPlan =
            "freeride@200, forge@400:0.5, garble@600:0.5, seed=17".parse().unwrap();
        let defended = ChurnConfig { audit_rate: 0.4, audit_strikes: 2, ..small_cfg(plan.clone()) };
        let report = run_churn(&defended).unwrap();
        assert!(report.fully_available(), "availability {}", report.availability_percent);
        assert_eq!(report.freerides, 1);
        assert_eq!(report.forges, 1);
        assert_eq!(report.garbles, 1);
        assert!(report.audits_challenged > 0, "the defense must issue challenges");
        assert!(report.audits_failed > 0, "persistent cheats must fail audits");
        assert!(report.quarantines >= 1, "the forger or free-rider must be quarantined");
        assert_eq!(report.invariant_violations, 0);
        assert!(report.adversarial);
        let json = report.to_json();
        assert!(json.contains("\"quarantines\""), "{json}");

        // The undefended twin never audits and never quarantines.
        let undefended = ChurnConfig { audit_rate: 0.0, ..defended };
        let report = run_churn(&undefended).unwrap();
        assert_eq!(report.audits_challenged, 0);
        assert_eq!(report.quarantines, 0);
        assert_eq!(report.invariant_violations, 0);
    }

    #[test]
    fn adversary_free_reports_hide_the_adversary_block() {
        let plan: FaultPlan = "crash@500, seed=2".parse().unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        assert!(!report.adversarial);
        assert!(!report.to_json().contains("audits_challenged"));
    }

    #[test]
    fn churn_reports_are_deterministic() {
        let plan: FaultPlan = "crash@300, crash@700, loss=0.01, seed=11".parse().unwrap();
        let a = run_churn(&small_cfg(plan.clone())).unwrap();
        let b = run_churn(&small_cfg(plan)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn empty_plan_matches_fault_free_twin() {
        let report = run_churn(&small_cfg(FaultPlan::none())).unwrap();
        assert_eq!(report.avg_latency_milli, report.fault_free_avg_latency_milli);
        assert_eq!(report.latency_delta_percent, 0.0);
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.stale_hits, 0);
    }

    #[test]
    fn faults_cost_latency_not_requests() {
        let plan: FaultPlan = "crash@100, crash@200, crash@300, loss=0.01, seed=5".parse().unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        assert!(report.fully_available());
        assert!(
            report.avg_latency_milli >= report.fault_free_avg_latency_milli,
            "faults cannot make the run faster: {} vs {}",
            report.avg_latency_milli,
            report.fault_free_avg_latency_milli
        );
    }

    #[test]
    fn report_renders_json_and_table() {
        let plan: FaultPlan = "crash@500, seed=2".parse().unwrap();
        let report = run_churn(&small_cfg(plan)).unwrap();
        let json = report.to_json();
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains("\"availability_percent\": 100.0000"));
        assert!(json.contains("\"plan_spec\": \"crash@500,seed=2\""));
        let table = report.to_table();
        assert!(table.contains("availability"));
        assert!(table.contains("stale directory hits"));
    }

    #[test]
    fn config_validation() {
        let mut cfg = ChurnConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.requests = 0;
        assert!(cfg.validate().is_err());
        let cfg = ChurnConfig { replication: 0, ..ChurnConfig::default() };
        assert!(cfg.validate().is_err());
    }
}
