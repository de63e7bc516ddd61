//! The fault-plan vocabulary: actions, the plan, and its spec grammar.
//!
//! Two tables state the grammar once. [`VERBS`] lists every `verb@N…`
//! keyword with the shape of its payload; [`KEYS`] lists every
//! `key=value` name with its range rule and the plan field it reads and
//! writes. The parser, [`FaultPlan::to_spec`], the "expected …" lists in
//! error messages, [`FaultPlan::validate`] and the chaos shrinker's
//! probability pass all read these tables, so a new verb or key is one
//! row (DESIGN.md, "Fault plan grammar", prints them; a test keeps the
//! two in step).
//!
//! Every error has one wording, built by `invalid`; a parse error's place
//! is its [`Token`], so each names the token it sits in and the byte
//! that token starts at. The range rules take the
//! place they report at — the parser passes the token,
//! [`FaultPlan::validate`] the event (`spike@10`) — so a plan built in
//! code is held to the same rules as a parsed one.

use crate::error::SimError;
use std::fmt;
use std::mem::discriminant;
use std::str::FromStr;
use webcache_p2p::{OverloadDefense, TransportFaults};
use webcache_primitives::seed::derive;

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

/// What follows `verb@N` in a token: the payload shapes of the grammar,
/// each carrying the constructor of the action it builds.
#[derive(Clone, Copy)]
enum Shape {
    /// `verb@N` — no payload.
    Bare(FaultAction),
    /// `verb@N:R` — a rate in `(0, 1]`, stored per-mille.
    Rate(fn(u16) -> FaultAction),
    /// `verb@N:SPAN:X` — a request span and an integer multiplier.
    SpanTimes(fn(u32, u16) -> FaultAction),
    /// `verb@N{A|B}` — two island percentages summing to 100.
    Islands(fn(u8) -> FaultAction),
    /// `verb@N:K` — one count; the text is what messages call it.
    Count(fn(u32) -> FaultAction, &'static str),
}

/// One verb of the grammar.
struct Verb {
    keyword: &'static str,
    shape: Shape,
}

/// Every verb, in the order the "expected …" list prints them.
const VERBS: [Verb; 12] = [
    Verb { keyword: "crash", shape: Shape::Bare(FaultAction::Crash) },
    Verb { keyword: "depart", shape: Shape::Bare(FaultAction::Depart) },
    Verb { keyword: "rejoin", shape: Shape::Bare(FaultAction::Rejoin) },
    Verb { keyword: "slow", shape: Shape::Bare(FaultAction::Slow) },
    Verb { keyword: "partition", shape: Shape::Islands(FaultAction::Partition) },
    Verb { keyword: "heal", shape: Shape::Bare(FaultAction::Heal) },
    Verb { keyword: "freeride", shape: Shape::Bare(FaultAction::FreeRide) },
    Verb { keyword: "forge", shape: Shape::Rate(FaultAction::Forge) },
    Verb { keyword: "garble", shape: Shape::Rate(FaultAction::Garble) },
    Verb {
        keyword: "spike",
        shape: Shape::SpanTimes(|span, times| FaultAction::Spike { span, times }),
    },
    Verb { keyword: "domainfail", shape: Shape::Count(FaultAction::DomainFail, "domain") },
    Verb { keyword: "burst", shape: Shape::Count(FaultAction::Burst, "size") },
];

impl Shape {
    /// The payload's grammar pattern and an example of it, for the
    /// "expected …" hint of a token that lacks its payload.
    fn pattern(self) -> (&'static str, &'static str) {
        match self {
            Shape::Bare(_) => ("", ""),
            Shape::Rate(_) => (":R with R in (0, 1]", ":0.25"),
            Shape::SpanTimes(_) => (":SPAN:X", ":1024:8"),
            Shape::Islands(_) => ("{A|B}", "{60|40}"),
            Shape::Count(..) => (":K", ":2"),
        }
    }

    /// Some action of this shape's verb; only its variant matters.
    fn sample(self) -> FaultAction {
        match self {
            Shape::Bare(action) => action,
            Shape::Rate(make) => make(1),
            Shape::SpanTimes(make) => make(1, 2),
            Shape::Islands(make) => make(50),
            Shape::Count(make, _) => make(2),
        }
    }

    /// Parses what follows `kw@` into the request-index text and the
    /// action. Structure only: payload *ranges* are [`FaultAction::check`].
    fn parse<'t>(
        self,
        tok: Token<'_>,
        kw: &str,
        rest: &'t str,
    ) -> Result<(&'t str, FaultAction), SimError> {
        let split = |text: &'t str, sep: char, part: &str| {
            text.split_once(sep).ok_or_else(|| {
                let (pattern, example) = self.pattern();
                invalid(
                    kw,
                    tok,
                    format_args!(
                        "is missing its {part} (expected {kw}@N{pattern}, e.g. {kw}@100{example})"
                    ),
                )
            })
        };
        Ok(match self {
            Shape::Bare(action) => (rest, action),
            Shape::Rate(make) => {
                let (at, text) = split(rest, ':', "rate")?;
                let rate: f64 = tok.value(format_args!("{kw} rate"), text)?;
                ratio_rule(&format_args!("{kw} rate"), &tok, rate)?;
                // Per-mille keeps the action Copy + Eq; a positive
                // rate never rounds down to "never fires".
                (at, make(((rate * 1000.0).round() as u16).max(1)))
            }
            Shape::SpanTimes(make) => {
                let (at, tail) = split(rest, ':', "span and intensity")?;
                let (span, times) = split(tail, ':', "intensity")?;
                let span = tok.value(format_args!("{kw} span"), span)?;
                (at, make(span, tok.value(format_args!("{kw} intensity"), times)?))
            }
            Shape::Islands(make) => {
                let (at, cut) = split(rest, '{', "island split")?;
                let Some(body) = cut.trim().strip_suffix('}') else {
                    return Err(invalid(
                        kw,
                        tok,
                        format_args!("has an unterminated '{{' (expected {kw}@N{{A|B}})"),
                    ));
                };
                let (a, b) = split(body, '|', "two island percentages separated by '|'")?;
                let pa: u8 = tok.value("island percentage", a)?;
                let pb: u8 = tok.value("island percentage", b)?;
                if u32::from(pa) + u32::from(pb) != 100 {
                    let got = format_args!("must sum to 100, got {pa} + {pb}");
                    return Err(invalid("island percentages", tok, got));
                }
                (at, make(pa))
            }
            Shape::Count(make, noun) => {
                let (at, text) = split(rest, ':', noun)?;
                (at, make(tok.value(format_args!("{kw} {noun}"), text)?))
            }
        })
    }
}

impl FaultAction {
    /// The spec-grammar keyword (`crash@N` etc.).
    pub fn keyword(&self) -> &'static str {
        let row = VERBS.iter().find(|v| discriminant(&v.shape.sample()) == discriminant(self));
        row.expect("every action has a row in VERBS").keyword
    }

    /// The range rules of this action's payload, reported at `place`.
    /// `domains` is the plan's `domains=` value: a `domainfail` names a
    /// domain that must exist.
    fn check(self, domains: u32, place: &dyn fmt::Display) -> Result<(), SimError> {
        let (what, why) = match self {
            FaultAction::Spike { span: 0, .. } => {
                (" span", "must cover at least one request".to_string())
            }
            FaultAction::Spike { times, .. } if times < 2 => {
                (" intensity", format!("must be at least 2x, got {times}"))
            }
            FaultAction::Partition(pct) if !(1..=99).contains(&pct) => {
                (" island", "needs between 1% and 99% of the machines".to_string())
            }
            FaultAction::Forge(pm) | FaultAction::Garble(pm) => {
                let what = format_args!("{} rate", self.keyword());
                return ratio_rule(&what, place, f64::from(pm) / 1000.0);
            }
            FaultAction::Burst(k) if k < 2 => (
                " size",
                "must be at least 2 simultaneous crashes (use crash@N for one)".to_string(),
            ),
            FaultAction::DomainFail(_) if domains == 0 => (
                "",
                "needs the domains=D key (the cluster is not carved into failure domains)"
                    .to_string(),
            ),
            FaultAction::DomainFail(d) if d >= domains => {
                (" domain", format!("is outside 0..{domains} (domains={domains}): {d}"))
            }
            _ => return Ok(()),
        };
        Err(invalid(format_args!("{}{what}", self.keyword()), place, why))
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

impl fmt::Display for FaultEvent {
    /// The event as its spec token.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.action.keyword(), self.at)?;
        match self.action {
            FaultAction::Partition(pct) => write!(f, "{{{}|{}}}", pct, 100u8.saturating_sub(pct)),
            FaultAction::Forge(pm) | FaultAction::Garble(pm) => {
                write!(f, ":{}", f64::from(pm) / 1000.0)
            }
            FaultAction::Spike { span, times } => write!(f, ":{span}:{times}"),
            FaultAction::DomainFail(n) | FaultAction::Burst(n) => write!(f, ":{n}"),
            _ => Ok(()),
        }
    }
}

/// The field of a plan that one `key=value` token sets, which fixes
/// the type of the value.
enum Slot<'a> {
    /// A probability or a ratio.
    Real(&'a mut f64),
    /// A count or a threshold.
    Small(&'a mut u32),
    /// A request count or a seed.
    Large(&'a mut u64),
    /// The `shed=H:L` watermark pair.
    Marks(&'a mut u64, &'a mut u64),
}

impl Slot<'_> {
    /// False for the value a key has when its token is absent (zero):
    /// an unset key is not printed and not range-checked.
    fn is_set(&self) -> bool {
        match self {
            Slot::Real(v) => **v != 0.0,
            Slot::Small(n) => **n != 0,
            Slot::Large(n) => **n != 0,
            Slot::Marks(high, low) => (**high, **low) != (0, 0),
        }
    }
}

impl fmt::Display for Slot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Real(v) => write!(f, "{v}"),
            Slot::Small(n) => write!(f, "{n}"),
            Slot::Large(n) => write!(f, "{n}"),
            Slot::Marks(high, low) => write!(f, "{high}:{low}"),
        }
    }
}

/// The accepted range of a key's value.
#[derive(Clone, Copy, PartialEq)]
enum Rule {
    /// A probability in `[0, 1)`.
    Probability,
    /// A ratio in `(0, 1]`; omitting the key leaves it off.
    Ratio,
    /// Whatever the field's type holds.
    Any,
    /// At least 1; the text finishes the sentence "must be at least 1…"
    /// and says what omitting the key means.
    AtLeastOne(&'static str),
    /// `H:L` in rounds of backlog, with `H > L >= 0`.
    Watermarks,
}

/// One `key=value` key of the grammar.
struct Key {
    name: &'static str,
    /// What messages call a value of this key; empty for "its name"
    /// (`window`, `seed`). Probabilities are `<name> probability`.
    noun: &'static str,
    rule: Rule,
    /// The plan field the key sets. Reading goes through the same
    /// accessor, on a [`FaultPlan::keys_only`] copy.
    slot: fn(&mut FaultPlan) -> Slot<'_>,
}

const fn key(
    name: &'static str,
    noun: &'static str,
    rule: Rule,
    slot: fn(&mut FaultPlan) -> Slot<'_>,
) -> Key {
    Key { name, noun, rule, slot }
}

/// Every key, in the order [`FaultPlan::to_spec`] and the "expected …"
/// list print them.
const KEYS: [Key; 12] = {
    use Rule::*;
    use Slot::*;
    [
        key("loss", "", Probability, |p| Real(&mut p.loss)),
        key("mloss", "", Probability, |p| Real(&mut p.mloss)),
        key("dup", "", Probability, |p| Real(&mut p.dup)),
        key("reorder", "", Probability, |p| Real(&mut p.reorder)),
        key("corrupt", "", Probability, |p| Real(&mut p.corrupt)),
        key("breaker", "breaker threshold", Any, |p| Small(&mut p.breaker)),
        key("budget", "budget ratio", Ratio, |p| Real(&mut p.budget)),
        key("shed", "shed watermark", Watermarks, |p| Marks(&mut p.shed_high, &mut p.shed_low)),
        key("domains", "domain count", AtLeastOne(" (omit the key to leave domains off)"), |p| {
            Small(&mut p.domains)
        }),
        key(
            "repair",
            "repair budget",
            AtLeastOne(" scan per round (omit the key for reactive-only)"),
            |p| Small(&mut p.repair),
        ),
        key("window", "", Any, |p| Large(&mut p.window)),
        key("seed", "", Any, |p| Large(&mut p.seed)),
    ]
};

impl fmt::Display for Key {
    /// What messages call a value of this key.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.rule, self.noun) {
            (Rule::Probability, _) => write!(f, "{} probability", self.name),
            (_, "") => f.write_str(self.name),
            (_, noun) => f.write_str(noun),
        }
    }
}

impl Key {
    /// Parses the text after `name=` into the key's field of `plan` and
    /// range-checks it.
    fn parse_into(&self, plan: &mut FaultPlan, tok: Token<'_>, text: &str) -> Result<(), SimError> {
        let mut slot = (self.slot)(plan);
        match &mut slot {
            Slot::Real(v) => **v = tok.value(self, text)?,
            Slot::Small(n) => **n = tok.value(self, text)?,
            Slot::Large(n) => **n = tok.value(self, text)?,
            Slot::Marks(high, low) => {
                let Some((h, l)) = text.split_once(':') else {
                    let name = self.name;
                    return Err(invalid(
                        name,
                        tok,
                        format_args!(
                            "needs both watermarks (expected {name}=H:L in rounds of backlog, \
                             e.g. {name}=48:12)"
                        ),
                    ));
                };
                (**high, **low) = (tok.value(self, h)?, tok.value(self, l)?);
            }
        }
        self.check(&slot, &tok)
    }

    /// The range rule of a set value, reported at `place`.
    fn check(&self, slot: &Slot<'_>, place: &dyn fmt::Display) -> Result<(), SimError> {
        match (self.rule, slot) {
            (Rule::Probability, Slot::Real(p)) if !(0.0..1.0).contains(*p) => {
                Err(invalid(self.name, place, format_args!("must be in [0, 1), got {p}")))
            }
            (Rule::Ratio, Slot::Real(f)) => ratio_rule(self, place, **f),
            (Rule::AtLeastOne(rest), Slot::Small(0)) => {
                Err(invalid(self, place, format_args!("must be at least 1{rest}")))
            }
            (Rule::Watermarks, Slot::Marks(high, low)) if low >= high => Err(invalid(
                format_args!("{self}s"),
                place,
                format_args!("must satisfy H > L >= 0, got {high}:{low}"),
            )),
            _ => Ok(()),
        }
    }
}

/// `(0, 1]`: the range of the `budget=` ratio and of adversary rates.
fn ratio_rule(
    what: &dyn fmt::Display,
    place: &dyn fmt::Display,
    value: f64,
) -> Result<(), SimError> {
    if value > 0.0 && value <= 1.0 {
        return Ok(());
    }
    Err(invalid(what, place, format_args!("must be in (0, 1], got {value}")))
}

/// `a, b, c or d`.
fn one_of(names: impl Iterator<Item = &'static str>) -> String {
    let names: Vec<&str> = names.collect();
    let (last, head) = names.split_last().expect("the grammar tables are not empty");
    format!("{} or {last}", head.join(", "))
}

/// `<subject> in <place> <predicate>` — the one error wording of this
/// module. `place` is a [`Token`] for a parsed spec; for a plan built in
/// code it is the event (`spike@10`), or the plan itself for a key.
fn invalid(
    subject: impl fmt::Display,
    place: impl fmt::Display,
    predicate: impl fmt::Display,
) -> SimError {
    SimError::InvalidConfig(format!("{subject} in {place} {predicate}"))
}

/// One token of the spec and its byte offset. A shrunk reproducer spec
/// is often machine-assembled and hand-edited — "unknown key" without a
/// position is not actionable in a 20-token spec — so every error names
/// the token it sits in and where that token starts.
#[derive(Clone, Copy)]
struct Token<'a> {
    text: &'a str,
    at: usize,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "'{}' at byte {}", self.text, self.at)
    }
}

impl Token<'_> {
    /// `text` as a number of type `T`.
    fn value<T: FromStr>(self, what: impl fmt::Display, text: &str) -> Result<T, SimError> {
        let text = text.trim();
        text.parse().map_err(|_| {
            let expected = format_args!("(expected {})", std::any::type_name::<T>());
            invalid(format_args!("bad {what} '{text}'"), self, expected)
        })
    }
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
#[derive(Clone, Debug, Default, PartialEq)]
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

impl FaultPlan {
    /// The empty plan: no events, no loss. Running under it is
    /// bit-identical to a fault-free run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `crashes` silent crashes spread evenly over a `requests`-long run,
    /// one every `requests / (crashes + 1)` requests (at least one apart),
    /// and nothing else.
    pub fn spread_crashes(crashes: u64, requests: u64) -> Self {
        let step = (requests / (crashes + 1)).max(1);
        let crash = |c| FaultEvent { at: step * c, action: FaultAction::Crash };
        FaultPlan { events: (1..=crashes).map(crash).collect(), ..FaultPlan::none() }
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

    /// Adds one event, keeping the schedule sorted.
    pub fn push(&mut self, at: u64, action: FaultAction) {
        self.events.push(FaultEvent { at, action });
        self.events.sort_by_key(|e| e.at);
    }

    /// How many requests of a `requests`-long trace a run under this
    /// plan serves: all of them, or the first `window`.
    pub(crate) fn served(&self, requests: u64) -> u64 {
        if self.window > 0 {
            self.window.min(requests)
        } else {
            requests
        }
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

    /// Checks every set key and every event payload against the
    /// grammar's range rules — the same rules the parser applies per
    /// token, for plans built in code. A plan that passes prints a spec
    /// that parses back to it. Errors name the event (`spike@10`).
    pub fn validate(&self) -> Result<(), SimError> {
        let mut keys = self.keys_only();
        for key in &KEYS {
            let slot = (key.slot)(&mut keys);
            if slot.is_set() {
                key.check(&slot, &"the plan")?;
            }
        }
        for e in &self.events {
            e.action.check(self.domains, &format_args!("{}@{}", e.action.keyword(), e.at))?;
        }
        Ok(())
    }

    /// The `key=value` side of this plan, without its schedule. A key's
    /// field is reached through one `&mut` accessor ([`Key::slot`]) for
    /// writing and reading alike; readers take this copy, which is cheap
    /// because every key is a scalar.
    pub(crate) fn keys_only(&self) -> FaultPlan {
        FaultPlan { events: Vec::new(), ..*self }
    }

    /// The `i`-th fault probability of the plan — the fields of the
    /// [`Rule::Probability`] keys, in table order — for the chaos
    /// shrinker to weaken; `None` past the last.
    pub(crate) fn probability(&mut self, i: usize) -> Option<&mut f64> {
        let key = KEYS.iter().filter(|k| k.rule == Rule::Probability).nth(i)?;
        match (key.slot)(self) {
            Slot::Real(p) => Some(p),
            _ => unreachable!("a probability key sets a real"),
        }
    }

    /// Renders the plan back into its spec grammar (round-trips through
    /// [`FromStr`] up to token order and float formatting).
    pub fn to_spec(&self) -> String {
        let events = self.events.iter().map(FaultEvent::to_string);
        let mut keys = self.keys_only();
        let keys = KEYS.iter().filter_map(|key| {
            let slot = (key.slot)(&mut keys);
            slot.is_set().then(|| format!("{}={slot}", key.name))
        });
        events.chain(keys).collect::<Vec<_>>().join(",")
    }
}

impl FromStr for FaultPlan {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::none();
        let mut seen_keys: Vec<&str> = Vec::new();
        // The token of each event, parallel to `plan.events`: payload
        // ranges are checked after the loop, because the `domains=` key a
        // `domainfail` depends on may sit anywhere in the spec.
        let mut event_tokens: Vec<Token<'_>> = Vec::new();
        // Byte offset of the current piece within `s`.
        let mut offset = 0usize;
        for raw in s.split([',', ';']) {
            let text = raw.trim();
            let tok = Token { text, at: offset + (raw.len() - raw.trim_start().len()) };
            offset += raw.len() + 1;
            if text.is_empty() {
                continue;
            }
            if let Some((name, value)) = text.split_once('=') {
                let name = name.trim();
                let Some(key) = KEYS.iter().find(|k| k.name == name) else {
                    let expected = one_of(KEYS.iter().map(|k| k.name));
                    return Err(invalid(
                        format_args!("unknown fault key '{name}'"),
                        tok,
                        format_args!("(expected {expected})"),
                    ));
                };
                if seen_keys.contains(&name) {
                    return Err(invalid(
                        format_args!("duplicate fault key '{name}'"),
                        tok,
                        "(a spec overriding itself is a typo)",
                    ));
                }
                key.parse_into(&mut plan, tok, value)?;
                seen_keys.push(name);
                continue;
            }
            let Some((verb, rest)) = text.split_once('@') else {
                return Err(invalid("bad fault token", tok, "(expected verb@N or key=value)"));
            };
            let verb = verb.trim();
            let Some(row) = VERBS.iter().find(|v| v.keyword == verb) else {
                let expected = one_of(VERBS.iter().map(|v| v.keyword));
                return Err(invalid(
                    format_args!("unknown fault verb '{verb}'"),
                    tok,
                    format_args!("(expected {expected})"),
                ));
            };
            let (at, action) = row.shape.parse(tok, verb, rest)?;
            plan.events.push(FaultEvent { at: tok.value("request index", at)?, action });
            event_tokens.push(tok);
        }
        for (event, tok) in plan.events.iter().zip(&event_tokens) {
            event.action.check(plan.domains, tok)?;
        }
        plan.events.sort_by_key(|e| e.at);
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ChurnConfig;

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
    fn spread_crashes_are_evenly_spaced_and_at_least_one_apart() {
        assert_eq!(
            FaultPlan::spread_crashes(3, 40_000).to_spec(),
            "crash@10000,crash@20000,crash@30000"
        );
        assert_eq!(FaultPlan::spread_crashes(0, 40_000), FaultPlan::none());
        assert_eq!(FaultPlan::spread_crashes(3, 2).to_spec(), "crash@1,crash@2,crash@3");
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

    /// A plan over every verb and key of the tables. Each payload and
    /// value lands inside its range most of the time and outside it now
    /// and then, and about half of the keys stay unset.
    fn plan_from(events: &[(usize, u64, u64, u64)], keys: &[(u64, f64)]) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for (key, &(n, x)) in KEYS.iter().zip(keys) {
            if n % 2 == 0 {
                continue;
            }
            let n = n / 2;
            match (key.slot)(&mut plan) {
                Slot::Real(v) => *v = x,
                Slot::Small(v) if key.rule == Rule::Any => *v = n as u32,
                Slot::Small(v) => *v = (n % 9) as u32,
                Slot::Large(v) => *v = n,
                Slot::Marks(high, low) => (*high, *low) = (n % 64, (n >> 8) % 16),
            }
        }
        for &(verb, at, a, b) in events {
            let action = match VERBS[verb % VERBS.len()].shape {
                Shape::Bare(action) => action,
                Shape::Rate(make) => make((a % 1_050) as u16),
                Shape::SpanTimes(make) => make((a % 40) as u32, (b % 30) as u16),
                Shape::Islands(make) => make((a % 104) as u8),
                Shape::Count(make, _) => make((a % 8) as u32),
            };
            plan.push(at, action);
        }
        plan
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The grammar to a fixed point: a plan passes `validate` exactly
        /// when the spec it prints parses, the parse gives the plan back,
        /// and printing that gives the same spec.
        #[test]
        fn valid_plans_print_specs_that_parse_back_to_them(
            events in proptest::collection::vec(
                (0usize..VERBS.len(), 0u64..1_000_000, 0u64..100_000, 0u64..100_000),
                0..6,
            ),
            keys in proptest::collection::vec((0u64..u64::MAX, 0.0f64..1.04), 12..13),
        ) {
            let plan = plan_from(&events, &keys);
            let spec = plan.to_spec();
            match (plan.validate(), spec.parse::<FaultPlan>()) {
                (Ok(()), Ok(reparsed)) => {
                    proptest::prop_assert_eq!(reparsed.to_spec(), spec);
                    proptest::prop_assert_eq!(reparsed, plan);
                }
                (Err(_), Err(_)) => {}
                (valid, parsed) => proptest::prop_assert!(
                    false,
                    "validate and the parser disagree on '{}': {:?} vs {:?}",
                    spec, valid, parsed
                ),
            }
        }

        /// One corrupted token anywhere in a valid spec is rejected, and
        /// the message names that token and the byte it starts at.
        #[test]
        fn a_corrupted_token_is_rejected_by_name_and_byte_offset(
            events in proptest::collection::vec(
                (0usize..VERBS.len(), 0u64..1_000_000, 0u64..100_000, 0u64..100_000),
                0..6,
            ),
            keys in proptest::collection::vec((0u64..u64::MAX, 0.0f64..1.04), 12..13),
            victim in 0usize..64,
            corruption in 0usize..3,
        ) {
            let plan = plan_from(&events, &keys);
            proptest::prop_assume!(plan.validate().is_ok() && !plan.is_none());
            let spec = plan.to_spec();
            let mut tokens: Vec<String> = spec.split(',').map(str::to_string).collect();
            let victim = victim % tokens.len();
            let corrupted = match corruption {
                // Trailing garbage breaks the last number of any token.
                0 => format!("{}x", tokens[victim]),
                // Neither `verb@N` nor `key=value`.
                1 => tokens[victim].replace(['@', '='], "#"),
                // No such verb, no such key.
                _ => format!("z{}", tokens[victim]),
            };
            tokens[victim] = corrupted.clone();
            let at: usize = tokens[..victim].iter().map(|t| t.len() + 2).sum();
            let err = tokens.join("; ").parse::<FaultPlan>().unwrap_err().to_string();
            let needle = format!("'{corrupted}' at byte {at}");
            proptest::prop_assert!(err.contains(&needle), "{} lacks {}", err, needle);
        }
    }

    /// DESIGN.md's "Fault plan grammar" section is the grammar reference:
    /// it names every verb and key of the tables.
    #[test]
    fn design_md_lists_every_verb_and_key() {
        let design = include_str!("../../../../DESIGN.md");
        let start = design.find("### Fault plan grammar").expect("DESIGN.md has the section");
        let section = &design[start + 3..];
        // Pipes inside a table cell are written `\|`.
        let section = section[..section.find("\n##").unwrap_or(section.len())].replace('\\', "");
        for verb in &VERBS {
            let (pattern, _) = verb.shape.pattern();
            let token = format!("`{}@N{}`", verb.keyword, pattern.split(' ').next().unwrap());
            assert!(section.contains(&token), "DESIGN.md's grammar section lacks {token}");
        }
        for key in &KEYS {
            let token = format!("`{}=", key.name);
            assert!(section.contains(&token), "DESIGN.md's grammar section lacks {token}…`");
        }
    }
}
