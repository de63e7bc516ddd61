//! The unreliable-message transport layer.
//!
//! PR 3 modeled *node*-level churn (crashes, departures) with a binary
//! per-hop loss coin; this module grows the fault model to *message*
//! granularity. Every protocol message class the paper's machinery sends
//! — destage passdowns (Fig. 1), push-protocol responses (§4.5),
//! diversion transfers (§4.3), directory updates/invalidates (§4.2,
//! Fig. 1 steps 5/10/14), and replica re-homes — flows through one
//! [`UnreliableTransport`] that injects seeded **loss**, **duplication**,
//! **reordering**, and **payload corruption**, and models the
//! at-least-once delivery discipline that survives them:
//!
//! * **sequence numbers** — every send is stamped; the receiver keeps a
//!   bounded dedup window of recently seen numbers, so a
//!   duplicated delivery is recognized and discarded (idempotency: a
//!   duplicate causes *no* state change, which the golden idempotency
//!   test pins end to end);
//! * **bounded retries with exponential backoff** — a lost or corrupted
//!   attempt is retransmitted up to [`MAX_ATTEMPTS`] times; attempt `k`
//!   waits `2^(k-1) - 1` extra timeout units plus 0–1 units of seeded
//!   jitter, all priced into the simulated request latency by the engine
//!   (each unit is one `t_timeout` charge);
//! * **XXH64 payload checksums** — every payload is stamped with a
//!   digest ([`webcache_primitives::xxh64`]); a corrupted attempt is
//!   caught at the receiver, counted, and retried. A payload that never
//!   verifies within the retry budget is **quarantined**: the object is
//!   dropped rather than cached damaged.
//!
//! Delivery semantics differ by [`MessageClass`]: *payload* classes
//! (destage, push, diversion) may be dropped or quarantined outright —
//! caching is best-effort, so the caller degrades safely (object not
//! cached, push miss, store at the root instead of diverting). *Metadata*
//! classes (directory update/invalidate, replica re-home) ride the
//! reliable client↔proxy channel: the retry loop prices their latency,
//! but the final attempt always lands, because dropping them would
//! desynchronize the directory from residency — exactly the invariant
//! the chaos oracles audit.
//!
//! Determinism: all four fault coins are independent [`Bernoulli`]
//! streams derived from one seed, so a transport plan replays bit for
//! bit; a transport with all-zero probabilities never advances any
//! stream and leaves a run bit-identical to one without the layer.
//!
//! # Overload defenses
//!
//! The retransmission ladder above is safe per message but dangerous in
//! aggregate: under a flash crowd every loss retries up to
//! [`MAX_ATTEMPTS`] times, so offered load *amplifies* exactly when
//! capacity is scarcest — the classic metastable-failure recipe. Two
//! defenses, both off by default and armed together via
//! [`UnreliableTransport::arm_overload`] (see [`OverloadDefense`]):
//!
//! * **per-destination circuit breakers** — after
//!   `breaker_threshold` consecutive full-ladder failures to one peer the
//!   breaker trips *open* and subsequent sends to that peer fail fast,
//!   priced as a single detection timeout instead of a whole backoff
//!   ladder. After a seeded quiet interval the breaker goes *half-open*:
//!   one probe rides the real ladder, success re-closes, failure re-opens.
//! * **a per-node retry budget** — a token bucket spent one token per
//!   retransmission and refilled as a fraction of clean first-attempt
//!   successes, capping retries at a ratio of goodput. An exhausted
//!   budget abandons the ladder immediately (`budget_denied`), converting
//!   retransmission into the paper's availability rule: the caller
//!   degrades the fetch to the origin server instead of feeding a retry
//!   storm.
//!
//! Pricing of every timeout unit follows the single
//! `t_timeout = TIMEOUT_RTT_MULTIPLE · Tp2p` rule documented on
//! [`webcache_primitives::TIMEOUT_RTT_MULTIPLE`]. Determinism: the
//! defense's only random draw (the quiet-interval jitter) comes from a
//! dedicated `derive(seed, "overload")` stream, consumed only when a
//! breaker actually trips — a disarmed transport makes zero overload
//! draws and stays bit-identical to one built before this layer existed.

use webcache_primitives::seed::{derive, SeedStream};
use webcache_primitives::{xxh64, Bernoulli, FxHashMap, FxHashSet};

/// Retry budget per logical message (first try + three retransmissions).
pub const MAX_ATTEMPTS: u32 = 4;

/// How many recent sequence numbers the receiver-side dedup window
/// remembers. Duplicates arrive immediately after their original in this
/// simulator, so the window only needs to outlast reordering depth; 128
/// is generous.
pub const DEDUP_WINDOW: usize = 128;

/// The protocol message classes that flow through the transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageClass {
    /// Proxy → client cluster destage of an evicted object (Fig. 1).
    Destage,
    /// Holder → proxy push-protocol response (§4.5).
    Push,
    /// Root → leaf-set neighbor diversion transfer (§4.3).
    Diversion,
    /// Client → proxy store receipt updating the lookup directory
    /// (Fig. 1 steps 5/10/14).
    DirectoryUpdate,
    /// Proxy-side directory invalidation after a stale lookup.
    DirectoryInvalidate,
    /// Replica promotion / re-home after a crash repair.
    ReplicaRehome,
    /// Proxy → receipt-holder possession challenge (checksum echo) from
    /// the spot-check audit defense.
    AuditChallenge,
}

impl MessageClass {
    /// Stable label (events, reports).
    pub fn label(&self) -> &'static str {
        match self {
            MessageClass::Destage => "destage",
            MessageClass::Push => "push",
            MessageClass::Diversion => "diversion",
            MessageClass::DirectoryUpdate => "directory_update",
            MessageClass::DirectoryInvalidate => "directory_invalidate",
            MessageClass::ReplicaRehome => "replica_rehome",
            MessageClass::AuditChallenge => "audit_challenge",
        }
    }

    /// Whether the class carries an object payload and may therefore be
    /// dropped (loss) or quarantined (corruption) after the retry budget
    /// — caching is best-effort. Metadata classes are priced but always
    /// delivered (see the module docs).
    pub fn droppable(&self) -> bool {
        matches!(self, MessageClass::Destage | MessageClass::Push | MessageClass::Diversion)
    }
}

/// Seeded fault probabilities for the transport, all in `[0, 1)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransportFaults {
    /// Per-attempt probability a message vanishes on the wire.
    pub loss: f64,
    /// Probability a delivered message arrives a second time.
    pub duplication: f64,
    /// Probability a delivered message arrives out of order (one
    /// timeout-equivalent stall while the receiver resequences).
    pub reorder: f64,
    /// Per-attempt probability one payload bit flips in flight (caught by
    /// the XXH64 digest).
    pub corruption: f64,
    /// Master seed; the four coin streams and the jitter stream are
    /// derived from it with distinct labels.
    pub seed: u64,
}

impl TransportFaults {
    /// The all-zero configuration: installing it is behaviorally inert.
    pub fn none() -> Self {
        TransportFaults { loss: 0.0, duplication: 0.0, reorder: 0.0, corruption: 0.0, seed: 0 }
    }

    /// True when every fault probability is zero.
    pub fn is_none(&self) -> bool {
        self.loss <= 0.0 && self.duplication <= 0.0 && self.reorder <= 0.0 && self.corruption <= 0.0
    }
}

/// Overload-defense knobs for the transport (module docs, "Overload
/// defenses"). The all-zero configuration is inert; arming any knob via
/// [`UnreliableTransport::arm_overload`] enables the addressed
/// [`UnreliableTransport::send_to`] machinery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverloadDefense {
    /// Consecutive full-ladder failures to one destination that trip its
    /// circuit breaker open. `0` disables breakers.
    pub breaker_threshold: u32,
    /// Base quiet interval, in sends to the tripped destination, before
    /// an open breaker goes half-open and probes. A seeded jitter of up
    /// to a quarter of this is added per trip so breakers across nodes
    /// do not probe in lockstep.
    pub breaker_quiet: u64,
    /// Retry tokens earned per clean first-attempt delivery. `0.0`
    /// disables the retry budget.
    pub retry_budget_ratio: f64,
    /// Token-bucket capacity (the bucket starts full).
    pub retry_budget_cap: u64,
    /// Seed for the `derive(seed, "overload")` jitter stream.
    pub seed: u64,
}

impl OverloadDefense {
    /// The all-off configuration: arming it is behaviorally inert.
    pub fn none() -> Self {
        OverloadDefense {
            breaker_threshold: 0,
            breaker_quiet: 0,
            retry_budget_ratio: 0.0,
            retry_budget_cap: 0,
            seed: 0,
        }
    }

    /// True when both defenses are off.
    pub fn is_none(&self) -> bool {
        self.breaker_threshold == 0 && self.retry_budget_ratio <= 0.0
    }
}

/// Per-destination circuit-breaker state. `open_remaining > 0` is open
/// (fail fast, count down); `half_open` marks the probe send after the
/// quiet interval elapses; otherwise closed.
#[derive(Clone, Copy, Debug, Default)]
struct Breaker {
    consecutive_failures: u32,
    open_remaining: u64,
    half_open: bool,
}

/// Armed-defense state: the knobs, the jitter stream, the token bucket
/// (milli-tokens so fractional refill ratios stay exact integers), and
/// one breaker per destination ever addressed.
#[derive(Clone, Debug)]
struct DefenseState {
    cfg: OverloadDefense,
    mix: SeedStream,
    budget_milli: u64,
    breakers: FxHashMap<u128, Breaker>,
}

/// What one logical send went through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SendOutcome {
    /// The payload reached the receiver (always true for metadata
    /// classes).
    pub delivered: bool,
    /// The payload never passed its checksum within the retry budget;
    /// the object must not be cached.
    pub quarantined: bool,
    /// Total attempts made (1 = first try landed).
    pub attempts: u32,
    /// Failed attempts; each is one timed-out message (one stall).
    pub timeouts: u32,
    /// Extra exponential-backoff waits plus jitter, in timeout units.
    pub backoff_units: u64,
    /// A duplicated delivery was discarded by the sequence-number window.
    pub deduped: bool,
    /// The delivery was reordered (the caller prices one stall).
    pub reordered: bool,
    /// Corrupted attempts caught by the payload digest.
    pub checksum_failures: u32,
    /// The send fast-failed on an open circuit breaker: no ladder ran,
    /// and the whole send is priced as one detection timeout.
    pub breaker_fast_fail: bool,
    /// The retry budget ran dry mid-ladder; retransmission was abandoned
    /// and the caller must degrade to the origin server.
    pub budget_denied: bool,
}

impl SendOutcome {
    /// Total timeout-equivalent latency units this send costs:
    /// one per failed attempt, the backoff waits, and the reorder stall.
    pub fn penalty_units(&self) -> u64 {
        u64::from(self.timeouts) + self.backoff_units + u64::from(self.reordered)
    }
}

/// Receiver-side window of recently seen sequence numbers.
#[derive(Clone, Debug)]
struct DedupWindow {
    ring: Vec<u64>,
    seen: FxHashSet<u64>,
    next_slot: usize,
}

impl DedupWindow {
    fn new() -> Self {
        DedupWindow { ring: Vec::new(), seen: FxHashSet::default(), next_slot: 0 }
    }

    /// Records `seq`; returns false when it was already in the window
    /// (a duplicate to discard).
    fn first_delivery(&mut self, seq: u64) -> bool {
        if !self.seen.insert(seq) {
            return false;
        }
        if self.ring.len() < DEDUP_WINDOW {
            self.ring.push(seq);
        } else {
            let evicted = std::mem::replace(&mut self.ring[self.next_slot], seq);
            self.seen.remove(&evicted);
            self.next_slot = (self.next_slot + 1) % DEDUP_WINDOW;
        }
        true
    }
}

/// The seeded unreliable transport (module docs).
#[derive(Clone, Debug)]
pub struct UnreliableTransport {
    cfg: TransportFaults,
    loss: Bernoulli,
    dup: Bernoulli,
    reorder: Bernoulli,
    corrupt: Bernoulli,
    /// Jitter + corrupted-bit selection stream.
    mix: SeedStream,
    /// Digest seed, fixed per transport so checksums replay.
    checksum_seed: u64,
    next_seq: u64,
    window: DedupWindow,
    /// Armed overload defenses (breakers + retry budget); `None` keeps
    /// the transport bit-identical to the pre-defense layer.
    defense: Option<DefenseState>,
}

impl UnreliableTransport {
    /// Builds the transport; the four fault coins and the jitter stream
    /// get independent seeds derived from `cfg.seed`.
    pub fn new(cfg: TransportFaults) -> Self {
        UnreliableTransport {
            cfg,
            loss: Bernoulli::new(cfg.loss, derive(cfg.seed, "transport-loss")),
            dup: Bernoulli::new(cfg.duplication, derive(cfg.seed, "transport-dup")),
            reorder: Bernoulli::new(cfg.reorder, derive(cfg.seed, "transport-reorder")),
            corrupt: Bernoulli::new(cfg.corruption, derive(cfg.seed, "transport-corrupt")),
            mix: SeedStream::new(derive(cfg.seed, "transport-jitter")),
            checksum_seed: derive(cfg.seed, "transport-checksum"),
            next_seq: 0,
            window: DedupWindow::new(),
            defense: None,
        }
    }

    /// The configured fault probabilities.
    pub fn faults(&self) -> &TransportFaults {
        &self.cfg
    }

    /// Arms the overload defenses (module docs). An all-off
    /// configuration is ignored, keeping the disarmed fast path — and
    /// its zero-draw guarantee — intact.
    pub fn arm_overload(&mut self, defense: OverloadDefense) {
        if defense.is_none() {
            self.defense = None;
            return;
        }
        self.defense = Some(DefenseState {
            cfg: defense,
            mix: SeedStream::new(derive(defense.seed, "overload")),
            budget_milli: defense.retry_budget_cap.saturating_mul(1000),
            breakers: FxHashMap::default(),
        });
    }

    /// The armed overload defenses, if any.
    pub fn overload_defense(&self) -> Option<&OverloadDefense> {
        self.defense.as_ref().map(|d| &d.cfg)
    }

    /// Whole retry tokens left in the budget (None when the budget knob
    /// is off).
    pub fn retry_budget_remaining(&self) -> Option<u64> {
        match &self.defense {
            Some(d) if d.cfg.retry_budget_ratio > 0.0 => Some(d.budget_milli / 1000),
            _ => None,
        }
    }

    /// True while `dest`'s circuit breaker is open (fail-fast mode).
    pub fn breaker_is_open(&self, dest: u128) -> bool {
        self.defense
            .as_ref()
            .and_then(|d| d.breakers.get(&dest))
            .is_some_and(|b| b.open_remaining > 0)
    }

    /// One logical message carrying `payload` (the 128-bit objectId
    /// stands in for the object body) through the retry ladder alone, no
    /// overload defense consulted: [`send_to`](Self::send_to) with the
    /// defenses disarmed.
    fn send(&mut self, class: MessageClass, payload: u128) -> SendOutcome {
        self.ladder(class, payload, false)
    }

    /// Sends one logical message carrying `payload` (the 128-bit
    /// objectId stands in for the object body) to `dest`. Returns
    /// everything the caller needs to account for the send:
    /// delivery/quarantine fate, latency penalties, and the
    /// dedup/checksum observations. Armed, the overload defenses apply
    /// (module docs): an open breaker fails fast (priced as one detection
    /// timeout), a half-open breaker probes through the real ladder, and
    /// each retransmission spends a retry token. Disarmed, `dest` is not
    /// read.
    pub fn send_to(&mut self, class: MessageClass, dest: u128, payload: u128) -> SendOutcome {
        if self.defense.is_none() {
            return self.send(class, payload);
        }
        // Breaker gate: open → fail fast; counted down to half-open.
        let probing = {
            let d = self.defense.as_mut().expect("checked above");
            let b = d.breakers.entry(dest).or_default();
            if b.open_remaining > 0 {
                b.open_remaining -= 1;
                if b.open_remaining == 0 {
                    b.half_open = true;
                }
                let mut out =
                    SendOutcome { timeouts: 1, breaker_fast_fail: true, ..SendOutcome::default() };
                if !class.droppable() {
                    out.delivered = true;
                }
                return out;
            }
            b.half_open
        };
        let out = self.ladder(class, payload, true);
        // Raw ladder failure — before metadata forcing. Droppable classes
        // report it directly; for metadata, every attempt having timed
        // out means nothing actually landed.
        let raw_failure =
            if class.droppable() { !out.delivered } else { out.timeouts >= out.attempts };
        let d = self.defense.as_mut().expect("checked above");
        let b = d.breakers.entry(dest).or_default();
        if raw_failure && !out.budget_denied {
            b.consecutive_failures += 1;
            let threshold = d.cfg.breaker_threshold;
            if probing || (threshold > 0 && b.consecutive_failures >= threshold) {
                // Trip open (or re-open after a failed probe) for the
                // base quiet interval plus seeded jitter — the only
                // random draw the defenses make.
                let quiet = d.cfg.breaker_quiet.max(1);
                let jitter = d.mix.pick(quiet as usize / 4 + 1) as u64;
                b.open_remaining = quiet + jitter;
                b.half_open = false;
                b.consecutive_failures = 0;
            }
        } else if !raw_failure {
            // A clean outcome closes a half-open breaker and resets the
            // consecutive-failure count.
            b.consecutive_failures = 0;
            b.half_open = false;
        }
        out
    }

    /// The shared retransmission ladder. With `budgeted` set, each
    /// retransmission first spends a retry token; an empty bucket
    /// abandons the ladder (`budget_denied`) and clean first-attempt
    /// deliveries refill the bucket. With `budgeted` unset the control
    /// flow and stream draws are bit-identical to the pre-defense
    /// transport.
    fn ladder(&mut self, class: MessageClass, payload: u128, budgeted: bool) -> SendOutcome {
        let seq = self.next_seq;
        self.next_seq += 1;
        let body = payload.to_le_bytes();
        let digest = xxh64(&body, self.checksum_seed);
        let mut out = SendOutcome::default();
        for attempt in 1..=MAX_ATTEMPTS {
            out.attempts = attempt;
            if self.loss.sample() {
                out.timeouts += 1;
                if budgeted && attempt < MAX_ATTEMPTS && !self.spend_retry_token() {
                    out.budget_denied = true;
                    break;
                }
                out.backoff_units += Self::backoff(attempt) + self.jitter();
                continue;
            }
            if self.corrupt.sample() {
                // One bit flips in flight; the receiver's digest check
                // catches it (the xxhash tests pin that every single-bit
                // flip moves the digest) and the attempt is discarded.
                let bit = self.mix.pick(128);
                let mut damaged = body;
                damaged[bit / 8] ^= 1 << (bit % 8);
                debug_assert_ne!(xxh64(&damaged, self.checksum_seed), digest);
                out.checksum_failures += 1;
                out.timeouts += 1;
                if budgeted && attempt < MAX_ATTEMPTS && !self.spend_retry_token() {
                    out.budget_denied = true;
                    break;
                }
                out.backoff_units += Self::backoff(attempt) + self.jitter();
                continue;
            }
            // Delivered and verified. The first delivery always clears
            // the window (sequence numbers are unique per send).
            let fresh = self.window.first_delivery(seq);
            debug_assert!(fresh, "sequence numbers are unique per send");
            out.delivered = true;
            if self.dup.sample() {
                // The network delivers a second copy; the window flags it
                // and the receiver discards it without touching state.
                out.deduped = !self.window.first_delivery(seq);
                debug_assert!(out.deduped);
            }
            if self.reorder.sample() {
                out.reordered = true;
            }
            break;
        }
        if budgeted && out.delivered && out.attempts == 1 && out.timeouts == 0 {
            self.earn_retry_tokens();
        }
        if !out.delivered {
            if out.checksum_failures > 0 {
                out.quarantined = true;
            }
            if !class.droppable() {
                // Metadata rides the reliable client↔proxy channel: the
                // retry budget priced the latency, the payload lands.
                out.delivered = true;
                out.quarantined = false;
            }
        }
        out
    }

    /// Spends one retry token (1000 milli). Always succeeds when the
    /// budget knob is off.
    fn spend_retry_token(&mut self) -> bool {
        let Some(d) = self.defense.as_mut() else { return true };
        if d.cfg.retry_budget_ratio <= 0.0 {
            return true;
        }
        if d.budget_milli >= 1000 {
            d.budget_milli -= 1000;
            true
        } else {
            false
        }
    }

    /// Credits the budget for one clean first-attempt delivery:
    /// `retry_budget_ratio` tokens, capped at `retry_budget_cap`.
    fn earn_retry_tokens(&mut self) {
        if let Some(d) = self.defense.as_mut() {
            if d.cfg.retry_budget_ratio > 0.0 {
                let cap = d.cfg.retry_budget_cap.saturating_mul(1000);
                let earn = (d.cfg.retry_budget_ratio * 1000.0).round() as u64;
                d.budget_milli = d.budget_milli.saturating_add(earn).min(cap);
            }
        }
    }

    /// Extra wait before retransmission `attempt + 1`, in timeout units:
    /// 0, 1, 3, … (the failed attempt's own timeout is charged
    /// separately, so the effective schedule is the classic 1, 2, 4, …).
    fn backoff(attempt: u32) -> u64 {
        (1u64 << (attempt - 1)) - 1
    }

    /// 0–1 units of seeded jitter, decorrelating retry storms.
    fn jitter(&mut self) -> u64 {
        self.mix.coin()
    }

    /// Test-only: swaps the loss coin so a test can make faults start or
    /// stop deterministically (e.g. to watch a breaker re-close once the
    /// network is quiet).
    #[cfg(test)]
    fn force_loss(&mut self, p: f64) {
        self.cfg.loss = p;
        self.loss = Bernoulli::new(p, derive(self.cfg.seed, "transport-loss-forced"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_transport_delivers_everything_first_try() {
        let mut t =
            UnreliableTransport::new(TransportFaults { seed: 9, ..TransportFaults::none() });
        for i in 0..1000u128 {
            let out = t.send(MessageClass::Destage, i);
            assert!(out.delivered && !out.deduped && !out.reordered);
            assert_eq!(out.attempts, 1);
            assert_eq!(out.penalty_units(), 0);
        }
    }

    #[test]
    fn same_seed_replays_the_same_outcomes() {
        let cfg = TransportFaults {
            loss: 0.2,
            duplication: 0.1,
            reorder: 0.1,
            corruption: 0.05,
            seed: 1234,
        };
        let mut a = UnreliableTransport::new(cfg);
        let mut b = UnreliableTransport::new(cfg);
        for i in 0..2000u128 {
            assert_eq!(a.send(MessageClass::Push, i), b.send(MessageClass::Push, i));
        }
    }

    #[test]
    fn duplicates_are_caught_by_the_window() {
        let cfg = TransportFaults { duplication: 0.999, seed: 7, ..TransportFaults::none() };
        let mut t = UnreliableTransport::new(cfg);
        let out = t.send(MessageClass::Destage, 42);
        assert!(out.delivered);
        assert!(out.deduped, "a duplicated delivery must be discarded by the seq window");
    }

    #[test]
    fn heavy_loss_drops_payload_but_not_metadata() {
        let cfg = TransportFaults { loss: 0.999, seed: 3, ..TransportFaults::none() };
        let mut t = UnreliableTransport::new(cfg);
        let payload = t.send(MessageClass::Destage, 1);
        assert!(!payload.delivered && !payload.quarantined);
        assert_eq!(payload.attempts, MAX_ATTEMPTS);
        assert_eq!(payload.timeouts, MAX_ATTEMPTS);
        // Backoff 0+1+3+7 plus up to 1 jitter per failed attempt.
        assert!(payload.backoff_units >= 11, "backoff {}", payload.backoff_units);
        let meta = t.send(MessageClass::DirectoryUpdate, 2);
        assert!(meta.delivered, "metadata always lands");
        assert!(meta.penalty_units() > 0, "but its retries are priced");
    }

    #[test]
    fn corruption_quarantines_instead_of_caching() {
        let cfg = TransportFaults { corruption: 0.999, seed: 5, ..TransportFaults::none() };
        let mut t = UnreliableTransport::new(cfg);
        let out = t.send(MessageClass::Destage, 0xDEAD_BEEF);
        assert!(!out.delivered && out.quarantined);
        assert_eq!(out.checksum_failures, MAX_ATTEMPTS);
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let cfg = TransportFaults { loss: 0.1, seed: 11, ..TransportFaults::none() };
        let mut t = UnreliableTransport::new(cfg);
        let (mut retried, n) = (0u32, 10_000u32);
        for i in 0..n {
            retried += u32::from(t.send(MessageClass::Destage, u128::from(i)).attempts > 1);
        }
        let rate = f64::from(retried) / f64::from(n);
        assert!((rate - 0.1).abs() < 0.02, "observed first-attempt loss rate {rate}");
    }

    #[test]
    fn dedup_window_is_bounded() {
        let mut w = DedupWindow::new();
        for seq in 0..(DEDUP_WINDOW as u64 * 3) {
            assert!(w.first_delivery(seq));
            assert!(!w.first_delivery(seq), "immediate duplicate must be flagged");
        }
        assert!(w.ring.len() <= DEDUP_WINDOW);
        assert_eq!(w.seen.len(), w.ring.len());
    }

    #[test]
    fn class_labels_and_droppability() {
        assert_eq!(MessageClass::Destage.label(), "destage");
        assert_eq!(MessageClass::DirectoryInvalidate.label(), "directory_invalidate");
        assert!(MessageClass::Push.droppable());
        assert!(MessageClass::Diversion.droppable());
        assert!(!MessageClass::DirectoryUpdate.droppable());
        assert!(!MessageClass::ReplicaRehome.droppable());
        assert_eq!(MessageClass::AuditChallenge.label(), "audit_challenge");
        assert!(!MessageClass::AuditChallenge.droppable(), "audits must always resolve");
    }

    fn lossy(seed: u64, loss: f64) -> UnreliableTransport {
        UnreliableTransport::new(TransportFaults { loss, seed, ..TransportFaults::none() })
    }

    fn defense() -> OverloadDefense {
        OverloadDefense {
            breaker_threshold: 3,
            breaker_quiet: 16,
            retry_budget_ratio: 0.1,
            retry_budget_cap: 8,
            seed: 0xDEF,
        }
    }

    #[test]
    fn disarmed_send_to_is_bit_identical_to_send() {
        let cfg = TransportFaults {
            loss: 0.2,
            duplication: 0.1,
            reorder: 0.1,
            corruption: 0.05,
            seed: 77,
        };
        let mut plain = UnreliableTransport::new(cfg);
        let mut addressed = UnreliableTransport::new(cfg);
        for i in 0..2000u128 {
            let dest = i % 7;
            assert_eq!(
                plain.send(MessageClass::Destage, i),
                addressed.send_to(MessageClass::Destage, dest, i),
                "send_to without armed defenses must be send, bit for bit"
            );
        }
        assert!(addressed.overload_defense().is_none());
        assert!(addressed.retry_budget_remaining().is_none());
    }

    #[test]
    fn arming_an_all_off_defense_is_inert() {
        let mut t = lossy(5, 0.3);
        t.arm_overload(OverloadDefense::none());
        assert!(t.overload_defense().is_none());
        let mut twin = lossy(5, 0.3);
        for i in 0..500u128 {
            assert_eq!(t.send_to(MessageClass::Push, 3, i), twin.send(MessageClass::Push, i));
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_fast_fails() {
        let mut t = lossy(13, 0.999_999);
        t.arm_overload(OverloadDefense { retry_budget_ratio: 0.0, ..defense() });
        let mut fast_fails = 0u32;
        let mut full_ladders = 0u32;
        for i in 0..10u128 {
            let out = t.send_to(MessageClass::Destage, 1, i);
            assert!(!out.delivered);
            if out.breaker_fast_fail {
                fast_fails += 1;
                assert_eq!(out.attempts, 0);
                assert_eq!(out.timeouts, 1);
                assert_eq!(out.penalty_units(), 1, "fast fail is priced as one detection");
            } else {
                full_ladders += 1;
                assert_eq!(out.attempts, MAX_ATTEMPTS);
            }
        }
        assert_eq!(full_ladders, 3, "threshold consecutive failures run the real ladder");
        assert_eq!(fast_fails, 7, "every later send fail-fasts on the open breaker");
        assert!(t.breaker_is_open(1));
        assert!(!t.breaker_is_open(2), "breakers are per destination");
    }

    #[test]
    fn breaker_fast_fail_still_delivers_metadata() {
        let mut t = lossy(21, 0.999_999);
        t.arm_overload(OverloadDefense { retry_budget_ratio: 0.0, ..defense() });
        for i in 0..3u128 {
            t.send_to(MessageClass::Destage, 4, i);
        }
        assert!(t.breaker_is_open(4));
        let out = t.send_to(MessageClass::DirectoryUpdate, 4, 99);
        assert!(out.breaker_fast_fail);
        assert!(out.delivered, "metadata always lands, even on a fast fail");
        assert_eq!(out.timeouts, 1);
    }

    #[test]
    fn tripped_breaker_recloses_after_a_quiet_interval() {
        let mut t = lossy(31, 0.999_999);
        t.arm_overload(OverloadDefense { retry_budget_ratio: 0.0, ..defense() });
        for i in 0..3u128 {
            t.send_to(MessageClass::Destage, 2, i);
        }
        assert!(t.breaker_is_open(2));
        // The network goes quiet; drain the open interval, then the
        // half-open probe succeeds and the breaker re-closes.
        t.force_loss(0.0);
        let mut sends = 0u64;
        while t.breaker_is_open(2) {
            let out = t.send_to(MessageClass::Destage, 2, 1000 + u128::from(sends));
            assert!(out.breaker_fast_fail && !out.delivered);
            sends += 1;
            assert!(sends <= 16 + 4 + 1, "open interval is quiet + jitter, at most 20");
        }
        let probe = t.send_to(MessageClass::Destage, 2, 5000);
        assert!(probe.delivered && !probe.breaker_fast_fail, "half-open probe runs the ladder");
        assert!(!t.breaker_is_open(2));
        // And stays closed while the network behaves.
        for i in 0..50u128 {
            let out = t.send_to(MessageClass::Destage, 2, 6000 + i);
            assert!(out.delivered && !out.breaker_fast_fail);
        }
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let mut t = lossy(47, 0.999_999);
        t.arm_overload(OverloadDefense { retry_budget_ratio: 0.0, ..defense() });
        for i in 0..3u128 {
            t.send_to(MessageClass::Destage, 6, i);
        }
        let mut sends = 0u128;
        while t.breaker_is_open(6) {
            t.send_to(MessageClass::Destage, 6, 1000 + sends);
            sends += 1;
        }
        // Still lossy: the probe fails and must re-open immediately,
        // without waiting for `threshold` consecutive failures again.
        let probe = t.send_to(MessageClass::Destage, 6, 5000);
        assert!(!probe.delivered && !probe.breaker_fast_fail);
        assert!(t.breaker_is_open(6), "a failed half-open probe re-opens the breaker");
    }

    #[test]
    fn exhausted_budget_abandons_the_ladder() {
        let mut t = lossy(61, 0.999_999);
        t.arm_overload(OverloadDefense {
            breaker_threshold: 0,
            retry_budget_ratio: 0.5,
            retry_budget_cap: 3,
            ..defense()
        });
        assert_eq!(t.retry_budget_remaining(), Some(3));
        // First send: attempt 1 fails and the three retransmissions each
        // spend a token, draining the bucket over the full ladder.
        let first = t.send_to(MessageClass::Destage, 9, 1);
        assert!(!first.delivered && !first.budget_denied);
        assert_eq!(first.attempts, MAX_ATTEMPTS);
        assert_eq!(t.retry_budget_remaining(), Some(0));
        // Second send: no tokens left — the ladder is abandoned after the
        // first failed attempt instead of feeding a retry storm.
        let second = t.send_to(MessageClass::Destage, 9, 2);
        assert!(second.budget_denied, "empty bucket must deny the retry");
        assert!(!second.delivered);
        assert_eq!(second.attempts, 1);
        assert_eq!(second.timeouts, 1);
        assert_eq!(second.backoff_units, 0, "no backoff wait for a retry that never runs");
    }

    #[test]
    fn clean_successes_refill_the_budget() {
        let mut t = lossy(71, 0.999_999);
        t.arm_overload(OverloadDefense {
            breaker_threshold: 0,
            retry_budget_ratio: 0.5,
            retry_budget_cap: 2,
            ..defense()
        });
        t.send_to(MessageClass::Destage, 9, 1); // drains the bucket
        assert_eq!(t.retry_budget_remaining(), Some(0));
        t.force_loss(0.0);
        for i in 0..4u128 {
            assert!(t.send_to(MessageClass::Destage, 9, 100 + i).delivered);
        }
        assert_eq!(t.retry_budget_remaining(), Some(2), "0.5 tokens per clean success");
        for i in 0..10u128 {
            t.send_to(MessageClass::Destage, 9, 200 + i);
        }
        assert_eq!(t.retry_budget_remaining(), Some(2), "refill is capped at the bucket size");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The retry budget is a hard cap: across any seed and loss rate,
        /// total retransmissions never exceed the initial bucket plus
        /// what clean successes earned (all in milli-tokens, so the
        /// arithmetic is exact).
        #[test]
        fn retries_never_exceed_the_budget(
            seed in proptest::prelude::any::<u64>(),
            loss in 0.0f64..0.9,
            ratio in 0.05f64..1.0,
            cap in 1u64..16,
        ) {
            let mut t = lossy(seed, loss);
            t.arm_overload(OverloadDefense {
                breaker_threshold: 0,
                breaker_quiet: 0,
                retry_budget_ratio: ratio,
                retry_budget_cap: cap,
                seed,
            });
            let earn_milli = (ratio * 1000.0).round() as u64;
            let mut spent_milli = 0u64;
            let mut earned_milli = 0u64;
            for i in 0..2000u128 {
                let out = t.send_to(MessageClass::Destage, i % 5, i);
                // Every attempt after the first was paid for with a token.
                spent_milli += 1000 * u64::from(out.attempts.saturating_sub(1));
                if out.delivered && out.attempts == 1 && out.timeouts == 0 {
                    earned_milli += earn_milli;
                }
                proptest::prop_assert!(
                    spent_milli <= cap * 1000 + earned_milli,
                    "retries outran the budget: spent {} > cap {} + earned {}",
                    spent_milli, cap * 1000, earned_milli
                );
            }
        }

        /// A tripped breaker always re-closes once the network goes
        /// fault-free: the open interval drains in a bounded number of
        /// sends and the first probe succeeds.
        #[test]
        fn tripped_breaker_always_recloses_when_faults_stop(
            seed in proptest::prelude::any::<u64>(),
            threshold in 1u32..6,
            quiet in 1u64..64,
        ) {
            let mut t = lossy(seed, 0.999_999);
            t.arm_overload(OverloadDefense {
                breaker_threshold: threshold,
                breaker_quiet: quiet,
                retry_budget_ratio: 0.0,
                retry_budget_cap: 0,
                seed,
            });
            let mut i = 0u128;
            // Trip it: with near-certain loss every ladder fails, so at
            // most `threshold` sends (plus slack for the astronomically
            // unlikely delivery) are needed.
            while !t.breaker_is_open(0) {
                t.send_to(MessageClass::Destage, 0, i);
                i += 1;
                proptest::prop_assert!(i < 10_000, "breaker never tripped");
            }
            // Faults stop; the open window is quiet + jitter ≤ quiet + quiet/4.
            t.force_loss(0.0);
            let mut drained = 0u64;
            while t.breaker_is_open(0) {
                t.send_to(MessageClass::Destage, 0, i);
                i += 1;
                drained += 1;
                proptest::prop_assert!(
                    drained <= quiet.max(1) + quiet.max(1) / 4,
                    "open interval exceeded quiet + jitter bound"
                );
            }
            let probe = t.send_to(MessageClass::Destage, 0, i);
            proptest::prop_assert!(probe.delivered && !probe.breaker_fast_fail);
            proptest::prop_assert!(!t.breaker_is_open(0), "fault-free probe must re-close");
        }
    }
}
