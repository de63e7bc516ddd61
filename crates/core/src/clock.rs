//! The discrete-event clock: a hierarchical time wheel over integer
//! ticks.
//!
//! Model time is measured in **ticks**, [`TICKS_PER_UNIT`] per model
//! latency unit (`Tl = 1.0`). Consecutive requests at one proxy are one
//! arrival period ([`TICKS_PER_ROUND`]) apart, so the classic round-robin
//! interleave of the old inline driver is exactly the schedule produced
//! by self-scheduling arrivals: seed proxy `0..n` at tick 0 in index
//! order, and let each arrival schedule its successor one period later.
//! Because delivery within a tick is FIFO in scheduling order, round `r`
//! always pops `p0, p1, …` in proxy order — the compat-mode ordering
//! proof DESIGN.md sketches rests on this invariant.
//!
//! The wheel is hierarchical: a 1024-slot level-0 wheel at one tick per
//! slot, a 256-slot level-1 wheel at 1024 ticks per slot, and a sorted
//! overflow map for everything farther out (far-future fault events,
//! pathological stalls). Scheduling and delivery are O(1) for the dense
//! near-term traffic the simulation generates; cascades touch each event
//! at most twice. Delivery order is total: ascending tick, FIFO within a
//! tick, enforced by an always-on monotonicity assertion in [`SimClock::pop`].

use crate::event::Event;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::str::FromStr;

/// Simulation ticks per model latency unit (`Tl = 1.0` → 32 ticks).
/// Event-mode latencies are quantized to 1/32 of a unit; compat mode
/// prices analytically and never rounds.
pub const TICKS_PER_UNIT: u64 = 32;

/// Ticks between consecutive request arrivals at one proxy — one
/// "round" of the classic round-robin driver.
pub const TICKS_PER_ROUND: u64 = 32;

/// Converts a model-unit duration to ticks (round to nearest).
pub fn ticks_of(units: f64) -> u64 {
    debug_assert!(units >= 0.0, "durations are non-negative");
    (units * TICKS_PER_UNIT as f64).round() as u64
}

/// How the engine prices and orders work on the clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ClockMode {
    /// Replay the analytic pricing of the inline driver through the
    /// event schedule: requests are priced at arrival with the
    /// [`LatencyModel`](crate::net::LatencyModel)'s constants, in the
    /// exact order the old round-robin loop served them. Every golden
    /// (run, churn, transport, split-brain, chaos) is byte-identical to
    /// the pre-event-core simulator.
    #[default]
    Compat,
    /// Full discrete-event execution: requests occupy their proxy until
    /// the completion event fires, so overlapping admissions queue,
    /// transport stalls become genuine backlog, and non-uniform
    /// latency models shift the schedule instead of just the totals.
    Event,
}

impl ClockMode {
    /// Canonical lowercase label (CLI flag value, report field).
    pub fn label(self) -> &'static str {
        match self {
            ClockMode::Compat => "compat",
            ClockMode::Event => "event",
        }
    }
}

impl fmt::Display for ClockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ClockMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "compat" => Ok(ClockMode::Compat),
            "event" => Ok(ClockMode::Event),
            other => Err(format!("unknown clock mode '{other}' (expected 'compat' or 'event')")),
        }
    }
}

/// Level-0 slots: one tick each.
const L0_SLOTS: usize = 1024;
/// Level-1 slots: [`L0_SPAN`] ticks each.
const L1_SLOTS: usize = 256;
/// Ticks covered by the level-0 window.
const L0_SPAN: u64 = L0_SLOTS as u64;
/// Ticks covered by the level-1 window.
const L1_SPAN: u64 = L0_SPAN * L1_SLOTS as u64;

#[derive(Clone, Debug)]
struct Entry {
    tick: u64,
    event: Event,
}

/// Occupancy bitmaps: one bit per slot, scanned by word.
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1 << (i & 63);
}

fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] &= !(1 << (i & 63));
}

/// First set bit at index `start` or later, if any.
fn scan_from(bits: &[u64], start: usize) -> Option<usize> {
    let mut w = start >> 6;
    if w >= bits.len() {
        return None;
    }
    let mut word = bits[w] & (!0u64 << (start & 63));
    loop {
        if word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == bits.len() {
            return None;
        }
        word = bits[w];
    }
}

/// The simulation clock: schedules [`Event`]s at future ticks and
/// delivers them in (tick, FIFO) order.
///
/// The clock also carries the run's [`ClockMode`] and two conservation
/// counters — events scheduled and events delivered — that the
/// clock-compat test suite checks for balance after every run.
#[derive(Debug)]
pub struct SimClock {
    mode: ClockMode,
    now: u64,
    /// Start of the level-0 window (multiple of [`L0_SPAN`]).
    w0: u64,
    /// Start of the level-1 window (multiple of [`L1_SPAN`]).
    w1: u64,
    level0: Vec<VecDeque<Entry>>,
    l0_bits: [u64; L0_SLOTS / 64],
    level1: Vec<VecDeque<Entry>>,
    l1_bits: [u64; L1_SLOTS / 64],
    overflow: BTreeMap<u64, VecDeque<Entry>>,
    pending: u64,
    scheduled: u64,
    delivered: u64,
}

impl SimClock {
    /// A fresh clock at tick 0 in `mode`.
    pub fn new(mode: ClockMode) -> Self {
        SimClock {
            mode,
            now: 0,
            w0: 0,
            w1: 0,
            level0: (0..L0_SLOTS).map(|_| VecDeque::new()).collect(),
            l0_bits: [0; L0_SLOTS / 64],
            level1: (0..L1_SLOTS).map(|_| VecDeque::new()).collect(),
            l1_bits: [0; L1_SLOTS / 64],
            overflow: BTreeMap::new(),
            pending: 0,
            scheduled: 0,
            delivered: 0,
        }
    }

    /// A fresh [`ClockMode::Compat`] clock.
    pub fn compat() -> Self {
        SimClock::new(ClockMode::Compat)
    }

    /// A fresh [`ClockMode::Event`] clock.
    pub fn event() -> Self {
        SimClock::new(ClockMode::Event)
    }

    /// The clock's execution mode.
    pub fn mode(&self) -> ClockMode {
        self.mode
    }

    /// Current simulation time in ticks (the timestamp of the most
    /// recently delivered event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events scheduled but not yet delivered.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Total events ever scheduled on this clock.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events delivered by [`SimClock::pop`].
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedules `event` at absolute `tick`.
    ///
    /// # Panics
    /// Panics if `tick` is in the past (`tick < now()`).
    pub fn schedule_at(&mut self, tick: u64, event: Event) {
        assert!(tick >= self.now, "event scheduled in the past: {tick} < {}", self.now);
        self.scheduled += 1;
        self.pending += 1;
        let entry = Entry { tick, event };
        if tick < self.w0 + L0_SPAN {
            let slot = (tick % L0_SPAN) as usize;
            set_bit(&mut self.l0_bits, slot);
            self.level0[slot].push_back(entry);
        } else if tick < self.w1 + L1_SPAN {
            let slot = ((tick - self.w1) / L0_SPAN) as usize;
            set_bit(&mut self.l1_bits, slot);
            self.level1[slot].push_back(entry);
        } else {
            self.overflow.entry(tick).or_default().push_back(entry);
        }
    }

    /// Schedules `event` `delay` ticks from now.
    pub fn schedule_in(&mut self, delay: u64, event: Event) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Delivers the next event, advancing `now` to its tick. Events come
    /// back in ascending tick order, FIFO within a tick. Returns `None`
    /// when the schedule is empty.
    pub fn pop(&mut self) -> Option<Event> {
        if self.pending == 0 {
            return None;
        }
        loop {
            let start = self.now.saturating_sub(self.w0) as usize;
            if let Some(slot) = scan_from(&self.l0_bits, start.min(L0_SLOTS)) {
                let tick = self.w0 + slot as u64;
                assert!(tick >= self.now, "non-monotone delivery: {tick} < {}", self.now);
                self.now = tick;
                let q = &mut self.level0[slot];
                let entry = q.pop_front().expect("occupancy bit set on empty slot");
                if q.is_empty() {
                    clear_bit(&mut self.l0_bits, slot);
                }
                self.pending -= 1;
                self.delivered += 1;
                return Some(entry.event);
            }
            self.advance_window();
        }
    }

    /// Advances the level-0 window to the next populated region,
    /// cascading level-1 slots (and, when level 1 is exhausted, the
    /// overflow map) down. Only called with `pending > 0` and the
    /// current level-0 window drained.
    fn advance_window(&mut self) {
        loop {
            // The level-1 slot covering the current (drained) level-0
            // window has already been cascaded and cleared, so scanning
            // from it finds strictly later work.
            let from = ((self.w0 - self.w1) / L0_SPAN) as usize;
            if let Some(slot) = scan_from(&self.l1_bits, from.min(L1_SLOTS)) {
                self.w0 = self.w1 + slot as u64 * L0_SPAN;
                clear_bit(&mut self.l1_bits, slot);
                let entries = std::mem::take(&mut self.level1[slot]);
                for entry in entries {
                    let l0 = (entry.tick % L0_SPAN) as usize;
                    set_bit(&mut self.l0_bits, l0);
                    self.level0[l0].push_back(entry);
                }
                return;
            }
            // Level 1 is empty: jump both windows to the earliest
            // overflow tick and refill level 1 from the overflow map.
            let first = *self.overflow.keys().next().expect("pending events must live somewhere");
            self.w1 = first - first % L1_SPAN;
            self.w0 = self.w1;
            let beyond = self.overflow.split_off(&(self.w1 + L1_SPAN));
            let within = std::mem::replace(&mut self.overflow, beyond);
            for (tick, entries) in within {
                let slot = ((tick - self.w1) / L0_SPAN) as usize;
                set_bit(&mut self.l1_bits, slot);
                self.level1[slot].extend(entries);
            }
        }
    }

    /// Compat-mode bookkeeping: the dense round-robin schedule is
    /// executed without materializing per-request entries (the ordering
    /// proof in DESIGN.md shows the wheel would deliver exactly that
    /// order), but the conservation counters still account one
    /// scheduled + delivered pair per virtual event.
    pub(crate) fn account_virtual(&mut self, events: u64) {
        self.scheduled += events;
        self.delivered += events;
    }

    /// Compat-mode bookkeeping: advance `now` directly to `tick`.
    ///
    /// # Panics
    /// Panics if `tick` would move time backwards.
    pub(crate) fn advance_to(&mut self, tick: u64) {
        assert!(tick >= self.now, "clock cannot run backwards: {tick} < {}", self.now);
        self.now = tick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(i: usize) -> Event {
        Event::Timeout { proxy: i, units: 0 }
    }

    fn untag(e: Event) -> usize {
        match e {
            Event::Timeout { proxy, .. } => proxy,
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn fifo_within_a_tick() {
        let mut c = SimClock::event();
        for i in 0..5 {
            c.schedule_at(7, tag(i));
        }
        let order: Vec<usize> = std::iter::from_fn(|| c.pop()).map(untag).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.now(), 7);
    }

    #[test]
    fn delivery_spans_all_levels_in_tick_order() {
        // Ticks in level 0, level 1, and overflow, scheduled shuffled.
        let ticks =
            [3 * L1_SPAN + 17, 5, L0_SPAN + 3, 1, L1_SPAN - 1, 2 * L1_SPAN, L0_SPAN * 9 + 100];
        let mut c = SimClock::event();
        for (i, &t) in ticks.iter().enumerate() {
            c.schedule_at(t, tag(i));
        }
        let mut sorted: Vec<u64> = ticks.to_vec();
        sorted.sort_unstable();
        let mut seen = Vec::new();
        while let Some(e) = c.pop() {
            seen.push((c.now(), untag(e)));
        }
        assert_eq!(seen.len(), ticks.len());
        for (i, &(tick, tag_idx)) in seen.iter().enumerate() {
            assert_eq!(tick, sorted[i]);
            assert_eq!(ticks[tag_idx], tick);
        }
    }

    #[test]
    fn scheduling_during_delivery_at_the_same_tick_is_fifo() {
        let mut c = SimClock::event();
        c.schedule_at(4, tag(0));
        c.schedule_at(4, tag(1));
        assert_eq!(untag(c.pop().unwrap()), 0);
        // An event scheduled *at now* during the drain lands after the
        // already-queued same-tick events.
        c.schedule_at(4, tag(2));
        assert_eq!(untag(c.pop().unwrap()), 1);
        assert_eq!(untag(c.pop().unwrap()), 2);
        assert!(c.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut c = SimClock::event();
        c.schedule_at(10, tag(0));
        c.pop();
        c.schedule_at(3, tag(1));
    }

    #[test]
    fn counters_conserve() {
        let mut c = SimClock::compat();
        for i in 0..10 {
            c.schedule_at(i as u64 * 100, tag(i));
        }
        assert_eq!(c.scheduled(), 10);
        assert_eq!(c.pending(), 10);
        while c.pop().is_some() {}
        assert_eq!(c.delivered(), 10);
        assert!(c.is_empty());
        c.account_virtual(4);
        assert_eq!(c.scheduled(), 14);
        assert_eq!(c.delivered(), 14);
    }

    #[test]
    fn ticks_of_rounds_to_nearest() {
        assert_eq!(ticks_of(0.0), 0);
        assert_eq!(ticks_of(1.0), TICKS_PER_UNIT);
        assert_eq!(ticks_of(1.5), TICKS_PER_UNIT + TICKS_PER_UNIT / 2);
        assert_eq!(ticks_of(0.01), 0);
    }

    #[test]
    fn mode_labels_parse_round_trip() {
        for mode in [ClockMode::Compat, ClockMode::Event] {
            assert_eq!(mode.label().parse::<ClockMode>().unwrap(), mode);
        }
        assert!("banana".parse::<ClockMode>().is_err());
        assert_eq!(ClockMode::default(), ClockMode::Compat);
    }

    proptest::proptest! {
        /// Delivery order equals a stable sort by tick for arbitrary
        /// schedules spanning every wheel level, and the conservation
        /// counters balance.
        #[test]
        fn wheel_delivers_stable_tick_order(
            ticks in proptest::collection::vec(0u64..(3 * L1_SPAN), 1..200),
        ) {
            let mut c = SimClock::event();
            for (i, &t) in ticks.iter().enumerate() {
                c.schedule_at(t, tag(i));
            }
            let mut expect: Vec<(u64, usize)> =
                ticks.iter().copied().zip(0..).collect();
            expect.sort_by_key(|&(t, _)| t);
            let mut got = Vec::new();
            while let Some(e) = c.pop() {
                got.push((c.now(), untag(e)));
            }
            proptest::prop_assert_eq!(got, expect);
            proptest::prop_assert_eq!(c.delivered(), ticks.len() as u64);
            proptest::prop_assert!(c.is_empty());
        }
    }
}
