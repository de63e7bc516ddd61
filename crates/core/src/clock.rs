//! The discrete-event clock: a priority queue of events over integer
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
//! Pending events live in one binary min-heap keyed by `(tick, seq)`,
//! where `seq` is the clock's count of events scheduled before this one.
//! The key is unique, so delivery order is total: ascending tick, FIFO
//! within a tick, with an always-on monotonicity assertion in
//! [`SimClock::pop`]. Scheduling and delivery cost O(log n) in the events
//! pending — a few per proxy while the proxies keep up with their
//! arrivals, a backlog that grows with the trace when they do not.

use crate::event::Event;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
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

/// One scheduled event. Entries order by `(tick, seq)` alone: ascending
/// tick, then scheduling order. `seq` is unique, so the order is total.
#[derive(Debug)]
struct Entry {
    tick: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.tick, self.seq).cmp(&(other.tick, other.seq))
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
    queue: BinaryHeap<Reverse<Entry>>,
    scheduled: u64,
    delivered: u64,
}

impl SimClock {
    /// A fresh clock at tick 0 in `mode`.
    pub fn new(mode: ClockMode) -> Self {
        SimClock { mode, now: 0, queue: BinaryHeap::new(), scheduled: 0, delivered: 0 }
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
        self.queue.len() as u64
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
        self.queue.is_empty()
    }

    /// Schedules `event` at absolute `tick`.
    ///
    /// # Panics
    /// Panics if `tick` is in the past (`tick < now()`).
    pub fn schedule_at(&mut self, tick: u64, event: Event) {
        assert!(tick >= self.now, "event scheduled in the past: {tick} < {}", self.now);
        self.queue.push(Reverse(Entry { tick, seq: self.scheduled, event }));
        self.scheduled += 1;
    }

    /// Schedules `event` `delay` ticks from now.
    pub fn schedule_in(&mut self, delay: u64, event: Event) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Delivers the next event, advancing `now` to its tick. Events come
    /// back in ascending tick order, FIFO within a tick. Returns `None`
    /// when the schedule is empty.
    pub fn pop(&mut self) -> Option<Event> {
        let Reverse(entry) = self.queue.pop()?;
        assert!(entry.tick >= self.now, "non-monotone delivery: {} < {}", entry.tick, self.now);
        self.now = entry.tick;
        self.delivered += 1;
        Some(entry.event)
    }

    /// Compat-mode bookkeeping: the dense round-robin schedule is
    /// executed without materializing per-request entries (the ordering
    /// proof in DESIGN.md shows the queue would deliver exactly that
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
    use proptest::{prop_assert_eq, proptest};

    fn tag(i: usize) -> Event {
        Event::Fault { index: i }
    }

    fn untag(e: Event) -> usize {
        match e {
            Event::Fault { index } => index,
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
        // Ticks from 1 to beyond 2^19, scheduled shuffled.
        let ticks = [786_449, 5, 1_027, 1, 262_143, 524_288, 9_316];
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
    fn a_saturated_tick_is_delivered() {
        let mut c = SimClock::event();
        c.schedule_at(5, tag(0));
        // `schedule_in` saturates: the event lands on the last tick.
        c.schedule_in(u64::MAX, tag(1));
        assert_eq!(untag(c.pop().unwrap()), 0);
        assert_eq!(untag(c.pop().unwrap()), 1);
        assert_eq!(c.now(), u64::MAX);
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

    /// Decodes one lockstep operation: `None` pops, `Some(d)` schedules
    /// `d` ticks from now. Delays are zero (a same-tick drain), small,
    /// above 2^18, or within 64 of `u64::MAX` (saturating).
    fn delay_of(kind: u8, raw: u64) -> Option<u64> {
        match kind {
            0 | 1 => None,
            2 => Some(0),
            3 => Some(1 + raw % 64),
            4 => Some((1 << 18) + 1 + raw),
            _ => Some(u64::MAX - raw % 64),
        }
    }

    /// The reference clock: a plain list, popped at its minimum
    /// `(tick, seq)`.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u64, u64, usize)>,
        now: u64,
        scheduled: u64,
        delivered: u64,
    }

    impl Model {
        fn schedule_at(&mut self, tick: u64, tag: usize) {
            self.entries.push((tick, self.scheduled, tag));
            self.scheduled += 1;
        }

        fn pop(&mut self) -> Option<usize> {
            let (i, _) = self.entries.iter().enumerate().min_by_key(|&(_, &(t, s, _))| (t, s))?;
            let (tick, _, tag) = self.entries.swap_remove(i);
            self.now = tick;
            self.delivered += 1;
            Some(tag)
        }
    }

    proptest! {
        /// The clock and the list model agree after every operation on the
        /// popped event and on all four counters, for schedules that mix
        /// same-tick drains, short and long delays, and saturated ticks.
        #[test]
        fn clock_matches_its_list_model(
            ops in proptest::collection::vec((0u8..6, 0u64..1 << 20), 1..300),
        ) {
            let mut c = SimClock::event();
            let mut m = Model::default();
            for (i, (kind, raw)) in ops.into_iter().enumerate() {
                match delay_of(kind, raw) {
                    Some(d) => {
                        let tick = c.now().saturating_add(d);
                        c.schedule_at(tick, tag(i));
                        m.schedule_at(tick, i);
                    }
                    None => prop_assert_eq!(c.pop().map(untag), m.pop()),
                }
                prop_assert_eq!(c.now(), m.now);
                prop_assert_eq!(c.pending(), m.entries.len() as u64);
                prop_assert_eq!(c.scheduled(), m.scheduled);
                prop_assert_eq!(c.delivered(), m.delivered);
            }
            loop {
                let popped = c.pop().map(untag);
                prop_assert_eq!(popped, m.pop());
                if popped.is_none() {
                    break;
                }
            }
            prop_assert_eq!(c.now(), m.now);
        }
    }
}
