//! Synthetic substitute for the UCB Home-IP trace.
//!
//! The paper's Figure 2(b) uses the UC Berkeley Home-IP HTTP trace (18 days,
//! 9,244,728 requests; ITA archive, 1997). The original files are no longer
//! obtainable, so we synthesize a trace with the published coarse
//! characteristics of that trace family (dial-up/home-IP proxy logs studied
//! by Gribble & Brewer and in the ProWGen/Breslau measurement literature):
//!
//! * heavier one-time referencing than the paper's default synthetic
//!   workload (most objects are seen once);
//! * a Zipf-like popularity with α ≈ 0.8;
//! * a much larger object universe relative to the request count (the trace
//!   covers the whole Web as seen by thousands of modem users, so caches
//!   that hold 10% of the hot set are *small* relative to the universe);
//! * day-scale non-stationarity: each day's active set mixes a persistent
//!   hot core with day-specific objects that never return.
//!
//! Those are precisely the properties the paper's §5.2 uses to explain why
//! Figure 2(b)'s gains are lower and flatter than Figure 2(a)'s, so a trace
//! reproducing them preserves the comparison's shape. See DESIGN.md
//! ("Substitutions").
//!
//! Mechanically, the generator composes per-day [`ProWGen`] streams over a
//! shared global universe: a fraction of each day's objects come from the
//! persistent core (stable popularity ranks), the rest are fresh objects
//! unique to the day.

use crate::prowgen::{ProWGen, ProWGenConfig};
use crate::sizes::SizeModel;
use crate::trace::{Request, Trace};

/// Configuration for the UCB-like synthetic trace.
#[derive(Clone, Debug)]
pub struct UcbLikeConfig {
    /// Total requests (default 2,000,000 — a laptop-friendly scale-down of
    /// the original 9.24M; `--full` harness runs use 9,244,728).
    pub requests: usize,
    /// Simulated days (the original trace spans 18).
    pub days: usize,
    /// Distinct objects in the persistent hot core shared by all days.
    pub core_objects: usize,
    /// Distinct day-local objects introduced per day.
    pub fresh_objects_per_day: usize,
    /// Fraction of each day's requests addressed to the persistent core.
    pub core_request_fraction: f64,
    /// Zipf α of the core popularity (measurements of home-IP traces put
    /// this near 0.8).
    pub zipf_alpha: f64,
    /// One-time fraction among day-local objects.
    pub fresh_one_time_fraction: f64,
    /// Clients in the cluster.
    pub num_clients: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UcbLikeConfig {
    fn default() -> Self {
        UcbLikeConfig {
            requests: 2_000_000,
            days: 18,
            core_objects: 30_000,
            fresh_objects_per_day: 20_000,
            core_request_fraction: 0.30,
            zipf_alpha: 0.8,
            fresh_one_time_fraction: 0.80,
            num_clients: 100,
            seed: 0x0CB_1997,
        }
    }
}

impl UcbLikeConfig {
    /// Paper-scale variant: the original trace's 9,244,728 requests.
    pub fn full_scale() -> Self {
        UcbLikeConfig {
            requests: 9_244_728,
            core_objects: 60_000,
            fresh_objects_per_day: 60_000,
            ..UcbLikeConfig::default()
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests == 0 || self.days == 0 {
            return Err("requests and days must be positive".into());
        }
        if self.core_objects == 0 || self.fresh_objects_per_day == 0 {
            return Err("object counts must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.core_request_fraction) {
            return Err("core_request_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.fresh_one_time_fraction) {
            return Err("fresh_one_time_fraction must be in [0,1]".into());
        }
        let per_day = self.requests / self.days;
        let core_reqs = (per_day as f64 * self.core_request_fraction) as usize;
        let fresh_reqs = per_day - core_reqs;
        if fresh_reqs < self.fresh_objects_per_day * 2 {
            return Err(format!(
                "each day needs at least 2 requests per fresh object \
                 ({} fresh requests vs {} fresh objects)",
                fresh_reqs, self.fresh_objects_per_day
            ));
        }
        if core_reqs < self.core_objects {
            // The core sub-generator addresses core_objects/2 distinct
            // multi-reference ranks, each needing >= 2 references per day.
            return Err(format!(
                "each day needs at least {} core requests (2 per distinct core rank), got {}",
                self.core_objects, core_reqs
            ));
        }
        // Every day but the last has the first day's shape.
        for day in [0, self.days - 1] {
            for ((sub, _), stream) in self.day_streams(day).into_iter().zip(["core", "fresh"]) {
                sub.validate().map_err(|e| format!("day {day}'s {stream} stream: {e}"))?;
            }
        }
        Ok(())
    }

    /// Day `day`'s two [`ProWGen`] streams — the persistent core, then the
    /// day-local fresh objects — each with how many of its requests the
    /// day keeps.
    fn day_streams(&self, day: usize) -> [(ProWGenConfig, usize); 2] {
        // Give the final day the remainder so totals match exactly.
        let per_day = self.requests / self.days;
        let total =
            if day + 1 == self.days { self.requests - per_day * (self.days - 1) } else { per_day };
        let core_reqs = (total as f64 * self.core_request_fraction) as usize;
        let fresh_reqs = total - core_reqs;
        // Core stream: stable popularity (same ranks every day, fresh seed
        // so *which* requests arrive varies), low one-timer rate (the core
        // is by definition re-referenced material). The core sub-universe
        // each day is the whole core.
        let core = ProWGenConfig {
            requests: core_reqs.max(self.core_objects / 2),
            distinct_objects: (self.core_objects / 2).max(1),
            one_time_fraction: 0.0,
            zipf_alpha: self.zipf_alpha,
            stack_fraction: 0.5,
            num_clients: self.num_clients,
            size_model: SizeModel::Unit,
            seed: webcache_primitives::seed::derive_indexed(self.seed, "ucb-core", day as u64),
            ..ProWGenConfig::default()
        };
        // Fresh stream: day-local objects, heavy one-time referencing.
        let fresh = ProWGenConfig {
            requests: fresh_reqs.max(2 * self.fresh_objects_per_day),
            distinct_objects: self.fresh_objects_per_day,
            one_time_fraction: self.fresh_one_time_fraction,
            zipf_alpha: self.zipf_alpha,
            stack_fraction: 0.3,
            num_clients: self.num_clients,
            size_model: SizeModel::Unit,
            seed: webcache_primitives::seed::derive_indexed(self.seed, "ucb-fresh", day as u64),
            ..ProWGenConfig::default()
        };
        [(core, core_reqs), (fresh, fresh_reqs)]
    }
}

/// UCB-like trace generator. See the module docs for the model.
#[derive(Clone, Debug)]
pub struct UcbLike {
    cfg: UcbLikeConfig,
}

impl UcbLike {
    /// Creates a generator after validating `cfg`.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: UcbLikeConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid UcbLikeConfig: {e}");
        }
        UcbLike { cfg }
    }

    /// Generates the trace.
    ///
    /// Object id layout: `0..core_objects` is the persistent core (in
    /// popularity-rank order); day `d` owns the id range
    /// `core + d*fresh .. core + (d+1)*fresh`.
    pub fn generate(&self) -> Trace {
        let cfg = &self.cfg;
        let mut requests: Vec<Request> = Vec::with_capacity(cfg.requests);
        for day in 0..cfg.days {
            let [(core, core_reqs), (fresh, fresh_reqs)] = cfg.day_streams(day);
            // Map the day's dense rank ids onto stable core ids via a
            // rank-preserving stride so every day hits the same hot head.
            for r in ProWGen::new(core).generate().requests.iter().take(core_reqs) {
                let object = (r.object as usize * 2 % cfg.core_objects) as u32;
                requests.push(Request { client: r.client, object, size: 1 });
            }
            let base = (cfg.core_objects + day * cfg.fresh_objects_per_day) as u32;
            for r in ProWGen::new(fresh).generate().requests.iter().take(fresh_reqs) {
                requests.push(Request { client: r.client, object: base + r.object, size: 1 });
            }

            // Interleave the day's core and fresh requests so they do not
            // arrive as two separate phases: deterministic riffle.
            let day_start = requests.len() - core_reqs - fresh_reqs;
            riffle(&mut requests[day_start..], core_reqs);
        }

        let num_objects = (cfg.core_objects + cfg.days * cfg.fresh_objects_per_day) as u32;
        Trace { requests, num_objects, num_clients: cfg.num_clients }
    }
}

/// Deterministically interleaves a slice whose first `left` elements are one
/// stream and the rest another, preserving each stream's internal order.
fn riffle(slice: &mut [Request], left: usize) {
    let right = slice.len() - left;
    if left == 0 || right == 0 {
        return;
    }
    let a: Vec<Request> = slice[..left].to_vec();
    let b: Vec<Request> = slice[left..].to_vec();
    let total = slice.len();
    let (mut ia, mut ib) = (0usize, 0usize);
    for (i, out) in slice.iter_mut().enumerate() {
        // Proportional merge: pick from `a` when its progress lags.
        let take_a = ib >= right || (ia < left && ia * total <= i * left);
        if take_a {
            *out = a[ia];
            ia += 1;
        } else {
            *out = b[ib];
            ib += 1;
        }
        let _ = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> UcbLikeConfig {
        UcbLikeConfig {
            requests: 120_000,
            days: 6,
            core_objects: 2_000,
            fresh_objects_per_day: 1_500,
            ..UcbLikeConfig::default()
        }
    }

    #[test]
    fn exact_request_count() {
        let t = UcbLike::new(tiny()).generate();
        assert_eq!(t.len(), 120_000);
    }

    #[test]
    fn deterministic() {
        let a = UcbLike::new(tiny()).generate();
        let b = UcbLike::new(tiny()).generate();
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn heavier_one_timers_than_default_synthetic() {
        let t = UcbLike::new(tiny()).generate();
        let s = t.stats();
        assert!(
            s.one_timer_fraction() > 0.5,
            "UCB-like should be one-timer heavy: {}",
            s.one_timer_fraction()
        );
    }

    #[test]
    fn universe_large_relative_to_infinite_cache() {
        let t = UcbLike::new(tiny()).generate();
        let s = t.stats();
        assert!(s.distinct_objects > s.infinite_cache_size * 2);
    }

    #[test]
    fn core_objects_recur_across_days() {
        let t = UcbLike::new(tiny()).generate();
        // A hot core object (id 0) should appear in most days' segments.
        let day_len = t.len() / 6;
        let mut days_seen = 0;
        for d in 0..6 {
            let seg = &t.requests[d * day_len..(d + 1) * day_len];
            if seg.iter().any(|r| r.object == 0) {
                days_seen += 1;
            }
        }
        assert!(days_seen >= 5, "hot core object seen in {days_seen}/6 days");
    }

    #[test]
    fn fresh_objects_do_not_recur() {
        let t = UcbLike::new(tiny()).generate();
        let day_len = t.len() / 6;
        // Day 0's fresh range must not appear after day 1's end (allow the
        // riffle boundary one day of slack).
        let day0_base = 2_000u32;
        let day0_end = day0_base + 1_500;
        let late = &t.requests[2 * day_len..];
        assert!(
            late.iter().all(|r| !(day0_base..day0_end).contains(&r.object)),
            "day-0 fresh objects recurred later"
        );
    }

    #[test]
    fn day_streams_interleaved() {
        let t = UcbLike::new(tiny()).generate();
        // Within day 0, core (< 2000) and fresh (>= 2000) requests must be
        // mixed, not phased: both kinds appear in each quarter of the day.
        let day_len = t.len() / 6;
        let q = day_len / 4;
        for quarter in 0..4 {
            let seg = &t.requests[quarter * q..(quarter + 1) * q];
            assert!(seg.iter().any(|r| r.object < 2_000), "no core reqs in quarter {quarter}");
            assert!(seg.iter().any(|r| r.object >= 2_000), "no fresh reqs in quarter {quarter}");
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = tiny();
        c.requests = 0;
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.core_request_fraction = 2.0;
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.fresh_objects_per_day = 1_000_000;
        assert!(c.validate().is_err());
        // Every fresh object a one-timer: the fresh stream's references
        // cannot reach its request count.
        let mut c = tiny();
        c.fresh_one_time_fraction = 1.0;
        let err = c.validate().expect_err("all-one-timer fresh stream");
        assert!(err.contains("day 0's fresh stream"), "{err}");
        assert!(tiny().validate().is_ok());
        assert!(UcbLikeConfig::default().validate().is_ok());
        assert!(UcbLikeConfig::full_scale().validate().is_ok());
    }

    #[test]
    fn riffle_preserves_multiset_and_order() {
        let mk = |object: u32| Request { client: 0, object, size: 1 };
        let mut v: Vec<Request> = (0..10).map(mk).collect();
        riffle(&mut v, 4);
        // All elements still present.
        let mut objs: Vec<u32> = v.iter().map(|r| r.object).collect();
        objs.sort_unstable();
        assert_eq!(objs, (0..10).collect::<Vec<_>>());
        // Relative order within each stream preserved.
        let a_pos: Vec<usize> =
            (0..4).map(|o| v.iter().position(|r| r.object == o).unwrap()).collect();
        assert!(a_pos.windows(2).all(|w| w[0] < w[1]));
        let b_pos: Vec<usize> =
            (4..10).map(|o| v.iter().position(|r| r.object == o).unwrap()).collect();
        assert!(b_pos.windows(2).all(|w| w[0] < w[1]));
    }
}
