//! ProWGen-style synthetic Web-proxy workload generator.
//!
//! Reimplements the workload model of Busari & Williamson, *On the
//! sensitivity of Web proxy cache performance to workload characteristics*
//! (INFOCOM 2001) — reference \[4\] of the paper — with the four knobs the
//! paper uses (§5.1):
//!
//! * **one-time referencing** — fraction of distinct objects referenced
//!   exactly once (default 50%);
//! * **object popularity** — Zipf-like with skew `α` (default 0.7;
//!   Figure 3 sweeps {0.5, 0.7, 1.0});
//! * **number of distinct objects** (default 10,000) and total requests
//!   (default 1,000,000);
//! * **temporal locality** — a finite LRU-stack model whose capacity is a
//!   percentage of the number of multi-reference objects (Figure 4 sweeps
//!   {5%, 20%, 60%}).
//!
//! # Generation model (ProWGen's "dynamic" stack variant)
//!
//! 1. Objects are split into one-timers and multi-reference objects;
//!    multi-reference objects receive *assigned* reference counts
//!    proportional to a Zipf(α) over popularity ranks, scaled so that all
//!    assigned references total exactly `requests`.
//! 2. The stream is generated left to right against a finite LRU stack of
//!    recently referenced objects. At each slot the next object comes
//!    **from the stack** with probability equal to the stack members' share
//!    of all remaining references (ProWGen's dynamic model), picking stack
//!    depth `d` with probability ∝ `1/d^θ`; otherwise it comes **from the
//!    pool** of non-stack objects, weighted by remaining references (a
//!    pool draw is either an object's first reference or the re-reference
//!    of an object that was pushed off the stack earlier).
//! 3. A referenced object moves to (or enters at) the top of the stack; an
//!    exhausted object leaves it. When the stack exceeds its capacity the
//!    bottom entry is *displaced* back into the pool, keeping its remaining
//!    references.
//!
//! The pool is a [`SumTree`] over remaining references: a pool draw
//! descends one row of four sibling sums per level (7 levels at 10,000
//! objects), and moving an object on or off the stack is a point update.
//! A stack draw searches the depth prefix sums `Σ_{j≤d} j^-θ` from a
//! Chen–Asau guide table, which starts the search next to its answer
//! rather than bisecting up to the stack capacity. Both return exactly
//! what a linear scan would, so the trace depends on the configuration
//! alone; tests hold the loop to a naive reference model and pin the
//! digests of the benchmark's traces.
//!
//! Every assigned reference is eventually emitted, so the realized
//! popularity distribution and one-timer fraction match the configuration
//! *exactly*; the stack capacity only redistributes reference positions in
//! time. A larger stack serves more references at short reuse distances —
//! "more objects are accessed with temporal locality", which is exactly how
//! the paper describes the knob in its Figure 4 discussion. [`GenReport`]
//! exposes stack/pool pick counts and displacement counts so tests can
//! verify the mechanics.

use crate::sizes::{SizeDistribution, SizeModel};
use crate::trace::{Request, Trace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use webcache_primitives::SumTree;

/// Configuration for [`ProWGen`]. Defaults are the paper's (§5.1).
#[derive(Clone, Debug)]
pub struct ProWGenConfig {
    /// Total requests to generate (paper default: 1,000,000).
    pub requests: usize,
    /// Distinct objects addressed (paper default: 10,000).
    pub distinct_objects: usize,
    /// Fraction of distinct objects referenced exactly once (default 0.5).
    pub one_time_fraction: f64,
    /// Zipf popularity skew α (default 0.7).
    pub zipf_alpha: f64,
    /// LRU stack capacity as a fraction of the number of multi-reference
    /// objects (default 0.20; Figure 4 sweeps 0.05/0.20/0.60).
    pub stack_fraction: f64,
    /// Skew θ of the stack-depth selection probability (∝ 1/d^θ).
    ///
    /// The default (1.5) is calibrated so the workload sits in the regime
    /// the paper's results assume: re-references concentrate near the top
    /// of the stack (so a larger stack means *more* requests enjoy
    /// temporal locality — the Figure 4 premise that a single cache
    /// improves with stack size) while long-run popularity still rewards
    /// the frequency-based FC policy over plain LFU sharing (Figure 2's
    /// FC ≥ SC ordering). See EXPERIMENTS.md.
    pub stack_depth_skew: f64,
    /// Clients in the cluster; each request is attributed uniformly
    /// (paper default cluster size: 100).
    pub num_clients: u32,
    /// Object size model (paper assumption: unit sizes).
    pub size_model: SizeModel,
    /// Size–popularity rank correlation in [-1, 1]; ProWGen found real
    /// traces close to 0, slightly negative (popular objects smaller).
    pub size_pop_correlation: f64,
    /// RNG seed; every derived stream is deterministic in this.
    pub seed: u64,
}

impl Default for ProWGenConfig {
    fn default() -> Self {
        ProWGenConfig {
            requests: 1_000_000,
            distinct_objects: 10_000,
            one_time_fraction: 0.5,
            zipf_alpha: 0.7,
            stack_fraction: 0.20,
            stack_depth_skew: 1.5,
            num_clients: 100,
            size_model: SizeModel::Unit,
            size_pop_correlation: 0.0,
            seed: 0x5EED_2003,
        }
    }
}

impl ProWGenConfig {
    /// Validates parameter ranges; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("requests must be positive".into());
        }
        if self.distinct_objects == 0 {
            return Err("distinct_objects must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.one_time_fraction) {
            return Err("one_time_fraction must be in [0,1]".into());
        }
        if self.zipf_alpha < 0.0 || !self.zipf_alpha.is_finite() {
            return Err("zipf_alpha must be finite and >= 0".into());
        }
        if !(0.0..=1.0).contains(&self.stack_fraction) || self.stack_fraction == 0.0 {
            return Err("stack_fraction must be in (0,1]".into());
        }
        if self.stack_depth_skew < 0.0 || !self.stack_depth_skew.is_finite() {
            return Err("stack_depth_skew must be finite and >= 0".into());
        }
        if self.num_clients == 0 {
            return Err("num_clients must be positive".into());
        }
        if !(-1.0..=1.0).contains(&self.size_pop_correlation) {
            return Err("size_pop_correlation must be in [-1,1]".into());
        }
        let n = self.distinct_objects;
        let n_one = (n as f64 * self.one_time_fraction).round() as usize;
        let n_multi = n - n_one;
        // Every object needs a first reference, every multi-ref object at
        // least one more.
        if self.requests < n + n_multi {
            return Err(format!(
                "requests ({}) must be at least distinct_objects + multi-ref objects ({})",
                self.requests,
                n + n_multi
            ));
        }
        // Only multi-ref objects take the references beyond the first.
        if n_multi == 0 && self.requests != n {
            return Err(format!(
                "one_time_fraction {} makes all {n} objects one-timers, so requests ({}) \
                 must equal distinct_objects",
                self.one_time_fraction, self.requests
            ));
        }
        Ok(())
    }
}

/// Counters describing how generation went; exposed for tests and analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenReport {
    /// Multi-reference objects generated.
    pub multi_objects: usize,
    /// One-timer objects generated.
    pub one_timer_objects: usize,
    /// LRU stack capacity used.
    pub stack_capacity: usize,
    /// References served from the LRU stack (temporal-locality path).
    pub stack_picks: u64,
    /// References served from the pool (first references plus re-references
    /// of objects previously pushed off the stack).
    pub pool_picks: u64,
    /// Times a stack-bottom entry was displaced back into the pool.
    pub displacements: u64,
}

/// Stack-depth weights and a Chen–Asau guide table over them.
///
/// `prefix[d] = Σ_{j=1..d} j^-θ`, so a draw `u ∈ [0, prefix[len])` picks
/// depth `d` (1 = top) with probability ∝ `1/d^θ`. `guide` splits
/// `[0, prefix[cap])` into `cap` equal buckets and holds, for each, the
/// first depth whose prefix exceeds the bucket's left edge, so a search
/// starts next to its answer instead of bisecting up to `cap` sums.
struct DepthSearch {
    prefix: Vec<f64>,
    guide: Vec<usize>,
    /// Buckets per unit of weight: `cap / prefix[cap]`.
    scale: f64,
}

impl DepthSearch {
    fn new(cap: usize, theta: f64) -> Self {
        let mut prefix = Vec::with_capacity(cap + 1);
        prefix.push(0.0f64);
        for d in 1..=cap {
            prefix.push(prefix[d - 1] + (d as f64).powf(-theta));
        }
        let scale = cap as f64 / prefix[cap];
        let mut d = 1;
        let guide = (0..cap)
            .map(|k| {
                while d < cap && prefix[d] <= k as f64 / scale {
                    d += 1;
                }
                d
            })
            .collect();
        DepthSearch { prefix, guide, scale }
    }

    /// The first depth `d` in `1..=len` with `prefix[d] > u`, clamped to
    /// `len`: what `prefix[1..=len].partition_point(|&c| c <= u) + 1`
    /// returns. The guide only picks where the walk starts; walking down
    /// and then up over the same `prefix[d] <= u` comparisons makes the
    /// answer exact however `u * scale` rounds.
    fn depth(&self, u: f64, len: usize) -> usize {
        let bucket = ((u * self.scale) as usize).min(self.guide.len() - 1);
        let mut d = self.guide[bucket].min(len + 1);
        while d > 1 && self.prefix[d - 1] > u {
            d -= 1;
        }
        while d <= len && self.prefix[d] <= u {
            d += 1;
        }
        d.min(len)
    }
}

/// The generator. Create with [`ProWGen::new`], call [`ProWGen::generate`].
#[derive(Clone, Debug)]
pub struct ProWGen {
    cfg: ProWGenConfig,
}

impl ProWGen {
    /// Creates a generator after validating `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use
    /// [`ProWGenConfig::validate`] to check first.
    pub fn new(cfg: ProWGenConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ProWGenConfig: {e}");
        }
        ProWGen { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProWGenConfig {
        &self.cfg
    }

    /// Per-object assigned reference counts. Object ids `0..n_multi` are
    /// multi-reference objects in popularity-rank order; ids
    /// `n_multi..n` are one-timers. Counts sum to `requests` exactly.
    pub fn assigned_counts(&self) -> Vec<u32> {
        let cfg = &self.cfg;
        let n = cfg.distinct_objects;
        let n_one = (n as f64 * cfg.one_time_fraction).round() as usize;
        let n_multi = n - n_one;
        let mut counts = vec![1u32; n];
        if n_multi > 0 {
            let extra_total = cfg.requests - n;
            let weights: Vec<f64> =
                (1..=n_multi).map(|i| (i as f64).powf(-cfg.zipf_alpha)).collect();
            let wsum: f64 = weights.iter().sum();
            let mut assigned: u64 = 0;
            for (c, w) in counts[..n_multi].iter_mut().zip(&weights) {
                let extra = ((extra_total as f64 * w / wsum).round() as u32).max(1);
                *c = 1 + extra;
                assigned += u64::from(extra);
            }
            // Fix rounding drift so the counts sum to `requests` exactly.
            let mut diff = extra_total as i64 - assigned as i64;
            let mut idx = 0usize;
            while diff != 0 {
                if diff > 0 {
                    counts[idx % n_multi] += 1;
                    diff -= 1;
                } else if counts[idx % n_multi] > 2 {
                    counts[idx % n_multi] -= 1;
                    diff += 1;
                }
                idx += 1;
            }
        }
        counts
    }

    /// Generates a trace plus a generation report.
    pub fn generate_with_report(&self) -> (Trace, GenReport) {
        let cfg = &self.cfg;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        let n = cfg.distinct_objects;
        let n_one = (n as f64 * cfg.one_time_fraction).round() as usize;
        let n_multi = n - n_one;
        let r = cfg.requests;

        // The output before any scratch, so the scratch never sits below
        // it in the heap: there, its size decided where each trace landed,
        // and repeated generate-and-drop cycles grew glibc's heap by a
        // whole trace at some cycle counts (EXPERIMENTS.md, "Throughput
        // round 6").
        let mut requests = Vec::with_capacity(r);
        let mut remaining = self.assigned_counts();
        let sizes = self.object_sizes(&mut rng, n, n_multi);

        // Pool: remaining references of all objects *not* on the stack.
        let mut pool =
            SumTree::from_weights(&remaining.iter().map(|&c| u64::from(c)).collect::<Vec<_>>());
        let stack_capacity = ((n_multi as f64 * cfg.stack_fraction).round() as usize).max(1);
        let depths = DepthSearch::new(stack_capacity, cfg.stack_depth_skew);

        // Stack of recently referenced, unexhausted objects; top at back.
        let mut stack: VecDeque<u32> = VecDeque::with_capacity(stack_capacity + 1);
        let mut stack_remaining: u64 = 0;
        let mut total_remaining: u64 = r as u64;

        let mut report = GenReport {
            multi_objects: n_multi,
            one_timer_objects: n_one,
            stack_capacity,
            ..GenReport::default()
        };

        for _slot in 0..r {
            debug_assert_eq!(stack_remaining + pool.total(), total_remaining);
            // Dynamic stack model: P(stack pick) = stack share of all
            // remaining references.
            let from_stack = stack_remaining > 0
                && (pool.total() == 0
                    || (rng.random::<f64>() * (total_remaining as f64)) < stack_remaining as f64);

            let object = if from_stack {
                report.stack_picks += 1;
                let len = stack.len();
                let u = rng.random::<f64>() * depths.prefix[len];
                let idx = len - depths.depth(u, len);
                let obj = stack.remove(idx).expect("index in range");
                remaining[obj as usize] -= 1;
                stack_remaining -= 1;
                if remaining[obj as usize] > 0 {
                    stack.push_back(obj);
                } // exhausted objects leave the stack silently
                obj
            } else {
                report.pool_picks += 1;
                let target = if pool.total() == 1 { 0 } else { rng.random_range(0..pool.total()) };
                let obj = pool.find(target) as u32;
                let w = remaining[obj as usize];
                // The object joins the stack: remove all its weight from
                // the pool, then account the post-pick remainder on-stack.
                pool.add(obj as usize, -i64::from(w));
                remaining[obj as usize] -= 1;
                if remaining[obj as usize] > 0 {
                    stack.push_back(obj);
                    stack_remaining += u64::from(remaining[obj as usize]);
                    if stack.len() > stack_capacity {
                        let displaced = stack.pop_front().expect("stack non-empty after push");
                        let dw = u64::from(remaining[displaced as usize]);
                        stack_remaining -= dw;
                        pool.add(displaced as usize, dw as i64);
                        report.displacements += 1;
                    }
                }
                obj
            };
            total_remaining -= 1;

            requests.push(Request {
                client: rng.random_range(0..cfg.num_clients),
                object,
                size: sizes[object as usize],
            });
        }
        debug_assert_eq!(total_remaining, 0);

        let trace = Trace { requests, num_objects: n as u32, num_clients: cfg.num_clients };
        (trace, report)
    }

    /// Generates a trace (discarding the report).
    pub fn generate(&self) -> Trace {
        self.generate_with_report().0
    }

    /// Per-object sizes honoring the size–popularity correlation knob.
    fn object_sizes(&self, rng: &mut ChaCha8Rng, n: usize, n_multi: usize) -> Vec<u32> {
        let dist = SizeDistribution::new(self.cfg.size_model);
        let mut sizes: Vec<u32> = (0..n).map(|_| dist.sample(rng)).collect();
        let rho = self.cfg.size_pop_correlation;
        if rho.abs() > 1e-9 && n_multi > 1 {
            // Sort the multi-ref objects' sizes and align with popularity
            // rank: ρ>0 ⇒ popular objects get the large sizes, ρ<0 ⇒ the
            // small ones. Each object keeps its rank-aligned size with
            // probability |ρ|, otherwise a random one — a simple knob that
            // produces the requested sign and roughly proportional rank
            // correlation.
            let mut head: Vec<u32> = sizes[..n_multi].to_vec();
            if rho > 0.0 {
                head.sort_unstable_by(|a, b| b.cmp(a));
            } else {
                head.sort_unstable();
            }
            for i in 0..n_multi {
                if rng.random::<f64>() < rho.abs() {
                    sizes[i] = head[i];
                } else {
                    sizes[i] = head[rng.random_range(0..n_multi)];
                }
            }
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceStats;

    fn small_cfg() -> ProWGenConfig {
        ProWGenConfig { requests: 60_000, distinct_objects: 2_000, ..ProWGenConfig::default() }
    }

    #[test]
    fn exact_request_count_and_universe() {
        let (t, _) = ProWGen::new(small_cfg()).generate_with_report();
        assert_eq!(t.len(), 60_000);
        let s = t.stats();
        assert_eq!(s.distinct_objects, 2_000, "every object must be introduced");
    }

    #[test]
    fn realized_counts_equal_assigned() {
        let g = ProWGen::new(small_cfg());
        let assigned = g.assigned_counts();
        let (t, _) = g.generate_with_report();
        let s = t.stats();
        for (obj, &c) in assigned.iter().enumerate() {
            assert_eq!(s.counts.get(&(obj as u32)).copied().unwrap_or(0), c, "object {obj}");
        }
    }

    #[test]
    fn assigned_counts_sum_to_requests() {
        for (r, n, otf, alpha) in [
            (60_000usize, 2_000usize, 0.5f64, 0.7f64),
            (10_000, 500, 0.3, 1.0),
            (5_000, 100, 0.9, 0.5),
        ] {
            let cfg = ProWGenConfig {
                requests: r,
                distinct_objects: n,
                one_time_fraction: otf,
                zipf_alpha: alpha,
                ..ProWGenConfig::default()
            };
            let total: u64 =
                ProWGen::new(cfg).assigned_counts().iter().map(|&c| u64::from(c)).sum();
            assert_eq!(total, r as u64);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = ProWGen::new(small_cfg()).generate();
        let b = ProWGen::new(small_cfg()).generate();
        assert_eq!(a.requests, b.requests);
        let mut cfg = small_cfg();
        cfg.seed ^= 1;
        let c = ProWGen::new(cfg).generate();
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn one_timer_fraction_is_exact() {
        let (t, _) = ProWGen::new(small_cfg()).generate_with_report();
        let s = t.stats();
        assert_eq!(s.one_timers, 1_000);
        assert!((s.one_timer_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zipf_alpha_recovered_for_any_stack() {
        for alpha in [0.5f64, 0.7, 1.0] {
            for frac in [0.05f64, 0.60] {
                let cfg = ProWGenConfig {
                    requests: 200_000,
                    distinct_objects: 2_000,
                    zipf_alpha: alpha,
                    stack_fraction: frac,
                    ..ProWGenConfig::default()
                };
                let t = ProWGen::new(cfg).generate();
                let est = t.stats().zipf_alpha_estimate().expect("enough ranks");
                assert!((est - alpha).abs() < 0.18, "alpha {alpha} frac {frac}: estimated {est}");
            }
        }
    }

    #[test]
    fn small_stack_displaces_more() {
        let mut displacements = Vec::new();
        for frac in [0.05f64, 0.20, 0.60] {
            let cfg = ProWGenConfig { stack_fraction: frac, ..small_cfg() };
            let (_, rep) = ProWGen::new(cfg).generate_with_report();
            displacements.push(rep.displacements);
        }
        assert!(displacements[0] > displacements[1], "5% vs 20%: {displacements:?}");
        assert!(displacements[1] >= displacements[2], "20% vs 60%: {displacements:?}");
    }

    #[test]
    fn larger_stack_serves_more_from_stack() {
        let mut shares = Vec::new();
        for frac in [0.05f64, 0.20, 0.60] {
            let cfg = ProWGenConfig { stack_fraction: frac, ..small_cfg() };
            let (_, rep) = ProWGen::new(cfg).generate_with_report();
            shares.push(rep.stack_picks as f64 / (rep.stack_picks + rep.pool_picks) as f64);
        }
        assert!(shares[0] < shares[1] && shares[1] < shares[2], "stack shares {shares:?}");
    }

    #[test]
    fn larger_stack_shortens_reuse_distances() {
        // More stack picks ⇒ more short-distance re-references; pool
        // re-references have popularity-scale (very long) distances.
        let mut dists = Vec::new();
        for frac in [0.05f64, 0.60] {
            let cfg = ProWGenConfig { stack_fraction: frac, ..small_cfg() };
            let t = ProWGen::new(cfg).generate();
            dists.push(TraceStats::mean_reuse_distance(&t));
        }
        assert!(dists[0] > dists[1], "reuse distances {dists:?}");
    }

    #[test]
    fn clients_cover_cluster() {
        let cfg = ProWGenConfig { num_clients: 10, ..small_cfg() };
        let t = ProWGen::new(cfg).generate();
        let mut seen = [false; 10];
        for r in &t.requests {
            seen[r.client as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all clients should issue requests");
    }

    #[test]
    fn unit_sizes_by_default() {
        let t = ProWGen::new(small_cfg()).generate();
        assert!(t.requests.iter().all(|r| r.size == 1));
    }

    #[test]
    fn size_correlation_sign() {
        // ρ < 0 ⇒ popular objects smaller: mean size of top-decile ranks
        // below mean size of bottom-decile ranks (among multi-ref objects).
        let mk = |rho: f64| {
            let cfg = ProWGenConfig {
                size_model: SizeModel::prowgen_default(),
                size_pop_correlation: rho,
                ..small_cfg()
            };
            let t = ProWGen::new(cfg).generate();
            let s = t.stats();
            let mut by_count: Vec<(u32, u32)> = Vec::new(); // (count, size)
            let mut size_of = vec![0u32; t.num_objects as usize];
            for r in &t.requests {
                size_of[r.object as usize] = r.size;
            }
            for (&obj, &c) in &s.counts {
                if c > 1 {
                    by_count.push((c, size_of[obj as usize]));
                }
            }
            by_count.sort_unstable_by_key(|&(c, _)| std::cmp::Reverse(c));
            let decile = by_count.len() / 10;
            let top: f64 =
                by_count[..decile].iter().map(|&(_, s)| s as f64).sum::<f64>() / decile as f64;
            let bottom: f64 =
                by_count[by_count.len() - decile..].iter().map(|&(_, s)| s as f64).sum::<f64>()
                    / decile as f64;
            (top, bottom)
        };
        let (top_neg, bottom_neg) = mk(-0.9);
        assert!(top_neg < bottom_neg, "negative rho: top {top_neg} vs bottom {bottom_neg}");
        let (top_pos, bottom_pos) = mk(0.9);
        assert!(top_pos > bottom_pos, "positive rho: top {top_pos} vs bottom {bottom_pos}");
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = |f: &dyn Fn(&mut ProWGenConfig)| {
            let mut c = ProWGenConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(&|c| c.requests = 0));
        assert!(bad(&|c| c.distinct_objects = 0));
        assert!(bad(&|c| c.one_time_fraction = 1.5));
        assert!(bad(&|c| c.zipf_alpha = -0.1));
        assert!(bad(&|c| c.stack_fraction = 0.0));
        assert!(bad(&|c| c.num_clients = 0));
        assert!(bad(&|c| c.requests = 10)); // fewer than objects
        assert!(ProWGenConfig::default().validate().is_ok());
    }

    #[test]
    fn depth_search_is_exact_from_any_start() {
        // The guide only chooses where the walk starts: with it pointing
        // at the top, at the bottom or past the end of the stack, the
        // answer is still `partition_point`'s.
        for theta in [0.0, 0.5, 1.5, 3.0, 40.0] {
            for cap in [1usize, 2, 7, 100] {
                let table = DepthSearch::new(cap, theta);
                for start in [1, cap, cap + 1] {
                    let search =
                        DepthSearch { guide: vec![start; cap], ..DepthSearch::new(cap, theta) };
                    for len in 1..=cap {
                        for step in 0..=64 {
                            let u = table.prefix[len] * f64::from(step) / 64.0;
                            let u = if step == 64 { u.next_down() } else { u };
                            let exact =
                                (table.prefix[1..=len].partition_point(|&c| c <= u) + 1).min(len);
                            assert_eq!(
                                table.depth(u, len),
                                exact,
                                "θ {theta} cap {cap} len {len} u {u}"
                            );
                            assert_eq!(
                                search.depth(u, len),
                                exact,
                                "θ {theta} start {start} u {u}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validation_rejects_configs_generate_cannot_fill() {
        // Rounding makes every object a one-timer: the references sum to
        // `distinct_objects`, so any other request count cannot be met.
        let all_one_timers = ProWGenConfig {
            requests: 5_000,
            distinct_objects: 400,
            one_time_fraction: 1.0,
            ..small_cfg()
        };
        let err = all_one_timers.validate().expect_err("5,000 requests over 400 one-timers");
        assert!(err.contains("one-timers"), "{err}");
        assert!(ProWGenConfig { one_time_fraction: 0.9995, ..all_one_timers.clone() }
            .validate()
            .is_err());
        assert!(ProWGenConfig { requests: 400, ..all_one_timers }.validate().is_ok());
        for theta in [f64::NAN, f64::INFINITY] {
            let c = ProWGenConfig { stack_depth_skew: theta, ..small_cfg() };
            assert!(c.validate().expect_err("non-finite θ").contains("stack_depth_skew"));
        }
    }

    #[test]
    #[should_panic(expected = "invalid ProWGenConfig")]
    fn new_panics_on_invalid() {
        let _ = ProWGen::new(ProWGenConfig { requests: 0, ..ProWGenConfig::default() });
    }

    #[test]
    fn all_one_timers_workload() {
        // Degenerate but legal: every object referenced exactly once; the
        // stream is a weighted-uniform permutation of the universe.
        let cfg = ProWGenConfig {
            requests: 500,
            distinct_objects: 500,
            one_time_fraction: 1.0,
            ..ProWGenConfig::default()
        };
        let (t, rep) = ProWGen::new(cfg).generate_with_report();
        assert_eq!(t.len(), 500);
        assert_eq!(rep.multi_objects, 0);
        assert_eq!(rep.stack_picks, 0);
        assert_eq!(t.stats().one_timers, 500);
    }

    #[test]
    fn traces_are_pinned() {
        // xxh64 of the `write_binary` bytes, pinned from the generator
        // before the sum tree and the depth guide (a binary indexed tree,
        // a `partition_point` search and a one-block ChaCha8 refill): the
        // benchmark's two full-scale proxy traces and its fault-drill
        // trace at seed 2003, and two knob extremes.
        use webcache_primitives::seed::{derive, derive_indexed};
        let digest = |cfg: ProWGenConfig| {
            let mut bytes = Vec::new();
            ProWGen::new(cfg).generate().write_binary(&mut bytes).expect("writes to a Vec");
            webcache_primitives::xxh64(&bytes, 0)
        };
        let mid = ProWGenConfig {
            requests: 200_000,
            distinct_objects: 5_000,
            seed: derive(2003, "drill-trace"),
            ..ProWGenConfig::default()
        };
        for (what, cfg, pinned) in [
            (
                "proxy 0",
                ProWGenConfig {
                    seed: derive_indexed(2003, "proxy-trace", 0),
                    ..Default::default()
                },
                0xaf0982ba9868e42au64,
            ),
            (
                "proxy 1",
                ProWGenConfig {
                    seed: derive_indexed(2003, "proxy-trace", 1),
                    ..Default::default()
                },
                0x5cac33e964fe0432,
            ),
            ("drill", ProWGenConfig { num_clients: 50, ..mid.clone() }, 0x63c70903e2f008f5),
            (
                "deep stack, no one-timers, flat popularity, one client",
                ProWGenConfig {
                    stack_fraction: 1.0,
                    one_time_fraction: 0.0,
                    zipf_alpha: 0.0,
                    num_clients: 1,
                    ..mid.clone()
                },
                0xb3d8ce78ece56cb6,
            ),
            (
                "shallow stack, 90% one-timers, steep popularity",
                ProWGenConfig {
                    stack_fraction: 0.05,
                    one_time_fraction: 0.9,
                    zipf_alpha: 1.0,
                    ..mid.clone()
                },
                0x7b8566eff1ee1fb8,
            ),
        ] {
            assert_eq!(digest(cfg), pinned, "{what}");
        }
    }

    /// The generator before the sum tree and the depth guide: the same
    /// loop and draws over a prefix-scan pool and a `partition_point`
    /// depth search. `generate_with_report` must match it exactly.
    fn reference(g: &ProWGen) -> (Vec<Request>, GenReport) {
        let cfg = g.config();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let n = cfg.distinct_objects;
        let n_one = (n as f64 * cfg.one_time_fraction).round() as usize;
        let n_multi = n - n_one;
        let mut remaining = g.assigned_counts();
        let sizes = g.object_sizes(&mut rng, n, n_multi);
        let mut pool: Vec<u64> = remaining.iter().map(|&c| u64::from(c)).collect();
        let stack_capacity = ((n_multi as f64 * cfg.stack_fraction).round() as usize).max(1);
        let mut depth_prefix = vec![0.0f64];
        for d in 1..=stack_capacity {
            depth_prefix.push(depth_prefix[d - 1] + (d as f64).powf(-cfg.stack_depth_skew));
        }
        let mut stack: VecDeque<u32> = VecDeque::new();
        let mut stack_remaining = 0u64;
        let mut total_remaining = cfg.requests as u64;
        let mut requests = Vec::new();
        let mut report = GenReport {
            multi_objects: n_multi,
            one_timer_objects: n_one,
            stack_capacity,
            ..GenReport::default()
        };
        for _ in 0..cfg.requests {
            let pool_total: u64 = pool.iter().sum();
            let from_stack = stack_remaining > 0
                && (pool_total == 0
                    || (rng.random::<f64>() * (total_remaining as f64)) < stack_remaining as f64);
            let object = if from_stack {
                report.stack_picks += 1;
                let len = stack.len();
                let u = rng.random::<f64>() * depth_prefix[len];
                let d = (depth_prefix[1..=len].partition_point(|&c| c <= u) + 1).min(len);
                let obj = stack.remove(len - d).expect("index in range");
                remaining[obj as usize] -= 1;
                stack_remaining -= 1;
                if remaining[obj as usize] > 0 {
                    stack.push_back(obj);
                }
                obj
            } else {
                report.pool_picks += 1;
                let target = if pool_total == 1 { 0 } else { rng.random_range(0..pool_total) };
                let mut below = 0;
                let obj = pool
                    .iter()
                    .position(|&w| {
                        below += w;
                        below > target
                    })
                    .expect("target below the pool total") as u32;
                pool[obj as usize] = 0;
                remaining[obj as usize] -= 1;
                if remaining[obj as usize] > 0 {
                    stack.push_back(obj);
                    stack_remaining += u64::from(remaining[obj as usize]);
                    if stack.len() > stack_capacity {
                        let displaced = stack.pop_front().expect("stack non-empty after push");
                        let dw = u64::from(remaining[displaced as usize]);
                        stack_remaining -= dw;
                        pool[displaced as usize] = dw;
                        report.displacements += 1;
                    }
                }
                obj
            };
            total_remaining -= 1;
            requests.push(Request {
                client: rng.random_range(0..cfg.num_clients),
                object,
                size: sizes[object as usize],
            });
        }
        (requests, report)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Every knob at its edges: α = 0 (a quarter of the cases), no
        /// one-timers, a one-slot stack or a stack the size of the
        /// multi-ref set, θ up to 40 (every prefix past depth 2 rounds to
        /// the same sum), the minimum request count and 20× it, one
        /// client, and lognormal–Pareto sizes with ρ = ±0.9.
        #[test]
        fn matches_the_reference_model(
            seed in 0u64..u64::MAX,
            n in 1usize..300,
            alpha in -0.5f64..1.5,
            otf in -0.1f64..0.9,
            frac in 0.0f64..1.2,
            theta in 0usize..5,
            extra in -2_000i64..19_000,
            clients in 1u32..5,
            sizes in 0usize..4,
        ) {
            let otf = otf.max(0.0);
            let n_multi = n - (n as f64 * otf).round() as usize;
            let least = n + n_multi;
            let (size_model, size_pop_correlation) = [
                (SizeModel::Unit, 0.0),
                (SizeModel::prowgen_default(), 0.0),
                (SizeModel::prowgen_default(), 0.9),
                (SizeModel::prowgen_default(), -0.9),
            ][sizes];
            let cfg = ProWGenConfig {
                requests: least + least * extra.max(0) as usize / 1_000,
                distinct_objects: n,
                one_time_fraction: otf,
                zipf_alpha: alpha.max(0.0),
                stack_fraction: if frac < 0.1 { 1e-6 } else { frac.min(1.0) },
                stack_depth_skew: [0.0, 0.5, 1.5, 3.0, 40.0][theta],
                num_clients: clients,
                size_model,
                size_pop_correlation,
                seed,
            };
            proptest::prop_assume!(cfg.validate().is_ok());
            let g = ProWGen::new(cfg);
            let (trace, report) = g.generate_with_report();
            let (requests, expected) = reference(&g);
            proptest::prop_assert_eq!(report, expected);
            proptest::prop_assert!(trace.requests == requests, "the request streams differ");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn generation_invariants(
            seed in 0u64..1_000,
            alpha in 0.3f64..1.2,
            otf in 0.0f64..0.9,
            frac in 0.05f64..1.0,
        ) {
            let cfg = ProWGenConfig {
                requests: 5_000,
                distinct_objects: 400,
                one_time_fraction: otf,
                zipf_alpha: alpha,
                stack_fraction: frac,
                seed,
                ..ProWGenConfig::default()
            };
            let (t, rep) = ProWGen::new(cfg).generate_with_report();
            proptest::prop_assert_eq!(t.len(), 5_000);
            let s = t.stats();
            proptest::prop_assert_eq!(s.distinct_objects, 400);
            proptest::prop_assert!(t.requests.iter().all(|r| r.object < 400));
            proptest::prop_assert_eq!(rep.stack_picks + rep.pool_picks, 5_000);
        }
    }
}
