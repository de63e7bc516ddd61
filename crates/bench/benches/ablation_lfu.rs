//! Policy ablation: in-cache LFU vs perfect LFU vs greedy-dual vs LRU on
//! a single proxy cache.
//!
//! The paper's NC/SC schemes say "LFU" without specifying whether counts
//! survive eviction. This reproduction uses *in-cache* LFU (what deployed
//! proxies implement); this harness measures how much that choice matters
//! by sweeping a single cache over the paper's sizes and reporting hit
//! ratios for four policies. The in-cache/perfect gap is the main driver
//! of the left-side shape difference between our Figure 2 curves and the
//! paper's (see EXPERIMENTS.md).

use std::io::Write as _;
use webcache_bench::{figures_dir, scale_or_full};
use webcache_policy::{BoundedCache, GreedyDualCache, LfuCache, LruCache, PerfectLfuCache};
use webcache_sim::figures::synthetic_traces;
use webcache_workload::Trace;

fn hit_ratio<C: BoundedCache<u32>>(mut cache: C, trace: &Trace) -> f64 {
    let mut hits = 0u64;
    for r in &trace.requests {
        if cache.touch(r.object) {
            hits += 1;
        } else {
            cache.insert(r.object);
        }
    }
    hits as f64 / trace.len() as f64
}

fn main() {
    let scale = scale_or_full(150_000);
    let trace = synthetic_traces(1, scale, |_| {}).remove(0);
    let u = trace.stats().infinite_cache_size;
    eprintln!("ablation_lfu: {} requests, U = {u}", trace.len());

    println!("\n=== single-cache hit ratio by policy (fraction of U) ===");
    println!(
        "{:>10}{:>12}{:>14}{:>14}{:>12}",
        "cache(%)", "lru", "lfu-incache", "lfu-perfect", "greedy-dual"
    );
    let mut csv = std::fs::File::create(figures_dir().join("ablation_lfu.csv")).expect("csv");
    writeln!(csv, "cache_pct,lru,lfu_incache,lfu_perfect,greedy_dual").expect("csv");
    for frac in [0.05f64, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let cap = ((u as f64 * frac).round() as usize).max(1);
        let lru = hit_ratio(LruCache::new(cap), &trace);
        let lfu = hit_ratio(LfuCache::new(cap), &trace);
        let perfect = hit_ratio(PerfectLfuCache::new(cap), &trace);
        let gd = hit_ratio(GreedyDualCache::<u32>::new(cap), &trace);
        println!("{:>10.0}{lru:>12.3}{lfu:>14.3}{perfect:>14.3}{gd:>12.3}", frac * 100.0);
        writeln!(csv, "{:.0},{lru:.4},{lfu:.4},{perfect:.4},{gd:.4}", frac * 100.0).expect("csv");
    }
    eprintln!("wrote {}", figures_dir().join("ablation_lfu.csv").display());
}
