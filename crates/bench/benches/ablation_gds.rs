//! Size-aware ablation: what does the paper's unit-size assumption hide?
//!
//! §5.1 assumption 1 makes all objects unit-size. ProWGen, however, models
//! realistic sizes (lognormal body, Pareto tail) precisely because real
//! proxies are byte-bounded. This harness re-runs a single proxy cache
//! over the same workload *with* sizes, comparing:
//!
//! * **GDS** — GreedyDual-Size (`H = L + cost/size`), the size-aware
//!   generalization of Hier-GD's policy;
//! * **byte-LRU** — the byte-bounded baseline;
//!
//! and reports both the *object* hit ratio (what the paper's latency gain
//! is built from) and the *byte* hit ratio (bandwidth saved). GDS trades
//! byte hits for object hits by preferring small objects — the classic
//! result, and the reason the unit-size assumption flatters no particular
//! scheme: all of the paper's policies see the same trade-off.

use std::io::Write as _;
use webcache_bench::{figures_dir, scale_or_full};
use webcache_policy::{ByteLruCache, GreedyDualSizeCache};
use webcache_sim::figures::synthetic_traces;
use webcache_workload::{SizeModel, Trace};

struct Tally {
    hits: u64,
    byte_hits: u64,
    bytes_total: u64,
}

fn run_gds(trace: &Trace, capacity: u64, cost: f64) -> Tally {
    let mut cache = GreedyDualSizeCache::new(capacity);
    let mut t = Tally { hits: 0, byte_hits: 0, bytes_total: 0 };
    for r in &trace.requests {
        let size = trace.size_of(r.object);
        t.bytes_total += u64::from(size);
        if cache.touch(r.object, cost) {
            t.hits += 1;
            t.byte_hits += u64::from(size);
        } else {
            cache.insert(r.object, cost, size.max(1));
        }
    }
    t
}

fn run_byte_lru(trace: &Trace, capacity: u64) -> Tally {
    let mut cache = ByteLruCache::new(capacity);
    let mut t = Tally { hits: 0, byte_hits: 0, bytes_total: 0 };
    for r in &trace.requests {
        let size = trace.size_of(r.object);
        t.bytes_total += u64::from(size);
        if cache.touch(r.object) {
            t.hits += 1;
            t.byte_hits += u64::from(size);
        } else {
            cache.insert(r.object, size.max(1));
        }
    }
    t
}

fn main() {
    let scale = scale_or_full(150_000);
    let trace =
        synthetic_traces(1, scale, |c| c.size_model = SizeModel::prowgen_default()).remove(0);
    // Sum of every object's size: the "infinite byte cache" (ProWGen
    // references each object of its universe at least once).
    let total_bytes: u64 = (0..trace.num_objects).map(|o| u64::from(trace.size_of(o))).sum();
    eprintln!("ablation_gds: {} requests, universe {} MiB", trace.len(), total_bytes >> 20);

    println!("\n=== size-aware single cache: GDS vs byte-LRU ===");
    println!(
        "{:>10}{:>12}{:>12}{:>12}{:>12}",
        "cache(%)", "gds-objhit", "gds-bytehit", "lru-objhit", "lru-bytehit"
    );
    let mut csv = std::fs::File::create(figures_dir().join("ablation_gds.csv")).expect("csv");
    writeln!(csv, "cache_pct,gds_obj_hit,gds_byte_hit,lru_obj_hit,lru_byte_hit").expect("csv");
    for frac in [0.01f64, 0.05, 0.1, 0.2, 0.4] {
        let cap = ((total_bytes as f64 * frac) as u64).max(1);
        let gds = run_gds(&trace, cap, 20.0);
        let lru = run_byte_lru(&trace, cap);
        let n = trace.len() as f64;
        println!(
            "{:>10.0}{:>12.3}{:>12.3}{:>12.3}{:>12.3}",
            frac * 100.0,
            gds.hits as f64 / n,
            gds.byte_hits as f64 / gds.bytes_total as f64,
            lru.hits as f64 / n,
            lru.byte_hits as f64 / lru.bytes_total as f64,
        );
        writeln!(
            csv,
            "{:.0},{:.4},{:.4},{:.4},{:.4}",
            frac * 100.0,
            gds.hits as f64 / n,
            gds.byte_hits as f64 / gds.bytes_total as f64,
            lru.hits as f64 / n,
            lru.byte_hits as f64 / lru.bytes_total as f64,
        )
        .expect("csv");
    }
    eprintln!("wrote {}", figures_dir().join("ablation_gds.csv").display());
}
