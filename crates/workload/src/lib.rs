//! Synthetic Web-proxy workload generation.
//!
//! The paper evaluates everything by trace-driven simulation over two kinds
//! of traces (§5.1):
//!
//! 1. **Synthetic workloads from ProWGen** (Busari & Williamson, INFOCOM'01)
//!    with four knobs: one-time referencing, object popularity (Zipf α),
//!    number of distinct objects, and temporal locality (a finite LRU-stack
//!    model). Defaults: 1M requests, 10,000 distinct objects, 50% one-timers
//!    and α = 0.7. [`ProWGen`] reimplements that model.
//! 2. **The UCB Home-IP trace** (18 days, 9,244,728 requests). The original
//!    trace files are no longer obtainable, so [`ucb`] synthesizes a
//!    trace with the same coarse statistics (heavier one-time referencing, a
//!    much larger object universe relative to the request count, day-scale
//!    working-set churn). See DESIGN.md, "Substitutions".
//!
//! A [`Trace`] is a flat request stream; [`TraceStats`] computes the
//! properties the simulator needs (notably the *infinite cache size*: the
//! number of distinct objects referenced more than once, which the paper
//! uses as the unit for all cache-size axes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prowgen;
pub mod sizes;
pub mod trace;
pub mod ucb;

pub use prowgen::{ProWGen, ProWGenConfig};
pub use sizes::{SizeDistribution, SizeModel};
pub use trace::{ObjectId, Request, Trace, TraceStats};
pub use ucb::{UcbLike, UcbLikeConfig};
