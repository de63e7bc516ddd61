//! Output checks and the pinned simulated statistics.
//!
//! An operation is one simulated request. It fails if it is not served
//! exactly once; every request of a run fails if that run contradicts
//! another run of the same inputs, leaves a structural invariant broken,
//! or — for a fault drill — reports lost availability.

use crate::json::Json;
use std::path::PathBuf;
use webcache_p2p::P2PClientCache;
use webcache_sim::{HitClass, RunMetrics};

/// Running tally of operations attempted and failed, with the reasons.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checker {
    /// Accounts one run that offered `offered` requests and served
    /// `served` of them; `problem` condemns the whole run.
    pub fn run(&mut self, label: &str, offered: u64, served: u64, problem: Option<String>) {
        self.attempted += offered;
        let message = match problem {
            Some(why) => {
                self.failed += offered;
                format!("{label}: {why}")
            }
            None if served != offered => {
                self.failed += offered.abs_diff(served);
                format!("{label}: served {served} of {offered} requests")
            }
            None => return,
        };
        // Every repeat of a broken run fails the same way: say it once.
        if !self.problems.contains(&message) {
            self.problems.push(message);
        }
    }

    /// [`Checker::run`] for an engine run: served = the class counts,
    /// which must also agree with the run's own request counter.
    pub fn metrics(&mut self, label: &str, offered: u64, m: &RunMetrics, problem: Option<String>) {
        let by_class: u64 = HitClass::ALL.iter().map(|&c| m.count(c)).sum();
        let miscounted = (m.requests != by_class).then(|| {
            format!("class counts sum to {by_class} but {} requests recorded", m.requests)
        });
        self.run(label, offered, by_class, problem.or(miscounted));
    }
}

/// Why the `check_invariants` findings over `caches` condemn a run, if
/// there are any.
///
/// Under a Bloom directory one finding is expected and left out: a stale
/// lookup (a false positive) makes the proxy invalidate an entry it never
/// inserted, the counting filter then forgets keys that share its
/// counters, and their objects read "resident but not in directory".
/// That is a property of the simulated design, not a broken structure.
pub fn invariant_problem<'a>(
    caches: impl IntoIterator<Item = &'a P2PClientCache>,
    bloom: bool,
) -> Option<String> {
    let mut broken: Vec<String> = caches.into_iter().flat_map(|c| c.check_invariants()).collect();
    if bloom {
        broken.retain(|v| !v.ends_with("resident but not in directory"));
    }
    broken.first().map(|v| format!("{} invariant violations, first: {v}", broken.len()))
}

/// True when two runs of the same inputs produced the same result, down
/// to the bits of the latency sum and every message counter.
pub fn same_metrics(a: &RunMetrics, b: &RunMetrics) -> bool {
    a.requests == b.requests
        && a.total_latency.to_bits() == b.total_latency.to_bits()
        && a.by_class == b.by_class
        && a.messages == b.messages
}

pub fn same_classes(a: &RunMetrics, b: &RunMetrics) -> bool {
    a.requests == b.requests && a.by_class == b.by_class
}

/// Simulated statistics of one workload, as ordered `(key, value)` rows.
pub type SimStats = Vec<(String, f64)>;

/// The rows one engine run contributes: hit-class counts, mean latency
/// and the message-ledger totals the paper's claims rest on.
pub fn sim_rows(prefix: &str, m: &RunMetrics) -> SimStats {
    let mut rows = vec![(format!("{prefix}requests"), m.requests as f64)];
    for class in HitClass::ALL {
        rows.push((format!("{prefix}class.{}", class.label()), m.count(class) as f64));
    }
    rows.push((format!("{prefix}avg_latency"), m.avg_latency()));
    let l = &m.messages;
    for (key, value) in [
        ("overlay_messages", l.overlay_messages),
        ("new_connections", l.new_connections),
        ("piggybacked_objects", l.piggybacked_objects),
        ("direct_destages", l.direct_destages),
        ("store_receipts", l.store_receipts),
        ("diversions", l.diversions),
        ("lookups", l.lookups),
        ("stale_lookups", l.stale_lookups),
        ("pushes", l.pushes),
        ("timeouts", l.timeouts),
        ("retries", l.retries),
    ] {
        rows.push((format!("{prefix}messages.{key}"), value as f64));
    }
    rows
}

/// The seed whose simulated statistics are pinned in `expected/`.
pub const PINNED_SEED: u64 = 2003;

fn expected_path(workload: &str) -> PathBuf {
    // The benchmark is always built in the checkout it measures.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected").join(format!("{workload}.json"))
}

pub fn stats_json(stats: &SimStats) -> Json {
    Json::obj(stats.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))))
}

/// Overwrites the pinned statistics of `workload` (`run --bless`).
pub fn bless(workload: &str, stats: &SimStats) -> std::io::Result<PathBuf> {
    let path = expected_path(workload);
    std::fs::write(&path, stats_json(stats).pretty())?;
    Ok(path)
}

/// Differences between `stats` and the pinned file: one line per key that
/// is missing, extra, or differs in any bit. Empty means identical.
pub fn drift(workload: &str, stats: &SimStats) -> Vec<String> {
    let path = expected_path(workload);
    let pinned = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(doc) => doc,
        Err(e) => return vec![format!("cannot read {}: {e}", path.display())],
    };
    diff_stats(pinned.entries(), stats)
}

fn diff_stats(pinned: &[(String, Json)], stats: &SimStats) -> Vec<String> {
    let mut out = Vec::new();
    for (key, want) in pinned {
        match (want.as_f64(), stats.iter().find(|(k, _)| k == key)) {
            (Some(want), Some((_, got))) if want.to_bits() == got.to_bits() => {}
            (Some(want), Some((_, got))) => out.push(format!("{key}: pinned {want}, got {got}")),
            (_, None) => out.push(format!("{key}: pinned but no longer reported")),
            (None, _) => out.push(format!("{key}: pinned value is not a number")),
        }
    }
    for (key, got) in stats {
        if !pinned.iter().any(|(k, _)| k == key) {
            out.push(format!("{key}: reported {got} but not pinned"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_partial_and_whole_run_failures() {
        let mut c = Checker::default();
        c.run("ok", 10, 10, None);
        c.run("short", 10, 7, None);
        c.run("condemned", 10, 10, Some("repeats disagree".into()));
        c.run("condemned", 10, 10, Some("repeats disagree".into()));
        assert_eq!((c.attempted, c.failed), (40, 23));
        assert_eq!(c.problems.len(), 2, "a repeated failure is listed once");
    }

    #[test]
    fn drift_lists_changed_missing_and_new_keys() {
        let pinned =
            stats_json(&vec![("a".into(), 1.0), ("b".into(), 0.1 + 0.2), ("gone".into(), 3.0)]);
        let now: SimStats = vec![("a".into(), 1.0), ("b".into(), 0.3), ("new".into(), 4.0)];
        let d = diff_stats(pinned.entries(), &now);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d[0].starts_with("b: pinned 0.30000000000000004, got 0.3"));
        assert!(d[1].starts_with("gone:") && d[2].starts_with("new:"));
        let same: SimStats = vec![("a".into(), 1.0), ("b".into(), 0.1 + 0.2), ("gone".into(), 3.0)];
        assert!(diff_stats(pinned.entries(), &same).is_empty());
    }
}
