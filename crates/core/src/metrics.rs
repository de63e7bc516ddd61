//! Run metrics and the paper's latency-gain measure.

use crate::net::HitClass;
use webcache_p2p::MessageLedger;

/// Requests served per [`HitClass`], as a dense array.
///
/// `record()` runs once per simulated request; a `HashMap<String, u64>`
/// here cost a label-`String` allocation plus a SipHash per request. The
/// array indexes by [`HitClass::index`] instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts([u64; HitClass::ALL.len()]);

impl ClassCounts {
    /// Requests served from `class`.
    pub fn get(&self, class: HitClass) -> u64 {
        self.0[class.index()]
    }

    /// Counts one request served from `class`.
    pub fn bump(&mut self, class: HitClass) {
        self.0[class.index()] += 1;
    }

    /// Iterates `(class, count)` pairs in [`HitClass::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (HitClass, u64)> + '_ {
        HitClass::ALL.iter().map(|&c| (c, self.get(c)))
    }
}

/// Aggregated results of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Requests served.
    pub requests: u64,
    /// Sum of end-to-end latencies.
    pub total_latency: f64,
    /// Requests by serving class.
    pub by_class: ClassCounts,
    /// Merged P2P message counters (Hier-GD only; zero otherwise).
    pub messages: MessageLedger,
}

impl RunMetrics {
    /// Records one served request.
    pub fn record(&mut self, class: HitClass, latency: f64) {
        self.requests += 1;
        self.total_latency += latency;
        self.by_class.bump(class);
    }

    /// Mean end-to-end latency (0 when empty).
    pub fn avg_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency / self.requests as f64
        }
    }

    /// Requests served from `class`.
    pub fn count(&self, class: HitClass) -> u64 {
        self.by_class.get(class)
    }

    /// Fraction of requests served from `class`.
    pub fn fraction(&self, class: HitClass) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.count(class) as f64 / self.requests as f64
        }
    }

    /// Fraction of requests *not* sent to the origin server: the overall
    /// hit ratio of the whole caching system.
    pub fn hit_ratio(&self) -> f64 {
        1.0 - self.fraction(HitClass::Server)
    }
}

/// The paper's metric (§5.1): "the relative reduction in average access
/// latency with respect to the baseline NC scheme",
/// `1 − L_X / L_NC`, in percent.
pub fn latency_gain_percent(nc: &RunMetrics, x: &RunMetrics) -> f64 {
    let lnc = nc.avg_latency();
    if lnc <= 0.0 {
        return 0.0;
    }
    (1.0 - x.avg_latency() / lnc) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_averages() {
        let mut m = RunMetrics::default();
        m.record(HitClass::LocalProxy, 1.0);
        m.record(HitClass::Server, 21.0);
        assert_eq!(m.requests, 2);
        assert!((m.avg_latency() - 11.0).abs() < 1e-12);
        assert_eq!(m.count(HitClass::LocalProxy), 1);
        assert_eq!(m.count(HitClass::Server), 1);
        assert_eq!(m.count(HitClass::CoopProxy), 0);
        assert!((m.hit_ratio() - 0.5).abs() < 1e-12);
        assert!((m.fraction(HitClass::Server) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = RunMetrics::default();
        assert_eq!(m.avg_latency(), 0.0);
        assert_eq!(m.hit_ratio(), 1.0 - 0.0);
        assert_eq!(latency_gain_percent(&m, &m), 0.0);
    }

    #[test]
    fn latency_gain_formula() {
        let mut nc = RunMetrics::default();
        nc.record(HitClass::Server, 20.0);
        let mut x = RunMetrics::default();
        x.record(HitClass::LocalProxy, 5.0);
        // 1 - 5/20 = 75%
        assert!((latency_gain_percent(&nc, &x) - 75.0).abs() < 1e-12);
        // A scheme identical to NC gains 0.
        assert!((latency_gain_percent(&nc, &nc)).abs() < 1e-12);
        // A worse scheme has negative gain.
        let mut bad = RunMetrics::default();
        bad.record(HitClass::Server, 40.0);
        assert!(latency_gain_percent(&nc, &bad) < 0.0);
    }
}
