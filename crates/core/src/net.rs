//! The paper's network latency model (§5.1).
//!
//! Four parameters describe the topology: `Ts` (proxy → Web server), `Tc`
//! (proxy → cooperating proxy), `Tl` (client → local proxy) and `Tp2p`
//! (client or proxy → P2P client cache). Defaults follow the paper:
//! `Ts/Tc = 10`, `Ts/Tl = 20`, `Tp2p/Tl = 1.4`; Figure 5(a)/(b) sweep the
//! first two ratios.
//!
//! Request latencies compose additively along the fetch path, which yields
//! the ordering the paper assumes (§5.1 assumption 3):
//! local proxy < own P2P cache < cooperating proxy < cooperating proxy's
//! P2P cache < origin server.

use crate::error::SimError;

/// Where a request was ultimately served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HitClass {
    /// Hit in the client's local proxy cache.
    LocalProxy,
    /// Hit in the local proxy's own P2P client cache.
    OwnP2p,
    /// Hit in a cooperating proxy's cache.
    CoopProxy,
    /// Hit in a cooperating proxy's P2P client cache (push protocol).
    CoopP2p,
    /// Fetched from the origin Web server.
    Server,
}

impl HitClass {
    /// All classes, for iteration in reports.
    pub const ALL: [HitClass; 5] = [
        HitClass::LocalProxy,
        HitClass::OwnP2p,
        HitClass::CoopProxy,
        HitClass::CoopP2p,
        HitClass::Server,
    ];

    /// Dense index of this class (0..[`HitClass::ALL`]`.len()`), for
    /// array-backed per-class counters.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            HitClass::LocalProxy => "proxy",
            HitClass::OwnP2p => "own-p2p",
            HitClass::CoopProxy => "coop-proxy",
            HitClass::CoopP2p => "coop-p2p",
            HitClass::Server => "server",
        }
    }
}

/// Latency pricing for a simulated fetch path.
///
/// The engine and every scheme price requests through this trait, so
/// [`NetworkModel`] — the paper's four-parameter uniform topology — is
/// one implementation rather than a hard-coded dependency: under
/// [`ClockMode::Event`](crate::clock::ClockMode::Event) a different
/// latency table genuinely reshapes the event schedule instead of just
/// rescaling totals.
pub trait LatencyModel: Sync {
    /// End-to-end client latency for a request served from `class`.
    fn latency(&self, class: HitClass) -> f64;

    /// The *proxy-side re-fetch cost* of an object available from
    /// `class` — what greedy-dual and cost-benefit charge for
    /// (re)acquiring it. Client→proxy latency is excluded: it is paid on
    /// every request regardless of where the object comes from.
    fn fetch_cost(&self, class: HitClass) -> f64;

    /// Detection-timeout penalty charged per stalled protocol message
    /// (crashed peers, lost messages, slow machines).
    fn t_timeout(&self) -> f64;
}

impl LatencyModel for NetworkModel {
    fn latency(&self, class: HitClass) -> f64 {
        NetworkModel::latency(self, class)
    }

    fn fetch_cost(&self, class: HitClass) -> f64 {
        NetworkModel::fetch_cost(self, class)
    }

    fn t_timeout(&self) -> f64 {
        self.t_timeout
    }
}

/// Latency parameters, in arbitrary units (only ratios matter for the
/// latency-gain metric).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Proxy → origin server average latency.
    pub ts: f64,
    /// Proxy → cooperating proxy average latency.
    pub tc: f64,
    /// Client → local proxy average latency.
    pub tl: f64,
    /// Client/proxy → P2P client cache average latency.
    pub tp2p: f64,
    /// Timeout penalty paid when a message walks into a crashed node, is
    /// lost on the wire, or stalls on a slow machine (churn experiments
    /// only; the fault-free cascade never charges it).
    ///
    /// The unreliable transport prices its recovery machinery in the
    /// same unit: every failed delivery attempt (loss or checksum
    /// rejection) charges one `t_timeout`, exponential-backoff waits and
    /// reorder-resequencing stalls charge one per backoff unit. So a
    /// destage that succeeds on its third attempt costs
    /// `2·t_timeout + backoff` on top of its normal hop latency.
    pub t_timeout: f64,
}

impl Default for NetworkModel {
    /// The paper's default ratios with `Tl = 1`.
    fn default() -> Self {
        NetworkModel::from_ratios(10.0, 20.0, 1.4)
    }
}

impl NetworkModel {
    /// Builds a model from the paper's ratio parameterization:
    /// `Ts/Tc`, `Ts/Tl` and `Tp2p/Tl`, normalized to `Tl = 1`.
    ///
    /// # Panics
    /// Panics on non-positive ratios.
    pub fn from_ratios(ts_over_tc: f64, ts_over_tl: f64, tp2p_over_tl: f64) -> Self {
        assert!(
            ts_over_tc > 0.0 && ts_over_tl > 0.0 && tp2p_over_tl > 0.0,
            "ratios must be positive"
        );
        let tl = 1.0;
        let ts = ts_over_tl * tl;
        let tc = ts / ts_over_tc;
        let tp2p = tp2p_over_tl * tl;
        // The 4× rule and its rationale live on
        // `webcache_primitives::TIMEOUT_RTT_MULTIPLE` — the single source
        // of truth shared with the transport and churn layers.
        NetworkModel {
            ts,
            tc,
            tl,
            tp2p,
            t_timeout: webcache_primitives::TIMEOUT_RTT_MULTIPLE * tp2p,
        }
    }

    /// This model with every latency (including the timeout penalty)
    /// scaled by `factor`. Ratios — the paper's parameterization — are
    /// unchanged. The overload sweep runs on a scaled-down model: under
    /// the event clock a request occupies the proxy for its full priced
    /// latency, so the nominal one-request-per-round arrival rate only
    /// has service headroom (a stable baseline queue for a flash crowd
    /// to overload) when latencies sit well below one round.
    ///
    /// # Panics
    /// Panics on a non-positive factor.
    pub fn scaled(&self, factor: f64) -> NetworkModel {
        assert!(factor > 0.0 && factor.is_finite(), "scale factor must be positive");
        NetworkModel {
            ts: self.ts * factor,
            tc: self.tc * factor,
            tl: self.tl * factor,
            tp2p: self.tp2p * factor,
            t_timeout: self.t_timeout * factor,
        }
    }

    /// End-to-end client latency for a request served from `class`.
    pub fn latency(&self, class: HitClass) -> f64 {
        match class {
            HitClass::LocalProxy => self.tl,
            HitClass::OwnP2p => self.tl + self.tp2p,
            HitClass::CoopProxy => self.tl + self.tc,
            HitClass::CoopP2p => self.tl + self.tc + self.tp2p,
            HitClass::Server => self.tl + self.ts,
        }
    }

    /// The *proxy-side re-fetch cost* of an object available from `class`
    /// — what greedy-dual and cost-benefit charge for (re)acquiring it.
    /// Client→proxy latency is excluded: it is paid on every request
    /// regardless of where the object comes from.
    pub fn fetch_cost(&self, class: HitClass) -> f64 {
        match class {
            HitClass::LocalProxy => 0.0,
            HitClass::OwnP2p => self.tp2p,
            HitClass::CoopProxy => self.tc,
            HitClass::CoopP2p => self.tc + self.tp2p,
            HitClass::Server => self.ts,
        }
    }

    /// Validates the model: all latencies positive and finite, and the
    /// server the most expensive source (anything else would make caching
    /// pointless). The *full* §5.1 ordering (proxy < own P2P < coop proxy
    /// < coop P2P < server) holds for the paper's defaults — checked by
    /// [`NetworkModel::ordering_violations`] — but legitimately flips
    /// between own-P2P and coop-proxy at the extreme ratios Figure 5
    /// sweeps (e.g. Ts/Tl = 5 with Ts/Tc = 10 makes Tc < Tp2p); schemes
    /// keep the paper's fixed lookup cascade regardless.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("ts", self.ts),
            ("tc", self.tc),
            ("tl", self.tl),
            ("tp2p", self.tp2p),
            ("t_timeout", self.t_timeout),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(SimError::InvalidConfig(format!(
                    "{name} must be positive and finite (got {v})"
                )));
            }
        }
        if self.ts <= self.tc || self.ts <= self.tp2p {
            return Err(SimError::InvalidConfig(
                "the origin server must be the most expensive source".into(),
            ));
        }
        Ok(())
    }

    /// Pairs of hit classes whose §5.1 latency ordering is violated.
    pub fn ordering_violations(&self) -> Vec<(HitClass, HitClass)> {
        HitClass::ALL
            .windows(2)
            .filter(|w| self.latency(w[0]) >= self.latency(w[1]))
            .map(|w| (w[0], w[1]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_ratios() {
        let n = NetworkModel::default();
        assert!((n.ts / n.tc - 10.0).abs() < 1e-12);
        assert!((n.ts / n.tl - 20.0).abs() < 1e-12);
        assert!((n.tp2p / n.tl - 1.4).abs() < 1e-12);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn default_model_satisfies_full_ordering() {
        assert!(NetworkModel::default().ordering_violations().is_empty());
    }

    #[test]
    fn latency_models_valid_for_paper_sweeps() {
        // Every combination swept in Figure 5(a)/(b) must be usable; the
        // full ordering may flip between own-P2P and coop-proxy at the
        // extremes (documented on `validate`), never elsewhere.
        for ts_tc in [2.0, 5.0, 10.0] {
            for ts_tl in [5.0, 10.0, 20.0] {
                let n = NetworkModel::from_ratios(ts_tc, ts_tl, 1.4);
                assert!(n.validate().is_ok(), "ts/tc={ts_tc}, ts/tl={ts_tl}: {n:?}");
                for (a, b) in n.ordering_violations() {
                    assert!(
                        matches!(
                            (a, b),
                            (HitClass::OwnP2p, HitClass::CoopProxy)
                                | (HitClass::CoopProxy, HitClass::CoopP2p)
                        ),
                        "unexpected ordering violation {a:?} >= {b:?} at ts/tc={ts_tc}, ts/tl={ts_tl}"
                    );
                }
            }
        }
    }

    #[test]
    fn latencies_compose_additively() {
        let n = NetworkModel::default();
        assert_eq!(n.latency(HitClass::LocalProxy), n.tl);
        assert_eq!(n.latency(HitClass::OwnP2p), n.tl + n.tp2p);
        assert_eq!(n.latency(HitClass::CoopProxy), n.tl + n.tc);
        assert_eq!(n.latency(HitClass::CoopP2p), n.tl + n.tc + n.tp2p);
        assert_eq!(n.latency(HitClass::Server), n.tl + n.ts);
    }

    #[test]
    fn fetch_cost_excludes_client_leg() {
        let n = NetworkModel::default();
        assert_eq!(n.fetch_cost(HitClass::LocalProxy), 0.0);
        assert_eq!(n.fetch_cost(HitClass::Server), n.ts);
        assert!(n.fetch_cost(HitClass::CoopProxy) < n.fetch_cost(HitClass::Server));
    }

    #[test]
    #[should_panic(expected = "ratios must be positive")]
    fn rejects_bad_ratios() {
        let _ = NetworkModel::from_ratios(0.0, 20.0, 1.4);
    }

    #[test]
    fn validation_catches_inverted_order() {
        let n = NetworkModel { ts: 1.0, tc: 5.0, tl: 1.0, tp2p: 1.0, t_timeout: 4.0 };
        assert!(n.validate().is_err());
    }

    #[test]
    fn timeout_penalty_sits_between_coop_and_server() {
        let n = NetworkModel::default();
        assert!((n.t_timeout - 4.0 * n.tp2p).abs() < 1e-12);
        assert!(n.t_timeout > n.tp2p && n.t_timeout < n.ts);
    }
}
