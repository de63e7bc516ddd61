//! Trace representation and analysis.

use std::collections::HashMap;

/// Dense object identifier within one trace's universe.
///
/// The simulator works in this dense space; the P2P layer maps an
/// [`ObjectId`] to its 128-bit Pastry objectId by SHA-1-hashing the
/// synthetic URL (see [`Trace::url_of`] and `webcache_p2p`).
pub type ObjectId = u32;

/// One HTTP request after the browser's *local* cache.
///
/// The paper's traces are proxy-level: requests that missed in the private
/// part of the client's browser cache. `client` identifies which of the
/// client cluster's machines issued the request — Hier-GD needs it for
/// piggyback destaging (§4.4), the unified-cache schemes ignore it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Issuing client within the cluster.
    pub client: u32,
    /// Requested object (dense id).
    pub object: ObjectId,
    /// Object size in bytes. The paper assumes unit sizes (§5.1 assumption
    /// 1); generators still attach realistic sizes so the size-aware policy
    /// code paths stay exercised.
    pub size: u32,
}

/// A request stream for one client cluster.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The request stream in arrival order.
    pub requests: Vec<Request>,
    /// Exclusive upper bound on object ids appearing in `requests`.
    pub num_objects: u32,
    /// Number of clients in the cluster (client ids are `0..num_clients`).
    pub num_clients: u32,
}

impl Trace {
    /// Builds a trace, computing `num_objects`/`num_clients` bounds.
    pub fn new(requests: Vec<Request>) -> Self {
        let num_objects = requests.iter().map(|r| r.object + 1).max().unwrap_or(0);
        let num_clients = requests.iter().map(|r| r.client + 1).max().unwrap_or(0);
        Trace { requests, num_objects, num_clients }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The synthetic URL for an object, hashed by the P2P layer into the
    /// Pastry id space exactly as §4.1 prescribes for real URLs.
    pub fn url_of(object: ObjectId) -> String {
        format!("http://origin.example/obj/{object}")
    }

    /// Serializes the trace to a compact little-endian binary stream
    /// (magic + version header, then 12 bytes per request), so generated
    /// workloads can be archived and replayed without regeneration.
    pub fn write_binary(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        w.write_all(Self::MAGIC)?;
        w.write_all(&1u32.to_le_bytes())?; // format version
        w.write_all(&self.num_objects.to_le_bytes())?;
        w.write_all(&self.num_clients.to_le_bytes())?;
        w.write_all(&(self.requests.len() as u64).to_le_bytes())?;
        let mut buf = std::io::BufWriter::new(w);
        for r in &self.requests {
            buf.write_all(&r.client.to_le_bytes())?;
            buf.write_all(&r.object.to_le_bytes())?;
            buf.write_all(&r.size.to_le_bytes())?;
        }
        use std::io::Write as _;
        buf.flush()
    }

    /// Reads a trace written by [`Trace::write_binary`].
    pub fn read_binary(r: &mut impl std::io::Read) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != Self::MAGIC {
            return Err(Error::new(ErrorKind::InvalidData, "not a webcache trace file"));
        }
        let mut word = [0u8; 4];
        r.read_exact(&mut word)?;
        let version = u32::from_le_bytes(word);
        if version != 1 {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("unsupported trace format version {version}"),
            ));
        }
        r.read_exact(&mut word)?;
        let num_objects = u32::from_le_bytes(word);
        r.read_exact(&mut word)?;
        let num_clients = u32::from_le_bytes(word);
        let mut len = [0u8; 8];
        r.read_exact(&mut len)?;
        let n = u64::from_le_bytes(len) as usize;
        let mut buf = std::io::BufReader::new(r);
        use std::io::Read as _;
        let mut requests = Vec::with_capacity(n.min(1 << 24));
        let mut rec = [0u8; 12];
        for _ in 0..n {
            buf.read_exact(&mut rec)?;
            let client = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
            let object = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
            let size = u32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]);
            if object >= num_objects || client >= num_clients {
                return Err(Error::new(ErrorKind::InvalidData, "request outside trace bounds"));
            }
            requests.push(Request { client, object, size });
        }
        Ok(Trace { requests, num_objects, num_clients })
    }

    /// File magic for the binary trace format.
    pub const MAGIC: &'static [u8; 8] = b"WCTRACE1";

    /// Computes summary statistics in one pass.
    pub fn stats(&self) -> TraceStats {
        // Object ids are dense, so the pass counts into an array; the
        // public map is built once, from the objects actually referenced.
        let mut per_object = vec![0u32; self.num_objects as usize];
        for r in &self.requests {
            let i = r.object as usize;
            if i >= per_object.len() {
                // `num_objects` is a public field; tolerate a stale bound.
                per_object.resize(i + 1, 0);
            }
            per_object[i] += 1;
        }
        let counts: HashMap<ObjectId, u32> = per_object
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(o, &c)| (o as ObjectId, c))
            .collect();
        let distinct = counts.len();
        let one_timers = per_object.iter().filter(|&&c| c == 1).count();
        TraceStats {
            requests: self.requests.len(),
            distinct_objects: distinct,
            one_timers,
            infinite_cache_size: distinct - one_timers,
            max_object_refs: per_object.iter().copied().max().unwrap_or(0),
            counts,
        }
    }
}

/// Summary statistics for a trace.
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Total requests.
    pub requests: usize,
    /// Distinct objects referenced.
    pub distinct_objects: usize,
    /// Objects referenced exactly once.
    pub one_timers: usize,
    /// The paper's *infinite cache size* `U`: distinct objects accessed
    /// more than once (§5.1). All cache-size axes are percentages of this.
    pub infinite_cache_size: usize,
    /// Largest per-object reference count.
    pub max_object_refs: u32,
    /// Per-object reference counts.
    pub counts: HashMap<ObjectId, u32>,
}

impl TraceStats {
    /// Fraction of distinct objects that are one-timers.
    pub fn one_timer_fraction(&self) -> f64 {
        if self.distinct_objects == 0 {
            0.0
        } else {
            self.one_timers as f64 / self.distinct_objects as f64
        }
    }

    /// Per-object reference frequencies normalized by total requests,
    /// in descending order (rank 0 first). Used both by the cost-benefit
    /// policy (perfect frequency knowledge, §2) and by tests fitting the
    /// Zipf slope.
    pub fn rank_frequencies(&self) -> Vec<f64> {
        let mut counts: Vec<u32> = self.counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total = self.requests.max(1) as f64;
        counts.into_iter().map(|c| c as f64 / total).collect()
    }

    /// Fits `log(freq) = slope * log(rank) + b` over the multi-reference
    /// head of the rank-frequency curve; `-slope` estimates Zipf α.
    pub fn zipf_alpha_estimate(&self) -> Option<f64> {
        let freqs = self.rank_frequencies();
        // Exclude the one-timer tail, which flattens the fit, and rank 1
        // noise; use ranks 2..=multi-ref head.
        let head = self.infinite_cache_size.min(freqs.len());
        if head < 10 {
            return None;
        }
        let pts: Vec<(f64, f64)> =
            (1..head).map(|i| ((i as f64 + 1.0).ln(), freqs[i].max(1e-12).ln())).collect();
        webcache_primitives::stats::linear_fit(&pts).map(|f| -f.slope)
    }

    /// Mean reuse distance in *requests* between successive references to
    /// the same object, over multi-reference objects. A workload with
    /// stronger temporal locality has a smaller mean reuse distance; the
    /// tests use this to verify the LRU-stack knob is monotone.
    pub fn mean_reuse_distance(trace: &Trace) -> f64 {
        let mut last_seen: HashMap<ObjectId, usize> = HashMap::new();
        let mut sum = 0.0f64;
        let mut n = 0u64;
        for (t, r) in trace.requests.iter().enumerate() {
            if let Some(prev) = last_seen.insert(r.object, t) {
                sum += (t - prev) as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(object: ObjectId) -> Request {
        Request { client: 0, object, size: 1 }
    }

    #[test]
    fn stats_counts_one_timers_and_infinite_size() {
        // objects: 0 x3, 1 x1, 2 x2, 3 x1
        let t = Trace::new(vec![req(0), req(1), req(0), req(2), req(3), req(2), req(0)]);
        let s = t.stats();
        assert_eq!(s.requests, 7);
        assert_eq!(s.distinct_objects, 4);
        assert_eq!(s.one_timers, 2);
        assert_eq!(s.infinite_cache_size, 2);
        assert_eq!(s.max_object_refs, 3);
        assert!((s.one_timer_fraction() - 0.5).abs() < 1e-12);
        // The map holds exactly the referenced objects (5 is in range
        // but never requested), also when `num_objects` is stale.
        let expect = HashMap::from([(0, 3), (1, 1), (2, 2), (3, 1)]);
        assert_eq!(s.counts, expect);
        let wide = Trace { num_objects: 6, ..t.clone() };
        assert_eq!(wide.stats().counts, expect);
        let stale = Trace { num_objects: 1, ..t };
        assert_eq!(stale.stats().counts, expect);
        assert_eq!(stale.stats().one_timers, 2);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(vec![]);
        assert!(t.is_empty());
        let s = t.stats();
        assert_eq!(s.distinct_objects, 0);
        assert_eq!(s.infinite_cache_size, 0);
        assert_eq!(s.one_timer_fraction(), 0.0);
        assert!(s.rank_frequencies().is_empty());
        assert!(s.zipf_alpha_estimate().is_none());
    }

    #[test]
    fn rank_frequencies_sorted_and_normalized() {
        let t = Trace::new(vec![req(0), req(0), req(0), req(1), req(1), req(2)]);
        let f = t.stats().rank_frequencies();
        assert_eq!(f.len(), 3);
        assert!((f[0] - 0.5).abs() < 1e-12);
        assert!((f[1] - 2.0 / 6.0).abs() < 1e-12);
        assert!((f[2] - 1.0 / 6.0).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reuse_distance_simple() {
        // 0 at t=0 and t=2 (distance 2); 0 at t=4 (distance 2).
        let t = Trace::new(vec![req(0), req(1), req(0), req(2), req(0)]);
        let d = TraceStats::mean_reuse_distance(&t);
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_computed() {
        let t = Trace::new(vec![Request { client: 4, object: 9, size: 1 }]);
        assert_eq!(t.num_objects, 10);
        assert_eq!(t.num_clients, 5);
    }

    #[test]
    fn urls_distinct_per_object() {
        assert_ne!(Trace::url_of(1), Trace::url_of(2));
    }

    #[test]
    fn binary_roundtrip() {
        let t = Trace::new(vec![
            Request { client: 3, object: 7, size: 100 },
            Request { client: 0, object: 0, size: 1 },
            Request { client: 9, object: 123, size: u32::MAX },
        ]);
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        let back = Trace::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back.requests, t.requests);
        assert_eq!(back.num_objects, t.num_objects);
        assert_eq!(back.num_clients, t.num_clients);
    }

    #[test]
    fn binary_roundtrip_empty() {
        let t = Trace::new(vec![]);
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        let back = Trace::read_binary(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(Trace::read_binary(&mut &b"not a trace"[..]).is_err());
        // Correct magic, bogus version.
        let mut buf = Vec::new();
        buf.extend_from_slice(Trace::MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(Trace::read_binary(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_out_of_bounds_request() {
        let t = Trace::new(vec![Request { client: 0, object: 5, size: 1 }]);
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        // Corrupt the object id beyond num_objects.
        let n = buf.len();
        buf[n - 8..n - 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(Trace::read_binary(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn binary_truncated_stream_errors() {
        let t = Trace::new(vec![Request { client: 0, object: 1, size: 1 }; 10]);
        let mut buf = Vec::new();
        t.write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(Trace::read_binary(&mut buf.as_slice()).is_err());
    }
}
