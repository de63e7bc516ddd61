//! **webcache** — facade over the full reproduction of Zhu & Hu,
//! *Exploiting Client Caches: An Approach to Building Large Web Caches*
//! (ICPP 2003). See README.md for the tour and DESIGN.md for the system
//! inventory.
//!
//! Each module re-exports one workspace crate:
//!
//! * [`sim`] — the simulator: schemes NC/SC/FC(-EC), Hier-GD, network
//!   model, metrics, sweeps (`webcache-sim`);
//! * [`workload`] — ProWGen + the UCB-like trace substitute
//!   (`webcache-workload`);
//! * [`p2p`] — the Pastry-federated P2P client cache (`webcache-p2p`);
//! * [`pastry`] — the overlay itself (`webcache-pastry`);
//! * [`policy`] — replacement policies (`webcache-policy`);
//! * [`primitives`] — SHA-1, Bloom filters, Zipf samplers, stats
//!   (`webcache-primitives`).
#![forbid(unsafe_code)]

// The discrete-event clock vocabulary, lifted to the root so harness
// code can name the types without the `sim::` hop.
pub use webcache_sim::{Admission, ClockMode, Engine, Event, LatencyModel, SimClock};

pub use webcache_p2p as p2p;
pub use webcache_pastry as pastry;
pub use webcache_policy as policy;
pub use webcache_primitives as primitives;
pub use webcache_sim as sim;
pub use webcache_workload as workload;
