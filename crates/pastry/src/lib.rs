//! Deterministic simulation of the **Pastry** structured overlay
//! (Rowstron & Druschel, *Pastry: Scalable, decentralized object location
//! and routing for large-scale peer-to-peer systems*, Middleware 2001 —
//! reference \[17\] of the paper).
//!
//! The paper's P2P client cache (§4.1) is built on Pastry: every client
//! cache gets a 128-bit `cacheId`, objects are hashed to `objectId`s, and
//! an object is stored at the client cache whose id is numerically closest
//! to the objectId. Routing reaches that node in `⌈log_2^b N⌉` hops — the
//! paper leans on this bound to argue fetching from the P2P cache costs only
//! "a small number of LAN hops" (3–4 at N = 1024, b = 4).
//!
//! This crate implements the overlay at message level: per-node leaf sets
//! and prefix routing tables, the join protocol (state copied from the
//! nodes along the join route plus announcement), node failure with
//! gossip-style leaf-set repair, and hop-counted routing. There is no real
//! network; `Overlay` plays the role of the (lossless, ordered) LAN, which
//! matches the paper's simulation assumptions — LAN latency is folded into
//! the `Tp2p` network parameter of `webcache-sim`.
//!
//! What is deliberately not modeled: the *neighborhood set* and
//! proximity-aware table construction (Pastry §2.5) — the paper's
//! simulations assume uniform LAN latency inside an organization, so
//! proximity optimization has nothing to optimize here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod id;
pub mod overlay;
pub mod state;

pub use id::NodeId;
pub use overlay::{ChurnRoute, Overlay, OverlayError, RouteOutcome};
pub use state::{NodeState, PastryConfig, Slot};
