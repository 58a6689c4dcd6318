//! Routing substrates for multi-hop sensor networks.
//!
//! Four substrates from the paper:
//!
//! 1. **Routing trees** ([`tree`]) — the standard construction of TinyDB
//!    \[10\]: BFS from a root, every node knows parent, children and depth.
//! 2. **The multi-tree substrate** ([`substrate`], [`search`]) — the
//!    paper's own substrate \[11\]: several overlapping trees with
//!    well-separated roots, each carrying *semantic routing tables* (per
//!    child, per indexed attribute summaries; see `sensor-summaries`) that
//!    let content-addressed searches prune subtrees.
//! 3. **GHT/GPSR** ([`ght`]) — geographic hashing to a home node plus
//!    greedy/perimeter geographic forwarding \[13\].
//! 4. **DHT** ([`dht`]) — Chord-style hash-space key placement for 802.11
//!    mesh networks (Appendix F); data takes the mesh's shortest path to a
//!    key's responsible node.
//!
//! Also here: limited-exploration path repair (§7) and the mobile-leaf
//! update protocol (Appendix G).

pub mod dht;
pub mod ght;
pub mod mobility;
pub mod repair;
pub mod search;
pub mod substrate;
pub mod table;
pub mod tree;

pub use search::{SearchQuery, SearchResult};
pub use substrate::{IndexedAttr, MultiTreeSubstrate, StaticValues};
pub use tree::RoutingTree;

/// Attribute identifier as used by routing tables. The query layer defines
/// the actual catalog; routing only needs an opaque index.
pub type AttrId = u8;
