//! `biv-fleet` — sharded `bivd` serving.
//!
//! One `bivd` process holds one structural cache; this crate scales
//! that horizontally. N daemons each run as one *shard* of a fleet
//! (`bivd --fleet shard=K/N`), and a client-side [`Router`] fans each
//! batch out across them, reassembling the responses into output that
//! is **byte-identical** to a single local `bivc` run over the same
//! files.
//!
//! The pieces:
//!
//! - [`ring`] — the consistent-hash ring that maps a file's content key
//!   to its shard, with virtual nodes for balance and successor routing
//!   for failover;
//! - [`membership`] — gossip-maintained versioned views of the fleet
//!   (who is alive, where, at which incarnation), with SWIM-style
//!   refutation and timeout-driven failure detection. The view type
//!   and its JSON format live in `biv_server::cluster` (every `bivd`
//!   answers `members` with one, agent or not) and are re-exported
//!   here;
//! - [`replicate`] — asynchronous R-way write-through of committed
//!   summaries to each key's ring successors, so a killed primary's
//!   keys are served warm from a replica;
//! - [`router`] — ring bootstrap by merging the seeds' membership
//!   views, batch fan-out, per-shard busy and death handling, replica
//!   failover, and input-order reassembly (the byte-identity lives
//!   here);
//! - [`stats`] — fleet-wide stats aggregation and the drain/rebalance
//!   coordinator (a departing shard's store snapshot warm-starts its
//!   successor).
//!
//! Routing invariant: the structural hash partitions the summary
//! keyspace perfectly — a function's cached summary lives under exactly
//! one key — so identical file contents must always land on the same
//! shard to reuse its cache. The router keys the ring on a 64-bit FNV-1a
//! of the file source: equal sources have equal structural hashes, so
//! the content key respects the structural partition while being
//! computable without parsing. Routing never affects output bytes —
//! shards return per-file summary blocks plus structural hashes, and
//! the router replays the batch stats line cold over all hashes in
//! input order ([`biv_core::cold_batch_stats`]) exactly as a local run
//! renders it — so failover re-routing is always safe, and a shard
//! serves whatever batch reaches it without checking that the router
//! placed it there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
pub mod membership;
pub mod replicate;
pub mod ring;
pub mod router;
pub mod stats;

pub use membership::{AgentConfig, ClusterAgent, Member, MemberState, Membership, View};
pub use replicate::Replicator;
pub use ring::Ring;
pub use router::{FleetConfig, FleetReport, Router};
pub use stats::{drain_shard, fleet_stats, fleet_stats_with_timeout, DrainReport};
