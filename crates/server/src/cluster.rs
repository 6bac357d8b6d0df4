//! Membership views and the hook points the fleet layer plugs into the
//! server.
//!
//! `bivd` itself knows nothing about gossip or replica placement — that
//! logic lives in `biv-fleet`, which depends on this crate (not the
//! other way round). What both sides share is the membership [`View`]
//! and its JSON format, which lives here: every server answers
//! `members` with one. A server started without a cluster agent (`bivd`
//! without `--peers`, unit tests) answers with a one-member view of
//! itself ([`View::single`]), so a router bootstraps every fleet the
//! same way. Such a server answers `gossip` with a `no-cluster` error
//! and skips the rest of the hook surface: observe committed summaries
//! (so they can be written through to replicas), contribute stats
//! sections, and run the departure handoff once drain has flushed the
//! store.

use std::fmt;
use std::sync::Arc;

use biv_core::StructuralSummary;

use crate::json::Json;

/// Liveness of one fleet member, ordered by precedence rank: at equal
/// incarnation a higher-rank (greater) claim overrides a lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemberState {
    /// Heartbeating normally; routable.
    Alive,
    /// Announced shutdown; finish in-flight work, route new work away.
    Draining,
    /// Missed heartbeats; still counted while the fleet decides.
    Suspect,
    /// Timed out (or drained away); excluded from routing until a
    /// fresher incarnation refutes.
    Dead,
}

impl MemberState {
    /// Wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            MemberState::Alive => "alive",
            MemberState::Draining => "draining",
            MemberState::Suspect => "suspect",
            MemberState::Dead => "dead",
        }
    }

    /// Parses a wire name.
    pub fn parse(text: &str) -> Option<MemberState> {
        match text {
            "alive" => Some(MemberState::Alive),
            "draining" => Some(MemberState::Draining),
            "suspect" => Some(MemberState::Suspect),
            "dead" => Some(MemberState::Dead),
            _ => None,
        }
    }
}

/// One shard's record in a membership view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Which ring position this record describes.
    pub shard_id: u32,
    /// Where the shard listens (`tcp:ADDR` or a Unix socket path).
    pub endpoint: String,
    /// Monotonic per-process-lifetime epoch; higher refutes lower.
    pub incarnation: u64,
    /// Current liveness claim.
    pub state: MemberState,
}

impl Member {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("shard_id", Json::Int(i64::from(self.shard_id))),
            ("endpoint", Json::Str(self.endpoint.clone())),
            ("incarnation", Json::Int(self.incarnation as i64)),
            ("state", Json::Str(self.state.as_str().to_string())),
        ])
    }

    fn from_json(json: &Json) -> Result<Member, String> {
        let shard_id = json
            .get("shard_id")
            .and_then(Json::as_i64)
            .ok_or("member missing shard_id")?;
        let endpoint = json
            .get("endpoint")
            .and_then(Json::as_str)
            .ok_or("member missing endpoint")?;
        let incarnation = json
            .get("incarnation")
            .and_then(Json::as_i64)
            .ok_or("member missing incarnation")?;
        let state = json
            .get("state")
            .and_then(Json::as_str)
            .and_then(MemberState::parse)
            .ok_or("member missing state")?;
        Ok(Member {
            shard_id: u32::try_from(shard_id).map_err(|_| "shard_id out of range")?,
            endpoint: endpoint.to_string(),
            incarnation: incarnation as u64,
            state,
        })
    }
}

/// A versioned membership view: everything a router needs to build the
/// ring and route around dead shards, learnable from any one member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Bumped on every local change; merged views take the max plus one
    /// so versions stay quasi-monotonic across the fleet.
    pub version: u64,
    /// Ring size the fleet was launched with (fixed for its lifetime).
    pub shard_count: u32,
    /// Replication factor R: each key lives on its primary plus the
    /// next R−1 distinct ring successors.
    pub replication: u32,
    /// One record per shard met so far, sorted by shard id.
    pub members: Vec<Member>,
}

impl View {
    /// The view of a server that runs no cluster agent: itself alone,
    /// `Alive` at incarnation 0. Nothing replicates, so no shard is
    /// warmer than another and R is the whole ring — failover walks
    /// every live successor.
    pub fn single(shard_id: u32, shard_count: u32, endpoint: String) -> View {
        View {
            version: 1,
            shard_count,
            replication: shard_count,
            members: vec![Member {
                shard_id,
                endpoint,
                incarnation: 0,
                state: MemberState::Alive,
            }],
        }
    }

    /// Encodes the view for a gossip/members frame.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Int(self.version as i64)),
            ("shard_count", Json::Int(i64::from(self.shard_count))),
            ("replication", Json::Int(i64::from(self.replication))),
            (
                "members",
                Json::Arr(self.members.iter().map(Member::to_json).collect()),
            ),
        ])
    }

    /// Decodes a view from a gossip/members frame.
    pub fn from_json(json: &Json) -> Result<View, String> {
        let version = json
            .get("version")
            .and_then(Json::as_i64)
            .ok_or("view missing version")?;
        let shard_count = json
            .get("shard_count")
            .and_then(Json::as_i64)
            .ok_or("view missing shard_count")?;
        let replication = json.get("replication").and_then(Json::as_i64).unwrap_or(1);
        let members = json
            .get("members")
            .and_then(Json::as_arr)
            .ok_or("view missing members")?
            .iter()
            .map(Member::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(View {
            version: version as u64,
            shard_count: u32::try_from(shard_count).map_err(|_| "shard_count out of range")?,
            replication: u32::try_from(replication.max(1)).unwrap_or(1),
            members,
        })
    }

    /// The member record for one shard, if met.
    pub fn member(&self, shard_id: u32) -> Option<&Member> {
        self.members.iter().find(|m| m.shard_id == shard_id)
    }
}

/// What a membership/replication agent provides to the server.
pub trait ClusterHook: Send + Sync {
    /// Merges a peer's view and returns ours (after the merge), so one
    /// gossip exchange converges both sides. `from` is the sending
    /// shard when the peer is a fleet member.
    fn on_gossip(&self, from: Option<u32>, view: &Json) -> Json;

    /// The current membership view — how routers bootstrap the ring
    /// from a single seed endpoint.
    fn view(&self) -> Json;

    /// Observes summaries committed while serving `source` (an analyze
    /// request's file text), so the agent can replicate them to the
    /// key's successors. Called after the batch is in the local cache.
    fn on_commit(&self, source: &str, entries: &[(u64, Arc<StructuralSummary>)]);

    /// Extra top-level stats sections (`membership`, `replication`).
    fn stats_sections(&self) -> Vec<(String, Json)>;

    /// Runs after drain has completed and the store is flushed: the
    /// agent announces departure and hands its snapshot to the shards
    /// that absorb its key ranges.
    fn on_drained(&self);
}

/// A cloneable, debuggable handle to a [`ClusterHook`] so it can ride
/// inside [`ServerConfig`](crate::ServerConfig).
#[derive(Clone)]
pub struct ClusterHandle(pub Arc<dyn ClusterHook>);

impl fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ClusterHandle(..)")
    }
}

impl ClusterHandle {
    /// Wraps a hook implementation.
    pub fn new(hook: Arc<dyn ClusterHook>) -> ClusterHandle {
        ClusterHandle(hook)
    }
}
