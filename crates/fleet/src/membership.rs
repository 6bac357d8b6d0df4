//! Fleet membership: versioned views, gossip, incarnation refutation,
//! and the cluster agent that plugs them into a running `bivd`.
//!
//! Every shard runs a [`Membership`] state machine holding one *view*:
//! for each shard, its endpoint, an *incarnation* number, and a
//! liveness state ([`MemberState`]). Shards exchange views over the
//! existing frame protocol (`gossip` frames, see `biv_server::proto`):
//! each heartbeat a shard sends its view to every known peer plus any
//! configured seed it has not met yet, and merges the reply. Routers
//! bootstrap the same way — one `members` request to any live seed
//! yields the whole ring.
//!
//! Merge precedence, per member record:
//!
//! 1. the **higher incarnation** wins outright (endpoint included — a
//!    restarted shard may come back on a new port);
//! 2. at equal incarnation the **higher-rank state** wins, with rank
//!    `Alive < Draining < Suspect < Dead` — suspicion spreads without
//!    the suspect's cooperation, but can only be undone by…
//! 3. **refutation**: a shard that sees *itself* recorded as suspect or
//!    dead bumps its own incarnation past the accusation and re-asserts
//!    `Alive` (or `Draining` while shutting down). Incarnations are
//!    seeded from wall-clock milliseconds, so a restarted process
//!    naturally outranks every record of its previous life and reclaims
//!    its shard id without operator help.
//!
//! Failure detection is timeout-driven: a member not heard from within
//! `suspect_after` becomes `Suspect`, and within `dead_after` becomes
//! `Dead` — both are same-incarnation rank-ups, so they gossip through
//! the fleet without coordination. Rejoin (a record replaced by a
//! fresher `Alive`) triggers the automatic rebalance: every shard on
//! the rejoining shard's arc-successor set — exactly the shards that
//! absorbed its key ranges while it was away — hands its store snapshot
//! over with a `preload` frame. The snapshot is a superset of the moved
//! ranges, which is harmless: summaries are pure functions of the
//! structural hash, so preloading an unrelated entry can never change
//! output bytes, only warm a cache.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use biv_core::StructuralSummary;
pub use biv_server::cluster::{Member, MemberState, View};
use biv_server::{Client, ClusterHandle, ClusterHook, Endpoint, Json, Request, Response};

use crate::faults;
use crate::replicate::Replicator;
use crate::ring::{content_key, Ring};

/// Static parameters of one shard's membership state machine.
#[derive(Debug, Clone)]
pub struct MembershipConfig {
    /// This shard's ring position.
    pub shard_id: u32,
    /// Ring size.
    pub shard_count: u32,
    /// Replication factor carried in the view.
    pub replication: u32,
    /// This shard's advertised endpoint.
    pub endpoint: String,
    /// Silence before an `Alive` member becomes `Suspect`.
    pub suspect_after: Duration,
    /// Silence before a `Suspect`/`Draining` member becomes `Dead`.
    pub dead_after: Duration,
}

struct Inner {
    view: View,
    last_heard: HashMap<u32, Instant>,
    joins: Vec<u32>,
    draining: bool,
}

/// One shard's membership state machine. Pure state — all I/O lives in
/// the agent — so merge, refutation, and timeout behavior are directly
/// unit-testable with synthetic clocks.
pub struct Membership {
    config: MembershipConfig,
    inner: Mutex<Inner>,
}

impl Membership {
    /// Seeds the view with this shard alone, `Alive` at a wall-clock
    /// incarnation (so any future restart outranks this lifetime).
    pub fn new(config: MembershipConfig) -> Membership {
        let incarnation = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(1);
        let me = Member {
            shard_id: config.shard_id,
            endpoint: config.endpoint.clone(),
            incarnation,
            state: MemberState::Alive,
        };
        let inner = Mutex::new(Inner {
            view: View {
                version: 1,
                shard_count: config.shard_count,
                replication: config.replication,
                members: vec![me],
            },
            last_heard: HashMap::new(),
            joins: Vec::new(),
            draining: false,
        });
        Membership { config, inner }
    }

    /// A copy of the current view.
    pub fn snapshot(&self) -> View {
        self.inner.lock().unwrap().view.clone()
    }

    /// Merges a peer's view at time `now`. `from` names the shard we
    /// heard it from *directly* (refreshing its liveness clock);
    /// forwarded records refresh only when they carry fresher `Alive`
    /// information, so third-hand staleness cannot keep a dead shard
    /// looking alive. Returns whether anything changed.
    pub fn observe(&self, remote: &View, from: Option<u32>, now: Instant) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let mut changed = false;
        {
            let Inner {
                view,
                last_heard,
                joins,
                ..
            } = &mut *inner;
            for m in &remote.members {
                if m.shard_id >= self.config.shard_count {
                    continue; // a misconfigured peer cannot grow our ring
                }
                match view.members.iter_mut().find(|x| x.shard_id == m.shard_id) {
                    None => {
                        last_heard.insert(m.shard_id, now);
                        view.members.push(m.clone());
                        view.members.sort_by_key(|x| x.shard_id);
                        changed = true;
                    }
                    Some(ours) => {
                        let wins = m.incarnation > ours.incarnation
                            || (m.incarnation == ours.incarnation && m.state > ours.state);
                        if !wins {
                            continue;
                        }
                        // A record coming back `Alive` from any worse
                        // state is a (re)join — remember it so the agent
                        // can trigger the snapshot handoff.
                        let rejoined = m.state == MemberState::Alive
                            && ours.state != MemberState::Alive
                            && m.shard_id != self.config.shard_id;
                        *ours = m.clone();
                        if m.state == MemberState::Alive {
                            last_heard.insert(m.shard_id, now);
                        }
                        if rejoined && !joins.contains(&m.shard_id) {
                            joins.push(m.shard_id);
                        }
                        changed = true;
                    }
                }
            }
            if let Some(id) = from {
                last_heard.insert(id, now);
            }
        }
        changed |= Membership::assert_self(&self.config, &mut inner);
        if changed {
            inner.view.version = inner.view.version.max(remote.version) + 1;
        }
        changed
    }

    /// Re-asserts our own record after a merge: refute any outranking
    /// claim about us (suspect/dead, or a stale endpoint) by bumping the
    /// incarnation past it.
    fn assert_self(config: &MembershipConfig, inner: &mut Inner) -> bool {
        let desired = if inner.draining {
            MemberState::Draining
        } else {
            MemberState::Alive
        };
        let me = inner
            .view
            .members
            .iter_mut()
            .find(|m| m.shard_id == config.shard_id)
            .expect("own record is inserted at construction and never removed");
        if me.endpoint != config.endpoint || me.state > desired {
            // The merge kept the highest-precedence claim, so one past
            // its incarnation outranks everything the fleet has seen.
            me.incarnation += 1;
            me.endpoint = config.endpoint.clone();
            me.state = desired;
            true
        } else if me.state < desired {
            // Alive -> Draining is a rank-up: wins at the same
            // incarnation, no bump needed.
            me.state = desired;
            true
        } else {
            false
        }
    }

    /// Applies failure-detection timeouts at time `now`: silent `Alive`
    /// members become `Suspect` after `suspect_after`, and `Suspect`/
    /// `Draining` members become `Dead` after `dead_after`. Returns
    /// whether anything changed.
    pub fn tick(&self, now: Instant) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let Inner {
            view, last_heard, ..
        } = &mut *inner;
        let mut changed = false;
        for m in view.members.iter_mut() {
            if m.shard_id == self.config.shard_id {
                continue;
            }
            let heard = *last_heard.entry(m.shard_id).or_insert(now);
            let silent = now.saturating_duration_since(heard);
            let next = match m.state {
                MemberState::Alive if silent >= self.config.suspect_after => {
                    Some(MemberState::Suspect)
                }
                MemberState::Suspect | MemberState::Draining
                    if silent >= self.config.dead_after =>
                {
                    Some(MemberState::Dead)
                }
                _ => None,
            };
            if let Some(state) = next {
                m.state = state; // same incarnation: a rank-up, gossips through
                changed = true;
            }
        }
        if changed {
            view.version += 1;
        }
        changed
    }

    /// Marks this shard `Draining` (idempotent). Peers merge the
    /// rank-up; a later restart refutes it with a fresh incarnation.
    pub fn note_draining(&self) {
        let mut inner = self.inner.lock().unwrap();
        if inner.draining {
            return;
        }
        inner.draining = true;
        if Membership::assert_self(&self.config, &mut inner) {
            inner.view.version += 1;
        }
    }

    /// Drains the pending (re)join transitions observed since the last
    /// call — the agent turns each into a snapshot handoff.
    pub fn take_joins(&self) -> Vec<u32> {
        std::mem::take(&mut self.inner.lock().unwrap().joins)
    }

    /// The endpoint of a shard currently believed `Alive`.
    pub fn endpoint_of(&self, shard_id: u32) -> Option<String> {
        let inner = self.inner.lock().unwrap();
        inner
            .view
            .member(shard_id)
            .filter(|m| m.state == MemberState::Alive)
            .map(|m| m.endpoint.clone())
    }

    /// Where to deliver a replica batch bound for `shard_id`, by the
    /// current view. The three-way answer matters: treating an unmet
    /// shard like a dead one would silently count an undelivered batch
    /// as replicated.
    pub fn delivery(&self, shard_id: u32) -> Delivery {
        let inner = self.inner.lock().unwrap();
        match inner.view.member(shard_id) {
            // A suspect or draining member may well still be alive:
            // send, and let a real failure surface as a retry.
            Some(m) if m.state != MemberState::Dead => Delivery::Send(m.endpoint.clone()),
            // Dead is a settled verdict — skip; the rejoin snapshot
            // handoff warms the shard when it comes back.
            Some(_) => Delivery::SkipDead,
            // Not in the view yet (membership still converging): the
            // batch is undeliverable *so far* and must be retried.
            None => Delivery::Unmet,
        }
    }

    /// Who to gossip to this round: every other member met so far (dead
    /// ones included — a wrongly-declared peer can only refute us if we
    /// keep talking to it, and a truly dead one refuses the connect
    /// cheaply) plus any configured seed not in the view yet.
    pub fn gossip_targets(&self, seeds: &[String]) -> Vec<(Option<u32>, String)> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<(Option<u32>, String)> = inner
            .view
            .members
            .iter()
            .filter(|m| m.shard_id != self.config.shard_id)
            .map(|m| (Some(m.shard_id), m.endpoint.clone()))
            .collect();
        for seed in seeds {
            let known = *seed == self.config.endpoint
                || inner.view.members.iter().any(|m| m.endpoint == *seed);
            if !known {
                out.push((None, seed.clone()));
            }
        }
        out
    }
}

/// [`Membership::delivery`]'s verdict for one replica target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver to this endpoint (member met and not known dead).
    Send(String),
    /// Member is `Dead`: skip it, the rejoin handoff covers it.
    SkipDead,
    /// Shard not met yet: the batch is undeliverable for now — retry.
    Unmet,
}

/// Everything needed to run a shard's cluster agent: identity, timing,
/// seed peers, and the replication/rebalance knobs.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// This shard's ring position.
    pub shard_id: u32,
    /// Ring size.
    pub shard_count: u32,
    /// Replication factor R (1 = primary only, no replica traffic).
    pub replication: u32,
    /// Advertised endpoint (what peers and routers dial).
    pub endpoint: String,
    /// Peer endpoints to bootstrap from; one live seed suffices.
    pub seeds: Vec<String>,
    /// Gossip period.
    pub heartbeat: Duration,
    /// Silence before `Suspect`.
    pub suspect_after: Duration,
    /// Silence before `Dead`.
    pub dead_after: Duration,
    /// This shard's store directory — the snapshot handed over on
    /// join/leave rebalance. `None` disables handoff.
    pub cache_dir: Option<PathBuf>,
    /// Bound on queued replication batches (oldest dropped beyond it).
    pub replica_queue_cap: usize,
    /// Send attempts per replication batch before it is dropped.
    pub replica_max_retries: u32,
}

impl AgentConfig {
    /// Defaults: R=2, 250 ms heartbeat, suspect at 1 s, dead at 4 s,
    /// no store directory. The retry budget is sized
    /// so a batch enqueued while membership is still converging (its
    /// replica unmet, so undeliverable) survives several heartbeat
    /// rounds of backoff instead of being dropped.
    pub fn new(shard_id: u32, shard_count: u32, endpoint: String) -> AgentConfig {
        AgentConfig {
            shard_id,
            shard_count,
            replication: 2,
            endpoint,
            seeds: Vec::new(),
            heartbeat: Duration::from_millis(250),
            suspect_after: Duration::from_millis(1_000),
            dead_after: Duration::from_millis(4_000),
            cache_dir: None,
            replica_queue_cap: 1024,
            replica_max_retries: 10,
        }
    }

    /// Rescales the timeout ladder off one heartbeat period: suspect at
    /// 4 beats, dead at 16.
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> AgentConfig {
        self.heartbeat = heartbeat;
        self.suspect_after = heartbeat * 4;
        self.dead_after = heartbeat * 16;
        self
    }
}

/// The running agent: owns the membership state machine and the
/// replicator, implements the server's [`ClusterHook`], and drives the
/// gossip loop.
pub struct ClusterAgent {
    membership: Arc<Membership>,
    replicator: Arc<Replicator>,
    ring: Ring,
    config: AgentConfig,
}

impl ClusterAgent {
    /// Builds the agent and starts its gossip and replication threads.
    /// Both exit shortly after `shutdown` flips. The returned handle
    /// goes into the server via `Server::install_cluster`.
    pub fn spawn(
        config: AgentConfig,
        shutdown: &'static AtomicBool,
    ) -> (ClusterHandle, Vec<JoinHandle<()>>) {
        let ring = Ring::new(config.shard_count);
        let membership = Arc::new(Membership::new(MembershipConfig {
            shard_id: config.shard_id,
            shard_count: config.shard_count,
            replication: config.replication,
            endpoint: config.endpoint.clone(),
            suspect_after: config.suspect_after,
            dead_after: config.dead_after,
        }));
        let replicator = Arc::new(Replicator::new(
            config.shard_id,
            config.replication,
            ring.clone(),
            Arc::clone(&membership),
            config.replica_queue_cap,
            config.replica_max_retries,
        ));
        let agent = Arc::new(ClusterAgent {
            membership,
            replicator: Arc::clone(&replicator),
            ring,
            config,
        });
        let mut handles = Vec::new();
        {
            let agent = Arc::clone(&agent);
            handles.push(
                std::thread::Builder::new()
                    .name("biv-gossip".to_string())
                    .spawn(move || agent.gossip_loop(shutdown))
                    .expect("spawn gossip thread"),
            );
        }
        handles.push(
            std::thread::Builder::new()
                .name("biv-replicate".to_string())
                .spawn(move || replicator.run(shutdown))
                .expect("spawn replication thread"),
        );
        (ClusterHandle::new(agent), handles)
    }

    /// The membership state machine (exposed for in-process tests).
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    fn io_timeout(&self) -> Duration {
        self.config.heartbeat.max(Duration::from_millis(100))
    }

    fn gossip_loop(&self, shutdown: &AtomicBool) {
        loop {
            if shutdown.load(Ordering::SeqCst) {
                // Drain has begun. Broadcast `draining` now — before the
                // server finishes flushing — so routers stop handing us
                // new work; `on_drained` does the snapshot handoff later.
                self.membership.note_draining();
                self.push_view();
                return;
            }
            std::thread::sleep(self.config.heartbeat);
            self.membership.tick(Instant::now());
            for (id, endpoint) in self.membership.gossip_targets(&self.config.seeds) {
                // A lost heartbeat (or a partitioned pair) skips the
                // send; the timeout ladder tolerates several in a row.
                if faults::fire("fleet.heartbeat.lost") || faults::fire("fleet.partition") {
                    continue;
                }
                self.gossip_once(id, &endpoint);
            }
            self.handoff_joins();
        }
    }

    /// One gossip exchange: send our view, merge the peer's reply.
    fn gossip_once(&self, peer: Option<u32>, endpoint: &str) {
        let request = Request::Gossip {
            from: Some(self.config.shard_id),
            view: self.membership.snapshot().to_json(),
        };
        let Ok(mut client) = Client::connect_timeout(&Endpoint::parse(endpoint), self.io_timeout())
        else {
            return;
        };
        if let Ok(Response::Gossip { view } | Response::Members { view }) = client.request(&request)
        {
            if let Ok(view) = View::from_json(&view) {
                self.membership.observe(&view, peer, Instant::now());
            }
        }
    }

    /// Pushes our view to every target once (shutdown/departure path).
    fn push_view(&self) {
        for (id, endpoint) in self.membership.gossip_targets(&self.config.seeds) {
            self.gossip_once(id, &endpoint);
        }
    }

    /// Hands our store snapshot to every shard that just (re)joined on
    /// an arc we cover. Best-effort: the preload only sees what the
    /// donor has flushed to disk, and anything newer reaches the joiner
    /// through normal replication; a missed entry costs a recompute,
    /// never a byte of output.
    fn handoff_joins(&self) {
        let joins = self.membership.take_joins();
        if joins.is_empty() {
            return;
        }
        let Some(dir) = &self.config.cache_dir else {
            return;
        };
        for joined in joins {
            if joined == self.config.shard_id
                || !self
                    .ring
                    .arc_successors(joined)
                    .contains(&self.config.shard_id)
            {
                continue;
            }
            let Some(endpoint) = self.membership.endpoint_of(joined) else {
                continue;
            };
            self.preload_into(&endpoint, dir, "join");
        }
    }

    /// Departure: announce `draining`, then hand our snapshot to the
    /// arc successors that absorb our ranges. Runs after the server has
    /// flushed the store, so the snapshot on disk is complete.
    fn depart(&self) {
        self.membership.note_draining();
        self.push_view();
        let Some(dir) = &self.config.cache_dir else {
            return;
        };
        for successor in self.ring.arc_successors(self.config.shard_id) {
            let Some(endpoint) = self.membership.endpoint_of(successor) else {
                continue;
            };
            self.preload_into(&endpoint, dir, "leave");
        }
    }

    fn preload_into(&self, endpoint: &str, dir: &std::path::Path, why: &str) {
        let request = Request::Preload {
            dir: dir.display().to_string(),
        };
        match Client::connect_timeout(&Endpoint::parse(endpoint), Duration::from_secs(5))
            .and_then(|mut c| c.request(&request))
        {
            Ok(Response::PreloadAck { loaded }) => {
                eprintln!(
                    "bivd: shard {} rebalance ({why}): handed {loaded} entries to {endpoint}",
                    self.config.shard_id
                );
            }
            Ok(_) | Err(_) => {
                eprintln!(
                    "bivd: shard {} rebalance ({why}): handoff to {endpoint} failed (will warm via replication)",
                    self.config.shard_id
                );
            }
        }
    }
}

impl ClusterHook for ClusterAgent {
    fn on_gossip(&self, from: Option<u32>, view: &Json) -> Json {
        if let Ok(view) = View::from_json(view) {
            self.membership.observe(&view, from, Instant::now());
        }
        self.membership.snapshot().to_json()
    }

    fn view(&self) -> Json {
        self.membership.snapshot().to_json()
    }

    fn on_commit(&self, source: &str, entries: &[(u64, Arc<StructuralSummary>)]) {
        if self.config.replication <= 1 || entries.is_empty() {
            return;
        }
        self.replicator.enqueue(content_key(source), entries);
    }

    fn stats_sections(&self) -> Vec<(String, Json)> {
        vec![
            (
                "membership".to_string(),
                self.membership.snapshot().to_json(),
            ),
            ("replication".to_string(), self.replicator.stats_json()),
        ]
    }

    fn on_drained(&self) {
        self.depart();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(shard_id: u32, endpoint: &str) -> MembershipConfig {
        MembershipConfig {
            shard_id,
            shard_count: 3,
            replication: 2,
            endpoint: endpoint.to_string(),
            suspect_after: Duration::from_millis(1_000),
            dead_after: Duration::from_millis(4_000),
        }
    }

    /// One bidirectional gossip exchange between two state machines,
    /// exactly as the wire does it: a sends its view, b merges and
    /// replies, a merges the reply.
    fn exchange(a: &Membership, b: &Membership, now: Instant) {
        let (a_id, b_id) = (a.config.shard_id, b.config.shard_id);
        b.observe(&a.snapshot(), Some(a_id), now);
        a.observe(&b.snapshot(), Some(b_id), now);
    }

    #[test]
    fn view_json_roundtrips() {
        let view = View {
            version: 7,
            shard_count: 3,
            replication: 2,
            members: vec![
                Member {
                    shard_id: 0,
                    endpoint: "tcp:127.0.0.1:4000".into(),
                    incarnation: 10,
                    state: MemberState::Alive,
                },
                Member {
                    shard_id: 2,
                    endpoint: "/tmp/s2.sock".into(),
                    incarnation: 11,
                    state: MemberState::Suspect,
                },
            ],
        };
        assert_eq!(View::from_json(&view.to_json()).unwrap(), view);
    }

    #[test]
    fn one_exchange_teaches_both_sides_the_other() {
        let a = Membership::new(config(0, "ep-a"));
        let b = Membership::new(config(1, "ep-b"));
        exchange(&a, &b, Instant::now());
        assert_eq!(a.snapshot().members.len(), 2);
        assert_eq!(b.snapshot().members.len(), 2);
        assert_eq!(a.endpoint_of(1).as_deref(), Some("ep-b"));
        assert_eq!(b.endpoint_of(0).as_deref(), Some("ep-a"));
    }

    #[test]
    fn one_seed_discovers_the_whole_ring() {
        // c knows only a; a already knows b. One exchange with the seed
        // hands c the full membership — the router bootstrap property.
        let a = Membership::new(config(0, "ep-a"));
        let b = Membership::new(config(1, "ep-b"));
        let c = Membership::new(config(2, "ep-c"));
        let now = Instant::now();
        exchange(&a, &b, now);
        exchange(&c, &a, now);
        let seen = c.snapshot();
        assert_eq!(seen.members.len(), 3);
        assert_eq!(c.endpoint_of(1).as_deref(), Some("ep-b"));
    }

    #[test]
    fn higher_incarnation_wins_and_takes_the_endpoint() {
        let a = Membership::new(config(0, "ep-a"));
        let now = Instant::now();
        let old = View {
            version: 1,
            shard_count: 3,
            replication: 2,
            members: vec![Member {
                shard_id: 1,
                endpoint: "old-ep".into(),
                incarnation: 5,
                state: MemberState::Dead,
            }],
        };
        a.observe(&old, None, now);
        let reborn = View {
            version: 1,
            shard_count: 3,
            replication: 2,
            members: vec![Member {
                shard_id: 1,
                endpoint: "new-ep".into(),
                incarnation: 6,
                state: MemberState::Alive,
            }],
        };
        a.observe(&reborn, None, now);
        let m = a.snapshot().member(1).cloned().unwrap();
        assert_eq!(m.endpoint, "new-ep");
        assert_eq!(m.state, MemberState::Alive);
        // …and the transition was recorded as a join.
        assert_eq!(a.take_joins(), vec![1]);
        assert!(a.take_joins().is_empty(), "joins drain once");
    }

    #[test]
    fn equal_incarnation_resolves_by_rank_not_order() {
        let a = Membership::new(config(0, "ep-a"));
        let now = Instant::now();
        let alive = Member {
            shard_id: 1,
            endpoint: "ep-b".into(),
            incarnation: 9,
            state: MemberState::Alive,
        };
        let suspect = Member {
            state: MemberState::Suspect,
            ..alive.clone()
        };
        let wrap = |m: Member| View {
            version: 1,
            shard_count: 3,
            replication: 2,
            members: vec![m],
        };
        // Suspect-then-alive: the alive claim at the same incarnation
        // does NOT undo suspicion — only a fresher incarnation can.
        a.observe(&wrap(suspect.clone()), None, now);
        a.observe(&wrap(alive.clone()), None, now);
        assert_eq!(a.snapshot().member(1).unwrap().state, MemberState::Suspect);
        // Alive-then-suspect converges to the same answer.
        let b = Membership::new(config(2, "ep-c"));
        b.observe(&wrap(alive), None, now);
        b.observe(&wrap(suspect), None, now);
        assert_eq!(b.snapshot().member(1).unwrap().state, MemberState::Suspect);
    }

    #[test]
    fn a_shard_refutes_reports_of_its_own_death() {
        let a = Membership::new(config(0, "ep-a"));
        let my_inc = a.snapshot().member(0).unwrap().incarnation;
        let slander = View {
            version: 1,
            shard_count: 3,
            replication: 2,
            members: vec![Member {
                shard_id: 0,
                endpoint: "ep-a".into(),
                incarnation: my_inc + 3,
                state: MemberState::Dead,
            }],
        };
        a.observe(&slander, None, Instant::now());
        let me = a.snapshot().member(0).cloned().unwrap();
        assert_eq!(me.state, MemberState::Alive);
        assert!(
            me.incarnation > my_inc + 3,
            "refutation must outrank the accusation"
        );
        // The refutation now wins any merge against the slander.
        let other = Membership::new(config(1, "ep-b"));
        other.observe(&slander, None, Instant::now());
        other.observe(&a.snapshot(), None, Instant::now());
        assert_eq!(
            other.snapshot().member(0).unwrap().state,
            MemberState::Alive
        );
    }

    #[test]
    fn silence_walks_alive_through_suspect_to_dead() {
        let a = Membership::new(config(0, "ep-a"));
        let b = Membership::new(config(1, "ep-b"));
        let t0 = Instant::now();
        exchange(&a, &b, t0);
        assert_eq!(a.snapshot().member(1).unwrap().state, MemberState::Alive);
        // Under the suspect timeout: still alive.
        assert!(!a.tick(t0 + Duration::from_millis(900)));
        // Past it: suspect, but still short of dead.
        assert!(a.tick(t0 + Duration::from_millis(1_100)));
        assert_eq!(a.snapshot().member(1).unwrap().state, MemberState::Suspect);
        // Past the dead timeout: dead.
        assert!(a.tick(t0 + Duration::from_millis(4_100)));
        assert_eq!(a.snapshot().member(1).unwrap().state, MemberState::Dead);
        // A later exchange resurrects it: b sees itself declared dead
        // in a's view, refutes with a bumped incarnation, and the very
        // same exchange carries the refutation back.
        let t1 = t0 + Duration::from_millis(5_000);
        exchange(&a, &b, t1);
        assert_eq!(a.snapshot().member(1).unwrap().state, MemberState::Alive);
        assert_eq!(a.take_joins(), vec![1]);
    }

    #[test]
    fn direct_contact_refreshes_the_liveness_clock() {
        let a = Membership::new(config(0, "ep-a"));
        let b = Membership::new(config(1, "ep-b"));
        let t0 = Instant::now();
        exchange(&a, &b, t0);
        // Keep hearing from b directly: never suspect, however long the
        // wall clock runs.
        for beat in 1..=20u64 {
            let now = t0 + Duration::from_millis(500 * beat);
            a.observe(&b.snapshot(), Some(1), now);
            assert!(!a.tick(now));
        }
        assert_eq!(a.snapshot().member(1).unwrap().state, MemberState::Alive);
    }

    #[test]
    fn draining_propagates_then_times_out_to_dead() {
        let a = Membership::new(config(0, "ep-a"));
        let b = Membership::new(config(1, "ep-b"));
        let t0 = Instant::now();
        exchange(&a, &b, t0);
        b.note_draining();
        assert!(b.snapshot().member(1).is_some());
        a.observe(&b.snapshot(), Some(1), t0);
        assert_eq!(a.snapshot().member(1).unwrap().state, MemberState::Draining);
        // Draining isn't routable but isn't dead yet; silence finishes
        // the job without passing through suspect.
        assert_eq!(a.endpoint_of(1), None);
        a.tick(t0 + Duration::from_millis(4_100));
        assert_eq!(a.snapshot().member(1).unwrap().state, MemberState::Dead);
    }

    #[test]
    fn convergence_within_one_heartbeat_round_after_join() {
        // Three shards, full exchange each round: every view agrees
        // after a single round — the basis for the "converges within the
        // heartbeat timeout" acceptance criterion.
        let shards = [
            Membership::new(config(0, "ep-a")),
            Membership::new(config(1, "ep-b")),
            Membership::new(config(2, "ep-c")),
        ];
        let now = Instant::now();
        for i in 0..shards.len() {
            for j in (i + 1)..shards.len() {
                exchange(&shards[i], &shards[j], now);
            }
        }
        for s in &shards {
            let view = s.snapshot();
            assert_eq!(view.members.len(), 3);
            assert!(view.members.iter().all(|m| m.state == MemberState::Alive));
        }
    }

    #[test]
    fn gossip_targets_cover_unmet_seeds_and_skip_self() {
        let a = Membership::new(config(0, "ep-a"));
        let b = Membership::new(config(1, "ep-b"));
        exchange(&a, &b, Instant::now());
        let seeds = vec!["ep-a".to_string(), "ep-b".to_string(), "ep-z".to_string()];
        let targets = a.gossip_targets(&seeds);
        assert_eq!(
            targets,
            vec![
                (Some(1), "ep-b".to_string()),
                (None, "ep-z".to_string()), // unmet seed still probed
            ]
        );
    }

    #[test]
    fn foreign_shard_ids_cannot_grow_the_ring() {
        let a = Membership::new(config(0, "ep-a"));
        let bogus = View {
            version: 1,
            shard_count: 9,
            replication: 2,
            members: vec![Member {
                shard_id: 7,
                endpoint: "ep-x".into(),
                incarnation: 1,
                state: MemberState::Alive,
            }],
        };
        a.observe(&bogus, None, Instant::now());
        let view = a.snapshot();
        assert_eq!(view.shard_count, 3);
        assert!(view.member(7).is_none());
    }
}
