//! The fleet router: fans one analyze batch out across N shards and
//! reassembles the responses **byte-identically** to a single local
//! `bivc` run.
//!
//! ```text
//!              ┌──────── shard 0 ──────── analyze reply ┐
//!  files ──┬──▶│                                        ├──▶ input-order
//!          │   ├──────── shard 1 ──────── analyze reply ┤    blocks +
//!          │   │                                        │    cold stats
//!          └──▶└──────── shard 2 ──────── analyze reply ┘    line
//! ```
//!
//! **One op.** Each group is a plain `analyze` request. The reply's
//! `files` give each file's block span in `output` and its structural
//! hashes; the router cuts the blocks out with checked slicing and
//! ignores the shard's own stats line, replaying one cold over the
//! whole batch instead. A reply whose spans do not fit its `output` or
//! its `errors` refuses its group — it never panics the router.
//!
//! **Bootstrap.** [`Router::new`] asks the configured endpoints, in
//! order, for their membership views (`members` frame) and merges them:
//! the first view fixes the ring size N and the replication factor R, a
//! later view that disagrees on N is skipped with a note, and for each
//! shard the first record seen wins. Probing stops once every shard
//! `0..N` has a record, so a complete view from a cluster agent
//! bootstraps the whole ring from one seed. A server without an agent
//! answers with a one-member view of itself (R = N); the router dials
//! such a shard at the seed address it was given, so an agent-less
//! fleet is reachable at exactly the endpoints listed, in any order.
//!
//! **Rounds.** Routing is by content key ([`crate::ring::content_key`])
//! over the consistent-hash [`Ring`], so identical sources always land
//! on the shard whose structural cache already holds their summaries.
//! The fan-out runs in rounds: every pending file is grouped by the
//! first live shard of its R-replica set, groups go out concurrently
//! (one connection per group), and a group whose shard is unreachable,
//! dies mid-exchange, or is draining marks that shard dead and comes
//! back pending for the next round. Re-routing is scoped to each key's
//! replica set (the R successors that replication writes to, see
//! [`crate::replicate`]): a SIGKILLed primary's files are served warm
//! by a replica, and a file whose **entire** replica set is dead fails
//! as a file (`no live replica`) while the rest of the batch completes
//! byte-identically. Every round that leaves files pending has marked
//! another shard dead, so a batch settles within N + 1 rounds.
//!
//! Per-shard busy rejections are absorbed with the exact client
//! backoff policy: every group goes out through
//! [`Client::analyze_with`], the one busy-backoff loop (10 retries,
//! 30 s of cumulative sleep). A group that exhausts it is refused and
//! counted in [`FleetReport::backoff_exhausted`] (and the process-wide
//! ledger, [`biv_server::client::backoff_exhausted`]).

use std::collections::BTreeMap;
use std::time::Duration;

use biv_core::cold_batch_stats;
use biv_server::net::Endpoint;
use biv_server::{AnalyzeFile, Client, FileBlock, FileError, Request, Response};

use crate::faults;
use crate::membership::{MemberState, View};
use crate::ring::{content_key, Ring};

/// How long one membership probe (connect + `members` exchange) may
/// take before the router tries the next seed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// The largest ring a membership view may describe.
const MAX_SHARDS: u32 = 65_536;

/// How the router talks to its fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Seed endpoints (`tcp:HOST:PORT` or a Unix socket path), probed
    /// in order for membership views. One live member of an
    /// agent-running fleet bootstraps the whole ring; an agent-less
    /// fleet is reachable at the shards listed here, in any order.
    pub endpoints: Vec<String>,
    /// Cold-replay cache capacity for the stats line, exactly as
    /// `bivc --cache-cap` passes it. `None` means the default.
    pub cache_cap: Option<usize>,
    /// Render verified per-loop invariants in each shard's per-file
    /// blocks, exactly as `bivc --invariants` does locally. Shards
    /// always *compute* invariants (they live in the cached summaries);
    /// this flag only selects the rendering, so warm and cold fleet
    /// runs stay byte-identical for either setting.
    pub invariants: bool,
}

impl FleetConfig {
    /// A config for `endpoints`: the default cold-replay capacity, no
    /// invariant lines. Busy shards are retried by the client's own
    /// backoff ([`Client::analyze_with`]), which has no knob here.
    pub fn new(endpoints: Vec<String>) -> FleetConfig {
        FleetConfig {
            endpoints,
            cache_cap: None,
            invariants: false,
        }
    }
}

/// The reassembled result of one fleet batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// The batch report — byte-identical to a local `bivc` run over the
    /// same readable, parsable files (failed files excepted, listed in
    /// `errors`).
    pub output: String,
    /// Functions analyzed or served from shard caches.
    pub functions: usize,
    /// Distinct structures actually analyzed across the fleet.
    pub analyzed: usize,
    /// Functions served from warm shard caches.
    pub cached: usize,
    /// Per-file failures: parse errors from shards, plus files the
    /// router could not place anywhere.
    pub errors: Vec<FileError>,
    /// Group submissions that ran out of busy-backoff budget.
    pub backoff_exhausted: u64,
    /// Shards found dead (unreachable or draining) during the batch.
    pub dead_shards: Vec<u32>,
    /// Human-readable routing events for the caller's stderr — shard
    /// deaths and why, plus (on a router's first batch) what bootstrap
    /// skipped; never part of `output`.
    pub notes: Vec<String>,
}

/// One file's share of a served group: its rendered `══ path ══`
/// block and its functions' structural hashes, or (`Err`) the shard's
/// message for a file that failed to parse.
type FileResult = Result<(String, Vec<u64>), String>;

/// What one per-shard group submission came back with.
#[derive(Debug)]
enum GroupOutcome {
    /// The shard served the group: per-file results in request order.
    Served {
        files: Vec<FileResult>,
        functions: usize,
        analyzed: usize,
        cached: usize,
    },
    /// The shard is unreachable, died mid-exchange, or is draining:
    /// mark it dead and re-route its files.
    Dead(String),
    /// The shard answered but unusably (busy past the backoff budget —
    /// `exhausted` — a protocol violation, a refusal): the group's
    /// files fail, the batch goes on.
    Refused { reason: String, exhausted: bool },
}

/// A connected fleet router.
#[derive(Debug)]
pub struct Router {
    config: FleetConfig,
    ring: Ring,
    /// `endpoints[k]` = where shard `k` listens, for every shard
    /// bootstrap found routable (`None`: no record, or recorded dead).
    /// Each batch starts from these and marks further deaths as it
    /// finds them.
    endpoints: Vec<Option<String>>,
    /// Replication factor R: failover is scoped to each key's R-replica
    /// set — only those shards received the key's summaries.
    replication: u32,
    /// Bootstrap notes not yet handed to a caller; they ride in the
    /// next batch's [`FleetReport::notes`].
    notes: Vec<String>,
}

impl Router {
    /// Builds a router by merging the membership views of
    /// `config.endpoints` (see the module docs).
    ///
    /// # Errors
    /// With an empty endpoint list, or `fleet unavailable: …` when no
    /// seed answers with a usable view.
    pub fn new(config: FleetConfig) -> Result<Router, String> {
        if config.endpoints.is_empty() {
            return Err("a fleet needs at least one endpoint".into());
        }
        let (view, notes) = bootstrap(&config.endpoints)?;
        Ok(Router::from_view(config, &view, notes))
    }

    /// Builds the router for a merged view: ring size, endpoints,
    /// liveness, and R all come from it.
    fn from_view(config: FleetConfig, view: &View, mut notes: Vec<String>) -> Router {
        let n = view.shard_count;
        let mut endpoints: Vec<Option<String>> = vec![None; n as usize];
        for m in &view.members {
            // Anything short of Dead is still worth one dial: a
            // Suspect may well be alive, and a Draining record can be
            // a stale rumor about a shard that has already restarted.
            // If the dial fails the first group finds out and
            // re-routes; only a settled Dead verdict skips upfront.
            if m.state != MemberState::Dead {
                endpoints[m.shard_id as usize] = Some(m.endpoint.clone());
            }
        }
        for k in 0..n {
            if view.member(k).is_none() {
                notes.push(format!("shard {k}: no seed reported it; routing around it"));
            }
        }
        Router {
            config,
            ring: Ring::new(n),
            endpoints,
            replication: view.replication.clamp(1, n),
            notes,
        }
    }

    /// The fleet size this router routes against.
    pub fn shard_count(&self) -> u32 {
        self.ring.shard_count()
    }

    /// The replication factor R that scopes failover (the whole ring,
    /// R = N, for a fleet without cluster agents).
    pub fn replica_scope(&self) -> u32 {
        self.replication
    }

    /// Analyzes `files` across the fleet. The returned
    /// [`FleetReport::output`] is byte-identical to a local `bivc`
    /// batch run over the same files; per-file failures (parse errors,
    /// files no live shard — or no live replica — could take) are
    /// reported in [`FleetReport::errors`] without disturbing the rest.
    ///
    /// # Errors
    /// Only when *nothing* can be served because every shard is dead.
    /// Per-file trouble never fails the batch.
    pub fn analyze(&mut self, files: Vec<AnalyzeFile>) -> Result<FleetReport, String> {
        let n = self.shard_count();
        let keys: Vec<u64> = files.iter().map(|f| content_key(&f.source)).collect();
        // Input-order result slots: a served block, or the file's
        // error message — a shard's parse error, or a routing failure
        // prefixed with the path by `fail`.
        let mut slots: Vec<Option<FileResult>> = vec![None; files.len()];
        let fail = |i: usize, reason: &str| Some(Err(format!("{}: {reason}", files[i].path)));
        let mut alive: Vec<bool> = self.endpoints.iter().map(Option::is_some).collect();
        let mut dead_shards: Vec<u32> = Vec::new();
        let mut notes: Vec<String> = std::mem::take(&mut self.notes);
        let (mut functions, mut analyzed, mut cached) = (0usize, 0usize, 0usize);
        let mut backoff_exhausted = 0u64;
        let mut pending: Vec<usize> = (0..files.len()).collect();

        // Files re-route only off a shard found dead this round, and a
        // round's groups go to distinct live shards, so each round that
        // leaves files pending kills at least one more shard: after at
        // most N such rounds, one more settles everything.
        for _round in 0..=n {
            if pending.is_empty() {
                break;
            }
            // Group this round's files by the first live shard of their
            // replica set. BTreeMap keeps the fan-out order
            // deterministic.
            let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for index in pending.drain(..) {
                match self
                    .ring
                    .route_replica(keys[index], &alive, self.replication)
                {
                    Some(shard) => groups.entry(shard).or_default().push(index),
                    None if alive.contains(&true) => {
                        slots[index] = fail(
                            index,
                            "no live replica: this file's primary and every replica are dead",
                        );
                    }
                    None => {
                        slots[index] = fail(
                            index,
                            &format!("no live shard left in the fleet ({n} configured, all dead)"),
                        );
                    }
                }
            }

            // Fan the groups out, one connection per shard group.
            let round: Vec<(u32, Vec<usize>, GroupOutcome)> = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|(shard, members)| {
                        let endpoint = self.endpoints[shard as usize]
                            .clone()
                            .expect("only shards with endpoints start alive");
                        let payload: Vec<AnalyzeFile> =
                            members.iter().map(|&i| files[i].clone()).collect();
                        let config = &self.config;
                        let handle =
                            scope.spawn(move || submit_group(&endpoint, shard, payload, config));
                        (shard, members, handle)
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(shard, members, handle)| {
                        let outcome = handle.join().unwrap_or_else(|_| GroupOutcome::Refused {
                            reason: "router worker panicked".into(),
                            exhausted: false,
                        });
                        (shard, members, outcome)
                    })
                    .collect()
            });

            for (shard, members, outcome) in round {
                match outcome {
                    GroupOutcome::Served {
                        files: results,
                        functions: f,
                        analyzed: a,
                        cached: c,
                    } => {
                        functions += f;
                        analyzed += a;
                        cached += c;
                        for (&i, result) in members.iter().zip(results) {
                            slots[i] = Some(result);
                        }
                    }
                    GroupOutcome::Dead(reason) => {
                        alive[shard as usize] = false;
                        dead_shards.push(shard);
                        notes.push(format!(
                            "shard {shard} marked dead, re-routing its files: {reason}"
                        ));
                        pending.extend(members);
                    }
                    GroupOutcome::Refused { reason, exhausted } => {
                        backoff_exhausted += u64::from(exhausted);
                        for &i in &members {
                            slots[i] = fail(i, &reason);
                        }
                    }
                }
            }
        }

        // Reassemble in input order: blocks from OK files, hashes in
        // render order, then the cold stats line over the whole batch —
        // exactly what `render_grouped_with` prints locally.
        let mut output = String::new();
        let mut hashes: Vec<u64> = Vec::new();
        let mut errors: Vec<FileError> = Vec::new();
        for (file, slot) in files.iter().zip(slots) {
            match slot {
                Some(Ok((block, block_hashes))) => {
                    output.push_str(&block);
                    hashes.extend(block_hashes);
                }
                Some(Err(message)) => errors.push(FileError {
                    path: file.path.clone(),
                    message,
                }),
                None => errors.push(FileError {
                    path: file.path.clone(),
                    message: format!("{}: never routed (router bug)", file.path),
                }),
            }
        }

        // Nothing served and every failure was fleet-wide: surface that
        // as a batch error rather than N copies of the same message.
        if !files.is_empty()
            && functions == 0
            && errors.len() == files.len()
            && errors.iter().all(|e| e.message.contains("no live shard"))
        {
            return Err(format!("fleet unavailable: {}", errors[0].message));
        }

        let replay_cap = self
            .config
            .cache_cap
            .unwrap_or_else(|| biv_core::BatchOptions::default().cache_capacity);
        let stats = cold_batch_stats(&hashes, replay_cap);
        output.push_str(&stats.render());
        output.push('\n');

        Ok(FleetReport {
            output,
            functions,
            analyzed,
            cached,
            errors,
            backoff_exhausted,
            dead_shards,
            notes,
        })
    }
}

/// Probes `seeds` in order and merges their membership views, returning
/// the merged view and notes on what was skipped (see the module docs
/// for the rules).
///
/// # Errors
/// `fleet unavailable: …` when no seed answers with a usable view.
fn bootstrap(seeds: &[String]) -> Result<(View, Vec<String>), String> {
    let mut merged: Option<View> = None;
    let mut notes = Vec::new();
    let mut last_error = String::new();
    for seed in seeds {
        let view = match probe(seed) {
            Ok(view) => view,
            Err(e) => {
                last_error = e;
                continue;
            }
        };
        let n = view.shard_count;
        let merged = merged.get_or_insert_with(|| View {
            version: view.version,
            shard_count: n,
            replication: view.replication,
            members: Vec::new(),
        });
        if n != merged.shard_count {
            notes.push(format!(
                "seed {seed} describes a fleet of {n} shards, not {}; skipped",
                merged.shard_count
            ));
            continue;
        }
        // A one-member view is the answering server describing itself:
        // dial it where the operator said it is.
        let from_itself = view.members.len() == 1;
        for mut m in view.members {
            if m.shard_id >= n {
                notes.push(format!(
                    "seed {seed} names shard {} of {n}; skipped",
                    m.shard_id
                ));
            } else if merged.member(m.shard_id).is_none() {
                if from_itself {
                    m.endpoint = seed.clone();
                }
                merged.members.push(m);
            }
        }
        if merged.members.len() == n as usize {
            break;
        }
    }
    match merged {
        Some(view) => Ok((view, notes)),
        None => Err(format!(
            "fleet unavailable: no seed answered a membership probe (last: {last_error})"
        )),
    }
}

/// One seed's membership view, if it answers with a usable one.
fn probe(seed: &str) -> Result<View, String> {
    let endpoint = Endpoint::parse(seed);
    let mut client = Client::connect_timeout(&endpoint, PROBE_TIMEOUT)
        .map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
    let view = match client.request(&Request::Members) {
        Ok(Response::Members { view }) => View::from_json(&view)
            .map_err(|e| format!("{endpoint} sent an unreadable view: {e}"))?,
        Ok(other) => return Err(format!("{endpoint} answered out of protocol: {other:?}")),
        Err(e) => return Err(format!("{endpoint}: {e}")),
    };
    if view.shard_count == 0 || view.shard_count > MAX_SHARDS {
        return Err(format!(
            "{endpoint} describes a fleet of {} shards",
            view.shard_count
        ));
    }
    Ok(view)
}

/// Sends one shard group through the client's busy backoff and
/// classifies the exchange.
fn submit_group(
    endpoint: &str,
    shard: u32,
    payload: Vec<AnalyzeFile>,
    config: &FleetConfig,
) -> GroupOutcome {
    if faults::fire("fleet.shard.unreachable") {
        return GroupOutcome::Dead("fault injected: shard unreachable".into());
    }
    let endpoint = Endpoint::parse(endpoint);
    let count = payload.len();
    let reply = match Client::connect(&endpoint) {
        Ok(mut client) => client
            .analyze_with(payload, config.cache_cap, config.invariants)
            .map_err(|e| format!("shard {shard} at {endpoint}: {e}")),
        Err(e) => Err(format!("cannot connect to {endpoint}: {e}")),
    };
    group_outcome(shard, count, reply)
}

/// What a group of `count` files comes to, given the shard's reply
/// after backoff (`Err`: the exchange itself failed).
fn group_outcome(shard: u32, count: usize, reply: Result<Response, String>) -> GroupOutcome {
    let refused = |reason: String| GroupOutcome::Refused {
        reason,
        exhausted: false,
    };
    match reply {
        Ok(Response::Analyze {
            output,
            functions,
            analyzed,
            cached,
            errors,
            files,
        }) => match split_reply(&output, files, errors, count) {
            Ok(files) => GroupOutcome::Served {
                files,
                functions,
                analyzed,
                cached,
            },
            Err(e) => refused(format!("shard {shard} sent an inconsistent reply: {e}")),
        },
        Ok(Response::Busy { retry_after_ms }) => GroupOutcome::Refused {
            reason: format!(
                "shard {shard} saturated (busy past the backoff budget; \
                 last hint {retry_after_ms} ms)"
            ),
            exhausted: true,
        },
        Ok(Response::Error { kind, message }) if kind == "draining" => {
            GroupOutcome::Dead(format!("shard {shard} is draining: {message}"))
        }
        Ok(Response::Error { kind, message }) => {
            refused(format!("shard {shard} refused ({kind}): {message}"))
        }
        Ok(other) => refused(format!("shard {shard} answered out of protocol: {other:?}")),
        Err(e) => GroupOutcome::Dead(e),
    }
}

/// Cuts an analyze reply for `count` request files into per-file
/// results, in request order. Each parsed file's block is the next
/// `bytes` of `output`; a file with `bytes: 0` failed to parse and takes
/// the next `errors` entry. Whatever follows the last block — the
/// shard's own stats line — is ignored.
///
/// # Errors
/// When the reply does not describe `count` files consistently: a span
/// that runs past `output` or ends inside a character, or failed files
/// and `errors` entries that do not pair up.
fn split_reply(
    output: &str,
    files: Vec<FileBlock>,
    errors: Vec<FileError>,
    count: usize,
) -> Result<Vec<FileResult>, String> {
    if files.len() != count {
        return Err(format!("{} file blocks for {count} files", files.len()));
    }
    let mut errors = errors.into_iter();
    let mut at = 0usize;
    let mut results = Vec::with_capacity(count);
    for FileBlock { bytes, hashes } in files {
        if bytes == 0 {
            let error = errors.next().ok_or("more failed files than errors")?;
            results.push(Err(error.message));
            continue;
        }
        let block = at
            .checked_add(bytes)
            .and_then(|end| output.get(at..end))
            .ok_or_else(|| format!("a {bytes}-byte block at {at} does not fit the output"))?;
        results.push(Ok((block.to_string(), hashes)));
        at += bytes;
    }
    if errors.next().is_some() {
        return Err("more errors than failed files".into());
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{AgentConfig, ClusterAgent, Member};
    use biv_server::server::{Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    const SRC_A: &str = "func f(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\n";
    const SRC_B: &str = "func g(n) { L1: for i = 1 to n { B[i] = 2 * i } }\n";

    fn spawn_shard(
        shard_id: u32,
        shard_count: u32,
    ) -> (String, std::thread::JoinHandle<()>, &'static AtomicBool) {
        let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
        config.workers = 1;
        config.shard_id = shard_id;
        config.shard_count = shard_count;
        let server = Server::bind(config).expect("bind 127.0.0.1:0");
        let endpoint = server.bound_endpoint();
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let handle = std::thread::spawn(move || {
            server.run(flag).expect("shard run");
        });
        (endpoint, handle, flag)
    }

    /// A shard with a membership agent attached: gossips to `seeds`,
    /// answers `members`, replicates with R=2.
    fn spawn_member_shard(
        shard_id: u32,
        shard_count: u32,
        seeds: Vec<String>,
    ) -> (String, std::thread::JoinHandle<()>, &'static AtomicBool) {
        let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
        config.workers = 1;
        config.shard_id = shard_id;
        config.shard_count = shard_count;
        let mut server = Server::bind(config).expect("bind 127.0.0.1:0");
        let endpoint = server.bound_endpoint();
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let mut agent = AgentConfig::new(shard_id, shard_count, endpoint.clone())
            .with_heartbeat(std::time::Duration::from_millis(50));
        agent.seeds = seeds;
        let (hook, _threads) = ClusterAgent::spawn(agent, flag);
        server.install_cluster(hook);
        let handle = std::thread::spawn(move || {
            server.run(flag).expect("shard run");
        });
        (endpoint, handle, flag)
    }

    /// What a local `bivc` batch run prints for `files` — the bytes the
    /// router must reproduce.
    fn local_output(files: &[AnalyzeFile], cap: usize) -> String {
        local_output_with(files, cap, false)
    }

    fn local_output_with(files: &[AnalyzeFile], cap: usize, invariants: bool) -> String {
        use biv_core::{
            analyze_batch_with_backend, render_grouped_with, BatchOptions, StructuralCache,
        };
        let mut funcs = Vec::new();
        let mut ranges = Vec::new();
        for f in files {
            let program = biv_ir::parser::parse_program(&f.source).unwrap();
            ranges.push((f.path.clone(), program.functions.len()));
            funcs.extend(program.functions);
        }
        let opts = BatchOptions {
            cache_capacity: cap,
            ..BatchOptions::default()
        };
        let report = analyze_batch_with_backend(&funcs, &opts, &mut StructuralCache::new(cap));
        let hashes: Vec<u64> = report.functions.iter().map(|f| f.hash).collect();
        let cold = cold_batch_stats(&hashes, cap);
        render_grouped_with(&ranges, &report.functions, &cold, invariants)
    }

    /// A TCP endpoint that refuses connections: bind, read the port,
    /// drop the listener.
    fn refused_endpoint() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        format!("tcp:{addr}")
    }

    fn stop(shards: Vec<(String, std::thread::JoinHandle<()>, &'static AtomicBool)>) {
        for (_, handle, flag) in shards {
            flag.store(true, Ordering::SeqCst);
            handle.join().unwrap();
        }
    }

    #[test]
    fn three_shard_fleet_matches_local_bytes() {
        let shards: Vec<_> = (0..3).map(|k| spawn_shard(k, 3)).collect();
        let endpoints: Vec<String> = shards.iter().map(|(e, _, _)| e.clone()).collect();
        let files: Vec<AnalyzeFile> = (0..6)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: if i % 2 == 0 { SRC_A } else { SRC_B }.to_string(),
            })
            .collect();

        let mut config = FleetConfig::new(endpoints);
        config.cache_cap = Some(4);
        let mut router = Router::new(config).unwrap();
        assert_eq!(
            router.replica_scope(),
            3,
            "agent-less fleet: R is the whole ring"
        );
        let report = router.analyze(files.clone()).unwrap();

        assert_eq!(report.output, local_output(&files, 4));
        assert_eq!(report.functions, 6);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.dead_shards.is_empty());
        stop(shards);
    }

    #[test]
    fn three_shard_fleet_invariants_match_local_bytes_warm_and_cold() {
        // Invariant-bearing running-sum loops, spread over 3 shards,
        // rendered with the invariants flag: the reassembled bytes must
        // match a local `--invariants` run on the cold pass AND on a
        // warm repeat (shards serve the second pass from their caches,
        // so the invariant lines must round-trip through the summary).
        let shards: Vec<_> = (0..3).map(|k| spawn_shard(k, 3)).collect();
        let endpoints: Vec<String> = shards.iter().map(|(e, _, _)| e.clone()).collect();
        let files: Vec<AnalyzeFile> = (0..6)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: format!(
                    "func sums{i}(n) {{ i = 1 s = 0 loop {{ s = s + i i = i + 1 \
                     if i > n {{ break }} }} }}\n"
                ),
            })
            .collect();

        let mut config = FleetConfig::new(endpoints);
        config.invariants = true;
        let mut router = Router::new(config).unwrap();
        let want = local_output_with(&files, 4096, true);
        assert!(
            want.contains("invariant: "),
            "the planted loops must actually carry invariants:\n{want}"
        );

        let cold = router.analyze(files.clone()).unwrap();
        assert!(cold.errors.is_empty(), "{:?}", cold.errors);
        assert_eq!(cold.output, want, "cold fleet bytes");

        let warm = router.analyze(files.clone()).unwrap();
        assert!(warm.errors.is_empty(), "{:?}", warm.errors);
        assert_eq!(warm.output, want, "warm fleet bytes");
        assert!(warm.cached > 0, "second pass must hit shard caches");
        stop(shards);
    }

    #[test]
    fn reversed_endpoints_match_local_bytes_and_stay_warm() {
        let shards: Vec<_> = (0..3).map(|k| spawn_shard(k, 3)).collect();
        // Endpoints listed in reverse: shards 0 and 2 sit at each
        // other's positions. Each shard's own view places it, so the
        // list order must not matter.
        let endpoints: Vec<String> = shards.iter().rev().map(|(e, _, _)| e.clone()).collect();
        let files: Vec<AnalyzeFile> = (0..8)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: format!("func f{i}(n) {{ L1: for i = 1 to n {{ A[i] = {i} }} }}\n"),
            })
            .collect();

        let mut router = Router::new(FleetConfig::new(endpoints)).unwrap();
        assert_eq!(router.shard_count(), 3);
        let cold = router.analyze(files.clone()).unwrap();
        assert!(cold.errors.is_empty(), "{:?}", cold.errors);
        assert_eq!(cold.output, local_output(&files, 4096));

        // Every file went to the shard that owns its key, so a second
        // batch is served entirely from shard caches.
        let warm = router.analyze(files.clone()).unwrap();
        assert_eq!(warm.output, cold.output);
        assert_eq!(warm.cached, warm.functions, "warm batch fully cached");
        assert_eq!(warm.analyzed, 0);
        stop(shards);
    }

    #[test]
    fn dead_shard_fails_over_to_successors() {
        // Shard 1's endpoint refuses connections; its files must land
        // on ring successors, and the output must still match a local
        // run exactly.
        let s0 = spawn_shard(0, 3);
        let s2 = spawn_shard(2, 3);
        let endpoints = vec![s0.0.clone(), refused_endpoint(), s2.0.clone()];
        let files: Vec<AnalyzeFile> = (0..8)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: format!("func h{i}(n) {{ L1: for i = 1 to n {{ A[i] = i + {i} }} }}\n"),
            })
            .collect();

        let mut router = Router::new(FleetConfig::new(endpoints)).unwrap();
        let report = router.analyze(files.clone()).unwrap();

        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.output, local_output(&files, 4096));
        // No seed answered for shard 1, so bootstrap left it out of the
        // ring and said so.
        assert!(
            report.notes.iter().any(|n| n.contains("shard 1: no seed")),
            "{:?}",
            report.notes
        );
        stop(vec![s0, s2]);
    }

    #[test]
    fn parse_errors_fail_the_file_not_the_batch() {
        let shard = spawn_shard(0, 1);
        let files = vec![
            AnalyzeFile {
                path: "good.biv".into(),
                source: SRC_A.to_string(),
            },
            AnalyzeFile {
                path: "bad.biv".into(),
                source: "func broken(".to_string(),
            },
        ];
        let mut router = Router::new(FleetConfig::new(vec![shard.0.clone()])).unwrap();
        let report = router.analyze(files).unwrap();
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].message.contains("parse error"));
        assert!(report.output.contains("══ good.biv ══"));
        assert!(!report.output.contains("bad.biv"));
        stop(vec![shard]);
    }

    #[test]
    fn all_shards_dead_is_a_batch_error() {
        let err = Router::new(FleetConfig::new(vec![refused_endpoint()])).unwrap_err();
        assert!(err.contains("fleet unavailable"), "{err}");
    }

    #[test]
    fn a_batch_settles_within_shard_count_plus_one_rounds() {
        // Three shards the view calls alive, none of them listening.
        // One file visits its replica set in ring order: each round
        // finds one more shard dead, and round N + 1 finds none left.
        // A loop one round shorter would leave the file unrouted
        // instead of failing the batch as fleet-wide.
        let view = View {
            version: 1,
            shard_count: 3,
            replication: 3,
            members: (0..3)
                .map(|shard_id| Member {
                    shard_id,
                    endpoint: refused_endpoint(),
                    incarnation: 0,
                    state: MemberState::Alive,
                })
                .collect(),
        };
        let mut router = Router::from_view(FleetConfig::new(Vec::new()), &view, Vec::new());
        let err = router
            .analyze(vec![AnalyzeFile {
                path: "x.biv".into(),
                source: SRC_A.to_string(),
            }])
            .unwrap_err();
        assert!(
            err.contains("fleet unavailable") && err.contains("no live shard"),
            "{err}"
        );
    }

    #[test]
    fn empty_batch_renders_the_zero_stats_line() {
        let shard = spawn_shard(0, 1);
        let mut router = Router::new(FleetConfig::new(vec![shard.0.clone()])).unwrap();
        let report = router.analyze(Vec::new()).unwrap();
        assert_eq!(
            report.output,
            "batch: 0 functions, 0 analyzed, 0 cache hits, 0 evictions\n"
        );
        stop(vec![shard]);
    }

    #[test]
    fn one_seed_bootstraps_the_whole_ring() {
        // Three membership shards; the router is told about only the
        // first. It must learn the other two endpoints from the view
        // and produce byte-identical output.
        let s0 = spawn_member_shard(0, 3, Vec::new());
        let s1 = spawn_member_shard(1, 3, vec![s0.0.clone()]);
        let s2 = spawn_member_shard(2, 3, vec![s0.0.clone()]);

        // Wait for the seed's view to converge on all three members.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let view = probe(&s0.0);
            let alive = view
                .as_ref()
                .map(|v| {
                    v.members
                        .iter()
                        .filter(|m| m.state == MemberState::Alive)
                        .count()
                })
                .unwrap_or(0);
            if alive == 3 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "membership never converged: {view:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(25));
        }

        let files: Vec<AnalyzeFile> = (0..6)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: format!("func s{i}(n) {{ L1: for i = 1 to n {{ A[i] = i + {i} }} }}\n"),
            })
            .collect();
        let mut router = Router::new(FleetConfig::new(vec![s0.0.clone()])).unwrap();
        assert_eq!(router.shard_count(), 3, "ring learned from the view");
        assert_eq!(router.replica_scope(), 2, "R rides in the view");
        let report = router.analyze(files.clone()).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.output, local_output(&files, 4096));
        stop(vec![s0, s1, s2]);
    }

    #[test]
    fn double_failure_with_r2_fails_those_files_and_serves_the_rest() {
        // Five shards, R=2. One file's entire replica set (primary +
        // replica) is dead: that file must fail with a per-file error
        // while every other file is served byte-identically — replica
        // scoping must NOT walk past the replica set to a shard that
        // never received the key's summaries.
        let n = 5u32;
        let ring = Ring::new(n);
        let doomed = AnalyzeFile {
            path: "doomed.biv".into(),
            source: SRC_A.to_string(),
        };
        let dead = ring.successors(content_key(&doomed.source), 2);
        assert_eq!(dead.len(), 2);

        // Find a companion source whose replica set avoids both dead
        // shards — it must survive the double failure untouched.
        let mut survivor = None;
        for i in 0.. {
            let candidate = AnalyzeFile {
                path: "ok.biv".into(),
                source: format!("func ok{i}(n) {{ L1: for i = 1 to n {{ B[i] = {i} }} }}\n"),
            };
            let set = ring.successors(content_key(&candidate.source), 2);
            if !set.iter().any(|s| dead.contains(s)) {
                survivor = Some(candidate);
                break;
            }
        }
        let survivor = survivor.unwrap();

        // Live shards get real servers; the dead pair gets refusing
        // endpoints marked dead in the view.
        let mut shards = Vec::new();
        let mut members = Vec::new();
        for id in 0..n {
            if dead.contains(&id) {
                members.push(Member {
                    shard_id: id,
                    endpoint: refused_endpoint(),
                    incarnation: 1,
                    state: MemberState::Dead,
                });
            } else {
                let s = spawn_shard(id, n);
                members.push(Member {
                    shard_id: id,
                    endpoint: s.0.clone(),
                    incarnation: 1,
                    state: MemberState::Alive,
                });
                shards.push(s);
            }
        }
        let view = View {
            version: 1,
            shard_count: n,
            replication: 2,
            members,
        };
        let seeds: Vec<String> = shards.iter().map(|(e, _, _)| e.clone()).collect();
        let mut router = Router::from_view(FleetConfig::new(seeds), &view, Vec::new());

        let files = vec![doomed.clone(), survivor.clone()];
        let report = router.analyze(files).unwrap();

        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(
            report.errors[0].message.contains("no live replica"),
            "{:?}",
            report.errors
        );
        assert_eq!(report.errors[0].path, "doomed.biv");
        // The survivor's bytes are exactly a local run over it alone.
        assert_eq!(
            report.output,
            local_output(std::slice::from_ref(&survivor), 4096)
        );
        stop(shards);
    }

    fn block(bytes: usize) -> FileBlock {
        FileBlock {
            bytes,
            hashes: Vec::new(),
        }
    }

    fn parse_error(path: &str) -> FileError {
        FileError {
            path: path.into(),
            message: format!("{path}: parse error: expected `(`"),
        }
    }

    #[test]
    fn split_reply_cuts_blocks_and_pairs_failed_files_with_errors() {
        let (a, c) = ("══ a.biv ══\nfunc f [01]\n", "══ c.biv ══\n");
        let output = format!("{a}{c}batch: 1 functions, 1 analyzed, 0 cache hits, 0 evictions\n");
        let files = vec![
            FileBlock {
                bytes: a.len(),
                hashes: vec![1],
            },
            block(0),
            block(c.len()),
        ];
        let got = split_reply(&output, files, vec![parse_error("b.biv")], 3).unwrap();
        assert_eq!(
            got,
            vec![
                Ok((a.to_string(), vec![1])),
                Err("b.biv: parse error: expected `(`".to_string()),
                Ok((c.to_string(), Vec::new())),
            ]
        );
    }

    #[test]
    fn split_reply_refuses_inconsistent_replies_without_panicking() {
        // `═` is three bytes in UTF-8.
        let output = "══ a.biv ══\nbatch: 0 functions\n";
        let len = output.len();
        let cases: [(&str, Vec<FileBlock>, Vec<FileError>, usize); 7] = [
            ("past the end", vec![block(len + 1)], vec![], 1),
            ("overflowing", vec![block(3), block(usize::MAX)], vec![], 2),
            ("inside the first `═`", vec![block(1)], vec![], 1),
            ("inside the second `═`", vec![block(5)], vec![], 1),
            (
                "more failed files than errors",
                vec![block(0), block(0)],
                vec![parse_error("x.biv")],
                2,
            ),
            (
                "more errors than failed files",
                vec![block(len)],
                vec![parse_error("x.biv")],
                1,
            ),
            ("too few blocks", vec![], vec![], 1),
        ];
        for (what, files, errors, count) in cases {
            assert!(split_reply(output, files, errors, count).is_err(), "{what}");
        }
    }

    #[test]
    fn replies_map_to_group_outcomes() {
        let outcome = |reply| group_outcome(2, 1, reply);
        let busy = outcome(Ok(Response::Busy { retry_after_ms: 40 }));
        assert!(
            matches!(&busy, GroupOutcome::Refused { reason, exhausted: true }
                if reason.contains("saturated")),
            "{busy:?}"
        );
        let draining = outcome(Ok(Response::Error {
            kind: "draining".into(),
            message: "shutting down".into(),
        }));
        assert!(matches!(draining, GroupOutcome::Dead(_)), "{draining:?}");
        assert!(matches!(
            outcome(Err("connection reset".into())),
            GroupOutcome::Dead(_)
        ));
        for reply in [
            Response::Error {
                kind: "timeout".into(),
                message: "request exceeded 30s".into(),
            },
            Response::Error {
                kind: "bad-request".into(),
                message: "unknown op `analyze_v0`".into(),
            },
            Response::Pong,
            // An analyze reply with no file blocks (a shard from
            // before them) cannot be split.
            Response::Analyze {
                output: "══ x.biv ══\nbatch: 0 functions\n".into(),
                functions: 0,
                analyzed: 0,
                cached: 0,
                errors: Vec::new(),
                files: Vec::new(),
            },
        ] {
            let got = outcome(Ok(reply));
            assert!(
                matches!(
                    got,
                    GroupOutcome::Refused {
                        exhausted: false,
                        ..
                    }
                ),
                "{got:?}"
            );
        }
        let served = outcome(Ok(Response::Analyze {
            output: "══ x.biv ══\nbatch: 0 functions\n".into(),
            functions: 0,
            analyzed: 0,
            cached: 0,
            errors: Vec::new(),
            files: vec![block("══ x.biv ══\n".len())],
        }));
        assert!(
            matches!(&served, GroupOutcome::Served { files, .. } if files.len() == 1),
            "{served:?}"
        );
    }

    #[test]
    fn a_busy_shard_refuses_its_group_after_backoff_and_counts_once() {
        // A shard that answers every analyze `busy` with a zero hint:
        // the client's backoff gives up after its ten retries (a few ms
        // of floored sleeps), and the batch reports one exhaustion.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = format!("tcp:{}", listener.local_addr().unwrap());
        let shard = std::thread::spawn(move || {
            use biv_server::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
            let (mut stream, _) = listener.accept().unwrap();
            let busy = Response::Busy { retry_after_ms: 0 }.encode();
            while let Ok(Some(_)) = read_frame(&mut stream, MAX_FRAME_BYTES) {
                write_frame(&mut stream, &busy).unwrap();
            }
        });
        let view = View {
            version: 1,
            shard_count: 1,
            replication: 1,
            members: vec![Member {
                shard_id: 0,
                endpoint,
                incarnation: 0,
                state: MemberState::Alive,
            }],
        };
        let mut router = Router::from_view(FleetConfig::new(Vec::new()), &view, Vec::new());
        let before = biv_server::client::backoff_exhausted();
        let report = router
            .analyze(vec![AnalyzeFile {
                path: "x.biv".into(),
                source: SRC_A.to_string(),
            }])
            .unwrap();
        assert_eq!(report.backoff_exhausted, 1);
        assert!(biv_server::client::backoff_exhausted() > before);
        assert!(report.dead_shards.is_empty(), "busy is not dead");
        assert_eq!(report.errors.len(), 1);
        assert!(
            report.errors[0]
                .message
                .starts_with("x.biv: shard 0 saturated"),
            "{:?}",
            report.errors
        );
        assert_eq!(
            report.output,
            "batch: 0 functions, 0 analyzed, 0 cache hits, 0 evictions\n"
        );
        shard.join().unwrap();
    }
}
