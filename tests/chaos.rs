//! Chaos suite: a live in-process server under the deterministic
//! `Chaos` fault profile (net EINTR/short ops, worker deaths, injected
//! job panics, queue-full storms, dropped cache commits) must uphold
//! three invariants at a fixed seed:
//!
//! 1. every accepted request is answered (success or structured error —
//!    never dropped, never hung);
//! 2. the cache books stay balanced (`hits + misses == functions`);
//! 3. once a client's retries succeed, the bytes are identical to an
//!    uninjected run.
//!
//! Gated on the `fault-injection` feature: without it these hooks do
//! not exist. The fault plan is process-global, so the two tests are
//! serialized on one mutex.

#![cfg(feature = "fault-injection")]

use std::io::BufRead;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Duration;

use biv::server::{Client, Endpoint, Json, Request, Response, Server, ServerConfig};

static GATE: Mutex<()> = Mutex::new(());

const SOURCES: [(&str, &str); 3] = [
    (
        "mem/quad.biv",
        "func f(n) { j = 1 L14: for i = 1 to n { j = j + i A[j] = i } }\n",
    ),
    (
        "mem/fig1.biv",
        "func fig1(n, c, k) { j = n L7: loop { i = j + c j = i + k A[j] = A[i] + 1 if j > 1000 { break } } }\n",
    ),
    (
        "mem/pair.biv",
        "func g(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\nfunc h(m) { s = 0 L2: for t = 1 to m { s = s + 2 A[s] = t } }\n",
    ),
];

fn files() -> Vec<biv::server::AnalyzeFile> {
    SOURCES
        .iter()
        .map(|(path, source)| biv::server::AnalyzeFile {
            path: (*path).into(),
            source: (*source).into(),
        })
        .collect()
}

fn spawn_server(workers: usize) -> (String, std::thread::JoinHandle<()>) {
    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
    config.workers = workers;
    let server = Server::bind(config).expect("bind 127.0.0.1:0");
    let endpoint = server.bound_endpoint();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("server run");
    });
    (endpoint, handle)
}

/// Submits one analyze request, riding out injected busy storms and
/// internal errors with bounded retries; returns the successful output.
fn analyze_with_retries(client: &mut Client, attempt_cap: usize) -> String {
    for _ in 0..attempt_cap {
        let response = client
            .request(&Request::Analyze {
                files: files(),
                cache_cap: None,
                invariants: false,
            })
            .expect("transport stays usable under injection");
        match response {
            Response::Analyze { output, errors, .. } => {
                assert!(errors.is_empty(), "unexpected per-file errors: {errors:?}");
                return output;
            }
            Response::Busy { retry_after_ms } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(20)));
            }
            Response::Error { kind, message } => {
                assert!(
                    kind == "internal" || kind == "timeout",
                    "unexpected error kind {kind}: {message}"
                );
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    panic!("no success within {attempt_cap} attempts");
}

fn stat(stats: &Json, path: &[&str]) -> i64 {
    path.iter()
        .try_fold(stats, |node, key| node.get(key))
        .and_then(|v| v.as_i64())
        .unwrap_or_else(|| panic!("stats missing {path:?} in {}", stats.to_text()))
}

#[test]
fn chaos_profile_upholds_the_serving_invariants() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();
    let (endpoint, handle) = spawn_server(2);
    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");

    // The reference bytes come from the same server before any fault
    // is armed.
    let reference = analyze_with_retries(&mut client, 1);

    biv_faults::install(42, biv_faults::Profile::Chaos);
    for round in 0..30 {
        let output = analyze_with_retries(&mut client, 100);
        assert_eq!(
            output, reference,
            "round {round}: retries must converge to the uninjected bytes"
        );
    }
    let fired = biv_faults::total_fired();
    biv_faults::uninstall();
    assert!(fired > 0, "the chaos plan never fired — the suite is inert");

    // Recovery: with the plan gone the very next request is clean.
    assert_eq!(analyze_with_retries(&mut client, 1), reference);

    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected stats");
    };
    // Invariant 1: every accepted request was answered — as a report or
    // as a structured internal error — and none timed out or leaked.
    let accepted = stat(&stats, &["requests", "analyze_accepted"]);
    let ok = stat(&stats, &["requests", "analyze_ok"]);
    let panics = stat(&stats, &["requests", "worker_panics"]);
    assert_eq!(
        accepted,
        ok + panics,
        "accepted requests must all be answered: {accepted} accepted, {ok} ok, {panics} panicked"
    );
    assert_eq!(stat(&stats, &["requests", "timeouts"]), 0);
    assert_eq!(stat(&stats, &["requests", "late_results"]), 0);
    // Invariant 2: the cache books balance exactly under injection
    // (dropped commits cost retention, never accounting).
    assert_eq!(
        stat(&stats, &["cache", "hits"]) + stat(&stats, &["cache", "misses"]),
        stat(&stats, &["requests", "functions"])
    );

    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShutdownAck
    );
    handle.join().expect("clean drain under chaos");
}

/// One real `bivd` process, a shard of a 3-shard fleet, armed with the
/// `fleet` fault profile (epoll EINTR + spurious wakes on its event
/// loop). Returns the child and its resolved endpoint.
fn spawn_shard_process(shard: u32) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bivd"))
        .args([
            "--tcp",
            "127.0.0.1:0",
            "--fleet",
            &format!("shard={shard}/3"),
            "--workers",
            "1",
            "--faults",
            "seed=42,profile=fleet",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn bivd");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let banner = lines
        .next()
        .expect("bivd prints a listening line")
        .expect("readable stderr");
    let endpoint = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unparsable bivd banner: {banner}"))
        .to_string();
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, endpoint)
}

/// Distinct sources so the batch spreads across the whole ring.
fn fleet_corpus(n: usize) -> Vec<biv::server::AnalyzeFile> {
    (0..n)
        .map(|i| biv::server::AnalyzeFile {
            path: format!("mem/fleet{i}.biv"),
            source: format!(
                "func w{i}(n) {{ j = {i} L1: for i = 1 to n {{ j = j + i A[j] = i + {i} }} }}\n"
            ),
        })
        .collect()
}

/// What a local `bivc` batch run prints for `files` — the bytes the
/// fleet must reproduce regardless of faults and shard deaths.
fn local_reference(files: &[biv::server::AnalyzeFile]) -> String {
    use biv::core_analysis::{
        analyze_batch_with_backend, cold_batch_stats, render_grouped_with, BatchOptions,
        StructuralCache,
    };
    let mut funcs = Vec::new();
    let mut ranges = Vec::new();
    for f in files {
        let program = biv::ir::parser::parse_program(&f.source).expect("corpus parses");
        ranges.push((f.path.clone(), program.functions.len()));
        funcs.extend(program.functions);
    }
    let opts = BatchOptions::default();
    let mut cache = StructuralCache::new(opts.cache_capacity);
    let report = analyze_batch_with_backend(&funcs, &opts, &mut cache);
    let hashes: Vec<u64> = report.functions.iter().map(|f| f.hash).collect();
    let cold = cold_batch_stats(&hashes, opts.cache_capacity);
    render_grouped_with(&ranges, &report.functions, &cold, false)
}

#[test]
fn sigkilled_shard_mid_batch_reroutes_without_changing_bytes() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();

    let shards: Vec<(std::process::Child, String)> = (0..3).map(spawn_shard_process).collect();
    let endpoints: Vec<String> = shards.iter().map(|(_, e)| e.clone()).collect();
    let files = fleet_corpus(24);
    let reference = local_reference(&files);

    // The router side also runs under the fleet profile, so dials
    // occasionally fail as if shards were dead — every such event must
    // be absorbed by re-routing to a successor without touching the bytes.
    biv_faults::install(42, biv_faults::Profile::Fleet);
    let mut router =
        biv::fleet::Router::new(biv::fleet::FleetConfig::new(endpoints.clone())).expect("router");

    // Batch 1: whole fleet up (modulo injected dial failures).
    let report = router.analyze(files.clone()).expect("fleet batch 1");
    assert_eq!(report.output, reference, "fleet must match local bytes");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // SIGKILL shard 1 while a larger batch is in flight: whichever
    // round the death lands in, every file must still be answered —
    // served by a successor after re-routing — and the reassembled
    // bytes must not change.
    let big = fleet_corpus(48);
    let big_reference = local_reference(&big);
    let victim = shards[1].0.id();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        // SAFETY-free process kill via the std API is unavailable for a
        // pid we only have numerically on another thread, so shell out.
        let _ = std::process::Command::new("kill")
            .args(["-9", &victim.to_string()])
            .status();
    });
    let report = router.analyze(big.clone()).expect("fleet batch 2");
    killer.join().unwrap();
    assert_eq!(
        report.output, big_reference,
        "mid-batch shard death must not change the reassembled bytes"
    );
    assert!(
        report.errors.is_empty(),
        "every file answered or re-routed, none failed: {:?}",
        report.errors
    );

    // Batch 3: the kill has certainly landed by now; the router must
    // observe the dead shard and still produce identical bytes.
    let report = router.analyze(files.clone()).expect("fleet batch 3");
    assert_eq!(report.output, reference);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.dead_shards.contains(&1),
        "the SIGKILLed shard must be observed dead, saw {:?}",
        report.dead_shards
    );
    biv_faults::uninstall();

    // Drain the survivors; reap the victim.
    for (i, (mut child, endpoint)) in shards.into_iter().enumerate() {
        if i == 1 {
            let _ = child.wait();
            continue;
        }
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
        assert_eq!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::ShutdownAck
        );
        let status = child.wait().expect("shard exits");
        assert!(status.success(), "shard {i} drained cleanly");
    }
}

/// One real `bivd` process running the full cluster agent: shard K of
/// `count`, R-way replication, fast heartbeats, a persistent store, and
/// the `fleet` fault profile (lost heartbeats, partitions, replica
/// lag). Returns the child and its resolved endpoint.
fn spawn_member_shard_process(
    shard: u32,
    count: u32,
    peers: &str,
    cache_dir: &std::path::Path,
) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bivd"))
        .args([
            "--tcp",
            "127.0.0.1:0",
            "--fleet",
            &format!("shard={shard}/{count}"),
            "--workers",
            "1",
            "--peers",
            peers,
            "--replicas",
            "2",
            "--heartbeat-ms",
            "50",
            "--cache-dir",
            &cache_dir.to_string_lossy(),
            "--faults",
            "seed=42,profile=fleet",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn member bivd");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = std::io::BufRead::lines(std::io::BufReader::new(stderr));
    let banner = lines
        .next()
        .expect("bivd prints a listening line")
        .expect("readable stderr");
    let endpoint = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unparsable bivd banner: {banner}"))
        .to_string();
    std::thread::spawn(move || for _ in lines {});
    (child, endpoint)
}

/// One shard's membership view, if it answers within half a second.
fn fetch_view(endpoint: &str) -> Option<biv::fleet::View> {
    let mut client =
        Client::connect_timeout(&Endpoint::parse(endpoint), Duration::from_millis(500)).ok()?;
    match client.request(&Request::Members).ok()? {
        Response::Members { view } | Response::Gossip { view } => {
            biv::fleet::View::from_json(&view).ok()
        }
        _ => None,
    }
}

/// Polls one seed until its view shows `want` alive members (gossip
/// convergence after joins/rejoins), panicking past the deadline.
fn await_alive(seed: &str, want: usize, deadline: Duration) -> biv::fleet::View {
    let until = std::time::Instant::now() + deadline;
    loop {
        if let Some(view) = fetch_view(seed) {
            let alive = view
                .members
                .iter()
                .filter(|m| m.state.as_str() == "alive")
                .count();
            if alive == want {
                return view;
            }
        }
        assert!(
            std::time::Instant::now() < until,
            "membership did not converge to {want} alive member(s) via {seed} within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Polls until the R-way write-through of the last batch has fully
/// landed: every shard's queue is empty **and** at least
/// `expect_entries` summaries were actually received by replicas
/// fleet-wide. (`replication_lag == 0` alone is not enough — a batch
/// popped from the queue can still be in flight on the sender thread.)
fn await_replication_settled(endpoints: &[String], expect_entries: i64, deadline: Duration) {
    let until = std::time::Instant::now() + deadline;
    loop {
        let mut lag = 0i64;
        let mut received = 0i64;
        let mut dropped = 0i64;
        let mut all_answered = true;
        for endpoint in endpoints {
            let Some(stats) =
                Client::connect_timeout(&Endpoint::parse(endpoint), Duration::from_millis(500))
                    .ok()
                    .and_then(|mut c| c.request(&Request::Stats).ok())
                    .and_then(|r| match r {
                        Response::Stats(stats) => Some(stats),
                        _ => None,
                    })
            else {
                all_answered = false;
                break;
            };
            lag += stat(&stats, &["replication", "replication_lag"]);
            received += stat(&stats, &["requests", "replica_received"]);
            dropped += stat(&stats, &["replication", "dropped"]);
        }
        if all_answered && lag == 0 && received >= expect_entries {
            assert_eq!(
                dropped, 0,
                "no replication batch may be dropped in this test"
            );
            return;
        }
        assert!(
            std::time::Instant::now() < until,
            "replication did not settle within {deadline:?} (lag {lag}, received {received} of {expect_entries})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// R=2 warm failover: three member shards gossip into one ring, a batch
/// replicates every committed summary to its ring successor, the
/// primary of part of the keyspace is SIGKILLed — and the re-run batch
/// is served **entirely warm** (zero recomputes) from the replicas,
/// byte-identical, with zero per-file errors.
#[test]
fn sigkilled_primary_is_served_warm_from_its_replica() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();

    let tmp = std::env::temp_dir().join(format!("biv_warm_failover_{}", std::process::id()));
    let dirs: Vec<std::path::PathBuf> = (0..3).map(|i| tmp.join(format!("shard{i}"))).collect();
    for dir in &dirs {
        std::fs::create_dir_all(dir).expect("mk cache dir");
    }

    // Shard 0 boots seedless; 1 and 2 bootstrap from it.
    let (child0, ep0) = spawn_member_shard_process(0, 3, "none", &dirs[0]);
    let (child1, ep1) = spawn_member_shard_process(1, 3, &ep0, &dirs[1]);
    let (child2, ep2) = spawn_member_shard_process(2, 3, &ep0, &dirs[2]);
    let mut shards = vec![(child0, ep0.clone()), (child1, ep1), (child2, ep2)];
    await_alive(&ep0, 3, Duration::from_secs(10));

    // The router bootstraps the whole ring from the one seed.
    let files = fleet_corpus(24);
    let reference = local_reference(&files);
    let mut router =
        biv::fleet::Router::new(biv::fleet::FleetConfig::new(vec![ep0.clone()])).expect("router");
    let report = router.analyze(files.clone()).expect("fleet batch 1");
    assert_eq!(report.output, reference, "fleet must match local bytes");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // Every committed summary must land on its replica before the kill
    // — 24 single-function files, R=2, so exactly one replica copy each.
    let endpoints: Vec<String> = shards.iter().map(|(_, e)| e.clone()).collect();
    await_replication_settled(&endpoints, files.len() as i64, Duration::from_secs(10));

    // SIGKILL shard 1 — no drain, no snapshot flush, no goodbye.
    let victim = shards[1].0.id();
    let _ = std::process::Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status();
    let _ = shards[1].0.wait();

    // Re-run the same batch through a fresh router (bootstrapped from
    // the surviving seed): shard 1's keys fail over to their replicas,
    // which already hold the summaries — nothing is recomputed.
    let mut router =
        biv::fleet::Router::new(biv::fleet::FleetConfig::new(vec![ep0.clone()])).expect("router");
    let report = router.analyze(files.clone()).expect("fleet batch 2");
    assert_eq!(
        report.output, reference,
        "failover to replicas must not change the bytes"
    );
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(
        report.analyzed, 0,
        "the replicas must serve the dead primary's keys warm (saw {} recomputes)",
        report.analyzed
    );

    for (i, (mut child, endpoint)) in shards.into_iter().enumerate() {
        if i == 1 {
            continue; // already reaped
        }
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
        assert_eq!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::ShutdownAck
        );
        let status = child.wait().expect("shard exits");
        assert!(status.success(), "shard {i} drained cleanly");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Rolling restart: each member shard in turn is SIGTERMed and
/// relaunched at a **new port** with the same identity; incarnation
/// bumping reclaims its ring slot, gossip teaches the survivors the new
/// endpoint, and every batch in between is byte-identical with zero
/// per-file errors — no operator action, no router reconfiguration
/// beyond re-probing one live seed.
#[test]
fn rolling_restart_of_every_shard_keeps_the_bytes_identical() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();

    let tmp = std::env::temp_dir().join(format!("biv_rolling_restart_{}", std::process::id()));
    let dirs: Vec<std::path::PathBuf> = (0..3).map(|i| tmp.join(format!("shard{i}"))).collect();
    for dir in &dirs {
        std::fs::create_dir_all(dir).expect("mk cache dir");
    }

    let (child0, ep0) = spawn_member_shard_process(0, 3, "none", &dirs[0]);
    let (child1, ep1) = spawn_member_shard_process(1, 3, &ep0, &dirs[1]);
    let (child2, ep2) = spawn_member_shard_process(2, 3, &ep0, &dirs[2]);
    let mut shards = vec![(child0, ep0), (child1, ep1), (child2, ep2)];
    await_alive(&shards[0].1, 3, Duration::from_secs(10));

    let files = fleet_corpus(24);
    let reference = local_reference(&files);
    let batch = |seed: &str| -> biv::fleet::FleetReport {
        let mut router =
            biv::fleet::Router::new(biv::fleet::FleetConfig::new(vec![seed.to_string()]))
                .expect("router");
        router.analyze(files.clone()).expect("fleet batch")
    };

    let report = batch(&shards[0].1);
    assert_eq!(report.output, reference);
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    for k in 0..3usize {
        // SIGTERM shard k: it drains, flushes its store, and announces
        // its departure.
        let pid = shards[k].0.id();
        let _ = std::process::Command::new("kill")
            .args(["-15", &pid.to_string()])
            .status();
        let status = shards[k].0.wait().expect("shard exits");
        assert!(status.success(), "shard {k} drained cleanly on SIGTERM");

        // Relaunch it with the same identity and store but a fresh
        // port, seeded from a surviving peer.
        let seed = shards[(k + 1) % 3].1.clone();
        let (child, endpoint) = spawn_member_shard_process(k as u32, 3, &seed, &dirs[k]);
        shards[k] = (child, endpoint);

        // The ring heals: all three alive again, the rejoined shard at
        // its new endpoint.
        let view = await_alive(&seed, 3, Duration::from_secs(10));
        let member = view.member(k as u32).expect("rejoined shard in view");
        assert_eq!(
            member.endpoint, shards[k].1,
            "gossip must carry the restarted shard's new endpoint"
        );

        // A batch right after each restart: identical bytes, no errors,
        // routed off one live seed with no operator involvement.
        let report = batch(&seed);
        assert_eq!(
            report.output, reference,
            "restart of shard {k} must not change the bytes"
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    for (i, (mut child, endpoint)) in shards.into_iter().enumerate() {
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
        assert_eq!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::ShutdownAck
        );
        let status = child.wait().expect("shard exits");
        assert!(status.success(), "shard {i} drained cleanly");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn killed_workers_are_respawned_and_their_requests_answered() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();
    let (endpoint, handle) = spawn_server(2);
    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
    let reference = analyze_with_retries(&mut client, 1);

    // The Worker profile fires `worker.job.panic` on 1/4 of jobs and
    // kills the whole worker thread on ~1/10 — the fixed seed makes the
    // firing schedule reproducible, so the loop below always terminates
    // at the same round.
    biv_faults::install(7, biv_faults::Profile::Worker);
    let mut seen = (0i64, 0i64);
    for _ in 0..200 {
        let output = analyze_with_retries(&mut client, 100);
        assert_eq!(output, reference);
        let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
            panic!("expected stats");
        };
        seen = (
            stat(&stats, &["requests", "worker_panics"]),
            stat(&stats, &["requests", "workers_respawned"]),
        );
        if seen.0 >= 1 && seen.1 >= 1 {
            break;
        }
    }
    biv_faults::uninstall();
    assert!(
        seen.0 >= 1 && seen.1 >= 1,
        "expected at least one worker panic and one respawn, saw {seen:?}"
    );

    // The pool is whole again: a clean request succeeds first try.
    assert_eq!(analyze_with_retries(&mut client, 1), reference);
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShutdownAck
    );
    handle.join().expect("clean drain after worker deaths");
}
