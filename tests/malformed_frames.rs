//! Malformed-frame corpus: a live server fed truncated prefixes,
//! oversize lengths, invalid UTF-8, deeply nested JSON, and binary
//! garbage must answer each with a protocol error or a clean close —
//! and must never panic or stop serving well-formed clients.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use biv::fleet::{FleetConfig, Router, View};
use biv::server::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use biv::server::{AnalyzeFile, Client, Endpoint, Request, Response, Server, ServerConfig};

/// An in-process server on a loopback port; returns the dial address
/// and the join handle (resolved by a `shutdown` request).
fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
    config.workers = 1;
    // Small cap so the oversize probe is cheap.
    config.max_frame_bytes = 1 << 20;
    let server = Server::bind(config).expect("bind 127.0.0.1:0");
    let endpoint = server.bound_endpoint();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("server run");
    });
    (endpoint, handle)
}

fn dial(endpoint: &str) -> TcpStream {
    let addr = endpoint.strip_prefix("tcp:").expect("tcp endpoint");
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn
}

/// Expects either a framed `Response::Error` or a clean close — the two
/// legal outcomes for garbage input.
fn error_or_close(conn: &mut TcpStream, what: &str) {
    match read_frame(conn, MAX_FRAME_BYTES) {
        Ok(Some(payload)) => {
            let response = Response::decode(&payload)
                .unwrap_or_else(|e| panic!("{what}: undecodable response: {e}"));
            let Response::Error { kind, .. } = response else {
                panic!("{what}: expected an error response, got {response:?}");
            };
            assert_eq!(kind, "bad-request", "{what}");
        }
        Ok(None) => {} // clean close
        Err(e) => {
            // A reset after the server aborts the connection is as
            // acceptable as a clean FIN; a timeout (hang) is not.
            assert_ne!(
                e.kind(),
                std::io::ErrorKind::WouldBlock,
                "{what}: server hung instead of answering or closing"
            );
        }
    }
}

/// The server survived: a fresh well-formed client still gets served.
fn assert_alive(endpoint: &str) {
    let mut client = Client::connect(&Endpoint::parse(endpoint)).expect("reconnect");
    assert_eq!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    );
}

/// A fake shard: accepts connections and answers every frame with
/// `reply(frame_payload)` bytes written raw (so tests can send
/// well-formed responses, wrong responses, or truncated garbage).
/// Stops when the returned flag is set and the port is poked.
fn spawn_fake_shard(
    reply: fn(&[u8]) -> Vec<u8>,
) -> (
    String,
    std::sync::Arc<AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    use std::sync::atomic::Ordering;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let endpoint = format!("tcp:{}", listener.local_addr().unwrap());
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let handle = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            let Ok(mut conn) = conn else { continue };
            // One exchange per connection, then close: a truncated
            // reply followed by a held-open socket would hang a client
            // with no read timeout, and the router treats EOF as the
            // shard's answer ending — which is exactly the failure
            // these tests inject.
            if let Ok(Some(payload)) = read_frame(&mut conn, MAX_FRAME_BYTES) {
                let _ = conn.write_all(&reply(&payload));
            }
        }
    });
    (endpoint, stop, handle)
}

/// Frames `response` exactly as a well-behaved server would.
fn framed(response: &Response) -> Vec<u8> {
    let payload = response.encode();
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(&payload);
    out
}

fn stop_fake(endpoint: &str, stop: &AtomicBool, handle: std::thread::JoinHandle<()>) {
    use std::sync::atomic::Ordering;
    stop.store(true, Ordering::SeqCst);
    // Poke the accept loop awake so it observes the flag.
    let _ = TcpStream::connect(endpoint.strip_prefix("tcp:").unwrap());
    handle.join().unwrap();
}

/// Fleet malformed frames, case 1 — truncated stats reply: the
/// aggregator must mark that shard unreachable and still aggregate the
/// healthy one, never hang or fail the whole poll.
#[test]
fn truncated_shard_stats_reply_fails_the_shard_not_the_aggregate() {
    let (real_endpoint, real_handle) = spawn_server();
    // Promise 64 payload bytes, deliver 5, close.
    let (fake_endpoint, stop, fake_handle) = spawn_fake_shard(|_| {
        let mut out = 64u32.to_be_bytes().to_vec();
        out.extend_from_slice(b"trunc");
        out
    });

    let stats = biv::fleet::fleet_stats(&[real_endpoint.clone(), fake_endpoint.clone()])
        .expect("one healthy shard is enough to aggregate");
    let fleet = stats.get("fleet").expect("fleet section");
    assert_eq!(fleet.get("shards").unwrap().as_i64(), Some(2));
    assert_eq!(fleet.get("reachable").unwrap().as_i64(), Some(1));
    let unreachable = fleet.get("unreachable").unwrap();
    assert_eq!(unreachable.as_arr().map(<[_]>::len), Some(1));

    stop_fake(&fake_endpoint, &stop, fake_handle);
    let mut client = Client::connect(&Endpoint::parse(&real_endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    real_handle.join().expect("clean drain");
}

/// A real `bivd` shard `shard_id/shard_count` with no cluster agent.
fn spawn_shard(shard_id: u32, shard_count: u32) -> (String, std::thread::JoinHandle<()>) {
    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
    config.workers = 1;
    config.shard_id = shard_id;
    config.shard_count = shard_count;
    let server = Server::bind(config).expect("bind");
    let endpoint = server.bound_endpoint();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("server run");
    });
    (endpoint, handle)
}

fn stop_shard(endpoint: &str, handle: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(&Endpoint::parse(endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("clean drain");
}

/// A fake seed that answers every frame — `members` and analyze alike —
/// with `view`, so the batch fails loudly if the router ever dials it
/// for work.
fn fake_seed(view: View) -> Vec<u8> {
    framed(&Response::Members {
        view: view.to_json(),
    })
}

/// Runs a fleet batch bootstrapped from `seeds` and checks it is served
/// whole and byte-identical to a local run; returns the report.
fn served_batch(seeds: Vec<String>, tag: &str) -> biv::fleet::FleetReport {
    use biv::core_analysis::{
        analyze_batch_with_backend, cold_batch_stats, render_grouped_with, BatchOptions,
        StructuralCache,
    };
    let files: Vec<AnalyzeFile> = (0..12)
        .map(|i| AnalyzeFile {
            path: format!("mem/{i}.biv"),
            source: format!("func {tag}{i}(n) {{ L1: for i = 1 to n {{ A[i] = {i} }} }}\n"),
        })
        .collect();
    let mut funcs = Vec::new();
    let mut ranges = Vec::new();
    for f in &files {
        let program = biv::ir::parser::parse_program(&f.source).expect("parses");
        ranges.push((f.path.clone(), program.functions.len()));
        funcs.extend(program.functions);
    }
    let opts = BatchOptions::default();
    let mut cache = StructuralCache::new(opts.cache_capacity);
    let local = analyze_batch_with_backend(&funcs, &opts, &mut cache);
    let hashes: Vec<u64> = local.functions.iter().map(|f| f.hash).collect();
    let reference = render_grouped_with(
        &ranges,
        &local.functions,
        &cold_batch_stats(&hashes, opts.cache_capacity),
        false,
    );

    let mut router = Router::new(FleetConfig::new(seeds)).expect("router");
    assert_eq!(router.shard_count(), 2);
    let report = router.analyze(files).expect("batch completes");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.output, reference, "fleet bytes must match local");
    report
}

/// Fleet malformed frames, case 2 — a seed whose view disagrees on the
/// fleet size: the first view fixed N, so the seed is skipped with a
/// note and never dialed for work.
#[test]
fn seed_with_a_disagreeing_shard_count_is_skipped_with_a_note() {
    let (ep0, h0) = spawn_shard(0, 2);
    let (ep1, h1) = spawn_shard(1, 2);
    let (fake, stop, fake_handle) =
        spawn_fake_shard(|_| fake_seed(View::single(0, 3, "tcp:127.0.0.1:1".into())));

    let report = served_batch(vec![ep0.clone(), fake.clone(), ep1.clone()], "d");
    assert!(
        report
            .notes
            .iter()
            .any(|n| n.contains(&fake) && n.contains("3 shards, not 2")),
        "{:?}",
        report.notes
    );

    stop_fake(&fake, &stop, fake_handle);
    stop_shard(&ep0, h0);
    stop_shard(&ep1, h1);
}

/// Fleet malformed frames, case 3 — a seed claiming a shard id outside
/// the ring: the record is skipped with a note, and the shard it left
/// unfilled is routed around (its keys fail over to shard 0).
#[test]
fn out_of_range_member_ids_are_skipped() {
    let (ep0, h0) = spawn_shard(0, 2);
    let (fake, stop, fake_handle) =
        spawn_fake_shard(|_| fake_seed(View::single(9, 2, "tcp:127.0.0.1:1".into())));

    let report = served_batch(vec![ep0.clone(), fake.clone()], "o");
    for want in ["names shard 9 of 2", "shard 1: no seed"] {
        assert!(
            report.notes.iter().any(|n| n.contains(want)),
            "missing note `{want}`: {:?}",
            report.notes
        );
    }

    stop_fake(&fake, &stop, fake_handle);
    stop_shard(&ep0, h0);
}

/// Fleet malformed frames, case 4 — a second seed claiming a shard id
/// already recorded: the first record wins, so the impostor is never
/// dialed for work.
#[test]
fn second_claim_to_a_shard_id_loses_to_the_first() {
    let (ep0, h0) = spawn_shard(0, 2);
    let (ep1, h1) = spawn_shard(1, 2);
    let (fake, stop, fake_handle) =
        spawn_fake_shard(|_| fake_seed(View::single(0, 2, "tcp:127.0.0.1:1".into())));

    let report = served_batch(vec![ep0.clone(), fake.clone(), ep1.clone()], "s");
    assert!(report.dead_shards.is_empty(), "{:?}", report.dead_shards);

    stop_fake(&fake, &stop, fake_handle);
    stop_shard(&ep0, h0);
    stop_shard(&ep1, h1);
}

/// Fleet malformed frames, case 5 — a shard whose analyze reply is a
/// truncated frame: the router treats the broken exchange as a shard
/// death and re-routes to the healthy shard, so every file is still
/// served and the bytes stay correct.
#[test]
fn truncated_analyze_reply_reroutes_to_the_healthy_shard() {
    let (real_endpoint, real_handle) = spawn_shard(0, 2);
    // The fake joins the ring as shard 1 through its `members` answer,
    // then truncates every analyze reply.
    let (fake_endpoint, stop, fake_handle) = spawn_fake_shard(|payload| {
        if Request::decode(payload) == Ok(Request::Members) {
            return fake_seed(View::single(1, 2, "tcp:127.0.0.1:1".into()));
        }
        let mut out = 1000u32.to_be_bytes().to_vec();
        out.extend_from_slice(b"{\"ok\":true,\"op\":\"analyze_fl");
        out
    });

    let report = served_batch(vec![real_endpoint.clone(), fake_endpoint.clone()], "t");
    assert_eq!(report.functions, 12, "every file served");
    assert!(
        report.dead_shards.contains(&1),
        "the truncating shard must be marked dead, saw {:?}",
        report.dead_shards
    );

    stop_fake(&fake_endpoint, &stop, fake_handle);
    stop_shard(&real_endpoint, real_handle);
}

/// Fleet malformed frames, case 6 — truncated and oversized `preload`
/// and `gossip` frames against a live server: each must end in a
/// protocol error or a clean close, and the daemon must keep serving.
#[test]
fn malformed_preload_and_gossip_frames_never_kill_the_server() {
    let (endpoint, handle) = spawn_server();

    // 1. Truncated preload: the prefix promises the whole request, the
    //    sender FINs halfway through the payload.
    {
        let mut conn = dial(&endpoint);
        let payload = Request::Preload {
            dir: "/nonexistent/snapshot".into(),
        }
        .encode();
        conn.write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        conn.write_all(&payload[..payload.len() / 2]).unwrap();
        drop(conn);
    }
    assert_alive(&endpoint);

    // 2. Oversized preload: a length prefix beyond the server's frame
    //    cap (1 MiB here) must close the connection before allocation.
    {
        let mut conn = dial(&endpoint);
        conn.write_all(&(8u32 << 20).to_be_bytes()).unwrap();
        conn.write_all(br#"{"op":"preload","dir":"/x"}"#).unwrap();
        let mut buf = [0u8; 16];
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "oversize preload should close the connection");
    }
    assert_alive(&endpoint);

    // 3. Truncated gossip: FIN mid-heartbeat.
    {
        let mut conn = dial(&endpoint);
        let heartbeat = br#"{"op":"gossip","from":0,"view":{"version":1,"members":[]}}"#;
        conn.write_all(&(heartbeat.len() as u32).to_be_bytes())
            .unwrap();
        conn.write_all(&heartbeat[..heartbeat.len() / 2]).unwrap();
        drop(conn);
    }
    assert_alive(&endpoint);

    // 4. Gossip whose view is not an object at all.
    {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, br#"{"op":"gossip","view":42}"#).unwrap();
        error_or_close(&mut conn, "gossip with a non-object view");
    }
    assert_alive(&endpoint);

    // 5. Gossip without a members array inside the view.
    {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, br#"{"op":"gossip","view":{"version":9}}"#).unwrap();
        error_or_close(&mut conn, "gossip without members");
    }
    assert_alive(&endpoint);

    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("clean drain");
}

/// Fleet malformed frames, case 7 — well-formed gossip frames carrying
/// garbage member records against a server *with* a membership agent:
/// the agent must ignore what it cannot parse (including shard ids
/// outside the ring), answer its own well-formed view, and keep its
/// membership intact.
#[test]
fn garbage_gossip_members_cannot_poison_a_live_agent() {
    use biv::fleet::{AgentConfig, ClusterAgent};

    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()));
    config.workers = 1;
    let mut server = Server::bind(config).expect("bind 127.0.0.1:0");
    let endpoint = server.bound_endpoint();
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let agent = AgentConfig::new(0, 1, endpoint.clone());
    let (hook, _threads) = ClusterAgent::spawn(agent, flag);
    server.install_cluster(hook);
    let handle = std::thread::spawn(move || {
        server.run(flag).expect("server run");
    });

    let corpus: &[&[u8]] = &[
        // Member records of the wrong JSON type.
        br#"{"op":"gossip","view":{"version":3,"shard_count":1,"members":[1,2,3]}}"#,
        // A member record missing every required field.
        br#"{"op":"gossip","view":{"version":3,"shard_count":1,"members":[{}]}}"#,
        // A shard id far outside the ring must not grow the view.
        br#"{"op":"gossip","view":{"version":3,"shard_count":1,"members":[{"shard_id":4000000,"endpoint":"tcp:1.2.3.4:1","incarnation":9,"state":"alive"}]}}"#,
        // A claim that shard 0 (the server itself) is dead: refuted.
        br#"{"op":"gossip","view":{"version":3,"shard_count":1,"members":[{"shard_id":0,"endpoint":"tcp:1.2.3.4:1","incarnation":0,"state":"dead"}]}}"#,
    ];
    for payload in corpus {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, payload).unwrap();
        match read_frame(&mut conn, MAX_FRAME_BYTES) {
            Ok(Some(reply)) => {
                let response = Response::decode(&reply).expect("decodable reply");
                match response {
                    Response::Gossip { view } | Response::Members { view } => {
                        let view = View::from_json(&view).expect("agent answers a parsable view");
                        assert_eq!(view.members.len(), 1, "ring must not grow");
                        assert_eq!(view.members[0].shard_id, 0);
                        assert_eq!(
                            view.members[0].state.as_str(),
                            "alive",
                            "the agent must refute reports of its own death"
                        );
                    }
                    Response::Error { kind, .. } => assert_eq!(kind, "bad-request"),
                    other => panic!("unexpected reply to garbage gossip: {other:?}"),
                }
            }
            Ok(None) => {}
            Err(e) => panic!("agent hung or died on garbage gossip: {e}"),
        }
    }
    assert_alive(&endpoint);

    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("clean drain");
}

#[test]
fn malformed_frame_corpus_never_kills_the_server() {
    let (endpoint, handle) = spawn_server();

    // 1. Truncated length prefix: two bytes, then FIN mid-prefix.
    {
        let mut conn = dial(&endpoint);
        conn.write_all(&[0x00, 0x01]).unwrap();
        drop(conn);
    }
    assert_alive(&endpoint);

    // 2. Truncated payload: the prefix promises more than is sent.
    {
        let mut conn = dial(&endpoint);
        conn.write_all(&64u32.to_be_bytes()).unwrap();
        conn.write_all(b"only a few bytes").unwrap();
        drop(conn);
    }
    assert_alive(&endpoint);

    // 3. Oversize length prefix: must be rejected before allocation,
    //    by dropping the connection (no way to resync after it).
    {
        let mut conn = dial(&endpoint);
        conn.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let mut buf = [0u8; 16];
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "oversize frame should close the connection");
    }
    assert_alive(&endpoint);

    // 4. Invalid UTF-8 payload in a well-formed frame.
    {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, &[0xff, 0xfe, 0x80, 0x81]).unwrap();
        error_or_close(&mut conn, "invalid utf-8");
    }
    assert_alive(&endpoint);

    // 5. Deeply nested JSON: parser depth limit, not a stack overflow.
    {
        let mut conn = dial(&endpoint);
        let deep = format!("{}1{}", "[".repeat(4096), "]".repeat(4096));
        write_frame(&mut conn, deep.as_bytes()).unwrap();
        error_or_close(&mut conn, "deeply nested json");
    }
    assert_alive(&endpoint);

    // 6. Valid JSON, wrong shape.
    {
        let mut conn = dial(&endpoint);
        write_frame(&mut conn, br#"{"op":"explode","v":[1,2,3]}"#).unwrap();
        error_or_close(&mut conn, "wrong shape");
        // The same connection keeps serving after a bad request.
        write_frame(&mut conn, &Request::Ping.encode()).unwrap();
        let payload = read_frame(&mut conn, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);
    }

    // 7. Binary garbage payloads at assorted sizes.
    for size in [1usize, 7, 255, 4096] {
        let mut conn = dial(&endpoint);
        let garbage: Vec<u8> = (0..size).map(|i| (i * 37 + 11) as u8).collect();
        write_frame(&mut conn, &garbage).unwrap();
        error_or_close(&mut conn, "binary garbage");
    }
    assert_alive(&endpoint);

    let mut client = Client::connect(&Endpoint::parse(&endpoint)).expect("connect");
    assert_eq!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::ShutdownAck
    );
    handle.join().expect("server thread exits cleanly");
}
