//! The serving contract, differentially: N concurrent clients
//! submitting the workload corpus through a live `bivd` must each
//! receive exactly the bytes a sequential local `bivc` prints, and the
//! shared cache's accounting must stay exact under contention
//! (`hits + misses == functions submitted`).

#![cfg(unix)]

mod common;

use std::path::Path;

use biv::server::{AnalyzeFile, Client, Endpoint, Request, Response};
use common::{bivc, bivc_stdout, scratch_dir, wait_for_accepted, write_corpus_files, Daemon};

#[test]
fn concurrent_clients_match_sequential_local_output() {
    let dir = scratch_dir("differential");
    write_corpus_files(&dir, &[1, 2, 3], 12);
    let dir_arg = dir.display().to_string();
    let reference = bivc_stdout(&["--batch", &dir_arg]);

    let daemon = Daemon::spawn("differential", &["--workers", "4"]);
    let mut total_clients = 0u64;
    for clients in [1usize, 2, 8] {
        total_clients += clients as u64;
        let outputs: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let remote = daemon.remote_arg();
                    let dir_arg = &dir_arg;
                    scope.spawn(move || bivc(&["--remote", &remote, dir_arg]))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, out) in outputs.iter().enumerate() {
            assert!(
                out.status.success(),
                "client {i}/{clients} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                reference,
                String::from_utf8_lossy(&out.stdout),
                "client {i} of {clients} diverged from the local run"
            );
        }
    }

    // The shared cache's books balance under contention: every function
    // ever submitted was counted as exactly one hit or one miss.
    let endpoint = Endpoint::parse(&daemon.remote_arg());
    let mut stats_client = Client::connect(&endpoint).expect("connect for stats");
    let Response::Stats(stats) = stats_client.request(&Request::Stats).expect("stats") else {
        panic!("expected a stats response");
    };
    let get = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |node, key| node.get(key))
            .and_then(|v| v.as_i64())
            .unwrap_or_else(|| panic!("stats missing {path:?} in {}", stats.to_text()))
    };
    let hits = get(&["cache", "hits"]);
    let misses = get(&["cache", "misses"]);
    let functions = get(&["requests", "functions"]);
    assert_eq!(
        hits + misses,
        functions,
        "cache accounting drifted under contention: {} + {} != {}",
        hits,
        misses,
        functions
    );
    assert_eq!(get(&["requests", "analyze_ok"]), total_clients as i64);
    assert!(
        misses <= functions / total_clients as i64,
        "at most one cold pass of distinct structures should miss"
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_under_concurrent_load_answers_every_accepted_request() {
    let dir = scratch_dir("drain-load");
    write_corpus_files(&dir, &[7, 8], 32);
    let dir_arg = dir.display().to_string();
    let reference = bivc_stdout(&["--batch", &dir_arg]);

    let daemon = Daemon::spawn("drain-load", &["--workers", "2"]);
    let outputs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let remote = daemon.remote_arg();
                let dir_arg = &dir_arg;
                scope.spawn(move || bivc(&["--remote", &remote, dir_arg]))
            })
            .collect();
        // Wait until every client's request is accepted (the drain
        // contract's precondition), then pull the plug mid-flight.
        wait_for_accepted(&daemon, 4);
        daemon.sigterm();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (ok, stderr) = daemon.wait();
    assert!(ok, "bivd exited uncleanly:\n{stderr}");
    assert!(
        stderr.contains("drained"),
        "missing drain summary:\n{stderr}"
    );

    for (i, out) in outputs.iter().enumerate() {
        assert!(
            out.status.success(),
            "client {i} was dropped during drain:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            reference,
            String::from_utf8_lossy(&out.stdout),
            "client {i}'s drained response diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One field of a live daemon's `stats` object.
fn stat(daemon: &Daemon, path: &[&str]) -> i64 {
    let endpoint = Endpoint::parse(&daemon.remote_arg());
    let mut client = Client::connect(&endpoint).expect("connect for stats");
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("expected a stats response");
    };
    path.iter()
        .try_fold(&stats, |node, key| node.get(key))
        .and_then(|v| v.as_i64())
        .unwrap_or_else(|| panic!("stats missing {path:?} in {}", stats.to_text()))
}

/// Sends `paths` as one analyze request and returns the reply's output
/// and analyzed count.
fn analyze(daemon: &Daemon, paths: &[&Path], invariants: bool) -> (String, usize) {
    let endpoint = Endpoint::parse(&daemon.remote_arg());
    let mut client = Client::connect(&endpoint).expect("connect");
    let files = paths
        .iter()
        .map(|p| AnalyzeFile {
            path: p.display().to_string(),
            source: std::fs::read_to_string(p).expect("read source"),
        })
        .collect();
    let request = Request::Analyze {
        files,
        cache_cap: None,
        invariants,
    };
    match client.request(&request).expect("analyze") {
        Response::Analyze {
            output, analyzed, ..
        } => (output, analyzed),
        other => panic!("unexpected reply {other:?}"),
    }
}

/// Asserts `bivc --remote` (or `--fleet`) prints exactly what local
/// `bivc --batch` prints for `args`, exit status included.
fn assert_remote_is_local(daemon: &Daemon, mode: &str, args: &[&str]) {
    let remote_arg = daemon.remote_arg();
    let local = bivc(&[&["--batch"], args].concat());
    let remote = bivc(&[&[mode, &remote_arg], args].concat());
    assert_eq!(
        local.status.success(),
        remote.status.success(),
        "{mode} {args:?}: exit status differs:\n{}",
        String::from_utf8_lossy(&remote.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout),
        "{mode} {args:?} diverged from the local run"
    );
}

/// Hot files are served from the file index without parsing, and every
/// shape of reply over an index hit is the local bytes.
#[test]
fn index_hits_serve_local_bytes_in_every_shape() {
    let dir = scratch_dir("file-index");
    let written = write_corpus_files(&dir, &[5], 6);
    let source = std::fs::read_to_string(&written[0]).unwrap();
    for sub in ["one", "two", "mixed"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
        std::fs::write(dir.join(sub).join("hot.biv"), &source).unwrap();
    }
    std::fs::write(dir.join("mixed").join("bad.biv"), "func broken( {\n").unwrap();
    // α-renamed: every function gets a new name, so the content key
    // differs while every structural hash stays the same.
    let renamed = source.replace("func ", "func renamed_");
    assert_ne!(renamed, source);
    std::fs::write(dir.join("renamed.biv"), &renamed).unwrap();
    let one = dir.join("one").join("hot.biv");
    let two = dir.join("two").join("hot.biv");
    let (one_arg, two_arg) = (one.display().to_string(), two.display().to_string());
    let mixed_arg = dir.join("mixed").display().to_string();

    let daemon = Daemon::spawn("file-index", &["--workers", "2"]);
    // The first sighting is remembered, the second admits, the third
    // and later are index hits.
    for _ in 0..4 {
        // The same source under two paths: each block keeps its header.
        assert_remote_is_local(&daemon, "--remote", &[&one_arg, &two_arg]);
    }
    let hits = stat(&daemon, &["files", "hits"]);
    assert!(hits >= 4, "hot files must hit the index, got {hits}");
    let (output, _) = analyze(&daemon, &[&one, &two], false);
    assert!(output.contains(&format!("══ {one_arg} ══")));
    assert!(output.contains(&format!("══ {two_arg} ══")));

    for _ in 0..3 {
        assert_remote_is_local(&daemon, "--remote", &["--invariants", &one_arg]);
        assert_remote_is_local(&daemon, "--remote", &[&one_arg]);
        assert_remote_is_local(&daemon, "--fleet", &[&one_arg, &two_arg]);
        assert_remote_is_local(&daemon, "--fleet", &["--invariants", &one_arg]);
        // A parse error in the same request as a hot file.
        assert_remote_is_local(&daemon, "--remote", &[&mixed_arg]);
    }
    assert!(stat(&daemon, &["files", "hits"]) > hits + 6);

    // The α-renamed copy misses the index but hits the structural
    // cache: nothing is analyzed.
    let (output, analyzed) = analyze(&daemon, &[&dir.join("renamed.biv")], false);
    assert_eq!(analyzed, 0, "α-renamed functions hit the structural cache");
    assert_eq!(
        output,
        bivc_stdout(&["--batch", &dir.join("renamed.biv").display().to_string()])
    );

    // The hot source is one entry however many paths carried it; the
    // file that failed to parse is never admitted, and the renamed
    // copy, seen once, is only remembered.
    assert_eq!(stat(&daemon, &["files", "entries"]), 1);
    assert_eq!(
        stat(&daemon, &["cache", "hits"]) + stat(&daemon, &["cache", "misses"]),
        stat(&daemon, &["requests", "functions"]),
        "index hits still count one cache lookup per function"
    );
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// An indexed file whose summaries left the only tier (cap 1, no
/// store) is parsed again and analyzed, with the local bytes.
#[test]
fn an_index_hit_whose_summaries_were_evicted_falls_back_to_parse() {
    let dir = scratch_dir("file-index-evicted");
    let a = dir.join("a.biv");
    let b = dir.join("b.biv");
    std::fs::write(
        &a,
        "func a(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "func b(n) { g = 1 L1: for i = 1 to n { g = g * 2 A[g] = i } }\n",
    )
    .unwrap();
    let local = |p: &Path| bivc_stdout(&["--batch", "--cache-cap", "1", &p.display().to_string()]);
    let (local_a, local_b) = (local(&a), local(&b));
    let daemon = Daemon::spawn(
        "file-index-evicted",
        &["--workers", "1", "--cache-cap", "1"],
    );
    // a is admitted on its second request and hit on its third; b's two
    // requests then push a's summary out of the one-entry memory tier
    // while the one-function index keeps a.
    for path in [&a, &a, &a, &b, &b] {
        let expected = if path == &a { &local_a } else { &local_b };
        assert_eq!(&analyze(&daemon, &[path], false).0, expected);
    }
    let hits = stat(&daemon, &["files", "hits"]);
    let (output, analyzed) = analyze(&daemon, &[&a], false);
    assert_eq!(output, local_a);
    assert_eq!(stat(&daemon, &["files", "hits"]), hits + 1, "an index hit");
    assert_eq!(analyzed, 1, "whose evicted summary was recomputed");
    assert_eq!(
        stat(&daemon, &["cache", "hits"]) + stat(&daemon, &["cache", "misses"]),
        stat(&daemon, &["requests", "functions"])
    );
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Deadline-degraded summaries are never cacheable, so their file is
/// never admitted; the stats line is still the local one.
#[test]
fn deadline_degraded_files_never_enter_the_index() {
    let stats_line = |s: &str| s.lines().last().unwrap_or_default().to_string();
    let local = stats_line(&bivc_stdout(&[
        "--batch",
        "--budget",
        "time=0",
        "tests/golden/poly.biv",
    ]));
    let daemon = Daemon::spawn(
        "file-index-deadline",
        &["--workers", "1", "--budget", "time=0"],
    );
    for _ in 0..3 {
        let (output, _) = analyze(&daemon, &[Path::new("tests/golden/poly.biv")], false);
        assert_eq!(stats_line(&output), local);
    }
    assert_eq!(stat(&daemon, &["files", "entries"]), 0);
    assert_eq!(stat(&daemon, &["files", "hits"]), 0);
    assert_eq!(
        stat(&daemon, &["cache", "hits"]) + stat(&daemon, &["cache", "misses"]),
        stat(&daemon, &["requests", "functions"])
    );
    daemon.shutdown();
}
