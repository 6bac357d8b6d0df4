//! End-to-end tests of the `bivd` daemon through its real binaries:
//! round-trips over a Unix socket, remote/local byte identity, per-file
//! error propagation, cache-capacity replay, a stats line that deadline
//! breaches cannot change, and graceful SIGTERM shutdown.

#![cfg(unix)]

mod common;

use common::{bivc, bivc_stdout, scratch_dir, wait_for_accepted, write_corpus_files, Daemon};

#[test]
fn remote_round_trip_matches_local_bytes() {
    let dir = scratch_dir("server-roundtrip");
    write_corpus_files(&dir, &[11, 22], 8);
    let dir_arg = dir.display().to_string();

    let local = bivc_stdout(&["--batch", &dir_arg]);
    let daemon = Daemon::spawn("roundtrip", &["--workers", "2"]);
    let remote = bivc_stdout(&["--remote", &daemon.remote_arg(), &dir_arg]);
    assert_eq!(local, remote, "remote output must be byte-identical");

    // A second submission is served from the warm cache — same bytes.
    let warm = bivc_stdout(&["--remote", &daemon.remote_arg(), &dir_arg]);
    assert_eq!(local, warm, "cache warmth must not change the bytes");

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remote_reports_per_file_errors_and_analyzes_the_rest() {
    let dir = scratch_dir("server-errors");
    write_corpus_files(&dir, &[33], 4);
    std::fs::write(dir.join("corpus_z_bad.biv"), "func broken {\n").unwrap();
    let dir_arg = dir.display().to_string();

    let daemon = Daemon::spawn("errors", &["--workers", "1"]);
    let out = bivc(&["--remote", &daemon.remote_arg(), &dir_arg]);
    assert!(
        !out.status.success(),
        "a bad file must make the exit code nonzero"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("corpus_0.biv"),
        "good file is still analyzed:\n{stdout}"
    );
    assert!(
        !stdout.contains("corpus_z_bad.biv"),
        "failed file must not get an output header:\n{stdout}"
    );
    assert!(
        stderr.contains("corpus_z_bad.biv") && stderr.contains("parse error"),
        "stderr names the failing file:\n{stderr}"
    );

    // The same inputs fail identically in local batch mode.
    let local = bivc(&["--batch", &dir_arg]);
    assert!(!local.status.success());
    assert_eq!(stdout, String::from_utf8(local.stdout).unwrap());

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_cap_is_replayed_in_remote_stats_line() {
    let dir = scratch_dir("server-cachecap");
    write_corpus_files(&dir, &[44, 55], 6);
    let dir_arg = dir.display().to_string();

    let daemon = Daemon::spawn("cachecap", &["--workers", "2"]);
    for cap in ["1", "2", "4096"] {
        let local = bivc_stdout(&["--batch", "--cache-cap", cap, &dir_arg]);
        let remote = bivc_stdout(&[
            "--remote",
            &daemon.remote_arg(),
            "--cache-cap",
            cap,
            &dir_arg,
        ]);
        assert_eq!(
            local, remote,
            "--cache-cap {cap} must render identically local and remote"
        );
    }
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A deadline-breached summary is never committed, so the real eviction
/// count of a run falls below a cold replay's. The stats line is the
/// cold replay on every path — local, `--cache-dir`, and `--remote` —
/// so all three print the line an unbudgeted run prints. The function
/// blocks themselves are not compared: a deadline breach lands at a
/// nondeterministic point.
#[test]
fn deadline_breaches_do_not_change_the_stats_line() {
    fn stats_line(stdout: &str) -> String {
        stdout.lines().last().unwrap_or_default().to_string()
    }
    let store = scratch_dir("server-deadline-store");
    let store_arg = store.display().to_string();
    let budgeted = ["--budget", "time=0", "--cache-cap", "1"];
    let run = |extra: &[&str]| {
        let mut args = budgeted.to_vec();
        args.extend_from_slice(extra);
        args.push("tests/golden");
        stats_line(&bivc_stdout(&args))
    };

    let unbudgeted = stats_line(&bivc_stdout(&["--cache-cap", "1", "tests/golden"]));
    assert!(unbudgeted.starts_with("batch: "), "{unbudgeted}");
    assert_eq!(run(&["--batch"]), unbudgeted, "local --batch");
    assert_eq!(run(&["--cache-dir", &store_arg]), unbudgeted, "--cache-dir");
    let daemon = Daemon::spawn("deadline", &["--workers", "1", "--budget", "time=0"]);
    let remote = run(&["--remote", &daemon.remote_arg()]);
    assert_eq!(remote, unbudgeted, "--remote");
    daemon.shutdown();
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn sigterm_drains_in_flight_requests() {
    let dir = scratch_dir("server-drain");
    // One worker and a deliberately large, mostly-distinct corpus keep
    // the request in flight long enough for SIGTERM to land mid-work.
    write_corpus_files(&dir, &[66, 77], 48);
    let dir_arg = dir.display().to_string();
    let local = bivc_stdout(&["--batch", &dir_arg]);

    let daemon = Daemon::spawn("drain", &["--workers", "1"]);
    let remote_arg = daemon.remote_arg();
    let dir_arg_clone = dir_arg.clone();
    let client = std::thread::spawn(move || bivc(&["--remote", &remote_arg, &dir_arg_clone]));
    wait_for_accepted(&daemon, 1);
    let stderr = daemon.shutdown();

    let out = client.join().expect("client thread");
    assert!(
        out.status.success(),
        "an accepted request must be answered through drain:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        local,
        String::from_utf8(out.stdout).unwrap(),
        "drained response must still be byte-identical"
    );
    assert!(stderr.contains("1 analyzed"), "drain summary:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn socket_is_unlinked_after_drain() {
    let daemon = Daemon::spawn("unlink", &[]);
    let socket = daemon.socket.clone();
    assert!(socket.exists());
    daemon.shutdown();
    assert!(
        !socket.exists(),
        "drain must remove the socket file so restarts bind cleanly"
    );
}

#[test]
fn connecting_to_a_dead_socket_fails_cleanly() {
    let out = bivc(&[
        "--remote",
        "/nonexistent/bivd.sock",
        "tests/golden/fig1.biv",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot connect"),
        "expected a connection error, got:\n{stderr}"
    );
}
