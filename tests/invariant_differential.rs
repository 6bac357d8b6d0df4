//! The invariant serving contract, differentially: `bivc --invariants`
//! must print (1) exactly the plain batch report plus per-loop
//! `invariant:` lines — nothing else moves — with (2) every planted
//! running-sum relation recovered verbatim, and (3) the same bytes
//! whether the batch is analyzed locally, by a `bivd` daemon
//! (`--remote`), or across a 3-shard fleet (`--fleet`), cold and warm.
//! Plus the checker canary: an off-by-one coefficient against *real*
//! interpreter traces must be rejected by the same predicate the
//! pipeline uses.

#![cfg(unix)]

// These tests use only a slice of the shared helpers.
#[allow(dead_code)]
mod common;

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};

use biv::server::{Client, Endpoint, Request, Response};
use biv::workload::{generate, running_sum_relation, WorkloadSpec};
use common::{bivc_stdout, scratch_dir, Daemon};

/// Writes one `invariants`-preset workload file per seed; returns the
/// total number of planted running-sum pairs.
fn write_invariant_corpus(dir: &Path, seeds: &[u64]) -> usize {
    let mut planted = 0;
    for (i, &seed) in seeds.iter().enumerate() {
        let w = generate(&WorkloadSpec::invariants(2, seed));
        std::fs::write(dir.join(format!("inv_{i}.biv")), &w.source).expect("write corpus file");
        planted += w.invariant_plants.len();
    }
    planted
}

/// The committed five-IV loop: `i, a, b, c, d`. Only the first four IVs
/// feed derivation, and their relations must survive the fifth.
const FIVE_IVS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/invariant_corpus/five_ivs.biv"
);

/// The relations the five-IV loop must render, in report order.
const FIVE_IV_RELATIONS: [&str; 4] = [
    "    invariant: 2*%0 - %1 = 0",
    "    invariant: 1 + 3*%0 - %2 = 0",
    "    invariant: %0 + 2*%3 - %0^2 = 0",
    "    invariant: 2*%0 + 4*%3 - %0*%1 = 0",
];

fn invariant_lines(report: &str) -> Vec<&str> {
    report
        .lines()
        .filter(|l| l.trim_start().starts_with("invariant: "))
        .collect()
}

#[test]
fn loop_with_five_ivs_keeps_relations_over_its_first_four() {
    let out = bivc_stdout(&["--invariants", FIVE_IVS]);
    assert_eq!(invariant_lines(&out), FIVE_IV_RELATIONS, "report:\n{out}");
}

/// `g = 1000^h`, `d = 3·1000^h`: `1000^h` overflows `i128` by `h = 13`,
/// but derivation never raises a base to a power, so the loop still
/// gets relations, and the interpreter verifies them.
#[test]
fn large_geometric_bases_yield_verified_relations() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/invariant_corpus/big_geometric.biv"
    );
    let out = bivc_stdout(&["--invariants", path]);
    assert_eq!(
        invariant_lines(&out),
        [
            "    invariant: 3*%0 - %1 = 0",
            "    invariant: 3*%0^2 - %0*%1 = 0",
            "    invariant: 9*%0^2 - %1^2 = 0",
            "    invariant: 3*%0*%2 - %1*%2 = 0",
        ],
        "report:\n{out}"
    );
}

#[test]
fn invariants_flag_is_pure_line_addition_and_recovers_planted_labels() {
    let dir = scratch_dir("inv-diff-local");
    let planted = write_invariant_corpus(&dir, &[3, 4]);
    let dir_arg = dir.display().to_string();
    let with = bivc_stdout(&["--invariants", &dir_arg]);
    let plain = bivc_stdout(&["--batch", &dir_arg]);

    // The flag adds `invariant:` lines and changes nothing else.
    assert_ne!(with, plain, "the corpus must actually carry invariants");
    let stripped: String = with
        .lines()
        .filter(|l| !l.trim_start().starts_with("invariant: "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        stripped, plain,
        "--invariants must be a pure line addition over the plain report"
    );

    // Group the emitted relations by (function, loop) — different
    // corpus files reuse the same planted loop labels — and check every
    // planted running-sum pair reports exactly its ground-truth relation.
    let mut by_loop: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    let mut func = String::new();
    let mut current = String::new();
    for line in with.lines() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("══ ") {
            // `══ path ══` group headers disambiguate the per-file
            // functions, which all share the generator's name.
            func = rest.trim_end_matches(" ══").to_string();
        } else if let Some(rest) = t.strip_prefix("loop ") {
            current = rest.split(':').next().unwrap_or("").to_string();
        } else if let Some(rel) = t.strip_prefix("invariant: ") {
            by_loop
                .entry((func.clone(), current.clone()))
                .or_default()
                .push(rel.into());
        }
    }
    let rs_total: usize = by_loop
        .iter()
        .filter(|((_, name), _)| name.starts_with("RS"))
        .map(|(_, rels)| rels.len())
        .sum();
    assert_eq!(
        rs_total, planted,
        "one verified invariant per planted pair, none missing, none extra"
    );
    for ((func, name), rels) in by_loop.iter().filter(|((_, n), _)| n.starts_with("RS")) {
        assert_eq!(rels.len(), 1, "{func} loop {name}: {rels:?}");
        // Shape `2*SUM + IDX - IDX^2 = 0`: parse the two names back out
        // and require the whole line to be the canonical rendering.
        let rel = &rels[0];
        let sum = rel
            .strip_prefix("2*")
            .and_then(|r| r.split(' ').next())
            .unwrap_or_else(|| panic!("{func} loop {name}: unexpected relation `{rel}`"));
        let index = rel
            .split(" + ")
            .nth(1)
            .and_then(|r| r.split(' ').next())
            .unwrap_or_else(|| panic!("{func} loop {name}: unexpected relation `{rel}`"));
        assert_eq!(
            rel,
            &running_sum_relation(sum, index),
            "{func} loop {name}: planted label must be recovered verbatim"
        );
    }
}

/// Spawns one `bivd --tcp 127.0.0.1:0 --fleet shard=K/N` shard and
/// returns the child plus the endpoint parsed from its banner.
fn spawn_tcp_shard(shard: u32, shard_count: u32) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bivd"))
        .args([
            "--tcp",
            "127.0.0.1:0",
            "--fleet",
            &format!("shard={shard}/{shard_count}"),
            "--workers",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bivd spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let banner = lines
        .next()
        .expect("bivd prints a banner")
        .expect("banner reads");
    let endpoint = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unparseable bivd banner: {banner}"))
        .to_string();
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, endpoint)
}

fn drain_fleet(children: Vec<Child>, endpoints: &str) {
    for endpoint in endpoints.split(',') {
        let mut client = Client::connect(&Endpoint::parse(endpoint)).expect("connect for drain");
        assert_eq!(
            client.request(&Request::Shutdown).expect("shutdown"),
            Response::ShutdownAck
        );
    }
    for mut child in children {
        let status = child.wait().expect("bivd exits");
        assert!(status.success(), "shard exited uncleanly: {status}");
    }
}

#[test]
fn remote_and_three_shard_fleet_invariant_bytes_match_local_warm_and_cold() {
    let dir = scratch_dir("inv-diff-serve");
    write_invariant_corpus(&dir, &[7, 8, 9]);
    std::fs::copy(FIVE_IVS, dir.join("five_ivs.biv")).expect("copy five-IV file");
    let dir_arg = dir.display().to_string();
    let reference = bivc_stdout(&["--invariants", &dir_arg]);
    let lines = invariant_lines(&reference);
    for relation in FIVE_IV_RELATIONS {
        assert!(lines.contains(&relation), "missing `{relation}`");
    }

    // Daemon: the first pass analyzes, the second serves the daemon's
    // warm cache — the invariant lines must ride the cached summaries.
    let daemon = Daemon::spawn("inv-remote", &[]);
    let socket = daemon.remote_arg();
    for pass in ["cold", "warm"] {
        let out = bivc_stdout(&["--remote", &socket, "--invariants", &dir_arg]);
        assert_eq!(reference, out, "--remote {pass} pass diverged");
    }
    daemon.shutdown();

    // 3-shard fleet, cold then warm, byte-identical both times.
    let mut children = Vec::new();
    let mut endpoints = Vec::new();
    for shard in 0..3 {
        let (child, endpoint) = spawn_tcp_shard(shard, 3);
        children.push(child);
        endpoints.push(endpoint);
    }
    let endpoints = endpoints.join(",");
    for pass in ["cold", "warm"] {
        let out = bivc_stdout(&["--fleet", &endpoints, "--invariants", &dir_arg]);
        assert_eq!(reference, out, "--fleet {pass} pass diverged");
    }
    drain_fleet(children, &endpoints);
}

#[test]
fn off_by_one_canary_is_rejected_against_real_interpreter_traces() {
    use biv::invariant::{check_candidate, Candidate};
    use biv::ssa::{fold_constants, SsaFunction, SsaInterpreter};

    let w = generate(&WorkloadSpec::invariants(1, 5));
    let analysis = biv::core_analysis::analyze(&w.func);
    let (l, info) = analysis
        .loops()
        .find(|(_, info)| info.name == "RS0x0")
        .expect("planted running-sum loop");
    let header = analysis.forest().data(l).header;
    let phis = analysis.ssa().block(header).phis.clone();
    assert_eq!(phis.len(), 2);
    let degree = |v| match info.classes.get(v) {
        Some(biv::core_analysis::Class::Induction(cf)) => cf.degree(),
        other => panic!("unexpected φ class {other:?}"),
    };
    let (index, sum) = if degree(phis[0]) == 1 {
        (phis[0], phis[1])
    } else {
        (phis[1], phis[0])
    };

    // Replay the program exactly as the pipeline's checker does: a
    // clean SSA build (no synthetic exit values), constants folded.
    let mut ssa = SsaFunction::build(&w.func);
    fold_constants(&mut ssa);
    let (trace, fault) = SsaInterpreter::default().run_partial(&ssa, &[10]);
    assert!(
        fault.is_none(),
        "workload must interpret cleanly: {fault:?}"
    );
    let histories = vec![trace.history(index), trace.history(sum)];
    assert!(histories.iter().all(|h| h.len() >= 4));

    // Basis [1, i, s, i², is, s²]: the true relation 2s + i − i² = 0
    // passes; the same candidate with one coefficient off by one fails.
    let good = Candidate {
        coeffs: vec![0, 1, 2, -1, 0, 0],
        exps: vec![
            vec![0, 0],
            vec![1, 0],
            vec![0, 1],
            vec![2, 0],
            vec![1, 1],
            vec![0, 2],
        ],
    };
    assert!(
        check_candidate(&good, std::slice::from_ref(&histories), 4),
        "the true planted relation must verify on the real trace"
    );
    let mut broken = good.clone();
    broken.coeffs[2] = 3; // 3s + i − i²: off by one in the sum coefficient
    assert!(
        !check_candidate(&broken, &[histories], 4),
        "the off-by-one canary must be rejected"
    );
}
