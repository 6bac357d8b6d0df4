//! `bivctl` — fleet control for `bivd` shards.
//!
//! ```text
//! bivctl stats EP1,EP2,... [--timeout-ms N]        # aggregated fleet stats (JSON)
//! bivctl members SEED [--timeout-ms N]             # the seed's membership view (JSON)
//! bivctl join SEED --endpoint EP [--timeout-ms N]  # bridge two membership groups
//! bivctl leave SEED --shard K [--wait-ms N]        # retire one shard gracefully
//! bivctl drain EP1,EP2,... --shard K --store DIR --successor J [--wait-ms N]
//! ```
//!
//! `stats` polls every shard and prints one JSON object: summed counter
//! sections, merged latency windows, and each shard's raw snapshot (see
//! `biv::fleet::fleet_stats`). Unreachable shards are reported inside
//! the object; only a fully unreachable fleet fails. `--timeout-ms`
//! bounds each shard's connect + read so one wedged daemon degrades to
//! an `unreachable` entry instead of hanging the aggregation.
//!
//! `members` asks one seed shard for its membership view — who is
//! alive, where, at which incarnation. `join` introduces two membership
//! groups to each other by exchanging their views (a one-shot bridge;
//! gossip converges the rest). `leave` resolves shard `K`'s endpoint
//! from the seed's view and sends it a graceful shutdown; the departing
//! daemon's own cluster agent hands its store snapshot to the shards
//! that absorb its ring ranges, so no operator-side preload is needed.
//!
//! `drain` retires one shard with a warm handoff *without* a membership
//! agent: it sends the shard a graceful shutdown, waits for the
//! endpoint to actually go away (which is when the departing daemon has
//! flushed its store snapshot), then tells the successor to preload the
//! snapshot directory — so every summary the departed shard had
//! computed is served warm by its successor. The departing shard must
//! have been running with `--cache-dir DIR`, and `DIR` must be readable
//! by the successor.

use std::process::ExitCode;
use std::time::Duration;

use biv::fleet::{drain_shard, fleet_stats_with_timeout, View};
use biv::server::{Client, Endpoint, Request, Response};

const USAGE: &str = "usage: bivctl stats EP1,EP2,... [--timeout-ms N]\n       bivctl members SEED [--timeout-ms N]\n       bivctl join SEED --endpoint EP [--timeout-ms N]\n       bivctl leave SEED --shard K [--wait-ms N] [--timeout-ms N]\n       bivctl drain EP1,EP2,... --shard K --store DIR --successor J [--wait-ms N]";

const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);

fn split_endpoints(spec: &str) -> Result<Vec<String>, String> {
    let endpoints: Vec<String> = spec
        .split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .map(str::to_string)
        .collect();
    if endpoints.is_empty() {
        return Err("no endpoints given".into());
    }
    Ok(endpoints)
}

/// Parses a trailing `--timeout-ms N` (shared by the view commands).
fn parse_timeout(rest: &[String]) -> Result<Duration, String> {
    let mut timeout = DEFAULT_TIMEOUT;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--timeout-ms" => {
                let value = it.next().ok_or("--timeout-ms needs a value")?;
                timeout = Duration::from_millis(parse_num(value, "--timeout-ms")?);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(timeout)
}

fn run_stats(args: &[String]) -> Result<(), String> {
    let Some((spec, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    let endpoints = split_endpoints(spec)?;
    let timeout = parse_timeout(rest)?;
    let stats = fleet_stats_with_timeout(&endpoints, timeout)?;
    println!("{}", stats.to_text());
    Ok(())
}

/// Fetches one shard's membership view.
fn fetch_view(endpoint: &str, timeout: Duration) -> Result<View, String> {
    let mut client = Client::connect_timeout(&Endpoint::parse(endpoint), timeout)
        .map_err(|e| format!("cannot reach {endpoint}: {e}"))?;
    match client.request(&Request::Members) {
        Ok(Response::Members { view } | Response::Gossip { view }) => {
            View::from_json(&view).map_err(|e| format!("{endpoint} answered a malformed view: {e}"))
        }
        Ok(other) => Err(format!("{endpoint} answered unexpectedly: {other:?}")),
        Err(e) => Err(format!("members request to {endpoint} failed: {e}")),
    }
}

fn run_members(args: &[String]) -> Result<(), String> {
    let Some((seed, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    let timeout = parse_timeout(rest)?;
    let view = fetch_view(seed, timeout)?;
    println!("{}", view.to_json().to_text());
    Ok(())
}

fn run_join(args: &[String]) -> Result<(), String> {
    let Some((seed, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    let mut endpoint: Option<String> = None;
    let mut timeout = DEFAULT_TIMEOUT;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--endpoint" => endpoint = Some(value("--endpoint")?),
            "--timeout-ms" => {
                timeout =
                    Duration::from_millis(parse_num(&value("--timeout-ms")?, "--timeout-ms")?);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    let endpoint = endpoint.ok_or("join needs --endpoint EP (the joining shard)")?;
    // One round of view exchange in each direction; gossip takes it
    // from there. `from` is omitted — bivctl is a bridge, not a member.
    let seed_view = fetch_view(seed, timeout)?;
    let joiner_view = fetch_view(&endpoint, timeout)?;
    for (target, view) in [(&endpoint, &seed_view), (seed, &joiner_view)] {
        let mut client = Client::connect_timeout(&Endpoint::parse(target), timeout)
            .map_err(|e| format!("cannot reach {target}: {e}"))?;
        let request = Request::Gossip {
            from: None,
            view: view.to_json(),
        };
        match client.request(&request) {
            Ok(Response::Gossip { .. } | Response::Members { .. }) => {}
            Ok(other) => return Err(format!("{target} refused the view: {other:?}")),
            Err(e) => return Err(format!("gossip to {target} failed: {e}")),
        }
    }
    eprintln!(
        "bivctl: bridged {} member(s) at {seed} with {} member(s) at {endpoint}",
        seed_view.members.len(),
        joiner_view.members.len()
    );
    Ok(())
}

fn run_leave(args: &[String]) -> Result<(), String> {
    let Some((seed, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    let mut shard: Option<u32> = None;
    let mut wait = Duration::from_secs(30);
    let mut timeout = DEFAULT_TIMEOUT;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--shard" => shard = Some(parse_num(&value("--shard")?, "--shard")?),
            "--wait-ms" => {
                wait = Duration::from_millis(parse_num(&value("--wait-ms")?, "--wait-ms")?);
            }
            "--timeout-ms" => {
                timeout =
                    Duration::from_millis(parse_num(&value("--timeout-ms")?, "--timeout-ms")?);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    let shard = shard.ok_or("leave needs --shard K")?;
    let view = fetch_view(seed, timeout)?;
    let member = view
        .member(shard)
        .ok_or(format!("shard {shard} is not in {seed}'s view"))?;
    let endpoint = member.endpoint.clone();
    let mut client = Client::connect_timeout(&Endpoint::parse(&endpoint), timeout)
        .map_err(|e| format!("cannot reach shard {shard} at {endpoint}: {e}"))?;
    match client.request(&Request::Shutdown) {
        Ok(Response::ShutdownAck) => {}
        Ok(other) => return Err(format!("shard {shard} refused shutdown: {other:?}")),
        Err(e) => return Err(format!("shutdown of shard {shard} failed: {e}")),
    }
    drop(client);
    // Wait for the endpoint to actually go away: that is when the
    // departing daemon has flushed its store and handed off snapshots.
    let deadline = std::time::Instant::now() + wait;
    loop {
        match Client::connect_timeout(&Endpoint::parse(&endpoint), timeout) {
            Err(_) => break,
            Ok(_) => {
                if std::time::Instant::now() >= deadline {
                    return Err(format!(
                        "shard {shard} at {endpoint} still answers after {}ms",
                        wait.as_millis()
                    ));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    eprintln!("bivctl: shard {shard} at {endpoint} left the fleet");
    Ok(())
}

fn run_drain(args: &[String]) -> Result<(), String> {
    let Some((spec, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    let endpoints = split_endpoints(spec)?;
    let mut shard: Option<usize> = None;
    let mut store: Option<String> = None;
    let mut successor: Option<usize> = None;
    let mut wait = Duration::from_secs(30);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--shard" => {
                shard = Some(parse_num(&value("--shard")?, "--shard")?);
            }
            "--store" => store = Some(value("--store")?),
            "--successor" => {
                successor = Some(parse_num(&value("--successor")?, "--successor")?);
            }
            "--wait-ms" => {
                wait = Duration::from_millis(parse_num(&value("--wait-ms")?, "--wait-ms")?);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    let shard = shard.ok_or("drain needs --shard K")?;
    let store = store.ok_or("drain needs --store DIR (the departing shard's --cache-dir)")?;
    let successor = successor.ok_or("drain needs --successor J")?;
    let report = drain_shard(&endpoints, shard, &store, successor, wait)?;
    eprintln!(
        "bivctl: shard {shard} drained; successor {successor} preloaded {} summaries from {store}",
        report.loaded
    );
    Ok(())
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {flag} value `{value}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "stats" => run_stats(rest),
            "members" => run_members(rest),
            "join" => run_join(rest),
            "leave" => run_leave(rest),
            "drain" => run_drain(rest),
            "--help" | "-h" => Err(USAGE.into()),
            other => Err(format!("unknown command `{other}` (try --help)")),
        },
        None => Err(USAGE.into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
