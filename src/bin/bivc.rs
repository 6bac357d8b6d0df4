//! `bivc` — command-line driver for the `biv` analysis pipeline.
//!
//! ```text
//! bivc [--ssa] [--classes] [--deps] [--trip-counts] [--classic] [--dot] FILE
//! bivc [--jobs N] [--batch] [--cache-cap N] FILE|DIR...   # parallel batch analysis
//! bivc --invariants FILE|DIR...           # verified per-loop invariants in the report
//! bivc --cache-dir DIR FILE|DIR...        # batch with a durable analysis store
//! bivc --stats-json PATH ...              # machine-readable batch/cache counters
//! bivc --remote ENDPOINT FILE|DIR...      # submit the batch to a running bivd
//! bivc --fleet EP1,EP2,... FILE|DIR...    # shard the batch across a bivd fleet
//! bivc --optimize FILE|DIR...             # IV-driven transformations, validated
//! bivc --demo                             # run the built-in Figure 1 demo
//! ```
//!
//! `--optimize` runs the classification-driven transformation pipeline
//! (strength reduction, wrap-around peeling, flip-flop unrolling,
//! dead-IV elimination, loop interchange) on every function and
//! validates each rewritten function against its original by
//! differential execution on seeded inputs. A single file prints the
//! transformed IR; several files (or `--jobs`/`--batch`) print one
//! report line per function plus aggregate totals, byte-identical for
//! every job count. Any validation failure makes the exit code nonzero.
//!
//! `--time` additionally prints per-phase wall times (parse, SSA, loop
//! forest, classify, closed forms) to stderr; analysis output on stdout
//! is unchanged, and the flag costs nothing when absent.
//!
//! With a single input file and no batch flags, everything is printed in
//! the detailed single-function format. With several inputs, a
//! directory, `--batch`, or `--jobs`, the parallel batch driver runs
//! instead: every function from every input is classified (sharded
//! across `--jobs` workers, structurally deduplicated through the batch
//! cache) and printed as canonical per-function summaries followed by a
//! cache statistics line. That line always replays a cold cache of
//! `--cache-cap` entries over the batch, as `--remote` and `--fleet`
//! do, so it cannot depend on which summaries were cacheable. Batch
//! output is byte-identical for every job count. `BIV_JOBS` sets the
//! default worker count.
//!
//! Batch mode never aborts on a bad input: unreadable or unparsable
//! files are reported individually on stderr, every remaining file is
//! still analyzed, and the exit code is nonzero.
//!
//! `--cache-dir DIR` persists summaries to (and serves them from) a
//! durable content-addressed store in `DIR`, so a second run over the
//! same corpus is near-free. The stdout bytes are identical to a cold
//! in-memory run over the same files: the stats line is replayed as a
//! cold cache, exactly like the daemon does, so store warmth changes
//! latency, never output. Real cumulative counters are available via
//! `--stats-json PATH`, which writes one JSON object (`batch`, `cache`,
//! and — with a store — `store`) reusing the `bivd` stats field names.
//!
//! `--remote ENDPOINT` (a Unix socket path, or `tcp:HOST:PORT`) sends
//! the batch to a running `bivd` instead of analyzing in-process. The
//! stdout bytes are identical to a local run over the same files — the
//! daemon's warm cache changes latency, never output.
//!
//! `--fleet EP1,EP2,...` shards the batch across an N-shard `bivd`
//! fleet (each started with `bivd --fleet shard=K/N`): the router
//! learns the ring from the endpoints' membership views (list every
//! shard, in any order, or one live member of a `--peers` fleet),
//! files route by consistent hashing on content, shard failures
//! re-route to ring successors, and the reassembled stdout is *still*
//! byte-identical to a local run. A file no live shard can serve fails individually on
//! stderr; the rest of the batch is unaffected.
//!
//! `--invariants` adds machine-checked per-loop polynomial invariants
//! (e.g. `2*s - i^2 + i = 0`) to the grouped batch report. Invariants
//! are always *computed* — they live in the cached summaries and ride
//! the store, the daemon, and the fleet — so the flag only selects
//! rendering: local, `--remote`, and `--fleet` runs print identical
//! bytes for either setting, warm or cold. With `--stats-json` the
//! object gains an `invariants` block (loops carrying at least one
//! relation, total relations).

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use biv::core_analysis::{
    analyze_batch_with_backend, analyze_with, analyze_with_times, cold_batch_stats, describe_class,
    render_grouped_with, resolve_jobs, AnalysisConfig, BatchOptions, BatchStats, Budget,
    CacheBackend, PhaseTimes, StructuralCache,
};
use biv::ir::parser::parse_program;
use biv::ir::Function;
use biv::server::{AnalyzeFile, Client, Endpoint, Json, Response};
use biv::store::{StoreOptions, TieredCache};

struct Options {
    dot: bool,
    ssa: bool,
    classes: bool,
    deps: bool,
    trip_counts: bool,
    classic: bool,
    batch: bool,
    optimize: bool,
    time: bool,
    jobs: usize,
    cache_cap: Option<usize>,
    cache_dir: Option<String>,
    stats_json: Option<String>,
    remote: Option<String>,
    fleet: Option<String>,
    invariants: bool,
    budget: Budget,
    paths: Vec<String>,
}

const USAGE: &str = "usage: bivc [--ssa] [--classes] [--deps] [--trip-counts] [--classic] [--dot] [--time] FILE\n       bivc [--jobs N] [--batch] [--invariants] [--cache-cap N] [--cache-dir DIR] [--stats-json PATH] [--time] FILE|DIR...\n       bivc --remote ENDPOINT [--invariants] [--cache-cap N] FILE|DIR...\n       bivc --fleet EP1,EP2,... [--invariants] [--cache-cap N] FILE|DIR...\n       bivc --optimize [--jobs N] [--stats-json PATH] FILE|DIR...\n       bivc --demo\n\nrobustness knobs (any mode):\n       --budget time=MS,nodes=N,scc=N,order=N   degrade to `unknown` past these caps\n       --faults seed=N,profile=NAME             deterministic fault injection\n                                                (needs a fault-injection build)";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        dot: false,
        ssa: false,
        classes: false,
        deps: false,
        trip_counts: false,
        classic: false,
        batch: false,
        optimize: false,
        time: false,
        jobs: 0,
        cache_cap: None,
        cache_dir: None,
        stats_json: None,
        remote: None,
        fleet: None,
        invariants: false,
        budget: Budget::UNLIMITED,
        paths: Vec::new(),
    };
    let mut any_flag = false;
    let mut demo = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ssa" => {
                opts.ssa = true;
                any_flag = true;
            }
            "--dot" => {
                opts.dot = true;
                any_flag = true;
            }
            "--classes" => {
                opts.classes = true;
                any_flag = true;
            }
            "--deps" => {
                opts.deps = true;
                any_flag = true;
            }
            "--trip-counts" => {
                opts.trip_counts = true;
                any_flag = true;
            }
            "--classic" => {
                opts.classic = true;
                any_flag = true;
            }
            "--batch" => opts.batch = true,
            "--invariants" => opts.invariants = true,
            "--optimize" => {
                opts.optimize = true;
                any_flag = true; // suppress the default analysis dump
            }
            // Orthogonal to the output selectors: does not touch any_flag.
            "--time" => opts.time = true,
            "--jobs" => {
                let value = args.next().ok_or("--jobs needs a value")?;
                opts.jobs = value
                    .parse()
                    .map_err(|_| format!("invalid --jobs value `{value}`"))?;
                opts.batch = true;
            }
            "--cache-cap" => {
                let value = args.next().ok_or("--cache-cap needs a value")?;
                opts.cache_cap = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --cache-cap value `{value}`"))?,
                );
                opts.batch = true;
            }
            "--cache-dir" => {
                let value = args.next().ok_or("--cache-dir needs a value")?;
                opts.cache_dir = Some(value);
                opts.batch = true;
            }
            "--stats-json" => {
                let value = args.next().ok_or("--stats-json needs a value")?;
                opts.stats_json = Some(value);
                opts.batch = true;
            }
            "--remote" => {
                let value = args.next().ok_or("--remote needs an endpoint")?;
                opts.remote = Some(value);
                opts.batch = true;
            }
            "--fleet" => {
                let value = args.next().ok_or("--fleet needs a list of endpoints")?;
                opts.fleet = Some(value);
                opts.batch = true;
            }
            "--budget" => {
                let value = args.next().ok_or("--budget needs a value")?;
                opts.budget = Budget::parse(&value)?;
            }
            "--faults" => {
                let value = args.next().ok_or("--faults needs a value")?;
                install_faults(&value)?;
            }
            "--demo" => demo = true,
            "--help" | "-h" => return Err(USAGE.into()),
            path if !path.starts_with('-') => opts.paths.push(path.to_string()),
            other => {
                if let Some(value) = other.strip_prefix("--jobs=") {
                    opts.jobs = value
                        .parse()
                        .map_err(|_| format!("invalid --jobs value `{value}`"))?;
                    opts.batch = true;
                } else if let Some(value) = other.strip_prefix("--cache-cap=") {
                    opts.cache_cap = Some(
                        value
                            .parse()
                            .map_err(|_| format!("invalid --cache-cap value `{value}`"))?,
                    );
                    opts.batch = true;
                } else if let Some(value) = other.strip_prefix("--cache-dir=") {
                    opts.cache_dir = Some(value.to_string());
                    opts.batch = true;
                } else if let Some(value) = other.strip_prefix("--stats-json=") {
                    opts.stats_json = Some(value.to_string());
                    opts.batch = true;
                } else if let Some(value) = other.strip_prefix("--remote=") {
                    opts.remote = Some(value.to_string());
                    opts.batch = true;
                } else if let Some(value) = other.strip_prefix("--fleet=") {
                    opts.fleet = Some(value.to_string());
                    opts.batch = true;
                } else if let Some(value) = other.strip_prefix("--budget=") {
                    opts.budget = Budget::parse(value)?;
                } else if let Some(value) = other.strip_prefix("--faults=") {
                    install_faults(value)?;
                } else {
                    return Err(format!("unknown flag `{other}` (try --help)"));
                }
            }
        }
    }
    if !any_flag {
        opts.ssa = true;
        opts.classes = true;
        opts.deps = true;
        opts.trip_counts = true;
    }
    if opts.paths.is_empty() && !demo {
        return Err("no input file (try --demo or --help)".into());
    }
    if opts.remote.is_some() && opts.fleet.is_some() {
        return Err("--remote and --fleet are different submission modes; pick one".into());
    }
    if opts.remote.is_some() || opts.fleet.is_some() {
        if opts.cache_dir.is_some() {
            return Err(
                "--cache-dir is local-only; the daemon owns its store (use `bivd --cache-dir`)"
                    .into(),
            );
        }
        if opts.stats_json.is_some() {
            return Err("--stats-json is local-only; use the daemon's `stats` request".into());
        }
        if opts.optimize {
            return Err("--optimize is local-only: transformed IR and validation both need the functions in-process".into());
        }
    }
    if opts.optimize && opts.cache_dir.is_some() {
        return Err(
            "--optimize does not use the analysis store; drop --cache-dir (the pipeline re-analyzes between transforms)"
                .into(),
        );
    }
    if opts.invariants && opts.optimize {
        return Err(
            "--invariants is a batch-report flag; it does not combine with --optimize".into(),
        );
    }
    Ok(opts)
}

/// Arms deterministic fault injection for this process. Only meaningful
/// in builds with the `fault-injection` feature; release binaries carry
/// no injection code and refuse the flag instead of silently ignoring
/// it.
#[cfg(feature = "fault-injection")]
fn install_faults(spec: &str) -> Result<(), String> {
    biv_faults::install_from_spec(spec)
}

#[cfg(not(feature = "fault-injection"))]
fn install_faults(_spec: &str) -> Result<(), String> {
    Err("this binary was built without fault injection; rebuild with `--features fault-injection` to use --faults".into())
}

const DEMO: &str = r#"
func fig1(n, c, k) {
    j = n
    L7: loop {
        i = j + c
        j = i + k
        A[j] = A[i] + 1
        if j > 1000 { break }
    }
}
"#;

/// Expands the input paths: files pass through, directories contribute
/// their `.biv` files (sorted by name, non-recursive then recursive
/// subdirectories, also sorted) so the batch order is deterministic.
/// Unreadable paths become per-file errors, not aborts.
fn expand_inputs(paths: &[String], errors: &mut Vec<String>) -> Vec<String> {
    let mut out = Vec::new();
    for path in paths {
        let meta = match std::fs::metadata(path) {
            Ok(meta) => meta,
            Err(e) => {
                errors.push(format!("cannot read `{path}`: {e}"));
                continue;
            }
        };
        if meta.is_dir() {
            let mut stack = vec![path.clone()];
            while let Some(dir) = stack.pop() {
                let entries = match std::fs::read_dir(&dir) {
                    Ok(entries) => entries,
                    Err(e) => {
                        errors.push(format!("cannot read directory `{dir}`: {e}"));
                        continue;
                    }
                };
                let mut entries: Vec<_> =
                    entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
                entries.sort();
                for entry in entries {
                    let display = entry.to_string_lossy().into_owned();
                    if entry.is_dir() {
                        stack.push(display);
                    } else if display.ends_with(".biv") {
                        out.push(display);
                    }
                }
            }
        } else {
            out.push(path.clone());
        }
    }
    out
}

/// The parallel batch mode: all functions from all files, classified
/// through the sharded, cached batch driver — in-process by default,
/// or by a running `bivd` with `--remote`. Either way the stdout bytes
/// are the same. Returns the number of per-file errors (already printed
/// to stderr); any error makes the exit code nonzero, but every
/// readable, parsable file is still analyzed.
fn run_batch(opts: &Options) -> Result<usize, String> {
    let mut errors: Vec<String> = Vec::new();
    let files = expand_inputs(&opts.paths, &mut errors);
    if files.is_empty() && errors.is_empty() {
        return Err("no input files found".into());
    }
    let output = match (&opts.remote, &opts.fleet) {
        (Some(endpoint), _) => run_batch_remote(opts, endpoint, &files, &mut errors)?,
        (None, Some(endpoints)) => run_batch_fleet(opts, endpoints, &files, &mut errors)?,
        (None, None) => run_batch_local(opts, &files, &mut errors)?,
    };
    print!("{output}");
    for error in &errors {
        eprintln!("bivc: {error}");
    }
    Ok(errors.len())
}

/// In-process batch analysis over the readable, parsable subset of
/// `files`; failures land in `errors`. With `--cache-dir` the batch
/// runs against a durable tiered cache and the stats line is replayed
/// cold, so store warmth never changes the output bytes. Only an
/// unusable cache directory is a hard error.
fn run_batch_local(
    opts: &Options,
    files: &[String],
    errors: &mut Vec<String>,
) -> Result<String, String> {
    let t_parse = opts.time.then(Instant::now);
    let mut funcs: Vec<Function> = Vec::new();
    // (file path, functions in that file) for grouped printing.
    let mut ranges: Vec<(String, usize)> = Vec::new();
    for path in files {
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(e) => {
                errors.push(format!("cannot read `{path}`: {e}"));
                continue;
            }
        };
        match parse_program(&source) {
            Ok(program) => {
                ranges.push((path.clone(), program.functions.len()));
                funcs.extend(program.functions);
            }
            Err(e) => errors.push(format!("{path}: parse error: {e}")),
        }
    }
    let parse_time = t_parse.map(|t| t.elapsed());
    let mut batch_opts = BatchOptions {
        jobs: opts.jobs,
        config: AnalysisConfig {
            budget: opts.budget,
            ..AnalysisConfig::default()
        },
        ..BatchOptions::default()
    };
    if let Some(cap) = opts.cache_cap {
        batch_opts.cache_capacity = cap;
    }
    let mut backend: Box<dyn CacheBackend + Send> = match &opts.cache_dir {
        Some(dir) => {
            let store_opts = StoreOptions::for_budget(&opts.budget);
            let tiered = TieredCache::open(Path::new(dir), batch_opts.cache_capacity, &store_opts)
                .map_err(|e| format!("cannot open cache dir `{dir}`: {e}"))?;
            Box::new(tiered)
        }
        None => Box::new(StructuralCache::new(batch_opts.cache_capacity)),
    };
    eprintln!(
        "analyzing {} functions from {} files on {} workers",
        funcs.len(),
        ranges.len(),
        resolve_jobs(opts.jobs)
    );
    let t_analyze = opts.time.then(Instant::now);
    let report = analyze_batch_with_backend(&funcs, &batch_opts, &mut *backend);
    if let Err(e) = backend.flush() {
        errors.push(format!("cache flush failed: {e}"));
    }
    // Batch workers interleave phases, so only end-to-end times are
    // meaningful here; per-phase timing is the single-function mode's job.
    if let (Some(parse), Some(t)) = (parse_time, t_analyze) {
        eprintln!(
            "timing: parse {:.3?}, batch analysis {:.3?}",
            parse,
            t.elapsed()
        );
    }
    if let Some(path) = &opts.stats_json {
        if let Err(e) = write_stats_json(path, &report.stats, &report.functions, &*backend) {
            errors.push(e);
        }
    }
    // Exactly like the daemon and the fleet, the printed stats line
    // replays a cold cache over this batch's hash sequence. A durable
    // store's warmth and summaries that were never committed (deadline-
    // degraded or panicked) both make the real counters differ from that
    // replay; they remain visible via --stats-json.
    let hashes: Vec<u64> = report.functions.iter().map(|f| f.hash).collect();
    let stats = cold_batch_stats(&hashes, batch_opts.cache_capacity);
    Ok(render_grouped_with(
        &ranges,
        &report.functions,
        &stats,
        opts.invariants,
    ))
}

/// Writes the batch's machine-readable counters to `path` as one JSON
/// object. Field names match the daemon's `stats` response (`cache`,
/// and `store` when a durable tier is present) so dashboards share one
/// schema across the CLI and the server.
fn write_stats_json<B: CacheBackend + ?Sized>(
    path: &str,
    stats: &BatchStats,
    functions: &[biv::core_analysis::FunctionSummary],
    backend: &B,
) -> Result<(), String> {
    // Invariant counters over per-function attachments: a summary
    // shared by N structurally identical functions counts N times,
    // matching what the grouped report prints.
    let (mut inv_loops, mut inv_relations) = (0i64, 0i64);
    for f in functions {
        for l in &f.summary.loops {
            if !l.invariants.is_empty() {
                inv_loops += 1;
                inv_relations += l.invariants.len() as i64;
            }
        }
    }
    let mut fields = vec![
        (
            "batch",
            Json::obj(vec![
                ("functions", Json::Int(stats.functions as i64)),
                ("hits", Json::Int(stats.hits as i64)),
                ("misses", Json::Int(stats.misses as i64)),
                ("evictions", Json::Int(stats.evictions as i64)),
                ("jobs", Json::Int(stats.jobs as i64)),
            ]),
        ),
        ("cache", biv::server::metrics::cache_json(&backend.gauges())),
        (
            "invariants",
            Json::obj(vec![
                ("loops", Json::Int(inv_loops)),
                ("relations", Json::Int(inv_relations)),
            ]),
        ),
    ];
    if let Some(gauges) = backend.store_gauges() {
        fields.push(("store", biv::server::metrics::store_json(&gauges)));
    }
    let text = Json::obj(fields).to_text();
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// The `--optimize` mode: parse every input, run the transformation
/// pipeline on every function across `--jobs` workers, and validate each
/// rewritten function against its original by differential execution on
/// seeded inputs. With a single input file (and no batch flags) the
/// transformed IR is printed per function; otherwise one report line per
/// function. Output is byte-identical for every `--jobs` value. Returns
/// the number of errors, including validation failures (already printed
/// to stderr).
fn run_optimize(opts: &Options) -> Result<usize, String> {
    use biv::core_analysis::{ValidationOptions, Verdict};
    use biv::transform::{optimize_batch, TransformReport};
    let mut errors: Vec<String> = Vec::new();
    let files = expand_inputs(&opts.paths, &mut errors);
    if files.is_empty() && errors.is_empty() {
        return Err("no input files found".into());
    }
    let mut funcs: Vec<Function> = Vec::new();
    let mut ranges: Vec<(String, usize)> = Vec::new();
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(e) => {
                errors.push(format!("cannot read `{path}`: {e}"));
                continue;
            }
        };
        match parse_program(&source) {
            Ok(program) => {
                ranges.push((path.clone(), program.functions.len()));
                funcs.extend(program.functions);
            }
            Err(e) => errors.push(format!("{path}: parse error: {e}")),
        }
    }
    let jobs = resolve_jobs(opts.jobs);
    eprintln!(
        "optimizing {} functions from {} files on {} workers",
        funcs.len(),
        ranges.len(),
        jobs
    );
    let vopts = ValidationOptions::default();
    let config = AnalysisConfig {
        budget: opts.budget,
        ..AnalysisConfig::default()
    };
    let t_optimize = opts.time.then(Instant::now);
    let results = optimize_batch(&funcs, jobs, &vopts, config);
    if let Some(t) = t_optimize {
        eprintln!("timing: optimize + validate {:.3?}", t.elapsed());
    }
    let detailed = ranges.len() == 1 && !opts.batch;
    let mut out = String::new();
    let mut totals = TransformReport::default();
    let (mut validated, mut inconclusive, mut failed) = (0usize, 0usize, 0usize);
    let mut next = 0usize;
    for (path, count) in &ranges {
        if !detailed {
            out.push_str(&format!("══ {path} ══\n"));
        }
        for r in &results[next..next + count] {
            totals.merge(&r.report);
            match &r.verdict {
                Verdict::Validated { .. } => validated += 1,
                Verdict::Inconclusive { .. } => inconclusive += 1,
                bad => {
                    failed += 1;
                    errors.push(format!(
                        "{path}: {}: validation FAILED: {}",
                        r.name,
                        bad.render()
                    ));
                }
            }
            if detailed {
                out.push_str(&format!("══ function {} ══\n", r.name));
                out.push_str(&format!("transforms: {}\n", r.report.render()));
                out.push_str(&format!("validation: {}\n", r.verdict.render()));
                if r.report.total() > 0 {
                    out.push_str(&biv::ir::print::function_to_string(&r.func));
                }
            } else {
                out.push_str(&format!(
                    "  {}: {} | {}\n",
                    r.name,
                    r.report.render(),
                    r.verdict.render()
                ));
            }
        }
        next += count;
    }
    out.push_str(&format!(
        "transform totals: {} | functions={} validated={} inconclusive={} failed={}\n",
        totals.render(),
        results.len(),
        validated,
        inconclusive,
        failed
    ));
    print!("{out}");
    if let Some(path) = &opts.stats_json {
        let text = Json::obj(vec![(
            "transform",
            Json::obj(vec![
                ("functions", Json::Int(results.len() as i64)),
                (
                    "strength_reduced",
                    Json::Int(totals.strength_reduced as i64),
                ),
                ("peeled", Json::Int(totals.peeled as i64)),
                ("unrolled", Json::Int(totals.unrolled as i64)),
                ("dead_ivs", Json::Int(totals.dead_ivs as i64)),
                ("interchanged", Json::Int(totals.interchanged as i64)),
                ("validated", Json::Int(validated as i64)),
                ("inconclusive", Json::Int(inconclusive as i64)),
                ("failed", Json::Int(failed as i64)),
                ("budget_skipped", Json::Bool(totals.budget_skipped)),
            ]),
        )])
        .to_text();
        if let Err(e) = std::fs::write(path, text + "\n") {
            errors.push(format!("cannot write `{path}`: {e}"));
        }
    }
    for error in &errors {
        eprintln!("bivc: {error}");
    }
    Ok(errors.len())
}

/// Ships the batch to a `bivd` at `endpoint`. The daemon renders the
/// same bytes a local run would (its stats line replays a cold cache at
/// this client's `--cache-cap`), so callers cannot tell the modes apart
/// by output — only by latency.
fn run_batch_remote(
    opts: &Options,
    endpoint: &str,
    files: &[String],
    errors: &mut Vec<String>,
) -> Result<String, String> {
    let mut payload: Vec<AnalyzeFile> = Vec::new();
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(source) => payload.push(AnalyzeFile {
                path: path.clone(),
                source,
            }),
            Err(e) => errors.push(format!("cannot read `{path}`: {e}")),
        }
    }
    let endpoint = Endpoint::parse(endpoint);
    let mut client =
        Client::connect(&endpoint).map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
    eprintln!("analyzing {} files via {endpoint}", payload.len());
    let response = client
        .analyze_with(payload, opts.cache_cap, opts.invariants)
        .map_err(|e| format!("remote analysis via {endpoint} failed: {e}"))?;
    match response {
        Response::Analyze {
            output,
            errors: remote_errors,
            ..
        } => {
            errors.extend(remote_errors.into_iter().map(|e| e.message));
            Ok(output)
        }
        Response::Busy { retry_after_ms } => Err(format!(
            "server at {endpoint} is saturated (busy even after retries; last hint {retry_after_ms} ms)"
        )),
        Response::Error { kind, message } => {
            Err(format!("server at {endpoint} refused the batch ({kind}): {message}"))
        }
        other => Err(format!("unexpected response from {endpoint}: {other:?}")),
    }
}

/// Shards the batch across a `bivd` fleet via the consistent-hash
/// router. The stdout bytes match a local run exactly — files are
/// reassembled in input order and the stats line is replayed cold over
/// the whole batch — while shard deaths, bootstrap notes, and per-file
/// failures surface on stderr.
fn run_batch_fleet(
    opts: &Options,
    endpoints: &str,
    files: &[String],
    errors: &mut Vec<String>,
) -> Result<String, String> {
    use biv::fleet::{FleetConfig, Router};
    let endpoints: Vec<String> = endpoints
        .split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .map(str::to_string)
        .collect();
    if endpoints.is_empty() {
        return Err("--fleet needs at least one endpoint".into());
    }
    let mut payload: Vec<AnalyzeFile> = Vec::new();
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(source) => payload.push(AnalyzeFile {
                path: path.clone(),
                source,
            }),
            Err(e) => errors.push(format!("cannot read `{path}`: {e}")),
        }
    }
    let mut config = FleetConfig::new(endpoints);
    config.cache_cap = opts.cache_cap;
    config.invariants = opts.invariants;
    let mut router = Router::new(config)?;
    eprintln!(
        "analyzing {} files across {} shards",
        payload.len(),
        router.shard_count()
    );
    let report = router.analyze(payload)?;
    for note in &report.notes {
        eprintln!("bivc: fleet: {note}");
    }
    // The one-line batch summary (greppable by smoke tests): a warm
    // failover shows up here as `0 analyzed` with everything cached.
    let mut summary = format!(
        "bivc: fleet: {} functions, {} analyzed, {} cached",
        report.functions, report.analyzed, report.cached
    );
    if report.backoff_exhausted > 0 {
        summary.push_str(&format!(", {} backoff-exhausted", report.backoff_exhausted));
    }
    if !report.dead_shards.is_empty() {
        summary.push_str(&format!(", {} dead shard(s)", report.dead_shards.len()));
    }
    eprintln!("{summary}");
    errors.extend(report.errors.into_iter().map(|e| e.message));
    Ok(report.output)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.optimize {
        return match run_optimize(&opts) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE, // errors / failed validations on stderr
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    let multiple_inputs = opts.paths.len() > 1
        || opts
            .paths
            .first()
            .and_then(|p| std::fs::metadata(p).ok())
            .is_some_and(|m| m.is_dir());
    if opts.batch || opts.invariants || multiple_inputs {
        return match run_batch(&opts) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE, // per-file errors already on stderr
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    let source = match opts.paths.first() {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => DEMO.to_string(),
    };
    let t_parse = opts.time.then(Instant::now);
    let program = match parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parse_time = t_parse.map(|t| t.elapsed());
    let mut phase_totals = PhaseTimes::default();
    for func in &program.functions {
        println!("══ function {} ══", func.name());
        if opts.classic {
            let report = biv::classic::detect(func);
            println!(
                "classical detector: {} variables classified",
                report.total()
            );
            for lr in &report.loops {
                for iv in &lr.ivs {
                    println!("    {}: {:?}", func.var_name(iv.var), iv.kind);
                }
            }
        }
        let config = AnalysisConfig {
            budget: opts.budget,
            ..AnalysisConfig::default()
        };
        let analysis = if opts.time {
            let (analysis, times) = analyze_with_times(func, config);
            phase_totals.accumulate(&times);
            analysis
        } else {
            analyze_with(func, config)
        };
        if opts.dot {
            println!("{}", biv::ir::dot::cfg_to_dot(func));
            println!("{}", biv::ssa::ssa_graph_to_dot(analysis.ssa()));
        }
        if opts.ssa {
            println!("{}", biv::ssa::ssa_to_string(analysis.ssa()));
        }
        if opts.classes || opts.trip_counts {
            for (_, info) in analysis.loops() {
                if opts.trip_counts {
                    println!("loop {}: trip count {}", info.name, info.trip_count);
                    if let Some(max) = &info.max_trip_count {
                        println!("    max trip count: {max}");
                    }
                }
                if opts.classes {
                    // `VecMap` iteration is in value-index order.
                    for (v, class) in info.classes.iter() {
                        println!(
                            "    {:<8} => {}",
                            analysis.ssa().value_name(v),
                            describe_class(&analysis, class)
                        );
                    }
                }
            }
        }
        if opts.deps {
            let tester = biv::depend::DependenceTester::new(&analysis);
            let accesses = tester.accesses();
            println!("dependences ({} array references):", accesses.len());
            for s in 0..accesses.len() {
                for d in 0..accesses.len() {
                    let (a, b) = (&accesses[s], &accesses[d]);
                    if a.array != b.array || (!a.is_write && !b.is_write) {
                        continue;
                    }
                    if s == d && !a.is_write {
                        continue;
                    }
                    if let biv::depend::DepTestResult::Dependent(dep) = tester.test(s, d) {
                        let array = analysis.ssa().func().array_name(a.array);
                        println!(
                            "    {array}: {} {} {}",
                            dep.kind,
                            dep.directions,
                            if dep.exact { "" } else { "(assumed)" }
                        );
                    }
                }
            }
        }
    }
    if let Some(parse) = parse_time {
        eprintln!("timing: parse {parse:.3?}, {phase_totals}");
    }
    ExitCode::SUCCESS
}
