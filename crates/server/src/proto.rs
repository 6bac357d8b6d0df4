//! The `bivd` wire protocol: typed requests and responses with JSON
//! encoding.
//!
//! Every frame carries one JSON object. Requests name their operation
//! in `"op"`; responses always carry `"ok"` so clients can branch
//! without knowing every error shape. The protocol is deliberately
//! small:
//!
//! | request | response |
//! |---------|----------|
//! | `{"op":"ping"}` | `{"ok":true,"op":"pong"}` |
//! | `{"op":"analyze","files":[{"path","source"},…],"cache_cap"?,"invariants"?}` | `{"ok":true,"op":"analyze","output",…,"errors":[…],"files":[{"bytes","hashes"},…]}` |
//! | `{"op":"preload","dir":PATH}` | `{"ok":true,"op":"preload","loaded":N}` |
//! | `{"op":"stats"}` | `{"ok":true,"op":"stats","stats":{…}}` |
//! | `{"op":"gossip","from"?,"view":{…}}` | `{"ok":true,"op":"gossip","view":{…}}` |
//! | `{"op":"members"}` | `{"ok":true,"op":"members","view":{…}}` |
//! | `{"op":"replicate","entries":[{"hash","summary"},…]}` | `{"ok":true,"op":"replicate","stored":N}` |
//! | `{"op":"shutdown"}` | `{"ok":true,"op":"shutdown"}`, then drain |
//!
//! `"invariants":true` renders each loop's verified invariant lines;
//! absent or `null` means off, anything else is rejected.
//!
//! Failure responses are `{"ok":false,"error":KIND,…}`; the `busy`
//! kind additionally carries `retry_after_ms` — the server's explicit
//! backpressure signal.
//!
//! An analyze reply's `files` describe its `output` per request file:
//! the byte length of the file's `══ path ══` block (0 for a file that
//! failed to parse, whose message is the next `errors` entry) and the
//! structural hashes of its functions. The fleet router cuts each
//! shard's reply into per-file blocks by these spans, reassembles them
//! in input order and replays the cold stats line over the whole batch
//! itself — byte-identical to one local run, no matter how files were
//! sharded. There is one analyze op; a router and its shards are
//! upgraded together.

use crate::json::Json;

/// One input file in an analyze request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeFile {
    /// Display path, echoed in the rendered per-file headers.
    pub path: String,
    /// The file's source text.
    pub source: String,
}

/// One replicated summary inside a [`Request::Replicate`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaEntry {
    /// The structural hash the summary is stored under.
    pub hash: u64,
    /// The `biv-store` codec encoding of the summary (hex on the wire).
    pub bytes: Vec<u8>,
}

/// A request frame.
///
/// (`PartialEq` only: gossip frames carry a [`Json`] view, and JSON
/// floats have no total equality.)
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Analyze a batch of files.
    Analyze {
        /// Files in output order.
        files: Vec<AnalyzeFile>,
        /// The client's structural-cache capacity, used only to render
        /// the deterministic cold-run stats line (the server's actual
        /// cache is sized server-side). `None` means the default.
        cache_cap: Option<usize>,
        /// Render each loop's verified polynomial invariants (the
        /// optional `invariants` field on the wire). Summaries always
        /// carry their invariants either way, so flag state never
        /// affects what gets cached or stored.
        invariants: bool,
    },
    /// Preload the server's cache from a drained shard's store
    /// snapshot directory — the warm-handoff half of a fleet rebalance.
    Preload {
        /// Directory of the departing shard's flushed store.
        dir: String,
    },
    /// Fetch live server metrics.
    Stats,
    /// A membership heartbeat: the sender's view of the fleet. The
    /// receiver merges it and answers its own (merged) view, so every
    /// exchange converges both sides.
    Gossip {
        /// The sending shard's id, when the sender is a fleet member
        /// (refreshes its liveness directly). Tools bridging views —
        /// `bivctl join` — omit it.
        from: Option<u32>,
        /// The sender's membership view (see `biv_fleet::membership`).
        view: Json,
    },
    /// Fetch the server's membership view without offering one — how a
    /// router bootstraps the ring from a single seed endpoint.
    Members,
    /// Replica write-through: committed summaries pushed from a key's
    /// primary so a failover read is warm instead of recomputed.
    Replicate {
        /// The summaries to commit, codec-encoded.
        entries: Vec<ReplicaEntry>,
    },
    /// Begin graceful drain: finish accepted work, then exit.
    Shutdown,
}

/// A per-file failure inside an otherwise successful analyze response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileError {
    /// The failing file's display path.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

/// One request file's share of an analyze response (see the module
/// docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileBlock {
    /// UTF-8 byte length of the file's block in `output`; the blocks
    /// tile `output` from its start in request order. 0 when the file
    /// failed to parse.
    pub bytes: usize,
    /// Structural hashes of the file's functions in render order
    /// (16 hex digits each on the wire — they do not fit a JSON
    /// `i64`). The router concatenates these across shards in input
    /// order to replay the whole batch's cold stats line.
    pub hashes: Vec<u64>,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Analyze`].
    Analyze {
        /// The rendered batch report — byte-identical to a local
        /// `bivc` batch run over the same readable, parsable files.
        output: String,
        /// Functions analyzed or served from cache.
        functions: usize,
        /// Distinct structures actually analyzed for this request.
        analyzed: usize,
        /// Functions served from the warm shared cache.
        cached: usize,
        /// Files that failed to parse; the rest were still analyzed.
        errors: Vec<FileError>,
        /// One entry per request file, in request order.
        files: Vec<FileBlock>,
    },
    /// Reply to [`Request::Preload`].
    PreloadAck {
        /// Summaries inserted into this server's cache tiers.
        loaded: usize,
    },
    /// Reply to [`Request::Stats`] — a self-describing metrics object.
    Stats(Json),
    /// Reply to [`Request::Gossip`]: the receiver's view after merging
    /// the sender's.
    Gossip {
        /// The merged membership view.
        view: Json,
    },
    /// Reply to [`Request::Members`].
    Members {
        /// The server's current membership view.
        view: Json,
    },
    /// Reply to [`Request::Replicate`].
    ReplicateAck {
        /// Summaries committed into this server's cache tiers.
        stored: usize,
    },
    /// Acknowledgement of [`Request::Shutdown`].
    ShutdownAck,
    /// Backpressure: the bounded queue is full; retry after the hint.
    Busy {
        /// Suggested client-side delay before retrying.
        retry_after_ms: u64,
    },
    /// Any other failure.
    Error {
        /// Stable machine-readable kind (`bad-request`, `timeout`,
        /// `draining`, …).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

/// A malformed frame at the protocol layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn bad(message: impl Into<String>) -> ProtoError {
    ProtoError(message.into())
}

fn encode_files(files: &[AnalyzeFile]) -> Json {
    Json::Arr(
        files
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("path", Json::Str(f.path.clone())),
                    ("source", Json::Str(f.source.clone())),
                ])
            })
            .collect(),
    )
}

/// Moves the value of `key` out of an object — the entry
/// [`Json::get`] would find — leaving `null` in its place. Decoders
/// take strings out of the parsed tree this way instead of copying
/// them.
fn take(json: &mut Json, key: &str) -> Option<Json> {
    match json {
        Json::Obj(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Json::Null)),
        _ => None,
    }
}

/// [`take`] for a string value; `None` when absent or not a string.
fn take_str(json: &mut Json, key: &str) -> Option<String> {
    match take(json, key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// [`take`] for an array value; `None` when absent or not an array.
fn take_arr(json: &mut Json, key: &str) -> Option<Vec<Json>> {
    match take(json, key)? {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

fn decode_files(json: &mut Json) -> Result<Vec<AnalyzeFile>, ProtoError> {
    take_arr(json, "files")
        .ok_or_else(|| bad("analyze needs a `files` array"))?
        .into_iter()
        .map(|mut f| {
            let path = take_str(&mut f, "path").ok_or_else(|| bad("file entry needs `path`"))?;
            let source =
                take_str(&mut f, "source").ok_or_else(|| bad("file entry needs `source`"))?;
            Ok(AnalyzeFile { path, source })
        })
        .collect()
}

fn decode_cache_cap(json: &Json) -> Result<Option<usize>, ProtoError> {
    match json.get("cache_cap") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => Ok(Some(
            v.as_i64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| bad("`cache_cap` must be a non-negative integer"))?,
        )),
    }
}

/// Encodes an analyze request. Optional fields are written only when
/// set, so a plain request's bytes carry neither.
fn encode_analyze(files: &[AnalyzeFile], cache_cap: Option<usize>, invariants: bool) -> Json {
    let mut pairs = vec![
        ("op", Json::Str("analyze".into())),
        ("files", encode_files(files)),
    ];
    if let Some(cap) = cache_cap {
        pairs.push(("cache_cap", Json::Int(cap as i64)));
    }
    if invariants {
        pairs.push(("invariants", Json::Bool(true)));
    }
    Json::obj(pairs)
}

/// The optional `invariants` flag: absent or `null` is off, a
/// non-boolean is a protocol error.
fn decode_invariants(json: &Json) -> Result<bool, ProtoError> {
    match json.get("invariants") {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| bad("`invariants` must be a boolean")),
    }
}

fn decode_u32(json: &Json, key: &str) -> Result<u32, ProtoError> {
    json.get(key)
        .and_then(Json::as_i64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| bad(format!("`{key}` must be a u32")))
}

/// A structural hash on the wire: exactly 16 hex digits.
fn decode_hash(json: &Json) -> Option<u64> {
    let text = json.as_str()?;
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Result<Vec<u8>, ProtoError> {
    if !text.len().is_multiple_of(2) {
        return Err(bad("hex payload has odd length"));
    }
    text.as_bytes()
        .chunks(2)
        .map(|pair| {
            let s = std::str::from_utf8(pair).map_err(|_| bad("hex payload is not ASCII"))?;
            u8::from_str_radix(s, 16).map_err(|_| bad("bad hex digit in payload"))
        })
        .collect()
}

impl Request {
    /// Encodes to a JSON frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Request::Ping => Json::obj(vec![("op", Json::Str("ping".into()))]),
            Request::Stats => Json::obj(vec![("op", Json::Str("stats".into()))]),
            Request::Shutdown => Json::obj(vec![("op", Json::Str("shutdown".into()))]),
            Request::Analyze {
                files,
                cache_cap,
                invariants,
            } => encode_analyze(files, *cache_cap, *invariants),
            Request::Preload { dir } => Json::obj(vec![
                ("op", Json::Str("preload".into())),
                ("dir", Json::Str(dir.clone())),
            ]),
            Request::Gossip { from, view } => {
                let mut pairs = vec![("op", Json::Str("gossip".into()))];
                if let Some(id) = from {
                    pairs.push(("from", Json::Int(i64::from(*id))));
                }
                pairs.push(("view", view.clone()));
                Json::obj(pairs)
            }
            Request::Members => Json::obj(vec![("op", Json::Str("members".into()))]),
            Request::Replicate { entries } => Json::obj(vec![
                ("op", Json::Str("replicate".into())),
                (
                    "entries",
                    Json::Arr(
                        entries
                            .iter()
                            .map(|e| {
                                Json::obj(vec![
                                    ("hash", Json::Str(format!("{:016x}", e.hash))),
                                    ("summary", Json::Str(hex_encode(&e.bytes))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        json.to_text().into_bytes()
    }

    /// Decodes a request frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let text = std::str::from_utf8(payload).map_err(|_| bad("frame is not UTF-8"))?;
        let mut json = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        let op = take_str(&mut json, "op").ok_or_else(|| bad("missing `op`"))?;
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "analyze" => Ok(Request::Analyze {
                files: decode_files(&mut json)?,
                cache_cap: decode_cache_cap(&json)?,
                invariants: decode_invariants(&json)?,
            }),
            "preload" => Ok(Request::Preload {
                dir: take_str(&mut json, "dir").ok_or_else(|| bad("preload needs `dir`"))?,
            }),
            "gossip" => {
                let from = match json.get("from") {
                    None | Some(Json::Null) => None,
                    Some(_) => Some(decode_u32(&json, "from")?),
                };
                let view =
                    take(&mut json, "view").ok_or_else(|| bad("gossip needs a `view` object"))?;
                if view.get("members").and_then(Json::as_arr).is_none() {
                    return Err(bad("gossip `view` needs a `members` array"));
                }
                Ok(Request::Gossip { from, view })
            }
            "members" => Ok(Request::Members),
            "replicate" => {
                let entries = json
                    .get("entries")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("replicate needs an `entries` array"))?
                    .iter()
                    .map(|e| {
                        let hash = e.get("hash").and_then(decode_hash);
                        let hash =
                            hash.ok_or_else(|| bad("replica entries carry a 16-digit hex `hash`"))?;
                        let bytes = hex_decode(
                            e.get("summary")
                                .and_then(Json::as_str)
                                .ok_or_else(|| bad("replica entries carry a hex `summary`"))?,
                        )?;
                        Ok(ReplicaEntry { hash, bytes })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                Ok(Request::Replicate { entries })
            }
            other => Err(bad(format!("unknown op `{other}`"))),
        }
    }
}

impl Response {
    /// Encodes to a JSON frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let json = match self {
            Response::Pong => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("pong".into())),
            ]),
            Response::ShutdownAck => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("shutdown".into())),
            ]),
            Response::Stats(stats) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("stats".into())),
                ("stats", stats.clone()),
            ]),
            Response::Analyze {
                output,
                functions,
                analyzed,
                cached,
                errors,
                files,
            } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("analyze".into())),
                ("output", Json::Str(output.clone())),
                ("functions", Json::Int(*functions as i64)),
                ("analyzed", Json::Int(*analyzed as i64)),
                ("cached", Json::Int(*cached as i64)),
                (
                    "errors",
                    Json::Arr(
                        errors
                            .iter()
                            .map(|e| {
                                Json::obj(vec![
                                    ("path", Json::Str(e.path.clone())),
                                    ("message", Json::Str(e.message.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "files",
                    Json::Arr(
                        files
                            .iter()
                            .map(|f| {
                                let hashes =
                                    f.hashes.iter().map(|h| Json::Str(format!("{h:016x}")));
                                Json::obj(vec![
                                    ("bytes", Json::Int(f.bytes as i64)),
                                    ("hashes", Json::Arr(hashes.collect())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::PreloadAck { loaded } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("preload".into())),
                ("loaded", Json::Int(*loaded as i64)),
            ]),
            Response::Gossip { view } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("gossip".into())),
                ("view", view.clone()),
            ]),
            Response::Members { view } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("members".into())),
                ("view", view.clone()),
            ]),
            Response::ReplicateAck { stored } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("replicate".into())),
                ("stored", Json::Int(*stored as i64)),
            ]),
            Response::Busy { retry_after_ms } => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str("busy".into())),
                ("retry_after_ms", Json::Int(*retry_after_ms as i64)),
            ]),
            Response::Error { kind, message } => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str(kind.clone())),
                ("message", Json::Str(message.clone())),
            ]),
        };
        json.to_text().into_bytes()
    }

    /// Decodes a response frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let text = std::str::from_utf8(payload).map_err(|_| bad("frame is not UTF-8"))?;
        let mut json = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        let ok = json
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| bad("missing `ok`"))?;
        if !ok {
            let kind =
                take_str(&mut json, "error").ok_or_else(|| bad("failure without `error`"))?;
            if kind == "busy" {
                let retry_after_ms = json
                    .get("retry_after_ms")
                    .and_then(Json::as_i64)
                    .unwrap_or(50)
                    .max(0) as u64;
                return Ok(Response::Busy { retry_after_ms });
            }
            let message = take_str(&mut json, "message").unwrap_or_default();
            return Ok(Response::Error { kind, message });
        }
        let op = take_str(&mut json, "op").ok_or_else(|| bad("success without `op`"))?;
        match op.as_str() {
            "pong" => Ok(Response::Pong),
            "shutdown" => Ok(Response::ShutdownAck),
            "stats" => Ok(Response::Stats(
                take(&mut json, "stats").unwrap_or(Json::Null),
            )),
            "analyze" => {
                let output = take_str(&mut json, "output")
                    .ok_or_else(|| bad("analyze response needs `output`"))?;
                let errors = take_arr(&mut json, "errors")
                    .unwrap_or_default()
                    .into_iter()
                    .map(|mut e| {
                        Ok(FileError {
                            path: take_str(&mut e, "path")
                                .ok_or_else(|| bad("error entry needs `path`"))?,
                            message: take_str(&mut e, "message").unwrap_or_default(),
                        })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                // Absent from a reply older than the field: empty, which
                // the fleet router refuses and `--remote` never reads.
                let files = json
                    .get("files")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|f| {
                        let bytes = f
                            .get("bytes")
                            .and_then(Json::as_i64)
                            .and_then(|n| usize::try_from(n).ok())
                            .ok_or_else(|| bad("file block needs a non-negative `bytes`"))?;
                        let hashes = f
                            .get("hashes")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| bad("file block needs `hashes`"))?
                            .iter()
                            .map(|h| {
                                decode_hash(h)
                                    .ok_or_else(|| bad("hash entries are 16-digit hex strings"))
                            })
                            .collect::<Result<Vec<u64>, ProtoError>>()?;
                        Ok(FileBlock { bytes, hashes })
                    })
                    .collect::<Result<Vec<_>, ProtoError>>()?;
                let int = |key: &str| {
                    json.get(key)
                        .and_then(Json::as_i64)
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(|| bad(format!("analyze response needs `{key}`")))
                };
                Ok(Response::Analyze {
                    output,
                    functions: int("functions")?,
                    analyzed: int("analyzed")?,
                    cached: int("cached")?,
                    errors,
                    files,
                })
            }
            "preload" => Ok(Response::PreloadAck {
                loaded: json
                    .get("loaded")
                    .and_then(Json::as_i64)
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| bad("preload response needs `loaded`"))?,
            }),
            "gossip" => Ok(Response::Gossip {
                view: take(&mut json, "view").ok_or_else(|| bad("gossip response needs `view`"))?,
            }),
            "members" => Ok(Response::Members {
                view: take(&mut json, "view")
                    .ok_or_else(|| bad("members response needs `view`"))?,
            }),
            "replicate" => Ok(Response::ReplicateAck {
                stored: json
                    .get("stored")
                    .and_then(Json::as_i64)
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| bad("replicate response needs `stored`"))?,
            }),
            other => Err(bad(format!("unknown response op `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Analyze {
                files: vec![AnalyzeFile {
                    path: "dir/x.biv".into(),
                    source: "func f(n) { L1: for i = 1 to n { A[i] = i } }\n".into(),
                }],
                cache_cap: Some(16),
                invariants: false,
            },
            Request::Analyze {
                files: vec![],
                cache_cap: None,
                invariants: false,
            },
            Request::Analyze {
                files: vec![AnalyzeFile {
                    path: "sums.biv".into(),
                    source: "func f(n) { i = 1 s = 0 loop { s = s + i i = i + 1 if i > n { break } } }\n".into(),
                }],
                cache_cap: Some(8),
                invariants: true,
            },
            Request::Preload {
                dir: "/var/lib/biv/shard-1".into(),
            },
            Request::Members,
            Request::Gossip {
                from: Some(2),
                view: Json::obj(vec![
                    ("version", Json::Int(7)),
                    ("members", Json::Arr(vec![])),
                ]),
            },
            Request::Gossip {
                from: None,
                view: Json::obj(vec![("members", Json::Arr(vec![]))]),
            },
            Request::Replicate {
                entries: vec![
                    ReplicaEntry {
                        hash: 0xdead_beef_0102_0304,
                        bytes: vec![0x00, 0x01, 0xfe, 0xff],
                    },
                    ReplicaEntry {
                        hash: u64::MAX,
                        bytes: vec![],
                    },
                ],
            },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn invariants_flag_is_an_optional_analyze_field() {
        let req = Request::Analyze {
            files: vec![],
            cache_cap: None,
            invariants: true,
        };
        let text = String::from_utf8(req.encode()).unwrap();
        assert_eq!(text, r#"{"op":"analyze","files":[],"invariants":true}"#);
        // Off, the flag is not written: a plain request's bytes are the
        // same as before the flag existed.
        let plain = Request::Analyze {
            files: vec![],
            cache_cap: Some(4),
            invariants: false,
        };
        let text = String::from_utf8(plain.encode()).unwrap();
        assert_eq!(text, r#"{"op":"analyze","files":[],"cache_cap":4}"#);
        let null = br#"{"op":"analyze","files":[],"invariants":null}"#;
        assert_eq!(
            Request::decode(null).unwrap(),
            Request::Analyze {
                files: vec![],
                cache_cap: None,
                invariants: false,
            }
        );
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Pong,
            Response::ShutdownAck,
            Response::Busy { retry_after_ms: 75 },
            Response::Error {
                kind: "timeout".into(),
                message: "request exceeded 30s".into(),
            },
            Response::Stats(Json::obj(vec![("requests", Json::Int(3))])),
            Response::Analyze {
                output: "══ x.biv ══\nfunc f [0000000000000000]\nbatch: 1 functions\n".into(),
                functions: 1,
                analyzed: 1,
                cached: 0,
                errors: vec![FileError {
                    path: "bad.biv".into(),
                    message: "bad.biv: parse error: …".into(),
                }],
                files: vec![
                    FileBlock {
                        bytes: 45,
                        hashes: vec![123456789, u64::MAX],
                    },
                    FileBlock::default(),
                ],
            },
            Response::PreloadAck { loaded: 42 },
            Response::Gossip {
                view: Json::obj(vec![
                    ("version", Json::Int(3)),
                    ("members", Json::Arr(vec![])),
                ]),
            },
            Response::Members {
                view: Json::obj(vec![("members", Json::Arr(vec![]))]),
            },
            Response::ReplicateAck { stored: 9 },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn malformed_frames_fail_cleanly() {
        assert!(Request::decode(b"not json").is_err());
        assert!(Request::decode(b"{}").is_err());
        assert!(Request::decode(br#"{"op":"launch-missiles"}"#).is_err());
        assert!(Request::decode(br#"{"op":"analyze"}"#).is_err());
        assert!(Response::decode(br#"{"op":"pong"}"#).is_err());
        assert!(Request::decode(&[0xff, 0xfe]).is_err());
        assert!(Request::decode(br#"{"op":"preload"}"#).is_err());
        // `invariants` is a field, not an op, and must be a boolean.
        assert!(Request::decode(br#"{"op":"invariants","files":[]}"#).is_err());
        assert!(Request::decode(br#"{"op":"analyze","files":[],"invariants":"yes"}"#).is_err());
        assert!(Response::decode(br#"{"ok":true,"op":"preload"}"#).is_err());
        // Membership and replication frames: a gossip without a view
        // (or with a view that has no member list), replica entries
        // with bad hex, and truncated responses all fail as protocol
        // errors.
        assert!(Request::decode(br#"{"op":"gossip"}"#).is_err());
        assert!(Request::decode(br#"{"op":"gossip","view":{"version":1}}"#).is_err());
        assert!(Request::decode(br#"{"op":"replicate"}"#).is_err());
        assert!(
            Request::decode(br#"{"op":"replicate","entries":[{"hash":"zz","summary":""}]}"#)
                .is_err()
        );
        assert!(Request::decode(
            br#"{"op":"replicate","entries":[{"hash":"0000000000000001","summary":"abc"}]}"#
        )
        .is_err());
        assert!(Request::decode(
            br#"{"op":"replicate","entries":[{"hash":"0000000000000001","summary":"zz"}]}"#
        )
        .is_err());
        assert!(Response::decode(br#"{"ok":true,"op":"members"}"#).is_err());
        assert!(Response::decode(br#"{"ok":true,"op":"replicate"}"#).is_err());
    }

    /// The exact wire bytes of one analyze exchange. Routers and shards
    /// of different builds share this wire, so a codec change must not
    /// move a byte of it.
    #[test]
    fn analyze_request_and_reply_bytes_are_pinned() {
        let path = "dir/a \"q\".biv";
        let request = Request::Analyze {
            files: vec![
                AnalyzeFile {
                    path: path.into(),
                    source: "func f(n) {\n\tL1: for i = 1 to n { A[i] = i }\n}\n\
                             // é ✓ 😀 \\ \u{7f}\u{1}\u{1b}\u{8}\u{c}\r\n"
                        .into(),
                },
                AnalyzeFile {
                    path: "bad.biv".into(),
                    source: "}".into(),
                },
            ],
            cache_cap: Some(64),
            invariants: true,
        };
        let wire = concat!(
            r#"{"op":"analyze","files":[{"path":"dir/a \"q\".biv","#,
            r#""source":"func f(n) {\n\tL1: for i = 1 to n { A[i] = i }\n}\n// é ✓ 😀 \\ "#,
            "\u{7f}",
            r#"\u0001\u001b\b\f\r\n"},{"path":"bad.biv","source":"}"}],"#,
            r#""cache_cap":64,"invariants":true}"#,
        );
        assert_eq!(String::from_utf8(request.encode()).unwrap(), wire);
        assert_eq!(Request::decode(wire.as_bytes()).unwrap(), request);

        let block = "══ dir/a \"q\".biv ══\nfunc f [ef39c1f3ea939019]\n  \
                     loop L1: trip count %0\n    %1       => (L1, 1, 1)\n";
        let reply = Response::Analyze {
            output: format!("{block}batch: 1 functions, 1 analyzed, 0 cache hits, 0 evictions\n"),
            functions: 1,
            analyzed: 1,
            cached: 0,
            errors: vec![FileError {
                path: "bad.biv".into(),
                message: "bad.biv: parse error: line 1: unexpected `}`".into(),
            }],
            files: vec![
                FileBlock {
                    bytes: block.len(),
                    hashes: vec![0xef39_c1f3_ea93_9019],
                },
                FileBlock::default(),
            ],
        };
        let wire = concat!(
            r#"{"ok":true,"op":"analyze","output":"══ dir/a \"q\".biv ══\nfunc f [ef39c1f3ea939019]\n"#,
            r#"  loop L1: trip count %0\n    %1       => (L1, 1, 1)\n"#,
            r#"batch: 1 functions, 1 analyzed, 0 cache hits, 0 evictions\n","#,
            r#""functions":1,"analyzed":1,"cached":0,"#,
            r#""errors":[{"path":"bad.biv","message":"bad.biv: parse error: line 1: unexpected `}`"}],"#,
            r#""files":[{"bytes":106,"hashes":["ef39c1f3ea939019"]},{"bytes":0,"hashes":[]}]}"#,
        );
        assert_eq!(String::from_utf8(reply.encode()).unwrap(), wire);
        assert_eq!(Response::decode(wire.as_bytes()).unwrap(), reply);
    }

    #[test]
    fn analyze_fleet_is_an_unknown_op() {
        // One analyze op: the old fleet request shape is refused by
        // name, so a router from before the fold fails loudly.
        let old = br#"{"op":"analyze_fleet","files":[],"cache_cap":4}"#;
        assert_eq!(
            Request::decode(old).unwrap_err(),
            ProtoError("unknown op `analyze_fleet`".into())
        );
    }

    #[test]
    fn analyze_file_blocks_are_checked_on_decode() {
        let reply = |files: &str| {
            format!(
                r#"{{"ok":true,"op":"analyze","output":"","functions":0,"analyzed":0,"cached":0,"errors":[],"files":{files}}}"#
            )
        };
        let good = reply(r#"[{"bytes":12,"hashes":["00000000075bcd15"]},{"bytes":0,"hashes":[]}]"#);
        let Response::Analyze { files, .. } = Response::decode(good.as_bytes()).unwrap() else {
            panic!("expected an analyze reply");
        };
        assert_eq!(
            files,
            vec![
                FileBlock {
                    bytes: 12,
                    hashes: vec![123456789],
                },
                FileBlock::default(),
            ]
        );
        for bad_files in [
            r#"[{"bytes":-1,"hashes":[]}]"#,
            r#"[{"bytes":1.5,"hashes":[]}]"#,
            r#"[{"hashes":[]}]"#,
            r#"[{"bytes":3}]"#,
            r#"[{"bytes":3,"hashes":["zz"]}]"#,
            r#"[{"bytes":3,"hashes":["+00000000000000f"]}]"#,
            r#"[{"bytes":3,"hashes":["75bcd15"]}]"#,
            r#"[{"bytes":3,"hashes":[7]}]"#,
        ] {
            assert!(
                Response::decode(reply(bad_files).as_bytes()).is_err(),
                "{bad_files}"
            );
        }
        // A reply from before the field decodes with no blocks.
        let old = br#"{"ok":true,"op":"analyze","output":"x","functions":0,"analyzed":0,"cached":0,"errors":[]}"#;
        let Response::Analyze { files, .. } = Response::decode(old).unwrap() else {
            panic!("expected an analyze reply");
        };
        assert!(files.is_empty());
    }
}
