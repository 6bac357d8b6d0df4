//! A blocking `bivd` client: one connection, framed request/response
//! pairs, and a bounded busy-retry loop for analyze submissions.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use crate::net::{Conn, Endpoint};
use crate::proto::{AnalyzeFile, Request, Response};

/// How many `busy` rejections an analyze submission tolerates before
/// giving up. With the server's `retry_after_ms` hints this spans
/// multiple seconds of sustained overload. This is a hard cap: jitter
/// stretches individual sleeps but never adds attempts.
const MAX_BUSY_RETRIES: u32 = 10;

/// Cap on the *cumulative* time one request may spend asleep between
/// busy retries. The per-attempt cap bounds each sleep, but a server
/// hinting large `retry_after_ms` values could still stretch ten
/// retries toward two minutes; past this budget the request gives up
/// and surfaces the final `busy` to the caller instead.
const MAX_BUSY_WAIT: Duration = Duration::from_secs(30);

/// Process-wide count of requests that gave up on busy backoff — either
/// the retry count or the cumulative sleep budget ran out.
static BACKOFF_EXHAUSTED: AtomicU64 = AtomicU64::new(0);

/// How many requests (in this process) exhausted their busy backoff
/// budget — `bivc --remote` and every fleet router group alike.
pub fn backoff_exhausted() -> u64 {
    BACKOFF_EXHAUSTED.load(Ordering::Relaxed)
}

/// How large the attempt-scaled backoff base may grow, so ten retries
/// against a large hint never add up to minutes of sleeping.
const MAX_BACKOFF_MS: u64 = 10_000;

/// Sleep for a busy retry: the server's hint — floored at 1 ms and
/// scaled by the attempt number — plus up to 50% random jitter, so a
/// herd of clients rejected by the same queue-full burst doesn't
/// re-arrive in lockstep and recreate the burst.
///
/// The floor matters: a server that has served nothing yet can hint
/// `retry_after_ms: 0`, and without it every retry would sleep zero —
/// MAX_BUSY_RETRIES spent hot-looping against a queue that needs time
/// to drain. Growth with the attempt number makes persistent overload
/// progressively cheaper for the server instead of a fixed-rate hammer.
///
/// The jitter source is a tiny SplitMix64 step seeded from the process
/// id and attempt number — decorrelated across clients, yet
/// reproducible within one (no global RNG state, no new dependency).
///
/// Public so retry loops outside [`Client::analyze_with`] — replica
/// pushes — pace themselves the same way.
pub fn busy_backoff(hint_ms: u64, attempt: u32) -> Duration {
    let base = hint_ms
        .max(1)
        .saturating_mul(u64::from(attempt.max(1)))
        .min(MAX_BACKOFF_MS);
    let mut x = (u64::from(std::process::id()) << 32) ^ u64::from(attempt);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let jitter = x % (base / 2 + 1);
    Duration::from_millis(base + jitter)
}

/// A connected client.
pub struct Client {
    conn: Conn,
    max_frame_bytes: usize,
}

impl Client {
    /// Dials the endpoint.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            conn: Conn::connect(endpoint)?,
            max_frame_bytes: MAX_FRAME_BYTES,
        })
    }

    /// Dials the endpoint with a deadline on both the connect and every
    /// subsequent read, so one unreachable or wedged server degrades
    /// that call instead of hanging the caller. This is what `bivctl
    /// stats` and the gossip loop use.
    pub fn connect_timeout(endpoint: &Endpoint, timeout: Duration) -> io::Result<Client> {
        let conn = Conn::connect_timeout(endpoint, timeout)?;
        conn.set_read_timeout(Some(timeout))?;
        Ok(Client {
            conn,
            max_frame_bytes: MAX_FRAME_BYTES,
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.conn, &request.encode())?;
        let payload = read_frame(&mut self.conn, self.max_frame_bytes)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })?;
        Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Submits files for analysis, honoring `busy` backpressure by
    /// sleeping for the server's hint and retrying, a bounded number of
    /// times.
    pub fn analyze(
        &mut self,
        files: Vec<AnalyzeFile>,
        cache_cap: Option<usize>,
    ) -> io::Result<Response> {
        self.analyze_with(files, cache_cap, false)
    }

    /// [`Client::analyze`] with invariant rendering chosen (the
    /// `invariants` request field). This is the one busy-backoff loop:
    /// at most 10 retries and 30 s of cumulative sleep; past either, the
    /// final `busy` is returned and counted in [`backoff_exhausted`].
    /// The fleet router submits every shard group through it.
    pub fn analyze_with(
        &mut self,
        files: Vec<AnalyzeFile>,
        cache_cap: Option<usize>,
        invariants: bool,
    ) -> io::Result<Response> {
        let request = Request::Analyze {
            files,
            cache_cap,
            invariants,
        };
        let mut retries = 0;
        let mut slept = Duration::ZERO;
        loop {
            match self.request(&request)? {
                Response::Busy { retry_after_ms } => {
                    let pause = busy_backoff(retry_after_ms, retries + 1);
                    if retries >= MAX_BUSY_RETRIES || slept + pause > MAX_BUSY_WAIT {
                        BACKOFF_EXHAUSTED.fetch_add(1, Ordering::Relaxed);
                        return Ok(Response::Busy { retry_after_ms });
                    }
                    retries += 1;
                    slept += pause;
                    std::thread::sleep(pause);
                }
                response => return Ok(response),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_backoff_stays_within_scaled_hint_plus_half() {
        for hint in [0u64, 1, 25, 1000] {
            for attempt in 1..=MAX_BUSY_RETRIES {
                let base = hint
                    .max(1)
                    .saturating_mul(u64::from(attempt))
                    .min(MAX_BACKOFF_MS);
                let d = busy_backoff(hint, attempt);
                assert!(
                    d >= Duration::from_millis(base),
                    "hint={hint} attempt={attempt}"
                );
                assert!(
                    d <= Duration::from_millis(base + base / 2),
                    "hint={hint} attempt={attempt} slept {d:?}"
                );
            }
        }
    }

    #[test]
    fn busy_backoff_hint_zero_never_hot_loops() {
        // A zero hint used to yield `x % 1 == 0` jitter and a
        // zero-length sleep — MAX_BUSY_RETRIES spent spinning. Pin the
        // floor and the growth.
        let mut prev = Duration::ZERO;
        for attempt in 1..=MAX_BUSY_RETRIES {
            let d = busy_backoff(0, attempt);
            assert!(
                d >= Duration::from_millis(1),
                "attempt {attempt} slept {d:?}"
            );
            assert!(
                d >= Duration::from_millis(u64::from(attempt)),
                "base grows with the attempt number: attempt {attempt} slept {d:?}"
            );
            assert!(d >= prev.min(Duration::from_millis(u64::from(attempt))));
            prev = d;
        }
        // The growth is capped: a huge hint late in the retry budget
        // stays within MAX_BACKOFF_MS plus jitter.
        let d = busy_backoff(5_000, MAX_BUSY_RETRIES);
        assert!(d <= Duration::from_millis(MAX_BACKOFF_MS + MAX_BACKOFF_MS / 2));
    }

    #[test]
    fn cumulative_budget_binds_before_the_retry_count_on_large_hints() {
        // With a server hinting the per-attempt maximum every time, the
        // cumulative sleep budget must cut the loop off before all ten
        // retries run — otherwise one request could sleep for minutes.
        let mut slept = Duration::ZERO;
        let mut attempts = 0;
        for attempt in 1..=MAX_BUSY_RETRIES {
            let pause = busy_backoff(MAX_BACKOFF_MS, attempt);
            if slept + pause > MAX_BUSY_WAIT {
                break;
            }
            slept += pause;
            attempts = attempt;
        }
        assert!(
            attempts < MAX_BUSY_RETRIES,
            "budget never bound: slept {slept:?} over {attempts} attempts"
        );
        assert!(slept <= MAX_BUSY_WAIT);
    }

    #[test]
    fn busy_past_the_retry_budget_is_returned_and_counted_once() {
        // A server that answers every frame `busy` with a zero hint: the
        // client retries exactly MAX_BUSY_RETRIES times (a few ms of
        // floored sleeps), then hands back the last `busy`.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let busy = Response::Busy { retry_after_ms: 0 }.encode();
            let mut frames = 0u32;
            while read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().is_some() {
                frames += 1;
                write_frame(&mut stream, &busy).unwrap();
            }
            frames
        });
        let before = backoff_exhausted();
        let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).unwrap();
        let reply = client.analyze(Vec::new(), None).unwrap();
        assert_eq!(reply, Response::Busy { retry_after_ms: 0 });
        assert!(backoff_exhausted() > before);
        drop(client);
        assert_eq!(server.join().unwrap(), MAX_BUSY_RETRIES + 1);
    }
}
