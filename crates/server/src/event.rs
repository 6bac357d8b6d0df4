//! The network front-end: one thread, a readiness set, every connection
//! nonblocking.
//!
//! The event loop owns *all* connection I/O — accept, framed reads,
//! framed writes — and only analysis leaves the thread, through the
//! bounded queue and the worker pool. Workers hand results back via a
//! completion queue plus a socketpair waker; the loop writes them out
//! when the socket is ready. Ten thousand idle connections cost ten
//! thousand fds and `ConnState`s, not ten thousand threads.
//!
//! Per-connection state machine:
//!
//! ```text
//!   readable ──→ read_buf ──(full frame? no job in flight?)──→ decode
//!      decode ──→ inline (ping/stats/shutdown/members): bytes queued
//!             └─→ queued job: `pending = seq`, decode pauses
//!   completion (worker, via waker) ──(seq matches?)──→ bytes queued
//!                                       └─ stale ──→ late_results
//!   deadline ──→ timeout response queued, job marked stale
//!   bytes queued ──→ optimistic write, write interest while unflushed
//!   read() == 0 ──→ peer_eof: read interest off, close once answered
//! ```
//!
//! Decode pauses while a job is in flight, so each connection sees
//! responses in request order. All response bytes come from
//! [`crate::server::route_request`] and the shared worker pool.
//!
//! Drain: stop accepting, answer every accepted job, reject frames that
//! arrive after drain with an explicit `draining` error, and give
//! mid-frame or unread-response peers a bounded grace before closing on
//! them.
//!
//! Readiness comes from [`crate::readiness`]: epoll on Linux, `poll(2)`
//! on every other unix. The loop is generic over the backend, and is
//! the same state machine on both.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::frame::append_frame;
use crate::net::{Conn, Endpoint, Listener};
use crate::proto::{Request, Response};
use crate::readiness::{Event, Readiness, ERROR, HANGUP, READABLE, WRITABLE};
use crate::server::{
    draining_response, route_request, submit_job, timeout_response, worker_loop, Routed,
    ServeSummary, ServerConfig, Shared,
};

/// Token of the listening socket in the readiness set.
const TOKEN_LISTENER: u64 = 0;
/// Token of the waker's read end.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Read chunk size; one scratch buffer is shared by every connection.
const READ_CHUNK: usize = 64 * 1024;

/// Finished worker results on their way back to the loop: the shared
/// queue plus a nonblocking socketpair whose read end wakes the loop's
/// wait when a byte lands.
struct Completions {
    queue: Mutex<Vec<(u64, u64, Response)>>,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl Completions {
    fn new() -> io::Result<Completions> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Completions {
            queue: Mutex::new(Vec::new()),
            wake_tx,
            wake_rx,
        })
    }

    /// Called from worker threads: park the response, wake the loop.
    /// A worker's reply guard calls this while unwinding, where a second
    /// panic would abort, so a poisoned lock is recovered: a `Vec` push
    /// never leaves the queue half-updated.
    fn push(&self, token: u64, seq: u64, response: Response) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((token, seq, response));
        // `WouldBlock` means the pair's buffer is full of earlier wake
        // bytes, so the loop is already due to wake. Any other failure
        // still leaves the completion visible to the next poll-interval
        // wakeup.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Called from the loop when the waker fired: read it dry. Stopping
    /// early would leave it readable, and the level-triggered wait
    /// would re-fire on it forever.
    fn clear_waker(&self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: empty
            }
        }
    }

    /// Called from the loop: take everything queued.
    fn take(&self) -> Vec<(u64, u64, Response)> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

/// Where a worker delivers one queued job's response: the loop's
/// completion queue, tagged with the connection and request it answers.
pub(crate) struct Reply {
    completions: Arc<Completions>,
    token: u64,
    seq: u64,
}

impl Reply {
    /// Delivers the response. Staleness is the loop's call: it compares
    /// `seq` against the connection's pending job and counts
    /// `late_results` itself.
    pub(crate) fn send(&self, response: Response) {
        self.completions.push(self.token, self.seq, response);
    }
}

/// One connection owned by the loop.
struct ConnState {
    conn: Conn,
    /// Bytes read but not yet decoded (at most one frame boundary
    /// behind, since decode runs whenever no job is in flight).
    read_buf: Vec<u8>,
    /// Encoded response frames not yet written.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been written.
    wpos: usize,
    /// The in-flight job's sequence number, if any. While set, decode
    /// pauses — responses stay in request order.
    pending: Option<u64>,
    /// Sequence numbers distinguish a late result from the answer to a
    /// retransmitted request on the same connection.
    next_seq: u64,
    /// Interest bits currently registered with the readiness set.
    registered: u32,
    /// Close once `write_buf` flushes (post-drain rejection sent).
    close_after_flush: bool,
    /// Drain grace: how long this connection may stay open to finish a
    /// frame or read its last response once drain has begun.
    grace_deadline: Option<Instant>,
    /// Peer closed its write side; close once our answer is out.
    peer_eof: bool,
}

impl ConnState {
    fn new(conn: Conn) -> ConnState {
        ConnState {
            conn,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            wpos: 0,
            pending: None,
            next_seq: 0,
            registered: READABLE,
            close_after_flush: false,
            grace_deadline: None,
            peer_eof: false,
        }
    }

    fn has_unsent(&self) -> bool {
        self.wpos < self.write_buf.len()
    }
}

/// Appends one framed response to the connection's write buffer. A
/// response too large for the length prefix cannot be framed at all,
/// so the connection closes instead.
fn queue_response(c: &mut ConnState, response: &Response) {
    if append_frame(&mut c.write_buf, &response.encode()).is_err() {
        c.close_after_flush = true;
    }
}

/// Writes as much of the buffer as the socket accepts right now.
/// `Ok(true)` means fully flushed; `Err` means the connection died.
fn flush_conn(c: &mut ConnState) -> Result<bool, ()> {
    while c.wpos < c.write_buf.len() {
        match c.conn.write(&c.write_buf[c.wpos..]) {
            Ok(0) => return Err(()),
            Ok(n) => c.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    c.write_buf.clear();
    c.wpos = 0;
    Ok(true)
}

/// Reads everything currently available. `Err` means the connection
/// died, including a frame beyond the size limit.
fn fill_read(c: &mut ConnState, scratch: &mut [u8], max_frame_bytes: usize) -> Result<(), ()> {
    loop {
        match c.conn.read(scratch) {
            Ok(0) => {
                c.peer_eof = true;
                return Ok(());
            }
            Ok(n) => {
                c.read_buf.extend_from_slice(&scratch[..n]);
                if c.read_buf.len() > 4 + max_frame_bytes {
                    return Err(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}

/// Everything the per-connection handlers need besides the connection
/// itself.
struct LoopCtx<'s, 'e, P> {
    shared: &'s Shared<'s>,
    config: &'s ServerConfig,
    poller: &'e mut P,
    completions: &'e Arc<Completions>,
    deadlines: &'e mut BinaryHeap<Reverse<(Instant, u64, u64)>>,
    draining: bool,
}

/// Decodes and serves buffered frames until the buffer runs dry or a
/// job goes in flight. `Err` means the connection must close.
fn pump_frames<P>(ctx: &mut LoopCtx<'_, '_, P>, c: &mut ConnState, token: u64) -> Result<(), ()> {
    while c.pending.is_none() && !c.close_after_flush {
        if c.read_buf.len() < 4 {
            return Ok(());
        }
        let len = u32::from_be_bytes([c.read_buf[0], c.read_buf[1], c.read_buf[2], c.read_buf[3]])
            as usize;
        if len > ctx.config.max_frame_bytes {
            return Err(());
        }
        if c.read_buf.len() < 4 + len {
            return Ok(());
        }
        let payload: Vec<u8> = c.read_buf.drain(..4 + len).skip(4).collect();
        // A frame completed after drain began is answered, not served.
        if ctx.draining {
            queue_response(c, &draining_response());
            c.close_after_flush = true;
            return Ok(());
        }
        let request = match Request::decode(&payload) {
            Ok(request) => {
                ctx.shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                request
            }
            Err(e) => {
                ctx.shared
                    .metrics
                    .bad_requests
                    .fetch_add(1, Ordering::Relaxed);
                queue_response(
                    c,
                    &Response::Error {
                        kind: "bad-request".into(),
                        message: e.to_string(),
                    },
                );
                continue;
            }
        };
        match route_request(ctx.shared, request) {
            Routed::Inline { response, shutdown } => {
                // The response bytes go out first (the ack is queued
                // ahead of the flag flip), then the loop observes drain
                // on its next iteration.
                queue_response(c, &response);
                if shutdown {
                    ctx.shared.shutdown.store(true, Ordering::Relaxed);
                }
            }
            Routed::Queue(kind) => {
                let seq = c.next_seq;
                c.next_seq += 1;
                let reply = Reply {
                    completions: Arc::clone(ctx.completions),
                    token,
                    seq,
                };
                match submit_job(ctx.shared, kind, reply) {
                    Ok(()) => {
                        let deadline = Instant::now() + ctx.config.request_timeout;
                        c.pending = Some(seq);
                        ctx.deadlines.push(Reverse((deadline, token, seq)));
                    }
                    Err(rejection) => queue_response(c, &rejection),
                }
            }
        }
    }
    Ok(())
}

/// Runs a connection's post-event machinery: decode what's buffered,
/// flush what's queued, decide whether it stays open, and keep its
/// readiness interest in sync. Returns `false` when the connection must
/// be dropped.
fn service_conn<P: Readiness>(ctx: &mut LoopCtx<'_, '_, P>, c: &mut ConnState, token: u64) -> bool {
    if pump_frames(ctx, c, token).is_err() {
        return false;
    }
    let flushed = match flush_conn(c) {
        Ok(flushed) => flushed,
        Err(()) => return false,
    };
    if flushed && c.close_after_flush {
        return false;
    }
    if c.peer_eof && c.pending.is_none() && !c.has_unsent() {
        return false;
    }
    if ctx.draining {
        // Fully idle during drain: close. Otherwise the connection is
        // finishing something bounded — a pending job (request
        // deadline), a mid-frame read, or an unread response (both
        // grace) — so give it its grace deadline if it has none yet.
        if c.pending.is_none() && !c.has_unsent() && c.read_buf.is_empty() {
            return false;
        }
        if c.pending.is_none() && c.grace_deadline.is_none() {
            c.grace_deadline = Some(Instant::now() + ctx.config.drain_grace);
        }
    }
    // After EOF the socket stays readable for good; keeping read
    // interest would re-fire every wait while the answer is pending.
    let read = if c.peer_eof { 0 } else { READABLE };
    let want = read | if c.has_unsent() { WRITABLE } else { 0 };
    if want != c.registered {
        if ctx.poller.modify(c.conn.as_raw_fd(), token, want).is_err() {
            return false;
        }
        c.registered = want;
    }
    true
}

/// Serves on readiness backend `P` until drain completes. See the
/// module docs for the design.
pub(crate) fn serve<P: Readiness>(
    listener: Listener,
    config: ServerConfig,
    shutdown: &AtomicBool,
) -> io::Result<ServeSummary> {
    let shared = Shared::open(&config, &listener, shutdown)?;
    let workers = shared.workers;
    listener.set_nonblocking(true)?;
    let mut poller = P::new()?;
    let completions = Arc::new(Completions::new()?);
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, READABLE)?;
    poller.add(completions.wake_rx.as_raw_fd(), TOKEN_WAKER, READABLE)?;

    std::thread::scope(|scope| {
        let shared = &shared;
        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            worker_handles.push(scope.spawn(move || worker_loop(shared)));
        }

        let mut listener = Some(listener);
        let mut conns: HashMap<u64, ConnState> = HashMap::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut deadlines: BinaryHeap<Reverse<(Instant, u64, u64)>> = BinaryHeap::new();
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut draining = false;

        loop {
            if !draining && shutdown.load(Ordering::Relaxed) {
                // Drain begins: stop accepting (close + unlink so new
                // connects fail fast), reject future frames, and let
                // the workers run the queue dry.
                draining = true;
                if let Some(l) = listener.take() {
                    let _ = poller.del(l.as_raw_fd());
                }
                if let Endpoint::Unix(path) = &config.endpoint {
                    std::fs::remove_file(path).ok();
                }
                shared.queue.close();
                let idle: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| {
                        c.pending.is_none() && !c.has_unsent() && c.read_buf.is_empty()
                    })
                    .map(|(&token, _)| token)
                    .collect();
                for token in idle {
                    drop_conn(&mut poller, &mut conns, token);
                }
                let grace = Instant::now() + config.drain_grace;
                for c in conns.values_mut().filter(|c| c.pending.is_none()) {
                    c.grace_deadline = Some(grace);
                }
            }
            if draining && conns.is_empty() {
                break;
            }

            // Replace any worker that died. While the server is
            // accepting, the queue is open, so a finished worker thread
            // can only mean a panic escaped the per-job catch (e.g. the
            // injected `worker.die` fault). The stranded client was
            // already answered by the worker's reply guard; here we
            // restore pool capacity.
            for slot in worker_handles.iter_mut() {
                if slot.is_finished() {
                    let fresh = scope.spawn(move || worker_loop(shared));
                    let dead = std::mem::replace(slot, fresh);
                    let _ = dead.join(); // Err(payload) is expected here
                    shared
                        .metrics
                        .workers_respawned
                        .fetch_add(1, Ordering::Relaxed);
                }
            }

            // Sleep until readiness, the next deadline, or one poll
            // interval — the interval bounds how stale our view of the
            // signal-driven shutdown flag can get.
            let now = Instant::now();
            let mut timeout = config.poll_interval;
            if let Some(Reverse((at, _, _))) = deadlines.peek() {
                timeout = timeout.min(at.saturating_duration_since(now));
            }
            if draining {
                for c in conns.values() {
                    if let Some(at) = c.grace_deadline {
                        timeout = timeout.min(at.saturating_duration_since(now));
                    }
                }
            }
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;

            // Injected EINTR: the wait is the one place the loop blocks,
            // so signal storms land here. A real EINTR takes the same
            // early-continue.
            if crate::faults::fire("epoll.wait.eintr") {
                continue;
            }
            if crate::faults::fire("epoll.spurious.wake") {
                // A spurious wakeup reports no events; level-triggered
                // readiness re-fires on the next wait, so correctness
                // must not depend on acting now.
                events.clear();
            } else {
                match poller.wait(&mut events, timeout_ms) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // A failing wait (EBADF-class bugs) has no sane
                    // recovery; surface it.
                    Err(e) => return Err(e),
                }
            }

            let mut ctx = LoopCtx {
                shared,
                config: &config,
                poller: &mut poller,
                completions: &completions,
                deadlines: &mut deadlines,
                draining,
            };

            for &Event { token, bits } in &events {
                match token {
                    TOKEN_LISTENER => {
                        let Some(l) = listener.as_ref() else { continue };
                        loop {
                            match l.accept() {
                                Ok(conn) => {
                                    if conn.set_nonblocking(true).is_err() {
                                        continue;
                                    }
                                    let token = next_token;
                                    next_token += 1;
                                    let state = ConnState::new(conn);
                                    if ctx
                                        .poller
                                        .add(state.conn.as_raw_fd(), token, state.registered)
                                        .is_err()
                                    {
                                        continue; // dropped: peer sees a close
                                    }
                                    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                                    conns.insert(token, state);
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                                Err(e) => {
                                    // Transient accept failures (EMFILE
                                    // under load) must not kill the
                                    // daemon.
                                    eprintln!("bivd: accept error: {e}");
                                    break;
                                }
                            }
                        }
                    }
                    TOKEN_WAKER => completions.clear_waker(),
                    token => {
                        let Some(c) = conns.get_mut(&token) else {
                            continue;
                        };
                        // A hangup beside readable is left to the read,
                        // which returns what the peer sent and then EOF:
                        // macOS reports it on a half-close. A hangup
                        // alone (no read interest left) is a gone peer.
                        let broken = bits & ERROR != 0
                            || bits & (READABLE | HANGUP) == HANGUP
                            || (bits & READABLE != 0
                                && fill_read(c, &mut scratch, config.max_frame_bytes).is_err());
                        if broken || !service_conn(&mut ctx, c, token) {
                            drop_conn(ctx.poller, &mut conns, token);
                        }
                    }
                }
            }

            // Expire request deadlines before delivering completions, so
            // a result that lands after its deadline is always late: answer
            // `timeout` now; the worker's result is counted late below.
            let now = Instant::now();
            while let Some(Reverse((at, token, seq))) = ctx.deadlines.peek().copied() {
                if at > now {
                    break;
                }
                ctx.deadlines.pop();
                let Some(c) = conns.get_mut(&token) else {
                    continue;
                };
                if c.pending != Some(seq) {
                    continue; // answered in time; entry is stale
                }
                c.pending = None;
                let response = timeout_response(shared);
                queue_response(c, &response);
                if !service_conn(&mut ctx, c, token) {
                    drop_conn(ctx.poller, &mut conns, token);
                }
            }

            // Deliver worker completions. Taken unconditionally — cheap
            // when empty, and it makes waker ordering moot.
            for (token, seq, response) in completions.take() {
                match conns.get_mut(&token) {
                    Some(c) if c.pending == Some(seq) => {
                        c.pending = None;
                        queue_response(c, &response);
                        if !service_conn(&mut ctx, c, token) {
                            drop_conn(ctx.poller, &mut conns, token);
                        }
                    }
                    // Connection gone, or the request already timed
                    // out: the worker's result arrives late.
                    _ => {
                        shared.metrics.late_results.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }

            // Expire drain grace.
            if draining {
                let expired: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| c.grace_deadline.is_some_and(|at| at <= now))
                    .map(|(&token, _)| token)
                    .collect();
                for token in expired {
                    drop_conn(ctx.poller, &mut conns, token);
                }
            }
        }

        // Every connection is answered and closed; the workers exit
        // once the closed queue runs dry. Then make the store durable
        // and run the fleet departure handoff, if any.
        for worker in worker_handles {
            let _ = worker.join();
        }
        shared.finish_drain();

        Ok(shared.summary())
    })
}

/// Unregisters and closes one connection. The `poll(2)` backend keeps
/// an array slot per registered fd, so a closed fd must leave the set
/// before the kernel hands its number to the next accept.
fn drop_conn<P: Readiness>(poller: &mut P, conns: &mut HashMap<u64, ConnState>, token: u64) {
    if let Some(c) = conns.remove(&token) {
        let _ = poller.del(c.conn.as_raw_fd());
    }
}
