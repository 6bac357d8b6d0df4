//! The readiness-driven front-end (Linux): one thread, an epoll set,
//! every connection nonblocking.
//!
//! The threaded front-end burns a stack per connection, which caps how
//! many idle clients a daemon can hold open. Here the event loop owns
//! *all* connection I/O — accept, framed reads, framed writes — and
//! only analysis leaves the thread, through the same bounded queue and
//! worker pool the threaded mode uses. Workers hand results back via a
//! completion queue plus an eventfd waker; the loop writes them out
//! when the socket is ready. Ten thousand idle connections cost ten
//! thousand fds and `ConnState`s, not ten thousand threads.
//!
//! Per-connection state machine:
//!
//! ```text
//!   readable ──→ read_buf ──(full frame? no job in flight?)──→ decode
//!      decode ──→ inline (ping/stats/shutdown/members): bytes queued
//!             └─→ queued job: `pending = seq`, decode pauses
//!   completion (worker, via eventfd) ──(seq matches?)──→ bytes queued
//!                                        └─ stale ──→ late_results
//!   deadline ──→ timeout response queued, job marked stale
//!   bytes queued ──→ optimistic write, EPOLLOUT while unflushed
//! ```
//!
//! Decode pauses while a job is in flight so each connection sees
//! responses in request order — the same order the threaded mode's
//! one-thread-per-connection loop produces. All response bytes come
//! from [`crate::server::route_request`] and the shared worker pool, so
//! the two front-ends answer byte-identical responses.
//!
//! Drain mirrors the threaded mode: stop accepting, answer every
//! accepted job, reject frames that arrive after drain with an explicit
//! `draining` error, and give mid-frame or unread-response peers a
//! bounded grace before closing on them.
//!
//! The syscall layer declares `epoll_create1`/`epoll_ctl`/`epoll_wait`/
//! `eventfd` directly, in the spirit of [`crate::signal`] — the
//! workspace builds offline with zero external dependencies, and the C
//! library is linked into every Rust binary anyway.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::net::{Conn, Endpoint, Listener};
use crate::proto::{Request, Response};
use crate::server::{
    draining_response, route_request, submit_job, timeout_response, worker_loop, ReplySink, Routed,
    ServeSummary, ServerConfig, Shared,
};

/// Raw epoll/eventfd declarations. No `libc` crate — see the module
/// docs. Constants match the Linux UAPI headers.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// `struct epoll_event`. The x86-64 kernel ABI packs it (a 12-byte
    /// struct); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Creates the epoll instance (close-on-exec).
    pub fn create() -> io::Result<OwnedFd> {
        // SAFETY: plain syscall; a valid return is a fresh fd we own.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// Creates the wake eventfd (close-on-exec, nonblocking so a
    /// defensive drain of an empty counter cannot hang the loop).
    pub fn new_eventfd() -> io::Result<OwnedFd> {
        // SAFETY: plain syscall; a valid return is a fresh fd we own.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// One `epoll_ctl` operation; `events`/`data` are ignored for DEL.
    pub fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data };
        let eventp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut event as *mut EpollEvent
        };
        // SAFETY: `eventp` is null (DEL) or points at a live stack value
        // for the duration of the call.
        check(unsafe { epoll_ctl(epfd, op, fd, eventp) }).map(|_| ())
    }

    /// Waits for readiness, filling `events`; returns how many fired.
    pub fn wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the pointer/length pair describes the caller's live
        // buffer; the kernel writes at most `maxevents` entries.
        let n = check(unsafe {
            epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        })?;
        Ok(n as usize)
    }
}

/// Token of the listening socket in the epoll set.
const TOKEN_LISTENER: u64 = 0;
/// Token of the eventfd waker.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Read chunk size; one scratch buffer is shared by every connection.
const READ_CHUNK: usize = 64 * 1024;
/// Readiness events drained per `epoll_wait` (level-triggered, so a
/// busier set simply fills the next wait).
const MAX_EVENTS: usize = 256;

/// The epoll set.
struct Epoll(std::os::fd::OwnedFd);

impl Epoll {
    fn new() -> io::Result<Epoll> {
        sys::create().map(Epoll)
    }

    fn add(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
        sys::ctl(self.0.as_raw_fd(), sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
        sys::ctl(self.0.as_raw_fd(), sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&self, fd: i32) -> io::Result<()> {
        sys::ctl(self.0.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        sys::wait(self.0.as_raw_fd(), events, timeout_ms)
    }
}

/// Finished worker results on their way back to the loop: the shared
/// queue plus the eventfd that wakes `epoll_wait` when one lands.
struct Completions {
    queue: Mutex<Vec<(u64, u64, Response)>>,
    waker: File,
}

impl Completions {
    fn new() -> io::Result<Completions> {
        Ok(Completions {
            queue: Mutex::new(Vec::new()),
            waker: File::from(sys::new_eventfd()?),
        })
    }

    /// Called from worker threads: park the response, wake the loop.
    fn push(&self, token: u64, seq: u64, response: Response) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push((token, seq, response));
        // An eventfd write is an 8-byte counter add; failure (only a
        // full counter) still leaves the queued completion visible to
        // the next poll-interval wakeup.
        let _ = (&self.waker).write_all(&1u64.to_ne_bytes());
    }

    /// Called from the loop: clear the waker, take everything queued.
    fn take(&self) -> Vec<(u64, u64, Response)> {
        let mut counter = [0u8; 8];
        let _ = (&self.waker).read(&mut counter); // nonblocking; may be empty
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

/// The worker-side reply handle for one queued job.
struct EventSink {
    completions: Arc<Completions>,
    token: u64,
    seq: u64,
}

impl ReplySink for EventSink {
    fn send(&self, response: Response) -> bool {
        self.completions.push(self.token, self.seq, response);
        // Staleness is the loop's call: it compares `seq` against the
        // connection's pending job and counts `late_results` itself.
        true
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
    /// Interest bits currently registered with epoll.
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
            registered: sys::EPOLLIN | sys::EPOLLRDHUP,
            close_after_flush: false,
            grace_deadline: None,
            peer_eof: false,
        }
    }

    fn has_unsent(&self) -> bool {
        self.wpos < self.write_buf.len()
    }
}

/// Appends one framed response to the connection's write buffer.
fn queue_response(c: &mut ConnState, response: &Response) {
    let payload = response.encode();
    c.write_buf
        .extend_from_slice(&(payload.len() as u32).to_be_bytes());
    c.write_buf.extend_from_slice(&payload);
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
/// died (including a frame beyond the size limit, matching the threaded
/// front-end, which also drops the connection).
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
struct LoopCtx<'s, 'e> {
    shared: &'s Shared<'s>,
    config: &'s ServerConfig,
    epoll: &'e Epoll,
    completions: &'e Arc<Completions>,
    deadlines: &'e mut BinaryHeap<Reverse<(Instant, u64, u64)>>,
    draining: bool,
}

/// Decodes and serves buffered frames until the buffer runs dry or a
/// job goes in flight. `Err` means the connection must close.
fn pump_frames(ctx: &mut LoopCtx<'_, '_>, c: &mut ConnState, token: u64) -> Result<(), ()> {
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
        // A frame completed after drain began is answered, not served —
        // same contract as the threaded front-end.
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
                let sink = Arc::new(EventSink {
                    completions: Arc::clone(ctx.completions),
                    token,
                    seq,
                });
                match submit_job(ctx.shared, kind, sink) {
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
/// epoll interest in sync. Returns `false` when the connection must be
/// dropped.
fn service_conn(ctx: &mut LoopCtx<'_, '_>, c: &mut ConnState, token: u64) -> bool {
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
    let want = sys::EPOLLIN | sys::EPOLLRDHUP | if c.has_unsent() { sys::EPOLLOUT } else { 0 };
    if want != c.registered {
        if ctx.epoll.modify(c.conn.as_raw_fd(), token, want).is_err() {
            return false;
        }
        c.registered = want;
    }
    true
}

/// Serves until drain completes. See the module docs for the design;
/// the externally observable behavior (response bytes, drain contract,
/// metrics) matches [`crate::server`]'s threaded front-end.
pub(crate) fn run_event(
    listener: Listener,
    config: ServerConfig,
    shutdown: &AtomicBool,
) -> io::Result<ServeSummary> {
    let shared = Shared::open(&config, &listener, shutdown)?;
    let workers = shared.workers;
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let completions = Arc::new(Completions::new()?);
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, sys::EPOLLIN)?;
    epoll.add(completions.waker.as_raw_fd(), TOKEN_WAKER, sys::EPOLLIN)?;

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
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut draining = false;

        loop {
            if !draining && shutdown.load(Ordering::Relaxed) {
                // Drain begins: stop accepting (close + unlink so new
                // connects fail fast), reject future frames, and let
                // the workers run the queue dry.
                draining = true;
                if let Some(l) = listener.take() {
                    let _ = epoll.del(l.as_raw_fd());
                }
                if let Endpoint::Unix(path) = &config.endpoint {
                    std::fs::remove_file(path).ok();
                }
                shared.queue.close();
                let grace = Instant::now() + config.drain_grace;
                conns.retain(|_, c| {
                    let busy = c.pending.is_some() || c.has_unsent() || !c.read_buf.is_empty();
                    if busy && c.pending.is_none() {
                        c.grace_deadline = Some(grace);
                    }
                    busy
                });
            }
            if draining && conns.is_empty() {
                break;
            }

            // Replace any worker that died (see the threaded front-end:
            // only an escaped panic ends a worker while the queue is
            // open, and its client was answered by the reply guard).
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

            // Injected EINTR: `epoll_wait` is the one place the loop
            // blocks, so signal storms land here. A real EINTR takes
            // the same early-continue.
            if crate::faults::fire("epoll.wait.eintr") {
                continue;
            }
            let fired = if crate::faults::fire("epoll.spurious.wake") {
                // A spurious wakeup reports no events; level-triggered
                // readiness re-fires on the next wait, so correctness
                // must not depend on acting now.
                0
            } else {
                match epoll.wait(&mut events, timeout_ms) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        // epoll_wait failing outright (EBADF-class bugs)
                        // has no sane recovery; surface it.
                        return Err(e);
                    }
                }
            };

            let mut ctx = LoopCtx {
                shared,
                config: &config,
                epoll: &epoll,
                completions: &completions,
                deadlines: &mut deadlines,
                draining,
            };

            for event in &events[..fired] {
                // Copy out of the (packed) kernel struct before use.
                let token = event.data;
                let bits = event.events;
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
                                        .epoll
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
                    TOKEN_WAKER => {} // completions are drained below
                    token => {
                        let Some(c) = conns.get_mut(&token) else {
                            continue;
                        };
                        let broken = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0
                            || (bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0
                                && fill_read(c, &mut scratch, config.max_frame_bytes).is_err());
                        let keep = !broken && service_conn(&mut ctx, c, token);
                        if !keep {
                            conns.remove(&token); // drop closes the fd
                        }
                    }
                }
            }

            // Deliver worker completions. Drained unconditionally —
            // cheap when empty, and it makes waker-edge ordering moot.
            for (token, seq, response) in completions.take() {
                let stale = match conns.get_mut(&token) {
                    Some(c) if c.pending == Some(seq) => {
                        c.pending = None;
                        queue_response(c, &response);
                        if !service_conn(&mut ctx, c, token) {
                            conns.remove(&token);
                        }
                        false
                    }
                    // Connection gone, or the request already timed
                    // out: the worker's result arrives late.
                    _ => true,
                };
                if stale {
                    shared.metrics.late_results.fetch_add(1, Ordering::Relaxed);
                }
            }

            // Expire request deadlines: answer `timeout` now; the
            // worker's eventual result will be counted late above.
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
                    conns.remove(&token);
                }
            }

            // Expire drain grace.
            if draining {
                conns.retain(|_, c| match c.grace_deadline {
                    Some(at) => at > now,
                    None => true,
                });
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
