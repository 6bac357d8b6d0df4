//! Level-triggered readiness behind one four-call interface: `add`,
//! `modify`, `del`, and `wait`, reporting a token plus
//! readable/writable/error bits.
//!
//! Two backends implement it, chosen by platform:
//!
//! - [`Epoll`] on Linux. A wake costs the same with ten thousand idle
//!   connections registered as with none, which is what lets one loop
//!   park a large idle herd.
//! - [`PollSet`], a `poll(2)` array, on every other unix. It is also
//!   built on Linux under `cfg(test)`, so the server tests run the
//!   event loop on it. Each wake scans every registered fd — 3.0 ms
//!   beside 9,000 idle ones (DESIGN.md §14) — which is why Linux keeps
//!   epoll.
//!
//! Both declare their syscalls directly, in the spirit of
//! [`crate::signal`]: the workspace builds offline with zero external
//! dependencies, and the C library is linked into every binary anyway.

use std::io;
use std::os::fd::RawFd;

/// Interest and readiness bits. The values are `poll(2)`'s `POLLIN`,
/// `POLLOUT`, `POLLERR`, and `POLLHUP`, which epoll's `EPOLL*` bits
/// share, so both backends pass them through unchanged.
pub(crate) const READABLE: u32 = 0x1;
/// The fd accepts writes.
pub(crate) const WRITABLE: u32 = 0x4;
/// An error is pending on the fd; reported without being asked for.
pub(crate) const ERROR: u32 = 0x8;
/// The peer hung up; reported without being asked for. Linux reports
/// it once both directions are shut, macOS `poll(2)` as soon as the
/// peer shuts its write side.
pub(crate) const HANGUP: u32 = 0x10;

/// One readiness report: the token the fd was registered with and the
/// bits that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    pub(crate) token: u64,
    pub(crate) bits: u32,
}

/// A level-triggered readiness set: a registered fd is reported on
/// every `wait` for as long as it stays ready, so a caller that stops
/// early loses nothing. Readable includes end-of-stream; `read() == 0`
/// is how a caller tells EOF apart from data.
pub(crate) trait Readiness: Sized {
    /// An empty set.
    fn new() -> io::Result<Self>;
    /// Registers `fd` under `token` with `interest` bits.
    fn add(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()>;
    /// Replaces a registered fd's token and interest.
    fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()>;
    /// Unregisters `fd`.
    fn del(&mut self, fd: RawFd) -> io::Result<()>;
    /// Waits up to `timeout_ms` for readiness and replaces `events` with
    /// what fired.
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()>;
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// The readiness backend the server runs on this platform.
#[cfg(target_os = "linux")]
pub(crate) type Native = Epoll;
/// The readiness backend the server runs on this platform.
#[cfg(not(target_os = "linux"))]
pub(crate) type Native = PollSet;

#[cfg(target_os = "linux")]
pub(crate) use epoll::Epoll;
#[cfg(any(test, not(target_os = "linux")))]
pub(crate) use poll::PollSet;

/// Raw epoll declarations; constants match the Linux UAPI headers.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod epoll {
    use super::{check, Event, Readiness, ERROR, HANGUP, READABLE, WRITABLE};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    /// Peer shut its write side. Asked for with [`READABLE`] and
    /// reported as it: the read that follows returns 0.
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    /// Readiness events drained per wait (level-triggered, so a busier
    /// set simply fills the next wait).
    const MAX_EVENTS: usize = 256;

    /// `struct epoll_event`. The x86-64 kernel ABI packs it (a 12-byte
    /// struct); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    /// An epoll instance plus the buffer its waits fill.
    pub(crate) struct Epoll {
        fd: OwnedFd,
        fired: Vec<EpollEvent>,
    }

    impl Epoll {
        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            let rdhup = if interest & READABLE != 0 {
                EPOLLRDHUP
            } else {
                0
            };
            let mut event = EpollEvent {
                events: interest | rdhup,
                data: token,
            };
            // SAFETY: `event` is a live stack value for the duration of
            // the call (the kernel ignores it for DEL).
            check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) }).map(|_| ())
        }
    }

    impl Readiness for Epoll {
        fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall; a valid return is a fresh fd we own.
            let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Epoll {
                // SAFETY: `fd` is open and owned by nothing else.
                fd: unsafe { OwnedFd::from_raw_fd(fd) },
                fired: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            })
        }

        fn add(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        fn del(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            // SAFETY: the pointer/length pair describes our live buffer;
            // the kernel writes at most `maxevents` entries.
            let n = check(unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    self.fired.as_mut_ptr(),
                    self.fired.len() as i32,
                    timeout_ms,
                )
            })?;
            events.clear();
            events.extend(self.fired[..n as usize].iter().map(|e| {
                // Copy out of the (packed) kernel struct before use.
                let (bits, token) = (e.events, e.data);
                let rdhup = if bits & EPOLLRDHUP != 0 { READABLE } else { 0 };
                Event {
                    token,
                    bits: bits & (READABLE | WRITABLE | ERROR | HANGUP) | rdhup,
                }
            }));
            Ok(())
        }
    }
}

/// `poll(2)` over an array of registered fds.
#[cfg(any(test, not(target_os = "linux")))]
#[allow(unsafe_code)]
mod poll {
    use super::{check, Event, Readiness, ERROR};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short};

    /// The fd is not open; reported as [`ERROR`].
    const POLLNVAL: u32 = 0x20;

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }

    /// The registered fds and, at the same index, their tokens. Every
    /// wait scans the whole array anyway, so `modify` and `del` do too.
    #[derive(Default)]
    pub(crate) struct PollSet {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl PollSet {
        fn slot(&self, fd: RawFd) -> io::Result<usize> {
            let found = self.fds.iter().position(|p| p.fd == fd);
            found.ok_or_else(|| io::ErrorKind::NotFound.into())
        }
    }

    impl Readiness for PollSet {
        fn new() -> io::Result<PollSet> {
            Ok(PollSet::default())
        }

        fn add(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            let events = interest as c_short;
            self.fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            let i = self.slot(fd)?;
            self.fds[i].events = interest as c_short;
            self.tokens[i] = token;
            Ok(())
        }

        fn del(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.slot(fd)?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            // SAFETY: the pointer/length pair describes our live array;
            // the kernel writes only the `revents` fields.
            check(unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NFds, timeout_ms) })?;
            events.clear();
            for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
                let bits = u32::from(pfd.revents as u16);
                if bits != 0 {
                    let bits = if bits & POLLNVAL != 0 { ERROR } else { bits };
                    events.push(Event { token, bits });
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn wait_now<P: Readiness>(set: &mut P) -> Vec<Event> {
        let mut events = Vec::new();
        set.wait(&mut events, 0).unwrap();
        events.sort_by_key(|e| e.token);
        events
    }

    fn readable(token: u64) -> Event {
        Event {
            token,
            bits: READABLE,
        }
    }

    /// Level re-fire, write-interest toggling, `del`, and EOF on
    /// socketpairs — the contract the event loop relies on.
    fn exercise<P: Readiness>() {
        let mut set = P::new().unwrap();
        let (a, mut a_peer) = UnixStream::pair().unwrap();
        let (b, mut b_peer) = UnixStream::pair().unwrap();
        let (c, mut c_peer) = UnixStream::pair().unwrap();
        set.add(a.as_raw_fd(), 1, READABLE).unwrap();
        set.add(b.as_raw_fd(), 2, READABLE).unwrap();
        set.add(c.as_raw_fd(), 3, READABLE).unwrap();
        assert_eq!(wait_now(&mut set), []);

        // Level-triggered: unread data re-fires on every wait.
        a_peer.write_all(b"x").unwrap();
        assert_eq!(wait_now(&mut set), [readable(1)]);
        assert_eq!(wait_now(&mut set), [readable(1)]);
        (&a).read_exact(&mut [0u8; 1]).unwrap();
        assert_eq!(wait_now(&mut set), []);

        // Write interest: an empty send buffer is writable at once, and
        // dropping the interest silences it.
        set.modify(b.as_raw_fd(), 2, READABLE | WRITABLE).unwrap();
        let events = wait_now(&mut set);
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].token, events[0].bits & WRITABLE), (2, WRITABLE));
        set.modify(b.as_raw_fd(), 2, READABLE).unwrap();
        assert_eq!(wait_now(&mut set), []);

        // `del` stops reports for that fd alone; the survivors keep
        // their tokens.
        set.del(a.as_raw_fd()).unwrap();
        assert!(set.del(a.as_raw_fd()).is_err());
        a_peer.write_all(b"y").unwrap();
        c_peer.write_all(b"z").unwrap();
        b_peer.write_all(b"w").unwrap();
        assert_eq!(wait_now(&mut set), [readable(2), readable(3)]);

        // End of stream is readable, and read() returns 0.
        (&b).read_exact(&mut [0u8; 1]).unwrap();
        (&c).read_exact(&mut [0u8; 1]).unwrap();
        drop(c_peer);
        let events = wait_now(&mut set);
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].token, events[0].bits & READABLE), (3, READABLE));
        assert_eq!((&c).read(&mut [0u8; 1]).unwrap(), 0);
        // With no interest left, a gone peer still reports a hangup.
        set.modify(c.as_raw_fd(), 3, 0).unwrap();
        let events = wait_now(&mut set);
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].token, events[0].bits & HANGUP), (3, HANGUP));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_is_level_triggered_and_honors_modify_and_del() {
        exercise::<Epoll>();
    }

    #[test]
    fn poll_is_level_triggered_and_honors_modify_and_del() {
        exercise::<PollSet>();
    }
}
