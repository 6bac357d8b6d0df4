//! SIGINT/SIGTERM → atomic drain flag, with no `libc` crate.
//!
//! The workspace builds offline with zero external dependencies, so
//! this module declares the C library's `signal(2)` entry point
//! directly — the C library is linked into every Rust binary anyway.
//! The handler does the only async-signal-safe thing a drain needs:
//! store a relaxed atomic flag that the event loop already polls.
//! glibc's `signal` installs BSD semantics (`SA_RESTART`), which is
//! fine: every blocking call in the server carries its own timeout, so
//! nothing needs `EINTR` to wake up.

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide drain flag set by the installed handlers.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The drain flag; pass it to [`crate::server::Server::run`].
pub fn shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

/// Whether a shutdown signal has arrived.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Installs the SIGINT and SIGTERM handlers.
    pub fn install() {
        // SAFETY: `signal` is the C library's own registration call and
        // the handler only performs an atomic store, which is
        // async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No-op on platforms without unix signals; drain is still
    /// reachable through the protocol's `shutdown` request.
    pub fn install() {}
}

/// Installs SIGINT/SIGTERM handlers that set the drain flag, and
/// returns that flag.
pub fn install() -> &'static AtomicBool {
    imp::install();
    &SHUTDOWN
}
