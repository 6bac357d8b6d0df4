//! **biv-store** — a durable content-addressed store for analysis
//! summaries, so restarts are warm and repeated corpora are near-free.
//!
//! The structural hash computed by `biv_core::batch` already
//! content-addresses analysis *inputs*; this crate makes it a durable
//! key. The design is a miniature of the classic compilation-cache
//! shape:
//!
//! - [`codec`] — a dependency-free binary encoding of
//!   [`biv_core::StructuralSummary`];
//! - [`log`] — CRC-checked framing for an append-only record log, the
//!   store's only file;
//! - [`Store`] — open/scan/truncate/compact, an in-memory index of
//!   record offsets, append on put, read + re-check + decode on get,
//!   fsync on flush;
//! - [`TieredCache`] — a bounded memory tier in front of the store,
//!   implementing `biv_core`'s `CacheBackend` for the batch driver and
//!   the server.
//!
//! Two invariants carry the whole crate:
//!
//! 1. **Only consistent prefixes are served.** Every record is
//!    independently checksummed; the first record that fails framing
//!    or CRC — on open, or when a read finds it — ends the usable log,
//!    and the tail past it is truncated: recomputed, never served.
//! 2. **Stale analysis is invalidated wholesale.** The log header pins
//!    `(FORMAT_VERSION, budget fingerprint)`; any mismatch on open
//!    turns every record into garbage and compacts the store to empty.
//!    There is no per-record versioning to get subtly wrong.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod faults;
pub mod log;
mod store;
mod tiered;

pub use store::{Store, StoreOptions, LOG_FILE};
pub use tiered::TieredCache;
