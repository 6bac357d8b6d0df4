//! Length-prefixed framing: a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON.
//!
//! The prefix makes request boundaries explicit (no sniffing for
//! balanced braces on the stream) and lets the server reject oversized
//! frames before allocating. A read that ends cleanly *between* frames
//! is a normal close ([`read_frame`] returns `Ok(None)`); one that ends
//! inside a frame is an error.
//!
//! Both directions handle partial operations and spurious `EINTR`
//! uniformly: every read and write sits in an explicit retry loop, so a
//! signal landing mid-frame, or a transport that hands back short
//! reads/writes (as the fault-injected chaos transport deliberately
//! does), never corrupts framing.

use std::io::{self, Read, Write};

/// Default cap on a single frame's payload (64 MiB) — far above any
/// real analysis request, low enough to fail fast on garbage prefixes.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Appends one encoded frame — length prefix plus payload — to `out`.
/// The one frame encoder: [`write_frame`] and the server's event loop
/// both build their bytes here.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    out.reserve(4 + payload.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Writes one frame, then flushes. The prefix and payload go out in a
/// single write: split across two, a small TCP frame waits on Nagle's
/// algorithm for the peer's delayed ACK (about 40 ms per request).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    append_frame(&mut frame, payload)?;
    write_full(w, &frame)?;
    w.flush()
}

/// Writes the whole buffer, retrying short writes and `EINTR`.
///
/// `Write::write_all` would also loop, but spelling the loop out keeps
/// the retry policy in one audited place next to the read side, and
/// guarantees the behavior even for writers whose `write_all` is
/// overridden.
fn write_full(w: &mut impl Write, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting mid-frame",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame; `Ok(None)` on a clean end-of-stream before any
/// prefix byte, an `UnexpectedEof` error on truncation mid-frame, an
/// `InvalidData` error when the prefix exceeds `max_bytes`.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match read_exact_or_eof(r, &mut prefix)? {
        FirstRead::Eof => return Ok(None),
        FirstRead::Full => {}
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_bytes}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload)?;
    Ok(Some(payload))
}

/// Fills the whole buffer, retrying short reads and `EINTR`; EOF at any
/// point here is truncation (the prefix promised `buf.len()` bytes).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

enum FirstRead {
    /// Zero bytes then EOF: the peer closed between frames.
    Eof,
    /// The buffer was filled.
    Full,
}

/// Like `read_exact`, but distinguishes "EOF before the first byte"
/// (clean close) from "EOF mid-buffer" (truncation).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<FirstRead> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(FirstRead::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FirstRead::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "ütf✓".as_bytes()).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"hello"
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            "ütf✓".as_bytes()
        );
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn clean_eof_vs_truncation() {
        let mut r: &[u8] = &[];
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
        // Truncated prefix.
        let mut r: &[u8] = &[0, 0];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Truncated payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// A transport that hands back one byte at a time and sprinkles
    /// spurious `EINTR` between them — the worst legal stream behavior.
    struct Hostile<T> {
        inner: T,
        tick: usize,
    }

    impl<R: Read> Read for Hostile<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.tick += 1;
            if self.tick.is_multiple_of(3) {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"));
            }
            let n = buf.len().min(1);
            self.inner.read(&mut buf[..n])
        }
    }

    impl<W: Write> Write for Hostile<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tick += 1;
            if self.tick.is_multiple_of(3) {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"));
            }
            let n = buf.len().min(1);
            self.inner.write(&buf[..n])
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn short_ops_and_eintr_are_retried_uniformly() {
        let mut w = Hostile {
            inner: Vec::new(),
            tick: 0,
        };
        write_frame(&mut w, b"resilient payload").unwrap();
        let mut r = Hostile {
            inner: &w.inner[..],
            tick: 0,
        };
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"resilient payload"
        );
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    /// Counts `write` calls and accepts every byte offered.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_goes_out_in_one_write() {
        let payload = b"{\"op\":\"ping\"}";
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut w, payload).unwrap();
        assert_eq!(w.writes, 1, "prefix and payload share one write");
        let mut encoded = Vec::new();
        append_frame(&mut encoded, payload).unwrap();
        assert_eq!(w.bytes, encoded);
        assert_eq!(encoded[..4], (payload.len() as u32).to_be_bytes());
        assert_eq!(&encoded[4..], payload);
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, 1024).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
