//! On-disk framing for the record log.
//!
//! The log is the store's only file: a fixed header followed by
//! append-only records, each independently CRC-checked so any prefix of
//! the file that parses is a consistent state.
//!
//! ## Log layout
//!
//! ```text
//! header := "BIVS" | file_format u32 | app_version u32
//!         | fp_len u32 | fingerprint bytes | crc32
//! record := "BIVR" | payload_len u32 | hash u64 | payload | crc32
//! ```
//!
//! All integers are little-endian. The header CRC covers everything
//! between the magic and the CRC itself; a record's CRC covers the hash
//! and the payload (the framing words are validated structurally: bad
//! magic or an impossible length is as fatal as a bad checksum).

/// Magic leading the record log.
pub const LOG_MAGIC: [u8; 4] = *b"BIVS";
/// Magic leading every record.
pub const REC_MAGIC: [u8; 4] = *b"BIVR";
/// Version of the *container* layout described in this module —
/// orthogonal to [`biv_core::FORMAT_VERSION`], which versions the
/// analysis semantics carried in payloads.
pub const LOG_FILE_FORMAT: u32 = 1;

/// Bytes of record framing around a payload: magic, length, hash, CRC.
pub const RECORD_OVERHEAD: usize = 4 + 4 + 8 + 4;

/// CRC-32 (IEEE 802.3, reflected), sliced by 8 over compile-time
/// tables: eight table lookups per 8-byte word instead of one serial
/// lookup per byte. Every record is checked twice — on open and again
/// when a read serves it — so this is on both paths.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        // tables[k][i]: the CRC of byte i followed by k zero bytes.
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    };
    let t = &TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// Encodes the log header for a store keyed on
/// `(app_version, fingerprint)`.
pub fn encode_header(app_version: u32, fingerprint: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + fingerprint.len() + 4);
    out.extend_from_slice(&LOG_MAGIC);
    push_u32(&mut out, LOG_FILE_FORMAT);
    push_u32(&mut out, app_version);
    push_u32(
        &mut out,
        u32::try_from(fingerprint.len()).expect("fingerprint length"),
    );
    out.extend_from_slice(fingerprint.as_bytes());
    let crc = crc32(&out[4..]);
    push_u32(&mut out, crc);
    out
}

/// A successfully parsed log header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// [`biv_core::FORMAT_VERSION`] at write time.
    pub app_version: u32,
    /// [`biv_core::analysis_fingerprint`] at write time.
    pub fingerprint: String,
    /// Bytes the header occupies; the first record starts here.
    pub len: usize,
}

/// Parses the log header; `None` means the header is corrupt or from an
/// unknown container format, and the log must be reset.
pub fn decode_header(buf: &[u8]) -> Option<Header> {
    if buf.get(..4)? != LOG_MAGIC {
        return None;
    }
    if read_u32(buf, 4)? != LOG_FILE_FORMAT {
        return None;
    }
    let app_version = read_u32(buf, 8)?;
    let fp_len = read_u32(buf, 12)? as usize;
    let body_end = 16usize.checked_add(fp_len)?;
    let fingerprint = String::from_utf8(buf.get(16..body_end)?.to_vec()).ok()?;
    let crc = read_u32(buf, body_end)?;
    if crc != crc32(&buf[4..body_end]) {
        return None;
    }
    Some(Header {
        app_version,
        fingerprint,
        len: body_end + 4,
    })
}

/// Encodes one record: framing, hash, payload, CRC over hash+payload.
pub fn encode_record(hash: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&REC_MAGIC);
    push_u32(
        &mut out,
        u32::try_from(payload.len()).expect("payload length"),
    );
    push_u64(&mut out, hash);
    out.extend_from_slice(payload);
    let crc = crc32(&out[8..]);
    push_u32(&mut out, crc);
    out
}

/// A record parsed in place from the log buffer.
#[derive(Debug, Clone, Copy)]
pub struct ParsedRecord<'a> {
    /// The structural hash the record is keyed on.
    pub hash: u64,
    /// The CRC-verified payload bytes.
    pub payload: &'a [u8],
    /// Total bytes the record occupies, framing included.
    pub len: usize,
}

/// Parses the record starting at `offset`. `None` covers every failure
/// mode — truncation, bad magic, impossible length, CRC mismatch —
/// because the caller's response is always the same: the consistent
/// prefix ends here.
pub fn parse_record(buf: &[u8], offset: usize) -> Option<ParsedRecord<'_>> {
    let rec = buf.get(offset..)?;
    if rec.get(..4)? != REC_MAGIC {
        return None;
    }
    let payload_len = read_u32(rec, 4)? as usize;
    let total = RECORD_OVERHEAD.checked_add(payload_len)?;
    if rec.len() < total {
        return None;
    }
    let hash = read_u64(rec, 8)?;
    let payload = &rec[16..16 + payload_len];
    let crc = read_u32(rec, 16 + payload_len)?;
    if crc != crc32(&rec[8..16 + payload_len]) {
        return None;
    }
    Some(ParsedRecord {
        hash,
        payload,
        len: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_matches_a_bitwise_reference_at_every_length() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in bytes {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        }
        let bytes: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..bytes.len() {
            assert_eq!(crc32(&bytes[..len]), bitwise(&bytes[..len]), "len {len}");
        }
    }

    #[test]
    fn header_roundtrips_and_rejects_tampering() {
        let bytes = encode_header(3, "nodes=-,scc=64,order=-");
        let h = decode_header(&bytes).expect("decode");
        assert_eq!(h.app_version, 3);
        assert_eq!(h.fingerprint, "nodes=-,scc=64,order=-");
        assert_eq!(h.len, bytes.len());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_header(&bad).is_none(), "flip at {i} must be caught");
        }
        assert!(decode_header(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn record_roundtrips_and_rejects_tampering() {
        let rec = encode_record(0xDEAD_BEEF_CAFE_F00D, b"payload bytes");
        let p = parse_record(&rec, 0).expect("parse");
        assert_eq!(p.hash, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(p.payload, b"payload bytes");
        assert_eq!(p.len, rec.len());
        for i in 0..rec.len() {
            let mut bad = rec.clone();
            bad[i] ^= 0x01;
            assert!(
                parse_record(&bad, 0).is_none(),
                "flip at {i} must be caught"
            );
        }
        for cut in 0..rec.len() {
            assert!(
                parse_record(&rec[..cut], 0).is_none(),
                "truncation at {cut}"
            );
        }
    }

    #[test]
    fn records_parse_back_to_back() {
        let mut buf = encode_record(1, b"a");
        let second_at = buf.len();
        buf.extend_from_slice(&encode_record(2, b"bb"));
        let first = parse_record(&buf, 0).expect("first");
        assert_eq!(first.hash, 1);
        assert_eq!(first.len, second_at);
        let second = parse_record(&buf, second_at).expect("second");
        assert_eq!(second.hash, 2);
        assert_eq!(second.payload, b"bb");
    }
}
