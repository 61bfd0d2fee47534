//! The wire framing layer: a fixed 16-byte little-endian header in
//! front of every payload, and an incremental decoder that survives
//! arbitrary chunk boundaries but never survives corruption silently.
//!
//! ```text
//! offset  size  field
//! 0       2     magic "FG"
//! 2       1     protocol version (2)
//! 3       1     frame kind (1 = request, 2 = response, 3 = event,
//!               4 = subscribe-metrics, 5 = metrics snapshot)
//! 4       4     sequence number, u32 LE
//! 8       4     payload length,  u32 LE
//! 12      4     CRC-32C over [kind, seq LE, payload], u32 LE
//! 16      len   payload (JSON)
//! ```
//!
//! The checksum covers the kind and sequence number as well as the
//! payload, so a flipped bit anywhere past the length field is caught
//! — and a corrupted *length* either breaks the checksum or walks the
//! decoder into a bad magic at the next header. CRC-32C (Castagnoli)
//! also catches every flip of two bits in a frame, which version 1's
//! FNV-1a did not promise, and costs less per byte. Every error names the
//! absolute byte offset of the frame it was detected in and that
//! frame's ordinal, mirroring the line-numbered errors of
//! [`fg_sched::ReplayError`]; after the first error the decoder is
//! poisoned and refuses further frames rather than resynchronising on
//! a guess.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// First two header bytes of every frame.
pub const MAGIC: [u8; 2] = *b"FG";
/// The only protocol version this build speaks. Version 1 framed the
/// same fields under an FNV-1a checksum.
pub const VERSION: u8 = 2;
/// Bytes in the fixed header.
pub const HEADER_LEN: usize = 16;
/// Hard cap on a single frame's payload; larger lengths are treated
/// as corruption, not as a request for a 4 GiB allocation. Within the
/// cap, the message layer's JSON reader bounds nesting at
/// [`serde::MAX_DEPTH`] (128), so megabytes of `[` are a
/// [`WireError::BadPayload`], not a stack overflow.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// What a frame carries, from the header's kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client-to-server request.
    Request,
    /// Server-to-client reply, echoing the request's sequence number.
    Response,
    /// Server-to-client streamed event, on its own sequence counter.
    Event,
    /// Client-to-server metrics subscription, acknowledged with a
    /// [`MetricsSnapshot`](FrameKind::MetricsSnapshot) echoing its
    /// sequence number.
    SubscribeMetrics,
    /// Server-to-client telemetry snapshot. The subscription ack
    /// echoes the subscribe frame's sequence number; streamed
    /// snapshots ride the event sequence counter.
    MetricsSnapshot,
}

impl FrameKind {
    /// The header byte for this kind.
    pub fn as_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Event => 3,
            FrameKind::SubscribeMetrics => 4,
            FrameKind::MetricsSnapshot => 5,
        }
    }

    /// Parse a header byte; `None` for anything unassigned.
    pub fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            3 => Some(FrameKind::Event),
            4 => Some(FrameKind::SubscribeMetrics),
            5 => Some(FrameKind::MetricsSnapshot),
            _ => None,
        }
    }
}

/// One decoded frame: kind, sequence number, and the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Sequence number from the header.
    pub seq: u32,
    /// The payload bytes (a JSON document at the message layer).
    pub payload: Bytes,
}

/// A framing violation. Every variant that detects corruption names
/// the absolute byte offset where the offending frame *started* and
/// the 0-based ordinal of that frame in the stream, so a recorded
/// session can be opened in a hex editor at the exact spot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The two magic bytes were wrong — the stream is desynchronised
    /// or talking a different protocol.
    BadMagic {
        /// Absolute byte offset of the frame start.
        offset: u64,
        /// 0-based frame ordinal.
        frame: u64,
        /// The two bytes found instead of `"FG"`.
        found: [u8; 2],
    },
    /// The version byte names a protocol this build does not speak.
    BadVersion {
        /// Absolute byte offset of the frame start.
        offset: u64,
        /// 0-based frame ordinal.
        frame: u64,
        /// The version byte found.
        found: u8,
    },
    /// The kind byte is not an assigned frame kind.
    BadKind {
        /// Absolute byte offset of the frame start.
        offset: u64,
        /// 0-based frame ordinal.
        frame: u64,
        /// The kind byte found.
        found: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Absolute byte offset of the frame start.
        offset: u64,
        /// 0-based frame ordinal.
        frame: u64,
        /// The declared length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The checksum over kind, sequence number, and payload does not
    /// match the header.
    BadChecksum {
        /// Absolute byte offset of the frame start.
        offset: u64,
        /// 0-based frame ordinal.
        frame: u64,
        /// Checksum the header declared.
        declared: u32,
        /// Checksum computed from the bytes.
        computed: u32,
    },
    /// The stream ended mid-frame (only reported by
    /// [`FrameDecoder::finish`]).
    Truncated {
        /// Absolute byte offset of the unfinished frame's start.
        offset: u64,
        /// 0-based frame ordinal.
        frame: u64,
        /// Bytes the frame needed (header plus declared payload).
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// A structurally valid frame whose payload failed to parse at the
    /// message layer.
    BadPayload {
        /// 0-based frame ordinal.
        frame: u64,
        /// Sequence number from the frame header.
        seq: u32,
        /// The message-layer parse failure.
        reason: String,
    },
    /// A frame arrived after the decoder was poisoned by an earlier
    /// error.
    Poisoned,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { offset, frame, found } => write!(
                f,
                "frame {frame} at byte {offset}: bad magic {found:02x?} (expected \"FG\")"
            ),
            WireError::BadVersion { offset, frame, found } => write!(
                f,
                "frame {frame} at byte {offset}: unsupported protocol version {found} \
                 (this build speaks {VERSION})"
            ),
            WireError::BadKind { offset, frame, found } => {
                write!(f, "frame {frame} at byte {offset}: unassigned frame kind {found}")
            }
            WireError::Oversized { offset, frame, len, max } => write!(
                f,
                "frame {frame} at byte {offset}: declared payload {len} bytes exceeds cap {max}"
            ),
            WireError::BadChecksum { offset, frame, declared, computed } => write!(
                f,
                "frame {frame} at byte {offset}: checksum mismatch \
                 (header {declared:#010x}, computed {computed:#010x})"
            ),
            WireError::Truncated { offset, frame, expected, got } => write!(
                f,
                "frame {frame} at byte {offset}: stream truncated mid-frame \
                 ({got} of {expected} bytes)"
            ),
            WireError::BadPayload { frame, seq, reason } => {
                write!(f, "frame {frame} (seq {seq}): payload rejected: {reason}")
            }
            WireError::Poisoned => {
                write!(f, "decoder poisoned by an earlier framing error")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32C over the checksummed region: kind byte, the four
/// little-endian sequence bytes, then the payload.
pub fn checksum(kind: u8, seq: u32, payload: &[u8]) -> u32 {
    let [s0, s1, s2, s3] = seq.to_le_bytes();
    !crc32c(crc32c(!0, &[kind, s0, s1, s2, s3]), payload)
}

/// Castagnoli's polynomial, bit-reversed.
const CASTAGNOLI: u32 = 0x82f6_3b78;

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` and then `k` zero bytes, so eight bytes fold in with eight
/// independent lookups instead of eight dependent steps.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ CASTAGNOLI } else { crc >> 1 };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Fold `bytes` into the CRC-32C register `crc` (no pre- or
/// post-inversion).
fn crc32c(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let at = |word: u32, shift: u32| ((word >> shift) & 0xff) as usize;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][at(lo, 0)]
            ^ t[6][at(lo, 8)]
            ^ t[5][at(lo, 16)]
            ^ t[4][at(lo, 24)]
            ^ t[3][at(hi, 0)]
            ^ t[2][at(hi, 8)]
            ^ t[1][at(hi, 16)]
            ^ t[0][at(hi, 24)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][at(crc ^ u32::from(b), 0)];
    }
    crc
}

/// Frame a payload: header plus bytes, ready to write to the wire.
pub fn encode_frame(kind: FrameKind, seq: u32, payload: &[u8]) -> Bytes {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "payload of {} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})",
        payload.len()
    );
    let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.len());
    buf.put_slice(&MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind.as_byte());
    buf.put_u32_le(seq);
    buf.put_u32_le(payload.len() as u32);
    buf.put_u32_le(checksum(kind.as_byte(), seq, payload));
    buf.put_slice(payload);
    buf.freeze()
}

/// Incremental frame decoder. Feed it arbitrary byte chunks with
/// [`push`](FrameDecoder::push), pull complete frames with
/// [`next_frame`](FrameDecoder::next_frame), and call
/// [`finish`](FrameDecoder::finish) at end-of-stream to catch a
/// trailing partial frame. The first error poisons the decoder: a
/// stream that has desynchronised once cannot be trusted to
/// resynchronise, so every later call returns the original error.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Absolute stream offset of `buf[0]`.
    base: u64,
    /// Frames successfully decoded so far (= ordinal of the next one).
    frames: u64,
    poison: Option<WireError>,
}

impl FrameDecoder {
    /// A fresh decoder at stream offset zero.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append received bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Frames decoded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Try to decode the next complete frame. `Ok(None)` means more
    /// bytes are needed; an error is sticky.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        match self.try_decode() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poison = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Declare end-of-stream: errors if bytes of an unfinished frame
    /// remain buffered (or the decoder is already poisoned).
    pub fn finish(&self) -> Result<(), WireError> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        let expected = if self.buf.len() >= HEADER_LEN {
            let len = u32::from_le_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]]);
            HEADER_LEN + len as usize
        } else {
            HEADER_LEN
        };
        Err(WireError::Truncated {
            offset: self.base,
            frame: self.frames,
            expected,
            got: self.buf.len(),
        })
    }

    fn try_decode(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let (offset, frame) = (self.base, self.frames);
        let h = &self.buf[..HEADER_LEN];
        if h[0..2] != MAGIC {
            return Err(WireError::BadMagic { offset, frame, found: [h[0], h[1]] });
        }
        if h[2] != VERSION {
            return Err(WireError::BadVersion { offset, frame, found: h[2] });
        }
        let Some(kind) = FrameKind::from_byte(h[3]) else {
            return Err(WireError::BadKind { offset, frame, found: h[3] });
        };
        let seq = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
        let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
        let declared = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized { offset, frame, len, max: MAX_PAYLOAD });
        }
        let total = HEADER_LEN + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = &self.buf[HEADER_LEN..total];
        let computed = checksum(kind.as_byte(), seq, payload);
        if computed != declared {
            return Err(WireError::BadChecksum { offset, frame, declared, computed });
        }
        let payload = Bytes::copy_from_slice(payload);
        self.buf.drain(..total);
        self.base += total as u64;
        self.frames += 1;
        Ok(Some(Frame { kind, seq, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
        let mut d = FrameDecoder::new();
        d.push(bytes);
        let mut out = Vec::new();
        while let Some(f) = d.next_frame()? {
            out.push(f);
        }
        d.finish()?;
        Ok(out)
    }

    #[test]
    fn round_trips_across_chunk_boundaries() {
        let frames = [
            encode_frame(FrameKind::Request, 0, br#"{"kind":"Stats"}"#),
            encode_frame(FrameKind::Event, 7, b""),
            encode_frame(FrameKind::Response, 1, &[0u8; 1000]),
        ];
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        // Feed one byte at a time: the decoder must never need aligned
        // chunks.
        let mut d = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &wire {
            d.push(&[b]);
            while let Some(f) = d.next_frame().unwrap() {
                out.push(f);
            }
        }
        d.finish().unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].kind, FrameKind::Request);
        assert_eq!(out[1].seq, 7);
        assert_eq!(out[2].payload.len(), 1000);
    }

    #[test]
    fn corruption_in_the_second_frame_names_its_offset_and_ordinal() {
        let a = encode_frame(FrameKind::Request, 0, b"xx");
        let b = encode_frame(FrameKind::Request, 1, b"yy");
        let mut wire: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let second_start = a.len();
        wire[second_start + HEADER_LEN] ^= 0x01; // flip a payload bit
        let err = decode_all(&wire).unwrap_err();
        match err {
            WireError::BadChecksum { offset, frame, .. } => {
                assert_eq!(offset, second_start as u64);
                assert_eq!(frame, 1);
            }
            other => panic!("expected BadChecksum, got {other}"),
        }
    }

    #[test]
    fn the_first_error_poisons_the_decoder() {
        let mut wire = encode_frame(FrameKind::Request, 0, b"payload").to_vec();
        wire[0] = b'X';
        let mut d = FrameDecoder::new();
        d.push(&wire);
        let first = d.next_frame().unwrap_err();
        // Pushing a pristine frame afterwards must not resynchronise.
        d.push(&encode_frame(FrameKind::Request, 1, b"ok"));
        assert_eq!(d.next_frame().unwrap_err(), first);
        assert_eq!(d.finish().unwrap_err(), first);
    }

    #[test]
    fn a_truncated_tail_is_reported_at_finish() {
        let full = encode_frame(FrameKind::Response, 3, b"abcdef");
        for cut in 1..full.len() {
            let mut d = FrameDecoder::new();
            d.push(&full[..cut]);
            assert_eq!(d.next_frame().unwrap(), None, "cut at {cut}");
            match d.finish().unwrap_err() {
                WireError::Truncated { got, .. } => assert_eq!(got, cut),
                other => panic!("cut at {cut}: expected Truncated, got {other}"),
            }
        }
    }

    #[test]
    fn a_corrupt_sequence_number_breaks_the_checksum() {
        // The length field aside, every header byte after the version
        // is covered by the checksum — including seq.
        let mut wire = encode_frame(FrameKind::Event, 5, b"ev").to_vec();
        wire[4] ^= 0xff;
        match decode_all(&wire).unwrap_err() {
            WireError::BadChecksum { .. } => {}
            other => panic!("expected BadChecksum, got {other}"),
        }
    }

    #[test]
    fn the_checksum_is_crc32c() {
        // The standard check value, and the same bytes split anywhere
        // between the header fields and the payload.
        let text = b"123456789";
        assert_eq!(!crc32c(!0, text), 0xe306_9283);
        let seq = u32::from_le_bytes([text[1], text[2], text[3], text[4]]);
        assert_eq!(checksum(text[0], seq, &text[5..]), 0xe306_9283);
        // Every length and alignment against the one-bit-at-a-time
        // definition.
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 151 + 7) as u8).collect();
        for start in 0..8 {
            for end in start..bytes.len() {
                let mut crc = !0u32;
                for &b in &bytes[start..end] {
                    crc ^= u32::from(b);
                    for _ in 0..8 {
                        crc = if crc & 1 == 1 { (crc >> 1) ^ CASTAGNOLI } else { crc >> 1 };
                    }
                }
                assert_eq!(crc32c(!0, &bytes[start..end]), crc, "bytes {start}..{end}");
            }
        }
    }

    #[test]
    fn every_two_bit_flip_in_the_checked_region_is_refused() {
        let wire = encode_frame(FrameKind::Request, 0x0102_0304, &[b'x'; 32]).to_vec();
        assert_eq!(wire.len(), 48);
        // Kind, sequence number and payload; the length field is not
        // covered (a flip there is caught another way).
        let bits: Vec<usize> = (3 * 8..8 * 8).chain(HEADER_LEN * 8..wire.len() * 8).collect();
        for (n, &a) in bits.iter().enumerate() {
            for &b in &bits[n + 1..] {
                let mut bad = wire.clone();
                bad[a / 8] ^= 1 << (a % 8);
                bad[b / 8] ^= 1 << (b % 8);
                assert!(decode_all(&bad).is_err(), "bits {a} and {b} flipped");
            }
        }
    }

    #[test]
    fn a_version_1_frame_is_refused() {
        let mut wire = encode_frame(FrameKind::Request, 0, b"{}").to_vec();
        wire[2] = 1;
        assert_eq!(
            decode_all(&wire).unwrap_err(),
            WireError::BadVersion { offset: 0, frame: 0, found: 1 }
        );
    }

    #[test]
    fn an_absurd_length_is_rejected_before_allocation() {
        let mut wire = encode_frame(FrameKind::Request, 0, b"x").to_vec();
        wire[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_all(&wire).unwrap_err() {
            WireError::Oversized { len, .. } => assert_eq!(len, u32::MAX),
            other => panic!("expected Oversized, got {other}"),
        }
    }
}
