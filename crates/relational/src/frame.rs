//! Checksummed, length-prefixed frames — the unit of every byte stream
//! the workspace persists: `codb-store`'s WAL and snapshot files and
//! `codb-trace`'s flight-recorder blocks.
//!
//! Layout: `[len: u32 LE][!len: u32 LE][crc32: u32 LE][payload: len bytes]`,
//! where the CRC is the IEEE CRC-32 of the payload bytes and `!len` is the
//! bitwise complement of `len`. Frames are self-delimiting so a reader can
//! scan a file without any index.
//!
//! The complemented length copy is what lets the scanner tell a *torn
//! tail* (tolerated — the artifact of a crash mid-append) from a
//! *corrupted length field* (rejected): a frame whose `len`/`!len` pair
//! does not match is corruption even when `len` claims to run past
//! end-of-file, so bit rot in a length field can never silently truncate
//! the durable records behind it. Only a frame whose validated header (or
//! the header itself) is cut off by end-of-file is torn.

/// Frame header size: `len` + `!len` + `crc`.
pub const FRAME_HEADER: usize = 12;

/// Slicing-by-8 lookup tables: table 0 is the classic bytewise table,
/// table `j` maps a byte to its CRC contribution `j` positions further
/// ahead, so the hot loop folds 8 input bytes per iteration. Same
/// polynomial, same checksums as the bytewise form — only faster, which
/// matters because every WAL append and every sealed trace block pays one
/// pass here.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// IEEE CRC-32 (the polynomial used by zip/png/ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    !crc_fold(!0u32, data)
}

/// Streaming CRC-32 with the same polynomial (and therefore the same
/// final value) as [`crc32`]. The trace file recorder updates it over
/// each event's freshly appended bytes — still warm in cache — so sealing
/// a block never has to re-read the whole buffer.
#[derive(Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh streaming checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = crc_fold(self.state, data);
    }

    /// The checksum of everything folded in so far (does not consume —
    /// more updates may follow after a peek).
    pub fn finish(&self) -> u32 {
        !self.state
    }

    /// Rewinds to the fresh state (start of a new frame).
    pub fn reset(&mut self) {
        self.state = !0;
    }
}

fn crc_fold(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize];
    }
    c
}

/// The header of a frame whose payload is `len` bytes long and checksums
/// to `crc` — for a writer that kept a running [`Crc32`] and streams the
/// payload itself; everyone else calls [`encode_frame`].
pub fn frame_header(len: u32, crc: u32) -> [u8; FRAME_HEADER] {
    let mut h = [0u8; FRAME_HEADER];
    h[0..4].copy_from_slice(&len.to_le_bytes());
    h[4..8].copy_from_slice(&(!len).to_le_bytes());
    h[8..12].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Appends one frame wrapping `payload` to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&frame_header(payload.len() as u32, crc32(payload)));
    out.extend_from_slice(payload);
}

/// One step of frame scanning.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStep<'a> {
    /// A complete, checksum-valid frame.
    Frame(&'a [u8]),
    /// End of input exactly at a frame boundary.
    End,
    /// The remaining bytes are a prefix of a frame (crash mid-append): the
    /// header is cut off, or a *validated* header promises more payload
    /// than the file holds.
    TornTail,
    /// The frame is damaged: its length check or payload checksum failed.
    Corrupt {
        /// Byte offset of the frame's header within the scanned region.
        offset: usize,
        /// What failed.
        reason: String,
    },
}

/// Iterator-style scanner over a byte region containing frames.
pub struct FrameScanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameScanner<'a> {
    /// Scans `buf` (which must start at a frame boundary).
    pub fn new(buf: &'a [u8]) -> Self {
        FrameScanner { buf, pos: 0 }
    }

    /// Byte offset of the next unread frame header.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Advances to the next frame.
    pub fn next_frame(&mut self) -> FrameStep<'a> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return FrameStep::End;
        }
        if rest.len() < FRAME_HEADER {
            return FrameStep::TornTail;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let len_inv = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len_inv != !len {
            // The length field itself is damaged. Without the complement
            // check this would be indistinguishable from a torn tail, and
            // recovery would silently truncate every durable frame behind
            // the bit flip.
            return FrameStep::Corrupt {
                offset: self.pos,
                reason: format!("length check failed: len {len:#010x}, complement {len_inv:#010x}"),
            };
        }
        let stored = u32::from_le_bytes(rest[8..12].try_into().expect("4 bytes"));
        let Some(payload) = rest.get(FRAME_HEADER..FRAME_HEADER + len as usize) else {
            // Validated length, missing payload: the append was cut short.
            return FrameStep::TornTail;
        };
        let computed = crc32(payload);
        if computed != stored {
            return FrameStep::Corrupt {
                offset: self.pos,
                reason: format!(
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                ),
            };
        }
        self.pos += FRAME_HEADER + len as usize;
        FrameStep::Frame(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table bytewise CRC-32 — the reference the slicing-by-8
    /// fold and the streaming form are checked against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = (c >> 8) ^ CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize];
        }
        !c
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A seeded buffer (xorshift64) long enough for every window below.
    fn seeded_buf() -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..80)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Every length 0..=64 at every alignment of the 8-byte fold.
    fn windows(buf: &[u8]) -> impl Iterator<Item = &[u8]> {
        (0..8).flat_map(move |start| (0..=64).map(move |len| &buf[start..start + len]))
    }

    #[test]
    fn sliced_crc_matches_bytewise_at_every_length_and_offset() {
        let buf = seeded_buf();
        for data in windows(&buf) {
            assert_eq!(crc32(data), crc32_bytewise(data), "len {}", data.len());
        }
    }

    #[test]
    fn streaming_crc_matches_bytewise_split_at_every_position() {
        let buf = seeded_buf();
        for data in windows(&buf) {
            let want = crc32_bytewise(data);
            for split in 0..=data.len() {
                let mut s = Crc32::new();
                s.update(&data[..split]);
                s.update(&data[split..]);
                assert_eq!(s.finish(), want, "len {} split {split}", data.len());
            }
        }
    }

    #[test]
    fn streaming_crc_reset_rewinds_to_empty() {
        let mut s = Crc32::new();
        s.update(b"123456789");
        assert_eq!(s.finish(), 0xCBF4_3926);
        s.reset();
        assert_eq!(s.finish(), crc32(b""));
    }

    #[test]
    fn frame_header_is_what_encode_frame_writes() {
        let mut buf = Vec::new();
        encode_frame(b"payload-bytes", &mut buf);
        assert_eq!(buf[..FRAME_HEADER], frame_header(13, crc32(b"payload-bytes")));
        assert_eq!(&buf[FRAME_HEADER..], b"payload-bytes");
    }

    #[test]
    fn round_trip_multiple_frames() {
        let mut buf = Vec::new();
        encode_frame(b"alpha", &mut buf);
        encode_frame(b"", &mut buf);
        encode_frame(b"beta-beta", &mut buf);
        let mut sc = FrameScanner::new(&buf);
        assert_eq!(sc.next_frame(), FrameStep::Frame(b"alpha" as &[u8]));
        assert_eq!(sc.next_frame(), FrameStep::Frame(b"" as &[u8]));
        assert_eq!(sc.next_frame(), FrameStep::Frame(b"beta-beta" as &[u8]));
        assert_eq!(sc.next_frame(), FrameStep::End);
    }

    #[test]
    fn truncation_is_torn_not_corrupt() {
        let mut buf = Vec::new();
        encode_frame(b"payload-bytes", &mut buf);
        for cut in 1..buf.len() {
            let mut sc = FrameScanner::new(&buf[..cut]);
            assert_eq!(sc.next_frame(), FrameStep::TornTail, "cut at {cut}");
        }
    }

    #[test]
    fn payload_bit_flip_is_corrupt() {
        let mut buf = Vec::new();
        encode_frame(b"payload-bytes", &mut buf);
        buf[FRAME_HEADER + 3] ^= 0x10;
        let mut sc = FrameScanner::new(&buf);
        assert!(matches!(sc.next_frame(), FrameStep::Corrupt { offset: 0, .. }));
    }

    #[test]
    fn length_bit_flip_is_corrupt_not_torn() {
        // A flipped length bit claiming a huge frame must NOT read as a
        // torn tail — that would silently discard the frames behind it.
        let mut buf = Vec::new();
        encode_frame(b"first", &mut buf);
        encode_frame(b"second", &mut buf);
        let mut flipped = buf.clone();
        flipped[1] ^= 0x80; // len low word, high-ish bit: promises megabytes
        let mut sc = FrameScanner::new(&flipped);
        match sc.next_frame() {
            FrameStep::Corrupt { offset: 0, reason } => {
                assert!(reason.contains("length check"), "{reason}");
            }
            other => panic!("expected length-check corruption, got {other:?}"),
        }
    }

    #[test]
    fn corruption_mid_stream_reports_offset() {
        let mut buf = Vec::new();
        encode_frame(b"first", &mut buf);
        let second_at = buf.len();
        encode_frame(b"second", &mut buf);
        buf[second_at + FRAME_HEADER] ^= 1;
        let mut sc = FrameScanner::new(&buf);
        assert!(matches!(sc.next_frame(), FrameStep::Frame(_)));
        match sc.next_frame() {
            FrameStep::Corrupt { offset, .. } => assert_eq!(offset, second_at),
            other => panic!("expected corruption, got {other:?}"),
        }
    }
}
