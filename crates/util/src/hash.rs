//! Checksums shared across the workspace.
//!
//! One CRC-32 implementation — one table, one fold — serves both durable
//! artefacts (the checkpoint codec in `bookleaf_core::output`, which
//! streams a file through [`Crc32`] as it writes it) and in-flight
//! message integrity (the typhon layer checksums every payload so
//! injected or real corruption surfaces as a typed `CommError` instead
//! of silently wrong physics).

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum gzip/zip use. Guarantees detection of any single burst of
/// up to 32 bits, which covers every single-byte corruption.
///
/// Slice-by-16 tables: `CRC_TABLES[0]` is the classic bytewise table
/// and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so sixteen input bytes fold into the running value with
/// sixteen independent lookups instead of sixteen dependent ones
/// (16 KB, L1-resident). A `static`, not a `const`: an unoptimised
/// build copies a `const` array at every lookup.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
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
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The xor of the four table entries that advance the little-endian
/// word `w` past itself and `trailing` further bytes.
#[inline]
fn advance(w: u32, trailing: usize) -> u32 {
    (CRC_TABLES[trailing + 3][(w & 0xFF) as usize]
        ^ CRC_TABLES[trailing + 2][((w >> 8) & 0xFF) as usize])
        ^ (CRC_TABLES[trailing + 1][((w >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[trailing][(w >> 24) as usize])
}

/// Fold sixteen bytes, as four little-endian words, into the running
/// (pre-inverted) value `c`. Only the first word's lookups wait on the
/// running value; the other three are separate xor trees the core can
/// finish ahead of them.
#[inline]
fn fold16(c: u32, w: [u32; 4]) -> u32 {
    advance(w[0] ^ c, 12) ^ (advance(w[1], 8) ^ (advance(w[2], 4) ^ advance(w[3], 0)))
}

/// Fold eight bytes (the tail of a byte string, or an odd last double).
#[inline]
fn fold8(c: u32, lo: u32, hi: u32) -> u32 {
    advance(lo ^ c, 4) ^ advance(hi, 0)
}

#[inline]
fn word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// CRC-32 of `bytes` (IEEE, reflected). See [`crc32_f64s`] for the
/// payload-of-doubles flavour the comm layer uses, and [`Crc32`] for a
/// byte string that arrives in pieces.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// [`crc32`] of a byte string that arrives in pieces: the CRC of the
/// concatenation, bit for bit, without building it. The running value
/// is exact after every byte, so a piece may end anywhere; each piece
/// folds in sixteen-byte steps and its last few bytes one at a time.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    /// The running (pre-inverted) value.
    c: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The CRC of nothing yet.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { c: 0xFFFF_FFFF }
    }

    /// Append `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.c;
        let mut chunks = bytes.chunks_exact(16);
        for chunk in &mut chunks {
            let words = [
                word(&chunk[0..4]),
                word(&chunk[4..8]),
                word(&chunk[8..12]),
                word(&chunk[12..16]),
            ];
            c = fold16(c, words);
        }
        let mut tail = chunks.remainder();
        if tail.len() >= 8 {
            c = fold8(c, word(&tail[0..4]), word(&tail[4..8]));
            tail = &tail[8..];
        }
        for &b in tail {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.c = c;
    }

    /// The CRC of everything appended.
    #[must_use]
    pub fn finish(self) -> u32 {
        self.c ^ 0xFFFF_FFFF
    }
}

/// CRC-32 over the little-endian byte representation of a slice of
/// doubles — the message-payload checksum of the typhon layer. Bitwise:
/// `-0.0` and `0.0` differ, NaN payloads checksum by their exact bit
/// pattern, so any in-flight bit flip is detected.
#[must_use]
pub fn crc32_f64s(values: &[f64]) -> u32 {
    let mut crc = Crc32F64s::new();
    crc.update(values);
    crc.finish()
}

/// [`crc32_f64s`] of a sequence of doubles that arrives in pieces: the
/// CRC of the concatenation, bit for bit, without building it. An odd
/// double at the end of one piece waits for the first of the next, so
/// every piece folds in sixteen-byte steps.
#[derive(Debug, Clone, Copy)]
pub struct Crc32F64s {
    /// The running (pre-inverted) value.
    c: u32,
    /// The double waiting for its pair.
    odd: Option<f64>,
}

impl Default for Crc32F64s {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32F64s {
    /// The CRC of nothing yet.
    #[must_use]
    pub fn new() -> Self {
        Crc32F64s {
            c: 0xFFFF_FFFF,
            odd: None,
        }
    }

    /// Append `values`.
    #[inline]
    pub fn update(&mut self, mut values: &[f64]) {
        // The eight little-endian bytes of a double are its bits, low
        // word first: two doubles make one sixteen-byte step.
        let words = |v: f64| (v.to_bits() as u32, (v.to_bits() >> 32) as u32);
        let mut c = self.c;
        if let (Some(first), [second, rest @ ..]) = (self.odd, values) {
            let ((a, b), (d, e)) = (words(first), words(*second));
            c = fold16(c, [a, b, d, e]);
            self.odd = None;
            values = rest;
        }
        let mut pairs = values.chunks_exact(2);
        for pair in &mut pairs {
            let ((a, b), (d, e)) = (words(pair[0]), words(pair[1]));
            c = fold16(c, [a, b, d, e]);
        }
        if let [last] = pairs.remainder() {
            self.odd = Some(*last);
        }
        self.c = c;
    }

    /// The CRC of everything appended.
    #[must_use]
    pub fn finish(self) -> u32 {
        let c = match self.odd {
            Some(v) => fold8(self.c, v.to_bits() as u32, (v.to_bits() >> 32) as u32),
            None => self.c,
        };
        c ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-byte-at-a-time loop the sliced form replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        // A splitmix-style byte stream; every length 0..=64 at every
        // start offset 0..8 covers all chunk/remainder combinations.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 72)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{offset}+{len}");
            }
        }
        // Pseudo-random longer lengths and alignments.
        for _ in 0..200 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let offset = (x >> 60) as usize;
            let len = (x >> 32) as usize % 4096;
            let slice = &data[offset..offset + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "{offset}+{len}");
        }
    }

    #[test]
    fn f64_flavour_matches_byte_flavour() {
        let values = [1.0f64, -0.0, f64::NAN, 3.5e-120, -7.25];
        // Every prefix: empty, odd and even counts.
        for n in 0..=values.len() {
            let mut bytes = Vec::new();
            for v in &values[..n] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            assert_eq!(crc32_f64s(&values[..n]), crc32(&bytes), "{n} doubles");
        }
    }

    /// Streaming a sequence in pieces is the one-shot CRC, wherever the
    /// pieces split it: at every one and two split points of random
    /// sequences of odd and even length, empty pieces included.
    #[test]
    fn streamed_matches_one_shot_at_every_split() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for n in [0usize, 1, 2, 7, 10, 33] {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    f64::from_bits(x)
                })
                .collect();
            let whole = crc32_f64s(&values);
            for i in 0..=n {
                for j in i..=n {
                    let mut crc = Crc32F64s::new();
                    for piece in [&values[..i], &values[i..j], &values[j..]] {
                        crc.update(piece);
                    }
                    assert_eq!(crc.finish(), whole, "{n} doubles split at {i}, {j}");
                }
            }
        }
    }

    /// A byte string fed to [`Crc32`] in pieces is [`crc32`] of the
    /// whole, wherever the pieces split it: at every one and two split
    /// points of random strings around the sixteen- and eight-byte folds,
    /// empty pieces included.
    #[test]
    fn streamed_bytes_match_one_shot_at_every_split() {
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        for n in [0usize, 1, 7, 8, 15, 16, 17, 31, 33, 100] {
            let bytes: Vec<u8> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (x >> 56) as u8
                })
                .collect();
            let whole = crc32(&bytes);
            assert_eq!(whole, crc32_bytewise(&bytes), "{n} bytes");
            for i in 0..=n {
                for j in i..=n {
                    let mut crc = Crc32::new();
                    for piece in [&bytes[..i], &bytes[i..j], &bytes[j..]] {
                        crc.update(piece);
                    }
                    assert_eq!(crc.finish(), whole, "{n} bytes split at {i}, {j}");
                }
            }
        }
    }

    /// The doubles' checksum is pinned to its values of record: typhon's
    /// message checksums and the run digest (`state_crc`) feed it, so a
    /// change to the shared fold must not move it. Each value is zlib's
    /// CRC-32 of the doubles' little-endian bytes.
    #[test]
    fn f64_flavour_is_pinned() {
        let values = [1.0f64, -0.0, f64::NAN, 3.5e-120, -7.25];
        let pinned = [
            0x0000_0000,
            0xC7F8_13E9,
            0xE0C7_4BEF,
            0x4138_27EC,
            0xD644_48B9,
            0x2D0B_45D4,
        ];
        for (n, want) in pinned.into_iter().enumerate() {
            assert_eq!(crc32_f64s(&values[..n]), want, "{n} doubles");
        }
        // The sequences `streamed_matches_one_shot_at_every_split` splits.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for (n, want) in [
            (0usize, 0x0000_0000),
            (1, 0x4588_0217),
            (2, 0x87DC_8C54),
            (7, 0x4713_6F7F),
            (10, 0x6CD4_B7F9),
            (33, 0xB20D_5108),
        ] {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    f64::from_bits(x)
                })
                .collect();
            assert_eq!(crc32_f64s(&values), want, "{n} random doubles");
            let mut crc = Crc32F64s::new();
            for piece in values.chunks(3) {
                crc.update(piece);
            }
            assert_eq!(crc.finish(), want, "{n} random doubles, in threes");
        }
    }

    #[test]
    fn single_bit_flip_changes_the_checksum() {
        let a = [1.0f64, 2.0, 3.0];
        let mut b = a;
        b[1] = f64::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(crc32_f64s(&a), crc32_f64s(&b));
    }
}
