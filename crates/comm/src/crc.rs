//! CRC-32 (IEEE 802.3 polynomial) over message and checkpoint payloads.
//!
//! Both the channel fabric (per-message integrity) and `zero-core`'s
//! snapshot format (per-file integrity) use this one implementation, so a
//! bit flipped anywhere in a payload — in flight or at rest — is detected
//! by the same checksum.
//!
//! The kernel is slicing-by-16: sixteen 256-entry tables, built at compile
//! time, let one step fold 16 input bytes with 16 independent lookups
//! instead of 16 dependent ones. Any byte count that is not a multiple of
//! 16 is finished with the classic one-byte-per-step loop over the first
//! table. Polynomial, initial value and final xor are the CRC-32/ISO-HDLC
//! ones, so every checksum — and hence the wire frames and snapshot files
//! that carry one — is bit-identical to the bytewise algorithm; only the
//! rate changes. [`crc32_f32s`] feeds four floats per step straight from
//! `f32::to_bits`, which is the little-endian byte image on every host.

/// Reflected polynomial for CRC-32/ISO-HDLC (the zlib/ethernet CRC).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, i.e. `TABLES[k-1][b]` advanced one byte.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Advances `state` by one byte (the classic bytewise step).
#[inline]
fn step_byte(state: u32, b: u8) -> u32 {
    (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize]
}

/// Advances `state` by 16 bytes given as four little-endian words.
#[inline]
fn fold16(state: u32, w: [u32; 4]) -> u32 {
    let t = &TABLES;
    let [a, b, c, d] = [w[0] ^ state, w[1], w[2], w[3]];
    let lane = |x: u32, hi: usize| {
        t[hi][(x & 0xFF) as usize]
            ^ t[hi - 1][((x >> 8) & 0xFF) as usize]
            ^ t[hi - 2][((x >> 16) & 0xFF) as usize]
            ^ t[hi - 3][(x >> 24) as usize]
    };
    lane(a, 15) ^ lane(b, 11) ^ lane(c, 7) ^ lane(d, 3)
}

/// Streaming CRC-32 state, for checksumming data as it is written/read.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum. Split points are free: feeding a
    /// buffer in pieces gives the same checksum as feeding it whole.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(16);
        let mut state = self.state;
        for c in &mut chunks {
            let w = |i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
            state = fold16(state, [w(0), w(4), w(8), w(12)]);
        }
        for &b in chunks.remainder() {
            state = step_byte(state, b);
        }
        self.state = state;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// CRC-32 of an f32 slice, over its little-endian byte image (matching how
/// snapshots serialize floats, so in-flight and at-rest checksums agree).
pub fn crc32_f32s(data: &[f32]) -> u32 {
    let mut chunks = data.chunks_exact(4);
    let mut state = Crc32::new().state;
    for c in &mut chunks {
        let w = |i: usize| c[i].to_bits();
        state = fold16(state, [w(0), w(1), w(2), w(3)]);
    }
    let mut crc = Crc32 { state };
    for v in chunks.remainder() {
        crc.update(&v.to_le_bytes());
    }
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise loop the sliced kernel replaced: one dependent table
    /// lookup per byte.
    fn reference(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        !state
    }

    /// Deterministic filler bytes so every length sees varied content.
    fn bytes_of(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Maps a draw onto an f32 bit pattern, biased toward the values a
    /// float-aware shortcut would get wrong: −0.0, NaNs with arbitrary
    /// payloads and sign, and subnormals.
    fn float_of(draw: u64) -> f32 {
        let bits = draw as u32;
        match draw >> 32 {
            0 => -0.0,
            1 => f32::from_bits((bits & 0x807F_FFFF) | 0x7F80_0001),
            2 => f32::from_bits((bits & 0x807F_FFFF) | 1),
            _ => f32::from_bits(bits),
        }
    }

    #[test]
    fn known_answer() {
        // CRC-32/ISO-HDLC of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Long enough to take the 16-byte fold twice plus a remainder.
        let fox = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc32(fox), 0x414F_A339);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn f32_crc_matches_byte_crc() {
        let floats = [1.0f32, -2.5, 3.25e7, f32::MIN_POSITIVE];
        let bytes: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(crc32_f32s(&floats), crc32(&bytes));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0.5f32; 64];
        let clean = crc32_f32s(&data);
        data[17] = f32::from_bits(data[17].to_bits() ^ (1 << 3));
        assert_ne!(clean, crc32_f32s(&data));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sliced_matches_reference(seed in 0u64..u64::MAX) {
            // Every length 0..=300: each whole-chunk count with each remainder.
            let data = bytes_of(seed, 300);
            for len in 0..=data.len() {
                let prefix = &data[..len];
                prop_assert_eq!(crc32(prefix), reference(prefix), "length {}", len);
            }
        }

        #[test]
        fn streaming_is_split_invariant(
            len in 0usize..200,
            seed in 0u64..u64::MAX,
            cuts in prop::collection::vec(0usize..200, 0..4),
        ) {
            let data = bytes_of(seed, len);
            let whole = reference(&data);
            // Every single split point, then a few multi-way splits.
            for at in 0..=len {
                let mut c = Crc32::new();
                c.update(&data[..at]);
                c.update(&data[at..]);
                prop_assert_eq!(c.finish(), whole, "split at {} of {}", at, len);
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|x| x % (len + 1)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for &at in cuts.iter().chain(std::iter::once(&len)) {
                c.update(&data[from..at]);
                from = at;
            }
            prop_assert_eq!(c.finish(), whole, "cuts {:?} of {}", cuts, len);
        }

        #[test]
        fn f32_crc_is_crc_of_le_bytes(draws in prop::collection::vec(0u64..(8u64 << 32), 0..71)) {
            let floats: Vec<f32> = draws.into_iter().map(float_of).collect();
            let bytes: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
            prop_assert_eq!(crc32_f32s(&floats), reference(&bytes), "{} floats", floats.len());
        }
    }
}
