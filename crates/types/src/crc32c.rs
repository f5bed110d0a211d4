//! Hand-rolled CRC32C (Castagnoli), the workspace's end-to-end integrity
//! checksum.
//!
//! Every wire frame, update-log record, and store image is protected by
//! this checksum (DESIGN.md §15). The implementation is dependency-free by
//! design — the workspace deliberately builds from the standard library
//! alone.
//!
//! CRC32C (polynomial `0x1EDC6A6F`, reflected `0x82F63B78`) detects **all**
//! single-bit errors, all double-bit errors within the frame sizes used
//! here, and any burst error up to 32 bits — which is what makes the
//! single-bit-flip property test in `wire.rs` a guarantee rather than a
//! probabilistic claim.
//!
//! # Two kernels
//!
//! - **SSE4.2** (x86_64 only): the `crc32` instruction computes this very
//!   polynomial in hardware. [`Crc32c::update`] folds 8 bytes per
//!   instruction, and [`Crc32c::update_u32`] and [`Crc32c::update_u64`]
//!   fold their whole value with one instruction each. Most calls on the
//!   hot path fold one such field (the header words of each store image,
//!   each log record and each snapshot-delta entry), so the single-field
//!   forms matter as much as the bulk loop.
//! - **Portable slice-by-8**: eight table lookups per 8 input bytes
//!   instead of eight shifts per input *bit* for the naive bitwise form.
//!   It is the only kernel on every other target and on x86_64 CPUs
//!   without SSE4.2, and it is the reference the hardware kernel is
//!   tested against.
//!
//! Both kernels produce bit-identical checksums, so a value computed on
//! one machine verifies on any other.
//!
//! # Picking a kernel
//!
//! On x86_64, every call checks `is_x86_feature_detected!("sse4.2")`,
//! which caches the CPUID answer after the first call: one load and one
//! branch. Only the CPU selects a kernel; there is no feature flag,
//! setting or build option for it.
//!
//! # Safety
//!
//! This module holds the library crates' only `unsafe` code. The SSE4.2
//! kernel functions carry `#[target_feature(enable = "sse4.2")]`, which
//! makes calling them `unsafe` outside code compiled for that feature:
//! on a CPU without it the instruction would fault. Each call sits right
//! after the runtime check that the CPU has SSE4.2. The `crc32`
//! intrinsics take values, not pointers, and the kernels read their
//! input through safe slices, so CPU support is the only precondition.
//!
//! # Examples
//!
//! ```
//! use rtpb_types::crc32c;
//!
//! // The canonical check vector from RFC 3720 §B.4.
//! assert_eq!(crc32c(b"123456789"), 0xE306_9283);
//! // Streaming over slices matches the one-shot form.
//! let mut state = rtpb_types::Crc32c::new();
//! state.update(b"1234");
//! state.update(b"56789");
//! assert_eq!(state.finalize(), crc32c(b"123456789"));
//! ```

/// Incremental CRC32C state, for checksumming a frame as it is built or
/// verified slice-at-a-time.
///
/// See [`crc32c`] for the one-shot form and the check vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Starts a fresh checksum.
    #[must_use]
    pub const fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Folds `bytes` into the checksum: 8 bytes per step, then the
    /// remaining tail (hardware `crc32` where the CPU has SSE4.2,
    /// slice-by-8 otherwise).
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(crc) = sse42::update(self.state, bytes) {
            self.state = crc;
            return;
        }
        self.state = portable::update(self.state, bytes);
    }

    /// Folds a single `u32` (big-endian byte order, matching the wire
    /// codec's integer encoding).
    #[inline]
    pub fn update_u32(&mut self, v: u32) {
        #[cfg(target_arch = "x86_64")]
        if let Some(crc) = sse42::update_u32(self.state, v) {
            self.state = crc;
            return;
        }
        self.state = portable::update(self.state, &v.to_be_bytes());
    }

    /// Folds a single `u64` (big-endian byte order).
    #[inline]
    pub fn update_u64(&mut self, v: u64) {
        #[cfg(target_arch = "x86_64")]
        if let Some(crc) = sse42::update_u64(self.state, v) {
            self.state = crc;
            return;
        }
        self.state = portable::update(self.state, &v.to_be_bytes());
    }

    /// The finished checksum.
    #[must_use]
    pub const fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

/// One-shot CRC32C of `bytes`.
#[must_use]
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(bytes);
    c.finalize()
}

/// The SSE4.2 kernel. Each entry point returns `None` when this CPU
/// lacks SSE4.2, and the caller falls back to [`portable`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sse42 {
    use std::arch::is_x86_feature_detected;
    use std::arch::x86_64::{_mm_crc32_u32, _mm_crc32_u64, _mm_crc32_u8};

    /// Folds `bytes` into the raw (un-inverted) state `crc`.
    #[inline]
    pub(super) fn update(crc: u32, bytes: &[u8]) -> Option<u32> {
        if !is_x86_feature_detected!("sse4.2") {
            return None;
        }
        // SAFETY: the CPU has SSE4.2 (checked just above), the only
        // precondition of a function compiled for it; `fold_bytes` reads
        // `bytes` through safe slice operations.
        Some(unsafe { fold_bytes(crc, bytes) })
    }

    /// Folds `v` as its 4 big-endian bytes.
    #[inline]
    pub(super) fn update_u32(crc: u32, v: u32) -> Option<u32> {
        if !is_x86_feature_detected!("sse4.2") {
            return None;
        }
        // SAFETY: the CPU has SSE4.2 (checked just above), the only
        // precondition of a function compiled for it.
        Some(unsafe { fold_u32(crc, v) })
    }

    /// Folds `v` as its 8 big-endian bytes.
    #[inline]
    pub(super) fn update_u64(crc: u32, v: u64) -> Option<u32> {
        if !is_x86_feature_detected!("sse4.2") {
            return None;
        }
        // SAFETY: the CPU has SSE4.2 (checked just above), the only
        // precondition of a function compiled for it.
        Some(unsafe { fold_u64(crc, v) })
    }

    /// `crc32` consumes its operand's bytes lowest-addressed first, as
    /// a little-endian load lays them out, so 8 input bytes fold as one
    /// little-endian `u64`.
    #[target_feature(enable = "sse4.2")]
    fn fold_bytes(crc: u32, bytes: &[u8]) -> u32 {
        let (words, tail) = bytes.as_chunks::<8>();
        let mut crc = u64::from(crc);
        for word in words {
            crc = _mm_crc32_u64(crc, u64::from_le_bytes(*word));
        }
        // `crc32` leaves the upper 32 bits of its 64-bit result zero.
        let mut crc = crc as u32;
        let (dwords, tail) = tail.as_chunks::<4>();
        for dword in dwords {
            crc = _mm_crc32_u32(crc, u32::from_le_bytes(*dword));
        }
        for &b in tail {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }

    /// The wire order is big-endian and `crc32` reads little-endian, so
    /// the value is byte-swapped before it is folded.
    #[target_feature(enable = "sse4.2")]
    fn fold_u32(crc: u32, v: u32) -> u32 {
        _mm_crc32_u32(crc, v.swap_bytes())
    }

    /// As [`fold_u32`], for 8 bytes.
    #[target_feature(enable = "sse4.2")]
    fn fold_u64(crc: u32, v: u64) -> u32 {
        _mm_crc32_u64(u64::from(crc), v.swap_bytes()) as u32
    }
}

/// The slice-by-8 kernel.
mod portable {
    /// The reflected CRC32C (Castagnoli) polynomial.
    pub(super) const POLY: u32 = 0x82F6_3B78;

    /// Number of slice-by-N lookup tables.
    const TABLES: usize = 8;

    /// The slice-by-8 lookup tables, generated at compile time.
    ///
    /// `TABLE[0]` is the classic byte-at-a-time table; `TABLE[k][b]` is the
    /// CRC of byte `b` followed by `k` zero bytes, which is what lets eight
    /// input bytes be folded with eight independent lookups.
    static TABLE: [[u32; 256]; TABLES] = build_tables();

    const fn build_tables() -> [[u32; 256]; TABLES] {
        let mut t = [[0u32; 256]; TABLES];
        let mut b = 0usize;
        while b < 256 {
            let mut crc = b as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            t[0][b] = crc;
            b += 1;
        }
        let mut k = 1;
        while k < TABLES {
            let mut b = 0usize;
            while b < 256 {
                let prev = t[k - 1][b];
                t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                b += 1;
            }
            k += 1;
        }
        t
    }

    /// Folds `bytes` into the raw (un-inverted) state `crc`: slice-by-8
    /// over whole 8-byte chunks, byte-at-a-time over the tail.
    pub(super) fn update(mut crc: u32, bytes: &[u8]) -> u32 {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = TABLE[7][(lo & 0xFF) as usize]
                ^ TABLE[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLE[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLE[4][((lo >> 24) & 0xFF) as usize]
                ^ TABLE[3][(hi & 0xFF) as usize]
                ^ TABLE[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLE[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLE[0][((hi >> 24) & 0xFF) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLE[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise reference: one shift per input bit, folded into the raw
    /// (un-inverted) state like the kernels.
    fn bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ portable::POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    /// One kernel's three entry points, each over the raw state.
    struct Kernel {
        name: &'static str,
        bytes: fn(u32, &[u8]) -> u32,
        field_u32: fn(u32, u32) -> u32,
        field_u64: fn(u32, u64) -> u32,
    }

    /// Every kernel this CPU can run. The SSE4.2 leg is present only
    /// where the CPU has SSE4.2.
    fn kernels() -> Vec<Kernel> {
        let portable = Kernel {
            name: "portable",
            bytes: portable::update,
            field_u32: |crc, v| portable::update(crc, &v.to_be_bytes()),
            field_u64: |crc, v| portable::update(crc, &v.to_be_bytes()),
        };
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            let sse42 = Kernel {
                name: "sse42",
                bytes: |crc, bytes| sse42::update(crc, bytes).expect("SSE4.2 detected"),
                field_u32: |crc, v| sse42::update_u32(crc, v).expect("SSE4.2 detected"),
                field_u64: |crc, v| sse42::update_u64(crc, v).expect("SSE4.2 detected"),
            };
            return vec![portable, sse42];
        }
        vec![portable]
    }

    /// A fixed-seed xorshift64* stream, so every run checks the same
    /// inputs.
    struct Rng(u64);

    impl Rng {
        fn new() -> Self {
            Rng(0x9E37_79B9_7F4A_7C15)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    /// Random inputs of every length 0–64, then random lengths up to
    /// 64 KiB.
    fn inputs(rng: &mut Rng) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..=64).map(|len| rng.bytes(len)).collect();
        for _ in 0..32 {
            let len = rng.below(64 * 1024 + 1);
            out.push(rng.bytes(len));
        }
        out
    }

    #[test]
    fn rfc3720_check_vectors() {
        // RFC 3720 §B.4 test cases for CRC32C.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (input, expected) in vectors {
            assert_eq!(crc32c(input), expected);
            for k in kernels() {
                assert_eq!(!(k.bytes)(!0, input), expected, "{}", k.name);
            }
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn kernels_match_bitwise_on_random_inputs() {
        let mut rng = Rng::new();
        for input in inputs(&mut rng) {
            // A random starting state, so a kernel that ignored its
            // carried-in state would fail too.
            let state = rng.next() as u32;
            let expected = bitwise(state, &input);
            let len = input.len();
            for k in kernels() {
                assert_eq!(
                    (k.bytes)(state, &input),
                    expected,
                    "{} at len {len}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn kernels_match_bitwise_at_every_alignment() {
        // Lengths straddling the 8- and 4-byte steps, at shifted offsets,
        // so every split between words, dwords and tail bytes is hit.
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        for start in 0..16 {
            for len in [
                0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 63, 64, 65, 255, 256, 900,
            ] {
                let slice = &data[start..start + len];
                for k in kernels() {
                    assert_eq!(
                        (k.bytes)(!0, slice),
                        bitwise(!0, slice),
                        "{} at start={start} len={len}",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_match_bitwise_split_across_calls() {
        let mut rng = Rng::new();
        for input in inputs(&mut rng) {
            let expected = bitwise(!0, &input);
            let len = input.len();
            // Up to 8 random cut points.
            let mut cuts: Vec<usize> = (0..rng.below(9)).map(|_| rng.below(len + 1)).collect();
            cuts.sort_unstable();
            for k in kernels() {
                let mut state = !0;
                let mut from = 0;
                for cut in cuts.iter().copied().chain([len]) {
                    state = (k.bytes)(state, &input[from..cut]);
                    from = cut;
                }
                assert_eq!(state, expected, "{} at len {len} cut at {cuts:?}", k.name);
            }
        }
    }

    #[test]
    fn field_kernels_fold_their_big_endian_bytes() {
        let mut rng = Rng::new();
        let mut fields: Vec<u64> = vec![0, 1, u64::MAX, 0x0123_4567_89AB_CDEF];
        fields.extend((0..256).map(|_| rng.next()));
        for v in fields {
            let state = rng.next() as u32;
            let narrow = v as u32;
            for k in kernels() {
                assert_eq!(
                    (k.field_u32)(state, narrow),
                    bitwise(state, &narrow.to_be_bytes()),
                    "{} u32 {narrow:#x}",
                    k.name
                );
                assert_eq!(
                    (k.field_u64)(state, v),
                    bitwise(state, &v.to_be_bytes()),
                    "{} u64 {v:#x}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..100u8).collect();
        let whole = crc32c(&data);
        assert_eq!(whole, !bitwise(!0, &data));
        for split in 0..=data.len() {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn integer_helpers_match_byte_encoding() {
        let mut a = Crc32c::new();
        a.update_u32(0xDEAD_BEEF);
        a.update_u64(0x0123_4567_89AB_CDEF);
        let mut b = Crc32c::new();
        b.update(&0xDEAD_BEEFu32.to_be_bytes());
        b.update(&0x0123_4567_89AB_CDEFu64.to_be_bytes());
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        // CRC32C detects all single-bit errors; this pins the table
        // generation didn't break that.
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
