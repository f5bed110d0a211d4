//! The public CRC32C entry points (`crc32c` and `Crc32c`) against a
//! test-local bitwise CRC32C, on whichever kernel this CPU selects:
//! SSE4.2 on x86_64 CPUs that have it, slice-by-8 everywhere else.
//!
//! Every frame trailer, log record and store image checksum goes through
//! these entry points, and a checksum computed on one machine must verify
//! on any other, so both kernels must agree with the definition bit for
//! bit.

use rtpb::sim::propcheck::{run_cases, Gen};
use rtpb::types::{crc32c, Crc32c};

/// CRC32C by its definition: reflected polynomial `0x82F63B78`, one
/// shift per input bit, initial and final inversion.
fn reference(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn random_bytes(g: &mut Gen, len: usize) -> Vec<u8> {
    (0..len).map(|_| g.u64_in(0, 256) as u8).collect()
}

/// Half the cases at 0–64 bytes, where the kernels' word, dword and tail
/// steps meet; half anywhere up to 64 KiB.
fn random_input(g: &mut Gen) -> Vec<u8> {
    let len = if g.chance(0.5) {
        g.usize_in(0, 65)
    } else {
        g.usize_in(0, 64 * 1024 + 1)
    };
    random_bytes(g, len)
}

#[test]
fn rfc3720_check_vectors() {
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
        assert_eq!(reference(input), expected, "the reference itself");
        assert_eq!(crc32c(input), expected);
    }
}

#[test]
fn one_shot_matches_bitwise_at_every_length_to_64() {
    run_cases("crc32c_every_short_length", 8, |g| {
        for len in 0..=64 {
            let input = random_bytes(g, len);
            assert_eq!(crc32c(&input), reference(&input), "len {len}");
        }
    });
}

#[test]
fn one_shot_matches_bitwise_up_to_64_kib() {
    run_cases("crc32c_long_inputs", 16, |g| {
        let len = g.usize_in(0, 64 * 1024 + 1);
        let input = random_bytes(g, len);
        assert_eq!(crc32c(&input), reference(&input), "len {len}");
    });
}

#[test]
fn streaming_matches_bitwise_split_at_random_points() {
    run_cases("crc32c_random_splits", 64, |g| {
        let input = random_input(g);
        let mut cuts: Vec<usize> = (0..g.usize_in(1, 9))
            .map(|_| g.usize_in(0, input.len() + 1))
            .collect();
        cuts.sort_unstable();
        let mut c = Crc32c::new();
        let mut from = 0;
        for cut in cuts.iter().copied().chain([input.len()]) {
            c.update(&input[from..cut]);
            from = cut;
        }
        let len = input.len();
        assert_eq!(c.finalize(), reference(&input), "len {len} cut at {cuts:?}");
    });
}

#[test]
fn field_updates_match_their_big_endian_bytes() {
    run_cases("crc32c_fields", 256, |g| {
        // A random prefix, so each field folds into a nontrivial state,
        // then fields in the order a log record folds them.
        let prefix = g.bytes(17);
        let (seq, object, version) = (g.any_u64(), g.any_u64() as u32, g.any_u64());
        let mut c = Crc32c::new();
        c.update(&prefix);
        c.update_u64(seq);
        c.update_u32(object);
        c.update_u64(version);
        let mut bytes = prefix;
        bytes.extend(seq.to_be_bytes());
        bytes.extend(object.to_be_bytes());
        bytes.extend(version.to_be_bytes());
        assert_eq!(c.finalize(), reference(&bytes));
    });
}
