//! The word-wise CRC-32 against the byte-at-a-time table loop it
//! replaced: bit-identical output over every length from empty to past
//! a WAL checkpoint frame's worth of words, at every alignment. Run it
//! optimized too (`cargo test --release -p logstore --test crc_equiv`):
//! the word loop is where an optimizer bug would show.

use logstore::crc32;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The classic reflected CRC-32/IEEE: one table lookup per byte.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[test]
fn check_value() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
}

#[test]
fn every_short_length_and_alignment() {
    let mut rng = StdRng::seed_from_u64(32);
    let buf: Vec<u8> = (0..128).map(|_| rng.gen()).collect();
    for start in 0..16 {
        for end in start..buf.len() {
            let s = &buf[start..end];
            assert_eq!(crc32(s), crc32_bytewise(s), "bytes {start}..{end}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn equals_the_byte_table(
        seed in any::<u64>(),
        len in 0usize..=70_000,
        skip in 0usize..8,
        trim in 0usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let s = &buf[skip.min(len)..len.saturating_sub(trim).max(skip.min(len))];
        prop_assert_eq!(crc32(s), crc32_bytewise(s));
    }
}
