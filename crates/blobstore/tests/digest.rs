//! The word-wise BLOB digest: what content addressing needs from it.
//! Run it optimized too (`cargo test --release -p blobstore --test
//! digest`).

use blobstore::BlobId;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// The 128-bit digest alone, without the length.
fn digest(id: BlobId) -> String {
    id.to_string().split_once('/').unwrap().0.to_owned()
}

#[test]
fn every_single_bit_flip_of_a_page_is_a_distinct_id() {
    let base = payload(4096, 1);
    let mut seen = HashSet::new();
    seen.insert(digest(BlobId::of(&base)));
    let mut flipped = base.clone();
    for bit in 0..base.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(seen.insert(digest(BlobId::of(&flipped))), "bit {bit}");
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn trailing_zero_bytes_change_the_digest() {
    for len in [0, 1, 7, 8, 31, 32, 33, 4096] {
        let mut data = payload(len, len as u64);
        let mut seen = HashSet::new();
        for _ in 0..40 {
            let id = BlobId::of(&data);
            assert_eq!(id.len(), data.len() as u64);
            assert!(seen.insert(digest(id)), "{} bytes", data.len());
            data.push(0);
        }
    }
}

#[test]
fn display_round_trips_and_empty_is_empty() {
    assert!(BlobId::of(b"").is_empty());
    assert!(!BlobId::of(b"\0").is_empty());
    for len in [0, 5, 34_816] {
        let id = BlobId::of(&payload(len, 9));
        assert_eq!(id.to_string().parse::<BlobId>(), Ok(id));
        assert_eq!(id.len(), len as u64);
    }
}
