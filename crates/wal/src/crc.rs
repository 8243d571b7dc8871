//! The log's frame checksum: CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`, init/final XOR `0xFFFFFFFF`), matching zlib/PNG.
//!
//! Every log frame carries it over its payload so a torn or bit-flipped
//! record is *detected* instead of replayed. The implementation is the
//! page store's word-wise [`logstore::crc32`]; this module names it as
//! the log's checksum and pins the values the on-disk format depends on.

pub use logstore::crc32;

#[cfg(test)]
mod tests {
    use super::crc32;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"hello world");
        let mut flipped = b"hello world".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }
}
