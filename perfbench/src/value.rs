//! Self-describing values: every stored value names its key, the
//! thread that wrote it and that thread's sequence number, and carries
//! a checksum, so any answer the store gives can be checked on its own.
//!
//! Layout of the 256-byte value:
//!
//! | bytes      | content                                         |
//! |------------|-------------------------------------------------|
//! | `0..16`    | the key                                         |
//! | `16`       | writer: driver thread index, or [`LOADER`]       |
//! | `17..25`   | writer's sequence number (little-endian `u64`)   |
//! | `25..248`  | filler derived from key and sequence            |
//! | `248..256` | checksum of bytes `0..248`                       |

use clsm_workloads::keygen::format_key;

/// Key length in bytes.
pub const KEY_LEN: usize = 16;
/// Value length in bytes.
pub const VALUE_LEN: usize = 256;
/// Writer id of values put by the setup loader.
pub const LOADER: u8 = 255;

const BODY: usize = VALUE_LEN - 8;

/// The key for index `i`: zero-padded decimal, so byte order is index
/// order.
pub fn key(i: u64) -> Vec<u8> {
    format_key(i, KEY_LEN)
}

/// Parses a key back into its index.
pub fn key_index(key: &[u8]) -> Option<u64> {
    if key.len() != KEY_LEN || !key.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(key).ok()?.parse().ok()
}

fn checksum(body: &[u8]) -> u64 {
    body.chunks_exact(8).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29)
    })
}

/// Builds the value `writer` puts under `key` as its `seq`-th write.
pub fn make(key: &[u8], writer: u8, seq: u64) -> Vec<u8> {
    assert_eq!(key.len(), KEY_LEN, "benchmark keys are {KEY_LEN} bytes");
    let mut v = vec![0u8; VALUE_LEN];
    v[..KEY_LEN].copy_from_slice(key);
    v[16] = writer;
    v[17..25].copy_from_slice(&seq.to_le_bytes());
    let mut x = checksum(&v[..24]) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for chunk in v[25..BODY].chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
    let sum = checksum(&v[..BODY]);
    v[BODY..].copy_from_slice(&sum.to_le_bytes());
    v
}

/// Who wrote a value, as it says itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Driver thread index, or [`LOADER`].
    pub writer: u8,
    /// The writer's sequence number.
    pub seq: u64,
}

/// Checks that `value` is intact and belongs to `key`.
pub fn check(key: &[u8], value: &[u8]) -> Result<Stamp, String> {
    if value.len() != VALUE_LEN {
        return Err(format!(
            "value of {} has {} bytes, expected {VALUE_LEN}",
            String::from_utf8_lossy(key),
            value.len()
        ));
    }
    if &value[..KEY_LEN] != key {
        return Err(format!(
            "value under {} names key {}",
            String::from_utf8_lossy(key),
            String::from_utf8_lossy(&value[..KEY_LEN])
        ));
    }
    let sum = u64::from_le_bytes(value[BODY..].try_into().expect("8 bytes"));
    if checksum(&value[..BODY]) != sum {
        return Err(format!(
            "value under {} fails its checksum",
            String::from_utf8_lossy(key)
        ));
    }
    Ok(Stamp {
        writer: value[16],
        seq: u64::from_le_bytes(value[17..25].try_into().expect("8 bytes")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_corruption() {
        let k = key(42);
        assert_eq!(key_index(&k), Some(42));
        let v = make(&k, 1, 7);
        assert_eq!(check(&k, &v), Ok(Stamp { writer: 1, seq: 7 }));
        assert!(check(&key(43), &v).is_err());
        for i in [0, 16, 20, 100, 255] {
            let mut bad = v.clone();
            bad[i] ^= 1;
            assert!(check(&k, &bad).is_err(), "flip at {i} undetected");
        }
        assert!(check(&k, &v[..200]).is_err());
    }
}
