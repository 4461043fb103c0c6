//! LEB128 unsigned varints for the v2 wire codec.
//!
//! Little-endian base-128: each byte carries 7 value bits, the high bit
//! flags continuation. Values below 128 cost one byte; `u64::MAX` costs
//! the maximum ten. Decoding is strict — a varint longer than ten bytes
//! or with set bits beyond the 64th is rejected rather than wrapped, so
//! every encoded value has exactly one accepted representation length.

use bytes::{Buf, BufMut, Bytes};

use crate::wire::DecodeError;

/// Most bytes a `u64` LEB128 varint can legally occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Exact encoded size of `v` as a LEB128 varint.
pub const fn len(v: u64) -> usize {
    // ceil(bits/7), with 0 costing one byte.
    match v {
        0 => 1,
        _ => (64 - v.leading_zeros() as usize).div_ceil(7),
    }
}

/// Appends `v` as a LEB128 varint.
pub fn put(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the buffer ends mid-varint,
/// [`DecodeError::BadLength`] when the encoding exceeds ten bytes or
/// overflows 64 bits.
pub fn get(buf: &mut Bytes) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    for i in 0..MAX_VARINT_LEN {
        if buf.remaining() == 0 {
            return Err(DecodeError::Truncated);
        }
        let byte = buf.get_u8();
        let bits = u64::from(byte & 0x7f);
        // The tenth byte may only carry the single remaining bit.
        if i == MAX_VARINT_LEN - 1 && bits > 1 {
            return Err(DecodeError::BadLength);
        }
        v |= bits << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError::BadLength)
}

/// Reads a varint that must fit `u16` (DC ids, logical clocks).
pub fn get_u16(buf: &mut Bytes) -> Result<u16, DecodeError> {
    u16::try_from(get(buf)?).map_err(|_| DecodeError::BadLength)
}

/// Reads a varint that must fit `u32` (partitions, frame counts, client
/// sequence numbers).
pub fn get_u32(buf: &mut Bytes) -> Result<u32, DecodeError> {
    u32::try_from(get(buf)?).map_err(|_| DecodeError::BadLength)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = BytesMut::new();
        put(&mut buf, v);
        assert_eq!(buf.len(), len(v), "len({v}) exact");
        let mut bytes = buf.freeze();
        let back = get(&mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0, "no trailing bytes for {v}");
        back
    }

    #[test]
    fn boundaries_roundtrip_at_exact_width() {
        // Every 7-bit boundary, both sides.
        for shift in 0..9 {
            let edge = 1u64 << (7 * (shift + 1));
            for v in [edge - 1, edge] {
                assert_eq!(roundtrip(v), v);
            }
        }
        assert_eq!(roundtrip(0), 0);
        assert_eq!(roundtrip(u64::MAX), u64::MAX);
        assert_eq!(len(0), 1);
        assert_eq!(len(127), 1);
        assert_eq!(len(128), 2);
        assert_eq!(len(u64::MAX), MAX_VARINT_LEN);
    }

    #[test]
    fn truncated_varint_is_rejected() {
        let mut bytes = Bytes::copy_from_slice(&[0x80, 0x80]);
        assert_eq!(get(&mut bytes), Err(DecodeError::Truncated));
        let mut empty = Bytes::copy_from_slice(&[]);
        assert_eq!(get(&mut empty), Err(DecodeError::Truncated));
    }

    #[test]
    fn overlong_and_overflowing_varints_are_rejected() {
        // Eleven continuation bytes: too long however it ends.
        let mut bytes = Bytes::copy_from_slice(&[0x80; 11]);
        assert_eq!(get(&mut bytes), Err(DecodeError::BadLength));
        // Ten bytes whose last carries more than the one bit left of a
        // u64: would silently drop bits.
        let mut overflow =
            Bytes::copy_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]);
        assert_eq!(get(&mut overflow), Err(DecodeError::BadLength));
        // u64::MAX itself (last byte 0x01) stays legal.
        let mut max =
            Bytes::copy_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert_eq!(get(&mut max), Ok(u64::MAX));
    }

    #[test]
    fn narrow_reads_enforce_their_width() {
        let mut buf = BytesMut::new();
        put(&mut buf, u64::from(u16::MAX) + 1);
        assert_eq!(get_u16(&mut buf.freeze()), Err(DecodeError::BadLength));
        let mut buf = BytesMut::new();
        put(&mut buf, u64::from(u32::MAX) + 1);
        assert_eq!(get_u32(&mut buf.freeze()), Err(DecodeError::BadLength));
        let mut buf = BytesMut::new();
        put(&mut buf, u64::from(u32::MAX));
        assert_eq!(get_u32(&mut buf.freeze()), Ok(u32::MAX));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in any::<u64>()) {
            prop_assert_eq!(roundtrip(v), v);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..16)) {
            let mut b = Bytes::from(bytes);
            let _ = get(&mut b);
        }
    }
}
