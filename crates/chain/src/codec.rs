//! Canonical binary encoding for chain data structures.
//!
//! Everything that is hashed or signed must have exactly one byte
//! representation, so the chain does not rely on a general-purpose
//! serializer for consensus-critical paths. The codec is deliberately tiny:
//! little-endian fixed-width integers, LEB128 varints for lengths, and
//! length-prefixed byte strings.

use std::error::Error;
use std::fmt;

use tn_crypto::Hash256;

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A varint exceeded 64 bits or was not minimally encoded.
    BadVarint,
    /// A length prefix exceeded the remaining input (or a sanity bound).
    BadLength(u64),
    /// An enum discriminant was out of range.
    BadTag(u8),
    /// A UTF-8 string field contained invalid UTF-8.
    BadUtf8,
    /// Trailing bytes remained after the value was decoded.
    TrailingBytes(usize),
    /// The keys of a table were not strictly ascending (out of order, or
    /// one of them twice): not the canonical encoding of any value.
    UnsortedKeys,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => f.write_str("unexpected end of input"),
            DecodeError::BadVarint => f.write_str("malformed varint"),
            DecodeError::BadLength(l) => write!(f, "length prefix {l} out of range"),
            DecodeError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            DecodeError::BadUtf8 => f.write_str("invalid utf-8 in string field"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::UnsortedKeys => f.write_str("table keys not strictly ascending"),
        }
    }
}

impl Error for DecodeError {}

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Reserves room for exactly `additional` more bytes, so a caller that
    /// knows the final size pays for one allocation and no slack.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.buf.reserve_exact(additional);
    }

    /// Appends bytes that are already a canonical encoding, as they are.
    pub fn put_raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a little-endian u32.
    pub(crate) fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) -> &mut Self {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
        self
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Writes a 32-byte hash (fixed width, no prefix).
    pub fn put_hash(&mut self, h: &Hash256) -> &mut Self {
        self.buf.extend_from_slice(h.as_bytes());
        self
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u8(v as u8)
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps input bytes.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless the input was fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub(crate) fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an unsigned LEB128 varint in its minimal form: a final byte
    /// of 0 after a continuation byte is [`DecodeError::BadVarint`], so each
    /// value has one encoding.
    pub fn get_varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if (shift == 63 && byte > 1) || (shift > 0 && byte == 0) {
                return Err(DecodeError::BadVarint);
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::BadVarint);
            }
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(DecodeError::BadLength(len));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a fixed 32-byte hash.
    pub fn get_hash(&mut self) -> Result<Hash256, DecodeError> {
        let b = self.take(32)?;
        Ok(Hash256::from_bytes(b.try_into().expect("32 bytes")))
    }

    /// Reads a bool (rejecting values other than 0/1).
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// Types with a canonical binary encoding.
pub trait Encodable {
    /// Appends this value's canonical encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }
}

/// Types decodable from the canonical encoding.
pub trait Decodable: Sized {
    /// Reads one value from the decoder.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Convenience: decodes from a complete byte slice, requiring full
    /// consumption.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input or trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tn_crypto::sha256::sha256;

    #[test]
    fn primitive_round_trips() {
        let mut e = Encoder::new();
        e.put_u8(7)
            .put_u32(0xdeadbeef)
            .put_u64(u64::MAX)
            .put_varint(300)
            .put_bytes(b"hello")
            .put_str("wörld")
            .put_hash(&sha256(b"h"))
            .put_bool(true);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xdeadbeef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_varint().unwrap(), 300);
        assert_eq!(d.get_bytes().unwrap(), b"hello");
        assert_eq!(d.get_str().unwrap(), "wörld");
        assert_eq!(d.get_hash().unwrap(), sha256(b"h"));
        assert!(d.get_bool().unwrap());
        d.expect_end().unwrap();
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut e = Encoder::new();
            e.put_varint(v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.get_varint().unwrap(), v);
            d.expect_end().unwrap();
        }
    }

    #[test]
    fn varint_rejects_overflow() {
        // 10 bytes of 0xff overflows 64 bits.
        let bytes = [0xffu8; 10];
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.get_varint(), Err(DecodeError::BadVarint)));
    }

    #[test]
    fn truncated_inputs_error() {
        let mut e = Encoder::new();
        e.put_bytes(b"some payload");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(d.get_bytes(), Err(DecodeError::BadLength(_))));

        let mut d = Decoder::new(&[]);
        assert!(matches!(d.get_u64(), Err(DecodeError::UnexpectedEnd)));
    }

    #[test]
    fn length_prefix_cannot_exceed_input() {
        let mut e = Encoder::new();
        e.put_varint(1_000_000);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.get_bytes(),
            Err(DecodeError::BadLength(1_000_000))
        ));
    }

    #[test]
    fn bool_rejects_junk() {
        let mut d = Decoder::new(&[2]);
        assert!(matches!(d.get_bool(), Err(DecodeError::BadTag(2))));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut d = Decoder::new(&[1, 2, 3]);
        d.get_u8().unwrap();
        assert!(matches!(d.expect_end(), Err(DecodeError::TrailingBytes(2))));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.get_str(), Err(DecodeError::BadUtf8)));
    }

    proptest! {
        #[test]
        fn prop_varint_round_trip(v in any::<u64>()) {
            let mut e = Encoder::new();
            e.put_varint(v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.get_varint().unwrap(), v);
            prop_assert!(d.expect_end().is_ok());
        }

        #[test]
        fn prop_bytes_round_trip(v in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut e = Encoder::new();
            e.put_bytes(&v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.get_bytes().unwrap(), v);
        }

        #[test]
        fn prop_varint_is_minimal_prefix_free(a in any::<u64>(), b in any::<u64>()) {
            // Two varints in sequence decode unambiguously.
            let mut e = Encoder::new();
            e.put_varint(a).put_varint(b);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.get_varint().unwrap(), a);
            prop_assert_eq!(d.get_varint().unwrap(), b);
            prop_assert!(d.expect_end().is_ok());
        }
    }
}
