//! Minimal hexadecimal encoding and decoding.

use std::error::Error;
use std::fmt;

/// Error returned by `decode` when the input is not valid hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseHexError {
    /// The input length is odd or does not match the expected length.
    BadLength {
        /// Number of hex characters expected (0 when only parity matters).
        expected: usize,
        /// Number of characters actually supplied.
        actual: usize,
    },
    /// A character outside `[0-9a-fA-F]` was found.
    BadChar {
        /// The offending character.
        ch: char,
        /// Byte offset of the offending character.
        index: usize,
    },
}

impl fmt::Display for ParseHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseHexError::BadLength { expected, actual } if *expected > 0 => {
                write!(f, "expected {expected} hex characters, got {actual}")
            }
            ParseHexError::BadLength { actual, .. } => {
                write!(f, "hex string has odd length {actual}")
            }
            ParseHexError::BadChar { ch, index } => {
                write!(f, "invalid hex character {ch:?} at index {index}")
            }
        }
    }
}

impl Error for ParseHexError {}

const ALPHABET: &[u8; 16] = b"0123456789abcdef";

/// Encodes bytes as lowercase hex.
///
/// # Example
///
/// ```
/// assert_eq!(tn_crypto::hex::encode(&[0xde, 0xad]), "dead");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(ALPHABET[(b >> 4) as usize] as char);
        s.push(ALPHABET[(b & 0xf) as usize] as char);
    }
    s
}

fn nibble(c: u8, index: usize) -> Result<u8, ParseHexError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(ParseHexError::BadChar {
            ch: c as char,
            index,
        }),
    }
}

/// Decodes a hex string (either case) into bytes.
///
/// # Errors
///
/// Returns [`ParseHexError`] for odd-length input or non-hex characters.
///
/// # Example
///
/// ```
/// assert_eq!(tn_crypto::hex::decode("DEad").unwrap(), vec![0xde, 0xad]);
/// ```
pub fn decode(s: &str) -> Result<Vec<u8>, ParseHexError> {
    let b = s.as_bytes();
    if !b.len().is_multiple_of(2) {
        return Err(ParseHexError::BadLength {
            expected: 0,
            actual: b.len(),
        });
    }
    let mut out = Vec::with_capacity(b.len() / 2);
    for i in (0..b.len()).step_by(2) {
        out.push((nibble(b[i], i)? << 4) | nibble(b[i + 1], i + 1)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_bytes() {
        let all: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&encode(&all)).unwrap(), all);
    }

    #[test]
    fn rejects_odd_length() {
        assert!(matches!(
            decode("abc"),
            Err(ParseHexError::BadLength { .. })
        ));
    }

    #[test]
    fn rejects_bad_char_with_index() {
        match decode("ab0g") {
            Err(ParseHexError::BadChar { ch: 'g', index: 3 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn empty_is_fine() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn uppercase_accepted() {
        assert_eq!(decode("FF00").unwrap(), vec![0xff, 0x00]);
    }
}
