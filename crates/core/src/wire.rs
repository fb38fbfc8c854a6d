//! Byte-level encoding of calls, for shipping through registered
//! memory.
//!
//! §4 of the paper: "Before propagation, a call is assigned a unique
//! id, paired with its dependency arrays and is serialized into a byte
//! stream." This module defines the compact little-endian varint codec
//! the runtime uses, and the [`Wire`] trait each data type's update
//! enum implements so its calls can live in ring-buffer entries and
//! summary slots.

use std::fmt;

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire encoding")
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError)?;
        self.pos += 1;
        Ok(b)
    }

    /// Consume a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or overlong encoding.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(DecodeError);
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Consume a signed varint (zigzag).
    ///
    /// # Errors
    ///
    /// As [`Reader::varint`].
    pub fn svarint(&mut self) -> Result<i64, DecodeError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Consume `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError);
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Consume a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation.
    pub fn lp_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.varint()? as usize;
        self.bytes(len)
    }

    /// Consume a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or invalid UTF-8.
    pub fn lp_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.lp_bytes()?).map_err(|_| DecodeError)
    }
}

/// Append-only encoding helpers over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer reusing `buf`'s allocation (contents are cleared).
    /// Recover the buffer with [`into_vec`](Self::into_vec) — this is
    /// the allocation-free encode cycle used by the runtime hot path.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// A writer appending to `buf`, keeping its contents.
    pub fn extending(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Append a LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Append a signed varint (zigzag).
    pub fn svarint(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed byte string.
    pub fn lp_bytes(&mut self, bytes: &[u8]) {
        self.varint(bytes.len() as u64);
        self.bytes(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn lp_str(&mut self, s: &str) {
        self.lp_bytes(s.as_bytes());
    }
}

/// Types that can cross the wire (live in ring entries and summary
/// slots).
pub trait Wire: Sized {
    /// Append the encoding of `self` to the writer.
    fn encode(&self, w: &mut Writer);

    /// Decode one value from the reader.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the bytes are malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Convenience: encode into a fresh vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// Convenience: decode from a complete buffer.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the bytes are malformed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::decode(&mut Reader::new(bytes))
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut Writer) {
        w.varint(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.varint()
    }
}

impl Wire for i64 {
    fn encode(&self, w: &mut Writer) {
        w.svarint(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.svarint()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.lp_str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.lp_str()?.to_owned())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.varint()? as usize;
        // Guard against absurd lengths from corrupt buffers.
        if len > r.remaining() {
            return Err(DecodeError);
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in values {
            let mut w = Writer::new();
            w.varint(v);
            let bytes = w.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn svarint_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut w = Writer::new();
            w.svarint(v);
            let bytes = w.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.svarint().unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = Reader::new(&[0x80]); // continuation bit, no next byte
        assert_eq!(r.varint(), Err(DecodeError));
        let mut r2 = Reader::new(&[5, b'a', b'b']); // claims 5 bytes, has 2
        assert_eq!(r2.lp_bytes(), Err(DecodeError));
    }

    #[test]
    fn overlong_varint_errors() {
        let bytes = [0xff; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint(), Err(DecodeError));
    }

    #[test]
    fn string_and_vec_roundtrip() {
        let v: Vec<String> = vec!["hello".into(), "".into(), "höla".into()];
        let bytes = v.to_bytes();
        assert_eq!(Vec::<String>::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn tuple_roundtrip() {
        let v: (u64, i64) = (42, -7);
        assert_eq!(<(u64, i64)>::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn vec_length_bomb_rejected() {
        let mut w = Writer::new();
        w.varint(1 << 40);
        let bytes = w.into_vec();
        assert!(Vec::<u64>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.lp_bytes(&[0xff, 0xfe]);
        let bytes = w.into_vec();
        assert!(String::from_bytes(&bytes).is_err());
    }

    #[test]
    fn writer_accessors() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.u8(7);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        assert_eq!(w.into_vec(), vec![7]);
    }
}
