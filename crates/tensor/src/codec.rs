//! The workspace's one binary codec: a [`Writer`], a bounds-checked
//! [`Reader`] and the [`Fnv`] FNV-1a hash.
//!
//! Every persisted or served artifact is built from these primitives —
//! the result store and the model cache (`calloc_eval`), the serve frames
//! (`calloc_serve`) and every model's state bytes (`calloc_nn::state` and
//! the model crates). This module is the only place that knows the
//! primitive byte layout:
//!
//! * integers are little-endian; a `usize` travels as a u64;
//! * an `f64` travels as its raw IEEE-754 bits, so `-0.0`, subnormals,
//!   infinities and NaN payloads round-trip exactly;
//! * strings are UTF-8 behind a length prefix whose width is part of the
//!   format: u32 in the store, cache and frames ([`Writer::str_u32`]),
//!   u64 in model state ([`Writer::str_u64`]);
//! * vectors carry a u64 count, matrices `rows, cols` then row-major
//!   values.
//!
//! The reader never panics on any input. Every read checks the bytes
//! left, every count is checked against them *before* anything is
//! allocated, bool bytes other than 0 and 1 and invalid UTF-8 are
//! errors, and [`Reader::finish`] rejects trailing bytes. Failures are
//! human-readable `String` details that each format wraps into its own
//! typed error.

use crate::Matrix;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `capacity` bytes — the hot encode
    /// paths size their output up front.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Writes a usize as a u64 (usize never exceeds u64 on supported
    /// targets).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an f64 as its raw bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes raw bytes behind a u32 length prefix (a record, an opaque
    /// blob).
    pub fn bytes_u32(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.bytes(bytes);
    }

    /// Writes a UTF-8 string behind a u32 length prefix.
    pub fn str_u32(&mut self, s: &str) {
        self.bytes_u32(s.as_bytes());
    }

    /// Writes a UTF-8 string behind a u64 length prefix.
    pub fn str_u64(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Writes f64 values as raw bits, without a count.
    pub fn f64s(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
    }

    /// Writes a matrix as `rows, cols` then row-major raw f64 bits.
    pub fn matrix(&mut self, m: &Matrix) {
        self.usize(m.rows());
        self.usize(m.cols());
        self.f64s(m.as_slice());
    }

    /// Writes a u64 count then the f64 values as raw bits.
    pub fn f64_slice(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        self.f64s(vs);
    }

    /// Writes a u64 count then the usizes as u64s.
    pub fn usize_slice(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }
}

/// Bounds-checked decoder over a byte slice. See the [module
/// docs](self) for the checks it makes; no input makes it panic.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless every byte has been consumed — trailing bytes are
    /// corruption, not padding.
    pub fn finish(self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes")),
        }
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads `N` raw bytes into an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a u64 and converts it to usize with an overflow check (on
    /// 32-bit targets an oversized value errors instead of wrapping).
    pub fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("value {v} overflows usize on this target"))
    }

    /// Reads a bool byte, rejecting values other than 0 and 1.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("invalid bool byte {b}")),
        }
    }

    /// Reads an f64 from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads bytes written by [`Writer::bytes_u32`].
    pub fn bytes_u32(&mut self) -> Result<&'a [u8], String> {
        let len = self.u32()?;
        self.bytes(len as usize)
    }

    /// Reads a string written by [`Writer::str_u32`].
    pub fn str_u32(&mut self) -> Result<String, String> {
        utf8(self.bytes_u32()?)
    }

    /// Reads a string written by [`Writer::str_u64`].
    pub fn str_u64(&mut self) -> Result<String, String> {
        let len = self.usize()?;
        utf8(self.bytes(len)?)
    }

    /// Errors unless `count` 8-byte values fit in the bytes left — the
    /// check every vector decoder makes before allocating.
    fn check_count(&self, what: &str, count: usize) -> Result<(), String> {
        if count.checked_mul(8).is_none_or(|b| b > self.remaining()) {
            return Err(format!(
                "{what} {count} exceeds {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(())
    }

    /// Reads `n` f64 values written by [`Writer::f64s`].
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, String> {
        self.check_count("f64 count", n)?;
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            vs.push(self.f64()?);
        }
        Ok(vs)
    }

    /// Reads a matrix written by [`Writer::matrix`].
    pub fn matrix(&mut self) -> Result<Matrix, String> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let cells = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("matrix shape {rows}x{cols} overflows"))?;
        Ok(Matrix::from_vec(rows, cols, self.f64s(cells)?))
    }

    /// Reads an f64 vector written by [`Writer::f64_slice`].
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, String> {
        let n = self.usize()?;
        self.f64s(n)
    }

    /// Reads a usize vector written by [`Writer::usize_slice`].
    pub fn usize_vec(&mut self) -> Result<Vec<usize>, String> {
        let n = self.usize()?;
        self.check_count("usize count", n)?;
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            vs.push(self.usize()?);
        }
        Ok(vs)
    }
}

fn utf8(bytes: &[u8]) -> Result<String, String> {
    String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8: {e}"))
}

/// FNV-1a accumulator: the checksum of the serve frames and the
/// fingerprint of sweep plans and model-cache keys. Callers write every
/// field length- or tag-prefixed, so distinct field sequences cannot
/// collide by concatenation.
#[derive(Debug, Clone)]
pub struct Fnv {
    hash: u64,
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv { hash: FNV_OFFSET }
    }
}

impl Fnv {
    /// A fresh accumulator (the FNV-1a offset basis).
    pub fn new() -> Self {
        Fnv::default()
    }

    /// Hashes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a u64 as its little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes a string behind its u64 length.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// One-shot FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.bytes(bytes);
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_prefix_widths_are_u32_and_u64() {
        let mut w = Writer::new();
        w.str_u32("ab");
        w.str_u64("ab");
        let bytes = w.into_bytes();
        assert_eq!(bytes, b"\x02\0\0\0ab\x02\0\0\0\0\0\0\0ab");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str_u32().unwrap(), "ab");
        assert_eq!(r.str_u64().unwrap(), "ab");
        r.finish().unwrap();
    }

    #[test]
    fn oversized_counts_and_invalid_utf8_are_errors() {
        let huge = [0xff; 16];
        assert!(Reader::new(&huge).f64_vec().is_err());
        assert!(Reader::new(&huge).usize_vec().is_err());
        assert!(Reader::new(&huge).matrix().is_err());
        assert!(Reader::new(&huge).str_u32().is_err());
        assert!(Reader::new(&huge).f64s(usize::MAX).is_err());
        assert!(Reader::new(b"\x01\0\0\0\xff").str_u32().is_err());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut fnv = Fnv::new();
        fnv.bytes(b"foo");
        fnv.bytes(b"bar");
        assert_eq!(fnv.finish(), fnv1a(b"foobar"));
        let mut fnv = Fnv::new();
        fnv.str("ab");
        assert_eq!(fnv.finish(), fnv1a(b"\x02\0\0\0\0\0\0\0ab"));
    }
}
