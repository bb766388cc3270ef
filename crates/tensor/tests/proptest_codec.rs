//! Property laws of the shared binary codec (`calloc_tensor::codec`),
//! the one reader behind the result store, the model cache, the serve
//! frames and every model's state bytes:
//!
//! * arbitrary bytes under any sequence of reads give `Ok` or `Err` —
//!   never a panic, never an unbounded allocation;
//! * every strict prefix of a [`Writer`] output fails to decode, and the
//!   full output decodes back to exactly what was written;
//! * the awkward `f64` bit patterns round-trip exactly through every
//!   f64-carrying primitive.
//!
//! The per-format laws (store, cache, state, frames) live beside their
//! formats; these pin the primitives they all share.

use calloc_tensor::codec::{Reader, Writer};
use calloc_tensor::Matrix;
use proptest::prelude::*;

/// Awkward `f64` bit patterns: signed zeros, subnormals, infinities and
/// NaNs with payload bits.
const TRICKY_BITS: [u64; 8] = [
    0x0000_0000_0000_0000, // +0.0
    0x8000_0000_0000_0000, // -0.0
    0x0000_0000_0000_0001, // smallest positive subnormal
    0x800F_FFFF_FFFF_FFFF, // negative subnormal
    0x7FF0_0000_0000_0000, // +inf
    0xFFF0_0000_0000_0000, // -inf
    0x7FF8_0000_DEAD_BEEF, // quiet NaN with payload
    0x7FF0_0000_0000_0001, // signalling NaN bit pattern
];

/// One field of a generated record. f64 values are held as bits so that
/// equality is bit equality.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    Usize(usize),
    Bool(bool),
    F64(u64),
    StrU32(String),
    StrU64(String),
    F64s(Vec<u64>),
    Usizes(Vec<usize>),
    Matrix(usize, usize, Vec<u64>),
}

const KINDS: u64 = 11;

/// A field derived from one random word: the low bits pick the kind,
/// the rest seed its value.
fn field(word: u64) -> Field {
    let v = word >> 8;
    let bits = |i: u64| TRICKY_BITS[(i % 8) as usize] ^ (v.rotate_left(i as u32) & 0xF);
    match word % KINDS {
        0 => Field::U8(v as u8),
        1 => Field::U32(v as u32),
        2 => Field::U64(v),
        3 => Field::Usize(v as usize),
        4 => Field::Bool(v % 2 == 1),
        5 => Field::F64(bits(v)),
        6 => Field::StrU32(format!("{}{v:x}", "é".repeat((v % 3) as usize))),
        7 => Field::StrU64(format!("{v:o}")),
        8 => Field::F64s((0..v % 5).map(bits).collect()),
        9 => Field::Usizes((0..v % 4).map(|i| (v >> i) as usize).collect()),
        _ => {
            let (rows, cols) = ((v % 3) as usize, ((v >> 2) % 3) as usize);
            Field::Matrix(rows, cols, (0..(rows * cols) as u64).map(bits).collect())
        }
    }
}

fn write(w: &mut Writer, field: &Field) {
    match field {
        Field::U8(x) => w.u8(*x),
        Field::U32(x) => w.u32(*x),
        Field::U64(x) => w.u64(*x),
        Field::Usize(x) => w.usize(*x),
        Field::Bool(x) => w.bool(*x),
        Field::F64(b) => w.f64(f64::from_bits(*b)),
        Field::StrU32(s) => w.str_u32(s),
        Field::StrU64(s) => w.str_u64(s),
        Field::F64s(bs) => {
            let vs: Vec<f64> = bs.iter().map(|&b| f64::from_bits(b)).collect();
            w.f64_slice(&vs);
        }
        Field::Usizes(vs) => w.usize_slice(vs),
        Field::Matrix(rows, cols, bs) => {
            w.matrix(&Matrix::from_fn(*rows, *cols, |r, c| {
                f64::from_bits(bs[r * cols + c])
            }));
        }
    }
}

/// Reads a field of the given kind (the kind of `like`).
fn read(r: &mut Reader, like: &Field) -> Result<Field, String> {
    let to_bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    Ok(match like {
        Field::U8(_) => Field::U8(r.u8()?),
        Field::U32(_) => Field::U32(r.u32()?),
        Field::U64(_) => Field::U64(r.u64()?),
        Field::Usize(_) => Field::Usize(r.usize()?),
        Field::Bool(_) => Field::Bool(r.bool()?),
        Field::F64(_) => Field::F64(r.f64()?.to_bits()),
        Field::StrU32(_) => Field::StrU32(r.str_u32()?),
        Field::StrU64(_) => Field::StrU64(r.str_u64()?),
        Field::F64s(_) => Field::F64s(to_bits(&r.f64_vec()?)),
        Field::Usizes(_) => Field::Usizes(r.usize_vec()?),
        Field::Matrix(..) => {
            let m = r.matrix()?;
            Field::Matrix(m.rows(), m.cols(), to_bits(m.as_slice()))
        }
    })
}

/// Decodes a whole record of the given field kinds, trailing bytes
/// included in the check.
fn decode(bytes: &[u8], fields: &[Field]) -> Result<Vec<Field>, String> {
    let mut r = Reader::new(bytes);
    let out = fields
        .iter()
        .map(|f| read(&mut r, f))
        .collect::<Result<Vec<_>, _>>()?;
    r.finish()?;
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes under an arbitrary read sequence: every read
    /// returns `Ok` or `Err`. Length fields read from noise are mostly
    /// huge, so this also pins the count-before-allocation checks (an
    /// unchecked `Vec::with_capacity` would abort the process).
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ops in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        let mut r = Reader::new(&bytes);
        for &op in &ops {
            let n = ((op >> 8) % 80) as usize;
            let _ = match op % (KINDS + 2) {
                11 => r.bytes(n).map(|_| ()),
                12 => r.f64s(n).map(|_| ()),
                _ => read(&mut r, &field(op)).map(|_| ()),
            };
            prop_assert!(r.remaining() <= bytes.len());
        }
        let _ = r.finish();
    }

    /// A record written field by field decodes back to itself, and every
    /// strict prefix of its bytes fails — no truncation decodes as a
    /// shorter valid record.
    #[test]
    fn every_strict_prefix_of_a_writer_output_fails(
        words in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        let fields: Vec<Field> = words.iter().map(|&w| field(w)).collect();
        let mut w = Writer::new();
        for f in &fields {
            write(&mut w, f);
        }
        let bytes = w.into_bytes();
        prop_assert_eq!(decode(&bytes, &fields).expect("full record decodes"), fields.clone());
        for len in 0..bytes.len() {
            prop_assert!(
                decode(&bytes[..len], &fields).is_err(),
                "prefix of {} of {} bytes decoded",
                len,
                bytes.len()
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        prop_assert!(decode(&extended, &fields).is_err(), "trailing byte accepted");
    }

    /// The special f64 bit patterns survive every f64-carrying primitive
    /// bit for bit, at any position in the stream.
    #[test]
    fn special_f64_bit_patterns_round_trip(
        pad in 0usize..8,
        pick in proptest::collection::vec(0usize..8, 1..16),
    ) {
        let values: Vec<f64> = pick.iter().map(|&i| f64::from_bits(TRICKY_BITS[i])).collect();
        let m = Matrix::from_fn(1, values.len(), |_, c| values[c]);
        let mut w = Writer::new();
        for _ in 0..pad {
            w.u8(0xAA);
        }
        for &v in &values {
            w.f64(v);
        }
        w.f64_slice(&values);
        w.f64s(&values);
        w.matrix(&m);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.bytes(pad).expect("padding");
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let expected = bits(&values);
        let singles: Vec<f64> = values.iter().map(|_| r.f64().expect("f64")).collect();
        prop_assert_eq!(bits(&singles), expected.clone());
        prop_assert_eq!(bits(&r.f64_vec().expect("f64 vec")), expected.clone());
        prop_assert_eq!(bits(&r.f64s(values.len()).expect("f64s")), expected.clone());
        prop_assert_eq!(bits(r.matrix().expect("matrix").as_slice()), expected);
        r.finish().expect("fully consumed");
    }
}
