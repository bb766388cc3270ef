//! Bit-exact binary encoding of trained model state.
//!
//! The trained-model cache (`calloc_eval::cache`) persists every suite
//! member to disk and must restore it **bit-identically** — a cache hit
//! has to be indistinguishable from a fresh train under the determinism
//! contract. Model state is written with the workspace's one binary codec,
//! [`calloc_tensor::codec`]: all `f64` parameters travel as raw IEEE-754
//! bits (so `-0.0`, subnormals and NaN payloads survive), all lengths are
//! u64 on the wire and checked on decode, and any malformed input surfaces
//! as an error string — never a panic, never a partial model.
//!
//! Model structs own their field layout, so each crate implements its own
//! `state_bytes` / `from_state` pair on top of [`Writer`] / [`Reader`];
//! this module only ships the codecs for the types owned by `calloc_nn`
//! itself ([`Sequential`], [`Layer`], [`Dense`], [`TrainReport`]).

use calloc_tensor::codec::{Reader, Writer};

use crate::layer::{Dense, Layer};
use crate::model::Sequential;
use crate::train::TrainReport;

// Layer tag bytes. The layer set is closed (enum in layer.rs); adding a
// variant means adding a tag here and bumping the cache format version.
const TAG_DENSE: u8 = 0;
const TAG_RELU: u8 = 1;
const TAG_SIGMOID: u8 = 2;
const TAG_TANH: u8 = 3;
const TAG_DROPOUT: u8 = 4;
const TAG_GAUSSIAN_NOISE: u8 = 5;

/// Encodes a [`Dense`] layer (weights then bias).
pub fn write_dense(w: &mut Writer, d: &Dense) {
    w.matrix(&d.w);
    w.matrix(&d.b);
}

/// Decodes a [`Dense`] layer written by [`write_dense`].
pub fn read_dense(r: &mut Reader) -> Result<Dense, String> {
    let w = r.matrix()?;
    let b = r.matrix()?;
    if b.rows() != 1 || b.cols() != w.cols() {
        return Err(format!(
            "dense bias shape {:?} does not match weight shape {:?}",
            b.shape(),
            w.shape()
        ));
    }
    Ok(Dense { w, b })
}

/// Encodes one [`Layer`] as a tag byte plus its parameters.
pub fn write_layer(w: &mut Writer, layer: &Layer) {
    match layer {
        Layer::Dense(d) => {
            w.u8(TAG_DENSE);
            write_dense(w, d);
        }
        Layer::Relu => w.u8(TAG_RELU),
        Layer::Sigmoid => w.u8(TAG_SIGMOID),
        Layer::Tanh => w.u8(TAG_TANH),
        Layer::Dropout { rate } => {
            w.u8(TAG_DROPOUT);
            w.f64(*rate);
        }
        Layer::GaussianNoise { std } => {
            w.u8(TAG_GAUSSIAN_NOISE);
            w.f64(*std);
        }
    }
}

/// Decodes one [`Layer`] written by [`write_layer`].
pub fn read_layer(r: &mut Reader) -> Result<Layer, String> {
    match r.u8()? {
        TAG_DENSE => Ok(Layer::Dense(read_dense(r)?)),
        TAG_RELU => Ok(Layer::Relu),
        TAG_SIGMOID => Ok(Layer::Sigmoid),
        TAG_TANH => Ok(Layer::Tanh),
        TAG_DROPOUT => Ok(Layer::Dropout { rate: r.f64()? }),
        TAG_GAUSSIAN_NOISE => Ok(Layer::GaussianNoise { std: r.f64()? }),
        tag => Err(format!("unknown layer tag {tag}")),
    }
}

/// Encodes a [`Sequential`] network (layer count then each layer).
pub fn write_sequential(w: &mut Writer, net: &Sequential) {
    w.usize(net.layers().len());
    for layer in net.layers() {
        write_layer(w, layer);
    }
}

/// Decodes a [`Sequential`] written by [`write_sequential`].
pub fn read_sequential(r: &mut Reader) -> Result<Sequential, String> {
    let n = r.usize()?;
    // Each layer costs at least one tag byte, so a length beyond the
    // remaining bytes is corrupt — checked before the allocation.
    if n > r.remaining() {
        return Err(format!(
            "layer count {n} exceeds {} remaining bytes",
            r.remaining()
        ));
    }
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        layers.push(read_layer(r)?);
    }
    Ok(Sequential::new(layers))
}

/// Encodes a [`TrainReport`] (loss history plus early-stop summary).
pub fn write_train_report(w: &mut Writer, report: &TrainReport) {
    w.f64_slice(&report.loss_history);
    w.f64(report.best_loss);
    w.usize(report.best_epoch);
    w.bool(report.stopped_early);
}

/// Decodes a [`TrainReport`] written by [`write_train_report`].
pub fn read_train_report(r: &mut Reader) -> Result<TrainReport, String> {
    Ok(TrainReport {
        loss_history: r.f64_vec()?,
        best_loss: r.f64()?,
        best_epoch: r.usize()?,
        stopped_early: r.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_tensor::{Matrix, Rng};

    fn tricky_values() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            1.5,
            -3.25,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
        ]
    }

    #[test]
    fn scalars_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.usize(42);
        w.bool(true);
        w.bool(false);
        w.str_u64("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str_u64().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        let mut w = Writer::new();
        for &v in &tricky_values() {
            w.f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &tricky_values() {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn matrix_round_trips_tricky_values() {
        let vals = tricky_values();
        let m = Matrix::from_fn(2, 4, |r, c| vals[r * 4 + c]);
        let mut w = Writer::new();
        w.matrix(&m);
        let bytes = w.into_bytes();
        let got = Reader::new(&bytes).matrix().unwrap();
        assert_eq!(got.shape(), (2, 4));
        for (a, b) in got.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sequential_round_trips() {
        let mut rng = Rng::new(11);
        let net = Sequential::new(vec![
            Layer::Dense(Dense::he(5, 9, &mut rng)),
            Layer::Relu,
            Layer::Dropout { rate: 0.25 },
            Layer::GaussianNoise { std: 0.1 },
            Layer::Dense(Dense::xavier(9, 3, &mut rng)),
            Layer::Sigmoid,
            Layer::Tanh,
        ]);
        let mut w = Writer::new();
        write_sequential(&mut w, &net);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let got = read_sequential(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(got, net);
    }

    #[test]
    fn train_report_round_trips() {
        let report = TrainReport {
            loss_history: tricky_values(),
            best_loss: -0.0,
            best_epoch: 3,
            stopped_early: true,
        };
        let mut w = Writer::new();
        write_train_report(&mut w, &report);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let got = read_train_report(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(got.best_epoch, report.best_epoch);
        assert_eq!(got.stopped_early, report.stopped_early);
        assert_eq!(got.best_loss.to_bits(), report.best_loss.to_bits());
        assert_eq!(got.loss_history.len(), report.loss_history.len());
        for (a, b) in got.loss_history.iter().zip(&report.loss_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_and_garbage_error_not_panic() {
        let mut w = Writer::new();
        let mut rng = Rng::new(2);
        write_sequential(
            &mut w,
            &Sequential::new(vec![Layer::Dense(Dense::he(3, 4, &mut rng)), Layer::Relu]),
        );
        let bytes = w.into_bytes();
        for end in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..end]);
            assert!(read_sequential(&mut r).is_err(), "prefix {end} decoded");
        }
        // Unknown layer tag.
        let mut w = Writer::new();
        w.usize(1);
        w.u8(99);
        let bytes = w.into_bytes();
        assert!(read_sequential(&mut Reader::new(&bytes)).is_err());
        // Oversized length fields error instead of allocating or wrapping.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).str_u64().is_err());
        assert!(Reader::new(&bytes).f64_vec().is_err());
        // Bad bool byte.
        assert!(Reader::new(&[2]).bool().is_err());
        // Trailing garbage fails finish().
        let r = Reader::new(&[0]);
        assert!(r.finish().is_err());
    }

    #[test]
    fn dense_bias_shape_is_validated() {
        let mut w = Writer::new();
        w.matrix(&Matrix::zeros(3, 4)); // weights 3x4
        w.matrix(&Matrix::zeros(2, 4)); // bias must be 1x4
        let bytes = w.into_bytes();
        assert!(read_dense(&mut Reader::new(&bytes)).is_err());
    }
}
