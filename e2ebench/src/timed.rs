//! Pass-through timing wrappers for the program's model traits.
//!
//! [`Timed`] wraps a [`Localizer`] (and, when the model has one, its
//! [`DifferentiableModel`] view); [`TimedGrad`] wraps a bare gradient source
//! such as the transfer-attack surrogate. Every call forwards unchanged to
//! the wrapped model inside a span named `<context>.<call>.<member>`, so a
//! wrapped run
//! produces the same bytes as an unwrapped one (the traced run checks this).

use std::borrow::Borrow;
use std::sync::Arc;

use calloc_nn::{DifferentiableModel, Localizer};
use calloc_tensor::Matrix;

use crate::trace::span_with;

/// Span names of one wrapped member.
struct Names {
    predict: Arc<str>,
    logits: Arc<str>,
    grad: Arc<str>,
}

impl Names {
    fn new(context: &str, member: &str) -> Names {
        Names {
            predict: Arc::from(format!("{context}.predict.{member}")),
            logits: Arc::from(format!("{context}.logits.{member}")),
            grad: Arc::from(format!("{context}.grad.{member}")),
        }
    }
}

/// A timed [`Localizer`]: `L` is a borrowed or owned model.
pub struct Timed<L> {
    inner: L,
    names: Names,
}

impl<L: Borrow<dyn Localizer>> Timed<L> {
    /// Wraps `inner`, naming its spans after `context` and `member`.
    pub fn new(context: &str, member: &str, inner: L) -> Timed<L> {
        Timed {
            inner,
            names: Names::new(context, member),
        }
    }

    fn model(&self) -> &dyn Localizer {
        self.inner.borrow()
    }

    fn differentiable(&self) -> &dyn DifferentiableModel {
        self.model()
            .as_differentiable()
            .expect("only differentiable members hand out their gradient view")
    }
}

impl<L: Borrow<dyn Localizer> + Send + Sync> Localizer for Timed<L> {
    fn name(&self) -> &str {
        self.model().name()
    }

    fn predict_classes(&self, x: &Matrix) -> Vec<usize> {
        span_with(&self.names.predict, 0, x.rows() as u64, || {
            self.model().predict_classes(x)
        })
    }

    fn as_differentiable(&self) -> Option<&dyn DifferentiableModel> {
        self.model()
            .as_differentiable()
            .map(|_| self as &dyn DifferentiableModel)
    }

    fn state(&self) -> Option<Vec<u8>> {
        self.model().state()
    }
}

impl<L: Borrow<dyn Localizer> + Send + Sync> DifferentiableModel for Timed<L> {
    fn num_classes(&self) -> usize {
        self.differentiable().num_classes()
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        span_with(&self.names.logits, 0, x.rows() as u64, || {
            self.differentiable().logits(x)
        })
    }

    fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix) {
        span_with(&self.names.grad, 0, x.rows() as u64, || {
            self.differentiable().loss_and_input_grad(x, targets)
        })
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        span_with(&self.names.logits, 0, x.rows() as u64, || {
            self.differentiable().predict(x)
        })
    }
}

/// A timed bare gradient source (the transfer-attack surrogate).
pub struct TimedGrad<'a> {
    inner: &'a dyn DifferentiableModel,
    names: Names,
}

impl<'a> TimedGrad<'a> {
    /// Wraps `inner`, naming its spans after `context` and `member`.
    pub fn new(context: &str, member: &str, inner: &'a dyn DifferentiableModel) -> TimedGrad<'a> {
        TimedGrad {
            inner,
            names: Names::new(context, member),
        }
    }
}

impl DifferentiableModel for TimedGrad<'_> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        span_with(&self.names.logits, 0, x.rows() as u64, || {
            self.inner.logits(x)
        })
    }

    fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix) {
        span_with(&self.names.grad, 0, x.rows() as u64, || {
            self.inner.loss_and_input_grad(x, targets)
        })
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        span_with(&self.names.logits, 0, x.rows() as u64, || {
            self.inner.predict(x)
        })
    }
}
