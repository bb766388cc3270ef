//! The CALLOC hyperspace-attention network (§IV.B–C of the paper).

use calloc_nn::attention::{attention_backward, attention_backward_query, attention_forward};
use calloc_nn::state;
use calloc_nn::{
    loss, Cache, Dense, DifferentiableModel, Layer, LayerGrad, Localizer, Mode, Sequential,
};
use calloc_sim::Dataset;
use calloc_tensor::codec::{Reader, Writer};
use calloc_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters (§V.A of the paper).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CallocConfig {
    /// Hyperspace width of both embedding networks (paper: 128 neurons).
    pub embedding_dim: usize,
    /// Attention projection width for Q/K.
    pub attention_dim: usize,
    /// Dropout rate on the `H^O` branch (paper: 0.2).
    pub dropout: f64,
    /// Gaussian noise std on the `H^O` branch (paper: 0.32).
    pub gaussian_noise: f64,
    /// Weight λ of the hyperspace-alignment MSE loss next to the location
    /// cross-entropy.
    pub mse_weight: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Epochs per curriculum lesson.
    pub epochs_per_lesson: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for initialization, shuffling and stochastic layers.
    pub seed: u64,
}

impl Default for CallocConfig {
    fn default() -> Self {
        CallocConfig {
            embedding_dim: 128,
            attention_dim: 64,
            dropout: 0.2,
            gaussian_noise: 0.32,
            mse_weight: 0.5,
            learning_rate: 5e-3,
            epochs_per_lesson: 15,
            batch_size: 32,
            seed: 0,
        }
    }
}

impl CallocConfig {
    /// A reduced configuration for tests and doctests: smaller hyperspaces
    /// and fewer epochs. Semantics are unchanged.
    pub fn fast() -> Self {
        CallocConfig {
            embedding_dim: 32,
            attention_dim: 16,
            epochs_per_lesson: 8,
            ..Default::default()
        }
    }
}

/// The trained CALLOC model.
///
/// Holds the two embedding networks, the attention projections, the final
/// classifier, and the *reference memory*: one prototype fingerprint per RP
/// (the mean of that RP's offline fingerprints) together with the RP
/// locations that act as the attention values `V`.
///
/// The memory's keys depend only on the weights, so the model keeps them
/// embedded (`MemoryKeys`) next to the weights. Every constructor builds
/// them and every weight write goes through the private `update`, which
/// rebuilds them, so they can never be stale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CallocModel {
    config: CallocConfig,
    /// Curriculum-branch embedding: `Dense → ReLU` (produces `H^C`).
    embed_c: Sequential,
    /// Original-branch embedding: `Dense → ReLU → Dropout → GaussianNoise`
    /// (produces `H^O`).
    embed_o: Sequential,
    /// Query projection applied to `H^C`.
    wq: Dense,
    /// Key projection applied to `H^O` of the reference memory.
    wk: Dense,
    /// Final fully connected classifier over the attention-retrieved
    /// context (the weighted combination of clean memory embeddings).
    fc: Dense,
    /// Prototype fingerprint per RP (`num_rps` × `num_aps`).
    memory_x: Matrix,
    /// RP locations, normalized to `[0, 1]²` (`num_rps` × 2).
    memory_v: Matrix,
    /// Scale used to normalize RP coordinates (for reporting).
    location_scale: f64,
    num_classes: usize,
    /// The reference memory embedded by the current weights.
    memory: MemoryKeys,
}

/// The reference memory as the attention sees it: `H^O` of the
/// prototypes (embedded in eval mode, so it is a pure function of the
/// weights), its layer caches for the training backward, and the keys
/// `Wk · H^O`.
#[derive(Debug, Clone)]
struct MemoryKeys {
    h_o: Matrix,
    caches: Vec<Cache>,
    k_proj: Matrix,
}

impl MemoryKeys {
    fn embed(embed_o: &Sequential, wk: &Dense, memory_x: &Matrix) -> Self {
        // Eval mode never draws from the RNG; any seed works.
        let (h_o, caches) = embed_o.forward(memory_x, Mode::Eval, &mut Rng::new(0));
        let k_proj = wk.forward(&h_o);
        MemoryKeys {
            h_o,
            caches,
            k_proj,
        }
    }
}

/// Mutable views of every trainable parameter, handed to the closure of
/// [`CallocModel::update`].
pub(crate) struct ParamsMut<'a> {
    pub embed_c: &'a mut Sequential,
    pub embed_o: &'a mut Sequential,
    pub wq: &'a mut Dense,
    pub wk: &'a mut Dense,
    pub fc: &'a mut Dense,
}

/// Everything the training step needs from a forward pass.
pub(crate) struct ForwardCaches {
    pub h_c: Matrix,
    caches_c: Vec<Cache>,
    attn: calloc_nn::attention::AttentionCache,
    context: Matrix,
    pub logits: Matrix,
}

/// Parameter gradients of one training step.
pub(crate) struct ModelGrads {
    pub input: Matrix,
    grads_c: Vec<LayerGrad>,
    grads_o: Vec<LayerGrad>,
    wq: (Matrix, Matrix),
    wk: (Matrix, Matrix),
    fc: (Matrix, Matrix),
}

impl CallocModel {
    /// Creates an untrained model for a building with `num_aps` visible APs
    /// and the given RP prototypes.
    ///
    /// `memory_x` must hold one clean prototype fingerprint per RP (row
    /// order = class label order) and `rp_positions` the matching
    /// coordinates in meters.
    ///
    /// # Panics
    ///
    /// Panics if `memory_x.rows() != rp_positions.len()` or either is
    /// empty.
    pub fn new(
        memory_x: Matrix,
        rp_positions: &[(f64, f64)],
        config: CallocConfig,
        rng: &mut Rng,
    ) -> Self {
        assert_eq!(
            memory_x.rows(),
            rp_positions.len(),
            "memory rows must match RP count"
        );
        assert!(!rp_positions.is_empty(), "empty reference memory");
        let num_aps = memory_x.cols();
        let num_classes = rp_positions.len();
        let d = config.embedding_dim;

        let location_scale = rp_positions
            .iter()
            .flat_map(|&(x, y)| [x, y])
            .fold(1.0f64, f64::max);
        let memory_v = Matrix::from_fn(num_classes, 2, |r, c| {
            let (x, y) = rp_positions[r];
            (if c == 0 { x } else { y }) / location_scale
        });

        let embed_c = Sequential::new(vec![Layer::Dense(Dense::he(num_aps, d, rng)), Layer::Relu]);
        let embed_o = Sequential::new(vec![
            Layer::Dense(Dense::he(num_aps, d, rng)),
            Layer::Relu,
            Layer::Dropout {
                rate: config.dropout,
            },
            Layer::GaussianNoise {
                std: config.gaussian_noise,
            },
        ]);
        let wq = Dense::xavier(d, config.attention_dim, rng);
        let wk = Dense::xavier(d, config.attention_dim, rng);
        let fc = Dense::xavier(d, num_classes, rng);
        CallocModel {
            memory: MemoryKeys::embed(&embed_o, &wk, &memory_x),
            embed_c,
            embed_o,
            wq,
            wk,
            fc,
            memory_x,
            memory_v,
            location_scale,
            num_classes,
            config,
        }
    }

    /// Builds the reference memory from an offline dataset: the prototype
    /// of each RP class is the mean of its fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if some RP class has no fingerprints.
    pub fn prototypes_from(dataset: &Dataset) -> Matrix {
        let k = dataset.num_classes();
        let mut proto = Matrix::zeros(k, dataset.num_aps());
        let mut counts = vec![0usize; k];
        for (r, &label) in dataset.labels.iter().enumerate() {
            counts[label] += 1;
            for c in 0..dataset.num_aps() {
                proto.set(label, c, proto.get(label, c) + dataset.x.get(r, c));
            }
        }
        for (class, &count) in counts.iter().enumerate() {
            assert!(count > 0, "RP class {class} has no fingerprints");
            for c in 0..dataset.num_aps() {
                proto.set(class, c, proto.get(class, c) / count as f64);
            }
        }
        proto
    }

    /// The architecture configuration.
    pub fn config(&self) -> &CallocConfig {
        &self.config
    }

    /// Fingerprint dimensionality.
    pub fn num_aps(&self) -> usize {
        self.memory_x.cols()
    }

    /// Total trainable parameters: both embeddings, the attention
    /// projections and the final classifier (the paper reports 65,239 for
    /// its building dimensions).
    pub fn parameter_count(&self) -> usize {
        self.embed_c.parameter_count()
            + self.embed_o.parameter_count()
            + self.wq.parameter_count()
            + self.wk.parameter_count()
            + self.fc.parameter_count()
    }

    /// Model size in kB assuming f32 storage (paper: 254.84 kB).
    pub fn size_kb_f32(&self) -> f64 {
        self.parameter_count() as f64 * 4.0 / 1000.0
    }

    /// Full forward pass. `mode` controls the stochastic layers of the
    /// query branch; the reference memory is always embedded in eval mode
    /// so that the keys stay stable — which is what lets the model keep
    /// them ([`MemoryKeys`]) instead of re-embedding them per call.
    ///
    /// The attention performs a *soft fingerprint lookup*: the (possibly
    /// attacked) query `H^C` is matched against the clean memory keys
    /// `H^O`, and the retrieved context is a convex combination of clean
    /// memory embeddings — the values are anchored to the RP map, which is
    /// what bounds the damage a bounded input perturbation can do.
    pub(crate) fn forward(&self, x: &Matrix, mode: Mode, rng: &mut Rng) -> ForwardCaches {
        let (h_c, caches_c) = self.embed_c.forward(x, mode, rng);
        let q_proj = self.wq.forward(&h_c);
        let (retrieved, attn) = attention_forward(&q_proj, &self.memory.k_proj, &self.memory.h_o);
        // Residual fusion: the classifier sees the retrieved clean context
        // plus the query hyperspace itself. The retrieval anchors the
        // prediction to the clean memory; the residual keeps training
        // well-conditioned.
        let context = retrieved.add(&h_c);
        let logits = self.fc.forward(&context);
        ForwardCaches {
            h_c,
            caches_c,
            attn,
            context,
            logits,
        }
    }

    /// Embeds a batch through the `H^O` branch (used for the alignment
    /// loss during training).
    pub(crate) fn embed_original(
        &self,
        x: &Matrix,
        mode: Mode,
        rng: &mut Rng,
    ) -> (Matrix, Vec<Cache>) {
        self.embed_o.forward(x, mode, rng)
    }

    /// Backward pass for the classification path. `grad_logits` is
    /// `dL/dlogits`; `extra_grad_hc` (e.g. from the alignment MSE) is added
    /// to the gradient flowing into `H^C`. Returns all parameter gradients
    /// plus the input gradient.
    pub(crate) fn backward(
        &self,
        c: &ForwardCaches,
        grad_logits: &Matrix,
        extra_grad_hc: Option<&Matrix>,
    ) -> ModelGrads {
        let (g_context, g_fc_w, g_fc_b) = self.fc.backward(&c.context, grad_logits);

        // The memory embeddings appear twice: as keys (through Wk) and as
        // values; both gradient paths flow into the H^O branch. The
        // residual adds a direct path from the classifier into H^C.
        let (g_q_proj, g_k_proj, g_v) = attention_backward(&c.attn, &g_context);
        let (g_hc_from_q, g_wq_w, g_wq_b) = self.wq.backward(&c.h_c, &g_q_proj);
        let (g_ho_from_k, g_wk_w, g_wk_b) = self.wk.backward(&self.memory.h_o, &g_k_proj);
        let g_ho_mem = g_ho_from_k.add(&g_v);

        let mut g_hc = g_hc_from_q.add(&g_context);
        if let Some(extra) = extra_grad_hc {
            g_hc = g_hc.add(extra);
        }
        let (g_input, grads_c) = self.embed_c.backward(&c.caches_c, &g_hc);
        let (_, grads_o) = self.embed_o.backward(&self.memory.caches, &g_ho_mem);

        ModelGrads {
            input: g_input,
            grads_c,
            grads_o,
            wq: (g_wq_w, g_wq_b),
            wk: (g_wk_w, g_wk_b),
            fc: (g_fc_w, g_fc_b),
        }
    }

    /// The input half of [`Self::backward`] for an attack step: `dL/dx`
    /// through the query branch only, skipping every weight gradient and
    /// the memory branch (whose keys and values do not depend on `x`).
    /// Bit-identical to `backward(c, grad_logits, None).input`.
    fn backward_input(&self, c: &ForwardCaches, grad_logits: &Matrix) -> Matrix {
        let g_context = self.fc.backward_input(grad_logits);
        let g_q_proj = attention_backward_query(&c.attn, &g_context);
        let g_hc = self.wq.backward_input(&g_q_proj).add(&g_context);
        self.embed_c.backward_input(&c.caches_c, &g_hc)
    }

    /// Gradient of the `H^O` branch for a pair batch (alignment loss).
    pub(crate) fn backward_original(&self, caches: &[Cache], grad_h_o: &Matrix) -> Vec<LayerGrad> {
        let (_, grads) = self.embed_o.backward(caches, grad_h_o);
        grads
    }

    /// Attention weights over the reference RPs for a batch — which parts
    /// of the fingerprint map the model consulted (rows sum to 1).
    pub fn attention_map(&self, x: &Matrix) -> Matrix {
        let mut rng = Rng::new(0);
        let fwd = self.forward(x, Mode::Eval, &mut rng);
        fwd.attn.weights().clone()
    }

    /// Soft location estimate in meters from the attention output alone
    /// (before the classifier) — useful for diagnostics.
    pub fn soft_locations(&self, x: &Matrix) -> Vec<(f64, f64)> {
        let mut rng = Rng::new(0);
        let fwd = self.forward(x, Mode::Eval, &mut rng);
        let w = fwd.attn.weights();
        let soft = w.matmul(&self.memory_v).scale(self.location_scale);
        (0..soft.rows())
            .map(|r| (soft.get(r, 0), soft.get(r, 1)))
            .collect()
    }

    /// The one way to write the weights: `write` gets mutable views of
    /// every parameter, and the memory keys are re-embedded afterwards.
    pub(crate) fn update(&mut self, write: impl FnOnce(ParamsMut<'_>)) {
        write(ParamsMut {
            embed_c: &mut self.embed_c,
            embed_o: &mut self.embed_o,
            wq: &mut self.wq,
            wk: &mut self.wk,
            fc: &mut self.fc,
        });
        self.memory = MemoryKeys::embed(&self.embed_o, &self.wk, &self.memory_x);
    }

    /// Bit-exact encoding of the trained model for the model cache
    /// (see [`calloc_nn::state`]): the config, all network parameters as
    /// raw f64 bits, and the reference memory. [`Self::from_state`]
    /// restores a model whose every prediction is bit-identical.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let c = &self.config;
        w.usize(c.embedding_dim);
        w.usize(c.attention_dim);
        w.f64(c.dropout);
        w.f64(c.gaussian_noise);
        w.f64(c.mse_weight);
        w.f64(c.learning_rate);
        w.usize(c.epochs_per_lesson);
        w.usize(c.batch_size);
        w.u64(c.seed);
        state::write_sequential(&mut w, &self.embed_c);
        state::write_sequential(&mut w, &self.embed_o);
        state::write_dense(&mut w, &self.wq);
        state::write_dense(&mut w, &self.wk);
        state::write_dense(&mut w, &self.fc);
        w.matrix(&self.memory_x);
        w.matrix(&self.memory_v);
        w.f64(self.location_scale);
        w.usize(self.num_classes);
        w.into_bytes()
    }

    /// Decodes a model written by [`Self::state_bytes`]. Malformed input
    /// errors; it never panics and never yields a partial model.
    pub fn from_state(bytes: &[u8]) -> Result<CallocModel, String> {
        let mut r = Reader::new(bytes);
        let config = CallocConfig {
            embedding_dim: r.usize()?,
            attention_dim: r.usize()?,
            dropout: r.f64()?,
            gaussian_noise: r.f64()?,
            mse_weight: r.f64()?,
            learning_rate: r.f64()?,
            epochs_per_lesson: r.usize()?,
            batch_size: r.usize()?,
            seed: r.u64()?,
        };
        let embed_c = state::read_sequential(&mut r)?;
        let embed_o = state::read_sequential(&mut r)?;
        let wq = state::read_dense(&mut r)?;
        let wk = state::read_dense(&mut r)?;
        let fc = state::read_dense(&mut r)?;
        let memory_x = r.matrix()?;
        let memory_v = r.matrix()?;
        let location_scale = r.f64()?;
        let num_classes = r.usize()?;
        r.finish()?;
        if memory_v.rows() != memory_x.rows() || memory_x.rows() != num_classes {
            return Err(format!(
                "reference memory shape {:?}/{:?} inconsistent with {num_classes} classes",
                memory_x.shape(),
                memory_v.shape()
            ));
        }
        // The memory keys are embedded right here, so the memory branch's
        // shapes must chain: a decodable but inconsistent state is an
        // error, not a panic.
        let mut width = memory_x.cols();
        for layer in embed_o.layers() {
            if let Layer::Dense(d) = layer {
                if d.in_dim() != width {
                    return Err(format!(
                        "H^O layer expects width {} but receives {width}",
                        d.in_dim()
                    ));
                }
                width = d.out_dim();
            }
        }
        if wk.in_dim() != width {
            return Err(format!(
                "key projection expects width {} but H^O has {width}",
                wk.in_dim()
            ));
        }
        Ok(CallocModel {
            memory: MemoryKeys::embed(&embed_o, &wk, &memory_x),
            config,
            embed_c,
            embed_o,
            wq,
            wk,
            fc,
            memory_x,
            memory_v,
            location_scale,
            num_classes,
        })
    }
}

/// Weight/bias gradient pair of one dense layer.
pub(crate) type DenseGrad = (Matrix, Matrix);

/// `ModelGrads` decomposed for the optimizer: input gradient, the two
/// embedding-network gradients, then the Wq / Wk / fc dense grads.
pub(crate) type GradParts = (
    Matrix,
    Vec<LayerGrad>,
    Vec<LayerGrad>,
    DenseGrad,
    DenseGrad,
    DenseGrad,
);

impl ModelGrads {
    pub(crate) fn into_parts(self) -> GradParts {
        (
            self.input,
            self.grads_c,
            self.grads_o,
            self.wq,
            self.wk,
            self.fc,
        )
    }

    pub(crate) fn grads_o_mut(&mut self) -> &mut Vec<LayerGrad> {
        &mut self.grads_o
    }
}

impl DifferentiableModel for CallocModel {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        let mut rng = Rng::new(0);
        self.forward(x, Mode::Eval, &mut rng).logits
    }

    fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix) {
        let mut rng = Rng::new(0);
        let fwd = self.forward(x, Mode::Eval, &mut rng);
        let (loss_value, grad_logits) = loss::cross_entropy(&fwd.logits, targets);
        (loss_value, self.backward_input(&fwd, &grad_logits))
    }
}

impl Localizer for CallocModel {
    fn name(&self) -> &str {
        "CALLOC"
    }

    fn predict_classes(&self, x: &Matrix) -> Vec<usize> {
        self.logits(x).argmax_rows()
    }

    fn as_differentiable(&self) -> Option<&dyn DifferentiableModel> {
        Some(self)
    }

    fn state(&self) -> Option<Vec<u8>> {
        Some(self.state_bytes())
    }
}

/// The forward pass with the memory re-embedded from the current
/// weights on every call — the reference the kept keys must reproduce.
#[cfg(test)]
impl CallocModel {
    pub(crate) fn logits_uncached(&self, x: &Matrix) -> Matrix {
        let mut rng = Rng::new(0);
        let (h_c, _) = self.embed_c.forward(x, Mode::Eval, &mut rng);
        let (h_o_mem, _) = self.embed_o.forward(&self.memory_x, Mode::Eval, &mut rng);
        let q_proj = self.wq.forward(&h_c);
        let k_proj = self.wk.forward(&h_o_mem);
        let (retrieved, _) = attention_forward(&q_proj, &k_proj, &h_o_mem);
        self.fc.forward(&retrieved.add(&h_c))
    }
}

#[cfg(test)]
pub(crate) fn assert_bits_eq(a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model(seed: u64) -> CallocModel {
        let mut rng = Rng::new(seed);
        let memory = Matrix::from_fn(5, 6, |_, _| rng.uniform(0.0, 1.0));
        let rps: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 2.0 * i as f64)).collect();
        CallocModel::new(memory, &rps, CallocConfig::fast(), &mut rng)
    }

    #[test]
    fn logits_shape_is_batch_by_classes() {
        let model = toy_model(1);
        let x = Matrix::zeros(3, 6);
        assert_eq!(model.logits(&x).shape(), (3, 5));
    }

    #[test]
    fn parameter_count_formula() {
        let model = toy_model(2);
        let d = model.config().embedding_dim;
        let a = model.config().attention_dim;
        let expected = 2 * (6 * d + d) + 2 * (d * a + a) + d * 5 + 5;
        assert_eq!(model.parameter_count(), expected);
    }

    #[test]
    fn paper_scale_parameter_count_is_close() {
        // With the paper's dimensions (165 visible APs after filtering,
        // 128-d hyperspaces) the count should land in the right regime
        // (the paper reports 65,239).
        let mut rng = Rng::new(3);
        let memory = Matrix::zeros(29, 165);
        let rps: Vec<(f64, f64)> = (0..29).map(|i| (i as f64, 0.0)).collect();
        let model = CallocModel::new(memory, &rps, CallocConfig::default(), &mut rng);
        let count = model.parameter_count();
        assert!(
            (55_000..75_000).contains(&count),
            "parameter count {count} far from the paper's 65,239"
        );
    }

    #[test]
    fn prototypes_are_class_means() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0], vec![0.4, 0.4]]);
        let ds = Dataset::new(x, vec![0, 0, 1], vec![(0.0, 0.0), (1.0, 0.0)]);
        let proto = CallocModel::prototypes_from(&ds);
        assert_eq!(proto.row(0), &[0.5, 0.5]);
        assert_eq!(proto.row(1), &[0.4, 0.4]);
    }

    #[test]
    fn input_gradient_matches_finite_diff() {
        let model = toy_model(4);
        let mut rng = Rng::new(5);
        let x = Matrix::from_fn(2, 6, |_, _| rng.uniform(0.1, 0.9));
        let targets = vec![1usize, 3];
        let (_, grad) = model.loss_and_input_grad(&x, &targets);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..6 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let fd = (model.loss_and_input_grad(&xp, &targets).0
                    - model.loss_and_input_grad(&xm, &targets).0)
                    / (2.0 * eps);
                assert!(
                    (grad.get(r, c) - fd).abs() < 1e-5,
                    "grad[{r}][{c}] {} vs {fd}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn input_only_gradient_is_bit_identical_to_the_full_backward() {
        let model = toy_model(11);
        let mut rng = Rng::new(12);
        for batch in [1, 9] {
            let x = Matrix::from_fn(batch, 6, |_, _| rng.uniform(0.0, 1.0));
            let targets: Vec<usize> = (0..batch).map(|_| rng.index(5)).collect();
            let fwd = model.forward(&x, Mode::Eval, &mut rng);
            let (full_loss, grad_logits) = loss::cross_entropy(&fwd.logits, &targets);
            let full = model.backward(&fwd, &grad_logits, None);
            let (loss, grad) = model.loss_and_input_grad(&x, &targets);
            assert_eq!(loss.to_bits(), full_loss.to_bits());
            assert_bits_eq(&grad, &full.input);
        }
    }

    #[test]
    fn kept_memory_keys_match_an_uncached_forward() {
        let model = toy_model(13);
        let x = Matrix::from_fn(4, 6, |r, c| ((r * 7 + c) as f64 * 0.13) % 1.0);
        assert_bits_eq(&model.logits(&x), &model.logits_uncached(&x));
        let restored = CallocModel::from_state(&model.state_bytes()).expect("decode");
        assert_bits_eq(&restored.logits(&x), &restored.logits_uncached(&x));
    }

    #[test]
    fn attention_map_rows_are_distributions() {
        let model = toy_model(6);
        let x = Matrix::from_fn(4, 6, |r, c| ((r + c) as f64 * 0.1) % 1.0);
        let w = model.attention_map(&x);
        assert_eq!(w.shape(), (4, 5));
        for r in 0..4 {
            let s: f64 = w.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn soft_locations_are_inside_rp_hull() {
        let model = toy_model(7);
        let x = Matrix::from_fn(3, 6, |_, c| c as f64 * 0.15);
        for (lx, ly) in model.soft_locations(&x) {
            assert!((0.0..=4.0).contains(&lx));
            assert!((0.0..=8.0).contains(&ly));
        }
    }

    #[test]
    fn eval_is_deterministic_despite_stochastic_layers() {
        let model = toy_model(8);
        let x = Matrix::from_fn(2, 6, |_, c| c as f64 * 0.1);
        assert_eq!(model.logits(&x), model.logits(&x));
    }

    #[test]
    fn state_round_trips_bit_exactly() {
        let model = toy_model(10);
        let bytes = model.state_bytes();
        let restored = CallocModel::from_state(&bytes).expect("decode");
        let x = Matrix::from_fn(3, 6, |r, c| (r * 6 + c) as f64 * 0.07);
        let (a, b) = (model.logits(&x), restored.logits(&x));
        assert_eq!(a.shape(), b.shape());
        for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
        assert_eq!(restored.state_bytes(), bytes, "re-encode is stable");
        // Strict prefixes never decode (strided to keep the test fast).
        for end in (0..bytes.len()).step_by(97).chain([0, 1, bytes.len() - 1]) {
            assert!(
                CallocModel::from_state(&bytes[..end]).is_err(),
                "prefix {end} decoded"
            );
        }
    }

    #[test]
    fn from_state_rejects_a_memory_branch_whose_shapes_do_not_chain() {
        let mut bad = toy_model(14);
        bad.memory_x = Matrix::zeros(5, 7);
        let err = CallocModel::from_state(&bad.state_bytes()).unwrap_err();
        assert!(err.contains("receives 7"), "{err}");
        let mut bad = toy_model(15);
        bad.wk = Dense::xavier(3, bad.config.attention_dim, &mut Rng::new(0));
        let err = CallocModel::from_state(&bad.state_bytes()).unwrap_err();
        assert!(err.contains("key projection"), "{err}");
    }

    #[test]
    #[should_panic(expected = "memory rows must match")]
    fn rejects_mismatched_memory() {
        let mut rng = Rng::new(9);
        CallocModel::new(
            Matrix::zeros(3, 4),
            &[(0.0, 0.0)],
            CallocConfig::fast(),
            &mut rng,
        );
    }
}
