//! ANVIL — multi-head attention neural network for smartphone-invariant
//! indoor localization (Tiku et al., IPIN 2022).
//!
//! ANVIL embeds the fingerprint into a short sequence of feature tokens and
//! runs multi-head **self**-attention over them before classifying; the
//! attention mixing is what gives it its strong device-heterogeneity
//! resilience. It has no adversarial defence, which is why it trails under
//! attack in the paper's Fig. 6/7.
//!
//! The architecture here (embed → `T` tokens × `D` dims → `H`-head
//! self-attention → projection → classifier) follows the published design
//! at reduced scale; every gradient is hand-derived and finite-difference
//! tested.

use calloc_nn::attention::{attention_backward, attention_forward, AttentionCache};
use calloc_nn::state::{self, StateError, StateReader, StateWriter};
use calloc_nn::{loss, Dense, DifferentiableModel, Localizer, ParamAdam};
use calloc_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// ANVIL hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AnvilConfig {
    /// Number of feature tokens the embedding is reshaped into.
    pub tokens: usize,
    /// Token dimensionality (must be divisible by `heads`).
    pub dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for AnvilConfig {
    fn default() -> Self {
        AnvilConfig {
            tokens: 4,
            dim: 16,
            heads: 2,
            learning_rate: 1e-3,
            epochs: 80,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// The ANVIL framework: multi-head attention classifier.
#[derive(Debug, Clone)]
pub struct AnvilLocalizer {
    config: AnvilConfig,
    num_classes: usize,
    embed: Dense,
    /// Per-head query/key/value projections (`dim` → `dim / heads`).
    wq: Vec<Dense>,
    wk: Vec<Dense>,
    wv: Vec<Dense>,
    /// Output projection over concatenated heads.
    wo: Dense,
    out: Dense,
}

/// Forward-pass cache for one batch.
struct Caches {
    x: Matrix,
    embed_pre: Matrix,
    tokens_all: Matrix,
    attn: Vec<Vec<AttentionCache>>,
    heads_all: Matrix,
    o_pre: Matrix,
    flat: Matrix,
}

impl AnvilLocalizer {
    /// Creates an untrained ANVIL model.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(num_aps: usize, num_classes: usize, config: AnvilConfig, rng: &mut Rng) -> Self {
        assert_eq!(
            config.dim % config.heads,
            0,
            "dim {} must be divisible by heads {}",
            config.dim,
            config.heads
        );
        let dh = config.dim / config.heads;
        AnvilLocalizer {
            embed: Dense::he(num_aps, config.tokens * config.dim, rng),
            wq: (0..config.heads)
                .map(|_| Dense::xavier(config.dim, dh, rng))
                .collect(),
            wk: (0..config.heads)
                .map(|_| Dense::xavier(config.dim, dh, rng))
                .collect(),
            wv: (0..config.heads)
                .map(|_| Dense::xavier(config.dim, dh, rng))
                .collect(),
            wo: Dense::xavier(config.dim, config.dim, rng),
            out: Dense::xavier(config.tokens * config.dim, num_classes, rng),
            config,
            num_classes,
        }
    }

    /// Trains ANVIL on `(x, y)` and returns the fitted model.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or empty data.
    pub fn fit(x: &Matrix, y: &[usize], num_classes: usize, config: &AnvilConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "sample/label mismatch");
        assert!(!y.is_empty(), "empty training set");
        let mut rng = Rng::new(config.seed);
        let mut model = AnvilLocalizer::new(x.cols(), num_classes, *config, &mut rng);
        let mut opt: Vec<ParamAdam> = model
            .dense_layers_mut()
            .iter()
            .flat_map(|d| {
                [
                    ParamAdam::new(d.w.rows(), d.w.cols()),
                    ParamAdam::new(1, d.b.cols()),
                ]
            })
            .collect();
        let mut grads = Vec::new();

        for _ in 0..config.epochs {
            let order = rng.permutation(x.rows());
            for chunk in order.chunks(config.batch_size.max(1)) {
                let bx = x.select_rows(chunk);
                let by: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
                let (logits, caches) = model.forward(&bx);
                let (_, grad_logits) = loss::cross_entropy(&logits, &by);
                grads.clear();
                model.backward(&caches, &grad_logits, Some(&mut grads));
                for ((d, g), opts) in model
                    .dense_layers_mut()
                    .into_iter()
                    .zip(&grads)
                    .zip(opt.chunks_mut(2))
                {
                    opts[0].update(&mut d.w, &g.0, config.learning_rate);
                    opts[1].update(&mut d.b, &g.1, config.learning_rate);
                }
            }
        }
        model
    }

    /// Total trainable parameter count.
    pub fn parameter_count(&self) -> usize {
        let head_params: usize = self
            .wq
            .iter()
            .chain(&self.wk)
            .chain(&self.wv)
            .map(Dense::parameter_count)
            .sum();
        self.embed.parameter_count()
            + head_params
            + self.wo.parameter_count()
            + self.out.parameter_count()
    }

    fn forward(&self, x: &Matrix) -> (Matrix, Caches) {
        let b = x.rows();
        let t = self.config.tokens;
        let d = self.config.dim;

        let embed_pre = self.embed.forward(x);
        let embed_act = embed_pre.map(|v| v.max(0.0));
        // Row-major (B, T·D) reinterprets as (B·T, D) without copying order.
        let tokens_all = Matrix::from_vec(b * t, d, embed_act.into_vec());

        let mut attn = vec![Vec::with_capacity(b); self.config.heads];
        let mut head_outputs: Vec<Matrix> = Vec::with_capacity(self.config.heads);
        for (h, attn_h) in attn.iter_mut().enumerate() {
            let q_all = self.wq[h].forward(&tokens_all);
            let k_all = self.wk[h].forward(&tokens_all);
            let v_all = self.wv[h].forward(&tokens_all);
            let dh = q_all.cols();
            let mut out_all = Matrix::zeros(b * t, dh);
            for s in 0..b {
                let rows: Vec<usize> = (s * t..(s + 1) * t).collect();
                let (o, cache) = attention_forward(
                    &q_all.select_rows(&rows),
                    &k_all.select_rows(&rows),
                    &v_all.select_rows(&rows),
                );
                for (i, &r) in rows.iter().enumerate() {
                    out_all.set_row(r, o.row(i));
                }
                attn_h.push(cache);
            }
            head_outputs.push(out_all);
        }
        // Concatenate heads along the feature axis → (B·T, D).
        let mut heads_all = head_outputs[0].clone();
        for ho in &head_outputs[1..] {
            heads_all = heads_all.hstack(ho);
        }
        let o_pre = self.wo.forward(&heads_all);
        let o_act = o_pre.map(|v| v.max(0.0));
        let flat = Matrix::from_vec(b, t * d, o_act.into_vec());
        let logits = self.out.forward(&flat);
        (
            logits,
            Caches {
                x: x.clone(),
                embed_pre,
                tokens_all,
                attn,
                heads_all,
                o_pre,
                flat,
            },
        )
    }

    /// Backward pass: returns `dL/dx`. Given `params`, it also pushes every
    /// dense layer's `(dL/dW, dL/db)` there, in [`Self::dense_layers_mut`]
    /// order; an attack step passes `None` and skips the weight gradients
    /// (the input gradient is bit-identical either way).
    fn backward(
        &self,
        c: &Caches,
        grad_logits: &Matrix,
        mut params: Option<&mut Vec<(Matrix, Matrix)>>,
    ) -> Matrix {
        let b = c.x.rows();
        let t = self.config.tokens;
        let d = self.config.dim;
        let dh = d / self.config.heads;
        let mut dense =
            |layer: &Dense, input: &Matrix, grad_out: &Matrix| match params.as_deref_mut() {
                Some(grads) => {
                    let (gx, gw, gb) = layer.backward(input, grad_out);
                    grads.push((gw, gb));
                    gx
                }
                None => layer.backward_input(grad_out),
            };

        let g_flat = dense(&self.out, &c.flat, grad_logits);
        let g_o_act = Matrix::from_vec(b * t, d, g_flat.into_vec());
        let g_o_pre = g_o_act.zip_map(&c.o_pre, |g, p| if p > 0.0 { g } else { 0.0 });
        let g_heads_all = dense(&self.wo, &c.heads_all, &g_o_pre);

        let mut g_tokens = Matrix::zeros(b * t, d);
        for h in 0..self.config.heads {
            let cols: Vec<usize> = (h * dh..(h + 1) * dh).collect();
            let g_head_out = g_heads_all.select_cols(&cols);
            let mut g_q_all = Matrix::zeros(b * t, dh);
            let mut g_k_all = Matrix::zeros(b * t, dh);
            let mut g_v_all = Matrix::zeros(b * t, dh);
            for s in 0..b {
                let rows: Vec<usize> = (s * t..(s + 1) * t).collect();
                let (gq, gk, gv) =
                    attention_backward(&c.attn[h][s], &g_head_out.select_rows(&rows));
                for (i, &r) in rows.iter().enumerate() {
                    g_q_all.set_row(r, gq.row(i));
                    g_k_all.set_row(r, gk.row(i));
                    g_v_all.set_row(r, gv.row(i));
                }
            }
            let g_tok_q = dense(&self.wq[h], &c.tokens_all, &g_q_all);
            let g_tok_k = dense(&self.wk[h], &c.tokens_all, &g_k_all);
            let g_tok_v = dense(&self.wv[h], &c.tokens_all, &g_v_all);
            g_tokens = g_tokens.add(&g_tok_q).add(&g_tok_k).add(&g_tok_v);
        }

        let g_embed_act = Matrix::from_vec(b, t * d, g_tokens.into_vec());
        let g_embed_pre = g_embed_act.zip_map(&c.embed_pre, |g, p| if p > 0.0 { g } else { 0.0 });
        dense(&self.embed, &c.x, &g_embed_pre)
    }

    /// Every dense layer, in the order [`Self::backward`] produces their
    /// gradients: classifier, output projection, each head's Q/K/V, embed.
    fn dense_layers_mut(&mut self) -> Vec<&mut Dense> {
        let mut layers = vec![&mut self.out, &mut self.wo];
        for ((q, k), v) in self.wq.iter_mut().zip(&mut self.wk).zip(&mut self.wv) {
            layers.extend([q, k, v]);
        }
        layers.push(&mut self.embed);
        layers
    }

    /// Bit-exact encoding of the trained model for the model cache
    /// (see [`calloc_nn::state`]).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        let c = &self.config;
        w.usize(c.tokens);
        w.usize(c.dim);
        w.usize(c.heads);
        w.f64(c.learning_rate);
        w.usize(c.epochs);
        w.usize(c.batch_size);
        w.u64(c.seed);
        w.usize(self.num_classes);
        state::write_dense(&mut w, &self.embed);
        for head in self.wq.iter().chain(&self.wk).chain(&self.wv) {
            state::write_dense(&mut w, head);
        }
        state::write_dense(&mut w, &self.wo);
        state::write_dense(&mut w, &self.out);
        w.into_bytes()
    }

    /// Decodes a model written by [`Self::state_bytes`]; malformed input
    /// errors, never panics.
    pub fn from_state(bytes: &[u8]) -> Result<Self, StateError> {
        let mut r = StateReader::new(bytes);
        let config = AnvilConfig {
            tokens: r.usize()?,
            dim: r.usize()?,
            heads: r.usize()?,
            learning_rate: r.f64()?,
            epochs: r.usize()?,
            batch_size: r.usize()?,
            seed: r.u64()?,
        };
        if config.heads == 0 || config.dim % config.heads != 0 {
            return Err(format!(
                "dim {} not divisible by heads {}",
                config.dim, config.heads
            ));
        }
        // One head costs well over a byte; bound the allocations.
        if config.heads > r.remaining() {
            return Err(format!(
                "head count {} exceeds {} remaining bytes",
                config.heads,
                r.remaining()
            ));
        }
        let num_classes = r.usize()?;
        let embed = state::read_dense(&mut r)?;
        let heads = |r: &mut StateReader| -> Result<Vec<Dense>, StateError> {
            (0..config.heads).map(|_| state::read_dense(r)).collect()
        };
        let wq = heads(&mut r)?;
        let wk = heads(&mut r)?;
        let wv = heads(&mut r)?;
        let wo = state::read_dense(&mut r)?;
        let out = state::read_dense(&mut r)?;
        r.finish()?;
        Ok(AnvilLocalizer {
            config,
            num_classes,
            embed,
            wq,
            wk,
            wv,
            wo,
            out,
        })
    }
}

impl DifferentiableModel for AnvilLocalizer {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        self.forward(x).0
    }

    fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix) {
        let (logits, caches) = self.forward(x);
        let (loss_value, grad_logits) = loss::cross_entropy(&logits, targets);
        (loss_value, self.backward(&caches, &grad_logits, None))
    }
}

impl Localizer for AnvilLocalizer {
    fn name(&self) -> &str {
        "ANVIL"
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

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_nn::metrics::accuracy;

    fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let centers = [(0.2, 0.25), (0.75, 0.25), (0.5, 0.8)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(vec![
                    (cx + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    (cy + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                ]);
                ys.push(c);
            }
        }
        (Matrix::from_rows(&rows), ys)
    }

    fn small_config() -> AnvilConfig {
        AnvilConfig {
            tokens: 2,
            dim: 8,
            heads: 2,
            epochs: 120,
            learning_rate: 5e-3,
            ..Default::default()
        }
    }

    #[test]
    fn trains_to_high_accuracy() {
        let (x, y) = blobs(20, 1);
        let model = AnvilLocalizer::fit(&x, &y, 3, &small_config());
        let acc = accuracy(&model.predict_classes(&x), &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn input_gradient_matches_finite_diff() {
        let mut rng = Rng::new(2);
        let model = AnvilLocalizer::new(4, 3, small_config(), &mut rng);
        let q = Matrix::from_fn(2, 4, |_, _| rng.uniform(0.2, 0.8));
        let targets = vec![0usize, 2];
        let (_, grad) = model.loss_and_input_grad(&q, &targets);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..4 {
                let mut qp = q.clone();
                qp.set(r, c, q.get(r, c) + eps);
                let mut qm = q.clone();
                qm.set(r, c, q.get(r, c) - eps);
                let fd = (model.loss_and_input_grad(&qp, &targets).0
                    - model.loss_and_input_grad(&qm, &targets).0)
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
        let mut rng = Rng::new(8);
        let model = AnvilLocalizer::new(6, 4, small_config(), &mut rng);
        for batch in [1, 7] {
            let x = Matrix::from_fn(batch, 6, |_, _| rng.uniform(0.0, 1.0));
            let targets: Vec<usize> = (0..batch).map(|_| rng.index(4)).collect();
            let (logits, caches) = model.forward(&x);
            let (full_loss, grad_logits) = loss::cross_entropy(&logits, &targets);
            let mut params = Vec::new();
            let full_grad = model.backward(&caches, &grad_logits, Some(&mut params));
            assert_eq!(params.len(), 3 + 3 * model.config.heads);
            let (loss, grad) = model.loss_and_input_grad(&x, &targets);
            assert_eq!(loss.to_bits(), full_loss.to_bits());
            assert_eq!(grad.shape(), full_grad.shape());
            for (a, b) in grad.as_slice().iter().zip(full_grad.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn parameter_count_formula() {
        let mut rng = Rng::new(3);
        let config = small_config(); // T=2, D=8, H=2, dh=4
        let model = AnvilLocalizer::new(10, 5, config, &mut rng);
        let embed = 10 * 16 + 16;
        let heads = 6 * (8 * 4 + 4); // 3 projections × 2 heads
        let wo = 8 * 8 + 8;
        let out = 16 * 5 + 5;
        assert_eq!(model.parameter_count(), embed + heads + wo + out);
    }

    #[test]
    fn training_reduces_loss() {
        let (x, y) = blobs(15, 4);
        let mut rng = Rng::new(5);
        let untrained = AnvilLocalizer::new(x.cols(), 3, small_config(), &mut rng);
        let (loss_before, _) = untrained.loss_and_input_grad(&x, &y);
        let trained = AnvilLocalizer::fit(&x, &y, 3, &small_config());
        let (loss_after, _) = trained.loss_and_input_grad(&x, &y);
        assert!(
            loss_after < loss_before * 0.5,
            "{loss_before} -> {loss_after}"
        );
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_heads() {
        let mut rng = Rng::new(6);
        AnvilLocalizer::new(
            4,
            2,
            AnvilConfig {
                dim: 9,
                heads: 2,
                ..Default::default()
            },
            &mut rng,
        );
    }
}
