//! Gradient-boosted decision trees (multiclass, softmax objective).
//!
//! SANGRIA classifies autoencoder latents with a categorical
//! gradient-boosted tree ensemble; since no tree library is available
//! offline, this is a from-scratch implementation in the XGBoost style:
//! second-order (Newton) boosting with per-leaf weights
//! `w = −G / (H + λ)` and split gain
//! `G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)`.
//!
//! Split candidates are feature quantiles (not every midpoint), which keeps
//! training fast at the dimensionalities SANGRIA uses it for (a 32-d
//! latent).

use calloc_tensor::codec::{Reader, Writer};
use calloc_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// GBDT hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Boosting rounds (one tree per class per round).
    pub rounds: usize,
    /// Shrinkage applied to each tree's output.
    pub learning_rate: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required in a leaf.
    pub min_samples_leaf: usize,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Number of quantile split candidates evaluated per feature.
    pub num_thresholds: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            rounds: 40,
            learning_rate: 0.3,
            max_depth: 4,
            min_samples_leaf: 2,
            lambda: 1.0,
            num_thresholds: 16,
        }
    }
}

/// A node of a regression tree, stored in an index arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Arena index of the `x <= threshold` child.
        left: usize,
        /// Arena index of the `x > threshold` child.
        right: usize,
    },
}

/// A single regression tree fitted to (gradient, hessian) targets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Predicted value for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (leaves + splits).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn fit(x: &Matrix, grad: &[f64], hess: &[f64], indices: &[usize], config: &GbdtConfig) -> Self {
        let mut nodes = Vec::new();
        build(x, grad, hess, indices, 0, config, &mut nodes);
        RegressionTree { nodes }
    }

    fn encode_into(&self, w: &mut Writer) {
        w.usize(self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf { value } => {
                    w.u8(0);
                    w.f64(*value);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    w.u8(1);
                    w.usize(*feature);
                    w.f64(*threshold);
                    w.usize(*left);
                    w.usize(*right);
                }
            }
        }
    }

    fn decode_from(r: &mut Reader) -> Result<Self, String> {
        let n = r.usize()?;
        if n == 0 {
            return Err("regression tree with no nodes".to_string());
        }
        // Each node is at least a tag byte — bound the allocation.
        if n > r.remaining() {
            return Err(format!(
                "node count {n} exceeds {} remaining bytes",
                r.remaining()
            ));
        }
        let mut nodes = Vec::with_capacity(n);
        for me in 0..n {
            nodes.push(match r.u8()? {
                0 => Node::Leaf { value: r.f64()? },
                1 => {
                    let feature = r.usize()?;
                    let threshold = r.f64()?;
                    let left = r.usize()?;
                    let right = r.usize()?;
                    // The builder's arena invariant — children strictly
                    // after their parent — is what makes predict_row
                    // terminate; corrupt indices must not create cycles.
                    if left <= me || right <= me || left >= n || right >= n {
                        return Err(format!(
                            "split node {me} has out-of-order children {left}/{right} of {n}"
                        ));
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    }
                }
                tag => return Err(format!("unknown tree node tag {tag}")),
            });
        }
        Ok(RegressionTree { nodes })
    }
}

/// Recursively builds a node over `indices`; returns the arena index.
fn build(
    x: &Matrix,
    grad: &[f64],
    hess: &[f64],
    indices: &[usize],
    depth: usize,
    config: &GbdtConfig,
    nodes: &mut Vec<Node>,
) -> usize {
    let g: f64 = indices.iter().map(|&i| grad[i]).sum();
    let h: f64 = indices.iter().map(|&i| hess[i]).sum();
    let leaf_value = -g / (h + config.lambda);

    let make_leaf = |nodes: &mut Vec<Node>| {
        nodes.push(Node::Leaf { value: leaf_value });
        nodes.len() - 1
    };

    if depth >= config.max_depth || indices.len() < 2 * config.min_samples_leaf {
        return make_leaf(nodes);
    }

    // Greedy best split over quantile candidates of every feature.
    let parent_score = g * g / (h + config.lambda);
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
    for feature in 0..x.cols() {
        let mut values: Vec<f64> = indices.iter().map(|&i| x.get(i, feature)).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        let step = (values.len() as f64 / (config.num_thresholds + 1) as f64).max(1.0);
        let mut cand = 1.0 * step;
        while (cand as usize) < values.len() {
            let idx = cand as usize;
            let threshold = (values[idx - 1] + values[idx]) / 2.0;
            let (mut gl, mut hl, mut nl) = (0.0, 0.0, 0usize);
            for &i in indices {
                if x.get(i, feature) <= threshold {
                    gl += grad[i];
                    hl += hess[i];
                    nl += 1;
                }
            }
            let nr = indices.len() - nl;
            if nl >= config.min_samples_leaf && nr >= config.min_samples_leaf {
                let gr = g - gl;
                let hr = h - hl;
                let gain =
                    gl * gl / (hl + config.lambda) + gr * gr / (hr + config.lambda) - parent_score;
                if gain > 1e-9 && best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, feature, threshold));
                }
            }
            cand += step;
        }
    }

    let Some((_, feature, threshold)) = best else {
        return make_leaf(nodes);
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| x.get(i, feature) <= threshold);

    // Reserve this node's slot before recursing so children come after it.
    nodes.push(Node::Leaf { value: 0.0 });
    let me = nodes.len() - 1;
    let left = build(x, grad, hess, &left_idx, depth + 1, config, nodes);
    let right = build(x, grad, hess, &right_idx, depth + 1, config, nodes);
    nodes[me] = Node::Split {
        feature,
        threshold,
        left,
        right,
    };
    me
}

/// Multiclass gradient-boosted tree classifier (softmax objective).
///
/// # Example
///
/// ```
/// use calloc_baselines::gbdt::{GbdtClassifier, GbdtConfig};
/// use calloc_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.9], vec![1.0]]);
/// let y = vec![0, 0, 1, 1];
/// let model = GbdtClassifier::fit(&x, &y, 2, &GbdtConfig::default());
/// assert_eq!(model.predict(&x), y);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbdtClassifier {
    /// `trees[round][class]`.
    trees: Vec<Vec<RegressionTree>>,
    num_classes: usize,
    learning_rate: f64,
}

impl GbdtClassifier {
    /// Fits the ensemble with softmax cross-entropy boosting.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, empty data or an out-of-range label.
    pub fn fit(x: &Matrix, y: &[usize], num_classes: usize, config: &GbdtConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "sample/label mismatch");
        assert!(!y.is_empty(), "empty training set");
        assert!(y.iter().all(|&c| c < num_classes), "label out of range");

        let n = x.rows();
        let all: Vec<usize> = (0..n).collect();
        let mut scores = Matrix::zeros(n, num_classes);
        let mut trees = Vec::with_capacity(config.rounds);

        for _ in 0..config.rounds {
            let probs = scores.softmax_rows();
            let mut round = Vec::with_capacity(num_classes);
            for k in 0..num_classes {
                let mut grad = vec![0.0; n];
                let mut hess = vec![0.0; n];
                for i in 0..n {
                    let p = probs.get(i, k);
                    let target = if y[i] == k { 1.0 } else { 0.0 };
                    grad[i] = p - target;
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                }
                let tree = RegressionTree::fit(x, &grad, &hess, &all, config);
                for i in 0..n {
                    let delta = config.learning_rate * tree.predict_row(x.row(i));
                    scores.set(i, k, scores.get(i, k) + delta);
                }
                round.push(tree);
            }
            trees.push(round);
        }
        GbdtClassifier {
            trees,
            num_classes,
            learning_rate: config.learning_rate,
        }
    }

    /// Raw boosting scores (pre-softmax), `batch` x `num_classes`.
    pub fn scores(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.num_classes);
        for r in 0..x.rows() {
            let row = x.row(r);
            for round in &self.trees {
                for (k, tree) in round.iter().enumerate() {
                    out.set(
                        r,
                        k,
                        out.get(r, k) + self.learning_rate * tree.predict_row(row),
                    );
                }
            }
        }
        out
    }

    /// Predicted class per row.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.scores(x).argmax_rows()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total number of trees in the ensemble.
    pub fn tree_count(&self) -> usize {
        self.trees.iter().map(Vec::len).sum()
    }

    /// Encodes the fitted ensemble into an open writer (used nested
    /// inside SANGRIA's state).
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.usize(self.trees.len());
        for round in &self.trees {
            w.usize(round.len());
            for tree in round {
                tree.encode_into(w);
            }
        }
        w.usize(self.num_classes);
        w.f64(self.learning_rate);
    }

    /// Decodes an ensemble written by [`Self::encode_into`].
    pub(crate) fn decode_from(r: &mut Reader) -> Result<Self, String> {
        let rounds = r.usize()?;
        if rounds > r.remaining() {
            return Err(format!(
                "round count {rounds} exceeds {} remaining bytes",
                r.remaining()
            ));
        }
        let mut trees = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let per_round = r.usize()?;
            if per_round > r.remaining() {
                return Err(format!(
                    "tree count {per_round} exceeds {} remaining bytes",
                    r.remaining()
                ));
            }
            let mut round = Vec::with_capacity(per_round);
            for _ in 0..per_round {
                round.push(RegressionTree::decode_from(r)?);
            }
            trees.push(round);
        }
        let num_classes = r.usize()?;
        let learning_rate = r.f64()?;
        if trees.iter().any(|round| round.len() != num_classes) {
            return Err(format!(
                "a boosting round does not hold one tree per class ({num_classes})"
            ));
        }
        Ok(GbdtClassifier {
            trees,
            num_classes,
            learning_rate,
        })
    }

    /// Bit-exact encoding of the fitted ensemble for the model cache
    /// (see [`calloc_nn::state`]).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes an ensemble written by [`Self::state_bytes`]; malformed
    /// input errors, never panics.
    pub fn from_state(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let model = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_tensor::Rng;

    fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let centers = [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(vec![
                    cx + rng.normal(0.0, 0.05),
                    cy + rng.normal(0.0, 0.05),
                    rng.uniform(0.0, 1.0),
                ]);
                ys.push(c);
            }
        }
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn fits_blobs() {
        let (x, y) = blobs(25, 1);
        let model = GbdtClassifier::fit(&x, &y, 3, &GbdtConfig::default());
        let acc = calloc_nn::metrics::accuracy(&model.predict(&x), &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn generalizes_to_held_out_points() {
        let (x, y) = blobs(25, 2);
        let (xt, yt) = blobs(10, 3);
        let model = GbdtClassifier::fit(&x, &y, 3, &GbdtConfig::default());
        let acc = calloc_nn::metrics::accuracy(&model.predict(&xt), &yt);
        assert!(acc > 0.85, "held-out accuracy {acc}");
    }

    #[test]
    fn more_rounds_reduce_training_loss() {
        let (x, y) = blobs(20, 4);
        let loss_of = |rounds: usize| {
            let model = GbdtClassifier::fit(
                &x,
                &y,
                3,
                &GbdtConfig {
                    rounds,
                    ..Default::default()
                },
            );
            calloc_nn::loss::cross_entropy(&model.scores(&x), &y).0
        };
        assert!(loss_of(30) < loss_of(2));
    }

    #[test]
    fn depth_zero_trees_are_single_leaves() {
        let (x, y) = blobs(10, 5);
        let model = GbdtClassifier::fit(
            &x,
            &y,
            3,
            &GbdtConfig {
                max_depth: 0,
                rounds: 3,
                ..Default::default()
            },
        );
        // With stumps of depth 0, scores are row-independent.
        let s = model.scores(&x);
        for r in 1..s.rows() {
            assert_eq!(s.row(r), s.row(0));
        }
    }

    #[test]
    fn tree_count_matches_config() {
        let (x, y) = blobs(10, 6);
        let model = GbdtClassifier::fit(
            &x,
            &y,
            3,
            &GbdtConfig {
                rounds: 7,
                ..Default::default()
            },
        );
        assert_eq!(model.tree_count(), 7 * 3);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (x, y) = blobs(20, 7);
        // With a huge min leaf size no split is admissible → all leaves.
        let model = GbdtClassifier::fit(
            &x,
            &y,
            3,
            &GbdtConfig {
                min_samples_leaf: 1000,
                rounds: 2,
                ..Default::default()
            },
        );
        let s = model.scores(&x);
        for r in 1..s.rows() {
            assert_eq!(s.row(r), s.row(0));
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        GbdtClassifier::fit(&Matrix::zeros(1, 1), &[9], 3, &GbdtConfig::default());
    }
}
