//! The CALLOC offline phase: curriculum-driven adversarial training with
//! the adaptive controller (§IV of the paper).

use calloc_attack::{craft, AttackConfig};
use calloc_nn::{loss, Adam, LayerGrad, Mode, Optimizer, ParamAdam};
use calloc_sim::Dataset;
use calloc_tensor::{Matrix, Rng};

use crate::curriculum::{AdaptiveConfig, Curriculum, Lesson, LessonReport};
use crate::model::{CallocConfig, CallocModel};

/// Result of the offline phase: the trained model and the per-lesson
/// training history.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The trained CALLOC model (best weights).
    pub model: CallocModel,
    /// One report per curriculum lesson, in training order.
    pub lesson_reports: Vec<LessonReport>,
}

/// Trains [`CallocModel`]s through the adaptive curriculum.
///
/// See the crate-level docs for a quickstart. The trainer owns all
/// schedule-related knobs; the architecture knobs live in
/// [`CallocConfig`].
#[derive(Debug, Clone)]
pub struct CallocTrainer {
    config: CallocConfig,
    curriculum: Curriculum,
    adaptive: AdaptiveConfig,
}

impl CallocTrainer {
    /// Creates a trainer with the paper's 10-lesson curriculum and the
    /// default adaptive controller.
    pub fn new(config: CallocConfig) -> Self {
        CallocTrainer {
            config,
            curriculum: Curriculum::paper(),
            adaptive: AdaptiveConfig::default(),
        }
    }

    /// Replaces the curriculum.
    pub fn with_curriculum(mut self, curriculum: Curriculum) -> Self {
        self.curriculum = curriculum;
        self
    }

    /// Replaces the adaptive-controller configuration.
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Runs the full offline phase on an attack-free training dataset.
    ///
    /// Adversarial lesson data is crafted **against the model being
    /// trained** (white-box self-attack with FGSM, fixed ε), exactly as in
    /// the paper.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit(&self, train: &Dataset) -> TrainOutcome {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        let mut rng = Rng::new(self.config.seed);
        let prototypes = CallocModel::prototypes_from(train);
        let mut model = CallocModel::new(prototypes, &train.rp_positions, self.config, &mut rng);
        let mut opt = Opt::new(&model, self.config.learning_rate);

        let mut reports = Vec::with_capacity(self.curriculum.len());
        let mut best_loss_so_far = f64::INFINITY;
        for lesson in self.curriculum.lessons() {
            let report = self.run_lesson(
                &mut model,
                &mut opt,
                train,
                *lesson,
                &mut best_loss_so_far,
                &mut rng,
            );
            reports.push(report);
        }
        TrainOutcome {
            model,
            lesson_reports: reports,
        }
    }

    /// The "NC" ablation of Fig. 5: curriculum learning is not applied.
    ///
    /// The curriculum is the mechanism that stages adversarial lessons into
    /// training, so disabling it means the model trains on attack-free
    /// data only, for the same total number of epochs, with the adaptive
    /// controller off — the standard (non-adversarial) training the paper
    /// contrasts against.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit_no_curriculum(&self, train: &Dataset) -> TrainOutcome {
        let lessons: Vec<Lesson> = (1..=self.curriculum.len())
            .map(|index| Lesson {
                index,
                phi_percent: 0.0,
                epsilon: 0.0,
                clean_fraction: 1.0,
            })
            .collect();
        let trainer = CallocTrainer {
            config: self.config,
            curriculum: CurriculumFromLessons::build(lessons),
            adaptive: AdaptiveConfig {
                enabled: false,
                ..self.adaptive
            },
        };
        TrainOutcome {
            lesson_reports: Vec::new(),
            ..trainer.fit(train)
        }
    }

    /// Trains one lesson with the adaptive revert/reduce-ø/retry loop.
    #[allow(clippy::too_many_arguments)]
    fn run_lesson(
        &self,
        model: &mut CallocModel,
        opt: &mut Opt,
        train: &Dataset,
        lesson: Lesson,
        best_loss_so_far: &mut f64,
        rng: &mut Rng,
    ) -> LessonReport {
        let mut effective_phi = lesson.phi_percent;
        let mut retries = 0;
        let mut attempt_losses = Vec::new();

        loop {
            let snapshot = model.clone();
            let opt_snapshot = opt.clone();
            let perm = rng.permutation(train.len());
            let x_clean = train.x.select_rows(&perm);
            let y: Vec<usize> = perm.iter().map(|&i| train.labels[i]).collect();
            // Divergence is judged *within* the lesson (§IV.D): if the loss
            // at the end of the lesson is higher than where the lesson
            // started, the model failed to adapt to this data complexity.
            let x_initial = self.lesson_inputs(model, &x_clean, &y, &lesson, effective_phi);
            let initial_loss = self.eval_loss(model, &x_initial, &x_clean, &y);
            let final_loss =
                self.train_epochs(model, opt, &x_clean, &y, &lesson, effective_phi, rng);
            attempt_losses.push(final_loss);

            let diverged = self.adaptive.enabled
                && final_loss > initial_loss * (1.0 + self.adaptive.divergence_tolerance)
                && retries < self.adaptive.max_retries
                && effective_phi > 0.0;
            if diverged {
                // Revert to the best-performing weights and soften the
                // lesson by two percentage points of ø (§IV.D).
                *model = snapshot;
                *opt = opt_snapshot;
                effective_phi = (effective_phi - self.adaptive.phi_step_down).max(0.0);
                retries += 1;
                continue;
            }
            if final_loss < *best_loss_so_far {
                *best_loss_so_far = final_loss;
            }
            return LessonReport {
                lesson,
                effective_phi,
                retries,
                attempt_losses: attempt_losses.clone(),
                best_loss: *best_loss_so_far,
            };
        }
    }

    /// Builds a lesson's inputs against the *current* model:
    /// `clean_fraction` of the rows stay original, the rest are
    /// FGSM-perturbed (white-box self-attack, §IV.A). Re-crafted every
    /// epoch so the adversarial examples never go stale as the weights
    /// move.
    fn lesson_inputs(
        &self,
        model: &CallocModel,
        x_clean: &Matrix,
        y: &[usize],
        lesson: &Lesson,
        effective_phi: f64,
    ) -> Matrix {
        let n = x_clean.rows();
        let clean_count = (n as f64 * lesson.clean_fraction).round() as usize;
        let mut x_lesson = x_clean.clone();
        if clean_count < n && effective_phi > 0.0 && lesson.epsilon > 0.0 {
            let adv_rows: Vec<usize> = (clean_count..n).collect();
            let sub = x_clean.select_rows(&adv_rows);
            let sub_y: Vec<usize> = adv_rows.iter().map(|&i| y[i]).collect();
            let attack = AttackConfig::fgsm(lesson.epsilon, effective_phi);
            let adv = craft(model, &sub, &sub_y, &attack);
            for (i, &row) in adv_rows.iter().enumerate() {
                x_lesson.set_row(row, adv.row(i));
            }
        }
        x_lesson
    }

    /// Composite loss (CE + λ·MSE) of the current model on a lesson's
    /// data, evaluated without updates (used as the divergence reference).
    fn eval_loss(
        &self,
        model: &CallocModel,
        x_lesson: &Matrix,
        x_clean: &Matrix,
        y: &[usize],
    ) -> f64 {
        let mut rng = Rng::new(0);
        let fwd = model.forward(x_lesson, Mode::Eval, &mut rng);
        let (h_o, _) = model.embed_original(x_clean, Mode::Eval, &mut rng);
        let (ce, _) = loss::cross_entropy(&fwd.logits, y);
        let (mse_loss, _) = loss::mse(&fwd.h_c, &h_o);
        ce + self.config.mse_weight * mse_loss
    }

    /// Runs the lesson's epochs, re-crafting the adversarial rows against
    /// the current weights each epoch; returns the final epoch's mean
    /// training loss (the monitored quantity of §IV.D).
    #[allow(clippy::too_many_arguments)]
    fn train_epochs(
        &self,
        model: &mut CallocModel,
        opt: &mut Opt,
        x_clean: &Matrix,
        y: &[usize],
        lesson: &Lesson,
        effective_phi: f64,
        rng: &mut Rng,
    ) -> f64 {
        let mut final_loss = f64::INFINITY;
        for _ in 0..self.config.epochs_per_lesson.max(1) {
            let x_lesson = self.lesson_inputs(model, x_clean, y, lesson, effective_phi);
            let order = rng.permutation(x_lesson.rows());
            let mut epoch_loss = 0.0;
            let mut batches = 0.0f64;
            for chunk in order.chunks(self.config.batch_size.max(1)) {
                let bx = x_lesson.select_rows(chunk);
                let bclean = x_clean.select_rows(chunk);
                let by: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
                epoch_loss += self.train_step(model, opt, &bx, &bclean, &by, rng);
                batches += 1.0;
            }
            final_loss = epoch_loss / batches.max(1.0);
        }
        final_loss
    }

    /// One optimization step of the composite objective
    /// `CE(location) + λ · MSE(H^C, H^O)`.
    fn train_step(
        &self,
        model: &mut CallocModel,
        opt: &mut Opt,
        bx: &Matrix,
        bclean: &Matrix,
        by: &[usize],
        rng: &mut Rng,
    ) -> f64 {
        let fwd = model.forward(bx, Mode::Train, rng);
        let (h_o_pair, caches_pair) = model.embed_original(bclean, Mode::Train, rng);

        let (ce, grad_logits) = loss::cross_entropy(&fwd.logits, by);
        let (mse_loss, grad_hc_mse) = loss::mse(&fwd.h_c, &h_o_pair);
        let lambda = self.config.mse_weight;

        let extra_hc = grad_hc_mse.scale(lambda);
        let mut grads = model.backward(&fwd, &grad_logits, Some(&extra_hc));
        // Alignment gradient into the H^O branch (target side of the MSE).
        let grad_ho_pair = grad_hc_mse.scale(-lambda);
        let grads_o_pair = model.backward_original(&caches_pair, &grad_ho_pair);
        add_layer_grads(grads.grads_o_mut(), grads_o_pair);

        opt.step(model, grads);
        ce + lambda * mse_loss
    }
}

/// Element-wise accumulation of two gradient lists over the same network.
fn add_layer_grads(acc: &mut [LayerGrad], extra: Vec<LayerGrad>) {
    assert_eq!(acc.len(), extra.len(), "gradient list length mismatch");
    for (a, e) in acc.iter_mut().zip(extra) {
        match (a, e) {
            (LayerGrad::Dense { w, b }, LayerGrad::Dense { w: w2, b: b2 }) => {
                *w = w.add(&w2);
                *b = b.add(&b2);
            }
            (LayerGrad::None, LayerGrad::None) => {}
            _ => panic!("gradient variant mismatch"),
        }
    }
}

/// All optimizer state for a [`CallocModel`].
#[derive(Debug, Clone)]
struct Opt {
    lr: f64,
    adam_c: Adam,
    adam_o: Adam,
    wq_w: ParamAdam,
    wq_b: ParamAdam,
    wk_w: ParamAdam,
    wk_b: ParamAdam,
    fc_w: ParamAdam,
    fc_b: ParamAdam,
}

impl Opt {
    fn new(model: &CallocModel, lr: f64) -> Self {
        let d = model.config().embedding_dim;
        let a = model.config().attention_dim;
        let c = {
            use calloc_nn::DifferentiableModel;
            model.num_classes()
        };
        Opt {
            lr,
            adam_c: Adam::new(lr),
            adam_o: Adam::new(lr),
            wq_w: ParamAdam::new(d, a),
            wq_b: ParamAdam::new(1, a),
            wk_w: ParamAdam::new(d, a),
            wk_b: ParamAdam::new(1, a),
            fc_w: ParamAdam::new(d, c),
            fc_b: ParamAdam::new(1, c),
        }
    }

    fn step(&mut self, model: &mut CallocModel, grads: crate::model::ModelGrads) {
        let (_input, grads_c, grads_o, gwq, gwk, gfc) = grads.into_parts();
        model.update(|p| {
            self.adam_c.step(p.embed_c, &grads_c);
            self.adam_o.step(p.embed_o, &grads_o);
            self.wq_w.update(&mut p.wq.w, &gwq.0, self.lr);
            self.wq_b.update(&mut p.wq.b, &gwq.1, self.lr);
            self.wk_w.update(&mut p.wk.w, &gwk.0, self.lr);
            self.wk_b.update(&mut p.wk.b, &gwk.1, self.lr);
            self.fc_w.update(&mut p.fc.w, &gfc.0, self.lr);
            self.fc_b.update(&mut p.fc.b, &gfc.1, self.lr);
        });
    }
}

/// Internal helper to build a curriculum from explicit lessons (used by the
/// NC ablation).
struct CurriculumFromLessons;

impl CurriculumFromLessons {
    fn build(lessons: Vec<Lesson>) -> Curriculum {
        // Reuse the public constructor path: build a linear curriculum of
        // the right size, then overwrite its lessons through serde
        // round-tripping is overkill — expose a crate-private setter
        // instead.
        Curriculum::from_lessons(lessons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_nn::{DifferentiableModel, Localizer};
    use calloc_sim::{Building, BuildingId, CollectionConfig, Scenario};

    fn small_scenario() -> Scenario {
        let spec = calloc_sim::BuildingSpec {
            path_length_m: 20,
            num_aps: 24,
            ..BuildingId::B1.spec()
        };
        let building = Building::generate(spec, 3);
        Scenario::generate(&building, &CollectionConfig::small(), 11)
    }

    fn fast_trainer() -> CallocTrainer {
        CallocTrainer::new(CallocConfig {
            epochs_per_lesson: 15,
            ..CallocConfig::fast()
        })
        .with_curriculum(Curriculum::linear(4, 0.1))
    }

    #[test]
    fn fit_produces_working_model() {
        let scenario = small_scenario();
        let outcome = fast_trainer().fit(&scenario.train);
        // RPs sit 1 m apart; classification accuracy is the wrong metric —
        // assert the paper's metric, mean localization error in meters.
        let errs = scenario
            .train
            .errors_meters(&outcome.model.predict_classes(&scenario.train.x));
        let mean_err = calloc_tensor::stats::mean(&errs);
        assert!(mean_err < 4.5, "train mean error {mean_err:.2} m");
        assert_eq!(outcome.lesson_reports.len(), 4);
    }

    #[test]
    fn lesson_reports_follow_curriculum_order() {
        let scenario = small_scenario();
        let outcome = fast_trainer().fit(&scenario.train);
        for (i, r) in outcome.lesson_reports.iter().enumerate() {
            assert_eq!(r.lesson.index, i + 1);
            assert!(r.effective_phi <= r.lesson.phi_percent);
        }
    }

    #[test]
    fn adaptive_controller_reduces_phi_on_divergence() {
        // Force divergence with an absurd tolerance of 0 and tiny epochs:
        // any non-monotone loss triggers a retry, which must lower ø.
        let scenario = small_scenario();
        let trainer = fast_trainer().with_adaptive(AdaptiveConfig {
            divergence_tolerance: -0.9, // every attempt "diverges"
            max_retries: 2,
            ..Default::default()
        });
        let outcome = trainer.fit(&scenario.train);
        let retried: usize = outcome.lesson_reports.iter().map(|r| r.retries).sum();
        assert!(retried > 0, "controller never engaged");
        for r in &outcome.lesson_reports {
            if r.retries > 0 && r.lesson.phi_percent > 0.0 {
                assert!(r.effective_phi < r.lesson.phi_percent);
            }
        }
    }

    #[test]
    fn nc_ablation_trains_without_reports() {
        let scenario = small_scenario();
        let outcome = fast_trainer().fit_no_curriculum(&scenario.train);
        assert!(outcome.lesson_reports.is_empty());
        let errs = scenario
            .train
            .errors_meters(&outcome.model.predict_classes(&scenario.train.x));
        let mean_err = calloc_tensor::stats::mean(&errs);
        assert!(
            mean_err < 9.0,
            "NC mean error {mean_err:.2} m collapsed entirely"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let scenario = small_scenario();
        let a = fast_trainer().fit(&scenario.train);
        let b = fast_trainer().fit(&scenario.train);
        let x = &scenario.train.x;
        assert_eq!(a.model.predict_classes(x), b.model.predict_classes(x));
    }

    #[test]
    fn memory_keys_follow_every_optimizer_step() {
        let scenario = small_scenario();
        let trainer = fast_trainer();
        let train = &scenario.train;
        let mut rng = Rng::new(14);
        let mut model = CallocModel::new(
            CallocModel::prototypes_from(train),
            &train.rp_positions,
            trainer.config,
            &mut rng,
        );
        let mut opt = Opt::new(&model, trainer.config.learning_rate);
        let rows: Vec<usize> = (0..16).collect();
        let (bx, by) = (
            train.x.select_rows(&rows),
            rows.iter().map(|&i| train.labels[i]).collect::<Vec<_>>(),
        );
        let before = model.logits(&train.x);
        trainer.train_step(&mut model, &mut opt, &bx, &bx, &by, &mut rng);
        let after = model.logits(&train.x);
        assert_ne!(before, after, "the step must move the weights");
        crate::model::assert_bits_eq(&after, &model.logits_uncached(&train.x));
    }

    #[test]
    fn curriculum_model_resists_attacks_better_than_nc() {
        use calloc_attack::{craft, AttackConfig};
        let scenario = small_scenario();
        let trainer = CallocTrainer::new(CallocConfig {
            epochs_per_lesson: 6,
            ..CallocConfig::fast()
        })
        .with_curriculum(Curriculum::linear(6, 0.1));
        let cur = trainer.fit(&scenario.train);
        let nc = trainer.fit_no_curriculum(&scenario.train);

        let test = &scenario.test_per_device[0].1;
        let attack = AttackConfig::fgsm(0.2, 100.0);
        let err_of = |m: &CallocModel| {
            let adv = craft(m, &test.x, &test.labels, &attack);
            let errs = test.errors_meters(&m.predict_classes(&adv));
            calloc_tensor::stats::mean(&errs)
        };
        let cur_err = err_of(&cur.model);
        let nc_err = err_of(&nc.model);
        // The curriculum model should not be clearly worse under attack.
        assert!(
            cur_err <= nc_err * 1.25 + 0.5,
            "curriculum {cur_err:.2} m vs NC {nc_err:.2} m"
        );
    }
}
