//! Trains the full framework suite of the paper's evaluation on a scenario.

use calloc::{CallocConfig, CallocTrainer, Curriculum};
use calloc_baselines::gbdt::GbdtConfig;
use calloc_baselines::{
    AdvLocConfig, AdvLocLocalizer, AnvilConfig, AnvilLocalizer, DnnConfig, DnnLocalizer, GpcConfig,
    GpcLocalizer, KnnLocalizer, SangriaConfig, SangriaLocalizer, WiDeepConfig, WiDeepLocalizer,
};
use calloc_nn::{DifferentiableModel, Localizer, Sequential};
use calloc_sim::{Dataset, Scenario, ScenarioSet};
use calloc_tensor::par;

use crate::cache::ModelCache;
use crate::fault::{ExecSpec, RunReport};
use crate::report::ResultTable;
use crate::store::{ResultStore, StoreError};
use crate::sweep::{run_env_sweep, run_sweep, SweepPlan, SweepSpec};

/// One trained framework in the suite.
pub struct SuiteMember {
    /// Framework name as used in the paper's figures.
    pub name: String,
    /// The trained model.
    pub model: Box<dyn Localizer>,
}

/// The trained suite: the paper's comparison frameworks plus a surrogate
/// DNN used to transfer-attack non-differentiable members (SANGRIA).
pub struct Suite {
    /// Trained frameworks, in figure order.
    pub members: Vec<SuiteMember>,
    /// Surrogate gradient source for transfer attacks.
    pub surrogate: Sequential,
}

/// Which frameworks to train and at what fidelity.
#[derive(Debug, Clone)]
pub struct SuiteProfile {
    /// CALLOC configuration.
    pub calloc: CallocConfig,
    /// Number of curriculum lessons (paper: 10).
    pub lessons: usize,
    /// Include the no-curriculum CALLOC ablation ("NC").
    pub include_nc: bool,
    /// Include the Fig. 6/7 state-of-the-art frameworks.
    pub include_sota: bool,
    /// Include the Fig. 1 classical baselines (KNN, GPC, DNN).
    pub include_classical: bool,
    /// Epoch budget for the DNN-family baselines.
    pub baseline_epochs: usize,
    /// FGSM ε used for adversarial *training* (CALLOC curriculum and
    /// AdvLoc), in normalized units. The paper trains at ε = 0.1; see
    /// `calloc-bench`'s `EPSILON_UNIT` for the unit calibration.
    pub train_epsilon: f64,
    /// Seed shared by all trainings.
    pub seed: u64,
}

impl SuiteProfile {
    /// Paper-fidelity profile: full-size models, 10 lessons.
    pub fn paper() -> Self {
        SuiteProfile {
            calloc: CallocConfig::default(),
            lessons: 10,
            include_nc: false,
            include_sota: true,
            include_classical: false,
            baseline_epochs: 80,
            train_epsilon: 0.025,
            seed: 0,
        }
    }

    /// Quick profile for tests and smoke runs: reduced widths and epochs.
    pub fn quick() -> Self {
        SuiteProfile {
            calloc: CallocConfig {
                epochs_per_lesson: 8,
                ..CallocConfig::fast()
            },
            lessons: 5,
            include_nc: false,
            include_sota: true,
            include_classical: false,
            baseline_epochs: 30,
            train_epsilon: 0.025,
            seed: 0,
        }
    }
}

/// A deferred member training: the figure name, the member half of its
/// model-cache key (the canonical encoding of everything that determines
/// the trained weights besides the collected data — see
/// [`crate::cache`]), and the closure that trains the model. Jobs are
/// independent (each framework derives its own RNG stream from the
/// profile seed), so the suite trainers can run them on worker threads
/// and collect the results in job (= figure) order.
struct MemberSpec<'a> {
    name: &'static str,
    key: String,
    train: MemberTrainer<'a>,
}

/// A deferred member training, boxed for the flat `par_run` fan-out.
type MemberTrainer<'a> = Box<dyn FnOnce() -> Box<dyn Localizer> + Send + 'a>;

/// One result of the suite's flat training fan-out: every framework and
/// the surrogate train in a single `par_run`. Member jobs may fan out
/// further (the worker pool gives nested fan-outs the full configured
/// budget); keeping this level flat just keeps the merge order trivially
/// the figure order.
enum Trained {
    /// A comparison-suite member, in figure order.
    Member(Box<dyn Localizer>),
    /// The transfer-attack surrogate network.
    Surrogate(Sequential),
}

/// The deferred member trainings of a profile, in figure order, each
/// carrying its cache-key half. The single source of truth shared by
/// [`Suite::train`] and [`Suite::train_cached`]: both paths train through
/// these exact closures, which is what makes a cache hit bit-identical to
/// a fresh train.
fn member_specs<'a>(scenario: &'a Scenario, profile: &'a SuiteProfile) -> Vec<MemberSpec<'a>> {
    let train = &scenario.train;
    let x = &train.x;
    let y = &train.labels;
    let k = train.num_classes();

    let mut specs: Vec<MemberSpec<'a>> = Vec::new();

    let calloc_trainer = CallocTrainer::new(profile.calloc).with_curriculum(Curriculum::linear(
        profile.lessons.max(2),
        profile.train_epsilon,
    ));
    {
        let trainer = calloc_trainer.clone();
        specs.push(MemberSpec {
            name: "CALLOC",
            key: Suite::calloc_key(profile),
            train: Box::new(move || Box::new(trainer.fit(train).model) as Box<dyn Localizer>),
        });
    }
    if profile.include_nc {
        let trainer = calloc_trainer;
        specs.push(MemberSpec {
            name: "NC",
            key: Suite::nc_key(profile),
            train: Box::new(move || {
                Box::new(trainer.fit_no_curriculum(train).model) as Box<dyn Localizer>
            }),
        });
    }

    if profile.include_sota {
        let config = AdvLocConfig {
            dnn: DnnConfig {
                epochs: profile.baseline_epochs,
                seed: profile.seed,
                ..Default::default()
            },
            epsilon: profile.train_epsilon,
            ..Default::default()
        };
        specs.push(MemberSpec {
            name: "AdvLoc",
            key: format!("AdvLoc v1 config={config:?}"),
            train: Box::new(move || {
                Box::new(AdvLocLocalizer::fit(x, y, k, &config)) as Box<dyn Localizer>
            }),
        });
        let config = SangriaConfig {
            pretrain_epochs: profile.baseline_epochs / 2,
            gbdt: GbdtConfig {
                rounds: 30,
                ..Default::default()
            },
            seed: profile.seed,
            ..Default::default()
        };
        specs.push(MemberSpec {
            name: "SANGRIA",
            key: format!("SANGRIA v1 config={config:?}"),
            train: Box::new(move || {
                Box::new(SangriaLocalizer::fit(x, y, k, &config)) as Box<dyn Localizer>
            }),
        });
        let config = AnvilConfig {
            epochs: profile.baseline_epochs,
            learning_rate: 5e-3,
            seed: profile.seed,
            ..Default::default()
        };
        specs.push(MemberSpec {
            name: "ANVIL",
            key: format!("ANVIL v1 config={config:?}"),
            train: Box::new(move || {
                Box::new(AnvilLocalizer::fit(x, y, k, &config)) as Box<dyn Localizer>
            }),
        });
        let config = WiDeepConfig {
            pretrain_epochs: profile.baseline_epochs / 2,
            seed: profile.seed,
            ..Default::default()
        };
        specs.push(MemberSpec {
            name: "WiDeep",
            key: format!("WiDeep v1 config={config:?}"),
            train: Box::new(move || {
                Box::new(
                    WiDeepLocalizer::fit(x, y, k, &config)
                        .expect("WiDeep GPC kernel must be positive definite"),
                ) as Box<dyn Localizer>
            }),
        });
    }

    if profile.include_classical {
        specs.push(MemberSpec {
            name: "KNN",
            key: "KNN v1 k=3".to_string(),
            train: Box::new(move || {
                Box::new(KnnLocalizer::fit(x.clone(), y.clone(), k, 3)) as Box<dyn Localizer>
            }),
        });
        let config = GpcConfig::default();
        specs.push(MemberSpec {
            name: "GPC",
            key: format!("GPC v1 config={config:?}"),
            train: Box::new(move || {
                Box::new(
                    GpcLocalizer::fit(x.clone(), y.clone(), k, config)
                        .expect("GPC kernel must be positive definite"),
                ) as Box<dyn Localizer>
            }),
        });
        let config = DnnConfig {
            epochs: profile.baseline_epochs,
            seed: profile.seed,
            ..Default::default()
        };
        specs.push(MemberSpec {
            name: "DNN",
            key: format!("DNN v1 config={config:?}"),
            train: Box::new(move || {
                Box::new(DnnLocalizer::fit(x, y, k, &config)) as Box<dyn Localizer>
            }),
        });
    }

    specs
}

/// The canonical fields of the CALLOC/NC cache keys: everything the
/// curriculum trainer derives its weights from besides the data.
fn calloc_key_fields(profile: &SuiteProfile) -> String {
    format!(
        "config={:?} lessons={} train_epsilon={:?}",
        profile.calloc,
        profile.lessons.max(2),
        profile.train_epsilon
    )
}

/// The resolved configuration of the transfer-attack surrogate DNN.
fn surrogate_config(profile: &SuiteProfile) -> DnnConfig {
    DnnConfig {
        hidden: vec![64],
        epochs: profile.baseline_epochs,
        seed: profile.seed ^ 0xDEAD,
        ..Default::default()
    }
}

impl Suite {
    /// Trains every requested framework on the scenario's offline data.
    ///
    /// Members train in parallel on up to `calloc_tensor::par::threads()`
    /// workers (`CALLOC_THREADS` knob; `1` = the old serial behavior).
    /// Each member consumes only its own seed-derived RNG stream and the
    /// results are merged in figure order, so the trained suite is
    /// bit-identical for every thread count.
    pub fn train(scenario: &Scenario, profile: &SuiteProfile) -> Suite {
        let train = &scenario.train;
        let x = &train.x;
        let y = &train.labels;
        let k = train.num_classes();

        let (names, member_jobs): (Vec<&'static str>, Vec<_>) = member_specs(scenario, profile)
            .into_iter()
            .map(|spec| (spec.name, spec.train))
            .unzip();

        // One flat fan-out: every member plus the surrogate (an
        // independent gradient source for transfer attacks against
        // non-differentiable members) as the last job.
        let mut trainings: Vec<Box<dyn FnOnce() -> Trained + Send + '_>> = member_jobs
            .into_iter()
            .map(|job: Box<dyn FnOnce() -> Box<dyn Localizer> + Send + '_>| {
                Box::new(move || Trained::Member(job())) as Box<dyn FnOnce() -> Trained + Send + '_>
            })
            .collect();
        let config = surrogate_config(profile);
        trainings.push(Box::new(move || {
            Trained::Surrogate(DnnLocalizer::fit(x, y, k, &config).network().clone())
        }));

        let mut trained = par::par_run(trainings);
        let Some(Trained::Surrogate(surrogate)) = trained.pop() else {
            unreachable!("the last job is always the surrogate");
        };
        let members = names
            .into_iter()
            .zip(trained)
            .map(|(name, trained)| {
                let Trained::Member(model) = trained else {
                    unreachable!("only the last job is the surrogate");
                };
                SuiteMember {
                    name: name.into(),
                    model,
                }
            })
            .collect();
        Suite { members, surrogate }
    }

    /// Like [`train`](Self::train), but backed by a [`ModelCache`]:
    /// members (and the surrogate) whose `(config, cell)` key is already
    /// cached are restored bit-identically instead of retrained, only the
    /// misses train (in one flat fan-out merged in figure order, each on
    /// its own seed-derived RNG stream — so every miss trains
    /// bit-identically to [`train`](Self::train)), the fresh models are
    /// recorded, and the cache is checkpointed once at the end.
    ///
    /// `cell` must be the scenario's [`calloc_sim::collection_identity`]
    /// (see [`calloc_sim::ScenarioSet::cell_identity`]) — the caller
    /// vouches that `scenario` was collected exactly so. Repeated cells
    /// across figures and sweeps then train each unique
    /// `(member config, cell)` pair exactly once; the cache's hit/miss
    /// counters make the claim checkable.
    ///
    /// # Errors
    ///
    /// Fails if the cache holds undecodable entries for one of the keys,
    /// a key collides ([`StoreError::DuplicateModel`]), or the checkpoint
    /// write fails.
    pub fn train_cached(
        scenario: &Scenario,
        profile: &SuiteProfile,
        cell: &str,
        cache: &mut ModelCache,
    ) -> Result<Suite, StoreError> {
        let train = &scenario.train;
        let x = &train.x;
        let y = &train.labels;
        let k = train.num_classes();

        let specs = member_specs(scenario, profile);
        let mut names = Vec::with_capacity(specs.len());
        let mut keys = Vec::with_capacity(specs.len());
        let mut slots: Vec<Option<Box<dyn Localizer>>> = Vec::with_capacity(specs.len());
        let mut miss_jobs: Vec<(usize, MemberTrainer<'_>)> = Vec::new();
        for (i, spec) in specs.into_iter().enumerate() {
            let key = Suite::cache_key(&spec.key, cell);
            let cached = cache.get_member(&key, spec.name)?;
            if cached.is_none() {
                miss_jobs.push((i, spec.train));
            }
            slots.push(cached);
            names.push(spec.name);
            keys.push(key);
        }
        let config = surrogate_config(profile);
        let surrogate_key = Suite::cache_key(&format!("surrogate v1 config={config:?}"), cell);
        let cached_surrogate = cache.get_surrogate(&surrogate_key)?;
        let train_surrogate = cached_surrogate.is_none();

        // Train only the misses — same flat fan-out as `train`, merged in
        // figure order.
        let (miss_indices, miss_trainings): (Vec<usize>, Vec<_>) = miss_jobs.into_iter().unzip();
        let mut trainings: Vec<Box<dyn FnOnce() -> Trained + Send + '_>> = miss_trainings
            .into_iter()
            .map(|job: Box<dyn FnOnce() -> Box<dyn Localizer> + Send + '_>| {
                Box::new(move || Trained::Member(job())) as Box<dyn FnOnce() -> Trained + Send + '_>
            })
            .collect();
        if train_surrogate {
            trainings.push(Box::new(move || {
                Trained::Surrogate(DnnLocalizer::fit(x, y, k, &config).network().clone())
            }));
        }
        let mut trained = par::par_run(trainings);

        let surrogate = if train_surrogate {
            let Some(Trained::Surrogate(surrogate)) = trained.pop() else {
                unreachable!("the last job is the surrogate when it missed");
            };
            cache.insert_surrogate(&surrogate_key, &surrogate)?;
            surrogate
        } else {
            cached_surrogate.expect("cached surrogate on a hit")
        };
        for (i, trained) in miss_indices.into_iter().zip(trained) {
            let Trained::Member(model) = trained else {
                unreachable!("member jobs yield members");
            };
            cache.insert_member(&keys[i], names[i], model.as_ref())?;
            slots[i] = Some(model);
        }
        cache.checkpoint()?;

        let members = names
            .into_iter()
            .zip(slots)
            .map(|(name, model)| SuiteMember {
                name: name.into(),
                model: model.expect("every slot is a hit or a fresh train"),
            })
            .collect();
        Ok(Suite { members, surrogate })
    }

    /// Names of the members `profile` trains on `scenario`, in figure
    /// order — the valid `name` arguments of
    /// [`train_member_cached`](Self::train_member_cached).
    pub fn member_names(scenario: &Scenario, profile: &SuiteProfile) -> Vec<&'static str> {
        member_specs(scenario, profile)
            .into_iter()
            .map(|spec| spec.name)
            .collect()
    }

    /// Trains — or restores from `cache` — the single member `name` of
    /// `profile`, without touching the rest of the suite. This is the
    /// serving layer's registry hook: a server process populates its
    /// model registry member by member through the same cache keys the
    /// figure binaries train through, so a warm cache makes startup a
    /// pure restore and the served model is bit-identical to the
    /// evaluated one.
    ///
    /// Returns `Ok(None)` when `profile` does not train a member called
    /// `name` (see [`member_names`](Self::member_names)).
    ///
    /// # Errors
    ///
    /// Fails if the cache holds an undecodable entry for the key, the
    /// key collides, or the checkpoint write fails.
    pub fn train_member_cached(
        scenario: &Scenario,
        profile: &SuiteProfile,
        name: &str,
        cell: &str,
        cache: &mut ModelCache,
    ) -> Result<Option<Box<dyn Localizer>>, StoreError> {
        let Some(spec) = member_specs(scenario, profile)
            .into_iter()
            .find(|spec| spec.name == name)
        else {
            return Ok(None);
        };
        let key = Suite::cache_key(&spec.key, cell);
        let model = cache.member(&key, spec.name, spec.train)?;
        cache.checkpoint()?;
        Ok(Some(model))
    }

    /// The member half of CALLOC's model-cache key under this profile —
    /// for binaries that train CALLOC directly (Figs. 4/5, ablations)
    /// through [`ModelCache::calloc`].
    pub fn calloc_key(profile: &SuiteProfile) -> String {
        format!("CALLOC v1 {}", calloc_key_fields(profile))
    }

    /// The member half of the no-curriculum ablation's model-cache key
    /// under this profile — for Fig. 5, which trains the NC variant
    /// directly; the same key the suite trainer uses when
    /// [`SuiteProfile::include_nc`] is set, so the two paths share
    /// cached models.
    pub fn nc_key(profile: &SuiteProfile) -> String {
        format!("NC v1 {}", calloc_key_fields(profile))
    }

    /// Composes a member key half with a scenario-cell identity into the
    /// full model-cache key.
    pub fn cache_key(member_key: &str, cell: &str) -> String {
        format!("{member_key} @ {cell}")
    }

    /// Looks up a trained member by name.
    pub fn member(&self, name: &str) -> Option<&SuiteMember> {
        self.members.iter().find(|m| m.name == name)
    }

    /// The surrogate as a gradient source.
    pub fn surrogate(&self) -> &dyn DifferentiableModel {
        &self.surrogate
    }

    /// Runs an attack sweep over every trained member on the given
    /// `(building, device, fingerprints)` datasets, transfer-attacking
    /// non-differentiable members through the suite surrogate. Rows come
    /// back in plan-index order (members in figure order outermost), so
    /// the table is bit-identical for every thread count — see
    /// [`crate::sweep`].
    pub fn sweep(&self, datasets: &[(String, String, &Dataset)], spec: &SweepSpec) -> ResultTable {
        let members: Vec<(&str, &dyn Localizer)> = self
            .members
            .iter()
            .map(|m| (m.name.as_str(), m.model.as_ref()))
            .collect();
        run_sweep(&members, Some(self.surrogate()), datasets, spec)
    }

    /// Runs an environment-robustness × attack sweep over every trained
    /// member: `scenarios[e]` must be the suite's collection protocol
    /// re-generated under `spec.env_multipliers[e]` (a
    /// `calloc_sim::ScenarioSpec::single(..).with_environments(..)` grid
    /// produces the list, with the baseline sharing the training survey
    /// bit for bit), and every cell with environment index `e` evaluates
    /// on `scenarios[e]`'s test sets — one table where environment and
    /// attack robustness compose. See [`run_env_sweep`].
    ///
    /// # Panics
    ///
    /// Panics if `scenarios.len() != spec.env_multipliers.len()` or the
    /// scenarios disagree on their device lists.
    pub fn env_sweep(
        &self,
        building: &str,
        scenarios: &[&Scenario],
        spec: &SweepSpec,
    ) -> ResultTable {
        let members: Vec<(&str, &dyn Localizer)> = self
            .members
            .iter()
            .map(|m| (m.name.as_str(), m.model.as_ref()))
            .collect();
        run_env_sweep(&members, Some(self.surrogate()), building, scenarios, spec)
    }

    /// Enumerates the plan that [`sweep`](Self::sweep) would execute
    /// over the given datasets — the entry point of the fault-tolerant
    /// layer: [shard](SweepPlan::shard) it, [open a
    /// store](SweepPlan::open_store) with it, and execute with
    /// [`sweep_with_store`](Self::sweep_with_store).
    pub fn sweep_plan(
        &self,
        datasets: &[(String, String, &Dataset)],
        spec: &SweepSpec,
    ) -> SweepPlan {
        let names: Vec<String> = self.members.iter().map(|m| m.name.clone()).collect();
        let labels: Vec<(String, String)> = datasets
            .iter()
            .map(|(b, d, _)| (b.clone(), d.clone()))
            .collect();
        spec.plan(&names, &labels)
    }

    /// The trained member models in figure order — the `models` argument
    /// the [`SweepPlan`] executors expect for plans built by
    /// [`sweep_plan`](Self::sweep_plan).
    pub fn sweep_models(&self) -> Vec<&dyn Localizer> {
        self.members.iter().map(|m| m.model.as_ref()).collect()
    }

    /// Like [`sweep`](Self::sweep), but with per-cell panic quarantine
    /// and bounded deterministic retries — a poisoned cell becomes a
    /// recorded [`crate::fault::CellError`] in the returned report
    /// instead of killing the sweep. With no failures the report's table
    /// is bit-identical to [`sweep`](Self::sweep)'s. See
    /// [`SweepPlan::run_fault_tolerant`].
    pub fn sweep_fault_tolerant(
        &self,
        datasets: &[(String, String, &Dataset)],
        spec: &SweepSpec,
        exec: &ExecSpec,
    ) -> RunReport {
        let data: Vec<&Dataset> = datasets.iter().map(|(_, _, d)| *d).collect();
        self.sweep_plan(datasets, spec).run_fault_tolerant(
            &self.sweep_models(),
            Some(self.surrogate()),
            &data,
            exec,
        )
    }

    /// Executes a (possibly [sharded](SweepPlan::shard)) plan from
    /// [`sweep_plan`](Self::sweep_plan) against a checkpointed result
    /// store: only cells missing from the store run, so rerunning after
    /// a crash resumes where the last checkpoint left off. See
    /// [`SweepPlan::run_with_store`] for the full resume and failure
    /// semantics.
    ///
    /// # Errors
    ///
    /// Fails if the store belongs to a different sweep or a checkpoint
    /// write fails.
    pub fn sweep_with_store(
        &self,
        plan: &SweepPlan,
        datasets: &[(String, String, &Dataset)],
        exec: &ExecSpec,
        store: &mut ResultStore,
    ) -> Result<RunReport, StoreError> {
        let data: Vec<&Dataset> = datasets.iter().map(|(_, _, d)| *d).collect();
        plan.run_with_store(
            &self.sweep_models(),
            Some(self.surrogate()),
            &data,
            exec,
            store,
        )
    }

    /// The sweep datasets of a scenario: every per-device test set,
    /// labelled with `building` and the device acronym, in collection
    /// order.
    pub fn scenario_datasets<'a>(
        scenario: &'a Scenario,
        building: &str,
    ) -> Vec<(String, String, &'a Dataset)> {
        scenario
            .test_per_device
            .iter()
            .map(|(d, t)| (building.to_string(), d.acronym.clone(), t))
            .collect()
    }

    /// The sweep datasets of one [`ScenarioSet`] entry: the entry's
    /// per-device test sets labelled with its building's Table II name —
    /// how the figure binaries view a generated grid cell.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the set.
    pub fn set_datasets(set: &ScenarioSet, index: usize) -> Vec<(String, String, &Dataset)> {
        Self::scenario_datasets(set.scenario(index), set.building_name(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use calloc_sim::{Building, BuildingId, BuildingSpec, CollectionConfig, Scenario};

    fn tiny_scenario() -> Scenario {
        let spec = BuildingSpec {
            path_length_m: 12,
            num_aps: 16,
            ..BuildingId::B4.spec()
        };
        let building = Building::generate(spec, 4);
        Scenario::generate(&building, &CollectionConfig::small(), 9)
    }

    fn tiny_profile() -> SuiteProfile {
        SuiteProfile {
            calloc: CallocConfig {
                epochs_per_lesson: 4,
                ..CallocConfig::fast()
            },
            lessons: 3,
            include_nc: true,
            include_sota: true,
            include_classical: true,
            baseline_epochs: 10,
            train_epsilon: 0.025,
            seed: 1,
        }
    }

    #[test]
    fn trains_all_requested_members() {
        let scenario = tiny_scenario();
        let suite = Suite::train(&scenario, &tiny_profile());
        let names: Vec<&str> = suite.members.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["CALLOC", "NC", "AdvLoc", "SANGRIA", "ANVIL", "WiDeep", "KNN", "GPC", "DNN"]
        );
    }

    #[test]
    fn every_member_evaluates_on_test_data() {
        let scenario = tiny_scenario();
        let suite = Suite::train(&scenario, &tiny_profile());
        let test = &scenario.test_per_device[0].1;
        for member in &suite.members {
            let eval = evaluate(member.model.as_ref(), test, None, None);
            assert_eq!(eval.errors_m.len(), test.len(), "{}", member.name);
            assert!(eval.summary.mean.is_finite(), "{}", member.name);
        }
    }

    #[test]
    fn train_cached_restores_bit_identical_models() {
        let scenario = tiny_scenario();
        let profile = tiny_profile();
        let cell = "suite-test cell";
        let mut cache = ModelCache::in_memory();

        let cold = Suite::train_cached(&scenario, &profile, cell, &mut cache).expect("cold");
        assert_eq!(cache.hits(), 0, "cold run hits nothing");
        assert_eq!(cache.misses(), 10, "9 members + surrogate miss once");
        assert_eq!(cache.len(), 10, "every training is recorded");

        let warm = Suite::train_cached(&scenario, &profile, cell, &mut cache).expect("warm");
        assert_eq!(cache.hits(), 10, "warm run hits everything");
        assert_eq!(cache.misses(), 10, "warm run trains nothing new");

        // The determinism contract, pinned: a cache hit is bit-identical
        // to the cold train AND to an uncached `Suite::train`.
        let fresh = Suite::train(&scenario, &profile);
        for ((c, w), f) in cold.members.iter().zip(&warm.members).zip(&fresh.members) {
            assert_eq!(c.name, w.name);
            assert_eq!(c.name, f.name);
            let cs = c.model.state().expect("every member encodes");
            assert_eq!(cs, w.model.state().unwrap(), "{} warm != cold", c.name);
            assert_eq!(cs, f.model.state().unwrap(), "{} cached != fresh", c.name);
        }
        let surr = |s: &Suite| {
            let mut w = calloc_tensor::codec::Writer::new();
            calloc_nn::state::write_sequential(&mut w, &s.surrogate);
            w.into_bytes()
        };
        assert_eq!(surr(&cold), surr(&warm), "surrogate warm != cold");
        assert_eq!(surr(&cold), surr(&fresh), "surrogate cached != fresh");
    }

    #[test]
    fn member_lookup_works() {
        let scenario = tiny_scenario();
        let mut profile = tiny_profile();
        profile.include_classical = false;
        profile.include_nc = false;
        let suite = Suite::train(&scenario, &profile);
        assert!(suite.member("CALLOC").is_some());
        assert!(suite.member("KNN").is_none());
    }
}
