//! The parallel attack-sweep evaluation engine.
//!
//! The paper's headline artifacts are robustness tables and heatmaps:
//! every framework evaluated under a grid of attacks. This module turns
//! that grid into a first-class, declarative, parallel subsystem:
//!
//! ```text
//! SweepSpec  --plan-->  SweepPlan  --run-->  ResultTable
//! ```
//!
//! * [`SweepSpec`] declares the axes: attack kinds × ε grid × ø grid ×
//!   targeting strategies × MITM variants × environment drift multipliers,
//!   plus an optional clean baseline cell and the ε calibration factor.
//! * [`SweepSpec::plan`] crosses those axes with the members and datasets
//!   under evaluation and flattens the whole cross-product into one work
//!   list of [`SweepCell`]s, each carrying its **plan index** — its
//!   position in the canonical enumeration order (member-major, then
//!   dataset, then environment level, then attack cell; clean first when
//!   requested, then kind → variant → targeting → ε → ø, each axis in
//!   spec order).
//! * [`SweepPlan::run`] executes the cells **grouped by transfer key**
//!   and merges the resulting rows **in plan-index order**.
//!
//! # Execution: one job per transfer key
//!
//! A cell's transfer key is its (dataset slot, attack cell): the cells
//! that share one differ only in the member. Every attack cell evaluates
//! its member on two candidate batches — one crafted on the member's own
//! gradients (when it has them) and one crafted on the suite surrogate —
//! and the surrogate's batch does not depend on the member. So the engine
//! groups the cells it executes by transfer key, and each group is one
//! job on [`calloc_tensor::par::par_run`] (idle pool workers reclaim
//! jobs off a shared queue): the job crafts the surrogate batch once,
//! evaluates every member cell of the group on it, and drops it. Peak
//! memory is one batch per running job. `run`, `run_fault_tolerant` and
//! `run_with_store` all go through this one path; sharded and resumed
//! runs group whatever cells they execute, so a group split across
//! shards simply crafts its batch once per shard.
//!
//! # The plan-index merge contract
//!
//! Grouping changes which work is shared, never a result: every cell is
//! still a deterministic function of its own inputs (its attack config,
//! its derived seeds, a transfer batch that is bit-identical however
//! often it is crafted; crafting never mutates shared state), and rows
//! are reassembled by ascending plan index, so a `ResultTable` produced
//! by this engine is **bit-identical for every thread count**
//! (`CALLOC_THREADS` ∈ {1, 2, 4, …}) and to evaluating every cell on its
//! own with [`crate::evaluate_mitm`]. `tests/determinism.rs` asserts the
//! table equality and `tests/golden_reports.rs` pins exact CSV bytes.
//!
//! # Adding a new attack axis
//!
//! Give the axis a field on [`SweepSpec`] (with every existing
//! constructor defaulting to the axis' singleton so current plans are
//! unchanged), extend [`AttackCell`] and the enumeration loop in
//! [`SweepSpec::attack_cells`] (append the new loop *innermost* to keep
//! existing plan prefixes stable within a cell block), label the axis in
//! [`ResultRow`] so CSV rows stay self-describing, and regenerate the
//! golden CSVs — their diff is the review artifact for the new axis.
//!
//! # Adding an environment axis
//!
//! Environment axes select the **data** a cell evaluates on, not the
//! adversary, so they wrap the clean + attack block instead of nesting
//! inside it (the clean baseline must sweep the environment too — pure
//! environment robustness, Fig. 3-style, is an attack-free workload).
//! The rule mirrors the attack-axis rule: a field on [`SweepSpec`] with a
//! baseline singleton default (`env_multipliers = [1.0]`, keeping every
//! existing plan and golden CSV byte-identical), an index on
//! [`SweepCell`] enumerated **between the dataset axis and the attack
//! block**, an expanded dataset slot list for [`SweepPlan::run`]
//! (dataset-major, environment innermost — see [`run_env_sweep`] for how
//! slots are built from re-collected scenarios), a label on
//! [`ResultRow`] (the `env_mult` CSV column, emitted only when the axis
//! is actually swept), and a pinned golden of its own
//! (`tests/golden/env_sweep.csv`).
//!
//! # Partial failure, sharding & resume
//!
//! [`SweepPlan::run`] is deliberately **all-or-nothing**: a cell that
//! panics unwinds to the fan-out's scope boundary and aborts the whole
//! run with nothing persisted; there is no partial table to reason
//! about. Long or flaky sweeps use the fault-tolerant layer instead:
//!
//! * [`SweepPlan::shard`] restricts a plan to a contiguous plan-index
//!   range (the enumeration is flat and stable, so shards are
//!   independently runnable); [`SweepPlan::shard_ranges`] splits a plan
//!   into `n` near-equal such ranges. Shards keep their parent's
//!   [`full_len`](SweepPlan::full_len) and
//!   [`fingerprint`](SweepPlan::fingerprint), so every shard shares the
//!   parent sweep's store identity.
//! * [`SweepPlan::run_with_store`] executes only the cells **missing**
//!   from a [`crate::store::ResultStore`], records each finished row as
//!   it completes, and checkpoints the store crash-safely on a fixed
//!   cadence. Resume = rerun the same spec against the same store file;
//!   cells finished before a crash are restored from disk, bit-exact.
//! * [`SweepPlan::run_fault_tolerant`] (and the store-backed variant)
//!   wraps every cell in a panic quarantine with a bounded,
//!   deterministic retry budget — see [`crate::fault::ExecSpec`]. A
//!   cell that panics past its budget becomes a recorded
//!   [`crate::fault::CellError`] in the [`crate::fault::RunReport`],
//!   never a lost sweep and never a silently dropped row. The boundary
//!   is per cell, inside its group job: a poisoned cell is retried or
//!   quarantined alone, and its group siblings' rows are unaffected.
//!
//! The determinism law extends to faults: because rows are keyed and
//! merged by plan index and retries replay identical inputs, a sweep
//! that crashed and resumed, ran as N shards merged
//! ([`crate::store::ResultStore::merge`] — overlap is an error, not
//! last-wins), or retried past injected faults produces a **byte
//! identical CSV** to a clean one-shot run at every `CALLOC_THREADS`.
//! `tests/fault_tolerance.rs` pins each of those paths against the
//! golden CSV, with faults injected via [`crate::fault::FaultPlan`].

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Mutex;

use calloc_attack::{AttackConfig, AttackKind, MitmAttack, MitmVariant, Targeting};
use calloc_nn::{DifferentiableModel, Localizer};
use calloc_sim::{Dataset, Scenario};
use calloc_tensor::par::{self, CaughtPanic};
use calloc_tensor::Matrix;

use crate::fault::{CellError, ExecSpec, RunReport};
use crate::metrics::{evaluate_mitm, transfer_batch};
use crate::report::{ResultRow, ResultTable};
use crate::store::{ResultStore, StoreError};

/// Declarative description of an attack sweep: the grid axes crossed with
/// every (member, dataset) pair under evaluation.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Crafting algorithms to sweep (outermost attack axis).
    pub attacks: Vec<AttackKind>,
    /// MITM injection mechanisms to sweep.
    pub variants: Vec<MitmVariant>,
    /// AP targeting strategies to sweep.
    pub targetings: Vec<Targeting>,
    /// ε grid, in **paper units** (reported verbatim in result rows).
    pub epsilons: Vec<f64>,
    /// ø grid (percentage of targeted APs), innermost attack axis.
    pub phis: Vec<f64>,
    /// Environment drift-multiplier grid: each entry evaluates the cell on
    /// a dataset re-collected with the between-phase drift scaled by the
    /// multiplier (`calloc_sim::EnvLevel::uniform`). The singleton `[1.0]`
    /// (every constructor's default) is the baseline environment and
    /// leaves plans and CSVs unchanged; see [`run_env_sweep`] for how the
    /// per-environment datasets are supplied. Must be non-empty —
    /// [`SweepSpec::plan`] rejects an empty axis (it would annihilate
    /// every cell, clean ones included).
    pub env_multipliers: Vec<f64>,
    /// Calibration factor mapping paper ε to normalized attack units
    /// (crafting uses `ε · epsilon_unit`; `calloc-bench` passes its
    /// `EPSILON_UNIT`, direct users of normalized units keep `1.0`).
    pub epsilon_unit: f64,
    /// Whether each (member, dataset) pair gets a clean baseline cell
    /// before its attack cells.
    pub include_clean: bool,
    /// Seed for random targeting and spoofing decoy selection.
    pub seed: u64,
}

impl SweepSpec {
    /// A minimal clean-only sweep (no attack cells at all).
    pub fn clean_only() -> Self {
        SweepSpec {
            attacks: Vec::new(),
            variants: vec![MitmVariant::Manipulation],
            targetings: vec![Targeting::Strongest],
            epsilons: Vec::new(),
            phis: Vec::new(),
            env_multipliers: vec![1.0],
            epsilon_unit: 1.0,
            include_clean: true,
            seed: 0,
        }
    }

    /// The paper's default sweep shape: all three crafting algorithms,
    /// manipulation injection, strongest-AP targeting, over the given ε
    /// and ø grids, with a clean baseline.
    pub fn grid(epsilons: Vec<f64>, phis: Vec<f64>) -> Self {
        SweepSpec {
            attacks: AttackKind::ALL.to_vec(),
            variants: vec![MitmVariant::Manipulation],
            targetings: vec![Targeting::Strongest],
            epsilons,
            phis,
            env_multipliers: vec![1.0],
            epsilon_unit: 1.0,
            include_clean: true,
            seed: 0,
        }
    }

    /// The full threat-model cross-product over the given grids: all
    /// crafting algorithms × both MITM variants × all targeting
    /// strategies, plus the clean baseline.
    pub fn full_grid(epsilons: Vec<f64>, phis: Vec<f64>) -> Self {
        SweepSpec {
            attacks: AttackKind::ALL.to_vec(),
            variants: MitmVariant::ALL.to_vec(),
            targetings: Targeting::ALL.to_vec(),
            epsilons,
            phis,
            env_multipliers: vec![1.0],
            epsilon_unit: 1.0,
            include_clean: true,
            seed: 0,
        }
    }

    /// Returns a copy with the given ε calibration factor.
    pub fn with_epsilon_unit(mut self, unit: f64) -> Self {
        self.epsilon_unit = unit;
        self
    }

    /// Returns a copy with the given targeting/decoy seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given environment drift-multiplier grid.
    pub fn with_env_multipliers(mut self, env_multipliers: Vec<f64>) -> Self {
        self.env_multipliers = env_multipliers;
        self
    }

    /// The attack-axis cells of this spec, in canonical order: the clean
    /// cell first (when requested), then kind → variant → targeting →
    /// ε → ø with each axis iterated in spec order and ø innermost.
    pub fn attack_cells(&self) -> Vec<Option<AttackCell>> {
        let mut cells = Vec::new();
        if self.include_clean {
            cells.push(None);
        }
        for &kind in &self.attacks {
            for &variant in &self.variants {
                for &targeting in &self.targetings {
                    for &epsilon in &self.epsilons {
                        for &phi in &self.phis {
                            cells.push(Some(AttackCell {
                                kind,
                                variant,
                                targeting,
                                epsilon,
                                phi,
                            }));
                        }
                    }
                }
            }
        }
        cells
    }

    /// Crosses the attack cells with members, datasets and environment
    /// levels into a flat, plan-indexed work list.
    ///
    /// `members` are framework names in figure order; `datasets` are
    /// `(building, device)` labels in evaluation order. The enumeration is
    /// member-major, then dataset, then environment level, then the
    /// clean + attack block — with the singleton baseline axis
    /// (`env_multipliers == [1.0]`) it is exactly the historical
    /// member → dataset → attack order. The plan is pure data — models and
    /// fingerprints are only needed at [`SweepPlan::run`] time.
    /// # Panics
    ///
    /// Panics if `env_multipliers` is empty — an empty environment axis
    /// would annihilate every cell (including clean ones); spell the
    /// baseline as `[1.0]`.
    pub fn plan(&self, members: &[String], datasets: &[(String, String)]) -> SweepPlan {
        assert!(
            !self.env_multipliers.is_empty(),
            "env_multipliers must not be empty — use [1.0] for the baseline environment"
        );
        let attack_cells = self.attack_cells();
        let mut cells = Vec::with_capacity(
            members.len() * datasets.len() * self.env_multipliers.len() * attack_cells.len(),
        );
        for member in 0..members.len() {
            for dataset in 0..datasets.len() {
                for env in 0..self.env_multipliers.len() {
                    for attack in &attack_cells {
                        cells.push(SweepCell {
                            plan_index: cells.len(),
                            member,
                            dataset,
                            env,
                            attack: attack.clone(),
                        });
                    }
                }
            }
        }
        let full_cells = cells.len();
        SweepPlan {
            spec: self.clone(),
            members: members.to_vec(),
            datasets: datasets.to_vec(),
            cells,
            full_cells,
        }
    }
}

/// One point on the attack axes of a sweep (everything except the clean
/// baseline, which is represented as `None` in a [`SweepCell`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCell {
    /// Crafting algorithm.
    pub kind: AttackKind,
    /// MITM injection mechanism.
    pub variant: MitmVariant,
    /// AP targeting strategy.
    pub targeting: Targeting,
    /// ε in paper units.
    pub epsilon: f64,
    /// ø, percentage of targeted APs.
    pub phi: f64,
}

impl AttackCell {
    /// Materializes the concrete MITM attack this cell evaluates.
    pub fn to_attack(&self, epsilon_unit: f64, seed: u64) -> MitmAttack {
        let config = AttackConfig::standard(self.kind, self.epsilon * epsilon_unit, self.phi)
            .with_targeting(self.targeting)
            .with_seed(seed);
        MitmAttack {
            config,
            variant: self.variant,
            decoy_seed: seed,
        }
    }
}

/// One unit of sweep work: evaluate one member on one dataset under one
/// attack cell (or clean, when `attack` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position of this cell in the plan — the merge key of the engine's
    /// determinism contract, and the `plan_index` of the produced row.
    pub plan_index: usize,
    /// Index into the plan's member list.
    pub member: usize,
    /// Index into the plan's dataset list.
    pub dataset: usize,
    /// Index into the spec's [`SweepSpec::env_multipliers`] grid: which
    /// environment realization of the dataset this cell evaluates.
    pub env: usize,
    /// The attack axes point, or `None` for the clean baseline.
    pub attack: Option<AttackCell>,
}

/// A fully enumerated sweep: the flat work list plus the labels it was
/// planned against.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    spec: SweepSpec,
    members: Vec<String>,
    datasets: Vec<(String, String)>,
    cells: Vec<SweepCell>,
    /// Cell count of the parent (unsharded) plan — shards keep it so
    /// they share the parent's store identity.
    full_cells: usize,
}

impl SweepPlan {
    /// The spec this plan was enumerated from.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// Member names, in figure order.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// `(building, device)` labels, in evaluation order.
    pub fn datasets(&self) -> &[(String, String)] {
        &self.datasets
    }

    /// The flat work list, in plan-index order.
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// Number of cells in the plan.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Executes the plan: every cell is evaluated — grouped by transfer
    /// key and fanned out on [`par::par_run`], see the module docs — and
    /// the rows are merged in plan-index order, so the returned table is
    /// bit-identical for every thread count.
    ///
    /// `models` must parallel the member label list. `datasets` holds one
    /// slot per (dataset label, environment level) pair, **dataset-major
    /// with the environment innermost**: slot `d · n_env + e` is the
    /// `d`-th labelled dataset as re-collected under
    /// `spec.env_multipliers[e]`. With the default baseline singleton this
    /// degenerates to exactly one slot per label — the historical
    /// contract. The `surrogate` (usually [`crate::Suite::surrogate`])
    /// crafts the transfer batch every member is also attacked with, which
    /// is what reaches non-differentiable members; pass `None` to skip
    /// attacks on them.
    ///
    /// # Panics
    ///
    /// Panics if `models` / `datasets` lengths disagree with the plan's
    /// label lists (× environment levels), or if any dataset is empty.
    /// A panicking **cell** fails the whole run — all-or-nothing, nothing
    /// partial to reason about: once the fan-out drains, the panic of the
    /// lowest failing plan index is raised again. Use
    /// [`run_fault_tolerant`](Self::run_fault_tolerant) /
    /// [`run_with_store`](Self::run_with_store) when cells may be lost
    /// or the process may be killed.
    pub fn run(
        &self,
        models: &[&dyn Localizer],
        surrogate: Option<&dyn DifferentiableModel>,
        datasets: &[&Dataset],
    ) -> ResultTable {
        let report = self.run_fault_tolerant(models, surrogate, datasets, &ExecSpec::default());
        if let Some(error) = report.errors.first() {
            panic!("{}", error.payload);
        }
        report.table
    }

    /// Validates the `run` input contract shared by every execution
    /// entry point.
    fn check_run_inputs(&self, models: &[&dyn Localizer], datasets: &[&Dataset]) {
        assert_eq!(
            models.len(),
            self.members.len(),
            "model count does not match the planned member list"
        );
        assert_eq!(
            datasets.len(),
            self.datasets.len() * self.spec.env_multipliers.len(),
            "dataset slot count must be one per (label, environment level)"
        );
    }

    /// An empty table with this plan's CSV schema.
    fn empty_table(&self) -> ResultTable {
        let mut table = ResultTable::new();
        // A non-baseline environment axis fixes the CSV schema for the
        // whole table (and, through `filtered`, all its slices), so an
        // env-swept table cannot silently lose its `env_mult` column.
        if self.spec.env_multipliers != [1.0] {
            table.mark_env_swept();
        }
        table
    }

    /// Total cell count of the parent (unsharded) plan: equal to
    /// [`len`](Self::len) for a full plan. A shard keeps its parent's
    /// value, so plan indices always lie in `0..full_len()` and every
    /// shard of one sweep shares the parent's store identity.
    pub fn full_len(&self) -> usize {
        self.full_cells
    }

    /// A stable 64-bit identity of the sweep this plan (or shard)
    /// belongs to: an FNV-1a hash of the spec's axes, the member and
    /// dataset labels, and the parent plan's cell count — everything
    /// that determines what each plan index evaluates. Sharding does not
    /// change it, so a [`crate::store::ResultStore`] opened by any shard
    /// interoperates with every other shard of the same sweep, while a
    /// store from a *different* sweep is rejected up front
    /// ([`crate::store::StoreError::PlanMismatch`]) instead of silently
    /// mixing results.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.full_cells as u64);
        h.u64(self.members.len() as u64);
        for m in &self.members {
            h.str(m);
        }
        h.u64(self.datasets.len() as u64);
        for (building, device) in &self.datasets {
            h.str(building);
            h.str(device);
        }
        let s = &self.spec;
        h.u64(s.attacks.len() as u64);
        for kind in &s.attacks {
            h.str(kind.name());
        }
        h.u64(s.variants.len() as u64);
        for v in &s.variants {
            h.str(v.name());
        }
        h.u64(s.targetings.len() as u64);
        for t in &s.targetings {
            h.str(t.name());
        }
        h.u64(s.epsilons.len() as u64);
        for &e in &s.epsilons {
            h.u64(e.to_bits());
        }
        h.u64(s.phis.len() as u64);
        for &p in &s.phis {
            h.u64(p.to_bits());
        }
        h.u64(s.env_multipliers.len() as u64);
        for &m in &s.env_multipliers {
            h.u64(m.to_bits());
        }
        h.u64(s.epsilon_unit.to_bits());
        h.u64(u64::from(s.include_clean));
        h.u64(s.seed);
        h.finish()
    }

    /// Restricts the plan to a contiguous range of cell **positions**
    /// (equal to plan indices on a full plan). The shard keeps its
    /// parent's spec, labels, [`full_len`](Self::full_len) and
    /// [`fingerprint`](Self::fingerprint), and its cells keep their
    /// original plan indices — so shards executed in separate processes
    /// write disjoint record sets that
    /// [merge](crate::store::ResultStore::merge) back bit-identically to
    /// the one-shot run.
    ///
    /// # Panics
    ///
    /// Panics if the range does not lie within `0..len()`.
    pub fn shard(&self, range: Range<usize>) -> SweepPlan {
        assert!(
            range.start <= range.end && range.end <= self.cells.len(),
            "shard range {range:?} out of bounds for a {}-cell plan",
            self.cells.len()
        );
        SweepPlan {
            spec: self.spec.clone(),
            members: self.members.clone(),
            datasets: self.datasets.clone(),
            cells: self.cells[range].to_vec(),
            full_cells: self.full_cells,
        }
    }

    /// Splits `0..len()` into `n` near-equal contiguous ranges (the
    /// first `len % n` ranges get one extra cell), suitable for
    /// [`shard`](Self::shard). Ranges beyond the cell count come back
    /// empty rather than panicking, so `n` can exceed the plan size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn shard_ranges(&self, n: usize) -> Vec<Range<usize>> {
        assert!(n > 0, "cannot split a plan into zero shards");
        let len = self.cells.len();
        let base = len / n;
        let extra = len % n;
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0;
        for i in 0..n {
            let size = base + usize::from(i < extra);
            ranges.push(start..start + size);
            start += size;
        }
        ranges
    }

    /// Opens (or creates) a crash-safe result store for this sweep at
    /// `path` — see [`crate::store::ResultStore::open`].
    pub fn open_store(&self, path: &Path) -> Result<ResultStore, StoreError> {
        ResultStore::open(path, self.full_cells, self.fingerprint())
    }

    /// An empty in-memory result store for this sweep (checkpoints are
    /// no-ops) — useful for shard-and-merge flows that never touch disk.
    pub fn memory_store(&self) -> ResultStore {
        ResultStore::in_memory(self.full_cells, self.fingerprint())
    }

    /// Assembles the result table of this plan's cells from a store, in
    /// ascending plan index. Cells without a recorded row (not yet
    /// executed, or quarantined) are simply absent — re-running the plan
    /// against the same store executes exactly those. For a completed
    /// store this table is bit-identical to what [`run`](Self::run)
    /// returns, so its CSV matches the goldens byte for byte.
    pub fn table_from_store(&self, store: &ResultStore) -> ResultTable {
        let mut table = self.empty_table();
        for cell in &self.cells {
            if let Some(row) = store.get(cell.plan_index) {
                table.push(row.clone());
            }
        }
        table
    }

    /// Executes the plan with per-cell panic quarantine and bounded
    /// deterministic retries, entirely in memory.
    ///
    /// Every cell runs behind a [`par::caught`] /
    /// [`par::par_run_caught`] unwind boundary: a panicking cell is
    /// retried up to [`ExecSpec::retries`] times (replaying identical
    /// inputs — same seed ⇒ same replay) and, if it panics on every
    /// attempt, is recorded as a [`CellError`] in the returned
    /// [`RunReport`] instead of killing the sweep. Successful rows merge
    /// in plan-index order exactly as in [`run`](Self::run), so a report
    /// with no errors carries a bit-identical table.
    ///
    /// Fault injection for tests goes through [`ExecSpec::faults`];
    /// production runs leave it empty.
    ///
    /// # Panics
    ///
    /// Panics on the same input-contract violations as
    /// [`run`](Self::run) (those are caller bugs, not cell faults).
    pub fn run_fault_tolerant(
        &self,
        models: &[&dyn Localizer],
        surrogate: Option<&dyn DifferentiableModel>,
        datasets: &[&Dataset],
        exec: &ExecSpec,
    ) -> RunReport {
        self.check_run_inputs(models, datasets);
        let inputs = Inputs {
            models,
            surrogate,
            datasets,
        };
        let positions: Vec<usize> = (0..self.cells.len()).collect();
        let (rows, errors, recovered) = self.execute(&positions, &inputs, exec, None);
        let mut table = self.empty_table();
        for row in rows {
            table.push(row);
        }
        RunReport {
            table,
            errors,
            executed: positions.len(),
            recovered,
        }
    }

    /// Executes the cells of this plan (or shard) that are **missing**
    /// from `store`, with the same quarantine/retry semantics as
    /// [`run_fault_tolerant`](Self::run_fault_tolerant), recording each
    /// finished row into the store as it completes and checkpointing
    /// crash-safely every [`ExecSpec::checkpoint_every`] cells plus once
    /// at the end.
    ///
    /// This is the resume primitive: a killed run loses at most the
    /// cells since the last checkpoint, and rerunning the same spec
    /// against the same store executes only what is absent — restored
    /// rows are bit-exact (floats round-trip as raw bits), so the final
    /// table and CSV are byte-identical to a clean one-shot run. The
    /// returned report's table covers **all** of this plan's recorded
    /// cells, restored and fresh alike.
    ///
    /// # Errors
    ///
    /// Fails up front with [`StoreError::PlanMismatch`] if the store
    /// belongs to a different sweep, and with the store's error if a
    /// checkpoint or record write fails (the run aborts once in-flight
    /// cells drain; the store keeps every row recorded before the
    /// failure).
    ///
    /// # Panics
    ///
    /// Panics on the same input-contract violations as
    /// [`run`](Self::run).
    pub fn run_with_store(
        &self,
        models: &[&dyn Localizer],
        surrogate: Option<&dyn DifferentiableModel>,
        datasets: &[&Dataset],
        exec: &ExecSpec,
        store: &mut ResultStore,
    ) -> Result<RunReport, StoreError> {
        self.check_run_inputs(models, datasets);
        store.check_plan(self.full_cells, self.fingerprint())?;
        let missing: Vec<usize> = (0..self.cells.len())
            .filter(|&p| !store.contains(self.cells[p].plan_index))
            .collect();
        let executed = missing.len();
        let inputs = Inputs {
            models,
            surrogate,
            datasets,
        };
        let sink = StoreSink::new(store, exec.checkpoint_every);
        let (_, errors, recovered) = self.execute(&missing, &inputs, exec, Some(&sink));
        sink.finish()?;
        store.checkpoint()?;
        Ok(RunReport {
            table: self.table_from_store(store),
            errors,
            executed,
            recovered,
        })
    }

    /// The one execution path behind [`run`](Self::run),
    /// [`run_fault_tolerant`](Self::run_fault_tolerant) and
    /// [`run_with_store`](Self::run_with_store): the cells at `positions`
    /// are grouped by [transfer key](Self::transfer_key), each group is
    /// one pool job ([`run_group`](Self::run_group)), and the outcomes are
    /// merged back by position (= ascending plan index). Returns the
    /// successful rows, the quarantined cells, and how many cells
    /// recovered within their retry budget. When a sink is given, each
    /// finished row is also recorded the moment its cell completes, so
    /// checkpoints can cover rows of still-running groups.
    fn execute(
        &self,
        positions: &[usize],
        inputs: &Inputs<'_>,
        exec: &ExecSpec,
        sink: Option<&StoreSink<'_>>,
    ) -> (Vec<ResultRow>, Vec<CellError>, usize) {
        let block = self.spec.attack_cells().len();
        let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for &pos in positions {
            groups
                .entry(self.transfer_key(&self.cells[pos], block))
                .or_default()
                .push(pos);
        }
        let jobs: Vec<Box<dyn FnOnce() -> Vec<CellOutcome> + Send + '_>> = groups
            .values()
            .map(|group| {
                let job: Box<dyn FnOnce() -> Vec<CellOutcome> + Send + '_> =
                    Box::new(move || self.run_group(group, inputs, exec, sink));
                job
            })
            .collect();
        // Group jobs catch every panic themselves, so this never unwinds.
        let mut outcomes: Vec<(usize, CellOutcome)> = groups
            .values()
            .flatten()
            .copied()
            .zip(par::par_run(jobs).into_iter().flatten())
            .collect();
        outcomes.sort_by_key(|&(pos, _)| pos);

        let mut rows = Vec::with_capacity(outcomes.len());
        let mut errors = Vec::new();
        let mut recovered = 0;
        for (pos, outcome) in outcomes {
            match outcome {
                Ok((row, attempts)) => {
                    if attempts > 1 {
                        recovered += 1;
                    }
                    rows.push(row);
                }
                Err(panic) => errors.push(CellError {
                    plan_index: self.cells[pos].plan_index,
                    attempts: exec.max_attempts(),
                    payload: panic.message().to_string(),
                }),
            }
        }
        (rows, errors, recovered)
    }

    /// The transfer key of a cell: its dataset slot and its position in
    /// the clean + attack block (`block` cells long). Cells sharing a key
    /// differ only in the member, and the surrogate's transfer batch does
    /// not depend on the member, so one crafted batch serves them all.
    fn transfer_key(&self, cell: &SweepCell, block: usize) -> (usize, usize) {
        (self.slot(cell), cell.plan_index % block)
    }

    /// The dataset slot a cell evaluates on (see [`run`](Self::run)).
    fn slot(&self, cell: &SweepCell) -> usize {
        cell.dataset * self.spec.env_multipliers.len() + cell.env
    }

    /// Runs one transfer-key group (`group` holds ascending positions):
    /// crafts the surrogate's transfer batch once, then evaluates every
    /// member cell on it. Each cell runs behind its own panic boundary
    /// with the retry budget, so a poisoned cell is quarantined without
    /// touching its siblings' rows; if the shared craft itself panics on
    /// every attempt, every cell of the group fails with that panic. The
    /// batch is dropped when the group finishes, so at most one batch per
    /// running job is alive.
    fn run_group(
        &self,
        group: &[usize],
        inputs: &Inputs<'_>,
        exec: &ExecSpec,
        sink: Option<&StoreSink<'_>>,
    ) -> Vec<CellOutcome> {
        let first = &self.cells[group[0]];
        let data = inputs.datasets[self.slot(first)];
        let mitm = first
            .attack
            .as_ref()
            .map(|a| a.to_attack(self.spec.epsilon_unit, self.spec.seed));
        let transfer = match (&mitm, inputs.surrogate) {
            (Some(mitm), Some(surrogate)) => {
                match retrying(exec, |_| transfer_batch(surrogate, data, mitm)) {
                    Ok((batch, _)) => Some(batch),
                    Err(panic) => return group.iter().map(|_| Err(panic.clone())).collect(),
                }
            }
            _ => None,
        };
        group
            .iter()
            .map(|&pos| {
                let cell = &self.cells[pos];
                let model = inputs.models[cell.member];
                let outcome = retrying(exec, |attempt| {
                    exec.faults.maybe_panic(cell.plan_index, attempt);
                    self.evaluate_cell(cell, model, data, mitm.as_ref(), transfer.as_ref())
                });
                if let (Ok((row, _)), Some(sink)) = (&outcome, sink) {
                    sink.record(row.clone());
                }
                outcome
            })
            .collect()
    }

    /// Evaluates one cell into its result row: `mitm` is the cell's
    /// attack (`None` for the clean cell) and `transfer` the surrogate
    /// batch its group crafted for it.
    fn evaluate_cell(
        &self,
        cell: &SweepCell,
        model: &dyn Localizer,
        data: &Dataset,
        mitm: Option<&MitmAttack>,
        transfer: Option<&Matrix>,
    ) -> ResultRow {
        let env_multiplier = self.spec.env_multipliers[cell.env];
        let (building, device) = &self.datasets[cell.dataset];
        let framework = &self.members[cell.member];
        let eval = evaluate_mitm(model, data, mitm, transfer);
        match &cell.attack {
            None => ResultRow::clean(
                cell.plan_index,
                framework,
                building,
                device,
                eval.summary.mean,
                eval.summary.max,
            )
            .with_env_multiplier(env_multiplier),
            Some(attack) => ResultRow {
                plan_index: cell.plan_index,
                framework: framework.clone(),
                building: building.clone(),
                device: device.clone(),
                env_multiplier,
                attack: attack.kind.name().into(),
                variant: attack.variant.name().into(),
                targeting: attack.targeting.name().into(),
                epsilon: attack.epsilon,
                phi: attack.phi,
                mean_error_m: eval.summary.mean,
                max_error_m: eval.summary.max,
            },
        }
    }
}

/// What executing one cell produced: its row and the attempts it took,
/// or the panic of its last attempt.
type CellOutcome = Result<(ResultRow, usize), CaughtPanic>;

/// The model and data inputs shared by every execution entry point.
struct Inputs<'a> {
    models: &'a [&'a dyn Localizer],
    surrogate: Option<&'a dyn DifferentiableModel>,
    datasets: &'a [&'a Dataset],
}

/// Runs `attempt` behind a panic boundary up to [`ExecSpec::max_attempts`]
/// times (it gets the attempt number), returning its value and the
/// attempts consumed, or the last attempt's panic. Attempts replay
/// identical inputs, so a retry that succeeds yields the exact value a
/// clean first attempt would have.
fn retrying<T>(
    exec: &ExecSpec,
    mut attempt: impl FnMut(usize) -> T,
) -> Result<(T, usize), CaughtPanic> {
    let mut last = None;
    for n in 0..exec.max_attempts() {
        match par::caught(|| attempt(n)) {
            Ok(value) => return Ok((value, n + 1)),
            Err(panic) => last = Some(panic),
        }
    }
    Err(last.expect("max_attempts is at least one"))
}

/// Shared, lock-guarded funnel from concurrently finishing cells into a
/// result store: records rows the moment they complete and checkpoints
/// on the configured cadence. The first store error latches; further
/// records are dropped and the error surfaces from [`finish`]
/// (the run aborts with it once in-flight cells drain).
///
/// [`finish`]: StoreSink::finish
struct StoreSink<'a> {
    inner: Mutex<SinkInner<'a>>,
}

struct SinkInner<'a> {
    store: &'a mut ResultStore,
    since_checkpoint: usize,
    cadence: usize,
    error: Option<StoreError>,
}

impl<'a> StoreSink<'a> {
    fn new(store: &'a mut ResultStore, cadence: usize) -> Self {
        StoreSink {
            inner: Mutex::new(SinkInner {
                store,
                since_checkpoint: 0,
                cadence,
                error: None,
            }),
        }
    }

    fn record(&self, row: ResultRow) {
        let mut inner = self.inner.lock().expect("store sink lock poisoned");
        if inner.error.is_some() {
            return;
        }
        if let Err(e) = inner.store.insert(row) {
            inner.error = Some(e);
            return;
        }
        inner.since_checkpoint += 1;
        if crate::fault::checkpoint_due(inner.cadence, inner.since_checkpoint) {
            match inner.store.checkpoint() {
                Ok(()) => inner.since_checkpoint = 0,
                Err(e) => inner.error = Some(e),
            }
        }
    }

    fn finish(self) -> Result<(), StoreError> {
        let inner = self.inner.into_inner().expect("store sink lock poisoned");
        match inner.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Minimal FNV-1a accumulator for [`SweepPlan::fingerprint`] and the
/// model-cache keys of [`crate::cache`]. Every field is written length-
/// or tag-prefixed by the caller, so distinct field sequences cannot
/// collide by concatenation.
pub(crate) struct Fnv {
    hash: u64,
}

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.hash
    }
}

/// Plans and runs a sweep in one call: `members` are `(name, model)`
/// pairs, `datasets` are `(building, device, fingerprints)` triples.
///
/// # Panics
///
/// Panics if any dataset is empty.
pub fn run_sweep(
    members: &[(&str, &dyn Localizer)],
    surrogate: Option<&dyn DifferentiableModel>,
    datasets: &[(String, String, &Dataset)],
    spec: &SweepSpec,
) -> ResultTable {
    let names: Vec<String> = members.iter().map(|(n, _)| (*n).into()).collect();
    let labels: Vec<(String, String)> = datasets
        .iter()
        .map(|(b, d, _)| (b.clone(), d.clone()))
        .collect();
    let models: Vec<&dyn Localizer> = members.iter().map(|(_, m)| *m).collect();
    let data: Vec<&Dataset> = datasets.iter().map(|(_, _, d)| *d).collect();
    spec.plan(&names, &labels).run(&models, surrogate, &data)
}

/// Plans and runs an environment-robustness sweep in one call: like
/// [`run_sweep`], but the dataset axis is expanded over
/// `spec.env_multipliers`. `scenarios[e]` must hold the collection
/// protocol re-generated under the `e`-th drift multiplier
/// (`calloc_sim::EnvLevel::uniform(spec.env_multipliers[e])` applied to
/// the same `(building, config, seed)` — a
/// `calloc_sim::ScenarioSpec::single(..).with_environments(..)` grid
/// produces exactly this list); every cell with environment index `e`
/// then evaluates on `scenarios[e]`'s per-device test sets. The dataset
/// labels are `(building, device-acronym)` in collection order, so
/// environment and attack robustness land in one table.
///
/// # Panics
///
/// Panics if `scenarios.len() != spec.env_multipliers.len()`, if the
/// scenarios disagree on their collected device lists, or if any dataset
/// is empty.
pub fn run_env_sweep(
    members: &[(&str, &dyn Localizer)],
    surrogate: Option<&dyn DifferentiableModel>,
    building: &str,
    scenarios: &[&Scenario],
    spec: &SweepSpec,
) -> ResultTable {
    assert_eq!(
        scenarios.len(),
        spec.env_multipliers.len(),
        "one scenario per environment multiplier"
    );
    assert!(
        !scenarios.is_empty(),
        "an environment sweep needs at least one scenario"
    );
    let acronyms = scenarios[0].device_acronyms();
    for s in &scenarios[1..] {
        assert_eq!(
            s.device_acronyms(),
            acronyms,
            "every environment realization must collect the same device list"
        );
    }
    let names: Vec<String> = members.iter().map(|(n, _)| (*n).into()).collect();
    let labels: Vec<(String, String)> = acronyms
        .iter()
        .map(|a| (building.to_string(), (*a).to_string()))
        .collect();
    let models: Vec<&dyn Localizer> = members.iter().map(|(_, m)| *m).collect();
    // Dataset-major, environment-innermost slot layout — the run() contract.
    let mut data: Vec<&Dataset> = Vec::with_capacity(labels.len() * scenarios.len());
    for device in 0..acronyms.len() {
        for scenario in scenarios {
            data.push(&scenario.test_per_device[device].1);
        }
    }
    spec.plan(&names, &labels).run(&models, surrogate, &data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_baselines::KnnLocalizer;
    use calloc_sim::{Building, BuildingId, BuildingSpec, CollectionConfig, Scenario};

    fn tiny_scenario() -> Scenario {
        let spec = BuildingSpec {
            path_length_m: 10,
            num_aps: 12,
            ..BuildingId::B1.spec()
        };
        let building = Building::generate(spec, 2);
        Scenario::generate(&building, &CollectionConfig::small(), 3)
    }

    fn spec() -> SweepSpec {
        SweepSpec::full_grid(vec![0.1, 0.3], vec![50.0, 100.0])
    }

    #[test]
    fn plan_enumerates_the_full_cross_product() {
        let s = spec();
        let members = vec!["KNN".to_string(), "DNN".to_string()];
        let datasets = vec![
            ("B1".to_string(), "OP3".to_string()),
            ("B1".to_string(), "BLU".to_string()),
        ];
        let plan = s.plan(&members, &datasets);
        // clean + 3 kinds × 2 variants × 3 targetings × 2 ε × 2 ø
        let per_pair = 1 + 3 * 2 * 3 * 2 * 2;
        assert_eq!(plan.len(), 2 * 2 * per_pair);
        for (i, cell) in plan.cells().iter().enumerate() {
            assert_eq!(cell.plan_index, i, "plan index must equal position");
        }
        // Member-major enumeration: the first block is member 0.
        assert!(plan.cells()[..per_pair * 2].iter().all(|c| c.member == 0));
        // Clean cell leads each (member, dataset) block.
        assert!(plan.cells()[0].attack.is_none());
        assert!(plan.cells()[per_pair].attack.is_none());
    }

    #[test]
    fn attack_cells_iterate_phi_innermost() {
        let s = SweepSpec::grid(vec![0.1, 0.2], vec![10.0, 20.0]);
        let cells = s.attack_cells();
        assert!(cells[0].is_none(), "clean first");
        let a = cells[1].as_ref().expect("attack cell");
        let b = cells[2].as_ref().expect("attack cell");
        assert_eq!((a.epsilon, a.phi), (0.1, 10.0));
        assert_eq!((b.epsilon, b.phi), (0.1, 20.0), "ø varies before ε");
    }

    #[test]
    fn run_produces_rows_in_plan_order_with_labels() {
        let scenario = tiny_scenario();
        let train = &scenario.train;
        let knn = KnnLocalizer::fit(
            train.x.clone(),
            train.labels.clone(),
            train.num_classes(),
            3,
        );
        let soft = knn.to_soft(0.05);
        let s = SweepSpec::grid(vec![0.2], vec![100.0]);
        let datasets: Vec<(String, String, &Dataset)> = scenario
            .test_per_device
            .iter()
            .map(|(d, t)| ("B1".to_string(), d.acronym.clone(), t))
            .collect();
        let table = run_sweep(&[("KNN", &knn)], Some(&soft), &datasets, &s);
        assert_eq!(table.len(), datasets.len() * (1 + 3));
        for (i, row) in table.rows().iter().enumerate() {
            assert_eq!(row.plan_index, i, "rows must be merged in plan order");
            assert_eq!(row.framework, "KNN");
            assert!(row.mean_error_m.is_finite() && row.mean_error_m >= 0.0);
            assert!(row.max_error_m >= row.mean_error_m - 1e-12);
        }
        let clean = &table.rows()[0];
        assert_eq!((clean.attack.as_str(), clean.epsilon), ("none", 0.0));
        assert_eq!(clean.variant, "");
        let attacked = &table.rows()[1];
        assert_eq!(attacked.attack, "FGSM");
        assert_eq!(attacked.variant, "manipulation");
        assert_eq!(attacked.targeting, "strongest");
        assert_eq!((attacked.epsilon, attacked.phi), (0.2, 100.0));
    }

    #[test]
    fn epsilon_unit_scales_crafting_but_not_reporting() {
        let cell = AttackCell {
            kind: AttackKind::Fgsm,
            variant: MitmVariant::Manipulation,
            targeting: Targeting::Strongest,
            epsilon: 0.4,
            phi: 50.0,
        };
        let mitm = cell.to_attack(0.25, 7);
        assert!((mitm.config.epsilon - 0.1).abs() < 1e-12);
        assert_eq!(mitm.config.seed, 7);
        assert_eq!(cell.epsilon, 0.4, "rows report paper units");
    }

    #[test]
    fn env_axis_wraps_the_clean_and_attack_block() {
        let s = SweepSpec::grid(vec![0.1], vec![50.0]).with_env_multipliers(vec![1.0, 2.0]);
        let members = vec!["KNN".to_string()];
        let datasets = vec![("B1".to_string(), "OP3".to_string())];
        let plan = s.plan(&members, &datasets);
        // 2 environments × (clean + 3 kinds × 1 × 1 × 1 ε × 1 ø)
        let per_env = 1 + 3;
        assert_eq!(plan.len(), 2 * per_env);
        // Environment wraps the block: a full clean+attack block per level,
        // so the clean baseline is swept across environments too.
        assert!(plan.cells()[..per_env].iter().all(|c| c.env == 0));
        assert!(plan.cells()[per_env..].iter().all(|c| c.env == 1));
        assert!(plan.cells()[0].attack.is_none());
        assert!(plan.cells()[per_env].attack.is_none());
    }

    #[test]
    fn env_sweep_evaluates_each_level_on_its_own_scenario() {
        use calloc_sim::{EnvLevel, ScenarioSpec};

        let bspec = BuildingSpec {
            path_length_m: 10,
            num_aps: 12,
            ..BuildingId::B1.spec()
        };
        let set = ScenarioSpec::single(bspec, 2, CollectionConfig::small(), 3)
            .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(3.0)])
            .generate();
        let baseline = set.scenario(0);
        let knn = KnnLocalizer::fit(
            baseline.train.x.clone(),
            baseline.train.labels.clone(),
            baseline.train.num_classes(),
            3,
        );
        let spec = SweepSpec::clean_only().with_env_multipliers(vec![1.0, 3.0]);
        let scenarios: Vec<&Scenario> = set.scenarios().iter().collect();
        let table = run_env_sweep(&[("KNN", &knn)], None, "B1", &scenarios, &spec);

        // 1 member × 2 devices × 2 environments × 1 clean cell.
        assert_eq!(table.len(), 4);
        for (i, row) in table.rows().iter().enumerate() {
            assert_eq!(row.plan_index, i, "rows merged in plan order");
            assert_eq!(row.attack, "none");
        }
        // Environment is inner to the dataset axis: per device, the
        // baseline row precedes the drift×3 row.
        let envs: Vec<f64> = table.rows().iter().map(|r| r.env_multiplier).collect();
        assert_eq!(envs, vec![1.0, 3.0, 1.0, 3.0]);
        // The CSV labels the swept axis.
        let csv = table.to_csv();
        assert!(csv.lines().next().unwrap().contains("env_mult"));
        // The harsher environment is a genuinely different dataset, and
        // (for a survey-matching KNN) a harder one on average.
        let base_mean = table.mean_where(|r| r.env_multiplier == 1.0).unwrap();
        let harsh_mean = table.mean_where(|r| r.env_multiplier == 3.0).unwrap();
        assert_ne!(base_mean.to_bits(), harsh_mean.to_bits());
        assert!(
            harsh_mean > base_mean * 0.8,
            "drift x3 should not make localization easier: {base_mean} -> {harsh_mean}"
        );
    }

    #[test]
    #[should_panic(expected = "env_multipliers must not be empty")]
    fn plan_rejects_an_empty_environment_axis() {
        let s = SweepSpec::grid(vec![0.1], vec![50.0]).with_env_multipliers(Vec::new());
        s.plan(
            &["KNN".to_string()],
            &[("B1".to_string(), "OP3".to_string())],
        );
    }

    #[test]
    #[should_panic(expected = "one scenario per environment multiplier")]
    fn env_sweep_rejects_scenario_count_mismatch() {
        let scenario = tiny_scenario();
        let knn = KnnLocalizer::fit(
            scenario.train.x.clone(),
            scenario.train.labels.clone(),
            scenario.train.num_classes(),
            3,
        );
        let spec = SweepSpec::clean_only().with_env_multipliers(vec![1.0, 2.0]);
        run_env_sweep(&[("KNN", &knn)], None, "B1", &[&scenario], &spec);
    }

    #[test]
    fn clean_only_spec_has_one_cell_per_pair() {
        let s = SweepSpec::clean_only();
        assert_eq!(s.attack_cells().len(), 1);
        let plan = s.plan(
            &["A".to_string(), "B".to_string()],
            &[("b".to_string(), "d".to_string())],
        );
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    fn toy_plan() -> SweepPlan {
        spec().plan(
            &["KNN".to_string(), "DNN".to_string()],
            &[("B1".to_string(), "OP3".to_string())],
        )
    }

    #[test]
    fn shard_ranges_partition_the_plan() {
        let plan = toy_plan();
        for n in [1, 2, 3, plan.len(), plan.len() + 5] {
            let ranges = plan.shard_ranges(n);
            assert_eq!(ranges.len(), n);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be contiguous");
                next = r.end;
            }
            assert_eq!(next, plan.len(), "ranges must cover the whole plan");
        }
    }

    #[test]
    fn shards_keep_plan_indices_and_identity() {
        let plan = toy_plan();
        let shard = plan.shard(3..7);
        assert_eq!(shard.len(), 4);
        assert_eq!(shard.full_len(), plan.len());
        assert_eq!(shard.fingerprint(), plan.fingerprint());
        assert_eq!(
            shard.cells()[0].plan_index,
            3,
            "shard cells keep their original plan indices"
        );
        assert_eq!(shard.cells(), &plan.cells()[3..7]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shard_rejects_an_out_of_range_window() {
        let plan = toy_plan();
        let _ = plan.shard(0..plan.len() + 1);
    }

    #[test]
    fn fingerprint_identifies_the_sweep() {
        let members = vec!["KNN".to_string()];
        let datasets = vec![("B1".to_string(), "OP3".to_string())];
        let a = spec().plan(&members, &datasets);
        let b = spec().with_seed(99).plan(&members, &datasets);
        assert_ne!(a.fingerprint(), b.fingerprint(), "seed is part of identity");
        assert_eq!(
            a.fingerprint(),
            spec().plan(&members, &datasets).fingerprint(),
            "same spec and labels must fingerprint identically"
        );
        let other_device = vec![("B1".to_string(), "BLU".to_string())];
        assert_ne!(
            a.fingerprint(),
            spec().plan(&members, &other_device).fingerprint(),
            "dataset labels are part of identity"
        );
    }

    /// A small but real single-member sweep over the tiny scenario,
    /// shared by the fault-tolerance equivalence tests.
    fn knn_fixture(scenario: &Scenario) -> (SweepPlan, Vec<&Dataset>, KnnLocalizer) {
        let names = vec!["KNN".to_string()];
        let labels: Vec<(String, String)> = scenario
            .test_per_device
            .iter()
            .map(|(d, _)| ("B1".to_string(), d.acronym.clone()))
            .collect();
        let data: Vec<&Dataset> = scenario.test_per_device.iter().map(|(_, t)| t).collect();
        let plan = SweepSpec::grid(vec![0.2], vec![100.0])
            .with_seed(5)
            .plan(&names, &labels);
        let knn = KnnLocalizer::fit(
            scenario.train.x.clone(),
            scenario.train.labels.clone(),
            scenario.train.num_classes(),
            3,
        );
        (plan, data, knn)
    }

    #[test]
    fn fault_tolerant_run_matches_plain_run_bit_for_bit() {
        let scenario = tiny_scenario();
        let (plan, data, knn) = knn_fixture(&scenario);
        let soft = knn.to_soft(0.05);
        let models: Vec<&dyn Localizer> = vec![&knn];
        let plain = plan.run(&models, Some(&soft), &data);
        let report = plan.run_fault_tolerant(&models, Some(&soft), &data, &ExecSpec::default());
        assert!(report.is_complete());
        assert_eq!(report.executed, plan.len());
        assert_eq!(report.recovered, 0);
        assert_eq!(report.table.rows(), plain.rows());
        assert_eq!(report.table.to_csv(), plain.to_csv());
    }

    #[test]
    fn injected_faults_recover_within_the_retry_budget() {
        par::silence_injected_panics();
        let scenario = tiny_scenario();
        let (plan, data, knn) = knn_fixture(&scenario);
        let soft = knn.to_soft(0.05);
        let models: Vec<&dyn Localizer> = vec![&knn];
        let plain = plan.run(&models, Some(&soft), &data);
        let exec = ExecSpec::default()
            .with_retries(2)
            .with_faults(crate::fault::FaultPlan::panic_on(&[0, 3], 2));
        let report = plan.run_fault_tolerant(&models, Some(&soft), &data, &exec);
        assert!(report.is_complete(), "{}", report.summary());
        assert_eq!(
            report.recovered, 2,
            "both faulted cells must retry to success"
        );
        assert_eq!(
            report.table.rows(),
            plain.rows(),
            "retried cells must replay to identical rows"
        );
    }

    #[test]
    fn exhausted_cells_are_quarantined_not_fatal() {
        par::silence_injected_panics();
        let scenario = tiny_scenario();
        let (plan, data, knn) = knn_fixture(&scenario);
        let soft = knn.to_soft(0.05);
        let models: Vec<&dyn Localizer> = vec![&knn];
        let exec = ExecSpec::default()
            .with_retries(1)
            .with_faults(crate::fault::FaultPlan::none().panicking(1, 5));
        let report = plan.run_fault_tolerant(&models, Some(&soft), &data, &exec);
        assert!(!report.is_complete());
        assert_eq!(report.errors.len(), 1);
        let err = &report.errors[0];
        assert_eq!((err.plan_index, err.attempts), (1, 2));
        assert!(err.payload.contains("injected fault"), "{}", err.payload);
        assert_eq!(report.table.len(), plan.len() - 1);
        assert!(
            report.table.rows().iter().all(|r| r.plan_index != 1),
            "the quarantined cell must not contribute a row"
        );
        assert!(
            report.summary().contains("1 quarantined"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn store_backed_run_resumes_only_missing_cells() {
        let scenario = tiny_scenario();
        let (plan, data, knn) = knn_fixture(&scenario);
        let soft = knn.to_soft(0.05);
        let models: Vec<&dyn Localizer> = vec![&knn];
        let plain = plan.run(&models, Some(&soft), &data);

        let mut store = plan.memory_store();
        let first = plan.shard(0..2);
        let report = first
            .run_with_store(
                &models,
                Some(&soft),
                &data,
                &ExecSpec::default(),
                &mut store,
            )
            .expect("shard run");
        assert_eq!(report.executed, 2);
        assert_eq!(store.len(), 2);

        let report = plan
            .run_with_store(
                &models,
                Some(&soft),
                &data,
                &ExecSpec::default(),
                &mut store,
            )
            .expect("resume run");
        assert_eq!(
            report.executed,
            plan.len() - 2,
            "only cells missing from the store may execute"
        );
        assert_eq!(report.table.rows(), plain.rows());
        assert_eq!(report.table.to_csv(), plain.to_csv());

        // A third pass finds nothing to do and restores everything.
        let report = plan
            .run_with_store(
                &models,
                Some(&soft),
                &data,
                &ExecSpec::default(),
                &mut store,
            )
            .expect("no-op run");
        assert_eq!(report.executed, 0);
        assert_eq!(report.table.rows(), plain.rows());
    }

    /// A gradient source that counts its `loss_and_input_grad` calls.
    struct CountingGrad<'a> {
        inner: &'a dyn DifferentiableModel,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl<'a> CountingGrad<'a> {
        fn new(inner: &'a dyn DifferentiableModel) -> Self {
            CountingGrad {
                inner,
                calls: Default::default(),
            }
        }

        fn calls(&self) -> usize {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl DifferentiableModel for CountingGrad<'_> {
        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }

        fn logits(&self, x: &Matrix) -> Matrix {
            self.inner.logits(x)
        }

        fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix) {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.loss_and_input_grad(x, targets)
        }
    }

    /// Three members (two transfer-only KNNs and a differentiable soft
    /// KNN) over both devices of the tiny scenario, every attack axis
    /// swept, plus the surrogate that crafts their transfer batches.
    struct SharedFixture {
        scenario: Scenario,
        knn3: KnnLocalizer,
        knn1: KnnLocalizer,
    }

    impl SharedFixture {
        fn new() -> Self {
            let scenario = tiny_scenario();
            let fit = |k| {
                KnnLocalizer::fit(
                    scenario.train.x.clone(),
                    scenario.train.labels.clone(),
                    scenario.train.num_classes(),
                    k,
                )
            };
            let (knn3, knn1) = (fit(3), fit(1));
            SharedFixture {
                scenario,
                knn3,
                knn1,
            }
        }

        fn plan(&self) -> SweepPlan {
            let labels: Vec<(String, String)> = self
                .scenario
                .test_per_device
                .iter()
                .map(|(d, _)| ("B1".to_string(), d.acronym.clone()))
                .collect();
            let names = ["KNN3", "KNN1", "SoftKNN"].map(String::from);
            SweepSpec::full_grid(vec![0.2], vec![100.0])
                .with_seed(3)
                .plan(&names, &labels)
        }

        fn data(&self) -> Vec<&Dataset> {
            self.scenario
                .test_per_device
                .iter()
                .map(|(_, t)| t)
                .collect()
        }
    }

    /// Each cell evaluated on its own through `evaluate_mitm`, with a
    /// transfer batch crafted just for it.
    fn per_cell_reference(
        plan: &SweepPlan,
        models: &[&dyn Localizer],
        surrogate: &dyn DifferentiableModel,
        data: &[&Dataset],
    ) -> Vec<(u64, u64)> {
        plan.cells()
            .iter()
            .map(|cell| {
                let data = data[cell.dataset];
                let mitm = cell
                    .attack
                    .as_ref()
                    .map(|a| a.to_attack(plan.spec().epsilon_unit, plan.spec().seed));
                let transfer = mitm.as_ref().map(|m| transfer_batch(surrogate, data, m));
                let eval =
                    evaluate_mitm(models[cell.member], data, mitm.as_ref(), transfer.as_ref());
                (eval.summary.mean.to_bits(), eval.summary.max.to_bits())
            })
            .collect()
    }

    fn row_bits(table: &ResultTable) -> Vec<(u64, u64)> {
        table
            .rows()
            .iter()
            .map(|r| (r.mean_error_m.to_bits(), r.max_error_m.to_bits()))
            .collect()
    }

    #[test]
    fn each_transfer_batch_is_crafted_once_per_group() {
        let fx = SharedFixture::new();
        let soft = fx.knn3.to_soft(0.1);
        let surrogate = fx.knn3.to_soft(0.05);
        let models: Vec<&dyn Localizer> = vec![&fx.knn3, &fx.knn1, &soft];
        let plan = fx.plan();
        let data = fx.data();

        // One craft's worth of gradient calls per (dataset slot, attack cell).
        let once = CountingGrad::new(&surrogate);
        let attacks = plan.spec().attack_cells();
        for &slot in &data {
            for attack in attacks.iter().flatten() {
                let mitm = attack.to_attack(plan.spec().epsilon_unit, plan.spec().seed);
                transfer_batch(&once, slot, &mitm);
            }
        }
        assert!(once.calls() > 0);

        let counting = CountingGrad::new(&surrogate);
        let table = plan.run(&models, Some(&counting), &data);
        assert_eq!(
            counting.calls(),
            once.calls(),
            "the surrogate must craft once per group, not once per member"
        );
        assert_eq!(
            row_bits(&table),
            per_cell_reference(&plan, &models, &surrogate, &data),
            "shared batches must reproduce the per-cell evaluation bit for bit"
        );
    }

    #[test]
    fn shared_batches_match_the_per_cell_reference_on_every_path() {
        let fx = SharedFixture::new();
        let soft = fx.knn3.to_soft(0.1);
        let surrogate = fx.knn3.to_soft(0.05);
        let models: Vec<&dyn Localizer> = vec![&fx.knn3, &fx.knn1, &soft];
        let plan = fx.plan();
        let data = fx.data();
        let reference = per_cell_reference(&plan, &models, &surrogate, &data);
        let exec = ExecSpec::default();

        let plain = plan.run(&models, Some(&surrogate), &data);
        assert_eq!(row_bits(&plain), reference, "run");

        // Two shards split mid-plan, so transfer groups straddle them.
        let mut merged = plan.memory_store();
        for range in plan.shard_ranges(2) {
            let mut store = plan.memory_store();
            plan.shard(range)
                .run_with_store(&models, Some(&surrogate), &data, &exec, &mut store)
                .expect("shard run");
            merged.merge(&store).expect("disjoint shards merge");
        }
        assert_eq!(
            row_bits(&plan.table_from_store(&merged)),
            reference,
            "two shards merged"
        );

        let mut store = plan.memory_store();
        plan.shard(0..plan.len() / 3)
            .run_with_store(&models, Some(&surrogate), &data, &exec, &mut store)
            .expect("first part");
        let resumed = plan
            .run_with_store(&models, Some(&surrogate), &data, &exec, &mut store)
            .expect("resume");
        assert_eq!(resumed.executed, plan.len() - plan.len() / 3);
        assert_eq!(row_bits(&resumed.table), reference, "resumed store");
        assert_eq!(resumed.table.to_csv(), plain.to_csv());
    }

    #[test]
    fn a_faulted_cell_never_disturbs_its_group_siblings() {
        par::silence_injected_panics();
        let fx = SharedFixture::new();
        let soft = fx.knn3.to_soft(0.1);
        let surrogate = fx.knn3.to_soft(0.05);
        let models: Vec<&dyn Localizer> = vec![&fx.knn3, &fx.knn1, &soft];
        let plan = fx.plan();
        let data = fx.data();
        let plain = plan.run(&models, Some(&surrogate), &data);

        // An attack cell of the middle member; its siblings are the cells
        // of the other members one member block away.
        let block = plan.len() / models.len();
        let victim = block + 5;
        assert!(plan.cells()[victim].attack.is_some());
        let siblings = [victim - block, victim + block];

        let retried = plan.run_fault_tolerant(
            &models,
            Some(&surrogate),
            &data,
            &ExecSpec::default()
                .with_retries(1)
                .with_faults(crate::fault::FaultPlan::none().panicking(victim, 1)),
        );
        assert!(retried.is_complete(), "{}", retried.summary());
        assert_eq!(retried.recovered, 1);
        assert_eq!(retried.table.rows(), plain.rows());

        let quarantined = plan.run_fault_tolerant(
            &models,
            Some(&surrogate),
            &data,
            &ExecSpec::default()
                .with_retries(1)
                .with_faults(crate::fault::FaultPlan::none().panicking(victim, 5)),
        );
        assert_eq!(quarantined.errors.len(), 1);
        assert_eq!(quarantined.errors[0].plan_index, victim);
        assert_eq!(quarantined.recovered, 0);
        let expected: Vec<&ResultRow> = plain
            .rows()
            .iter()
            .filter(|r| r.plan_index != victim)
            .collect();
        let got: Vec<&ResultRow> = quarantined.table.rows().iter().collect();
        assert_eq!(got, expected, "only the faulted cell may be missing");
        for sibling in siblings {
            assert_eq!(
                quarantined
                    .table
                    .rows()
                    .iter()
                    .find(|r| r.plan_index == sibling),
                Some(&plain.rows()[sibling]),
                "sibling {sibling} of the faulted cell changed"
            );
        }
    }

    #[test]
    fn store_backed_run_rejects_a_foreign_store() {
        let scenario = tiny_scenario();
        let (plan, data, knn) = knn_fixture(&scenario);
        let models: Vec<&dyn Localizer> = vec![&knn];
        let mut store = ResultStore::in_memory(plan.full_len(), plan.fingerprint() ^ 1);
        let err = plan
            .run_with_store(&models, None, &data, &ExecSpec::default(), &mut store)
            .unwrap_err();
        assert!(matches!(err, StoreError::PlanMismatch { .. }), "{err}");
    }
}
