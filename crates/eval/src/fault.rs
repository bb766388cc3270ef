//! Fault-tolerant execution policy and reporting: retry budgets,
//! checkpoint cadence, deterministic fault injection, and the run
//! summary that surfaces quarantined cells.
//!
//! The sweep engine's failure semantics (see [`crate::sweep`]) are
//! configured by an [`ExecSpec`] and reported through a [`RunReport`].
//! Fault injection is **explicit and deterministic**: a [`FaultPlan`]
//! (shared with the serving engine, in [`calloc_tensor::par`]) names
//! exactly which plan indices panic on which attempts — never
//! ambient randomness — so the quarantine/retry/resume machinery is
//! itself testable under the bit-identical determinism contract.

use std::fmt;

use calloc_tensor::par::FaultPlan;

use crate::report::ResultTable;

/// Execution policy for a fault-tolerant sweep run. The default is
/// maximally boring — no retries, no injected faults, checkpoint every
/// 64 cells — so plain runs behave exactly like [`crate::SweepPlan::run`]
/// plus crash-safety.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecSpec {
    /// How many times a panicking cell is re-attempted before it is
    /// quarantined. `0` means a single attempt, no retries. Retries are
    /// deterministic: the cell re-runs with identical inputs and seed,
    /// so a successful retry produces the exact row a clean run would.
    pub retries: usize,
    /// Checkpoint the result store after this many newly finished cells
    /// (plus once at the end of every run). `0` disables mid-run
    /// checkpoints entirely: the store is written exactly once, at run
    /// finish, so the file jumps from its previous complete checkpoint
    /// straight to the full results in one atomic rename (and a kill
    /// mid-run loses every row of that run — the trade for minimum I/O).
    /// See [`checkpoint_due`] for the decision rule. Irrelevant for
    /// in-memory stores.
    pub checkpoint_every: usize,
    /// Deterministic fault-injection schedule keyed by plan index (empty
    /// in production). A cell whose failing attempts exceed the retry
    /// budget is quarantined as a [`CellError`].
    pub faults: FaultPlan,
}

impl Default for ExecSpec {
    fn default() -> Self {
        ExecSpec {
            retries: 0,
            checkpoint_every: 64,
            faults: FaultPlan::none(),
        }
    }
}

impl ExecSpec {
    /// Builder: set the retry budget.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Builder: set the checkpoint cadence (`0` = only at run end).
    pub fn with_checkpoint_every(mut self, cells: usize) -> Self {
        self.checkpoint_every = cells;
        self
    }

    /// Builder: install a fault-injection schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Total attempts a cell may consume: one initial try plus
    /// [`retries`](Self::retries).
    pub fn max_attempts(&self) -> usize {
        self.retries + 1
    }
}

/// The mid-run checkpoint decision rule: whether a checkpoint is due
/// after `since_checkpoint` cells have finished since the last one, under
/// an [`ExecSpec::checkpoint_every`] cadence of `cadence`.
///
/// This pins the `cadence == 0` contract: zero never makes a mid-run
/// checkpoint due — not even after thousands of cells — so a cadence-0
/// run writes its store exactly once, at run finish. For a positive
/// cadence the checkpoint fires on the `cadence`-th newly finished cell
/// and the counter resets.
pub fn checkpoint_due(cadence: usize, since_checkpoint: usize) -> bool {
    cadence > 0 && since_checkpoint >= cadence
}

/// A cell that panicked on every attempt and was quarantined instead of
/// killing the sweep. The cell's row is absent from the run's table and
/// store, so a later resume re-executes exactly these cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Plan index of the poisoned cell.
    pub plan_index: usize,
    /// Attempts consumed (always the run's [`ExecSpec::max_attempts`]).
    pub attempts: usize,
    /// The panic payload's message, as captured by the quarantine
    /// boundary.
    pub payload: String,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} failed after {} attempt(s): {}",
            self.plan_index, self.attempts, self.payload
        )
    }
}

/// Outcome of a fault-tolerant sweep run: the merged result table plus
/// an explicit account of what executed, what recovered after retries,
/// and what was quarantined. Failures are surfaced here — never
/// silently dropped.
#[derive(Debug)]
pub struct RunReport {
    /// Rows of every finished cell, merged in ascending plan index. For
    /// store-backed runs this includes rows restored from earlier
    /// (crashed or sharded) runs, not just this run's.
    pub table: ResultTable,
    /// Quarantined cells, ascending by plan index. Empty on a clean run.
    pub errors: Vec<CellError>,
    /// Cells actually executed by this run (missing from the store at
    /// entry), including ones that ultimately failed.
    pub executed: usize,
    /// Cells that panicked at least once but succeeded within the retry
    /// budget.
    pub recovered: usize,
}

impl RunReport {
    /// Whether every cell of the plan (shard) now has a row.
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }

    /// One-line human-readable account of the run, quarantined plan
    /// indices included.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} rows, {} cells executed, {} recovered after retry",
            self.table.len(),
            self.executed,
            self.recovered
        );
        if self.errors.is_empty() {
            s.push_str(", no failures");
        } else {
            let indices: Vec<String> = self
                .errors
                .iter()
                .map(|e| e.plan_index.to_string())
                .collect();
            s.push_str(&format!(
                ", {} quarantined (plan indices {})",
                self.errors.len(),
                indices.join(", ")
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_schedules_leading_attempts() {
        let plan = FaultPlan::none().panicking(3, 2);
        assert!(plan.should_panic(3, 0));
        assert!(plan.should_panic(3, 1));
        assert!(!plan.should_panic(3, 2));
        assert!(!plan.should_panic(4, 0));
        assert!(FaultPlan::none().is_empty());
        // Zero failing attempts is a no-op, not an entry.
        assert!(FaultPlan::none().panicking(1, 0).is_empty());
    }

    #[test]
    fn panic_on_covers_every_listed_index() {
        let plan = FaultPlan::panic_on(&[1, 4], 1);
        assert!(plan.should_panic(1, 0));
        assert!(plan.should_panic(4, 0));
        assert!(!plan.should_panic(1, 1));
        assert!(!plan.should_panic(2, 0));
    }

    #[test]
    fn maybe_panic_fires_with_recognizable_payload() {
        let plan = FaultPlan::none().panicking(7, 1);
        let err = calloc_tensor::par::caught(|| plan.maybe_panic(7, 0)).unwrap_err();
        assert!(err.message().contains("injected fault"), "{err}");
        assert!(err.message().contains("id 7, attempt 0"), "{err}");
        calloc_tensor::par::caught(|| plan.maybe_panic(7, 1)).expect("past the schedule");
    }

    #[test]
    fn exec_spec_defaults_are_inert() {
        let spec = ExecSpec::default();
        assert_eq!(spec.retries, 0);
        assert_eq!(spec.max_attempts(), 1);
        assert!(spec.faults.is_empty());
        let spec = spec.with_retries(2).with_checkpoint_every(5);
        assert_eq!(spec.max_attempts(), 3);
        assert_eq!(spec.checkpoint_every, 5);
    }

    #[test]
    fn cadence_zero_never_makes_a_mid_run_checkpoint_due() {
        for since in [0usize, 1, 2, 63, 64, 65, 10_000, usize::MAX] {
            assert!(!checkpoint_due(0, since), "since_checkpoint = {since}");
        }
    }

    #[test]
    fn positive_cadence_fires_on_the_cadence_boundary() {
        assert!(!checkpoint_due(64, 0));
        assert!(!checkpoint_due(64, 63));
        assert!(checkpoint_due(64, 64));
        assert!(checkpoint_due(64, 65), "late counters still fire");
        assert!(checkpoint_due(1, 1), "cadence 1 checkpoints every cell");
    }

    #[test]
    fn run_report_summary_names_quarantined_cells() {
        let report = RunReport {
            table: ResultTable::new(),
            errors: vec![CellError {
                plan_index: 9,
                attempts: 2,
                payload: "injected fault: id 9, attempt 1".into(),
            }],
            executed: 4,
            recovered: 1,
        };
        assert!(!report.is_complete());
        let summary = report.summary();
        assert!(summary.contains("1 quarantined"), "{summary}");
        assert!(summary.contains("9"), "{summary}");

        let clean = RunReport {
            table: ResultTable::new(),
            errors: vec![],
            executed: 0,
            recovered: 0,
        };
        assert!(clean.is_complete());
        assert!(clean.summary().contains("no failures"));
    }
}
