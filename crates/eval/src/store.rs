//! Compact binary result store: the crash-safe persistence layer of the
//! fault-tolerant sweep engine.
//!
//! A [`ResultStore`] holds finished sweep rows **keyed by plan index** —
//! the same merge key as the engine's determinism contract (see
//! [`crate::sweep`]) — and optionally mirrors them to a file:
//!
//! * **Format.** A fixed header (magic, format version, the plan's total
//!   cell count and its [fingerprint](crate::SweepPlan::fingerprint)),
//!   followed by one length-prefixed binary record per finished cell.
//!   Floats are stored as raw `f64` bit patterns, so a disk round trip is
//!   exact and a resumed sweep's CSV stays byte-identical to a clean
//!   one-shot run.
//! * **Checkpoint cadence.** Records accumulate append-only in memory;
//!   [`ResultStore::checkpoint`] serializes the complete record set to a
//!   sibling temp file and atomically renames it over the store path
//!   (see [`write_atomic`]). The visible file is therefore *always* a
//!   complete, decodable checkpoint — a kill mid-run loses at most the
//!   records since the last checkpoint, never the file.
//! * **Merge semantics.** Records are replayed in ascending plan index
//!   (the backing map is ordered), so a table assembled from a store —
//!   or from several shard stores merged with [`ResultStore::merge`] —
//!   is bit-identical to the one-shot run. A plan index present on both
//!   sides of a merge (or inserted twice) is an **error**
//!   ([`StoreError::DuplicateCell`]), never a silent last-wins: two
//!   shards that executed the same cell indicate a mis-split sweep, and
//!   the rows could disagree.
//! * **Identity.** The header pins the parent plan's shape: opening a
//!   store whose recorded cell count or fingerprint disagrees with the
//!   plan being resumed fails with [`StoreError::PlanMismatch`] instead
//!   of silently mixing results from different sweeps. Shards of one
//!   plan share both values, so any shard (or the full plan) can open
//!   any of the sweep's stores.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use calloc_tensor::codec::{Reader, Writer};

use crate::report::ResultRow;

/// Magic bytes leading every store file.
const MAGIC: &[u8; 8] = b"CALLOCRS";
/// On-disk format version.
const VERSION: u32 = 1;

/// Typed I/O and integrity errors of the result-store layer (also used by
/// the crash-safe writers such as [`crate::ResultTable::write_csv`] and
/// the bench binaries).
/// Every file-system variant carries the offending path, so a failure
/// three hours into a sweep names the file, not just the errno.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying file-system operation failed.
    Io {
        /// The file the operation was acting on.
        path: PathBuf,
        /// The error reported by the operating system.
        source: std::io::Error,
    },
    /// The store file exists but does not decode as a complete checkpoint.
    Corrupt {
        /// The file that failed to decode.
        path: PathBuf,
        /// What the decoder tripped over.
        detail: String,
    },
    /// The store belongs to a different sweep than the plan resuming it.
    PlanMismatch {
        /// The store file (`None` for an in-memory store).
        path: Option<PathBuf>,
        /// How the identities disagree.
        detail: String,
    },
    /// A plan index was recorded twice — overlapping shards or a
    /// duplicated insert; merging is strict, never last-wins.
    DuplicateCell {
        /// The doubly-recorded plan index.
        plan_index: usize,
    },
    /// A model-cache key was recorded twice — a duplicated insert or
    /// overlapping merge sides (see [`crate::cache::ModelCache`]);
    /// caching is strict, never last-wins.
    DuplicateModel {
        /// The doubly-recorded cache key.
        key: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt result store {}: {detail}", path.display())
            }
            StoreError::PlanMismatch { path, detail } => match path {
                Some(p) => write!(
                    f,
                    "store {} is for a different sweep: {detail}",
                    p.display()
                ),
                None => write!(f, "in-memory store is for a different sweep: {detail}"),
            },
            StoreError::DuplicateCell { plan_index } => {
                write!(
                    f,
                    "plan index {plan_index} recorded twice (overlapping shards?)"
                )
            }
            StoreError::DuplicateModel { key } => {
                write!(
                    f,
                    "model cache key {key:?} recorded twice (overlapping merge?)"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Writes `bytes` to `path` crash-safely: the content goes to a sibling
/// temp file first and is atomically renamed over the destination, so a
/// kill mid-write can never leave a truncated file that looks like
/// results — the destination either keeps its old content or gains the
/// complete new content.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = sibling_tmp(path);
    fs::write(&tmp, bytes).map_err(|source| StoreError::Io {
        path: tmp.clone(),
        source,
    })?;
    fs::rename(&tmp, path).map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// The sibling temp path `write_atomic` stages through: the destination
/// file name extended with `.<pid>.tmp`, in the same directory (renames
/// are only atomic within one file system).
fn sibling_tmp(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Sweeps stale temps beside `path` (see [`sweep_stale_temps`]), then
/// reads the file; `None` when it does not exist yet. The shared first
/// step of [`ResultStore::open`] and [`crate::ModelCache::open`].
pub(crate) fn read_existing(path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
    sweep_stale_temps(path);
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(source) => Err(StoreError::Io {
            path: path.to_path_buf(),
            source,
        }),
    }
}

/// Sweeps stale temps beside `path`, then [`write_atomic`]s `bytes` over
/// it: one checkpoint of a store or cache file.
pub(crate) fn checkpoint_file(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    sweep_stale_temps(path);
    write_atomic(path, bytes)
}

/// Removes leftover `write_atomic` temp files for `path`: siblings named
/// `<filename>.<pid>.tmp` whose pid is not ours. A process killed between
/// temp creation and rename leaves its temp behind forever (the rename
/// never runs), so the next owner of the store path sweeps them on
/// [`ResultStore::open`] and [`ResultStore::checkpoint`]. Only temps of
/// *other* pids are touched — a store path has a single owning process at
/// a time (shards write disjoint files), so those temps are necessarily
/// stale. Best-effort: removal errors are ignored (the sweep must never
/// fail an open), and the count of removed files is returned for tests.
fn sweep_stale_temps(path: &Path) -> usize {
    let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
        return 0;
    };
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let Ok(entries) = fs::read_dir(&dir) else {
        return 0;
    };
    let prefix = format!("{file_name}.");
    let own = format!("{file_name}.{}.tmp", std::process::id());
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(middle) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".tmp"))
        else {
            continue;
        };
        let is_pid = !middle.is_empty() && middle.bytes().all(|b| b.is_ascii_digit());
        if is_pid && name != own && fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// A plan-index-keyed set of finished sweep rows, optionally mirrored to
/// a crash-safe store file. See the [module docs](self) for the format,
/// checkpoint and merge contracts.
#[derive(Debug)]
pub struct ResultStore {
    path: Option<PathBuf>,
    plan_cells: usize,
    fingerprint: u64,
    rows: BTreeMap<usize, ResultRow>,
}

impl ResultStore {
    /// An empty in-memory store for the given plan identity (total cell
    /// count and fingerprint — both from the *unsharded* plan; see
    /// [`crate::SweepPlan::full_len`]). Checkpoints are no-ops.
    pub fn in_memory(plan_cells: usize, fingerprint: u64) -> Self {
        ResultStore {
            path: None,
            plan_cells,
            fingerprint,
            rows: BTreeMap::new(),
        }
    }

    /// Opens (or creates) the store file at `path` for the given plan
    /// identity. An existing file is decoded and validated: a header
    /// disagreeing with `plan_cells`/`fingerprint` is a
    /// [`StoreError::PlanMismatch`]; an undecodable file is
    /// [`StoreError::Corrupt`]. A missing file yields an empty store
    /// (created on the first [`checkpoint`](Self::checkpoint)). Stale
    /// `<file>.<pid>.tmp` siblings left by a previously killed writer of
    /// another pid are swept away.
    pub fn open(path: &Path, plan_cells: usize, fingerprint: u64) -> Result<Self, StoreError> {
        let mut store = ResultStore {
            path: Some(path.to_path_buf()),
            plan_cells,
            fingerprint,
            rows: BTreeMap::new(),
        };
        if let Some(bytes) = read_existing(path)? {
            store.load(&bytes, path)?;
        }
        Ok(store)
    }

    /// The store file path (`None` for an in-memory store).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Total cell count of the plan this store belongs to.
    pub fn plan_cells(&self) -> usize {
        self.plan_cells
    }

    /// Fingerprint of the plan this store belongs to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether a plan index has a recorded row.
    pub fn contains(&self, plan_index: usize) -> bool {
        self.rows.contains_key(&plan_index)
    }

    /// The recorded row of a plan index, if any.
    pub fn get(&self, plan_index: usize) -> Option<&ResultRow> {
        self.rows.get(&plan_index)
    }

    /// Iterates the recorded rows in ascending plan index — the merge
    /// order of the determinism contract.
    pub fn rows(&self) -> impl Iterator<Item = &ResultRow> {
        self.rows.values()
    }

    /// Validates that this store belongs to the given plan identity.
    pub fn check_plan(&self, plan_cells: usize, fingerprint: u64) -> Result<(), StoreError> {
        if self.plan_cells != plan_cells || self.fingerprint != fingerprint {
            return Err(StoreError::PlanMismatch {
                path: self.path.clone(),
                detail: format!(
                    "store is for {} cells / fingerprint {:#018x}, \
                     plan has {} cells / fingerprint {:#018x}",
                    self.plan_cells, self.fingerprint, plan_cells, fingerprint
                ),
            });
        }
        Ok(())
    }

    /// Records a finished row. The row's plan index must lie inside the
    /// plan and must not have been recorded before (strict, never
    /// last-wins). The record is in-memory until the next
    /// [`checkpoint`](Self::checkpoint).
    pub fn insert(&mut self, row: ResultRow) -> Result<(), StoreError> {
        if row.plan_index >= self.plan_cells {
            return Err(StoreError::PlanMismatch {
                path: self.path.clone(),
                detail: format!(
                    "plan index {} out of range for a {}-cell plan",
                    row.plan_index, self.plan_cells
                ),
            });
        }
        if self.rows.contains_key(&row.plan_index) {
            return Err(StoreError::DuplicateCell {
                plan_index: row.plan_index,
            });
        }
        self.rows.insert(row.plan_index, row);
        Ok(())
    }

    /// Merges another store's rows into this one. Both stores must carry
    /// the same plan identity, and the record sets must be disjoint — a
    /// shared plan index is a [`StoreError::DuplicateCell`] and nothing
    /// is merged (the check runs before any row moves).
    pub fn merge(&mut self, other: &ResultStore) -> Result<(), StoreError> {
        other.check_plan(self.plan_cells, self.fingerprint)?;
        if let Some(&plan_index) = other.rows.keys().find(|k| self.rows.contains_key(k)) {
            return Err(StoreError::DuplicateCell { plan_index });
        }
        for row in other.rows.values() {
            self.rows.insert(row.plan_index, row.clone());
        }
        Ok(())
    }

    /// Serializes the complete record set and atomically replaces the
    /// store file with it (see [`write_atomic`]). A no-op for in-memory
    /// stores. The sweep engine calls this every
    /// [`crate::fault::ExecSpec::checkpoint_every`] finished cells and
    /// once at the end of a run.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        match &self.path {
            Some(path) => checkpoint_file(path, &self.encode()),
            None => Ok(()),
        }
    }

    /// Encodes header + records (ascending plan index).
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(24 + self.rows.len() * 96);
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.usize(self.plan_cells);
        w.u64(self.fingerprint);
        for row in self.rows.values() {
            w.bytes_u32(&encode_row(row));
        }
        w.into_bytes()
    }

    /// Decodes and validates a store file image into `self.rows`.
    fn load(&mut self, bytes: &[u8], path: &Path) -> Result<(), StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let mut r = Reader::new(bytes);
        check_header(&mut r, MAGIC, VERSION).map_err(&corrupt)?;
        let plan_cells = r.usize().map_err(&corrupt)?;
        let fingerprint = r.u64().map_err(&corrupt)?;
        if plan_cells != self.plan_cells || fingerprint != self.fingerprint {
            return Err(StoreError::PlanMismatch {
                path: Some(path.to_path_buf()),
                detail: format!(
                    "file is for {} cells / fingerprint {:#018x}, \
                     plan has {} cells / fingerprint {:#018x}",
                    plan_cells, fingerprint, self.plan_cells, self.fingerprint
                ),
            });
        }
        while r.remaining() > 0 {
            let record = r.bytes_u32().map_err(&corrupt)?;
            let row = decode_row(record).map_err(&corrupt)?;
            if row.plan_index >= self.plan_cells {
                return Err(corrupt(format!(
                    "record plan index {} out of range for a {}-cell plan",
                    row.plan_index, self.plan_cells
                )));
            }
            if self.rows.insert(row.plan_index, row).is_some() {
                return Err(corrupt("duplicate plan index in store file".to_string()));
            }
        }
        Ok(())
    }
}

/// Reads and checks the magic + format-version header that opens both
/// the store file and the model-cache file ([`crate::cache`]).
pub(crate) fn check_header(r: &mut Reader, magic: &[u8; 8], version: u32) -> Result<(), String> {
    let got = r.bytes(8)?;
    if got != magic {
        return Err(format!("bad magic {got:?}"));
    }
    let got = r.u32()?;
    if got != version {
        return Err(format!("format version {got}, this build reads {version}"));
    }
    Ok(())
}

/// Encodes one row in field order. Floats are raw bit patterns, so the
/// round trip is exact — a resumed sweep's CSV is byte-identical.
fn encode_row(row: &ResultRow) -> Vec<u8> {
    let mut w = Writer::with_capacity(96);
    w.usize(row.plan_index);
    w.str_u32(&row.framework);
    w.str_u32(&row.building);
    w.str_u32(&row.device);
    w.f64(row.env_multiplier);
    w.str_u32(&row.attack);
    w.str_u32(&row.variant);
    w.str_u32(&row.targeting);
    w.f64(row.epsilon);
    w.f64(row.phi);
    w.f64(row.mean_error_m);
    w.f64(row.max_error_m);
    w.into_bytes()
}

fn decode_row(record: &[u8]) -> Result<ResultRow, String> {
    let mut r = Reader::new(record);
    let row = ResultRow {
        plan_index: r.usize()?,
        framework: r.str_u32()?,
        building: r.str_u32()?,
        device: r.str_u32()?,
        env_multiplier: r.f64()?,
        attack: r.str_u32()?,
        variant: r.str_u32()?,
        targeting: r.str_u32()?,
        epsilon: r.f64()?,
        phi: r.f64()?,
        mean_error_m: r.f64()?,
        max_error_m: r.f64()?,
    };
    r.finish().map_err(|e| format!("record has {e}"))?;
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(plan_index: usize, mean: f64) -> ResultRow {
        ResultRow {
            plan_index,
            framework: "CALLOC".into(),
            building: "B1".into(),
            device: "OP3".into(),
            env_multiplier: 1.0,
            attack: "FGSM".into(),
            variant: "manipulation".into(),
            targeting: "strongest".into(),
            epsilon: 0.1,
            phi: 50.0,
            mean_error_m: mean,
            max_error_m: mean * 2.0,
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("calloc_store_{}_{name}.bin", std::process::id()))
    }

    #[test]
    fn roundtrips_rows_exactly_through_disk() {
        let path = tmp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let mut store = ResultStore::open(&path, 10, 0xABCD).expect("open fresh");
        // Awkward floats: negative zero and a subnormal must survive the
        // round trip bit for bit.
        let mut special = row(3, 1.5);
        special.mean_error_m = -0.0;
        special.max_error_m = f64::MIN_POSITIVE / 2.0;
        store.insert(special.clone()).unwrap();
        store.insert(row(1, 2.25)).unwrap();
        store.checkpoint().expect("checkpoint");

        let loaded = ResultStore::open(&path, 10, 0xABCD).expect("reopen");
        assert_eq!(loaded.len(), 2);
        let rows: Vec<&ResultRow> = loaded.rows().collect();
        assert_eq!(
            rows[0].plan_index, 1,
            "rows iterate in ascending plan index"
        );
        assert_eq!(rows[1], &special);
        assert_eq!(rows[1].mean_error_m.to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            rows[1].max_error_m.to_bits(),
            (f64::MIN_POSITIVE / 2.0).to_bits()
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_opens_empty() {
        let path = tmp_path("missing");
        let _ = fs::remove_file(&path);
        let store = ResultStore::open(&path, 4, 7).expect("open missing");
        assert!(store.is_empty());
        assert!(!path.exists(), "open must not create the file eagerly");
    }

    #[test]
    fn in_memory_checkpoint_is_a_noop() {
        let mut store = ResultStore::in_memory(4, 7);
        store.insert(row(0, 1.0)).unwrap();
        store.checkpoint().expect("no-op checkpoint");
        assert_eq!(store.len(), 1);
        assert!(store.path().is_none());
    }

    #[test]
    fn duplicate_insert_is_an_error() {
        let mut store = ResultStore::in_memory(4, 7);
        store.insert(row(2, 1.0)).unwrap();
        let err = store.insert(row(2, 9.0)).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateCell { plan_index: 2 }));
        // …and the original row survives (no last-wins).
        assert_eq!(store.get(2).unwrap().mean_error_m, 1.0);
    }

    #[test]
    fn out_of_range_insert_is_a_plan_mismatch() {
        let mut store = ResultStore::in_memory(4, 7);
        let err = store.insert(row(4, 1.0)).unwrap_err();
        assert!(matches!(err, StoreError::PlanMismatch { .. }), "{err}");
    }

    #[test]
    fn merging_empty_and_disjoint_stores_works() {
        let mut a = ResultStore::in_memory(10, 7);
        let empty = ResultStore::in_memory(10, 7);
        a.merge(&empty).expect("empty merge");
        assert!(a.is_empty());

        a.insert(row(0, 1.0)).unwrap();
        a.insert(row(5, 2.0)).unwrap();
        let mut b = ResultStore::in_memory(10, 7);
        b.insert(row(3, 3.0)).unwrap();
        a.merge(&b).expect("disjoint merge");
        let indices: Vec<usize> = a.rows().map(|r| r.plan_index).collect();
        assert_eq!(
            indices,
            vec![0, 3, 5],
            "merged rows in ascending plan index"
        );
    }

    #[test]
    fn overlapping_merge_is_an_error_and_merges_nothing() {
        let mut a = ResultStore::in_memory(10, 7);
        a.insert(row(1, 1.0)).unwrap();
        let mut b = ResultStore::in_memory(10, 7);
        b.insert(row(0, 5.0)).unwrap();
        b.insert(row(1, 9.0)).unwrap();
        let err = a.merge(&b).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateCell { plan_index: 1 }));
        assert_eq!(a.len(), 1, "a failed merge must not partially apply");
        assert_eq!(a.get(1).unwrap().mean_error_m, 1.0);
    }

    #[test]
    fn merge_rejects_a_different_plan() {
        let mut a = ResultStore::in_memory(10, 7);
        let b = ResultStore::in_memory(10, 8);
        assert!(matches!(
            a.merge(&b).unwrap_err(),
            StoreError::PlanMismatch { .. }
        ));
        let c = ResultStore::in_memory(11, 7);
        assert!(matches!(
            a.merge(&c).unwrap_err(),
            StoreError::PlanMismatch { .. }
        ));
    }

    #[test]
    fn open_rejects_a_different_plans_file() {
        let path = tmp_path("mismatch");
        let _ = fs::remove_file(&path);
        let mut store = ResultStore::open(&path, 10, 0xABCD).expect("open fresh");
        store.insert(row(0, 1.0)).unwrap();
        store.checkpoint().expect("checkpoint");
        let err = ResultStore::open(&path, 10, 0xDCBA).unwrap_err();
        assert!(matches!(err, StoreError::PlanMismatch { .. }), "{err}");
        let err = ResultStore::open(&path, 11, 0xABCD).unwrap_err();
        assert!(matches!(err, StoreError::PlanMismatch { .. }), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_garbage_and_truncation() {
        let path = tmp_path("corrupt");
        fs::write(&path, b"not a store").unwrap();
        let err = ResultStore::open(&path, 4, 7).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");

        // A valid store truncated mid-record must fail loudly, not load a
        // partial row (the atomic-rename discipline means this can only
        // happen through external corruption).
        let _ = fs::remove_file(&path);
        let mut store = ResultStore::open(&path, 4, 7).expect("open fresh");
        store.insert(row(0, 1.0)).unwrap();
        store.checkpoint().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap();
        let err = ResultStore::open(&path, 4, 7).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn write_atomic_replaces_content_and_cleans_temp() {
        let path = tmp_path("atomic");
        write_atomic(&path, b"first").expect("first write");
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer content").expect("second write");
        assert_eq!(fs::read(&path).unwrap(), b"second, longer content");
        assert!(
            !sibling_tmp(&path).exists(),
            "temp file must be renamed away"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn open_sweeps_stale_temps_from_dead_writers() {
        let path = tmp_path("stale_sweep");
        let _ = fs::remove_file(&path);
        // A writer killed between temp creation and rename leaves this
        // behind (pid 1 is never us).
        let stale = path.with_file_name(format!(
            "{}.1.tmp",
            path.file_name().unwrap().to_str().unwrap()
        ));
        fs::write(&stale, b"half-written checkpoint").unwrap();
        // Our own pid's temp and unrelated siblings must survive.
        let own = sibling_tmp(&path);
        fs::write(&own, b"in flight").unwrap();
        let unrelated = path.with_file_name(format!(
            "{}.notapid.tmp",
            path.file_name().unwrap().to_str().unwrap()
        ));
        fs::write(&unrelated, b"not ours").unwrap();

        let store = ResultStore::open(&path, 4, 7).expect("open");
        assert!(!stale.exists(), "stale other-pid temp must be swept");
        assert!(own.exists(), "own-pid temp must survive");
        assert!(unrelated.exists(), "non-pid-pattern sibling must survive");
        assert!(store.is_empty());

        // checkpoint() sweeps too.
        fs::write(&stale, b"left again").unwrap();
        let mut store = ResultStore::open(&path, 4, 7).expect("reopen");
        assert!(!stale.exists());
        fs::write(&stale, b"and again").unwrap();
        store.insert(row(0, 1.0)).unwrap();
        store.checkpoint().expect("checkpoint");
        assert!(!stale.exists(), "checkpoint must sweep stale temps");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&own);
        let _ = fs::remove_file(&unrelated);
    }

    #[test]
    fn oversized_length_fields_are_corrupt_not_wrapped() {
        // Header with plan_cells = u64::MAX: on every target this must
        // surface as a typed error (PlanMismatch after a checked decode,
        // Corrupt on 32-bit) — never wrap through `as usize`.
        let path = tmp_path("oversized");
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u64(u64::MAX);
        w.u64(7);
        fs::write(&path, w.into_bytes()).unwrap();
        let err = ResultStore::open(&path, 4, 7).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::PlanMismatch { .. } | StoreError::Corrupt { .. }
            ),
            "{err}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn write_atomic_reports_the_offending_path() {
        let path = Path::new("/nonexistent-dir-calloc/test.csv");
        let err = write_atomic(path, b"x").unwrap_err();
        let StoreError::Io { path: p, .. } = &err else {
            panic!("expected Io error, got {err}");
        };
        assert!(p.starts_with("/nonexistent-dir-calloc"), "{err}");
    }

    #[test]
    fn errors_render_with_context() {
        let err = StoreError::DuplicateCell { plan_index: 42 };
        assert!(err.to_string().contains("42"));
        let err = StoreError::PlanMismatch {
            path: None,
            detail: "x".into(),
        };
        assert!(err.to_string().contains("in-memory"));
    }
}
