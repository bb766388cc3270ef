//! Content-addressed trained-model cache: train each `(member config,
//! scenario cell)` pair once across figures and sweeps.
//!
//! Every figure binary and sweep retrains the framework suite from
//! scratch, even when two experiments share a scenario cell bit for bit
//! (same building realization, collection protocol and seed). Training is
//! deterministic — a fixed `(member config, collected data)` pair always
//! produces the same model, bit-identically, at every thread count — so a
//! trained model is a pure function of its inputs and can be cached by
//! *content address*:
//!
//! ```text
//! key = "<member name> v<codec> config=<canonical config>
//!        @ <collection identity>"
//! ```
//!
//! * The **member half** is built by `Suite`'s key helpers from the
//!   *resolved* training configuration, encoded with Rust's `{:?}` (which
//!   round-trips `f64` exactly, so distinct hyper-parameters never
//!   collide by formatting) plus a per-member codec version that must be
//!   bumped whenever training semantics or the state encoding change.
//! * The **cell half** is [`calloc_sim::collection_identity`]: the
//!   resolved `(building spec, salt, collection config, seed)` quadruple
//!   that scenario generation is a pure function of.
//!
//! Two cache users computing the same key are therefore guaranteed — not
//! assumed — to want the same model, and a warm cache restores it
//! bit-identically via the [`calloc_nn::state`] codec (raw `f64` bit
//! patterns; `tests/model_cache.rs` pins hits-indistinguishable-from-
//! fresh-trains end to end).
//!
//! The persistence discipline and the codec ([`calloc_tensor::codec`])
//! are [`crate::store`]'s: a fixed header (magic, format version,
//! key-scheme fingerprint), length-prefixed records,
//! [`write_atomic`](crate::write_atomic) checkpoints (the visible file is
//! always a complete, decodable cache), stale-temp sweeping, typed
//! [`StoreError`]s, and strict overlap-is-an-error
//! [`merge`](ModelCache::merge) semantics. Records are keyed by the FNV
//! fingerprint of their full key string *and* carry the key itself, so a
//! fingerprint collision is detected (and treated as corruption) instead
//! of silently serving the wrong model.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use calloc::CallocModel;
use calloc_baselines::{
    AdvLocLocalizer, AnvilLocalizer, DnnLocalizer, GpcLocalizer, KnnLocalizer, SangriaLocalizer,
    WiDeepLocalizer,
};
use calloc_nn::{state, Localizer, Sequential};
use calloc_tensor::codec::{Fnv, Reader, Writer};

use crate::store::{check_header, checkpoint_file, read_existing, StoreError};

/// Magic bytes leading every model-cache file.
const MAGIC: &[u8; 8] = b"CALLOCMC";
/// On-disk format version.
const VERSION: u32 = 1;
/// The key scheme the header fingerprint pins: bump whenever the key
/// construction rules change incompatibly (member key helpers,
/// [`calloc_sim::collection_identity`], or the state codecs), so stale
/// caches are rejected instead of silently serving models trained under
/// the old rules.
const KEY_SCHEME: &str = "calloc model cache key scheme v1";

/// FNV-1a fingerprint of a string: of [`KEY_SCHEME`] in the header (the
/// identity every cache file must carry), of the full key in each record.
fn fingerprint(s: &str) -> u64 {
    let mut fnv = Fnv::new();
    fnv.str(s);
    fnv.finish()
}

/// One cached model: the member name (the decode dispatch tag) plus the
/// opaque [`calloc_nn::state`] bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheEntry {
    name: String,
    bytes: Vec<u8>,
}

/// A key-addressed set of trained-model states, optionally mirrored to a
/// crash-safe cache file. See the [module docs](self) for the keying and
/// persistence contracts.
#[derive(Debug)]
pub struct ModelCache {
    path: Option<PathBuf>,
    entries: BTreeMap<String, CacheEntry>,
    hits: u64,
    misses: u64,
}

impl ModelCache {
    /// An empty in-memory cache. Checkpoints are no-ops.
    pub fn in_memory() -> Self {
        ModelCache {
            path: None,
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Opens (or creates) the cache file at `path`. An existing file is
    /// decoded and validated: a header carrying a different key-scheme
    /// fingerprint is a [`StoreError::PlanMismatch`] (the cache was
    /// written under incompatible keying rules); an undecodable file is
    /// [`StoreError::Corrupt`]. A missing file yields an empty cache
    /// (created on the first [`checkpoint`](Self::checkpoint)). Stale
    /// `*.<pid>.tmp` siblings left by a previously killed writer are
    /// swept away, exactly as [`crate::ResultStore::open`] does.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut cache = ModelCache {
            path: Some(path.to_path_buf()),
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
        };
        if let Some(bytes) = read_existing(path)? {
            cache.load(&bytes, path)?;
        }
        Ok(cache)
    }

    /// The cache file path (`None` for an in-memory cache).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of cached models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a key has a cached model (does not touch the counters).
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of [`get`](Self::get) calls that found a cached model.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of [`get`](Self::get) calls that found nothing — each one
    /// corresponds to a training the cache could not save.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The cached state bytes of a key, if any. Every call counts as one
    /// hit or one miss — `tests/model_cache.rs` asserts exactly-once
    /// training through these counters.
    pub fn get(&mut self, key: &str) -> Option<&[u8]> {
        match self.entries.get(key) {
            Some(entry) => {
                self.hits += 1;
                Some(&entry.bytes)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a trained model's state under `key`. Strict: a key can be
    /// recorded once, ever — a duplicate is a
    /// [`StoreError::DuplicateModel`], never a silent overwrite (two
    /// writers producing different bytes for one key would mean the
    /// keying contract is broken, and last-wins would hide it). The
    /// record is in-memory until the next
    /// [`checkpoint`](Self::checkpoint).
    pub fn insert(&mut self, key: &str, name: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        if self.entries.contains_key(key) {
            return Err(StoreError::DuplicateModel {
                key: key.to_string(),
            });
        }
        self.entries.insert(
            key.to_string(),
            CacheEntry {
                name: name.to_string(),
                bytes,
            },
        );
        Ok(())
    }

    /// Merges another cache's models into this one. The key sets must be
    /// disjoint — a shared key is a [`StoreError::DuplicateModel`] and
    /// nothing is merged (the check runs before any entry moves).
    pub fn merge(&mut self, other: &ModelCache) -> Result<(), StoreError> {
        if let Some(key) = other.entries.keys().find(|k| self.entries.contains_key(*k)) {
            return Err(StoreError::DuplicateModel { key: key.clone() });
        }
        for (key, entry) in &other.entries {
            self.entries.insert(key.clone(), entry.clone());
        }
        Ok(())
    }

    /// Serializes the complete cache and atomically replaces the cache
    /// file with it (see [`crate::write_atomic`]). A no-op for in-memory
    /// caches.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        match &self.path {
            Some(path) => checkpoint_file(path, &self.encode()),
            None => Ok(()),
        }
    }

    /// A cached model decoded through the per-member state codec, or
    /// `None` (counted as a miss) when the key is absent.
    ///
    /// # Errors
    ///
    /// Fails with [`StoreError::Corrupt`] if the cached entry was
    /// recorded under a different member name or its bytes do not decode
    /// — either means the file does not honor the keying contract.
    pub fn get_member(
        &mut self,
        key: &str,
        name: &str,
    ) -> Result<Option<Box<dyn Localizer>>, StoreError> {
        let path = self.corrupt_path();
        let Some(entry) = self.entries.get(key) else {
            self.misses += 1;
            return Ok(None);
        };
        if entry.name != name {
            return Err(StoreError::Corrupt {
                path,
                detail: format!(
                    "cache key {key:?} holds a {:?} model, caller wants {name:?}",
                    entry.name
                ),
            });
        }
        let model = decode_member(name, &entry.bytes).map_err(|detail| StoreError::Corrupt {
            path,
            detail: format!("cached {name} model under key {key:?}: {detail}"),
        })?;
        self.hits += 1;
        Ok(Some(model))
    }

    /// Records a trained member's state (via
    /// [`calloc_nn::Localizer::state`]). Returns `false` without
    /// recording anything when the model does not expose a state encoding
    /// — such members simply retrain every run.
    ///
    /// # Errors
    ///
    /// Fails with [`StoreError::DuplicateModel`] on a duplicate key.
    pub fn insert_member(
        &mut self,
        key: &str,
        name: &str,
        model: &dyn Localizer,
    ) -> Result<bool, StoreError> {
        match model.state() {
            Some(bytes) => {
                self.insert(key, name, bytes)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Fetch-or-train: the cached model for `key` if present, otherwise
    /// `train()`'s result, recorded under `key` (when the model exposes a
    /// state encoding) — the serial single-model analogue of
    /// `Suite::train_cached`.
    ///
    /// # Errors
    ///
    /// Propagates the decode and duplicate-key errors of
    /// [`get_member`](Self::get_member) and
    /// [`insert_member`](Self::insert_member).
    pub fn member(
        &mut self,
        key: &str,
        name: &str,
        train: impl FnOnce() -> Box<dyn Localizer>,
    ) -> Result<Box<dyn Localizer>, StoreError> {
        if let Some(model) = self.get_member(key, name)? {
            return Ok(model);
        }
        let model = train();
        self.insert_member(key, name, model.as_ref())?;
        Ok(model)
    }

    /// Typed fetch-or-train for CALLOC itself — the figure binaries that
    /// train the model directly (Figs. 4/5, ablations) need the concrete
    /// [`CallocModel`], not a boxed [`Localizer`].
    ///
    /// # Errors
    ///
    /// As [`member`](Self::member).
    pub fn calloc(
        &mut self,
        key: &str,
        train: impl FnOnce() -> CallocModel,
    ) -> Result<CallocModel, StoreError> {
        let path = self.corrupt_path();
        if let Some(entry) = self.entries.get(key) {
            let model =
                CallocModel::from_state(&entry.bytes).map_err(|detail| StoreError::Corrupt {
                    path,
                    detail: format!("cached CALLOC model under key {key:?}: {detail}"),
                })?;
            self.hits += 1;
            return Ok(model);
        }
        self.misses += 1;
        let model = train();
        self.insert(key, "CALLOC", model.state_bytes())?;
        Ok(model)
    }

    /// The cached transfer-attack surrogate network for `key`, or `None`
    /// (counted as a miss) when absent.
    ///
    /// # Errors
    ///
    /// Fails with [`StoreError::Corrupt`] when the cached bytes do not
    /// decode as a [`Sequential`].
    pub fn get_surrogate(&mut self, key: &str) -> Result<Option<Sequential>, StoreError> {
        let path = self.corrupt_path();
        let Some(entry) = self.entries.get(key) else {
            self.misses += 1;
            return Ok(None);
        };
        let mut r = Reader::new(&entry.bytes);
        let net = state::read_sequential(&mut r)
            .and_then(|net| r.finish().map(|()| net))
            .map_err(|detail| StoreError::Corrupt {
                path,
                detail: format!("cached surrogate under key {key:?}: {detail}"),
            })?;
        self.hits += 1;
        Ok(Some(net))
    }

    /// Records a trained surrogate network.
    ///
    /// # Errors
    ///
    /// Fails with [`StoreError::DuplicateModel`] on a duplicate key.
    pub fn insert_surrogate(&mut self, key: &str, net: &Sequential) -> Result<(), StoreError> {
        let mut w = Writer::new();
        state::write_sequential(&mut w, net);
        self.insert(key, "surrogate", w.into_bytes())
    }

    /// The path to blame in [`StoreError::Corrupt`] errors.
    fn corrupt_path(&self) -> PathBuf {
        self.path
            .clone()
            .unwrap_or_else(|| PathBuf::from("<in-memory model cache>"))
    }

    /// Encodes header + records (ascending key order, so the encoding is
    /// deterministic and a checkpoint after identical inserts is
    /// byte-identical).
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(24 + self.entries.len() * 256);
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u64(fingerprint(KEY_SCHEME));
        for (key, entry) in &self.entries {
            let mut record = Writer::with_capacity(32 + key.len() + entry.bytes.len());
            record.u64(fingerprint(key));
            record.str_u32(key);
            record.str_u32(&entry.name);
            record.bytes_u32(&entry.bytes);
            w.bytes_u32(&record.into_bytes());
        }
        w.into_bytes()
    }

    /// Decodes and validates a cache file image into `self.entries`.
    fn load(&mut self, bytes: &[u8], path: &Path) -> Result<(), StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let mut r = Reader::new(bytes);
        check_header(&mut r, MAGIC, VERSION).map_err(&corrupt)?;
        let scheme = r.u64().map_err(&corrupt)?;
        if scheme != fingerprint(KEY_SCHEME) {
            return Err(StoreError::PlanMismatch {
                path: Some(path.to_path_buf()),
                detail: format!(
                    "cache keyed under scheme {scheme:#018x}, this build uses {:#018x} \
                     ({KEY_SCHEME:?})",
                    fingerprint(KEY_SCHEME)
                ),
            });
        }
        while r.remaining() > 0 {
            let mut rec = Reader::new(r.bytes_u32().map_err(&corrupt)?);
            let fp = rec.u64().map_err(&corrupt)?;
            let key = rec.str_u32().map_err(&corrupt)?;
            if fp != fingerprint(&key) {
                return Err(corrupt(format!(
                    "record fingerprint {fp:#018x} does not match its key {key:?}"
                )));
            }
            let name = rec.str_u32().map_err(&corrupt)?;
            let model_bytes = rec.bytes_u32().map_err(&corrupt)?.to_vec();
            rec.finish()
                .map_err(|e| corrupt(format!("record for key {key:?} has {e}")))?;
            if self
                .entries
                .insert(
                    key.clone(),
                    CacheEntry {
                        name,
                        bytes: model_bytes,
                    },
                )
                .is_some()
            {
                return Err(corrupt(format!("duplicate key {key:?} in cache file")));
            }
        }
        Ok(())
    }
}

/// Decodes a cached member state through the codec its name dispatches
/// to — the inverse of [`calloc_nn::Localizer::state`] for every suite
/// member.
pub(crate) fn decode_member(name: &str, bytes: &[u8]) -> Result<Box<dyn Localizer>, String> {
    Ok(match name {
        // NC is CALLOC trained without the curriculum: same architecture,
        // same codec.
        "CALLOC" | "NC" => Box::new(CallocModel::from_state(bytes)?),
        "AdvLoc" => Box::new(AdvLocLocalizer::from_state(bytes)?),
        "SANGRIA" => Box::new(SangriaLocalizer::from_state(bytes)?),
        "ANVIL" => Box::new(AnvilLocalizer::from_state(bytes)?),
        "WiDeep" => Box::new(WiDeepLocalizer::from_state(bytes)?),
        "KNN" => Box::new(KnnLocalizer::from_state(bytes)?),
        "GPC" => Box::new(GpcLocalizer::from_state(bytes)?),
        "DNN" => Box::new(DnnLocalizer::from_state(bytes)?),
        other => return Err(format!("unknown member name {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("calloc_cache_{}_{name}.bin", std::process::id()))
    }

    #[test]
    fn roundtrips_entries_exactly_through_disk() {
        let path = tmp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let mut cache = ModelCache::open(&path).expect("open fresh");
        let bytes = vec![1u8, 2, 3, 255, 0, 42];
        cache
            .insert("KNN v1 k=3 @ cell A", "KNN", bytes.clone())
            .unwrap();
        cache.insert("KNN v1 k=3 @ cell B", "KNN", vec![]).unwrap();
        cache.checkpoint().expect("checkpoint");

        let mut loaded = ModelCache::open(&path).expect("reopen");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get("KNN v1 k=3 @ cell A"), Some(bytes.as_slice()));
        assert_eq!(loaded.get("KNN v1 k=3 @ cell B"), Some(&[] as &[u8]));
        assert_eq!(loaded.get("KNN v1 k=3 @ cell C"), None);
        assert_eq!((loaded.hits(), loaded.misses()), (2, 1));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_opens_empty_and_in_memory_checkpoint_is_noop() {
        let path = tmp_path("missing");
        let _ = fs::remove_file(&path);
        let cache = ModelCache::open(&path).expect("open missing");
        assert!(cache.is_empty());
        assert!(!path.exists(), "open must not create the file eagerly");

        let mut mem = ModelCache::in_memory();
        mem.insert("k", "KNN", vec![1]).unwrap();
        mem.checkpoint().expect("no-op checkpoint");
        assert!(mem.path().is_none());
    }

    #[test]
    fn duplicate_insert_and_overlapping_merge_are_errors() {
        let mut a = ModelCache::in_memory();
        a.insert("k1", "KNN", vec![1]).unwrap();
        let err = a.insert("k1", "KNN", vec![2]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateModel { .. }), "{err}");
        assert_eq!(a.get("k1"), Some(&[1u8] as &[u8]), "no last-wins");

        let mut b = ModelCache::in_memory();
        b.insert("k1", "KNN", vec![9]).unwrap();
        b.insert("k2", "KNN", vec![3]).unwrap();
        let err = a.merge(&b).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateModel { .. }), "{err}");
        assert_eq!(a.len(), 1, "a failed merge must not partially apply");

        let mut c = ModelCache::in_memory();
        c.insert("k2", "KNN", vec![3]).unwrap();
        a.merge(&c).expect("disjoint merge");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn open_rejects_garbage_truncation_and_tampered_keys() {
        let path = tmp_path("corrupt");
        fs::write(&path, b"not a cache").unwrap();
        let err = ModelCache::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");

        let _ = fs::remove_file(&path);
        let mut cache = ModelCache::open(&path).expect("open fresh");
        cache.insert("some key", "KNN", vec![7; 40]).unwrap();
        cache.checkpoint().unwrap();
        let good = fs::read(&path).unwrap();

        let mut truncated = good.clone();
        truncated.truncate(good.len() - 5);
        fs::write(&path, &truncated).unwrap();
        let err = ModelCache::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");

        // Flip a byte inside the key: the record fingerprint no longer
        // matches, so the tampering is detected.
        let mut tampered = good.clone();
        let key_pos = good
            .windows(8)
            .position(|w| w == b"some key")
            .expect("key bytes present");
        tampered[key_pos] ^= 0x20;
        fs::write(&path, &tampered).unwrap();
        let err = ModelCache::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_a_different_key_scheme() {
        let path = tmp_path("scheme");
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u64(0xDEAD_BEEF);
        fs::write(&path, w.into_bytes()).unwrap();
        let err = ModelCache::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::PlanMismatch { .. }), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn open_sweeps_stale_temps_from_dead_writers() {
        let path = tmp_path("stale");
        let _ = fs::remove_file(&path);
        let stale = path.with_file_name(format!(
            "{}.1.tmp",
            path.file_name().unwrap().to_str().unwrap()
        ));
        fs::write(&stale, b"half-written checkpoint").unwrap();
        let cache = ModelCache::open(&path).expect("open");
        assert!(!stale.exists(), "stale other-pid temp must be swept");
        assert!(cache.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn member_name_mismatch_is_corrupt() {
        let mut cache = ModelCache::in_memory();
        cache.insert("k", "KNN", vec![1]).unwrap();
        let Err(err) = cache.get_member("k", "GPC") else {
            panic!("name mismatch must error");
        };
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn unknown_member_name_is_an_error() {
        assert!(decode_member("Mystery", &[]).is_err());
    }
}
