//! Byte pins for the four binary formats: the result store, the model
//! cache, the serve frames and the model state.
//!
//! The per-format round-trip, truncation and bit-flip laws cannot see a
//! change made to a writer and its reader together — a string prefix
//! widened from u32 to u64 on both sides still round-trips. These tests
//! pin the exact encoding of fixed inputs instead: small encodings as
//! literal bytes (hex), model states as length plus an FNV-1a digest
//! computed by the few lines below. Files and frames written before a
//! codec refactor must still decode after it, so these literals only
//! change together with a format `VERSION` bump.

use calloc::{CallocConfig, CallocModel};
use calloc_eval::{ModelCache, ResultRow, ResultStore, Suite, SweepPlan};
use calloc_nn::{Dense, Layer, Sequential};
use calloc_repro::testkit::{pinned_building_spec, quick_profile, quick_sweep_spec};
use calloc_serve::{
    decode_frame, encode_frame, HealthReport, Location, Request, Response, ServeError,
};
use calloc_sim::{Building, CollectionConfig, Scenario};
use calloc_tensor::{Matrix, Rng};
use std::path::PathBuf;

/// Test-local FNV-1a, independent of every codec under test.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A pinned hex literal without the spaces that group it by field.
fn unspaced(pinned: &str) -> String {
    pinned.split_whitespace().collect()
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("calloc_pins_{}_{name}.bin", std::process::id()))
}

fn row(plan_index: usize, framework: &str, mean: f64, max: f64) -> ResultRow {
    ResultRow {
        plan_index,
        framework: framework.into(),
        building: "B1".into(),
        device: "OP3".into(),
        env_multiplier: 1.0,
        attack: "FGSM".into(),
        variant: "manipulation".into(),
        targeting: "strongest".into(),
        epsilon: 0.1,
        phi: 50.0,
        mean_error_m: mean,
        max_error_m: max,
    }
}

#[test]
fn result_store_file_bytes_are_pinned() {
    let path = tmp_path("store");
    let _ = std::fs::remove_file(&path);
    let mut store = ResultStore::open(&path, 4, 0x0123_4567_89ab_cdef).expect("open fresh");
    store
        .insert(row(2, "KNN", -0.0, f64::MIN_POSITIVE / 2.0))
        .unwrap();
    store.insert(row(0, "CALLOC", 1.5, 3.25)).unwrap();
    store.checkpoint().expect("checkpoint");
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(hex(&bytes), unspaced(STORE_HEX));
}

// The header (magic, version, plan cells, fingerprint), then one
// length-prefixed record per row in plan-index order, one field per word.
const STORE_HEX: &str = concat!(
    "43414c4c4f435253 01000000 0400000000000000 efcdab8967452301",
    " 6c000000 0000000000000000 06000000 43414c4c4f43 02000000 4231 03000000 4f5033",
    " 000000000000f03f 04000000 4647534d 0c000000 6d616e6970756c6174696f6e 09000000 7374726f6e67657374",
    " 9a9999999999b93f 0000000000004940 000000000000f83f 0000000000000a40",
    " 69000000 0200000000000000 03000000 4b4e4e 02000000 4231 03000000 4f5033",
    " 000000000000f03f 04000000 4647534d 0c000000 6d616e6970756c6174696f6e 09000000 7374726f6e67657374",
    " 9a9999999999b93f 0000000000004940 0000000000000080 0000000000000800",
);

/// A small network and a CALLOC model from fixed seeds, untrained.
fn pinned_models() -> (Sequential, CallocModel) {
    let mut rng = Rng::new(21);
    let net = Sequential::new(vec![
        Layer::Dense(Dense::he(4, 3, &mut rng)),
        Layer::Relu,
        Layer::Dropout { rate: 0.25 },
        Layer::GaussianNoise { std: 0.1 },
        Layer::Dense(Dense::xavier(3, 2, &mut rng)),
        Layer::Sigmoid,
        Layer::Tanh,
    ]);
    let memory_x = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 / 8.0 - 0.5);
    let positions = [(0.0, 0.0), (1.5, -2.0), (3.0, 4.25)];
    let calloc = CallocModel::new(memory_x, &positions, CallocConfig::fast(), &mut Rng::new(5));
    (net, calloc)
}

#[test]
fn model_state_bytes_are_pinned() {
    let (net, calloc) = pinned_models();
    let mut cache = ModelCache::in_memory();
    cache.insert_surrogate("net", &net).unwrap();
    let net_state = cache.get("net").unwrap().to_vec();
    let calloc_state = calloc.state_bytes();
    assert_eq!(
        (net_state.len(), digest(&net_state)),
        NET_STATE,
        "Sequential state"
    );
    assert_eq!(
        (calloc_state.len(), digest(&calloc_state)),
        CALLOC_STATE,
        "CALLOC state"
    );
}

const NET_STATE: (usize, u64) = (279, 9778375179322240181);
const CALLOC_STATE: (usize, u64) = (12262, 8418115766503268307);

#[test]
fn model_cache_file_bytes_are_pinned() {
    let (net, calloc) = pinned_models();
    let path = tmp_path("cache");
    let _ = std::fs::remove_file(&path);
    let mut cache = ModelCache::open(&path).expect("open fresh");
    cache.insert_surrogate("surrogate @ cell 7", &net).unwrap();
    cache
        .insert("CALLOC v1 @ cell 7", "CALLOC", calloc.state_bytes())
        .unwrap();
    cache.checkpoint().expect("checkpoint");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!((bytes.len(), digest(&bytes)), CACHE_FILE);
    // The header is small enough to pin literally: magic, version and
    // the key-scheme fingerprint.
    assert_eq!(hex(&bytes[..20]), unspaced(CACHE_HEADER_HEX));

    // The pinned file restores both models bit for bit.
    let mut reopened = ModelCache::open(&path).expect("reopen");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        reopened.get_surrogate("surrogate @ cell 7").unwrap(),
        Some(net)
    );
    let restored = reopened
        .calloc("CALLOC v1 @ cell 7", || unreachable!("cached"))
        .unwrap();
    assert_eq!(restored.state_bytes(), calloc.state_bytes());
}

const CACHE_FILE: (usize, u64) = (12660, 5296243556784906696);
const CACHE_HEADER_HEX: &str = "43414c4c4f434d43 01000000 33d83b48a346739e";

fn requests() -> Vec<Request> {
    vec![
        Request::Locate {
            model: "KNN".into(),
            deadline_ms: 250,
            fingerprint: vec![-0.0, -71.5, f64::MIN_POSITIVE / 4.0],
        },
        Request::Health,
        Request::Drain,
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Located(Location {
            rp_class: 17,
            x: 3.5,
            y: -1.25,
            degraded: true,
        }),
        Response::Error(ServeError::BadFrame {
            detail: "bad magic".into(),
        }),
        Response::Error(ServeError::BadMessage {
            detail: "tag".into(),
        }),
        Response::Error(ServeError::UnknownModel {
            model: "GPC".into(),
        }),
        Response::Error(ServeError::BadArity {
            model: "KNN".into(),
            expected: 16,
            got: 3,
        }),
        Response::Error(ServeError::DeadlineExceeded { deadline_ms: 9 }),
        Response::Error(ServeError::Overloaded { retry_after_ms: 5 }),
        Response::Error(ServeError::Draining),
        Response::Error(ServeError::Internal {
            detail: "injected fault".into(),
        }),
        Response::Health(HealthReport {
            admitted: 1,
            served: 2,
            shed: 3,
            quarantined: 4,
            deadline_expired: 5,
            degraded: 6,
            queue_depth: 7,
            queue_peak: 8,
            batches: 9,
            draining: true,
        }),
        Response::Drained { served: 300 },
    ]
}

#[test]
fn request_frames_are_pinned() {
    let frames: Vec<String> = requests()
        .iter()
        .map(|r| hex(&encode_frame(&r.encode())))
        .collect();
    assert_eq!(frames, REQUEST_FRAMES_HEX.map(unspaced));
    for request in requests() {
        let payload = decode_frame(&encode_frame(&request.encode())).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), request);
    }
}

// Every frame: magic, version, payload length, FNV-1a checksum, then the
// payload — a tag byte and its fields, grouped here one field per word.
const REQUEST_FRAMES_HEX: [&str; 3] = [
    concat!(
        "43414c4c4f435346 02000000 28000000 0c3fa06fd4e4d9c2 01 03000000 4b4e4e fa000000",
        " 03000000 0000000000000080 0000000000e051c0 0000000000000400",
    ),
    "43414c4c4f435346 02000000 01000000 45bb01864cbf63af 02",
    "43414c4c4f435346 02000000 01000000 92b901864cbe63af 03",
];

#[test]
fn response_frames_are_pinned() {
    let frames: Vec<String> = responses()
        .iter()
        .map(|r| hex(&encode_frame(&r.encode())))
        .collect();
    assert_eq!(frames, RESPONSE_FRAMES_HEX.map(unspaced));
    for response in responses() {
        let payload = decode_frame(&encode_frame(&response.encode())).unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), response);
    }
}

const RESPONSE_FRAMES_HEX: [&str; 11] = [
    "43414c4c4f435346 02000000 1a000000 32ecc913a9efcc3b 10 1100000000000000 0000000000000c40 000000000000f4bf 01",
    "43414c4c4f435346 02000000 0f000000 a6911381e92696df 11 01 09000000 626164206d61676963",
    "43414c4c4f435346 02000000 09000000 2f4a28633dce599a 11 02 03000000 746167",
    "43414c4c4f435346 02000000 09000000 469f33f959cd3055 11 03 03000000 475043",
    "43414c4c4f435346 02000000 11000000 7f20d85e96b19ffd 11 04 03000000 4b4e4e 10000000 03000000",
    "43414c4c4f435346 02000000 06000000 522ef69a2b26d8fe 11 05 09000000",
    "43414c4c4f435346 02000000 06000000 1b04881d881167cb 11 06 05000000",
    "43414c4c4f435346 02000000 02000000 a1bd16b507816508 11 07",
    "43414c4c4f435346 02000000 14000000 6ecb64e447bf7425 11 08 0e000000 696e6a6563746564206661756c74",
    concat!(
        "43414c4c4f435346 02000000 4a000000 4f9bd5927bec02e0 12",
        " 0100000000000000 0200000000000000 0300000000000000 0400000000000000 0500000000000000",
        " 0600000000000000 0700000000000000 0800000000000000 0900000000000000 01",
    ),
    "43414c4c4f435346 02000000 09000000 8911cf3589de80c8 13 2c01000000000000",
];

/// The quick plan of the golden tier, built from member names and
/// dataset labels alone (no training).
fn quick_plan() -> SweepPlan {
    let building = Building::generate(pinned_building_spec(), 5);
    let scenario = Scenario::generate(&building, &CollectionConfig::small(), 11);
    let members: Vec<String> = Suite::member_names(&scenario, &quick_profile())
        .into_iter()
        .map(String::from)
        .collect();
    let labels: Vec<(String, String)> = Suite::scenario_datasets(&scenario, "B1")
        .into_iter()
        .map(|(b, d, _)| (b, d))
        .collect();
    quick_sweep_spec().plan(&members, &labels)
}

#[test]
fn quick_plan_fingerprint_is_pinned() {
    let plan = quick_plan();
    assert_eq!(
        (plan.full_len(), plan.fingerprint()),
        (584, 18112621817580326473)
    );
}
