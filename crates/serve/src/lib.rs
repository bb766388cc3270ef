//! Online localization serving for the CALLOC reproduction: a
//! long-lived TCP service answering RSS-fingerprint queries from the
//! trained members, built robustness-first.
//!
//! The crate is organized as three layers:
//!
//! * [`frame`] — the length-prefixed, FNV-1a-guarded wire codec whose
//!   decoding law mirrors the persistence layers: any corrupt input is
//!   a typed [`ServeError`], never a panic or a hang.
//! * [`registry`] + [`engine`] — named trained models (with optional
//!   cheaper degradation fallbacks) behind a bounded admission queue
//!   and a micro-batching dispatcher with deadlines, load shedding,
//!   and per-request panic quarantine.
//! * [`server`] — the `std::net::TcpListener` front end with per-
//!   session slow-client protection and a drain/health protocol.
//!
//! Determinism extends to serving: [`engine::replay`] re-runs a request
//! log at fixed batch boundaries and produces bit-identical response
//! bytes at every `CALLOC_THREADS`, warm or cold model cache.

pub mod boot;
pub mod engine;
pub mod frame;
pub mod registry;
pub mod server;

pub use engine::{replay, replay_frames, Engine, LogEntry, ServeConfig};
pub use frame::{
    decode_frame, encode_frame, read_frame, write_frame, FrameRead, HealthReport, Location,
    Request, Response, ServeError,
};
pub use registry::{Registry, ServeMember};
pub use server::{Client, ClientError, Server};
