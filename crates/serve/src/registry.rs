//! The served-model registry: named, trained localizers plus the
//! geometry needed to turn a predicted reference-point class back into
//! meters.
//!
//! A [`ServeMember`] optionally carries a **fallback** model — a cheaper
//! member (e.g. KNN next to CALLOC) that the engine switches to while
//! the admission queue is saturated, so sustained overload degrades
//! answer quality gracefully instead of latency catastrophically. The
//! response's `degraded` flag tells the client which model answered.
//!
//! Registries are typically populated from the trained-model cache via
//! `calloc_eval::Suite::train_member_cached`, so a serving process
//! restores models bit-identically instead of retraining them.

use std::collections::BTreeMap;

use calloc_nn::Localizer;
use calloc_tensor::Matrix;

use crate::frame::Location;

/// One servable model: the primary localizer, an optional cheaper
/// fallback, and the RP-class → meters mapping of its building.
pub struct ServeMember {
    /// The primary trained model.
    model: Box<dyn Localizer>,
    /// Cheaper model used while the server degrades under overload.
    fallback: Option<Box<dyn Localizer>>,
    /// RP coordinates in meters, indexed by predicted class.
    rp_positions: Vec<(f64, f64)>,
    /// Fingerprint arity (AP count) the model expects.
    num_aps: usize,
}

impl ServeMember {
    /// Packages a trained model for serving.
    pub fn new(
        model: Box<dyn Localizer>,
        fallback: Option<Box<dyn Localizer>>,
        rp_positions: Vec<(f64, f64)>,
        num_aps: usize,
    ) -> Self {
        ServeMember {
            model,
            fallback,
            rp_positions,
            num_aps,
        }
    }

    /// Fingerprint arity (AP count) this member expects.
    pub fn num_aps(&self) -> usize {
        self.num_aps
    }

    /// Runs one micro-batch of fingerprints (rows of `x`) through the
    /// primary model — or the fallback when `degraded` is set and one is
    /// configured — and maps the predicted classes to meters. A class
    /// outside the RP table maps to the last RP rather than panicking
    /// (models are trained on the table, so this is belt-and-braces).
    pub fn locate_batch(&self, x: &Matrix, degraded: bool) -> Vec<Location> {
        let (model, used_fallback) = match (&self.fallback, degraded) {
            (Some(fallback), true) => (fallback.as_ref(), true),
            _ => (self.model.as_ref(), false),
        };
        let classes = model.predict_classes(x);
        classes
            .into_iter()
            .map(|class| {
                let clamped = class.min(self.rp_positions.len().saturating_sub(1));
                let (x_m, y_m) = self.rp_positions[clamped];
                Location {
                    rp_class: class as u64,
                    x: x_m,
                    y: y_m,
                    degraded: used_fallback,
                }
            })
            .collect()
    }
}

/// Name → trained member map behind the serving engine.
#[derive(Default)]
pub struct Registry {
    members: BTreeMap<String, ServeMember>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or replaces) a member under `name`.
    pub fn insert(&mut self, name: impl Into<String>, member: ServeMember) {
        self.members.insert(name.into(), member);
    }

    /// Looks a member up by name.
    pub fn get(&self, name: &str) -> Option<&ServeMember> {
        self.members.get(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.members.keys().map(String::as_str).collect()
    }

    /// Number of registered members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the registry holds no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}
