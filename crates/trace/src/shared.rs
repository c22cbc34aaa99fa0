//! Cheap read-only sharing of one generated trace across many runs.
//!
//! The paper's methodology runs every protocol variant (and, for error
//! bars, every replicate) over *the same* trace and workload. Generating a
//! Table-I-scale trace is seconds of work and tens of megabytes, so a
//! campaign must build it once and hand out references. [`SharedTrace`]
//! packages a [`Trace`] together with an `Arc` of its catalog — the one
//! piece every peer and server clones an `Arc` handle to — so fanning a
//! trace out to N worker threads costs N reference-count bumps, not N deep
//! copies.

use std::ops::Deref;
use std::sync::Arc;

use socialtube_model::Catalog;

use crate::{generate, Trace, TraceConfig};

/// A trace packaged for concurrent, read-only reuse.
///
/// Cloning is one `Arc` bump. Dereferences to [`Trace`], so analysis and
/// simulation code written against `&Trace` works unchanged.
#[derive(Clone, Debug)]
pub struct SharedTrace {
    trace: Arc<Trace>,
}

impl SharedTrace {
    /// Wraps an owned trace for sharing.
    pub fn new(trace: Trace) -> Self {
        Self {
            trace: Arc::new(trace),
        }
    }

    /// The shared trace handle.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    /// The shared catalog handle (what peers and the server hold).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.trace.catalog
    }
}

impl Deref for SharedTrace {
    type Target = Trace;

    fn deref(&self) -> &Trace {
        &self.trace
    }
}

impl From<Trace> for SharedTrace {
    fn from(trace: Trace) -> Self {
        Self::new(trace)
    }
}

/// Generates a trace from `config` and `seed`, packaged for sharing.
///
/// Equivalent to `SharedTrace::new(generate(config, seed))`.
pub fn generate_shared(config: &TraceConfig, seed: u64) -> SharedTrace {
    SharedTrace::new(generate(config, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        let other = shared.clone();
        assert!(Arc::ptr_eq(shared.trace(), other.trace()));
        assert!(Arc::ptr_eq(shared.catalog(), other.catalog()));
        assert!(Arc::ptr_eq(shared.catalog(), &shared.trace().catalog));
    }

    #[test]
    fn derefs_to_the_same_trace() {
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        let direct = generate(&TraceConfig::tiny(), 7);
        assert_eq!(shared.graph.user_count(), direct.graph.user_count());
        assert_eq!(shared.catalog.video_count(), direct.catalog.video_count());
        assert_eq!(
            shared.catalog().video_count(),
            shared.trace().catalog.video_count()
        );
    }
}
