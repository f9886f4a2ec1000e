//! `perfbench` — the benchmark of the DEP+BURST reproduction.
//!
//! Six workloads ([`workloads`]) each time one operation through the
//! library entry points the experiment binaries use: the Fig. 3
//! prediction-error sweep exact and sampled, the same sweep replayed from
//! a warm disk cache, a flat and a thermal fleet, and the Fig. 6 energy
//! manager. A run ([`run`]) reports end-to-end metrics from untraced
//! operations, their times rescaled to a reference host speed by a probe
//! of the host ([`host`]), or per-layer metrics from traced passes that
//! push the same work through the layers' public functions with a span
//! around each call ([`pipeline`], [`spans`]). The suite ([`suite`]) repeats runs in child
//! processes, summarizes them ([`stats`]) and compares two result files.
//! [`catalog`] lists every metric with its unit and bound.
//!
//! See `README.md` beside this crate for the workload and metric tables
//! and the commands.

#![warn(missing_docs)]

pub mod catalog;
pub mod host;
pub mod json;
pub mod pipeline;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;

/// Pool width of the traced passes and of the operations the pool's
/// efficiency is measured from: the host's parallelism, at most two. The
/// timed operations use one worker; see [`run`].
#[must_use]
pub fn pool_width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Removes every `DEPBURST_*` variable from this process's environment,
/// so no knob (invariant monitor, cache persistence, sampling, fault
/// injection) changes what a run measures.
///
/// Call before any thread starts.
pub fn scrub_environment() {
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("DEPBURST_") {
            std::env::remove_var(k);
        }
    }
}
