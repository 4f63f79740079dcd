//! Deterministic, dependency-free observability for the LEAD workspace.
//!
//! Counters, gauges, histogram summaries, and span timers live behind the
//! [`probe::Probe`] trait: instrumented code emits into a `&dyn Probe` and
//! never reads anything back. The default sink is the zero-cost
//! [`probe::NoopProbe`]; attach a [`recorder::Recorder`] to capture metrics
//! and render them with the [`emit`] JSONL / text-table emitters.
//!
//! # Determinism contract
//!
//! Metric values must never feed back into computation: a run with a
//! recording probe attached is bit-identical to a run without one (pinned by
//! `crates/core/tests/obs_parity.rs`). Every wall-clock read behind this
//! layer happens in [`clock`] — alongside `lead_eval::timing`, the only
//! sanctioned clock home under `lead-lint` rule R5.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]
#![deny(clippy::disallowed_types)]
#![deny(clippy::missing_errors_doc)]

pub mod clock;
pub mod emit;
pub mod probe;
pub mod recorder;

pub use probe::{NoopProbe, Probe, NOOP};
pub use recorder::{MetricsSnapshot, Recorder, Summary};
