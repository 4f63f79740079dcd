//! Experiment harness regenerating the paper's evaluation (Section VI):
//! per-bucket accuracy (Tables III–IV), inference timing (Figure 8), and
//! training-loss curves (Figures 9–10).
//!
//! - [`buckets`] — the paper's stay-point buckets 3–5 / 6–8 / 9–11 / 12–14;
//! - [`metrics`] — the `Acc` metric of Equation (14), bucketed;
//! - [`timing`] — per-bucket mean inference time;
//! - [`runner`] — trains any method on a [`lead_synth::Dataset`] and
//!   evaluates it on the test split;
//! - [`scenarios`] — per-scenario robustness rows (accuracy and IoU under
//!   each named GPS pathology, never averaged away);
//! - [`errors`] — endpoint-level error decomposition of detections;
//! - [`svg`] — SVG map rendering of trajectories and detections;
//! - [`report`] — paper-style text tables and CSV emission.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::disallowed_types)]

pub mod buckets;
pub mod errors;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod svg;
pub mod timing;

pub use buckets::Bucket;
pub use errors::{DetectionOutcome, ErrorBreakdown};
pub use metrics::{BucketAccuracy, IntervalError};
pub use runner::{train_and_evaluate, EvalOutcome, Method, SweepStats, TrainedModel};
pub use scenarios::{evaluate_scenarios, ScenarioOutcome};
pub use timing::BucketTiming;
