//! End-to-end and per-layer benchmark of LEAD.
//!
//! Three closed-loop workloads time what users of the library run:
//! detecting a day (`detect_fig8`, the paper's Figure 8), streaming a day
//! fix by fix (`stream_day`) and fitting a small model (`fit_small`). A
//! separate traced run times each layer from outside by timing the
//! benchmark's own calls into the layers' public functions. See README.md
//! for the metrics and the layer-to-metric map.

pub mod calibrate;
pub mod layers;
pub mod report;
pub mod workloads;
pub mod world;
