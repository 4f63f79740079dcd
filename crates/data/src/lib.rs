//! Versioned, checksummed binary containers for LEAD.
//!
//! CSV ingestion and in-RAM `Vec` datasets cap the scale the pipeline can
//! train on. This crate provides a compact binary container format (magic +
//! version + kind header, per-record FNV-1a checksums, explicit end marker)
//! for the two record kinds the pipeline moves through files: raw
//! trajectories (written and read by `data-convert`) and labelled training
//! samples (the `.leadbin` shards `lead_core::source::BinarySampleShards`
//! streams into training).
//!
//! Coordinates and timestamps are delta-encoded; latitude/longitude use a
//! fixed-point 1e-7-degree grid *only when the round-trip is provably exact
//! for every point in the record* (checked bitwise at encode time), falling
//! back to raw IEEE-754 bits otherwise. Decoding therefore always
//! reconstructs the original `f64` bit patterns.
//!
//! All failures surface as the typed [`DataError`]; nothing in this crate
//! panics on malformed input.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]
#![deny(clippy::missing_errors_doc)]

pub mod codec;
pub mod container;
pub mod error;
pub mod records;

pub use container::{ContainerReader, ContainerWriter, MAGIC, MAX_RECORD_LEN, VERSION};
pub use error::{DataError, MalformedKind, RecordKind};
pub use records::{
    LabeledSampleReader, LabeledSampleRecord, LabeledSampleWriter, TrajectoryReader,
    TrajectoryWriter,
};
