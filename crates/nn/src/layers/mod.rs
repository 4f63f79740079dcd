//! Neural layers used by the LEAD architectures.
//!
//! Layers are plain structs of [`crate::ParamId`] handles; they register their
//! parameters in a [`crate::ParamSet`] at construction and replay their
//! computation onto a [`crate::Graph`] per forward pass. Sequences are slices
//! of 1×d nodes — the paper runs everything at batch size 1, so a "sequence"
//! is simply the list of per-timestep row vectors.
//!
//! Inference skips the tape: each layer's `infer` method computes the same
//! values, bit for bit, from `&ParamSet` directly, over a ragged batch of
//! sequences packed row-wise (see [`Lstm::infer`]).

mod attention;
mod bilstm;
mod gru;
mod linear;
mod lstm;

pub use attention::SelfAttention;
pub use bilstm::{BiLstm, StackedBiLstm};
pub use gru::Gru;
pub use linear::Linear;
pub use lstm::Lstm;
pub(crate) use lstm::LstmRun;
