//! From-scratch neural-network substrate for the LEAD framework.
//!
//! The LEAD paper trains three neural systems — a hierarchical LSTM
//! autoencoder with self-attention, two stacked-BiLSTM detectors, and
//! GRU/LSTM baselines. No deep-learning dependency is available (or needed:
//! all models are tiny, hidden sizes 32–128, batch size 1), so this crate
//! implements the full stack:
//!
//! - [`matrix`] — dense row-major `f32` matrices with the kernels the tape needs;
//! - [`tape`] — eager reverse-mode autodiff ([`Graph`], [`Var`]);
//! - [`params`] — parameter arena ([`ParamSet`]) and gradient buffers;
//! - [`init`] — Xavier/uniform initialisation;
//! - [`layers`] — `Linear`, `Lstm`, `Gru`, `BiLstm`, `StackedBiLstm`,
//!   `SelfAttention`, mirroring the operators of the paper;
//! - [`optim`] — Adam(W) (the paper's optimiser) and SGD;
//! - [`io`] — lossless text serialisation of trained parameters;
//! - [`par`] — scoped-thread data-parallel map with a determinism contract;
//! - [`simd`] — runtime-dispatched SIMD kernels (the workspace's only
//!   sanctioned-unsafe module) with a bit-identity contract against a safe
//!   scalar reference;
//! - [`train`] — batch-accumulation loop helpers and early stopping;
//! - [`testing`] — finite-difference gradient checking.
//!
//! ```
//! use lead_nn::{Graph, Matrix, ParamSet};
//! use lead_nn::optim::Adam;
//!
//! // Fit y = x·W to a target with a few Adam steps.
//! let mut params = ParamSet::new();
//! let w = params.register("w", Matrix::zeros(2, 1));
//! let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
//! let target = Matrix::from_vec(1, 1, vec![3.0]);
//! let mut adam = Adam::new(&params, 0.1);
//! for _ in 0..200 {
//!     let mut g = Graph::new(&params);
//!     let xv = g.constant(x.clone());
//!     let wv = g.param(w);
//!     let y = g.matmul(xv, wv);
//!     let loss = g.mse_loss(y, &target);
//!     let grads = g.backward(loss);
//!     adam.step(&mut params, &grads);
//! }
//! let fit = x.matmul(params.value(w));
//! assert!((fit.at(0, 0) - 3.0).abs() < 0.05);
//! ```

// `deny` (not `forbid`) so the one sanctioned module below can re-open
// unsafe under the lint gate's R10 contract; everywhere else in the crate
// `unsafe` still fails the build.
#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]
#![deny(clippy::disallowed_types)]
#![deny(clippy::missing_errors_doc)]

pub mod init;
pub mod io;
pub mod layers;
pub mod matrix;
pub mod num;
pub mod optim;
pub mod par;
pub mod params;
#[expect(
    unsafe_code,
    reason = "the SIMD kernels are the sanctioned unsafe module; every site carries a SAFETY comment"
)]
pub mod simd;
pub mod tape;
pub mod testing;
pub mod train;

pub use matrix::Matrix;
pub use params::{Gradients, ParamId, ParamSet};
pub use tape::{Graph, Var};
