//! Candidate trajectory encoding (Section IV): compression/decompression
//! operators and the hierarchical autoencoder.

mod autoencoder;
mod operator;

pub(crate) use autoencoder::Phase1Rows;
pub use autoencoder::{Autoencoder, EncoderKind};
pub use operator::{CompressionOperator, DecompressionOperator};
