//! Bidirectional and stacked-bidirectional LSTMs (the paper's detectors,
//! Section V-B).

use crate::layers::{Linear, Lstm};
use crate::matrix::Matrix;
use crate::params::ParamSet;
use crate::tape::{Graph, Var};
use rand::Rng;

/// A bidirectional LSTM layer.
///
/// Per the paper's Equation (9): a forward LSTM reads the sequence
/// left-to-right, a backward LSTM right-to-left, the per-step hidden pairs are
/// concatenated and passed through a fully connected layer so the output width
/// equals the single-direction hidden width (keeping stacked layers uniform).
/// Both directions inherit the fused, SIMD-dispatched gate kernels from
/// [`Lstm`], and the merge layer's product/bias run on the same backends.
#[derive(Debug, Clone)]
pub struct BiLstm {
    fwd: Lstm,
    bwd: Lstm,
    merge: Linear,
    hidden: usize,
}

impl BiLstm {
    /// Registers a BiLSTM with `in_dim` inputs and `hidden` units per
    /// direction under `name`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let fwd = Lstm::new(ps, rng, &format!("{name}.fwd"), in_dim, hidden);
        let bwd = Lstm::new(ps, rng, &format!("{name}.bwd"), in_dim, hidden);
        let merge = Linear::new(ps, rng, &format!("{name}.merge"), 2 * hidden, hidden);
        Self {
            fwd,
            bwd,
            merge,
            hidden,
        }
    }

    /// Hidden width per direction (equal to the output width).
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs both directions over `xs` and merges per step; output length
    /// equals input length, each node 1×hidden.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    ///
    /// The merge runs as one product over the steps stacked last step
    /// first, so its backward adds the steps' weight and bias gradients in
    /// the order per-step merges would (the tape walks later steps first).
    pub fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        assert!(!xs.is_empty(), "BiLSTM over an empty sequence");
        let hs_fwd = self.fwd.forward(g, xs);
        let rev: Vec<Var> = xs.iter().rev().copied().collect();
        let mut hs_bwd = self.bwd.forward(g, &rev);
        hs_bwd.reverse();
        hs_fwd
            .iter()
            .zip(hs_bwd.iter())
            .map(|(&hf, &hb)| {
                let cat = g.concat_cols(&[hf, hb]);
                self.merge.forward(g, cat)
            })
            .collect()
    }

    /// Tape-free [`Self::forward`] over a ragged batch packed as in
    /// [`Lstm::infer`]. Both directions step every sequence together, and
    /// the merge runs as one product over all rows.
    pub fn infer(&self, ps: &ParamSet, xs: &Matrix, lens: &[usize]) -> Matrix {
        let hf = self.fwd.infer_dir(ps, xs, lens, false);
        let hb = self.bwd.infer_dir(ps, xs, lens, true);
        self.merge.infer(ps, &Matrix::concat_cols(&[&hf, &hb]))
    }
}

/// A stack of [`BiLstm`] layers (the paper uses `L = 4`), each consuming the
/// previous layer's per-step outputs. Deeper layers extract sequential
/// features at coarser timescales (Pascanu et al. 2013).
#[derive(Debug, Clone)]
pub struct StackedBiLstm {
    layers: Vec<BiLstm>,
}

impl StackedBiLstm {
    /// Registers `num_layers` stacked BiLSTM layers; the first maps
    /// `in_dim → hidden`, the rest `hidden → hidden`.
    ///
    /// # Panics
    /// Panics if `num_layers == 0`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
        num_layers: usize,
    ) -> Self {
        assert!(num_layers > 0, "stacked BiLSTM needs at least one layer");
        let layers = (0..num_layers)
            .map(|i| {
                let d = if i == 0 { in_dim } else { hidden };
                BiLstm::new(ps, rng, &format!("{name}.l{i}"), d, hidden)
            })
            .collect();
        Self { layers }
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output width.
    pub fn hidden(&self) -> usize {
        self.layers.first().map_or(0, |l| l.hidden())
    }

    /// Runs the whole stack; output length equals input length.
    pub fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        let mut seq: Vec<Var> = xs.to_vec();
        for layer in &self.layers {
            seq = layer.forward(g, &seq);
        }
        seq
    }

    /// Tape-free [`Self::forward`] over a ragged batch packed as in
    /// [`Lstm::infer`]: every layer runs all sequences at once.
    pub fn infer(&self, ps: &ParamSet, xs: &Matrix, lens: &[usize]) -> Matrix {
        let mut seq = xs.clone();
        for layer in &self.layers {
            seq = layer.infer(ps, &seq, lens);
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamId;
    use crate::testing::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(g: &mut Graph, t: usize, d: usize) -> Vec<Var> {
        (0..t)
            .map(|i| {
                g.constant(Matrix::from_fn(1, d, |_, c| {
                    ((i + c) as f32 * 0.37).sin() * 0.6
                }))
            })
            .collect()
    }

    #[test]
    fn bilstm_preserves_length_and_width() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(47);
        let bl = BiLstm::new(&mut ps, &mut rng, "b", 3, 5);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 6, 3);
        let ys = bl.forward(&mut g, &xs);
        assert_eq!(ys.len(), 6);
        for &y in &ys {
            assert_eq!(g.value(y).shape(), (1, 5));
        }
    }

    #[test]
    fn bilstm_sees_the_future() {
        // Changing the *last* input must change the *first* output (the
        // backward direction carries future context) — a plain LSTM would not.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(53);
        let bl = BiLstm::new(&mut ps, &mut rng, "b", 2, 4);

        let run = |last_val: f32| {
            let mut g = Graph::new(&ps);
            let mut xs = seq(&mut g, 5, 2);
            let replaced = g.constant(Matrix::full(1, 2, last_val));
            *xs.last_mut().unwrap() = replaced;
            let ys = bl.forward(&mut g, &xs);
            g.value(ys[0]).clone()
        };
        assert_ne!(run(0.9).data(), run(-0.9).data());
    }

    #[test]
    fn singleton_sequence_works() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(59);
        let bl = BiLstm::new(&mut ps, &mut rng, "b", 2, 3);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 1, 2);
        let ys = bl.forward(&mut g, &xs);
        assert_eq!(ys.len(), 1);
    }

    #[test]
    fn stacked_runs_all_layers() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(61);
        let st = StackedBiLstm::new(&mut ps, &mut rng, "s", 3, 4, 4);
        assert_eq!(st.num_layers(), 4);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 5, 3);
        let ys = st.forward(&mut g, &xs);
        assert_eq!(ys.len(), 5);
        for &y in &ys {
            assert_eq!(g.value(y).shape(), (1, 4));
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(67);
        let _ = StackedBiLstm::new(&mut ps, &mut rng, "s", 3, 4, 0);
    }

    /// `Σ_t w_t·y_t` with fixed, distinct weights, so every output element
    /// gets its own upstream gradient.
    fn weighted_sum(g: &mut Graph, ys: &[Var]) -> Var {
        let stacked = g.concat_rows(ys);
        let (r, c) = g.value(stacked).shape();
        let w = g.constant(Matrix::from_fn(r, c, |i, j| {
            ((i * c + j) as f32 * 0.7).cos()
        }));
        let p = g.mul(stacked, w);
        g.sum_all(p)
    }

    /// Finite-difference checks of every parameter in `ps` and of the input
    /// `x` (registered as a parameter, one step per row) for the layer run
    /// by `forward`.
    fn gradcheck_layer<F>(ps: &ParamSet, x: ParamId, forward: F)
    where
        F: Fn(&mut Graph, &[Var]) -> Vec<Var> + Clone,
    {
        let targets: Vec<ParamId> = ps.iter().map(|(id, _)| id).collect();
        for target in targets {
            let forward = forward.clone();
            gradcheck(&mut ps.clone(), target, 1e-2, 3e-2, move |g| {
                let xv = g.param(x);
                let xs: Vec<Var> = (0..g.value(xv).rows()).map(|r| g.row(xv, r)).collect();
                let ys = forward(g, &xs);
                weighted_sum(g, &ys)
            });
        }
    }

    fn input(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.53).sin() * 0.8
        })
    }

    #[test]
    fn gradcheck_bilstm_params_and_input() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(71);
        let bl = BiLstm::new(&mut ps, &mut rng, "b", 2, 3);
        let x = ps.register("x", input(4, 2));
        gradcheck_layer(&ps, x, move |g, xs| bl.forward(g, xs));
    }

    #[test]
    fn gradcheck_stacked_bilstm_params_and_input() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(73);
        let st = StackedBiLstm::new(&mut ps, &mut rng, "s", 2, 3, 2);
        let x = ps.register("x", input(3, 2));
        gradcheck_layer(&ps, x, move |g, xs| st.forward(g, xs));
    }
}
