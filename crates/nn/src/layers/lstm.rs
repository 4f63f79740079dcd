//! Long short-term memory recurrence (Hochreiter & Schmidhuber 1997), the
//! paper's Equation (2).
//!
//! Training records a whole run as **one** tape op ([`LstmRun`]) plus one
//! `Row` node per hidden state. The run keeps every step's gate activations,
//! cell state and `tanh(c)` in a single buffer, and its backward is a
//! hand-written BPTT. That BPTT calls the kernels the per-step tape
//! formulation called, at the same one-row shapes, and adds into every
//! gradient slot in the order the tape did, so gradients are bit-identical
//! to the per-step formulation (`tests/proptest_bptt.rs` keeps it as the
//! oracle). DESIGN.md §15 gives the order argument.
//!
//! Inference skips the tape: [`Lstm::infer`] steps a ragged batch of
//! sequences together through the same step code.

use crate::init::xavier_uniform;
use crate::matrix::{a_bt_acc, outer_acc, Matrix};
use crate::params::{ParamId, ParamSet};
use crate::simd::{self, Backend, Kernel};
use crate::tape::{Graph, Var};
use rand::Rng;

/// A single-direction LSTM.
///
/// Gate layout in the fused weight matrices is `[i | f | g | o]` (input,
/// forget, cell candidate, output). The forget-gate bias is initialised to 1,
/// the standard trick that lets gradients flow through long sequences early in
/// training.
#[derive(Debug, Clone)]
pub struct Lstm {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl Lstm {
    /// Registers an LSTM with `in_dim` inputs and `hidden` units under `name`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let wx = ps.register(
            format!("{name}.wx"),
            xavier_uniform(rng, in_dim, 4 * hidden),
        );
        let wh = ps.register(
            format!("{name}.wh"),
            xavier_uniform(rng, hidden, 4 * hidden),
        );
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0); // forget gate
        }
        let b = ps.register(format!("{name}.b"), bias);
        Self {
            wx,
            wh,
            b,
            in_dim,
            hidden,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the recurrence over a sequence of 1×in_dim nodes, returning every
    /// hidden state (one per step). Records one tape op for the whole run
    /// plus one `Row` node per hidden state.
    ///
    /// # Panics
    /// Panics if `xs` is empty: the LEAD data model guarantees every stay
    /// point and move point sequence is non-empty.
    pub fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        assert!(!xs.is_empty(), "LSTM over an empty sequence");
        self.record(g, xs.to_vec())
    }

    /// Runs the recurrence feeding the *same* input vector at every one of
    /// `steps` steps — the paper's decompression operator (Equation (5)),
    /// which unrolls a compressed vector back into a sequence.
    pub fn forward_repeated(&self, g: &mut Graph, x: Var, steps: usize) -> Vec<Var> {
        assert!(steps > 0, "decompression over zero steps");
        self.record(g, vec![x; steps])
    }

    /// Evaluates the run over `xs` eagerly, records it as one [`LstmRun`]
    /// node and returns a `Row` node per hidden state.
    fn record(&self, g: &mut Graph, xs: Vec<Var>) -> Vec<Var> {
        let (wx, wh, b) = (g.param(self.wx), g.param(self.wh), g.param(self.b));
        let hsz = self.hidden;
        let mut cell = Cell::new(g.value(wh).data(), g.value(b).data(), hsz, 1);
        // `forward_repeated` feeds one node at every step: one `x·Wx` row.
        let shared = xs
            .split_first()
            .is_some_and(|(first, rest)| rest.iter().all(|x| x == first));
        let gx = self.input_projection(g, if shared { &xs[..1] } else { &xs }, wx);
        let width = 4 * hsz;
        let (mut h, mut c) = (vec![0.0; hsz], vec![0.0; hsz]);
        let mut steps = vec![0.0; xs.len() * STEP_WIDTH * hsz];
        let mut hs = Matrix::zeros(xs.len(), hsz);
        for (t, rec) in steps.chunks_exact_mut(STEP_WIDTH * hsz).enumerate() {
            let row = if shared { 0 } else { t };
            let (act, c_rec) = rec.split_at_mut(5 * hsz);
            let gx_t = &gx[row * width..(row + 1) * width];
            cell.step(1, |_| gx_t, &mut h, &mut c, act);
            c_rec.copy_from_slice(&c);
            hs.row_mut(t).copy_from_slice(&h);
        }
        let run = LstmRun {
            xs,
            wx,
            wh,
            b,
            hidden: hsz,
            steps,
        };
        let node = g.lstm_run(run, hs);
        (0..g.value(node).rows()).map(|t| g.row(node, t)).collect()
    }

    /// `x·Wx` for each node of `inputs`, one row each.
    ///
    /// Each row is the one `matmul` gives it: `x[k]·Wx[k]` accumulated from
    /// zero in ascending `k`, with the exact-zero skip. The loop runs `k`
    /// outermost, so each row of `Wx` is read once for all inputs.
    fn input_projection(&self, g: &Graph, inputs: &[Var], wx: Var) -> Vec<f32> {
        let kernel = simd::active();
        let width = 4 * self.hidden;
        let xs: Vec<&[f32]> = inputs.iter().map(|&x| g.value(x).data()).collect();
        debug_assert!(
            xs.iter().all(|x| x.len() == self.in_dim),
            "lstm input shape"
        );
        let mut gx = vec![0.0; xs.len() * width];
        for (k, w) in g.value(wx).data().chunks_exact(width).enumerate() {
            for (x, out) in xs.iter().zip(gx.chunks_exact_mut(width)) {
                // lint: allow(float-eq): exact-zero sparsity skip; a tolerance would change results
                if x[k] == 0.0 {
                    continue;
                }
                kernel.axpy(x[k], w, out);
            }
        }
        gx
    }

    /// Tape-free inference over a ragged batch: `xs` packs the sequences'
    /// rows back to back (sequence `s` has `lens[s]` rows) and the result
    /// packs their hidden states the same way. Bit-identical to
    /// [`Self::forward`] on each sequence alone; see [`Self::infer_dir`].
    ///
    /// # Panics
    /// Panics if any sequence is empty or `xs` does not hold `Σ lens` rows.
    pub fn infer(&self, ps: &ParamSet, xs: &Matrix, lens: &[usize]) -> Matrix {
        self.infer_dir(ps, xs, lens, false)
    }

    /// [`Self::infer`] reading each sequence left to right, or right to left
    /// when `reverse` (the backward half of a BiLSTM; hidden states still land
    /// on their input's row).
    ///
    /// The input projection `x·Wx` runs as one product over every row. Step
    /// `t` then advances every sequence longer than `t` as one B-row step
    /// ([`Cell::step`], the step [`Self::forward`] takes with one row). Every
    /// kernel treats each row on its own (pinned in `tests/proptest_simd.rs`),
    /// so each sequence gets the bits [`Self::forward`] gives it.
    pub(crate) fn infer_dir(
        &self,
        ps: &ParamSet,
        xs: &Matrix,
        lens: &[usize],
        reverse: bool,
    ) -> Matrix {
        assert!(lens.iter().all(|&l| l > 0), "LSTM over an empty sequence");
        let mut starts = Vec::with_capacity(lens.len());
        let mut total = 0;
        for &l in lens {
            starts.push(total);
            total += l;
        }
        assert_eq!(xs.rows(), total, "packed rows must match the lengths");
        let hsz = self.hidden;
        let batch = lens.len();
        let mut cell = Cell::new(
            ps.value(self.wh).data(),
            ps.value(self.b).data(),
            hsz,
            batch,
        );
        let gx = xs.matmul(ps.value(self.wx));
        // Longest first, so the sequences still running at step `t` are a
        // prefix of `order` and their states stay in place as others end.
        let mut order: Vec<usize> = (0..lens.len()).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(lens[s]));
        let row_at = |s: usize, t: usize| starts[s] + if reverse { lens[s] - 1 - t } else { t };
        let (mut h, mut c) = (vec![0.0; batch * hsz], vec![0.0; batch * hsz]);
        let mut act = vec![0.0; 5 * batch * hsz];
        let mut out = Matrix::zeros(total, hsz);
        let mut active = batch;
        for t in 0..lens.iter().copied().max().unwrap_or(0) {
            while lens[order[active - 1]] <= t {
                active -= 1;
            }
            let n = active * hsz;
            cell.step(
                active,
                |r| gx.row(row_at(order[r], t)),
                &mut h[..n],
                &mut c[..n],
                &mut act[..5 * n],
            );
            for (r, &s) in order[..active].iter().enumerate() {
                out.row_mut(row_at(s, t))
                    .copy_from_slice(&h[r * hsz..(r + 1) * hsz]);
            }
        }
        out
    }
}

/// Floats each step of an [`LstmRun`] keeps, in units of `hidden`: the gate
/// activations `[i | f | g | o]`, then `tanh(c)`, then `c`.
const STEP_WIDTH: usize = 6;

/// What one recurrence step reads (the backend, `Wh`, the bias) and its
/// working buffers, sized for up to `rows` sequences stepped together.
struct Cell<'a> {
    kernel: Backend,
    wh: &'a [f32],
    bias: &'a [f32],
    hidden: usize,
    gh: Vec<f32>,
    pre: Vec<f32>,
    fc: Vec<f32>,
    ig: Vec<f32>,
}

impl<'a> Cell<'a> {
    fn new(wh: &'a [f32], bias: &'a [f32], hidden: usize, rows: usize) -> Self {
        Self {
            kernel: simd::active(),
            wh,
            bias,
            hidden,
            gh: vec![0.0; rows * 4 * hidden],
            pre: vec![0.0; 4 * hidden],
            fc: vec![0.0; rows * hidden],
            ig: vec![0.0; rows * hidden],
        }
    }

    /// Advances `rows` sequences one step: `h` and `c` (rows×hidden) hold
    /// their states and are updated in place, `gx(r)` is row `r`'s input
    /// projection `x·Wx`, and `act` receives five rows×hidden blocks
    /// `[i | f | g | o | tanh(c)]`.
    ///
    /// The operations are the per-step formulation's, in its order:
    /// `h·Wh`, `(x·Wx + h·Wh)`, the fused bias-then-activation gates, then
    /// `c = f·c + i·g`, `tanh(c)` and `h = o·tanh(c)`.
    fn step<'x>(
        &mut self,
        rows: usize,
        gx: impl Fn(usize) -> &'x [f32],
        h: &mut [f32],
        c: &mut [f32],
        act: &mut [f32],
    ) {
        let (kernel, hsz) = (self.kernel, self.hidden);
        let (width, n) = (4 * hsz, rows * hsz);
        let gh = &mut self.gh[..rows * width];
        gh.fill(0.0);
        kernel.matmul_acc(h, self.wh, gh, rows, hsz, width);
        let (i, rest) = act.split_at_mut(n);
        let (f, rest) = rest.split_at_mut(n);
        let (g, rest) = rest.split_at_mut(n);
        let (o, c_act) = rest.split_at_mut(n);
        let part = |q: usize| q * hsz..(q + 1) * hsz;
        let pre = &mut self.pre;
        for r in 0..rows {
            kernel.add(gx(r), &gh[r * width..(r + 1) * width], pre);
            let cols = r * hsz..(r + 1) * hsz;
            kernel.sigmoid_gate(&pre[part(0)], &self.bias[part(0)], &mut i[cols.clone()]);
            kernel.sigmoid_gate(&pre[part(1)], &self.bias[part(1)], &mut f[cols.clone()]);
            kernel.tanh_gate(&pre[part(2)], &self.bias[part(2)], &mut g[cols.clone()]);
            kernel.sigmoid_gate(&pre[part(3)], &self.bias[part(3)], &mut o[cols]);
        }
        let (fc, ig) = (&mut self.fc[..n], &mut self.ig[..n]);
        kernel.mul(f, c, fc);
        kernel.mul(i, g, ig);
        kernel.add(fc, ig, c);
        kernel.tanh(c, c_act);
        kernel.mul(o, c_act, h);
    }
}

/// One recorded [`Lstm`] run: the tape op behind [`Lstm::forward`] and
/// [`Lstm::forward_repeated`].
#[derive(Debug)]
pub(crate) struct LstmRun {
    /// The input node of each step.
    xs: Vec<Var>,
    wx: Var,
    wh: Var,
    b: Var,
    hidden: usize,
    /// Per step, [`STEP_WIDTH`]` × hidden` floats: `[i | f | g | o]`,
    /// `tanh(c)`, `c`. The hidden states are the node's value.
    steps: Vec<f32>,
}

impl LstmRun {
    /// Backpropagation through time. `hs` is the node's value (one hidden
    /// state per row) and `dhs` its gradient, which holds every external
    /// gradient of the `Row` outputs.
    ///
    /// Each slot receives its additions in the per-step tape's order, so
    /// the result is bit-identical to it:
    /// - `dh_t` is the external gradient, then `+ dg_{t+1}·Whᵀ`;
    /// - `dc_t` is `dc_{t+1}·f_{t+1}`, then `+ tanh_bwd(dh_t·o_t)`;
    /// - `dWx`, `dWh` and the inputs' slots take their per-step products
    ///   directly, last step first;
    /// - the bias gradient is summed over the steps from zero, then added to
    ///   `b`'s slot once.
    pub(crate) fn backward(
        &self,
        graph: &Graph<'_>,
        hs: &Matrix,
        dhs: &Matrix,
        grads: &mut [Option<Matrix>],
    ) {
        let kernel = simd::active();
        let hsz = self.hidden;
        let width = 4 * hsz;
        let wx = graph.value(self.wx);
        let (in_dim, wx) = (wx.rows(), wx.data());
        let wh = graph.value(self.wh).data();
        let part = |q: usize| q * hsz..(q + 1) * hsz;
        let zeros = vec![0.0; hsz];
        let mut dh = dhs.row(self.xs.len() - 1).to_vec();
        // `dc_t`, its `dc_{t+1}·f_{t+1}` and `tanh(c_t)` terms, and `d tanh(c_t)`.
        let (mut dc, mut dc_next, mut dc_own) = (vec![0.0; hsz], vec![0.0; hsz], vec![0.0; hsz]);
        let mut dc_act = vec![0.0; hsz];
        // Upstream gradients of the activations `i`, `f`, `g`, `o`.
        let mut dgate_out = vec![0.0; width];
        // Every step's gate gradients, kept for the weight gradients below.
        let mut dg_all = vec![0.0; self.xs.len() * width];
        let mut db = vec![0.0; width];
        let record = |t: usize| &self.steps[t * STEP_WIDTH * hsz..(t + 1) * STEP_WIDTH * hsz];
        for t in (0..self.xs.len()).rev() {
            let rec = record(t);
            let (i, f, g, o) = (&rec[part(0)], &rec[part(1)], &rec[part(2)], &rec[part(3)]);
            let c_act = &rec[part(4)];
            let c_prev = if t > 0 {
                &record(t - 1)[part(5)]
            } else {
                &zeros[..]
            };
            // h = o·tanh(c), then c's two contributions in the tape's order.
            kernel.mul(&dh, c_act, &mut dgate_out[part(3)]);
            kernel.mul(&dh, o, &mut dc_act);
            kernel.tanh_bwd(&dc_act, c_act, &mut dc_own);
            if t + 1 == self.xs.len() {
                dc.copy_from_slice(&dc_own);
            } else {
                kernel.add(&dc_next, &dc_own, &mut dc);
            }
            // c = f·c_prev + i·g.
            kernel.mul(&dc, g, &mut dgate_out[part(0)]);
            kernel.mul(&dc, i, &mut dgate_out[part(2)]);
            kernel.mul(&dc, c_prev, &mut dgate_out[part(1)]);
            kernel.mul(&dc, f, &mut dc_next);
            let dgates = &mut dg_all[t * width..(t + 1) * width];
            kernel.sigmoid_bwd(&dgate_out[part(0)], i, &mut dgates[part(0)]);
            kernel.sigmoid_bwd(&dgate_out[part(1)], f, &mut dgates[part(1)]);
            kernel.tanh_bwd(&dgate_out[part(2)], g, &mut dgates[part(2)]);
            kernel.sigmoid_bwd(&dgate_out[part(3)], o, &mut dgates[part(3)]);
            kernel.axpy(1.0, dgates, &mut db);
            // pre = x·Wx + h_prev·Wh: the recurrent and input gradients.
            if t > 0 {
                dh.copy_from_slice(dhs.row(t - 1));
                a_bt_acc(kernel, dgates, wh, &mut dh, 1, width, hsz);
            }
            let x = self.xs[t];
            if graph.needs(x) {
                let dx = graph.grad_slot(grads, x);
                a_bt_acc(kernel, dgates, wx, dx.data_mut(), 1, width, in_dim);
            }
        }
        // dWh and dWx: each step's outer product, last step first (the
        // order the per-step tape added them in), one weight row at a time.
        let dg_at = |t: usize| &dg_all[t * width..(t + 1) * width];
        let h_terms: Vec<_> = (1..self.xs.len())
            .rev()
            .map(|t| (hs.row(t - 1), dg_at(t)))
            .collect();
        outer_acc(
            kernel,
            &h_terms,
            graph.grad_slot(grads, self.wh).data_mut(),
            width,
        );
        let x_terms: Vec<_> = (0..self.xs.len())
            .rev()
            .map(|t| (graph.value(self.xs[t]).data(), dg_at(t)))
            .collect();
        outer_acc(
            kernel,
            &x_terms,
            graph.grad_slot(grads, self.wx).data_mut(),
            width,
        );
        kernel.axpy(1.0, &db, graph.grad_slot(grads, self.b).data_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(g: &mut Graph, t: usize, d: usize) -> Vec<Var> {
        (0..t)
            .map(|i| {
                g.constant(Matrix::from_fn(1, d, |_, c| {
                    ((i * d + c) as f32 * 0.13).sin() * 0.5
                }))
            })
            .collect()
    }

    #[test]
    fn forward_emits_one_hidden_per_step() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 3, 5);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 7, 3);
        let hs = lstm.forward(&mut g, &xs);
        assert_eq!(hs.len(), 7);
        for &h in &hs {
            assert_eq!(g.value(h).shape(), (1, 5));
        }
    }

    #[test]
    fn hidden_values_bounded_by_one() {
        // h = o·tanh(c), both factors in (-1, 1)·(0, 1).
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(13);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 2, 4);
        let mut g = Graph::new(&ps);
        let xs = seq(&mut g, 20, 2);
        let hs = lstm.forward(&mut g, &xs);
        for &h in &hs {
            assert!(g.value(h).data().iter().all(|v| v.abs() < 1.0));
        }
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(17);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 2, 3);
        let b = ps.value(lstm.b);
        assert_eq!(b.slice_cols(3, 6).data(), &[1.0, 1.0, 1.0]);
        assert_eq!(b.slice_cols(0, 3).data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(19);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 2, 3);
        let mut g = Graph::new(&ps);
        let _ = lstm.forward(&mut g, &[]);
    }

    #[test]
    fn forward_repeated_emits_requested_steps() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(23);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 4, 3);
        let mut g = Graph::new(&ps);
        let x = g.constant(Matrix::full(1, 4, 0.3));
        let hs = lstm.forward_repeated(&mut g, x, 5);
        assert_eq!(hs.len(), 5);
        // Steps differ because the state evolves.
        assert_ne!(g.value(hs[0]).data(), g.value(hs[4]).data());
    }

    #[test]
    fn gradcheck_through_time() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(29);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 2, 3);
        for target in [lstm.wx, lstm.wh, lstm.b] {
            let l = lstm.clone();
            gradcheck(&mut ps.clone(), target, 1e-2, 3e-2, move |g| {
                let xs = seq(g, 4, 2);
                let hs = l.forward(g, &xs);
                let last = *hs.last().unwrap();
                let sq = g.mul(last, last);
                g.sum_all(sq)
            });
        }
    }

    #[test]
    fn gradcheck_forward_repeated_shared_input() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(31);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 3, 2);
        let x = ps.register("x", Matrix::from_vec(1, 3, vec![0.4, -0.7, 0.2]));
        for target in [x, lstm.wx, lstm.wh, lstm.b] {
            let l = lstm.clone();
            gradcheck(&mut ps.clone(), target, 1e-2, 3e-2, move |g| {
                let xv = g.param(x);
                let hs = l.forward_repeated(g, xv, 5);
                // Weight the steps differently so each one's gradient counts.
                let stacked = g.concat_rows(&hs);
                let w = g.constant(Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32 * 0.3 - 1.0));
                let p = g.mul(stacked, w);
                g.sum_all(p)
            });
        }
    }

    /// The fused run records one op plus one `Row` per hidden state, so the
    /// tape grows by exactly one node per extra step. Per-step recording
    /// (about 15 nodes a step) would fail this.
    #[test]
    fn forward_records_one_node_per_step() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(37);
        let lstm = Lstm::new(&mut ps, &mut rng, "l", 2, 3);
        let growth = |steps: usize| {
            let mut g = Graph::new(&ps);
            let xs = seq(&mut g, steps, 2);
            // The first run records the parameter nodes; measure the second.
            let _ = lstm.forward(&mut g, &xs);
            let before = g.len();
            let _ = lstm.forward(&mut g, &xs);
            let x = xs[0];
            let mid = g.len();
            let _ = lstm.forward_repeated(&mut g, x, steps);
            (mid - before, g.len() - mid)
        };
        assert_eq!(growth(1), (2, 2));
        assert_eq!(growth(14), (15, 15));
    }
}
