//! The fused LSTM tape op against the per-step formulation, bit for bit.
//!
//! `Lstm::forward` and `Lstm::forward_repeated` record a whole run as one
//! tape op whose backward is a hand-written BPTT. The oracle below records
//! the same recurrence step by step from the tape's elementary ops (about
//! 15 nodes a step), the way the layer did before the op existed. Every
//! hidden state and every gradient (`wx`, `wh`, `b`, the merge layers and
//! the inputs) must match `to_bits`, for ragged sets of sequences sharing
//! one `ParamSet` in one graph, for `forward_repeated`, for `BiLstm` and
//! `StackedBiLstm`, with inputs holding exact zeros (the sparsity skip), and
//! with upstream gradient on the last hidden state only or on every one.

use lead_nn::layers::{BiLstm, Lstm, StackedBiLstm};
use lead_nn::{Graph, Matrix, ParamId, ParamSet, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The parameter id registered under `name`.
fn id(ps: &ParamSet, name: &str) -> ParamId {
    ps.iter()
        .map(|(id, _)| id)
        .find(|&id| ps.name(id) == name)
        .unwrap_or_else(|| panic!("no parameter {name}"))
}

/// The per-step LSTM formulation: one `matmul` per projection, gate slices,
/// fused bias-then-activation gates and the cell update as separate nodes.
struct OracleLstm {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    hidden: usize,
}

impl OracleLstm {
    fn new(ps: &ParamSet, name: &str) -> Self {
        let wh = id(ps, &format!("{name}.wh"));
        Self {
            wx: id(ps, &format!("{name}.wx")),
            wh,
            b: id(ps, &format!("{name}.b")),
            hidden: ps.value(wh).rows(),
        }
    }

    fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        let hsz = self.hidden;
        // The bias slices are recorded once per run and shared by its steps.
        let b = g.param(self.b);
        let bias = [0, 1, 2, 3].map(|q| g.slice_cols(b, q * hsz, (q + 1) * hsz));
        let mut h = g.constant(Matrix::zeros(1, hsz));
        let mut c = g.constant(Matrix::zeros(1, hsz));
        let mut hs = Vec::with_capacity(xs.len());
        for &x in xs {
            let wx = g.param(self.wx);
            let wh = g.param(self.wh);
            let gx = g.matmul(x, wx);
            let gh = g.matmul(h, wh);
            let pre = g.add(gx, gh);
            let [i_pre, f_pre, g_pre, o_pre] =
                [0, 1, 2, 3].map(|q| g.slice_cols(pre, q * hsz, (q + 1) * hsz));
            let i = g.sigmoid_gate(i_pre, bias[0]);
            let f = g.sigmoid_gate(f_pre, bias[1]);
            let cand = g.tanh_gate(g_pre, bias[2]);
            let o = g.sigmoid_gate(o_pre, bias[3]);
            let fc = g.mul(f, c);
            let ig = g.mul(i, cand);
            c = g.add(fc, ig);
            let c_act = g.tanh(c);
            h = g.mul(o, c_act);
            hs.push(h);
        }
        hs
    }
}

/// `BiLstm::forward` over oracle LSTMs: both directions, then the merge
/// `Linear` per step.
struct OracleBiLstm {
    fwd: OracleLstm,
    bwd: OracleLstm,
    w: ParamId,
    b: ParamId,
}

impl OracleBiLstm {
    fn new(ps: &ParamSet, name: &str) -> Self {
        Self {
            fwd: OracleLstm::new(ps, &format!("{name}.fwd")),
            bwd: OracleLstm::new(ps, &format!("{name}.bwd")),
            w: id(ps, &format!("{name}.merge.w")),
            b: id(ps, &format!("{name}.merge.b")),
        }
    }

    fn forward(&self, g: &mut Graph, xs: &[Var]) -> Vec<Var> {
        let hs_fwd = self.fwd.forward(g, xs);
        let rev: Vec<Var> = xs.iter().rev().copied().collect();
        let mut hs_bwd = self.bwd.forward(g, &rev);
        hs_bwd.reverse();
        hs_fwd
            .iter()
            .zip(&hs_bwd)
            .map(|(&hf, &hb)| {
                let cat = g.concat_cols(&[hf, hb]);
                let w = g.param(self.w);
                let b = g.param(self.b);
                let xw = g.matmul(cat, w);
                g.add_row_broadcast(xw, b)
            })
            .collect()
    }
}

/// A layer's forward pass over one sequence of 1×d nodes.
type Forward = Box<dyn Fn(&mut Graph, &[Var]) -> Vec<Var>>;

/// The layer under test, built once and run on both tapes.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Lstm,
    Repeated,
    BiLstm,
    Stacked(usize),
}

/// One graph's worth of inputs: the sequences' rows stacked in `x`, and
/// whether they enter as a parameter (so input gradients are compared) or
/// as constants (no gradient, as the SP-LSTM baseline feeds them).
struct Case {
    kind: Kind,
    lens: Vec<usize>,
    in_dim: usize,
    hidden: usize,
    x: Matrix,
    param_inputs: bool,
    last_only: bool,
}

/// Registers the layer under test plus the input parameter `x`.
fn build(case: &Case, rng: &mut StdRng) -> (ParamSet, Forward) {
    let mut ps = ParamSet::new();
    let (i, h) = (case.in_dim, case.hidden);
    let fused: Forward = match case.kind {
        Kind::Lstm => {
            let l = Lstm::new(&mut ps, rng, "l", i, h);
            Box::new(move |g, xs| l.forward(g, xs))
        }
        Kind::Repeated => {
            let l = Lstm::new(&mut ps, rng, "l", i, h);
            Box::new(move |g, xs| l.forward_repeated(g, xs[0], xs.len()))
        }
        Kind::BiLstm => {
            let l = BiLstm::new(&mut ps, rng, "b", i, h);
            Box::new(move |g, xs| l.forward(g, xs))
        }
        Kind::Stacked(layers) => {
            let l = StackedBiLstm::new(&mut ps, rng, "s", i, h, layers);
            Box::new(move |g, xs| l.forward(g, xs))
        }
    };
    ps.register("x", case.x.clone());
    (ps, fused)
}

/// The oracle for `case.kind`, reading the ids `build` registered.
fn oracle(case: &Case, ps: &ParamSet) -> Forward {
    match case.kind {
        Kind::Lstm => {
            let l = OracleLstm::new(ps, "l");
            Box::new(move |g, xs| l.forward(g, xs))
        }
        Kind::Repeated => {
            let l = OracleLstm::new(ps, "l");
            Box::new(move |g, xs| l.forward(g, &vec![xs[0]; xs.len()]))
        }
        Kind::BiLstm => {
            let l = OracleBiLstm::new(ps, "b");
            Box::new(move |g, xs| l.forward(g, xs))
        }
        Kind::Stacked(layers) => {
            let ls: Vec<OracleBiLstm> = (0..layers)
                .map(|k| OracleBiLstm::new(ps, &format!("s.l{k}")))
                .collect();
            Box::new(move |g, xs| {
                ls.iter()
                    .fold(xs.to_vec(), |seq, layer| layer.forward(g, &seq))
            })
        }
    }
}

/// Runs every sequence of `case` through `forward` on one graph and
/// backpropagates a weighted sum of the outputs (the last output of each
/// sequence only, or all of them). Returns the outputs' bits and every
/// parameter gradient's bits.
fn run(
    case: &Case,
    ps: &ParamSet,
    forward: &dyn Fn(&mut Graph, &[Var]) -> Vec<Var>,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut g = Graph::new(ps);
    let x = if case.param_inputs {
        g.param(id(ps, "x"))
    } else {
        g.constant(case.x.clone())
    };
    let mut outputs = Vec::new();
    let mut loss: Option<Var> = None;
    let mut start = 0;
    for &len in &case.lens {
        // `forward_repeated` reads the sequence's first row at every step.
        let xs: Vec<Var> = (start..start + len).map(|r| g.row(x, r)).collect();
        start += len;
        let hs = forward(&mut g, &xs);
        outputs.extend(hs.iter().flat_map(|&h| g.value(h).data().to_vec()));
        let picked = if case.last_only {
            &hs[hs.len() - 1..]
        } else {
            &hs[..]
        };
        let stacked = g.concat_rows(picked);
        let (r, c) = g.value(stacked).shape();
        let w = g.constant(Matrix::from_fn(r, c, |i, j| {
            ((start * 7 + i * c + j) as f32 * 0.61).sin()
        }));
        let weighted = g.mul(stacked, w);
        let part = g.sum_all(weighted);
        loss = Some(match loss {
            Some(l) => g.add(l, part),
            None => part,
        });
    }
    let grads = g.backward(loss.expect("at least one sequence"));
    let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    (
        bits(&outputs),
        grads.iter().map(|(_, m)| bits(m.data())).collect(),
    )
}

fn check(case: &Case, seed: u64) -> Result<(), String> {
    let (ps, fused) = build(case, &mut StdRng::seed_from_u64(seed));
    let want = run(case, &ps, &*oracle(case, &ps));
    let got = run(case, &ps, &*fused);
    if got.0 != want.0 {
        return Err(format!(
            "{:?} lens {:?}: forward values diverged",
            case.kind, case.lens
        ));
    }
    for (k, (a, b)) in got.1.iter().zip(&want.1).enumerate() {
        if a != b {
            let name = ps.iter().nth(k).map(|(id, _)| ps.name(id).to_string());
            return Err(format!(
                "{:?} lens {:?}: gradient of {name:?} diverged",
                case.kind, case.lens
            ));
        }
    }
    Ok(())
}

/// Rows in [-1.5, 1.5) with about one exact zero in five.
fn inputs(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0..5) == 0 {
            0.0
        } else {
            rng.gen_range(-1.5..1.5)
        }
    })
}

/// Sequence lengths, input width and hidden width.
type Dims = (Vec<usize>, usize, usize);

/// Ragged sets of 1–4 sequences of 1–14 steps with odd widths included (so
/// the SIMD kernels see tails), a seed, and the two input/gradient switches.
fn shape() -> impl Strategy<Value = (Dims, u64, bool, bool)> {
    (
        (
            prop::collection::vec(1..15usize, 1..5),
            1..10usize,
            1..10usize,
        ),
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
    )
}

fn case(kind: Kind, shape: (Dims, u64, bool, bool)) -> (Case, u64) {
    let ((lens, in_dim, hidden), seed, param_inputs, last_only) = shape;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let x = inputs(&mut rng, lens.iter().sum(), in_dim);
    let case = Case {
        kind,
        lens,
        in_dim,
        hidden,
        x,
        param_inputs,
        last_only,
    };
    (case, seed)
}

proptest! {
    #[test]
    fn lstm_matches_the_per_step_tape(s in shape()) {
        let (case, seed) = case(Kind::Lstm, s);
        let checked = check(&case, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn forward_repeated_matches_the_per_step_tape(s in shape()) {
        let (case, seed) = case(Kind::Repeated, s);
        let checked = check(&case, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn bilstm_matches_the_per_step_tape(s in shape()) {
        let (case, seed) = case(Kind::BiLstm, s);
        let checked = check(&case, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn stacked_bilstm_matches_the_per_step_tape(s in shape(), layers in 1..4usize) {
        let (case, seed) = case(Kind::Stacked(layers), s);
        let checked = check(&case, seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// Paper-sized shapes (64 wide, 13 steps) on every kind, with both gradient
/// patterns: the widths the proptests above draw stay small.
#[test]
fn paper_shapes_match_the_per_step_tape() {
    for kind in [Kind::Lstm, Kind::Repeated, Kind::BiLstm, Kind::Stacked(2)] {
        for last_only in [false, true] {
            let shape = ((vec![13, 1, 5], 64, 64), 3, true, last_only);
            let (case, seed) = case(kind, shape);
            check(&case, seed).unwrap();
        }
    }
}
