//! The tape-free inference path against the tape forward, bit for bit.
//!
//! `Lstm::infer`, `BiLstm::infer` and `StackedBiLstm::infer` run a ragged
//! batch of sequences at once; the tape runs one sequence per graph. Every
//! hidden state must match `to_bits`, for any mix of lengths (singletons
//! included) in any order — the batch sorts sequences by length internally,
//! so ascending and descending input orders exercise both directions of that
//! reordering.

use lead_nn::layers::{BiLstm, Lstm, StackedBiLstm};
use lead_nn::{Graph, Matrix, ParamSet, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random `len × dim` sequence per length, values in [-1.5, 1.5) with
/// a sprinkling of exact zeros (the kernels' sparsity skip).
fn sequences(rng: &mut StdRng, lens: &[usize], dim: usize) -> Vec<Matrix> {
    lens.iter()
        .map(|&len| {
            Matrix::from_fn(len, dim, |_, _| {
                if rng.gen_range(0..8) == 0 {
                    0.0
                } else {
                    rng.gen_range(-1.5..1.5)
                }
            })
        })
        .collect()
}

/// Runs `forward` on the tape, one graph per sequence, and stacks each
/// sequence's outputs as rows.
fn tape_rows(
    ps: &ParamSet,
    seqs: &[Matrix],
    forward: impl Fn(&mut Graph, &[Var]) -> Vec<Var>,
) -> Vec<Matrix> {
    seqs.iter()
        .map(|seq| {
            let mut g = Graph::new(ps);
            let xs: Vec<Var> = (0..seq.rows())
                .map(|r| g.constant(Matrix::row_vector(seq.row(r).to_vec())))
                .collect();
            let hs = forward(&mut g, &xs);
            let rows: Vec<&Matrix> = hs.iter().map(|&h| g.value(h)).collect();
            Matrix::concat_rows(&rows)
        })
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Checks one batch order: packs `seqs`, runs `infer`, and compares each
/// sequence's rows with its tape rows.
fn check_order(
    seqs: &[Matrix],
    want: &[Matrix],
    infer: &impl Fn(&Matrix, &[usize]) -> Matrix,
) -> Result<(), String> {
    let refs: Vec<&Matrix> = seqs.iter().collect();
    let lens: Vec<usize> = seqs.iter().map(Matrix::rows).collect();
    let got = infer(&Matrix::concat_rows(&refs), &lens);
    let mut start = 0;
    for (s, (&len, w)) in lens.iter().zip(want).enumerate() {
        let rows = got.slice_rows(start, start + len);
        if bits(&rows) != bits(w) {
            return Err(format!("sequence {s} of lengths {lens:?} diverged"));
        }
        start += len;
    }
    Ok(())
}

/// Checks the drawn order, then ascending and descending length order.
fn check_all_orders(
    seqs: Vec<Matrix>,
    want: Vec<Matrix>,
    infer: impl Fn(&Matrix, &[usize]) -> Matrix,
) -> Result<(), String> {
    let mut pairs: Vec<(Matrix, Matrix)> = seqs.into_iter().zip(want).collect();
    let run = |pairs: &[(Matrix, Matrix)]| {
        let (s, w): (Vec<Matrix>, Vec<Matrix>) = pairs.iter().cloned().unzip();
        check_order(&s, &w, &infer)
    };
    run(&pairs)?;
    pairs.sort_by_key(|(s, _)| s.rows());
    run(&pairs)?;
    pairs.reverse();
    run(&pairs)
}

/// Batch shapes: 1–6 sequences of 1–14 steps, with odd widths so the SIMD
/// kernels see tails.
fn batch() -> impl Strategy<Value = (Vec<usize>, usize, usize, u64)> {
    (
        prop::collection::vec(1..15usize, 1..7),
        1..11usize,
        1..10usize,
        any::<u64>(),
    )
}

proptest! {
    #[test]
    fn lstm_infer_matches_the_tape(shape in batch()) {
        let (lens, in_dim, hidden, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamSet::new();
        let lstm = Lstm::new(&mut ps, &mut rng, "l", in_dim, hidden);
        let seqs = sequences(&mut rng, &lens, in_dim);
        let want = tape_rows(&ps, &seqs, |g, xs| lstm.forward(g, xs));
        let checked = check_all_orders(seqs, want, |x, l| lstm.infer(&ps, x, l));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn bilstm_infer_matches_the_tape(shape in batch()) {
        let (lens, in_dim, hidden, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamSet::new();
        let bl = BiLstm::new(&mut ps, &mut rng, "b", in_dim, hidden);
        let seqs = sequences(&mut rng, &lens, in_dim);
        let want = tape_rows(&ps, &seqs, |g, xs| bl.forward(g, xs));
        let checked = check_all_orders(seqs, want, |x, l| bl.infer(&ps, x, l));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn stacked_bilstm_infer_matches_the_tape(shape in batch(), layers in 1..4usize) {
        let (lens, in_dim, hidden, seed) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamSet::new();
        let st = StackedBiLstm::new(&mut ps, &mut rng, "s", in_dim, hidden, layers);
        let seqs = sequences(&mut rng, &lens, in_dim);
        let want = tape_rows(&ps, &seqs, |g, xs| st.forward(g, xs));
        let checked = check_all_orders(seqs, want, |x, l| st.infer(&ps, x, l));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

#[test]
fn singleton_batches_match_the_tape() {
    // All-singleton and one-long-plus-singletons batches: the step batch
    // shrinks from its full width to one row after the first step.
    let mut rng = StdRng::seed_from_u64(7);
    let mut ps = ParamSet::new();
    let st = StackedBiLstm::new(&mut ps, &mut rng, "s", 5, 6, 2);
    for lens in [vec![1], vec![1, 1, 1], vec![14, 1, 1, 1], vec![1, 1, 14]] {
        let seqs = sequences(&mut rng, &lens, 5);
        let want = tape_rows(&ps, &seqs, |g, xs| st.forward(g, xs));
        check_all_orders(seqs, want, |x, l| st.infer(&ps, x, l)).unwrap();
    }
}

#[test]
#[should_panic(expected = "empty sequence")]
fn empty_sequence_in_a_batch_panics() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut ps = ParamSet::new();
    let lstm = Lstm::new(&mut ps, &mut rng, "l", 3, 4);
    let _ = lstm.infer(&ps, &Matrix::zeros(2, 3), &[2, 0]);
}
