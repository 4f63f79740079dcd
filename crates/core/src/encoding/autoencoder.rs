//! The hierarchical autoencoder (Section IV-B, Figure 5).
//!
//! **Compressor** (two phases): phase 1 compresses each `sp-f-seq` and
//! `mp-f-seq` with two dedicated operators; phase 2 compresses the resulting
//! `SP-c-vec-seq` and `MP-c-vec-seq` with two more operators; the `c-vec` is
//! the concatenation `[SP-c-vec | MP-c-vec]` (2 × 32 = 64 wide).
//!
//! **Decompressor** (symmetric): phase 1 expands each half of the `c-vec`
//! back into per-stay/per-move vectors; phase 2 expands each of those into a
//! feature sequence of the original length. Training minimises the MSE
//! between the input feature sequences and their reconstructions
//! (Equation (8)), self-supervised over the candidate trajectories of the
//! historical archive.
//!
//! The `LEAD-NoHie` ablation ([`EncoderKind::Flat`]) removes both the
//! stay/move separation and the hierarchy: a single operator pair processes
//! the interleaved flat feature sequence. Its hidden width is doubled so the
//! `c-vec` keeps the 64-dimensional budget — the comparison isolates the
//! *structure*, not capacity.

use crate::config::LeadConfig;
use crate::features::{CandidateFeatures, TrajectoryFeatures, FEATURE_DIM};
use crate::processing::Candidate;
use lead_nn::optim::Adam;
use lead_nn::train::{AccumTrainer, EarlyStopping, EpochPlan};
use lead_nn::{Graph, Matrix, ParamSet, Var};
use rand::Rng;
use std::collections::BTreeMap;

/// Which encoder architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// The paper's hierarchical, stay/move-separated autoencoder.
    Hierarchical,
    /// The `LEAD-NoHie` ablation: one flat operator pair.
    Flat,
}

use super::operator::{CompressionOperator, DecompressionOperator};

#[expect(
    clippy::large_enum_variant,
    reason = "the flat variant is one ablation and the enum is built once per model"
)]
enum Arch {
    Hierarchical {
        comp_sp1: CompressionOperator,
        comp_mp1: CompressionOperator,
        comp_sp2: CompressionOperator,
        comp_mp2: CompressionOperator,
        dec_sp1: DecompressionOperator,
        dec_mp1: DecompressionOperator,
        dec_sp2: DecompressionOperator,
        dec_mp2: DecompressionOperator,
    },
    Flat {
        comp: CompressionOperator,
        dec: DecompressionOperator,
    },
}

/// The candidate-trajectory autoencoder; after training, its compressor maps
/// any candidate to a `c-vec`.
pub struct Autoencoder {
    params: ParamSet,
    arch: Arch,
    hidden: usize,
}

/// [`Autoencoder::encode`] as a free function over the architecture, so the
/// parallel training windows can share `&Arch` while the trainer holds the
/// mutable `ParamSet`.
fn encode_arch(arch: &Arch, g: &mut Graph, input: &CandidateFeatures) -> Var {
    input.validate();
    match arch {
        Arch::Hierarchical {
            comp_sp1,
            comp_mp1,
            comp_sp2,
            comp_mp2,
            ..
        } => {
            let sp_vecs: Vec<Var> = input
                .sp_seqs
                .iter()
                .map(|m| comp_sp1.compress_matrix(g, m))
                .collect();
            let mp_vecs: Vec<Var> = input
                .mp_seqs
                .iter()
                .map(|m| comp_mp1.compress_matrix(g, m))
                .collect();
            let sp_c = comp_sp2.compress_vars(g, &sp_vecs);
            let mp_c = comp_mp2.compress_vars(g, &mp_vecs);
            g.concat_cols(&[sp_c, mp_c])
        }
        Arch::Flat { comp, .. } => comp.compress_matrix(g, &input.interleaved()),
    }
}

/// [`Autoencoder::reconstruction_loss`] as a free function (see
/// [`encode_arch`] for why).
fn reconstruction_loss_arch(
    arch: &Arch,
    hidden: usize,
    g: &mut Graph,
    input: &CandidateFeatures,
) -> Var {
    let c_vec = encode_arch(arch, g, input);
    match arch {
        Arch::Hierarchical {
            dec_sp1,
            dec_mp1,
            dec_sp2,
            dec_mp2,
            ..
        } => {
            let h = hidden;
            let v_sp = g.slice_cols(c_vec, 0, h);
            let v_mp = g.slice_cols(c_vec, h, 2 * h);
            // Phase 1: c-vec halves → per-stay / per-move vectors.
            let sp_cvec_seq = dec_sp1.decompress(g, v_sp, input.sp_seqs.len());
            let mp_cvec_seq = dec_mp1.decompress(g, v_mp, input.mp_seqs.len());
            // Phase 2: each vector → its feature sequence.
            let mut recs: Vec<Var> = Vec::with_capacity(input.sp_seqs.len() + input.mp_seqs.len());
            for (k, target) in input.sp_seqs.iter().enumerate() {
                let v = g.row(sp_cvec_seq, k);
                recs.push(dec_sp2.decompress(g, v, target.rows()));
            }
            for (k, target) in input.mp_seqs.iter().enumerate() {
                let v = g.row(mp_cvec_seq, k);
                recs.push(dec_mp2.decompress(g, v, target.rows()));
            }
            let rec_all = g.concat_rows(&recs);
            let target_refs: Vec<&Matrix> =
                input.sp_seqs.iter().chain(input.mp_seqs.iter()).collect();
            let target_all = Matrix::concat_rows(&target_refs);
            g.mse_loss(rec_all, &target_all)
        }
        Arch::Flat { dec, .. } => {
            let target = input.interleaved();
            let rec = dec.decompress(g, c_vec, target.rows());
            g.mse_loss(rec, &target)
        }
    }
}

impl Autoencoder {
    /// Builds an untrained autoencoder.
    ///
    /// `use_attention = false` reproduces `LEAD-NoSel`.
    pub fn new<R: Rng>(
        config: &LeadConfig,
        kind: EncoderKind,
        use_attention: bool,
        rng: &mut R,
    ) -> Self {
        let h = config.ae_hidden;
        let mut ps = ParamSet::new();
        let arch = match kind {
            EncoderKind::Hierarchical => Arch::Hierarchical {
                comp_sp1: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp_sp1",
                    FEATURE_DIM,
                    h,
                    use_attention,
                ),
                comp_mp1: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp_mp1",
                    FEATURE_DIM,
                    h,
                    use_attention,
                ),
                comp_sp2: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp_sp2",
                    h,
                    h,
                    use_attention,
                ),
                comp_mp2: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp_mp2",
                    h,
                    h,
                    use_attention,
                ),
                dec_sp1: DecompressionOperator::new(&mut ps, rng, "ae.dec_sp1", h, h, h),
                dec_mp1: DecompressionOperator::new(&mut ps, rng, "ae.dec_mp1", h, h, h),
                dec_sp2: DecompressionOperator::new(&mut ps, rng, "ae.dec_sp2", h, h, FEATURE_DIM),
                dec_mp2: DecompressionOperator::new(&mut ps, rng, "ae.dec_mp2", h, h, FEATURE_DIM),
            },
            EncoderKind::Flat => Arch::Flat {
                comp: CompressionOperator::new(
                    &mut ps,
                    rng,
                    "ae.comp",
                    FEATURE_DIM,
                    2 * h,
                    use_attention,
                ),
                dec: DecompressionOperator::new(&mut ps, rng, "ae.dec", 2 * h, 2 * h, FEATURE_DIM),
            },
        };
        Self {
            params: ps,
            arch,
            hidden: h,
        }
    }

    /// Width of the compressed vector (64 at paper settings, for both kinds).
    pub fn c_vec_dim(&self) -> usize {
        2 * self.hidden
    }

    /// The architecture kind.
    pub fn kind(&self) -> EncoderKind {
        match self.arch {
            Arch::Hierarchical { .. } => EncoderKind::Hierarchical,
            Arch::Flat { .. } => EncoderKind::Flat,
        }
    }

    /// Number of trainable scalars (diagnostics).
    pub fn num_weights(&self) -> usize {
        self.params.num_scalars()
    }

    /// The trainable parameters (persistence).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the trainable parameters (persistence: load trained
    /// weights into a freshly constructed architecture).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Records the compressor on `g`, returning the 1×c_vec node of `input`.
    pub fn encode(&self, g: &mut Graph, input: &CandidateFeatures) -> Var {
        encode_arch(&self.arch, g, input)
    }

    /// Records compressor + decompressor + MSE reconstruction loss on `g`.
    pub fn reconstruction_loss(&self, g: &mut Graph, input: &CandidateFeatures) -> Var {
        reconstruction_loss_arch(&self.arch, self.hidden, g, input)
    }

    /// Trains the autoencoder self-supervised on the given candidate feature
    /// sequences (pre-shuffled order is re-shuffled each epoch). Returns
    /// `(train_curve, val_curve)`: the per-epoch mean MSE (Figure 9) and,
    /// when `val_samples` is given, the per-epoch validation MSE (reporting
    /// only; early stopping observes the training loss).
    ///
    /// `probe` records an `ae.epoch` span plus `ae.epoch_mse` /
    /// `ae.epoch_val_mse` observations and the trainer's `ae.grad_norm` /
    /// `ae.optim_steps`. Metrics are write-only — the trained weights are
    /// identical for any probe, [`lead_obs::probe::NOOP`] included.
    pub fn train<R: Rng>(
        &mut self,
        samples: &[CandidateFeatures],
        val_samples: Option<&[CandidateFeatures]>,
        config: &LeadConfig,
        rng: &mut R,
        probe: &dyn lead_obs::probe::Probe,
    ) -> (Vec<f32>, Vec<f32>) {
        assert!(!samples.is_empty(), "autoencoder training needs samples");
        let mut trainer = AccumTrainer::new(
            Adam::new(&self.params, config.learning_rate),
            config.batch_accumulation,
        )
        .with_clip_norm(config.grad_clip_norm)
        .with_probe(probe, "ae");
        let mut stopper = EarlyStopping::new(config.early_stopping_patience, 1e-4);
        let mut plan = EpochPlan::new(samples.len());
        let mut train_curve = Vec::new();
        let mut val_curve = Vec::new();
        let arch = &self.arch;
        let hidden = self.hidden;
        for _epoch in 0..config.ae_max_epochs {
            let _epoch_span = lead_obs::clock::span(probe, "ae.epoch");
            plan.reshuffle(rng);
            let mut total = 0.0f64;
            // Each accumulation window's forward/backward passes run
            // data-parallel against the parameter snapshot; gradients are
            // submitted in item order, so every `num_threads` value yields
            // the exact optimiser trajectory of the serial per-sample loop.
            for window in plan.windows(config.batch_accumulation) {
                let losses = trainer.submit_window(
                    &mut self.params,
                    config.num_threads,
                    window,
                    |_, &i, ps| {
                        let mut g = Graph::new(ps);
                        let loss = reconstruction_loss_arch(arch, hidden, &mut g, &samples[i]);
                        (g.scalar(loss), g.backward(loss))
                    },
                );
                for l in losses {
                    total += l as f64;
                }
            }
            trainer.flush(&mut self.params);
            let train_mean = lead_nn::num::narrow_f64(total / samples.len() as f64);
            train_curve.push(train_mean);
            if probe.enabled() {
                probe.observe("ae.epoch_mse", f64::from(train_mean));
            }
            if let Some(v) = val_samples {
                if !v.is_empty() {
                    let val_mean = self.evaluate_par(v, config.num_threads);
                    val_curve.push(val_mean);
                    if probe.enabled() {
                        probe.observe("ae.epoch_val_mse", f64::from(val_mean));
                    }
                }
            }
            if stopper.observe(train_mean) {
                break;
            }
        }
        (train_curve, val_curve)
    }

    /// Computes the loss of every sample without training (validation).
    pub fn evaluate(&self, samples: &[CandidateFeatures]) -> f32 {
        self.evaluate_par(samples, 1)
    }

    /// [`Self::evaluate`] on `num_threads` workers (0 = all cores). The sum
    /// over samples runs in item order, so the result is bit-identical for
    /// every thread count.
    pub fn evaluate_par(&self, samples: &[CandidateFeatures], num_threads: usize) -> f32 {
        assert!(!samples.is_empty(), "evaluation needs samples");
        let per_sample = lead_nn::par::par_map(num_threads, samples, |_, s| {
            let mut g = Graph::new(&self.params);
            let loss = self.reconstruction_loss(&mut g, s);
            g.scalar(loss)
        });
        let total: f64 = per_sample.iter().map(|&l| l as f64).sum();
        lead_nn::num::narrow_f64(total / samples.len() as f64)
    }

    /// Encodes a single candidate into its `c-vec` value (no gradients kept).
    pub fn encode_value(&self, input: &CandidateFeatures) -> Matrix {
        let mut g = Graph::new(&self.params);
        let v = self.encode(&mut g, input);
        g.value(v).clone()
    }

    /// Encodes every candidate of a trajectory on the tape-free inference
    /// path, sharing work across candidates. The result for each candidate
    /// is bit-identical to [`Self::encode_value`].
    ///
    /// Two structures make the sharing exact:
    /// - a candidate's `c-vec` depends on its stay/move points only through
    ///   their phase-1 vectors, so phase 1 runs once, all stay sequences as
    ///   one batch and all move sequences as another;
    /// - the phase-2 LSTMs read left to right, so the candidates starting at
    ///   stay point `i` are prefixes of one run over `sp_vals[i..]` and
    ///   `mp_vals[i..]`. Each start runs once; the attention, FC layers and
    ///   `tanh` then run per candidate over its prefix. The flat variant's
    ///   interleaved sequence of `(i, j + 1)` extends that of `(i, j)` the
    ///   same way.
    ///
    /// Starts run on `num_threads` workers (0 = all cores). Results are
    /// returned in candidate order and are bit-identical for every thread
    /// count.
    pub fn encode_all(
        &self,
        tf: &TrajectoryFeatures,
        candidates: &[Candidate],
        num_threads: usize,
    ) -> Vec<Matrix> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let ps = &self.params;
        // Candidate indexes grouped by start, each group in candidate order.
        let mut by_start: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (k, c) in candidates.iter().enumerate() {
            by_start.entry(c.start_sp).or_default().push(k);
        }
        let end_of = |k: &usize| candidates[*k].end_sp;
        // (start, farthest end, candidate indexes) per start stay point.
        let groups: Vec<(usize, usize, Vec<usize>)> = by_start
            .into_iter()
            .map(|(i, ks)| (i, ks.iter().map(end_of).max().unwrap_or(i + 1), ks))
            .collect();
        let per_start: Vec<Matrix> = match &self.arch {
            Arch::Hierarchical {
                comp_sp1,
                comp_mp1,
                comp_sp2,
                comp_mp2,
                ..
            } => {
                let sp_vals = comp_sp1.infer_batch(ps, &tf.sp_seqs);
                let mp_vals = comp_mp1.infer_batch(ps, &tf.mp_seqs);
                lead_nn::par::par_map(num_threads, &groups, |_, &(i, last, ref ks)| {
                    let sp_lens: Vec<usize> = ks.iter().map(|k| end_of(k) - i + 1).collect();
                    let mp_lens: Vec<usize> = ks.iter().map(|k| end_of(k) - i).collect();
                    let sp =
                        comp_sp2.infer_prefixes(ps, &sp_vals.slice_rows(i, last + 1), &sp_lens);
                    let mp = comp_mp2.infer_prefixes(ps, &mp_vals.slice_rows(i, last), &mp_lens);
                    Matrix::concat_cols(&[&sp, &mp])
                })
            }
            Arch::Flat { comp, .. } => {
                lead_nn::par::par_map(num_threads, &groups, |_, &(i, last, ref ks)| {
                    // Rows of the interleaved sequence up to and including sp_j.
                    let rows_through = |j: usize| -> usize {
                        let sp: usize = tf.sp_seqs[i..=j].iter().map(Matrix::rows).sum();
                        let mp: usize = tf.mp_seqs[i..j].iter().map(Matrix::rows).sum();
                        sp + mp
                    };
                    let lens: Vec<usize> = ks.iter().map(|k| rows_through(end_of(k))).collect();
                    let seq = tf.candidate(Candidate::new(i, last)).interleaved();
                    comp.infer_prefixes(ps, &seq, &lens)
                })
            }
        };
        let mut out: Vec<(usize, Matrix)> = groups
            .iter()
            .zip(&per_start)
            .flat_map(|((_, _, ks), rows)| {
                ks.iter()
                    .enumerate()
                    .map(move |(r, &k)| (k, rows.slice_rows(r, r + 1)))
            })
            .collect();
        out.sort_by_key(|&(k, _)| k);
        out.into_iter().map(|(_, c_vec)| c_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_candidate(seed: u64, n_sp: usize) -> CandidateFeatures {
        let mut v = seed as f32 * 0.01;
        let mut next = || {
            v = (v * 1.7 + 0.31).sin() * 0.8;
            v
        };
        let sp_seqs = (0..n_sp)
            .map(|_| Matrix::from_fn(4, FEATURE_DIM, |_, _| next()))
            .collect();
        let mp_seqs = (0..n_sp - 1)
            .map(|_| Matrix::from_fn(3, FEATURE_DIM, |_, _| next()))
            .collect();
        CandidateFeatures { sp_seqs, mp_seqs }
    }

    fn small_cfg() -> LeadConfig {
        LeadConfig::fast_test()
    }

    #[test]
    fn encode_shapes_for_both_kinds() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [EncoderKind::Hierarchical, EncoderKind::Flat] {
            let ae = Autoencoder::new(&cfg, kind, true, &mut rng);
            assert_eq!(ae.kind(), kind);
            let c = ae.encode_value(&toy_candidate(3, 3));
            assert_eq!(c.shape(), (1, ae.c_vec_dim()));
            assert_eq!(ae.c_vec_dim(), 2 * cfg.ae_hidden);
            assert!(c.data().iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn reconstruction_loss_is_finite_and_positive() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(2);
        let ae = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
        let mut g = Graph::new(&ae.params);
        let loss = ae.reconstruction_loss(&mut g, &toy_candidate(5, 4));
        let l = g.scalar(loss);
        assert!(l.is_finite() && l > 0.0);
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let mut cfg = small_cfg();
        cfg.ae_max_epochs = 8;
        cfg.learning_rate = 3e-3;
        cfg.batch_accumulation = 4;
        let mut rng = StdRng::seed_from_u64(3);
        let mut ae = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
        let samples: Vec<CandidateFeatures> = (0..8).map(|s| toy_candidate(s, 2)).collect();
        let (curve, _) = ae.train(&samples, None, &cfg, &mut rng, &lead_obs::probe::NOOP);
        assert!(curve.len() >= 2);
        let first = curve[0];
        let last = *curve.last().unwrap();
        assert!(last < first, "loss should fall: {curve:?}");
    }

    /// A trajectory of `n` stay points whose stay and move sequences have
    /// ragged lengths (2–5 and 1–3 rows), so phase-1 batches are ragged too.
    fn toy_trajectory(seed: u64, n: usize) -> TrajectoryFeatures {
        let mut v = seed as f32 * 0.01;
        let mut next = || {
            v = (v * 1.7 + 0.31).sin() * 0.8;
            v
        };
        let sp_seqs = (0..n)
            .map(|k| Matrix::from_fn(2 + k % 4, FEATURE_DIM, |_, _| next()))
            .collect();
        let mp_seqs = (0..n - 1)
            .map(|k| Matrix::from_fn(1 + k % 3, FEATURE_DIM, |_, _| next()))
            .collect();
        TrajectoryFeatures { sp_seqs, mp_seqs }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn encode_all_matches_per_candidate_encoding() {
        // The inference path shares phase 1 and the phase-2 prefixes across
        // candidates; every c-vec must still be the tape's, bit for bit, for
        // both architectures with and without attention.
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(4);
        for kind in [EncoderKind::Hierarchical, EncoderKind::Flat] {
            for use_attention in [true, false] {
                let ae = Autoencoder::new(&cfg, kind, use_attention, &mut rng);
                for n in 2..=14 {
                    let tf = toy_trajectory(7 + n as u64, n);
                    let candidates = crate::processing::enumerate_candidates(n);
                    let cached = ae.encode_all(&tf, &candidates, 1);
                    for threads in [2, 4] {
                        let par = ae.encode_all(&tf, &candidates, threads);
                        for (a, b) in cached.iter().zip(par.iter()) {
                            assert_eq!(bits(a), bits(b), "threads={threads}");
                        }
                    }
                    for (c, cv) in candidates.iter().zip(cached.iter()) {
                        let direct = ae.encode_value(&tf.candidate(*c));
                        assert_eq!(
                            bits(cv),
                            bits(&direct),
                            "{kind:?} attention={use_attention} n={n} {c:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encode_all_serves_any_candidate_subset_in_order() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(8);
        let ae = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
        let tf = toy_trajectory(3, 6);
        let subset = [
            Candidate::new(3, 5),
            Candidate::new(0, 2),
            Candidate::new(3, 4),
            Candidate::new(1, 5),
        ];
        let got = ae.encode_all(&tf, &subset, 1);
        for (c, cv) in subset.iter().zip(&got) {
            assert_eq!(bits(cv), bits(&ae.encode_value(&tf.candidate(*c))));
        }
        assert!(ae.encode_all(&tf, &[], 1).is_empty());
    }

    #[test]
    fn flat_kind_keeps_c_vec_width() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(5);
        let ae = Autoencoder::new(&cfg, EncoderKind::Flat, false, &mut rng);
        let c = ae.encode_value(&toy_candidate(9, 2));
        assert_eq!(c.cols(), 2 * cfg.ae_hidden);
    }

    #[test]
    fn evaluate_is_deterministic() {
        let cfg = small_cfg();
        let mut rng = StdRng::seed_from_u64(6);
        let ae = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
        let samples = vec![toy_candidate(1, 3), toy_candidate(2, 2)];
        assert_eq!(ae.evaluate(&samples), ae.evaluate(&samples));
    }
}
