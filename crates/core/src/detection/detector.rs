//! The forward/backward detector (Section V-B, Figure 7): a stacked BiLSTM
//! over each subgroup, a shared 1-unit output layer, and a per-subgroup
//! softmax (Equation (10)).
//!
//! One `GroupDetector` instance serves as the forward detector (fed forward
//! subgroups) and another as the backward detector (fed backward subgroups);
//! the two "share the same structure" but not parameters.

use crate::config::LeadConfig;
use lead_nn::layers::{Linear, StackedBiLstm};
use lead_nn::train::Recipe;
use lead_nn::{Graph, Matrix, ParamSet, Var};
use rand::Rng;
use std::borrow::Cow;

/// One training item: a group's subgroup c-vec lists paired with its flat
/// ε-smoothed label distribution.
pub(crate) type GroupItem = (Vec<Vec<Matrix>>, Matrix);

/// A stacked-BiLSTM subgroup detector.
pub struct GroupDetector {
    params: ParamSet,
    stack: StackedBiLstm,
    out: Linear,
}

impl GroupDetector {
    /// Builds an untrained detector over `c_vec_dim`-wide compressed vectors
    /// with the configured `L` layers and 64 hidden units.
    pub fn new<R: Rng>(config: &LeadConfig, c_vec_dim: usize, rng: &mut R) -> Self {
        let mut ps = ParamSet::new();
        let stack = StackedBiLstm::new(
            &mut ps,
            rng,
            "det.stack",
            c_vec_dim,
            config.detector_hidden,
            config.detector_layers,
        );
        let out = Linear::new(&mut ps, rng, "det.out", config.detector_hidden, 1);
        Self {
            params: ps,
            stack,
            out,
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

    /// Mutable access to the trainable parameters (persistence).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Records the detector on `g` over one group (list of subgroups, each a
    /// list of c-vecs); returns the flat probability node (1 × m) over all
    /// candidates, in subgroup-concatenation order.
    ///
    /// Each subgroup is processed by the stacked BiLSTM **independently**
    /// (Equation (10)'s per-subgroup calculation, preserving the analogy
    /// relationships), but the softmax is taken over the *concatenated*
    /// logits of all subgroups rather than per subgroup. A literal
    /// per-subgroup softmax degenerates for singleton subgroups — the last
    /// forward subgroup `g_{n−1}` has one member whose probability would be
    /// pinned at exactly 1.0, making it the unconditional argmax whenever a
    /// single detector is used (the `LEAD-NoFor`/`-NoBac` ablations would be
    /// meaningless). The global softmax keeps the output a proper
    /// distribution matching the label distribution of Section V-C; see
    /// DESIGN.md for the full rationale.
    ///
    /// # Panics
    /// Panics if the group or any subgroup is empty.
    pub fn forward_graph(&self, g: &mut Graph, subgroups: &[Vec<&Matrix>]) -> Var {
        forward_graph_parts(&self.stack, &self.out, g, subgroups)
    }

    /// The flat probability distribution over one group, as values, on the
    /// tape-free inference path: the global softmax of [`Self::logits`].
    /// The result is bit-identical to [`Self::forward_graph`].
    ///
    /// # Panics
    /// Panics if the group or any subgroup is empty.
    pub fn probabilities(&self, subgroups: &[Vec<&Matrix>]) -> Vec<f32> {
        softmax(&self.logits(subgroups))
    }

    /// The logit of every candidate of one group, in subgroup-concatenation
    /// order: all subgroups run through the stacked BiLSTM as one ragged
    /// batch, reading the weights in place. Each subgroup is still its own
    /// sequence, so a subgroup's logits do not depend on which other
    /// subgroups share the batch.
    ///
    /// # Panics
    /// Panics if the group or any subgroup is empty.
    pub fn logits(&self, subgroups: &[Vec<&Matrix>]) -> Vec<f32> {
        assert!(!subgroups.is_empty(), "empty group");
        assert!(subgroups.iter().all(|s| !s.is_empty()), "empty subgroup");
        let rows: Vec<&Matrix> = subgroups.iter().flatten().copied().collect();
        let lens: Vec<usize> = subgroups.iter().map(Vec::len).collect();
        let hs = self
            .stack
            .infer(&self.params, &Matrix::concat_rows(&rows), &lens);
        self.out.infer(&self.params, &hs).data().to_vec()
    }

    /// Trains against ε-smoothed labels with the KLD loss (Equations
    /// (11)–(12)). Returns `(train_curve, val_curve)`: the per-epoch mean
    /// training KLD (Figure 10) and, when `val_items` is non-empty, the
    /// per-epoch validation KLD. Early stopping observes the training loss:
    /// at this dataset scale the validation split is too small for its loss
    /// to be a reliable stopping signal (it is recorded for reporting and
    /// diagnostics).
    ///
    /// Each training item pairs a group (subgroup c-vec lists) with its flat
    /// label distribution (matching the group's flattening order).
    ///
    /// `probe` records a `{scope}.epoch` span plus `{scope}.epoch_kld` /
    /// `{scope}.epoch_val_kld` observations and the trainer's
    /// `{scope}.grad_norm` / `{scope}.optim_steps` (the pipeline uses scopes
    /// `det.fwd` and `det.bwd`). Metrics are write-only — the trained
    /// weights are identical for any probe, [`lead_obs::probe::NOOP`]
    /// included.
    pub fn train<R: Rng>(
        &mut self,
        items: &[GroupItem],
        val_items: &[GroupItem],
        config: &LeadConfig,
        rng: &mut R,
        probe: &dyn lead_obs::probe::Probe,
        scope: &str,
    ) -> (Vec<f32>, Vec<f32>) {
        let (stack, out) = (&self.stack, &self.out);
        let noise_std = config.cvec_noise_std;
        lead_nn::train::fit(
            &mut self.params,
            &Recipe {
                weight_decay: config.detector_weight_decay,
                probe,
                scope,
                loss: "kld",
                ..config.recipe(config.detector_max_epochs)
            },
            items,
            val_items,
            rng,
            // Augmentation: jitter the frozen compressed vectors so the
            // detector cannot memorise exact embeddings of the (small)
            // training fleet. `fit` draws it serially, in item order, before
            // each parallel window, so the rng stream is the same for every
            // `num_threads`; validation items are scored unjittered.
            |item, rng| {
                let (group, label) = item;
                if noise_std > 0.0 {
                    let noisy = group
                        .iter()
                        .map(|sub| {
                            sub.iter()
                                .map(|m| {
                                    let mut jittered = m.clone();
                                    for v in jittered.data_mut() {
                                        *v += gauss(rng) * noise_std;
                                    }
                                    jittered
                                })
                                .collect()
                        })
                        .collect();
                    Cow::Owned((noisy, label.clone()))
                } else {
                    Cow::Borrowed(item)
                }
            },
            |(group, label), g| {
                let refs: Vec<Vec<&Matrix>> =
                    group.iter().map(|sub| sub.iter().collect()).collect();
                let p = forward_graph_parts(stack, out, g, &refs);
                g.kld_loss(p, label)
            },
        )
    }
}

/// [`GroupDetector::forward_graph`] over the detector's layers as a free
/// function, so the parallel training windows can share the layer handles
/// while the trainer holds the mutable `ParamSet`.
fn forward_graph_parts(
    stack: &StackedBiLstm,
    out: &Linear,
    g: &mut Graph,
    subgroups: &[Vec<&Matrix>],
) -> Var {
    assert!(!subgroups.is_empty(), "empty group");
    let mut logits = Vec::with_capacity(subgroups.len());
    for sub in subgroups {
        assert!(!sub.is_empty(), "empty subgroup");
        let xs: Vec<Var> = sub.iter().map(|m| g.constant((*m).clone())).collect();
        let hs = stack.forward(g, &xs);
        let sub_logits: Vec<Var> = hs.iter().map(|&h| out.forward(g, h)).collect();
        logits.push(g.concat_cols(&sub_logits));
    }
    let row = g.concat_cols(&logits);
    g.softmax_rows(row)
}

/// The global softmax of a group's flat logits (see
/// [`GroupDetector::forward_graph`]).
pub(crate) fn softmax(logits: &[f32]) -> Vec<f32> {
    Matrix::from_vec(1, logits.len(), logits.to_vec())
        .softmax_rows()
        .data()
        .to_vec()
}

/// Standard normal sample (Box–Muller) for the c-vec augmentation.
fn gauss<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::{build_groups, forward_flat_order, smoothed_label};
    use crate::processing::Candidate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> LeadConfig {
        LeadConfig::fast_test()
    }

    /// c-vecs keyed by candidate; deterministic pseudo-random contents with a
    /// strong signature on the "true" candidate.
    fn cvecs_for(n: usize, dim: usize, truth: Candidate) -> Vec<Vec<Matrix>> {
        let groups = build_groups(n);
        groups
            .forward
            .iter()
            .map(|sub| {
                sub.iter()
                    .map(|c| {
                        Matrix::from_fn(1, dim, |_, k| {
                            let base =
                                ((c.start_sp * 31 + c.end_sp * 17 + k) as f32 * 0.7).sin() * 0.3;
                            if *c == truth && k < 4 {
                                base + 0.9
                            } else {
                                base
                            }
                        })
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn forward_graph_emits_a_distribution_over_all_candidates() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(11);
        let det = GroupDetector::new(&c, 8, &mut rng);
        let groups = cvecs_for(5, 8, Candidate::new(0, 2));
        let refs: Vec<Vec<&Matrix>> = groups.iter().map(|s| s.iter().collect()).collect();
        let p = det.probabilities(&refs);
        assert_eq!(p.len(), 10);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-5, "distribution sum {s}");
        assert!(p.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn singleton_subgroup_is_not_pinned_to_one() {
        // The global softmax must not give the lone member of the last
        // forward subgroup probability 1.0 (the per-subgroup degeneracy).
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(12);
        let det = GroupDetector::new(&c, 8, &mut rng);
        let groups = cvecs_for(4, 8, Candidate::new(0, 1));
        let refs: Vec<Vec<&Matrix>> = groups.iter().map(|s| s.iter().collect()).collect();
        let p = det.probabilities(&refs);
        // Last entry corresponds to the singleton subgroup g_{n−1}.
        assert!(*p.last().unwrap() < 0.99);
    }

    #[test]
    fn training_reduces_kld_and_finds_truth() {
        let mut c = cfg();
        c.detector_max_epochs = 30;
        c.learning_rate = 3e-3;
        c.batch_accumulation = 4;
        let mut rng = StdRng::seed_from_u64(13);
        let dim = 8;
        let n = 4;
        let truth = Candidate::new(1, 3);
        let mut det = GroupDetector::new(&c, dim, &mut rng);
        // Several samples with the same signature pattern.
        let items: Vec<(Vec<Vec<Matrix>>, Matrix)> = (0..6)
            .map(|_| {
                let groups = cvecs_for(n, dim, truth);
                let label = smoothed_label(&forward_flat_order(n), truth, c.label_epsilon);
                (groups, label)
            })
            .collect();
        let (curve, _) = det.train(&items, &[], &c, &mut rng, &lead_obs::probe::NOOP, "det");
        assert!(curve.last().unwrap() < &curve[0], "curve {curve:?}");

        let refs: Vec<Vec<&Matrix>> = items[0].0.iter().map(|s| s.iter().collect()).collect();
        let p = det.probabilities(&refs);
        let order = forward_flat_order(n);
        let best = order[p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0];
        assert_eq!(best, truth, "probs {p:?}");
    }

    #[test]
    fn probabilities_match_the_tape_bit_for_bit() {
        // The batched inference path against `forward_graph` on both group
        // shapes: forward subgroups shrink (n−1, …, 1 members), backward
        // subgroups grow (1, …, n−1).
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(19);
        let det = GroupDetector::new(&c, 8, &mut rng);
        for n in 2..=14 {
            let groups = build_groups(n);
            for side in [&groups.forward, &groups.backward] {
                let cvecs: Vec<Vec<Matrix>> = side
                    .iter()
                    .map(|sub| {
                        sub.iter()
                            .map(|cand| {
                                Matrix::from_fn(1, 8, |_, k| {
                                    ((cand.start_sp * 13 + cand.end_sp * 5 + k) as f32 * 0.37).sin()
                                })
                            })
                            .collect()
                    })
                    .collect();
                let refs: Vec<Vec<&Matrix>> = cvecs.iter().map(|s| s.iter().collect()).collect();
                let mut g = Graph::new(det.params());
                let p = det.forward_graph(&mut g, &refs);
                let want: Vec<u32> = g.value(p).data().iter().map(|v| v.to_bits()).collect();
                let got: Vec<u32> = det
                    .probabilities(&refs)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "n={n}");
            }
        }
    }

    #[test]
    fn group_logits_are_the_concatenated_subgroup_logits() {
        // Streaming reuses the logits of closed backward subgroups, which is
        // exact only if a subgroup's logits do not depend on the rest of the
        // batch.
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(29);
        let det = GroupDetector::new(&c, 8, &mut rng);
        for n in 2..=14 {
            let groups = build_groups(n);
            for side in [&groups.forward, &groups.backward] {
                let cvecs: Vec<Vec<Matrix>> = side
                    .iter()
                    .map(|sub| {
                        sub.iter()
                            .map(|cand| {
                                Matrix::from_fn(1, 8, |_, k| {
                                    ((cand.start_sp * 7 + cand.end_sp * 11 + k) as f32 * 0.29).cos()
                                })
                            })
                            .collect()
                    })
                    .collect();
                let refs: Vec<Vec<&Matrix>> = cvecs.iter().map(|s| s.iter().collect()).collect();
                let whole: Vec<u32> = det.logits(&refs).iter().map(|v| v.to_bits()).collect();
                let alone: Vec<u32> = refs
                    .iter()
                    .flat_map(|sub| det.logits(std::slice::from_ref(sub)))
                    .map(f32::to_bits)
                    .collect();
                assert_eq!(whole, alone, "n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty subgroup")]
    fn empty_subgroup_rejected() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(23);
        let det = GroupDetector::new(&c, 4, &mut rng);
        let m = Matrix::zeros(1, 4);
        let _ = det.probabilities(&[vec![&m], vec![]]);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_rejected() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(17);
        let det = GroupDetector::new(&c, 4, &mut rng);
        let _ = det.probabilities(&[]);
    }
}
