//! The `LEAD-NoGro` ablation detector (Section VI-A, Variants): the group
//! generation (and with it the BiLSTM detectors) is removed; each candidate's
//! compressed vector is scored *independently* by four fully connected layers
//! (64 → 32 → 32 → 1) with a sigmoid on the last — so no inclusion,
//! exclusion, or analogy relationship can inform the score.

use crate::config::LeadConfig;
use lead_nn::layers::Linear;
use lead_nn::train::Recipe;
use lead_nn::{Graph, Matrix, ParamSet, Var};
use rand::Rng;

/// The per-candidate MLP scorer.
pub struct MlpDetector {
    params: ParamSet,
    layers: [Linear; 4],
}

impl MlpDetector {
    /// Builds the paper's 64/32/32/1 architecture over `c_vec_dim` inputs.
    pub fn new<R: Rng>(c_vec_dim: usize, rng: &mut R) -> Self {
        let mut ps = ParamSet::new();
        let layers = [
            Linear::new(&mut ps, rng, "mlp.l1", c_vec_dim, 64),
            Linear::new(&mut ps, rng, "mlp.l2", 64, 32),
            Linear::new(&mut ps, rng, "mlp.l3", 32, 32),
            Linear::new(&mut ps, rng, "mlp.l4", 32, 1),
        ];
        Self { params: ps, layers }
    }

    /// The trainable parameters (persistence).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the trainable parameters (persistence).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// The sigmoid probability of a single candidate.
    pub fn probability(&self, c_vec: &Matrix) -> f32 {
        let mut g = Graph::new(&self.params);
        let z = logit(&self.layers, &mut g, c_vec);
        let p = g.sigmoid(z);
        g.value(p).at(0, 0)
    }

    /// Probabilities of a whole candidate list (still independent scores).
    pub fn probabilities<'a>(&self, c_vecs: impl IntoIterator<Item = &'a Matrix>) -> Vec<f32> {
        c_vecs.into_iter().map(|c| self.probability(c)).collect()
    }

    /// Trains with per-candidate binary cross-entropy: the loaded candidate
    /// of each trajectory is the positive, all others negatives.
    ///
    /// `items` pairs each trajectory's candidate c-vecs with the index of the
    /// loaded one. Returns `(train_curve, val_curve)`: the per-epoch mean BCE
    /// and, when `val_items` is non-empty, the per-epoch validation BCE
    /// (reporting only; early stopping observes the training loss).
    ///
    /// `probe` records a `det.mlp.epoch` span plus `det.mlp.epoch_bce` /
    /// `det.mlp.epoch_val_bce` observations and the trainer's
    /// `det.mlp.grad_norm` / `det.mlp.optim_steps`. Metrics are write-only —
    /// the trained weights are identical for any probe,
    /// [`lead_obs::probe::NOOP`] included.
    pub fn train<R: Rng>(
        &mut self,
        items: &[(Vec<Matrix>, usize)],
        val_items: &[(Vec<Matrix>, usize)],
        config: &LeadConfig,
        rng: &mut R,
        probe: &dyn lead_obs::probe::Probe,
    ) -> (Vec<f32>, Vec<f32>) {
        let layers = &self.layers;
        lead_nn::train::fit(
            &mut self.params,
            &Recipe {
                probe,
                scope: "det.mlp",
                loss: "bce",
                ..config.recipe(config.detector_max_epochs)
            },
            items,
            val_items,
            rng,
            |item, _| item,
            |(c_vecs, truth_idx), g| {
                let logits: Vec<Var> = c_vecs.iter().map(|c| logit(layers, g, c)).collect();
                let row = g.concat_cols(&logits);
                let mut y = vec![0.0f32; c_vecs.len()];
                y[*truth_idx] = 1.0;
                g.bce_with_logits_loss(row, &Matrix::row_vector(y))
            },
        )
    }
}

/// Records the logit of one c-vec (sigmoid is folded into the loss /
/// applied at inference): the layers with a ReLU between each pair.
fn logit(layers: &[Linear; 4], g: &mut Graph, c_vec: &Matrix) -> Var {
    let mut x = g.constant(c_vec.clone());
    for (k, layer) in layers.iter().enumerate() {
        if k > 0 {
            x = g.relu(x);
        }
        x = layer.forward(g, x);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cvec(signature: f32, dim: usize, salt: usize) -> Matrix {
        Matrix::from_fn(1, dim, |_, k| {
            ((salt * 13 + k) as f32 * 0.3).sin() * 0.2 + if k < 3 { signature } else { 0.0 }
        })
    }

    #[test]
    fn probability_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let det = MlpDetector::new(8, &mut rng);
        let p = det.probability(&cvec(0.5, 8, 1));
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn training_separates_positive_candidates() {
        let mut cfg = LeadConfig::fast_test();
        cfg.detector_max_epochs = 40;
        cfg.learning_rate = 5e-3;
        cfg.batch_accumulation = 4;
        let mut rng = StdRng::seed_from_u64(2);
        let dim = 8;
        let mut det = MlpDetector::new(dim, &mut rng);
        // Positives carry +0.8 on the first dims; negatives −0.2.
        let items: Vec<(Vec<Matrix>, usize)> = (0..10)
            .map(|s| {
                let mut cv: Vec<Matrix> = (0..5).map(|k| cvec(-0.2, dim, s * 7 + k)).collect();
                cv[2] = cvec(0.8, dim, s * 7 + 99);
                (cv, 2usize)
            })
            .collect();
        let (curve, _) = det.train(&items, &[], &cfg, &mut rng, &lead_obs::probe::NOOP);
        assert!(curve.last().unwrap() < &curve[0]);
        let p_pos = det.probability(&cvec(0.8, dim, 1234));
        let p_neg = det.probability(&cvec(-0.2, dim, 4321));
        assert!(p_pos > p_neg, "pos {p_pos} vs neg {p_neg}");
    }
}
