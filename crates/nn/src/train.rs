//! The training loop every model shares, and its parts: gradient
//! accumulation over consecutive samples, the per-epoch visit order and
//! early stopping.
//!
//! The paper trains with batch size 1 (inputs have variable shapes) but
//! back-propagates the *average* loss of `B = 64` consecutive samples as one
//! optimiser step. `AccumTrainer` reproduces that exactly: submit one
//! gradient per sample; every `B` submissions the mean gradient (optionally
//! clipped) is applied. Every float loop in the accumulate → average → clip →
//! step pipeline runs on the dispatched SIMD kernels (`axpy`, `scale`, `dot`,
//! `adam_update`), so training is bit-identical across backends.
//!
//! [`fit`] is the one epoch loop: every trained model (autoencoder,
//! detectors, MLP, SP-RNN baselines) hands it a [`Recipe`], its items and a
//! per-item loss, and [`mean_loss`] is the one validation pass.

use crate::optim::Adam;
use crate::params::{Gradients, ParamSet};
use crate::tape::{Graph, Var};
use lead_obs::probe::{Probe, NOOP};
use std::borrow::Borrow;

/// The least loss improvement that resets the early-stopping patience.
const MIN_DELTA: f32 = 1e-4;

/// The hyper-parameters of one [`fit`] run: Adam(W) over accumulated
/// batches, global-norm clipping and early stopping.
#[derive(Clone, Copy)]
pub struct Recipe<'p> {
    /// Adam's learning rate.
    pub learning_rate: f32,
    /// Decoupled (AdamW) weight decay; 0 is plain Adam.
    pub weight_decay: f32,
    /// Samples per optimiser step (the accumulation window).
    pub batch: usize,
    /// Global gradient-norm clip applied before each step.
    pub clip_norm: f32,
    /// Epochs without a training-loss gain of at least `1e-4` before
    /// training stops.
    pub patience: usize,
    /// Upper bound on the number of epochs.
    pub max_epochs: usize,
    /// Worker threads per window (0 = all cores); results do not depend
    /// on it.
    pub num_threads: usize,
    /// Receives the epoch spans, epoch losses and the trainer's metrics.
    pub probe: &'p dyn Probe,
    /// Metric-name prefix (`ae`, `det.fwd`, …).
    pub scope: &'p str,
    /// Loss name in the epoch metrics (`mse`, `kld`, `bce`).
    pub loss: &'p str,
}

/// Trains `params` on `items` for up to `recipe.max_epochs` epochs and
/// returns `(train_curve, val_curve)`: the mean training loss of every
/// epoch and, when `val_items` is non-empty, the mean validation loss
/// ([`mean_loss`]) after every epoch.
///
/// Each epoch reshuffles the visit order (`EpochPlan`), then runs every
/// window of `recipe.batch` items through `AccumTrainer::submit_window`
/// and flushes the last partial batch. Before a window runs, `prepare` maps
/// its items one by one, in visit order, on the calling thread, so an
/// augmentation drawing from `rng` sees the same stream at any thread
/// count; a model without augmentation passes the item through. `loss`
/// records one item's loss on a fresh graph; it also scores `val_items`,
/// unprepared. Early stopping watches the training loss; the validation
/// curve is for reporting only, and no weights are restored.
///
/// With a recording probe, every epoch emits a `{scope}.epoch` span and
/// `{scope}.epoch_{loss}` / `{scope}.epoch_val_{loss}` observations, and
/// every optimiser step `{scope}.grad_norm` / `{scope}.optim_steps`. Metrics
/// are write-only: the trained bytes are the same for any probe.
///
/// # Panics
/// Panics if `items` is empty, or on a zero `batch`, `patience` or
/// non-positive `learning_rate` / `clip_norm`.
pub fn fit<'a, T, P, R, F>(
    params: &mut ParamSet,
    recipe: &Recipe<'_>,
    items: &'a [T],
    val_items: &[T],
    rng: &mut R,
    mut prepare: impl FnMut(&'a T, &mut R) -> P,
    loss: F,
) -> (Vec<f32>, Vec<f32>)
where
    T: Sync,
    P: Borrow<T> + Sync,
    R: rand::RngCore + ?Sized,
    F: Fn(&T, &mut Graph<'_>) -> Var + Sync,
{
    assert!(!items.is_empty(), "training needs samples");
    let Recipe { probe, scope, .. } = *recipe;
    // Metric names are scope-prefixed; build them once, and only when a
    // probe records them.
    let names = probe.enabled().then(|| {
        let l = recipe.loss;
        [
            format!("{scope}.epoch"),
            format!("{scope}.epoch_{l}"),
            format!("{scope}.epoch_val_{l}"),
        ]
    });
    let mut trainer = AccumTrainer::new(
        Adam::new(params, recipe.learning_rate).with_weight_decay(recipe.weight_decay),
        recipe.batch,
    )
    .with_clip_norm(recipe.clip_norm)
    .with_probe(probe, scope);
    let mut stopper = EarlyStopping::new(recipe.patience, MIN_DELTA);
    let mut plan = EpochPlan::new(items.len());
    let mut train_curve = Vec::new();
    let mut val_curve = Vec::new();
    for _epoch in 0..recipe.max_epochs {
        let _epoch_span = names
            .as_ref()
            .map(|[epoch, ..]| lead_obs::clock::span(probe, epoch));
        plan.reshuffle(rng);
        let mut total = 0.0f64;
        for window in plan.windows(recipe.batch) {
            let prepared: Vec<P> = window.iter().map(|&i| prepare(&items[i], rng)).collect();
            let losses =
                trainer.submit_window(params, recipe.num_threads, &prepared, |_, item, ps| {
                    let mut g = Graph::new(ps);
                    let l = loss(item.borrow(), &mut g);
                    (g.scalar(l), g.backward(l))
                });
            total = losses.into_iter().fold(total, |t, l| t + f64::from(l));
        }
        trainer.flush(params);
        let train_mean = crate::num::narrow_f64(total / items.len() as f64);
        train_curve.push(train_mean);
        if let Some([_, epoch_loss, _]) = &names {
            probe.observe(epoch_loss, f64::from(train_mean));
        }
        if !val_items.is_empty() {
            let val_mean = mean_loss(params, val_items, recipe.num_threads, &loss);
            val_curve.push(val_mean);
            if let Some([_, _, epoch_val_loss]) = &names {
                probe.observe(epoch_val_loss, f64::from(val_mean));
            }
        }
        if stopper.observe(train_mean) {
            break;
        }
    }
    (train_curve, val_curve)
}

/// The mean of `loss` over `items` at `params`, without training. Items
/// are scored on `num_threads` workers (0 = all cores) and summed in item
/// order, so the result is bit-identical for every thread count.
///
/// # Panics
/// Panics if `items` is empty.
pub fn mean_loss<T, F>(params: &ParamSet, items: &[T], num_threads: usize, loss: F) -> f32
where
    T: Sync,
    F: Fn(&T, &mut Graph<'_>) -> Var + Sync,
{
    assert!(!items.is_empty(), "evaluation needs samples");
    let per_item = crate::par::par_map(num_threads, items, |_, item| {
        let mut g = Graph::new(params);
        let l = loss(item, &mut g);
        g.scalar(l)
    });
    let total: f64 = per_item.into_iter().map(f64::from).sum();
    crate::num::narrow_f64(total / items.len() as f64)
}

/// Accumulates per-sample gradients and steps the optimiser every
/// `batch` submissions with the batch-mean gradient.
///
/// An optional [`Probe`] (see `AccumTrainer::with_probe`) receives the
/// pre-clip gradient norm and an optimiser-step counter on every applied
/// batch. Metric values are write-only: training is bit-identical with and
/// without a recording probe attached.
struct AccumTrainer<'p> {
    opt: Adam,
    batch: usize,
    clip_norm: Option<f32>,
    acc: Option<Gradients>,
    pending: usize,
    probe: &'p dyn Probe,
    scope: String,
}

impl AccumTrainer<'static> {
    /// Creates a trainer stepping every `batch` samples (unprobed).
    ///
    /// # Panics
    /// Panics if `batch == 0`.
    fn new(opt: Adam, batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        Self {
            opt,
            batch,
            clip_norm: None,
            acc: None,
            pending: 0,
            probe: &NOOP,
            scope: String::new(),
        }
    }
}

impl<'p> AccumTrainer<'p> {
    /// Enables global-norm gradient clipping at `max_norm` before each step.
    fn with_clip_norm(mut self, max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "clip norm must be positive");
        self.clip_norm = Some(max_norm);
        self
    }

    /// Attaches an observability probe. Each applied batch emits the
    /// pre-clip gradient norm as `<scope>.grad_norm` and bumps
    /// `<scope>.optim_steps`.
    fn with_probe<'q>(self, probe: &'q dyn Probe, scope: &str) -> AccumTrainer<'q> {
        AccumTrainer {
            opt: self.opt,
            batch: self.batch,
            clip_norm: self.clip_norm,
            acc: self.acc,
            pending: self.pending,
            probe,
            scope: scope.to_string(),
        }
    }

    /// Submits one sample's gradients; steps the optimiser when the batch
    /// fills.
    fn submit(&mut self, params: &mut ParamSet, grads: Gradients) {
        match &mut self.acc {
            Some(acc) => acc.accumulate(&grads),
            None => self.acc = Some(grads),
        }
        self.pending += 1;
        if self.pending >= self.batch {
            self.apply(params);
        }
    }

    /// Runs one accumulation window data-parallel: computes every item's
    /// `(loss, gradients)` with `f` against the shared read-only parameter
    /// snapshot, then submits the gradients **in item order**. Because the
    /// reduction order is fixed and each item's arithmetic is independent of
    /// thread interleaving, the resulting parameters (and the returned
    /// per-item losses) are bit-identical for every `num_threads`, including
    /// the exact serial path at `num_threads = 1`.
    ///
    /// Callers who want parity with a plain per-sample `submit` loop should
    /// pass windows of at most `batch` items so optimiser steps land on the
    /// same sample boundaries.
    fn submit_window<T, F>(
        &mut self,
        params: &mut ParamSet,
        num_threads: usize,
        items: &[T],
        f: F,
    ) -> Vec<f32>
    where
        T: Sync,
        F: Fn(usize, &T, &ParamSet) -> (f32, Gradients) + Sync,
    {
        let snapshot: &ParamSet = params;
        let results = crate::par::par_map(num_threads, items, |i, item| f(i, item, snapshot));
        let mut losses = Vec::with_capacity(results.len());
        for (loss, grads) in results {
            losses.push(loss);
            self.submit(params, grads);
        }
        losses
    }

    /// Applies any partially filled batch (end of epoch).
    fn flush(&mut self, params: &mut ParamSet) {
        if self.pending > 0 {
            self.apply(params);
        }
    }

    fn apply(&mut self, params: &mut ParamSet) {
        // No accumulator means no pending examples: nothing to apply.
        let Some(mut acc) = self.acc.take() else {
            self.pending = 0;
            return;
        };
        acc.scale(1.0 / crate::num::exact_usize_f32(self.pending));
        let probing = self.probe.enabled();
        if let Some(max) = self.clip_norm {
            // The pre-clip norm is computed by the clip either way; only the
            // probe emission is conditional, so results never depend on it.
            let pre_clip = acc.clip_global_norm(max);
            if probing {
                self.probe
                    .observe(&format!("{}.grad_norm", self.scope), f64::from(pre_clip));
            }
        } else if probing {
            self.probe.observe(
                &format!("{}.grad_norm", self.scope),
                f64::from(acc.global_norm()),
            );
        }
        if probing {
            self.probe.count(&format!("{}.optim_steps", self.scope), 1);
        }
        self.opt.step(params, &acc);
        self.pending = 0;
    }
}

/// The per-epoch visit order of a training set: a persistent permutation
/// that is reshuffled in place at the top of every epoch.
///
/// Persistence is part of the determinism contract. [`fit`] shuffles the
/// *previous* epoch's order rather than a fresh identity permutation;
/// rebuilding from identity each epoch would consume the same RNG draws but
/// visit samples in a different sequence, changing gradient order and
/// breaking bit-for-bit reproducibility with the historical loops.
#[derive(Debug, Clone)]
struct EpochPlan {
    order: Vec<usize>,
}

impl EpochPlan {
    /// A plan over `len` samples, starting as the identity permutation.
    fn new(len: usize) -> Self {
        Self {
            order: (0..len).collect(),
        }
    }

    /// Reshuffles the current order in place (Fisher–Yates, one draw per
    /// element past the first — identical RNG consumption for any content).
    fn reshuffle<R: rand::RngCore + ?Sized>(&mut self, rng: &mut R) {
        use rand::seq::SliceRandom;
        self.order.shuffle(rng);
    }

    /// The current order split into accumulation windows of at most
    /// `batch` samples (the last may be shorter).
    fn windows(&self, batch: usize) -> std::slice::Chunks<'_, usize> {
        self.order.chunks(batch)
    }
}

/// Early stopping on a loss (Caruana et al. 2000), the paper's overfitting
/// guard. [`fit`] feeds it the training loss.
#[derive(Debug, Clone)]
struct EarlyStopping {
    patience: usize,
    min_delta: f32,
    best: f32,
    bad_streak: usize,
}

impl EarlyStopping {
    /// Stops after `patience` consecutive epochs without improving the best
    /// loss by at least `min_delta`.
    fn new(patience: usize, min_delta: f32) -> Self {
        assert!(patience > 0, "patience must be positive");
        Self {
            patience,
            min_delta,
            best: f32::INFINITY,
            bad_streak: 0,
        }
    }

    /// Records one epoch's loss; returns `true` when training should stop.
    fn observe(&mut self, loss: f32) -> bool {
        if loss < self.best - self.min_delta {
            self.best = loss;
            self.bad_streak = 0;
        } else {
            self.bad_streak += 1;
        }
        self.bad_streak >= self.patience
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::tape::Graph;

    #[test]
    fn accum_trainer_steps_once_per_batch() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::zeros(1, 1));
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.01), 4);
        for i in 0..8 {
            let mut g = ps.zero_gradients();
            g.get_mut(w).data_mut()[0] = 1.0;
            tr.submit(&mut ps, g);
            let expect = (i + 1) / 4;
            assert_eq!(tr.opt.steps(), expect as u64, "after sample {i}");
        }
    }

    #[test]
    fn flush_applies_partial_batch() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::zeros(1, 1));
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.01), 64);
        let mut g = ps.zero_gradients();
        g.get_mut(w).data_mut()[0] = 1.0;
        tr.submit(&mut ps, g);
        assert_eq!(tr.opt.steps(), 0);
        tr.flush(&mut ps);
        assert_eq!(tr.opt.steps(), 1);
        tr.flush(&mut ps); // idempotent when nothing pending
        assert_eq!(tr.opt.steps(), 1);
    }

    #[test]
    fn accumulated_mean_matches_single_large_batch() {
        // Two samples with gradients 1 and 3 must step with mean 2.
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::zeros(1, 1));
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.01), 2);
        for v in [1.0, 3.0] {
            let mut g = ps.zero_gradients();
            g.get_mut(w).data_mut()[0] = v;
            tr.submit(&mut ps, g);
        }
        // Compare to Adam stepped directly with gradient 2.0 (first Adam step
        // size depends only on sign for constant gradients, so compare values).
        let mut ps2 = ParamSet::new();
        let w2 = ps2.register("w", Matrix::zeros(1, 1));
        let mut opt = Adam::new(&ps2, 0.01);
        let mut g = ps2.zero_gradients();
        g.get_mut(w2).data_mut()[0] = 2.0;
        opt.step(&mut ps2, &g);
        assert!((ps.value(w).at(0, 0) - ps2.value(w2).at(0, 0)).abs() < 1e-7);
    }

    #[test]
    fn trainer_reduces_real_loss() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(1, 2, vec![2.0, -2.0]));
        let target = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.05), 8).with_clip_norm(5.0);
        let loss_at = |ps: &ParamSet| {
            let mut g = Graph::new(ps);
            let wv = g.param(w);
            let l = g.mse_loss(wv, &target);
            g.scalar(l)
        };
        let before = loss_at(&ps);
        for _ in 0..1600 {
            let mut g = Graph::new(&ps);
            let wv = g.param(w);
            let l = g.mse_loss(wv, &target);
            let grads = g.backward(l);
            tr.submit(&mut ps, grads);
        }
        tr.flush(&mut ps);
        assert!(loss_at(&ps) < before * 0.01);
    }

    #[test]
    fn early_stopping_triggers_after_patience() {
        let mut es = EarlyStopping::new(3, 0.0);
        assert!(!es.observe(1.0));
        assert!(!es.observe(0.5)); // improvement
        assert!(!es.observe(0.6));
        assert!(!es.observe(0.7));
        assert!(es.observe(0.8)); // third bad epoch
    }

    #[test]
    fn early_stopping_min_delta_counts_tiny_gains_as_bad() {
        let mut es = EarlyStopping::new(2, 0.1);
        assert!(!es.observe(1.0));
        assert!(!es.observe(0.99)); // gain < min_delta → bad epoch 1
        assert!(es.observe(0.98)); // bad epoch 2 → stop
    }

    #[test]
    fn epoch_plan_matches_the_historical_inline_shuffle() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        // The pre-EpochPlan loops kept one order vec alive across epochs and
        // shuffled it in place; the plan must reproduce that sequence of
        // permutations exactly, draw for draw.
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let mut order: Vec<usize> = (0..23).collect();
        let mut plan = EpochPlan::new(23);
        for _ in 0..5 {
            order.shuffle(&mut rng_a);
            plan.reshuffle(&mut rng_b);
            let chunked: Vec<&[usize]> = order.chunks(4).collect();
            let windows: Vec<&[usize]> = plan.windows(4).collect();
            assert_eq!(windows, chunked);
        }
    }

    fn targets() -> Vec<Matrix> {
        (0..10)
            .map(|i| Matrix::from_vec(1, 2, vec![i as f32 * 0.1, 1.0 - i as f32 * 0.05]))
            .collect()
    }

    fn fresh_params() -> (ParamSet, crate::params::ParamId) {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(1, 2, vec![0.7, -0.4]));
        (ps, w)
    }

    fn bits(ps: &ParamSet) -> Vec<u32> {
        ps.iter()
            .flat_map(|(_, m)| m.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn recipe(num_threads: usize, probe: &dyn Probe) -> Recipe<'_> {
        Recipe {
            learning_rate: 0.05,
            weight_decay: 0.0,
            batch: 4,
            clip_norm: 5.0,
            patience: 2,
            max_epochs: 300,
            num_threads,
            probe,
            scope: "t",
            loss: "mse",
        }
    }

    #[test]
    fn fit_matches_the_per_sample_loop_bitwise() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let targets = targets();
        let jitter = |t: &Matrix, rng: &mut StdRng| {
            Matrix::from_fn(1, 2, |_, c| t.at(0, c) + rng.gen_range(-0.05..0.05))
        };
        let item_loss = |ps: &ParamSet, w, t: &Matrix| {
            let mut g = Graph::new(ps);
            let wv = g.param(w);
            let l = g.mse_loss(wv, t);
            (g.scalar(l), g.backward(l))
        };
        // The loop the models ran before `fit`: one persistent order
        // shuffled in place, each item jittered just before its pass, one
        // gradient per item submitted in visit order, then a serial
        // validation pass over the unjittered items.
        let (mut ps, w) = fresh_params();
        let mut rng = StdRng::seed_from_u64(3);
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.05), 4).with_clip_norm(5.0);
        let mut stopper = EarlyStopping::new(2, MIN_DELTA);
        let mut order: Vec<usize> = (0..targets.len()).collect();
        let (mut curve, mut val_curve) = (Vec::new(), Vec::new());
        let mean = |total: f64| crate::num::narrow_f64(total / targets.len() as f64);
        for _ in 0..300 {
            order.shuffle(&mut rng);
            let mut total = 0.0f64;
            for &i in &order {
                let (loss, grads) = item_loss(&ps, w, &jitter(&targets[i], &mut rng));
                total += f64::from(loss);
                tr.submit(&mut ps, grads);
            }
            tr.flush(&mut ps);
            curve.push(mean(total));
            let val = targets.iter().map(|t| f64::from(item_loss(&ps, w, t).0));
            val_curve.push(mean(val.sum()));
            if stopper.observe(mean(total)) {
                break;
            }
        }
        assert!(curve.len() < 300, "early stopping never fired");
        let reference = (bits(&ps), curve, val_curve);

        for threads in [1, 2, 4] {
            let (mut ps, w) = fresh_params();
            let mut rng = StdRng::seed_from_u64(3);
            let (curve, val_curve) = fit(
                &mut ps,
                &recipe(threads, &NOOP),
                &targets,
                &targets,
                &mut rng,
                jitter,
                |t, g| {
                    let wv = g.param(w);
                    g.mse_loss(wv, t)
                },
            );
            assert_eq!(
                (bits(&ps), curve, val_curve),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fit_emits_scoped_metrics_without_changing_the_result() {
        use lead_obs::Recorder;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let targets = targets();
        let run = |probe: &dyn Probe| {
            let (mut ps, w) = fresh_params();
            let mut rng = StdRng::seed_from_u64(5);
            let recipe = Recipe {
                max_epochs: 3,
                ..recipe(1, probe)
            };
            let curves = fit(
                &mut ps,
                &recipe,
                &targets,
                &targets[..3],
                &mut rng,
                |t, _| t,
                |t, g| {
                    let wv = g.param(w);
                    g.mse_loss(wv, t)
                },
            );
            (bits(&ps), curves)
        };
        let rec = Recorder::new();
        assert_eq!(run(&rec), run(&NOOP), "probe changed the arithmetic");
        let snap = rec.snapshot();
        let count = |set: &[(String, lead_obs::Summary)], name: &str| {
            set.iter().find(|(n, _)| n == name).map(|(_, s)| s.count)
        };
        assert_eq!(count(&snap.spans, "t.epoch"), Some(3));
        assert_eq!(count(&snap.histograms, "t.epoch_mse"), Some(3));
        assert_eq!(count(&snap.histograms, "t.epoch_val_mse"), Some(3));
        // Three optimiser steps per epoch: windows of 4, 4 and 2 items.
        assert_eq!(count(&snap.histograms, "t.grad_norm"), Some(9));
        assert_eq!(rec.counter("t.optim_steps"), Some(9));
    }

    #[test]
    fn exploding_gradients_are_survivable_with_clipping() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Matrix::from_vec(1, 2, vec![0.1, -0.1]));
        let mut tr = AccumTrainer::new(Adam::new(&ps, 0.01), 1).with_clip_norm(1.0);
        for _ in 0..5 {
            let mut g = ps.zero_gradients();
            g.get_mut(w).data_mut().copy_from_slice(&[1e20, -1e20]);
            tr.submit(&mut ps, g);
        }
        assert!(ps.value(w).data().iter().all(|v| v.is_finite()));
        // Clipped steps are bounded: 5 steps of ≤ lr each.
        assert!(ps.value(w).frobenius_norm() < 1.0);
    }
}
