//! The end-to-end LEAD framework: offline training ([`Lead::fit`]) and online
//! detection ([`Lead::detect`]), plus the ablation-variant switchboard
//! ([`LeadOptions`]).
//!
//! Both stages are fallible ([`crate::error::LeadError`]) and observable:
//! [`Lead::fit_opts`] and [`DetectOptions::probe`] accept a `lead_obs` probe
//! that receives per-stage spans, counters, and training curves. Metrics are
//! write-only — attaching a recording probe never changes a result bit
//! (pinned by `crates/core/tests/obs_parity.rs`).

use crate::config::{ConfigError, LeadConfig};
use crate::detection::{
    argmax_candidate, backward_flat_order, build_groups, forward_flat_order, merge_probabilities,
    smoothed_label, softmax, GroupDetector, MlpDetector,
};
use crate::encoding::{Autoencoder, EncoderKind, Phase1Rows};
use crate::error::LeadError;
use crate::features::{FeatureExtractor, Normalizer, TrajectoryFeatures};
use crate::label::{truth_stay_indices, TruthLabel};
use crate::poi::PoiDatabase;
use crate::processing::{Candidate, ProcessedTrajectory};
use crate::source::{SampleSource, SliceSamples};
use lead_nn::Matrix;
use lead_obs::clock;
use lead_obs::probe::{Probe, NOOP};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which detector(s) score the candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorChoice {
    /// Forward + backward detectors, merged (full LEAD).
    Both,
    /// Forward detector only (`LEAD-NoBac`).
    ForwardOnly,
    /// Backward detector only (`LEAD-NoFor`).
    BackwardOnly,
    /// Per-candidate MLP, no grouping (`LEAD-NoGro`).
    Mlp,
}

impl DetectorChoice {
    /// Whether this choice has a forward detector.
    fn has_forward(self) -> bool {
        matches!(self, Self::Both | Self::ForwardOnly)
    }

    /// Whether this choice has a backward detector.
    fn has_backward(self) -> bool {
        matches!(self, Self::Both | Self::BackwardOnly)
    }
}

/// The variant switchboard of Section VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeadOptions {
    /// `false` → `LEAD-NoPoi`: POI features replaced by zero padding.
    pub use_poi: bool,
    /// `false` → `LEAD-NoSel`: last hidden state instead of self-attention.
    pub use_attention: bool,
    /// `false` → `LEAD-NoHie`: one flat operator pair in the autoencoder.
    pub hierarchical: bool,
    /// Detector configuration.
    pub detector: DetectorChoice,
}

impl LeadOptions {
    /// Full LEAD.
    pub fn full() -> Self {
        Self {
            use_poi: true,
            use_attention: true,
            hierarchical: true,
            detector: DetectorChoice::Both,
        }
    }

    /// `LEAD-NoPoi`.
    pub fn no_poi() -> Self {
        Self {
            use_poi: false,
            ..Self::full()
        }
    }

    /// `LEAD-NoSel`.
    pub fn no_sel() -> Self {
        Self {
            use_attention: false,
            ..Self::full()
        }
    }

    /// `LEAD-NoHie`.
    pub fn no_hie() -> Self {
        Self {
            hierarchical: false,
            ..Self::full()
        }
    }

    /// `LEAD-NoGro`.
    pub fn no_gro() -> Self {
        Self {
            detector: DetectorChoice::Mlp,
            ..Self::full()
        }
    }

    /// `LEAD-NoFor`.
    pub fn no_for() -> Self {
        Self {
            detector: DetectorChoice::BackwardOnly,
            ..Self::full()
        }
    }

    /// `LEAD-NoBac`.
    pub fn no_bac() -> Self {
        Self {
            detector: DetectorChoice::ForwardOnly,
            ..Self::full()
        }
    }

    /// The paper's name for this variant.
    pub fn name(&self) -> &'static str {
        if !self.use_poi {
            "LEAD-NoPoi"
        } else if !self.use_attention {
            "LEAD-NoSel"
        } else if !self.hierarchical {
            "LEAD-NoHie"
        } else {
            match self.detector {
                DetectorChoice::Both => "LEAD",
                DetectorChoice::ForwardOnly => "LEAD-NoBac",
                DetectorChoice::BackwardOnly => "LEAD-NoFor",
                DetectorChoice::Mlp => "LEAD-NoGro",
            }
        }
    }
}

impl Default for LeadOptions {
    fn default() -> Self {
        Self::full()
    }
}

/// One labelled training trajectory.
#[derive(Debug, Clone)]
pub struct TrainSample {
    /// The raw GPS trajectory (one truck, one day).
    pub raw: lead_geo::Trajectory,
    /// The archived loaded trajectory's time intervals.
    pub truth: TruthLabel,
}

/// Loss curves and bookkeeping from the offline stage.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Per-epoch mean MSE of the (hierarchical) autoencoder — Figure 9.
    pub ae_curve: Vec<f32>,
    /// Per-epoch mean KLD of the forward detector — Figure 10.
    pub forward_kld_curve: Vec<f32>,
    /// Per-epoch mean KLD of the backward detector — Figure 10.
    pub backward_kld_curve: Vec<f32>,
    /// Per-epoch mean BCE of the `NoGro` MLP (empty otherwise).
    pub mlp_curve: Vec<f32>,
    /// Per-epoch validation MSE of the autoencoder (empty without a
    /// validation split).
    pub ae_val_curve: Vec<f32>,
    /// Per-epoch validation KLD of the forward detector.
    pub forward_val_kld_curve: Vec<f32>,
    /// Per-epoch validation KLD of the backward detector.
    pub backward_val_kld_curve: Vec<f32>,
    /// Trajectories used for detector training.
    pub used_samples: usize,
    /// Trajectories skipped (fewer than 2 stay points, or the ground truth
    /// did not map onto extracted stay points).
    pub skipped_samples: usize,
}

/// The result of detecting the loaded trajectory in one raw trajectory.
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// The processed trajectory all indexes refer to.
    pub processed: ProcessedTrajectory,
    /// Merged probabilities over candidates in the canonical (forward
    /// flattening) order.
    pub probabilities: Vec<f32>,
    /// The detected loaded trajectory `⟨sp_{i'} --→ sp_{j'}⟩`.
    pub detected: Candidate,
}

impl DetectionResult {
    /// The detected loaded trajectory's time span `(start_s, end_s)`.
    pub fn loaded_interval_s(&self) -> (i64, i64) {
        let pts = self.processed.cleaned.points();
        let sp_l = &self.processed.stay_points[self.detected.start_sp];
        let sp_u = &self.processed.stay_points[self.detected.end_sp];
        (pts[sp_l.start].t, pts[sp_u.end].t)
    }

    /// The detected loaded trajectory as a GPS point sequence.
    pub fn loaded_trajectory(&self) -> lead_geo::Trajectory {
        self.processed.candidate_trajectory(self.detected)
    }
}

/// A trained LEAD model.
///
/// ```no_run
/// use lead_core::config::LeadConfig;
/// use lead_core::error::LeadError;
/// use lead_core::pipeline::{Lead, LeadOptions, TrainSample};
/// use lead_core::poi::PoiDatabase;
///
/// # fn demo(train: Vec<TrainSample>, val: Vec<TrainSample>,
/// #         poi_db: PoiDatabase, raw: lead_geo::Trajectory) -> Result<(), LeadError> {
/// // Offline stage: learn from the historical archive.
/// let (model, report) =
///     Lead::fit_with_val(&train, &val, &poi_db, &LeadConfig::paper(), LeadOptions::full())?;
/// println!("autoencoder converged to MSE {:?}", report.ae_curve.last());
///
/// // Persist for the online service.
/// model.save("hct.lead")?;
///
/// // Online stage: detect the loaded trajectory of an unseen raw trajectory.
/// let model = Lead::load("hct.lead")?;
/// if let Some(result) = model.detect(&raw, &poi_db) {
///     let (start_s, end_s) = result.loaded_interval_s();
///     println!("loaded trajectory ⟨sp_{} --→ sp_{}⟩ spans {start_s}–{end_s}",
///              result.detected.start_sp, result.detected.end_sp);
/// }
/// # Ok(()) }
/// ```
pub struct Lead {
    config: LeadConfig,
    options: LeadOptions,
    normalizer: Normalizer,
    autoencoder: Autoencoder,
    forward_det: Option<GroupDetector>,
    backward_det: Option<GroupDetector>,
    mlp: Option<MlpDetector>,
}

impl Lead {
    /// Builds an untrained model with freshly initialised weights — the
    /// skeleton [`crate::persist`] fills when loading a saved model. Rejects
    /// invalid configurations (including ones read from a model file).
    pub(crate) fn new_untrained(
        config: &LeadConfig,
        options: LeadOptions,
        normalizer: Normalizer,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let kind = if options.hierarchical {
            EncoderKind::Hierarchical
        } else {
            EncoderKind::Flat
        };
        let autoencoder = Autoencoder::new(config, kind, options.use_attention, &mut rng);
        let c_dim = autoencoder.c_vec_dim();
        let choice = options.detector;
        let forward_det = choice
            .has_forward()
            .then(|| GroupDetector::new(config, c_dim, &mut rng));
        let backward_det = choice
            .has_backward()
            .then(|| GroupDetector::new(config, c_dim, &mut rng));
        let mlp = (choice == DetectorChoice::Mlp).then(|| MlpDetector::new(c_dim, &mut rng));
        Ok(Lead {
            config: config.clone(),
            options,
            normalizer,
            autoencoder,
            forward_det,
            backward_det,
            mlp,
        })
    }

    pub(crate) fn normalizer_ref(&self) -> &Normalizer {
        &self.normalizer
    }

    pub(crate) fn autoencoder_ref(&self) -> &Autoencoder {
        &self.autoencoder
    }

    pub(crate) fn autoencoder_mut(&mut self) -> &mut Autoencoder {
        &mut self.autoencoder
    }

    pub(crate) fn forward_det_ref(&self) -> Option<&GroupDetector> {
        self.forward_det.as_ref()
    }

    pub(crate) fn forward_det_mut(&mut self) -> Option<&mut GroupDetector> {
        self.forward_det.as_mut()
    }

    pub(crate) fn backward_det_ref(&self) -> Option<&GroupDetector> {
        self.backward_det.as_ref()
    }

    pub(crate) fn backward_det_mut(&mut self) -> Option<&mut GroupDetector> {
        self.backward_det.as_mut()
    }

    pub(crate) fn mlp_ref(&self) -> Option<&MlpDetector> {
        self.mlp.as_ref()
    }

    pub(crate) fn mlp_mut(&mut self) -> Option<&mut MlpDetector> {
        self.mlp.as_mut()
    }

    /// The offline stage: trains the hierarchical autoencoder
    /// (self-supervised) and the detector(s) (supervised by archived loaded
    /// trajectories) on the training split. Early stopping observes the
    /// training loss; [`Self::fit_with_val`] adds per-epoch validation
    /// curves to the report.
    ///
    /// # Errors
    /// [`LeadError::Config`] on an invalid configuration;
    /// [`LeadError::NoTrainableSamples`] when no sample survives processing.
    pub fn fit(
        samples: &[TrainSample],
        poi_db: &PoiDatabase,
        config: &LeadConfig,
        options: LeadOptions,
    ) -> Result<(Self, TrainingReport), LeadError> {
        Self::fit_opts(samples, &[], poi_db, config, options, &NOOP)
    }

    /// [`Self::fit`] with a validation split, scored after every epoch of
    /// every training stage; the autoencoder's and group detectors' scores
    /// fill the report's `*_val_*` curves. The split is for reporting only:
    /// early stopping still observes the training loss, and the last
    /// epoch's weights are kept (no best-validation restore).
    ///
    /// # Errors
    /// [`LeadError::Config`] on an invalid configuration;
    /// [`LeadError::NoTrainableSamples`] when no sample survives processing.
    pub fn fit_with_val(
        samples: &[TrainSample],
        val_samples: &[TrainSample],
        poi_db: &PoiDatabase,
        config: &LeadConfig,
        options: LeadOptions,
    ) -> Result<(Self, TrainingReport), LeadError> {
        Self::fit_opts(samples, val_samples, poi_db, config, options, &NOOP)
    }

    /// [`Self::fit_with_val`] with an observability probe. The probe
    /// receives stage spans (`fit`, `fit.features`, `fit.autoencoder`,
    /// `fit.encode`, `fit.detectors`), per-trajectory processing counters,
    /// per-epoch losses (`ae.epoch_mse`, `det.fwd.epoch_kld`, …), and
    /// gradient norms from the trainer. Metrics are write-only: the trained
    /// model and report are bit-identical for any probe.
    ///
    /// # Errors
    /// [`LeadError::Config`] on an invalid configuration;
    /// [`LeadError::NoTrainableSamples`] when no sample survives processing.
    pub fn fit_opts(
        samples: &[TrainSample],
        val_samples: &[TrainSample],
        poi_db: &PoiDatabase,
        config: &LeadConfig,
        options: LeadOptions,
        probe: &dyn Probe,
    ) -> Result<(Self, TrainingReport), LeadError> {
        let mut train = SliceSamples::new(samples);
        let mut val = SliceSamples::new(val_samples);
        Self::fit_core(&mut train, Some(&mut val), poi_db, config, options, probe)
    }

    /// The offline stage over streaming [`SampleSource`]s: identical
    /// training to [`Self::fit_opts`], but raw samples are ingested one
    /// shard at a time, so peak raw-sample memory is bounded by the largest
    /// shard instead of the whole dataset. For the same seed and dataset the
    /// trained model, loss curves, and report are **bit-identical** to the
    /// in-RAM path at any shard size (pinned by
    /// `crates/core/tests/streaming_parity.rs`). With `val` `None` the
    /// model trains without a validation split.
    ///
    /// # Errors
    /// [`LeadError::Config`] on an invalid configuration;
    /// [`LeadError::Source`] when a source fails to read or validate;
    /// [`LeadError::NoTrainableSamples`] when no sample survives processing.
    pub fn fit_streaming(
        train: &mut dyn SampleSource,
        val: Option<&mut dyn SampleSource>,
        poi_db: &PoiDatabase,
        config: &LeadConfig,
        options: LeadOptions,
        fit: &FitOptions<'_>,
    ) -> Result<(Self, TrainingReport), LeadError> {
        let cfg_override;
        let config = if let Some(t) = fit.num_threads {
            let mut cfg = config.clone();
            cfg.num_threads = t;
            cfg_override = cfg;
            &cfg_override
        } else {
            config
        };
        Self::fit_core(train, val, poi_db, config, options, fit.probe)
    }

    /// The single fitting core every public `fit*` entry point delegates to.
    /// Generalises only ingestion: everything downstream of the processed
    /// sample vectors (normaliser, autoencoder, detectors, every RNG draw)
    /// is byte-for-byte the historical in-RAM path.
    fn fit_core(
        train: &mut dyn SampleSource,
        val: Option<&mut dyn SampleSource>,
        poi_db: &PoiDatabase,
        config: &LeadConfig,
        options: LeadOptions,
        probe: &dyn Probe,
    ) -> Result<(Self, TrainingReport), LeadError> {
        config.validate()?;
        let _fit_span = clock::span(probe, "fit");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut report = TrainingReport::default();

        // ---- processing + truth projection -------------------------------
        // Ingestion is shard-at-a-time: only one shard's raw samples live in
        // RAM at once. `par_map` is order-preserving and per-item
        // independent, so concatenating per-shard results equals one
        // `par_map` over the whole dataset — every downstream stage (and
        // every RNG draw) is bit-identical to the in-RAM path.
        let process_source = |src: &mut dyn SampleSource| -> Result<
            Vec<Option<(ProcessedTrajectory, Candidate)>>,
            LeadError,
        > {
            let mut out = Vec::new();
            let mut batch: Vec<TrainSample> = Vec::new();
            for shard in 0..src.num_shards() {
                batch.clear();
                src.read_shard(shard, &mut |s| batch.push(s))?;
                out.extend(lead_nn::par::par_map(config.num_threads, &batch, |_, s| {
                    let proc = ProcessedTrajectory::from_raw_probed(&s.raw, config, probe);
                    match truth_stay_indices(&proc, &s.truth) {
                        Some((l, u)) if proc.num_stay_points() >= 2 => {
                            Some((proc, Candidate::new(l, u)))
                        }
                        _ => None,
                    }
                }));
            }
            Ok(out)
        };
        let maybe_train = process_source(train)?;
        let maybe_val = match val {
            Some(v) => process_source(v)?,
            None => Vec::new(),
        };
        let skipped = maybe_train
            .iter()
            .chain(&maybe_val)
            .filter(|o| o.is_none())
            .count();
        let processed: Vec<(ProcessedTrajectory, Candidate)> =
            maybe_train.into_iter().flatten().collect();
        let val_processed: Vec<(ProcessedTrajectory, Candidate)> =
            maybe_val.into_iter().flatten().collect();
        report.skipped_samples = skipped;
        if processed.is_empty() {
            return Err(LeadError::NoTrainableSamples { skipped });
        }
        report.used_samples = processed.len();
        if probe.enabled() {
            probe.count("fit.used_samples", processed.len() as u64);
            probe.count("fit.skipped_samples", skipped as u64);
        }

        // ---- feature normalisation ----------------------------------------
        let feature_span = clock::span(probe, "fit.features");
        let mut fx = FeatureExtractor::new(poi_db, config, options.use_poi);
        // Rows are extracted per trajectory in parallel and flattened in
        // trajectory order, so the fitted normaliser is thread-count
        // independent.
        let rows: Vec<Vec<f32>> = {
            let fx_ref = &fx;
            lead_nn::par::par_map(config.num_threads, &processed, |_, (proc, _)| {
                proc.cleaned
                    .points()
                    .iter()
                    .map(|p| fx_ref.raw_features(p))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        fx.set_normalizer(Normalizer::fit(&rows));
        drop(rows);

        // ---- per-trajectory features ---------------------------------------
        // Outer loop over trajectories is parallel; the inner extraction runs
        // serial (threads = 1) to avoid nested thread spawning.
        let fx_ref = &fx;
        let features: Vec<TrajectoryFeatures> =
            lead_nn::par::par_map(config.num_threads, &processed, |_, (proc, _)| {
                fx_ref.features_from(proc, 0, 1, probe)
            });
        let val_features: Vec<TrajectoryFeatures> =
            lead_nn::par::par_map(config.num_threads, &val_processed, |_, (proc, _)| {
                fx_ref.features_from(proc, 0, 1, probe)
            });
        drop(feature_span);

        // ---- autoencoder (self-supervised) ----------------------------------
        let ae_span = clock::span(probe, "fit.autoencoder");
        let kind = if options.hierarchical {
            EncoderKind::Hierarchical
        } else {
            EncoderKind::Flat
        };
        let mut autoencoder = Autoencoder::new(config, kind, options.use_attention, &mut rng);
        let sample_candidates = |set: &[(ProcessedTrajectory, Candidate)],
                                 tfs: &[TrajectoryFeatures],
                                 rng: &mut StdRng| {
            let mut out = Vec::new();
            for ((proc, _), tf) in set.iter().zip(tfs) {
                let mut cands = proc.candidates.clone();
                cands.shuffle(rng);
                for c in cands.into_iter().take(config.ae_samples_per_trajectory) {
                    out.push(tf.candidate(c));
                }
            }
            out
        };
        let ae_samples = sample_candidates(&processed, &features, &mut rng);
        let ae_val_samples = sample_candidates(&val_processed, &val_features, &mut rng);
        let (ae_curve, ae_val_curve) =
            autoencoder.train(&ae_samples, &ae_val_samples, config, &mut rng, probe);
        report.ae_curve = ae_curve;
        report.ae_val_curve = ae_val_curve;
        drop(ae_samples);
        drop(ae_val_samples);
        drop(ae_span);

        // ---- candidate encoding (compressor frozen) --------------------------
        // Parallel across trajectories; the per-trajectory encoding runs
        // serial (threads = 1) so threads are never nested.
        let encode_span = clock::span(probe, "fit.encode");
        let ae_ref = &autoencoder;
        let encoded: Vec<Vec<Matrix>> =
            lead_nn::par::par_map(config.num_threads, &features, |i, tf| {
                ae_ref.encode_all(tf, &processed[i].0.candidates, 1)
            });
        let val_encoded: Vec<Vec<Matrix>> =
            lead_nn::par::par_map(config.num_threads, &val_features, |i, tf| {
                ae_ref.encode_all(tf, &val_processed[i].0.candidates, 1)
            });
        drop(encode_span);

        // ---- detectors ---------------------------------------------------------
        let detector_span = clock::span(probe, "fit.detectors");
        let c_dim = autoencoder.c_vec_dim();
        let detector_items = |set: &[(ProcessedTrajectory, Candidate)],
                              enc: &[Vec<Matrix>],
                              forward: bool|
         -> Vec<(Vec<Vec<Matrix>>, Matrix)> {
            lead_nn::par::par_map(config.num_threads, set, |idx, (proc, truth)| {
                let cvecs = &enc[idx];
                let n = proc.num_stay_points();
                let by_cand = candidate_index_map(n);
                let groups = build_groups(n);
                let (side, order) = if forward {
                    (&groups.forward, forward_flat_order(n))
                } else {
                    (&groups.backward, backward_flat_order(n))
                };
                let group: Vec<Vec<Matrix>> = side
                    .iter()
                    .map(|sub| sub.iter().map(|c| cvecs[by_cand(*c)].clone()).collect())
                    .collect();
                let label = smoothed_label(&order, *truth, config.label_epsilon);
                (group, label)
            })
        };
        let train_group_detector =
            |forward: bool, rng: &mut StdRng| -> (GroupDetector, Vec<f32>, Vec<f32>) {
                let mut det = GroupDetector::new(config, c_dim, rng);
                let items = detector_items(&processed, &encoded, forward);
                let val_items = detector_items(&val_processed, &val_encoded, forward);
                let scope = if forward { "det.fwd" } else { "det.bwd" };
                let (curve, val_curve) = det.train(&items, &val_items, config, rng, probe, scope);
                (det, curve, val_curve)
            };

        let forward_det = options.detector.has_forward().then(|| {
            let (d, c, v) = train_group_detector(true, &mut rng);
            (report.forward_kld_curve, report.forward_val_kld_curve) = (c, v);
            d
        });
        let backward_det = options.detector.has_backward().then(|| {
            let (d, c, v) = train_group_detector(false, &mut rng);
            (report.backward_kld_curve, report.backward_val_kld_curve) = (c, v);
            d
        });
        let mlp = (options.detector == DetectorChoice::Mlp).then(|| {
            let mut det = MlpDetector::new(c_dim, &mut rng);
            let mlp_items = |set: &[(ProcessedTrajectory, Candidate)],
                             enc: &[Vec<Matrix>]|
             -> Vec<(Vec<Matrix>, usize)> {
                set.iter()
                    .zip(enc)
                    .map(|((proc, truth), cvecs)| {
                        let n = proc.num_stay_points();
                        let idx = candidate_index_map(n)(*truth);
                        (cvecs.clone(), idx)
                    })
                    .collect()
            };
            let items = mlp_items(&processed, &encoded);
            let val_items = mlp_items(&val_processed, &val_encoded);
            report.mlp_curve = det.train(&items, &val_items, config, &mut rng, probe).0;
            det
        });
        drop(detector_span);

        let lead = Lead {
            config: config.clone(),
            options,
            // lint: allow(panic, panic-path): construction invariant — fit() installs the normaliser before building Lead
            normalizer: fx.normalizer().expect("normaliser fitted above").clone(),
            autoencoder,
            forward_det,
            backward_det,
            mlp,
        };
        Ok((lead, report))
    }

    /// The configured variant.
    pub fn options(&self) -> LeadOptions {
        self.options
    }

    /// The framework configuration.
    pub fn config(&self) -> &LeadConfig {
        &self.config
    }

    /// The online stage: detects the loaded trajectory of an unseen raw
    /// trajectory. Returns `None` when fewer than two stay points are
    /// extracted (no candidate exists). Thin convenience for
    /// [`Self::detect_opts`] with [`DetectOptions::default`].
    pub fn detect(
        &self,
        raw: &lead_geo::Trajectory,
        poi_db: &PoiDatabase,
    ) -> Option<DetectionResult> {
        self.detect_opts(raw, poi_db, &DetectOptions::default())
    }

    /// [`Self::detect`] with explicit [`DetectOptions`]: a worker-thread
    /// override and an observability probe receiving per-stage spans
    /// (`detect`, `processing`, `features`, `encode`, `detect.score`,
    /// `detect.merge`) and counters. Results are bit-identical for every
    /// thread count and probe.
    pub fn detect_opts(
        &self,
        raw: &lead_geo::Trajectory,
        poi_db: &PoiDatabase,
        opts: &DetectOptions<'_>,
    ) -> Option<DetectionResult> {
        let _span = clock::span(opts.probe, "detect");
        let proc = ProcessedTrajectory::from_raw_probed(raw, &self.config, opts.probe);
        self.detect_processed_opts(proc, poi_db, opts)
    }

    /// Detects every raw trajectory of a batch, parallel across
    /// trajectories. Results keep the input order; a trajectory with fewer
    /// than two stay points yields `None`, exactly as [`Self::detect`].
    /// Records batch counters (`batch.trajectories`, `batch.detected`) and a
    /// `batch.throughput_per_s` gauge when a recording probe is attached.
    pub fn detect_batch_opts(
        &self,
        raws: &[lead_geo::Trajectory],
        poi_db: &PoiDatabase,
        opts: &DetectOptions<'_>,
    ) -> Vec<Option<DetectionResult>> {
        let probe = opts.probe;
        let stopwatch = probe.enabled().then(clock::Stopwatch::start);
        let outer_threads = opts.num_threads.unwrap_or(self.config.num_threads);
        // Parallel across trajectories; each single detection runs serial
        // (threads = 1) so threads are never nested.
        let single = DetectOptions {
            num_threads: Some(1),
            probe,
        };
        let results = lead_nn::par::par_map(outer_threads, raws, |_, raw| {
            self.detect_opts(raw, poi_db, &single)
        });
        if let Some(sw) = stopwatch {
            probe.count("batch.trajectories", raws.len() as u64);
            probe.count("batch.detected", results.iter().flatten().count() as u64);
            let secs = sw.elapsed().as_secs_f64();
            if secs > 0.0 {
                probe.gauge("batch.throughput_per_s", raws.len() as f64 / secs);
            }
        }
        results
    }

    /// Scores an already-processed trajectory (used by [`Self::detect_opts`]):
    /// a fresh score state, extended once over every stay point, then
    /// scored.
    pub fn detect_processed_opts(
        &self,
        proc: ProcessedTrajectory,
        poi_db: &PoiDatabase,
        opts: &DetectOptions<'_>,
    ) -> Option<DetectionResult> {
        self.detect_extending(&mut ScoreState::default(), proc, poi_db, opts)
    }

    /// [`Self::detect_processed_opts`] on top of `state`, the scoring work of
    /// an earlier call on a prefix of `proc`'s stay points (or a fresh
    /// state): only the stay points `state` lacks are extended before
    /// scoring. [`crate::streaming::StreamingDetector`] keeps one state per
    /// stream. Results are bit-identical to a fresh state.
    pub(crate) fn detect_extending(
        &self,
        state: &mut ScoreState,
        proc: ProcessedTrajectory,
        poi_db: &PoiDatabase,
        opts: &DetectOptions<'_>,
    ) -> Option<DetectionResult> {
        let probe = opts.probe;
        let n = proc.num_stay_points();
        if n < 2 {
            if probe.enabled() {
                probe.count("detect.no_candidates", 1);
            }
            return None;
        }
        if probe.enabled() {
            probe.count("detect.calls", 1);
            probe.observe("detect.stay_points", n as f64);
        }
        let num_threads = opts.num_threads.unwrap_or(self.config.num_threads);
        state.extend(self, &proc, poi_db, num_threads, probe);
        let probabilities = state.score(self, probe);
        let detected = argmax_candidate(n, &probabilities)?;
        Some(DetectionResult {
            processed: proc,
            probabilities,
            detected,
        })
    }

    fn forward_detector(&self) -> &GroupDetector {
        let det = self.forward_det.as_ref();
        // lint: allow(panic, panic-path): construction invariant — fit() trains the forward detector for Both and ForwardOnly
        det.expect("forward detector trained")
    }

    fn backward_detector(&self) -> &GroupDetector {
        let det = self.backward_det.as_ref();
        // lint: allow(panic, panic-path): construction invariant — fit() trains the backward detector for Both and BackwardOnly
        det.expect("backward detector trained")
    }
}

/// The scoring work of one trajectory's first stay points, kept so that
/// scoring the same trajectory with more stay points redoes only what the
/// new stay points change.
///
/// Work computed from stay points `0..k` stays valid when stay `k` closes:
/// a segment's features and phase-1 row read that segment only, candidate
/// `(i, j)`'s c-vec reads its own segments only, and backward subgroup
/// `ḡ_j` (the candidates ending at `j`) never grows and runs as its own
/// sequence in the detector's batch, so its logits do not change either.
/// Forward subgroups grow at their tail, and the BiLSTM's backward half
/// reads them from the tail, so the forward detector reruns in full.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScoreState {
    /// Features of every stay and move segment covered.
    tf: TrajectoryFeatures,
    /// The hierarchical encoder's phase-1 rows of those segments.
    phase1: Phase1Rows,
    /// `cvecs[j][i]` is the c-vec of candidate `(i, j)`.
    cvecs: Vec<Vec<Matrix>>,
    /// Backward-detector logits of `ḡ_1 … ḡ_{k−1}` in backward flattening,
    /// for the first `bwd_stays = k` stay points.
    bwd_logits: Vec<f32>,
    bwd_stays: usize,
}

impl ScoreState {
    /// Stay points covered.
    fn num_stays(&self) -> usize {
        self.cvecs.len()
    }

    /// C-vecs computed so far, `k(k−1)/2` for `k` covered stay points.
    pub(crate) fn num_encoded(&self) -> usize {
        self.cvecs.iter().map(Vec::len).sum()
    }

    /// Covers the stay points of `proc` this state lacks: their segments'
    /// features (`features` span) and phase-1 rows, and the c-vecs of the
    /// candidates ending at them (`encode` span). `proc` must extend the
    /// trajectory this state was built from.
    fn extend(
        &mut self,
        model: &Lead,
        proc: &ProcessedTrajectory,
        poi_db: &PoiDatabase,
        num_threads: usize,
        probe: &dyn Probe,
    ) {
        let have = self.num_stays();
        let n = proc.num_stay_points();
        debug_assert!(have <= n, "a score state only grows");
        if have >= n {
            return;
        }
        let mut fx = FeatureExtractor::new(poi_db, &model.config, model.options.use_poi);
        fx.set_normalizer(model.normalizer.clone());
        let new = fx.features_from(proc, have, num_threads, probe);
        let _span = clock::span(probe, "encode");
        let ae = &model.autoencoder;
        self.phase1.append(ae.phase1(&new.sp_seqs, &new.mp_seqs));
        self.tf.sp_seqs.extend(new.sp_seqs);
        self.tf.mp_seqs.extend(new.mp_seqs);
        let candidates: Vec<Candidate> = (have..n)
            .flat_map(|j| (0..j).map(move |i| Candidate::new(i, j)))
            .collect();
        let mut cvecs = ae
            .phase2(&self.tf, &self.phase1, &candidates, num_threads)
            .into_iter();
        for j in have..n {
            self.cvecs.push(cvecs.by_ref().take(j).collect());
        }
    }

    /// The merged probabilities over the covered stay points' candidates, in
    /// canonical order (`detect.score` and `detect.merge` spans). Each
    /// detector reads the cached c-vecs; the backward detector scores only
    /// the subgroups it has not scored before and keeps their logits.
    fn score(&mut self, model: &Lead, probe: &dyn Probe) -> Vec<f32> {
        let n = self.num_stays();
        let _span = clock::span(probe, "detect.score");
        match model.options.detector {
            DetectorChoice::Mlp => {
                // lint: allow(panic, panic-path): construction invariant — fit() trains the detector selected by `options.detector`
                let det = model.mlp.as_ref().expect("MLP detector trained");
                let cvecs = &self.cvecs;
                det.probabilities((0..n).flat_map(|i| (i + 1..n).map(move |j| &cvecs[j][i])))
            }
            DetectorChoice::ForwardOnly => self.forward(model),
            DetectorChoice::BackwardOnly => reorder_backward_to_canonical(n, &self.backward(model)),
            DetectorChoice::Both => {
                let f = self.forward(model);
                let b = self.backward(model);
                let _merge_span = clock::span(probe, "detect.merge");
                merge_probabilities(n, &f, &b)
            }
        }
    }

    /// Forward probabilities: forward subgroup `g_i` holds `(i, i+1) …
    /// (i, n−1)`.
    fn forward(&self, model: &Lead) -> Vec<f32> {
        let n = self.num_stays();
        let groups: Vec<Vec<&Matrix>> = (0..n - 1)
            .map(|i| (i + 1..n).map(|j| &self.cvecs[j][i]).collect())
            .collect();
        model.forward_detector().probabilities(&groups)
    }

    /// Backward probabilities in backward flattening, after scoring the
    /// backward subgroups `ḡ_j` (`(j−1, j) … (0, j)`) not yet scored as one
    /// batch.
    fn backward(&mut self, model: &Lead) -> Vec<f32> {
        let n = self.num_stays();
        if self.bwd_stays < n {
            let groups: Vec<Vec<&Matrix>> = (self.bwd_stays.max(1)..n)
                .map(|j| self.cvecs[j].iter().rev().collect())
                .collect();
            let logits = model.backward_detector().logits(&groups);
            self.bwd_logits.extend(logits);
            self.bwd_stays = n;
        }
        softmax(&self.bwd_logits)
    }
}

/// Options for one detection call ([`Lead::detect_opts`],
/// [`Lead::detect_batch_opts`], [`Lead::detect_processed_opts`]).
///
/// The `Default` instance reproduces [`Lead::detect`] exactly: the model's
/// configured thread count and no instrumentation.
#[derive(Clone, Copy)]
pub struct DetectOptions<'p> {
    /// Worker threads for the candidate-parallel stages; `None` uses the
    /// model's `config.num_threads`. Callers that already parallelise across
    /// trajectories (an evaluation sweep, [`Lead::detect_batch_opts`])
    /// should pass `Some(1)` so thread pools are never nested. Every value
    /// yields bit-identical results (the `lead_nn::par` contract).
    pub num_threads: Option<usize>,
    /// Observability sink receiving per-stage spans and counters. Metric
    /// values never feed back into computation: detection results are
    /// bit-identical whether or not a recording probe is attached.
    pub probe: &'p dyn Probe,
}

impl Default for DetectOptions<'_> {
    fn default() -> Self {
        DetectOptions {
            num_threads: None,
            probe: &NOOP,
        }
    }
}

impl<'p> DetectOptions<'p> {
    /// Default options: model thread count, no probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker-thread count for this call.
    #[must_use]
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = Some(num_threads);
        self
    }

    /// Attaches an observability probe for this call.
    #[must_use]
    pub fn with_probe<'q>(self, probe: &'q dyn Probe) -> DetectOptions<'q> {
        DetectOptions {
            num_threads: self.num_threads,
            probe,
        }
    }
}

/// Options for one streaming fit ([`Lead::fit_streaming`]).
///
/// The `Default` instance reproduces [`Lead::fit_with_val`] exactly: the
/// configuration's thread count and no instrumentation.
#[derive(Clone, Copy)]
pub struct FitOptions<'p> {
    /// Worker threads for the sample-parallel stages; `None` uses
    /// `config.num_threads`. Every value yields bit-identical results (the
    /// `lead_nn::par` contract).
    pub num_threads: Option<usize>,
    /// Observability sink receiving the same spans, counters, and curves as
    /// [`Lead::fit_opts`]. Metrics are write-only: the trained model is
    /// bit-identical for any probe.
    pub probe: &'p dyn Probe,
}

impl Default for FitOptions<'_> {
    fn default() -> Self {
        FitOptions {
            num_threads: None,
            probe: &NOOP,
        }
    }
}

impl<'p> FitOptions<'p> {
    /// Default options: configured thread count, no probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker-thread count for this fit.
    #[must_use]
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = Some(num_threads);
        self
    }

    /// Attaches an observability probe for this fit.
    #[must_use]
    pub fn with_probe<'q>(self, probe: &'q dyn Probe) -> FitOptions<'q> {
        FitOptions {
            num_threads: self.num_threads,
            probe,
        }
    }
}

/// Maps a candidate to its position in the canonical (forward) flattening of
/// `n` stay points: `(i, j) → i·n − i(i+1)/2 + (j − i − 1)`.
fn candidate_index_map(n: usize) -> impl Fn(Candidate) -> usize {
    move |c: Candidate| {
        debug_assert!(c.end_sp < n);
        c.start_sp * n - c.start_sp * (c.start_sp + 1) / 2 + (c.end_sp - c.start_sp - 1)
    }
}

/// Re-orders a backward-flattened distribution into the canonical order.
fn reorder_backward_to_canonical(n: usize, bwd: &[f32]) -> Vec<f32> {
    let by_cand = candidate_index_map(n);
    let mut out = vec![0.0; bwd.len()];
    for (pos, c) in backward_flat_order(n).into_iter().enumerate() {
        out[by_cand(c)] = bwd[pos];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processing::enumerate_candidates;

    #[test]
    fn candidate_index_map_matches_enumeration() {
        for n in 2..12 {
            let f = candidate_index_map(n);
            for (i, c) in enumerate_candidates(n).into_iter().enumerate() {
                assert_eq!(f(c), i, "n={n} c={c:?}");
            }
        }
    }

    #[test]
    fn reorder_backward_roundtrips() {
        let n = 5;
        let m = n * (n - 1) / 2;
        // Distribution whose value encodes the candidate identity.
        let order = backward_flat_order(n);
        let bwd: Vec<f32> = order
            .iter()
            .map(|c| (c.start_sp * 10 + c.end_sp) as f32)
            .collect();
        let canonical = reorder_backward_to_canonical(n, &bwd);
        for (i, c) in enumerate_candidates(n).into_iter().enumerate() {
            assert_eq!(canonical[i], (c.start_sp * 10 + c.end_sp) as f32);
        }
        assert_eq!(canonical.len(), m);
    }

    #[test]
    fn extending_a_score_state_matches_a_fresh_one() {
        // A stream extends its state one stay point at a time; extending by
        // several at once, from an empty or a non-empty state, must give the
        // same bits as a fresh state.
        use crate::features::{Normalizer, FEATURE_DIM};
        let cfg = LeadConfig::fast_test();
        let per_km = lead_geo::distance::meters_to_lng_deg(1_000.0, 32.0);
        let mut pts = Vec::new();
        let mut t = 0;
        for block in 0..7 {
            let lng = 120.9 + block as f64 * 5.0 * per_km;
            for _ in 0..10 {
                pts.push(lead_geo::GpsPoint::new(32.0, lng, t));
                t += 120;
            }
            for k in 1..=3 {
                pts.push(lead_geo::GpsPoint::new(
                    32.0,
                    lng + k as f64 * 1.25 * per_km,
                    t,
                ));
                t += 120;
            }
        }
        let proc = ProcessedTrajectory::from_raw(&lead_geo::Trajectory::new(pts), &cfg);
        let n = proc.num_stay_points();
        assert!(n >= 6, "{n} stay points");
        let prefix = |k: usize| ProcessedTrajectory {
            cleaned: proc.cleaned.clone(),
            stay_points: proc.stay_points[..k].to_vec(),
            candidates: enumerate_candidates(k),
        };
        let db = PoiDatabase::new(vec![]);
        let fx = FeatureExtractor::new(&db, &cfg, true);
        let rows: Vec<Vec<f32>> = proc
            .cleaned
            .points()
            .iter()
            .map(|p| fx.raw_features(p))
            .collect();
        let normalizer = Normalizer::fit(&rows);
        assert_eq!(normalizer.dim(), FEATURE_DIM);
        let bits = |r: Option<DetectionResult>| {
            r.map(|d| {
                let p: Vec<u32> = d.probabilities.iter().map(|v| v.to_bits()).collect();
                (d.detected, p)
            })
        };
        for options in [
            LeadOptions::full(),
            LeadOptions::no_sel(),
            LeadOptions::no_hie(),
            LeadOptions::no_gro(),
            LeadOptions::no_for(),
            LeadOptions::no_bac(),
        ] {
            let model = Lead::new_untrained(&cfg, options, normalizer.clone()).expect("valid");
            let opts = DetectOptions::new();
            let mut state = ScoreState::default();
            for k in [1, 3, 4, n] {
                let got = model.detect_extending(&mut state, prefix(k), &db, &opts);
                let want = model.detect_processed_opts(prefix(k), &db, &opts);
                assert_eq!(bits(got), bits(want), "{} k={k}", options.name());
            }
            assert_eq!(state.num_encoded(), n * (n - 1) / 2);
        }
    }

    #[test]
    fn options_names_match_paper() {
        assert_eq!(LeadOptions::full().name(), "LEAD");
        assert_eq!(LeadOptions::no_poi().name(), "LEAD-NoPoi");
        assert_eq!(LeadOptions::no_sel().name(), "LEAD-NoSel");
        assert_eq!(LeadOptions::no_hie().name(), "LEAD-NoHie");
        assert_eq!(LeadOptions::no_gro().name(), "LEAD-NoGro");
        assert_eq!(LeadOptions::no_for().name(), "LEAD-NoFor");
        assert_eq!(LeadOptions::no_bac().name(), "LEAD-NoBac");
    }
}
