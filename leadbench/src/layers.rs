//! The detection pipeline rebuilt from its layers, timed from outside.
//!
//! [`Parts`] recomposes a trained model's normaliser, autoencoder and both
//! group detectors from the bytes `Lead::write_to` produces, using only
//! public constructors and `lead_nn::io::read_params`. [`traced_detect`]
//! then calls the layers in the order `Lead::detect` calls them and times
//! each call. No span is added inside the program: every clock read here is
//! the benchmark's own.

use lead_core::config::LeadConfig;
use lead_core::detection::{argmax_candidate, build_groups, merge_probabilities, GroupDetector};
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{FeatureExtractor, Normalizer};
use lead_core::pipeline::{DetectorChoice, Lead};
use lead_core::poi::PoiDatabase;
use lead_core::processing::{Candidate, ProcessedTrajectory};
use lead_geo::Trajectory;
use lead_nn::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::BufRead;
use std::time::{Duration, Instant};

/// The layers of `Lead::detect`, in call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ProcessedTrajectory::from_raw`.
    Processing,
    /// `FeatureExtractor` set-up and `trajectory_features`.
    Features,
    /// `Autoencoder::encode_all`.
    Encoding,
    /// The forward `GroupDetector::probabilities`.
    DetectForward,
    /// The backward `GroupDetector::probabilities`.
    DetectBackward,
    /// `merge_probabilities` and `argmax_candidate`.
    Merge,
}

/// A full-LEAD model split into the parts `Lead::detect` runs.
pub struct Parts {
    /// The model's configuration.
    pub config: LeadConfig,
    /// Whether the POI feature block is used.
    pub use_poi: bool,
    /// The fitted feature normaliser.
    pub normalizer: Normalizer,
    /// The trained autoencoder.
    pub autoencoder: Autoencoder,
    /// The forward group detector.
    pub forward: GroupDetector,
    /// The backward group detector.
    pub backward: GroupDetector,
}

impl Parts {
    /// Rebuilds the parts of `model` from its `write_to` bytes.
    ///
    /// # Errors
    /// A description of the first line that does not match the model-file
    /// layout, or of a model variant other than full LEAD.
    pub fn from_model(model: &Lead) -> Result<Self, String> {
        let options = model.options();
        if options.detector != DetectorChoice::Both {
            return Err(format!("{} has no forward+backward pair", options.name()));
        }
        let config = model.config().clone();
        let mut bytes = Vec::new();
        model
            .write_to(&mut bytes)
            .map_err(|e| format!("write_to: {e}"))?;
        let mut r: &[u8] = &bytes;

        expect_line(&mut r, |l| l == "lead-model v1")?;
        expect_line(&mut r, |l| l.starts_with("options "))?;
        expect_line(&mut r, |l| l.starts_with("config "))?;
        expect_line(&mut r, |l| l.starts_with("normalizer "))?;
        let mean = hex_row(&next_line(&mut r)?)?;
        let std = hex_row(&next_line(&mut r)?)?;
        let normalizer = Normalizer::from_parts(mean, std);

        // Initial weights are overwritten by `read_params`; only the shapes
        // the constructors build matter.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let kind = if options.hierarchical {
            EncoderKind::Hierarchical
        } else {
            EncoderKind::Flat
        };
        let mut autoencoder = Autoencoder::new(&config, kind, options.use_attention, &mut rng);
        let c_dim = autoencoder.c_vec_dim();
        let mut forward = GroupDetector::new(&config, c_dim, &mut rng);
        let mut backward = GroupDetector::new(&config, c_dim, &mut rng);
        for (section, params) in [
            ("section autoencoder", autoencoder.params_mut()),
            ("section forward_detector", forward.params_mut()),
            ("section backward_detector", backward.params_mut()),
        ] {
            expect_line(&mut r, |l| l == section)?;
            lead_nn::io::read_params(params, &mut r).map_err(|e| format!("{section}: {e}"))?;
        }
        expect_line(&mut r, |l| l == "end-model")?;
        Ok(Parts {
            config,
            use_poi: options.use_poi,
            normalizer,
            autoencoder,
            forward,
            backward,
        })
    }
}

fn next_line(r: &mut &[u8]) -> Result<String, String> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => Err("model bytes end early".into()),
        Ok(_) => Ok(line.trim().to_string()),
        Err(e) => Err(e.to_string()),
    }
}

fn expect_line(r: &mut &[u8], ok: impl Fn(&str) -> bool) -> Result<(), String> {
    let line = next_line(r)?;
    if ok(&line) {
        Ok(())
    } else {
        Err(format!("unexpected model line `{line}`"))
    }
}

fn hex_row(line: &str) -> Result<Vec<f32>, String> {
    line.split_whitespace()
        .map(|t| {
            u32::from_str_radix(t, 16)
                .map(f32::from_bits)
                .map_err(|e| format!("bad f32 `{t}`: {e}"))
        })
        .collect()
}

/// Time spent in each layer by one or more traced detections, plus the
/// work counts derived from their input shapes.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Traced detections.
    pub days: u64,
    /// Wall time of the whole traced detections, clock reads included.
    pub traced: Duration,
    /// Time in `ProcessedTrajectory::from_raw`.
    pub processing: Duration,
    /// Time in feature-extractor set-up and `trajectory_features`.
    pub features: Duration,
    /// Time in `encode_all`.
    pub encoding: Duration,
    /// Time in the forward detector.
    pub forward: Duration,
    /// Time in the backward detector.
    pub backward: Duration,
    /// Time in `merge_probabilities` and `argmax_candidate`.
    pub merge: Duration,
    /// Raw fixes fed to processing.
    pub points_in: u64,
    /// Fixes kept by the noise filter.
    pub points_kept: u64,
    /// Extracted stay points.
    pub stay_points: u64,
    /// Feature rows extracted.
    pub feature_rows: u64,
    /// Candidates encoded.
    pub candidates: u64,
    /// Subgroups scored, forward and backward together.
    pub subgroups: u64,
}

impl LayerTotals {
    /// Sum of the per-layer times.
    pub fn layer_sum(&self) -> Duration {
        self.processing + self.features + self.encoding + self.forward + self.backward + self.merge
    }

    /// The time of `layer`.
    pub fn layer(&self, layer: Layer) -> Duration {
        match layer {
            Layer::Processing => self.processing,
            Layer::Features => self.features,
            Layer::Encoding => self.encoding,
            Layer::DetectForward => self.forward,
            Layer::DetectBackward => self.backward,
            Layer::Merge => self.merge,
        }
    }

    /// Mean of `d` per traced detection, in milliseconds.
    pub fn per_day_ms(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e3 / self.days.max(1) as f64
    }
}

/// What one traced detection found.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    /// Merged probabilities in canonical candidate order.
    pub probabilities: Vec<f32>,
    /// The arg-max candidate.
    pub detected: Candidate,
}

/// Runs `Lead::detect`'s layers on `raw` in its order, timing each call
/// into `totals`. `after` runs inside each layer's timed region once the
/// layer returns; pass `|_| {}` outside tests. Returns `None` where
/// `detect` would (fewer than two stay points).
pub fn traced_detect(
    parts: &Parts,
    raw: &Trajectory,
    poi_db: &PoiDatabase,
    totals: &mut LayerTotals,
    after: &mut dyn FnMut(Layer),
) -> Option<Traced> {
    let start = Instant::now();
    let mut timed = |layer: Layer, slot: &mut Duration, t0: Instant| {
        after(layer);
        *slot += t0.elapsed();
    };

    let t0 = Instant::now();
    let proc = ProcessedTrajectory::from_raw(raw, &parts.config);
    timed(Layer::Processing, &mut totals.processing, t0);
    let n = proc.num_stay_points();
    totals.days += 1;
    totals.points_in += raw.len() as u64;
    totals.points_kept += proc.cleaned.len() as u64;
    totals.stay_points += n as u64;
    if n < 2 {
        totals.traced += start.elapsed();
        return None;
    }

    let t0 = Instant::now();
    let mut fx = FeatureExtractor::new(poi_db, &parts.config, parts.use_poi);
    fx.set_normalizer(parts.normalizer.clone());
    let tf = fx.trajectory_features(&proc);
    timed(Layer::Features, &mut totals.features, t0);
    totals.feature_rows += tf
        .sp_seqs
        .iter()
        .chain(&tf.mp_seqs)
        .map(Matrix::rows)
        .sum::<usize>() as u64;

    let t0 = Instant::now();
    let cvecs = parts.autoencoder.encode_all(&tf, &proc.candidates, 1);
    timed(Layer::Encoding, &mut totals.encoding, t0);
    totals.candidates += proc.candidates.len() as u64;

    let groups = build_groups(n);
    let by_cand = |c: &Candidate| {
        c.start_sp * n - c.start_sp * (c.start_sp + 1) / 2 + c.end_sp - c.start_sp - 1
    };
    let score = |det: &GroupDetector, side: &[Vec<Candidate>]| {
        let refs: Vec<Vec<&Matrix>> = side
            .iter()
            .map(|sub| sub.iter().map(|c| &cvecs[by_cand(c)]).collect())
            .collect();
        det.probabilities(&refs)
    };
    let t0 = Instant::now();
    let fwd = score(&parts.forward, &groups.forward);
    timed(Layer::DetectForward, &mut totals.forward, t0);
    let t0 = Instant::now();
    let bwd = score(&parts.backward, &groups.backward);
    timed(Layer::DetectBackward, &mut totals.backward, t0);
    totals.subgroups += (groups.forward.len() + groups.backward.len()) as u64;

    let t0 = Instant::now();
    let probabilities = merge_probabilities(n, &fwd, &bwd);
    let detected = argmax_candidate(n, &probabilities);
    timed(Layer::Merge, &mut totals.merge, t0);
    totals.traced += start.elapsed();
    detected.map(|detected| Traced {
        probabilities,
        detected,
    })
}
