//! The traced run's split must account for time where it is spent, and the
//! recomposed layers must reproduce `Lead::detect` exactly.

use lead_core::config::LeadConfig;
use lead_core::detection::GroupDetector;
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{Normalizer, FEATURE_DIM};
use lead_core::pipeline::{DetectOptions, TrainSample};
use lead_core::poi::PoiDatabase;
use lead_core::processing::ProcessedTrajectory;
use lead_geo::Trajectory;
use lead_obs::probe::NOOP;
use lead_synth::{generate_dataset, SynthConfig};
use leadbench::layers::{traced_detect, Layer, LayerTotals, Parts};
use leadbench::world::{fit_shards, model_digest, write_shards};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Duration;

const LAYERS: [Layer; 6] = [
    Layer::Processing,
    Layer::Features,
    Layer::Encoding,
    Layer::DetectForward,
    Layer::DetectBackward,
    Layer::Merge,
];

fn small_config() -> LeadConfig {
    let mut config = LeadConfig::fast_test();
    config.num_threads = 1;
    config
}

/// Parts with initial weights: timing attribution needs shapes, not skill.
fn untrained_parts() -> Parts {
    let config = small_config();
    let mut rng = StdRng::seed_from_u64(7);
    let autoencoder = Autoencoder::new(&config, EncoderKind::Hierarchical, true, &mut rng);
    let c_dim = autoencoder.c_vec_dim();
    let forward = GroupDetector::new(&config, c_dim, &mut rng);
    let backward = GroupDetector::new(&config, c_dim, &mut rng);
    Parts {
        config,
        use_poi: true,
        normalizer: Normalizer::identity(FEATURE_DIM),
        autoencoder,
        forward,
        backward,
    }
}

fn days_with_stays(min_stays: usize, take: usize) -> (Vec<Trajectory>, PoiDatabase) {
    let ds = generate_dataset(&SynthConfig::tiny());
    let config = small_config();
    let days = ds
        .test
        .iter()
        .chain(&ds.val)
        .map(|s| s.raw.clone())
        .filter(|raw| ProcessedTrajectory::from_raw(raw, &config).num_stay_points() >= min_stays)
        .take(take)
        .collect();
    (days, ds.city.poi_db)
}

/// Per-day layer times in ms (layer order of `LAYERS`, then the traced
/// total) of one pass over `days`.
fn pass_times(
    parts: &Parts,
    days: &[Trajectory],
    poi_db: &PoiDatabase,
    delay: Option<(Layer, Duration)>,
) -> Vec<f64> {
    let mut totals = LayerTotals::default();
    for raw in days {
        let mut plant = |layer: Layer| {
            if let Some((at, d)) = delay {
                if at == layer {
                    std::thread::sleep(d);
                }
            }
        };
        traced_detect(parts, raw, poi_db, &mut totals, &mut plant).expect("days have stays");
    }
    LAYERS
        .iter()
        .map(|&l| totals.per_day_ms(totals.layer(l)))
        .chain([totals.per_day_ms(totals.traced)])
        .collect()
}

#[test]
fn a_planted_delay_moves_its_layer_and_the_total_only() {
    let parts = untrained_parts();
    let (days, poi_db) = days_with_stays(3, 3);
    assert_eq!(days.len(), 3, "tiny world has days with 3+ stay points");
    let delay = Duration::from_millis(25);
    let delay_ms = delay.as_secs_f64() * 1e3;
    for planted in [Layer::Encoding, Layer::DetectBackward] {
        // Fastest of five alternating passes per side: other processes
        // only add time.
        let mut base = vec![f64::INFINITY; LAYERS.len() + 1];
        let mut slow = base.clone();
        for _ in 0..5 {
            let b = pass_times(&parts, &days, &poi_db, None);
            let s = pass_times(&parts, &days, &poi_db, Some((planted, delay)));
            for i in 0..base.len() {
                base[i] = base[i].min(b[i]);
                slow[i] = slow[i].min(s[i]);
            }
        }
        // The unplanted side's own noise, allowed in both directions.
        let slack = |i: usize| 2.0 + 0.25 * base[i];
        for (i, layer) in LAYERS.iter().enumerate() {
            let moved = slow[i] - base[i];
            let expected = if *layer == planted { delay_ms } else { 0.0 };
            assert!(
                (moved - expected).abs() <= slack(i),
                "{layer:?} moved by {moved:.3} ms; expected {expected} ms with the delay in {planted:?}"
            );
        }
        let total = LAYERS.len();
        let moved = slow[total] - base[total];
        assert!(
            (moved - delay_ms).abs() <= slack(total),
            "traced detect moved by {moved:.3} ms for a {delay_ms} ms delay in {planted:?}"
        );
    }
}

#[test]
fn recomposed_parts_reproduce_detect_and_fits_repeat() {
    let ds = generate_dataset(&SynthConfig::tiny());
    let samples: Vec<TrainSample> = ds
        .train
        .iter()
        .take(6)
        .map(|s| TrainSample {
            raw: s.raw.clone(),
            truth: s.truth,
        })
        .collect();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("leadbench-recompose");
    let _ = std::fs::remove_dir_all(&dir);
    let paths = write_shards(&samples, &dir, "train").expect("write shards");
    let config = small_config();
    let first = fit_shards(&paths, &ds.city.poi_db, &config, &NOOP).expect("fit");
    let again = fit_shards(&paths, &ds.city.poi_db, &config, &NOOP).expect("fit");
    assert_eq!(model_digest(&first.model), model_digest(&again.model));
    assert_eq!(first.data.records, samples.len() as u64);
    let file_bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).expect("shard exists").len())
        .sum();
    assert_eq!(first.data.bytes, file_bytes);

    let parts = Parts::from_model(&first.model).expect("recompose");
    let mut totals = LayerTotals::default();
    let mut detected = 0;
    for s in ds.test.iter().chain(&ds.val) {
        let want = first.model.detect_opts(
            &s.raw,
            &ds.city.poi_db,
            &DetectOptions::new().with_threads(1),
        );
        let got = traced_detect(&parts, &s.raw, &ds.city.poi_db, &mut totals, &mut |_| {});
        match (want, got) {
            (None, None) => {}
            (Some(w), Some(g)) => {
                detected += 1;
                assert_eq!(w.detected, g.detected);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&w.probabilities), bits(&g.probabilities));
            }
            (w, g) => panic!(
                "detect gave {:?}, recomposition {:?}",
                w.is_some(),
                g.is_some()
            ),
        }
    }
    assert!(detected > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
