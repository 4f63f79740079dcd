//! Regenerates **Figure 9**: training MSE curves of the hierarchical
//! autoencoder inside LEAD, LEAD-NoSel (no self-attention), and LEAD-NoHie
//! (flat, no hierarchy).
//!
//! Usage: `cargo run -p lead-bench --release --bin fig9 [tiny|quick|full]`

use lead_bench::{write_result, Scale};
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{FeatureExtractor, Normalizer};
use lead_core::processing::ProcessedTrajectory;
use lead_eval::report::curve_csv;
use lead_obs::probe::NOOP;
use lead_synth::generate_dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    let synth = scale.synth_config();
    let cfg = scale.lead_config();

    println!("Figure 9 reproduction — scale `{}`", scale.name());
    let ds = generate_dataset(&synth);

    // Shared preprocessing: processed trajectories, normaliser, AE samples.
    let processed: Vec<ProcessedTrajectory> = ds
        .train
        .iter()
        .map(|s| ProcessedTrajectory::from_raw(&s.raw, &cfg))
        .filter(|p| p.num_stay_points() >= 2)
        .collect();
    let mut fx = FeatureExtractor::new(&ds.city.poi_db, &cfg, true);
    let mut rows = Vec::new();
    for proc in &processed {
        for p in proc.cleaned.points() {
            rows.push(fx.raw_features(p));
        }
    }
    fx.set_normalizer(Normalizer::fit(&rows));
    drop(rows);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut samples = Vec::new();
    for proc in &processed {
        let tf = fx.trajectory_features(proc);
        let mut cands = proc.candidates.clone();
        cands.shuffle(&mut rng);
        for c in cands.into_iter().take(cfg.ae_samples_per_trajectory) {
            samples.push(tf.candidate(c));
        }
    }
    println!(
        "{} candidate feature sequences for AE training",
        samples.len()
    );

    let variants: [(&str, EncoderKind, bool); 3] = [
        ("HA in LEAD", EncoderKind::Hierarchical, true),
        ("HA in LEAD-NoSel", EncoderKind::Hierarchical, false),
        ("HA in LEAD-NoHie", EncoderKind::Flat, true),
    ];

    let mut csv = String::from("series,epoch,loss\n");
    for (name, kind, attention) in variants {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ae = Autoencoder::new(&cfg, kind, attention, &mut rng);
        let (curve, _) = ae.train(&samples, None, &cfg, &mut rng, &NOOP);
        let min = curve.iter().cloned().fold(f32::INFINITY, f32::min);
        let argmin = curve
            .iter()
            .position(|&l| l == min)
            .map(|i| i + 1)
            .unwrap_or(0);
        println!("{name:<18} min MSE {min:.4} at epoch {argmin}; curve: {curve:?}");
        for line in curve_csv(name, &curve).lines().skip(1) {
            csv.push_str(line);
            csv.push('\n');
        }
    }
    write_result(&format!("fig9_{}.csv", scale.name()), &csv);
}
