//! Scaling benchmarks of the data-parallel hot paths: 1 worker thread vs.
//! all available cores on candidate encoding, detector training, and batch
//! detection. On a multi-core machine the N-thread rows should approach a
//! cores-fold speedup; on one core both rows match (the 1-thread row takes
//! the exact serial code path). Results are bit-identical either way — the
//! parallel layer reduces in a fixed order (see `lead_nn::par`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lead_core::config::LeadConfig;
use lead_core::detection::{build_groups, forward_flat_order, smoothed_label, GroupDetector};
use lead_core::encoding::{Autoencoder, EncoderKind};
use lead_core::features::{TrajectoryFeatures, FEATURE_DIM};
use lead_core::label::TruthLabel;
use lead_core::pipeline::{Lead, LeadOptions, TrainSample};
use lead_core::poi::PoiDatabase;
use lead_core::processing::enumerate_candidates;
use lead_geo::distance::meters_to_lng_deg;
use lead_geo::{GpsPoint, Trajectory};
use lead_nn::Matrix;
use lead_obs::probe::NOOP;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Thread counts under comparison: serial and every core.
fn thread_counts() -> Vec<usize> {
    let n = all_cores();
    if n > 1 {
        vec![1, n]
    } else {
        vec![1]
    }
}

fn features(n: usize, len_sp: usize, len_mp: usize) -> TrajectoryFeatures {
    let mk = |rows: usize, salt: usize| {
        Matrix::from_fn(rows, FEATURE_DIM, |r, c| {
            (((salt * 31 + r * 7 + c) as f32) * 0.13).sin() * 0.5
        })
    };
    TrajectoryFeatures {
        sp_seqs: (0..n).map(|k| mk(len_sp, k)).collect(),
        mp_seqs: (0..n - 1).map(|k| mk(len_mp, 100 + k)).collect(),
    }
}

fn bench_parallel_encoding(c: &mut Criterion) {
    let cfg = LeadConfig::paper();
    let mut rng = StdRng::seed_from_u64(9);
    let hier = Autoencoder::new(&cfg, EncoderKind::Hierarchical, true, &mut rng);
    let tf = features(8, 10, 14);
    let cands = enumerate_candidates(8);

    let mut g = c.benchmark_group("parallel_encode_all_28_candidates");
    g.sample_size(10);
    for threads in thread_counts() {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(hier.encode_all(&tf, &cands, t)))
        });
    }
    g.finish();
}

fn bench_parallel_detector_training(c: &mut Criterion) {
    let n = 6;
    let mut cfg = LeadConfig::fast_test();
    cfg.detector_max_epochs = 1;
    let c_dim = cfg.c_vec_dim();
    let groups = build_groups(n);
    let order = forward_flat_order(n);
    let cvec = |salt: usize| {
        Matrix::from_fn(1, c_dim, |_, k| {
            (((salt * 13 + k) as f32) * 0.21).sin() * 0.4
        })
    };
    let items: Vec<(Vec<Vec<Matrix>>, Matrix)> = (0..8)
        .map(|s| {
            let group: Vec<Vec<Matrix>> = groups
                .forward
                .iter()
                .map(|sub| {
                    sub.iter()
                        .map(|c| cvec(s * 100 + c.start_sp * 10 + c.end_sp))
                        .collect()
                })
                .collect();
            let truth = order[s % order.len()];
            (group, smoothed_label(&order, truth, cfg.label_epsilon))
        })
        .collect();

    let mut g = c.benchmark_group("parallel_detector_train_epoch");
    g.sample_size(10);
    for threads in thread_counts() {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let mut cfg = cfg.clone();
            cfg.num_threads = t;
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                let mut det = GroupDetector::new(&cfg, c_dim, &mut rng);
                black_box(det.train(&items, None, &cfg, &mut rng, &NOOP, "det"))
            })
        });
    }
    g.finish();
}

/// One synthetic working day with `blocks` dwells (see the parity tests).
fn synthetic_day(blocks: usize, variant: u64) -> (Trajectory, Vec<(i64, i64)>) {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    let mut pts = Vec::new();
    let mut dwells = Vec::new();
    let mut t = 0i64;
    for block in 0..blocks {
        let wobble = ((variant.wrapping_mul(block as u64 + 1) % 7) as f64 - 3.0) * 0.3;
        let lng = 120.9 + (block as f64 * 5.0 + wobble) * per_km;
        let start = t;
        for _ in 0..10 {
            pts.push(GpsPoint::new(32.0, lng, t));
            t += 120;
        }
        dwells.push((start, t - 120));
        for k in 1..=3 {
            pts.push(GpsPoint::new(32.0, lng + k as f64 * 1.25 * per_km, t));
            t += 120;
        }
    }
    (Trajectory::new(pts), dwells)
}

fn labelled_sample(blocks: usize, variant: u64, load: usize, unload: usize) -> TrainSample {
    let (raw, dwells) = synthetic_day(blocks, variant);
    let truth = TruthLabel {
        load_start_s: dwells[load].0,
        load_end_s: dwells[load].1,
        unload_start_s: dwells[unload].0,
        unload_end_s: dwells[unload].1,
    };
    TrainSample { raw, truth }
}

fn bench_parallel_batch_detection(c: &mut Criterion) {
    let db = PoiDatabase::new(vec![]);
    let train = vec![
        labelled_sample(4, 1, 0, 2),
        labelled_sample(4, 2, 1, 3),
        labelled_sample(3, 3, 0, 2),
    ];
    let batch: Vec<Trajectory> = (0..16).map(|v| synthetic_day(4, 20 + v).0).collect();

    let mut g = c.benchmark_group("parallel_detect_batch_16_days");
    g.sample_size(10);
    for threads in thread_counts() {
        // `detect_batch` reads `config.num_threads`, fixed at fit time; the
        // seed is fixed too, so both models carry identical weights.
        let mut cfg = LeadConfig::fast_test();
        cfg.num_threads = threads;
        let (model, _) =
            Lead::fit(&train, &db, &cfg, LeadOptions::full()).expect("training failed");
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| black_box(model.detect_batch(&batch, &db)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_parallel_encoding,
    bench_parallel_detector_training,
    bench_parallel_batch_detection
);
criterion_main!(benches);
