//! Streamed detection reuses the scoring work of closed stays; it must still
//! give the batch answer, bit for bit.
//!
//! For every model variant, every rolling hypothesis of a
//! [`StreamingDetector`] must equal [`Lead::detect_processed_opts`] on the
//! stream's snapshot (detected candidate and the `to_bits` of every
//! probability), and `finish` must equal [`Lead::detect`] on the raw day. The
//! check runs at one and two worker threads, with a recording probe and
//! without one.

use lead_core::config::LeadConfig;
use lead_core::label::TruthLabel;
use lead_core::pipeline::{DetectOptions, DetectionResult, Lead, LeadOptions, TrainSample};
use lead_core::poi::{Poi, PoiCategory, PoiDatabase};
use lead_core::streaming::StreamingDetector;
use lead_geo::distance::meters_to_lng_deg;
use lead_geo::{GpsPoint, Trajectory};
use lead_obs::probe::{Probe, NOOP};
use lead_obs::Recorder;

/// One working day: `blocks` dwells separated by short drives, geometry
/// perturbed by `variant`. Returns the raw trajectory and the dwell
/// intervals.
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

/// Two 45-minute dwells 700 m apart with no drive between them, then two
/// ordinary blocks: the first stay re-anchors inside buffered history, the
/// shape of the extractor's rescan test.
fn hop_day() -> Trajectory {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    let mut pts = Vec::new();
    let mut t = 0i64;
    for lng_km in [0.0, 0.7] {
        for _ in 0..30 {
            pts.push(GpsPoint::new(32.0, 120.9 + lng_km * per_km, t));
            t += 90;
        }
    }
    for block in 1..=2 {
        for k in 1..=3 {
            let km = 0.7 + (block - 1) as f64 * 5.0 + k as f64 * 1.25;
            pts.push(GpsPoint::new(32.0, 120.9 + km * per_km, t));
            t += 120;
        }
        let lng = 120.9 + (0.7 + block as f64 * 5.0) * per_km;
        for _ in 0..10 {
            pts.push(GpsPoint::new(32.0, lng, t));
            t += 120;
        }
    }
    Trajectory::new(pts)
}

fn labelled(blocks: usize, variant: u64, load: usize, unload: usize) -> TrainSample {
    let (raw, dwells) = synthetic_day(blocks, variant);
    TrainSample {
        raw,
        truth: TruthLabel {
            load_start_s: dwells[load].0,
            load_end_s: dwells[load].1,
            unload_start_s: dwells[unload].0,
            unload_end_s: dwells[unload].1,
        },
    }
}

fn poi_db() -> PoiDatabase {
    let per_km = meters_to_lng_deg(1_000.0, 32.0);
    PoiDatabase::new(vec![
        Poi {
            lat: 32.0,
            lng: 120.9,
            category: PoiCategory::ChemicalFactory,
        },
        Poi {
            lat: 32.0,
            lng: 120.9 + 5.0 * per_km,
            category: PoiCategory::FuelingStation,
        },
        Poi {
            lat: 32.0,
            lng: 120.9 + 10.0 * per_km,
            category: PoiCategory::Port,
        },
    ])
}

fn fit(options: LeadOptions, num_threads: usize) -> Lead {
    let train = vec![
        labelled(4, 1, 0, 2),
        labelled(4, 2, 1, 3),
        labelled(3, 3, 0, 2),
        labelled(5, 4, 0, 3),
    ];
    let mut config = LeadConfig::fast_test();
    config.num_threads = num_threads;
    Lead::fit(&train, &poi_db(), &config, options)
        .expect("fit")
        .0
}

fn days() -> Vec<Trajectory> {
    let mut days: Vec<Trajectory> = (2..=7).map(|b| synthetic_day(b, 10 + b as u64).0).collect();
    days.push(hop_day());
    days
}

type Fingerprint = Option<(usize, usize, Vec<u32>)>;

fn fingerprint(r: &Option<DetectionResult>) -> Fingerprint {
    r.as_ref().map(|d| {
        (
            d.detected.start_sp,
            d.detected.end_sp,
            d.probabilities.iter().map(|v| v.to_bits()).collect(),
        )
    })
}

/// Streams `raw`, checking every hypothesis against batch detection of the
/// snapshot; returns the final detection's fingerprint and the number of
/// hypotheses checked.
fn stream_checked(
    model: &Lead,
    db: &PoiDatabase,
    raw: &Trajectory,
    probe: &dyn Probe,
) -> (Fingerprint, usize) {
    let mut stream = StreamingDetector::with_probe(model, db, probe);
    let mut checked = 0;
    for &p in raw.points() {
        let update = stream.push(p);
        if let Some(got) = update.hypothesis {
            let want = model.detect_processed_opts(stream.snapshot(), db, &DetectOptions::new());
            assert_eq!(got.processed.stay_points, stream.snapshot().stay_points);
            assert_eq!(
                fingerprint(&Some(got)),
                fingerprint(&want),
                "{} hypothesis {checked}",
                model.options().name()
            );
            checked += 1;
        }
    }
    let streamed = fingerprint(&stream.finish());
    assert_eq!(
        streamed,
        fingerprint(&model.detect(raw, db)),
        "{} finish",
        model.options().name()
    );
    (streamed, checked)
}

#[test]
fn streamed_hypotheses_match_batch_detection_bit_for_bit() {
    let db = poi_db();
    let days = days();
    for options in [
        LeadOptions::full(),
        LeadOptions::no_poi(),
        LeadOptions::no_sel(),
        LeadOptions::no_hie(),
        LeadOptions::no_gro(),
        LeadOptions::no_for(),
        LeadOptions::no_bac(),
    ] {
        let mut finals: Vec<Vec<Fingerprint>> = Vec::new();
        for threads in [1, 2] {
            let model = fit(options, threads);
            let mut per_day = Vec::new();
            let mut checked = 0;
            for raw in &days {
                let recorder = Recorder::new();
                let (plain, n_plain) = stream_checked(&model, &db, raw, &NOOP);
                let (probed, n_probed) = stream_checked(&model, &db, raw, &recorder);
                assert_eq!(plain, probed, "{} under a probe", options.name());
                assert_eq!(n_plain, n_probed);
                checked += n_plain;
                // Each candidate is encoded once over the whole stream.
                let stays = model
                    .detect(raw, &db)
                    .map_or(0, |r| r.processed.num_stay_points());
                let encoded = recorder.counter("stream.candidates_encoded").unwrap_or(0);
                assert_eq!(encoded, (stays * stays.saturating_sub(1) / 2) as u64);
                per_day.push(plain);
            }
            assert!(checked >= 20, "{}: {checked} hypotheses", options.name());
            finals.push(per_day);
        }
        assert_eq!(finals[0], finals[1], "{} across threads", options.name());
    }
}
