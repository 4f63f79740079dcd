//! Set-up: the synthetic world, the seeded day selection, `.leadbin` shards
//! and the fits that read them.
//!
//! The world and the fixture fit are fixed; only the choice and order of
//! held-out days and fit fleets depends on the workload seed.

use crate::report::{quantile, Digest};
use lead_core::config::LeadConfig;
use lead_core::label::{truth_stay_indices, TruthLabel};
use lead_core::pipeline::{FitOptions, Lead, LeadOptions, TrainSample, TrainingReport};
use lead_core::poi::PoiDatabase;
use lead_core::processing::ProcessedTrajectory;
use lead_core::source::write_sample_shards;
use lead_core::{BinarySampleShards, SampleSource, SourceError};
use lead_geo::Trajectory;
use lead_obs::probe::Probe;
use lead_synth::{generate_dataset, SynthConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The Figure 8 stay-point buckets: metric suffix and inclusive count range.
pub const BUCKETS: [(&str, usize, usize); 4] = [
    ("n3_5", 3, 5),
    ("n6_8", 6, 8),
    ("n9_11", 9, 11),
    ("n12_14", 12, 14),
];

/// Held-out days `detect_fig8` selects per processed stay count 3..=14.
pub const DETECT_DAYS_PER_COUNT: usize = 12;

/// Held-out days `stream_day` selects per stay count: half as many, since
/// a streamed day costs several detections and each day's fastest pass
/// needs as many passes as a run can fit.
pub const STREAM_DAYS_PER_COUNT: usize = 6;

/// Training days of the fixture fit (the first days of the training split).
pub const FIXTURE_DAYS: usize = 16;

/// `fit_small` fleets per Figure 8 bucket. A fleet holds one day of each
/// stay count in its bucket.
pub const FLEETS_PER_BUCKET: usize = 3;

/// Samples per `.leadbin` shard file.
pub const SHARD_SIZE: usize = 2;

/// Salt that separates the selection streams drawn from one workload seed.
const SALT_DAYS: u64 = 0x6c65_6164_6461_7973;
const SALT_FLEETS: u64 = 0x6c65_6164_666c_6574;

/// The synthetic world: `paper_scaled`, 150 trucks × 2 days.
pub fn synth_config() -> SynthConfig {
    let mut c = SynthConfig::paper_scaled();
    c.num_trucks = 150;
    c.days_per_truck = 2;
    c
}

/// The fixture fit's configuration: paper-sized networks, 4 autoencoder and
/// 6 detector epochs, and accumulation 4 so 16 days make 4 optimiser steps
/// per epoch.
pub fn fit_config() -> LeadConfig {
    let mut c = LeadConfig::experiment();
    c.ae_max_epochs = 4;
    c.detector_max_epochs = 6;
    c.batch_accumulation = 4;
    c
}

/// The `fit_small` configuration: the fixture's, with 2 autoencoder and 3
/// detector epochs, so one fit stays short enough to repeat many times in
/// a run.
pub fn fleet_config() -> LeadConfig {
    let mut c = fit_config();
    c.ae_max_epochs = 2;
    c.detector_max_epochs = 3;
    c
}

/// One held-out day.
#[derive(Debug, Clone)]
pub struct Day {
    /// Position in the world's day list (train, then val, then test).
    pub id: usize,
    /// The raw trajectory.
    pub raw: Trajectory,
    /// Its ground truth.
    pub truth: TruthLabel,
    /// Processed stay-point count.
    pub stays: usize,
    /// The truth candidate `(loading, unloading)` stay indexes, if the truth
    /// maps onto the extracted stay points.
    pub truth_pair: Option<(usize, usize)>,
}

impl Day {
    /// The day as a training sample.
    pub fn sample(&self) -> TrainSample {
        TrainSample {
            raw: self.raw.clone(),
            truth: self.truth,
        }
    }

    /// Index of the Figure 8 bucket holding this day.
    pub fn bucket(&self) -> Option<usize> {
        BUCKETS
            .iter()
            .position(|&(_, lo, hi)| (lo..=hi).contains(&self.stays))
    }
}

/// The fixed world: POI database, fixture training days and the held-out
/// pool.
pub struct World {
    /// The city's POI database.
    pub poi_db: PoiDatabase,
    /// Training days of the fixture fit.
    pub fixture: Vec<TrainSample>,
    /// Every other day.
    pub pool: Vec<Day>,
}

impl World {
    /// Generates the world and processes every day once.
    pub fn generate() -> World {
        let ds = generate_dataset(&synth_config());
        let config = fit_config();
        let mut all = ds.train.iter().chain(&ds.val).chain(&ds.test);
        let fixture: Vec<TrainSample> = all
            .by_ref()
            .take(FIXTURE_DAYS)
            .map(|s| TrainSample {
                raw: s.raw.clone(),
                truth: s.truth,
            })
            .collect();
        let pool = all
            .enumerate()
            .map(|(i, s)| {
                let proc = ProcessedTrajectory::from_raw(&s.raw, &config);
                Day {
                    id: FIXTURE_DAYS + i,
                    raw: s.raw.clone(),
                    truth: s.truth,
                    stays: proc.num_stay_points(),
                    truth_pair: truth_stay_indices(&proc, &s.truth),
                }
            })
            .collect();
        World {
            poi_db: ds.city.poi_db,
            fixture,
            pool,
        }
    }

    /// `per_count` pool days for every stay count 3..=14, drawn by `seed`,
    /// in a seeded order. Pool indexes.
    ///
    /// # Errors
    /// When the pool holds too few days of some count.
    pub fn select_days(&self, seed: u64, per_count: usize) -> Result<Vec<usize>, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ SALT_DAYS);
        let mut chosen = Vec::new();
        for n in BUCKETS[0].1..=BUCKETS[3].2 {
            let mut of_n: Vec<usize> = (0..self.pool.len())
                .filter(|&i| self.pool[i].stays == n)
                .collect();
            if of_n.len() < per_count {
                return Err(format!(
                    "pool has {} days with {n} stay points, need {per_count}",
                    of_n.len()
                ));
            }
            of_n.shuffle(&mut rng);
            chosen.extend_from_slice(&of_n[..per_count]);
        }
        chosen.shuffle(&mut rng);
        Ok(chosen)
    }

    /// `FLEETS_PER_BUCKET` fleets per Figure 8 bucket, each holding one
    /// trainable pool day of every stay count in the bucket, drawn by
    /// `seed` without repeats. Bucket index and pool indexes per fleet.
    ///
    /// # Errors
    /// When the pool holds too few trainable days of some count.
    pub fn select_fleets(&self, seed: u64) -> Result<Vec<(usize, Vec<usize>)>, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ SALT_FLEETS);
        let mut fleets = Vec::new();
        for (b, &(_, lo, hi)) in BUCKETS.iter().enumerate() {
            let mut per_count = Vec::new();
            for n in lo..=hi {
                let mut of_n: Vec<usize> = (0..self.pool.len())
                    .filter(|&i| self.pool[i].stays == n && self.pool[i].truth_pair.is_some())
                    .collect();
                if of_n.len() < FLEETS_PER_BUCKET {
                    return Err(format!(
                        "pool has {} trainable days with {n} stay points",
                        of_n.len()
                    ));
                }
                of_n.shuffle(&mut rng);
                per_count.push(of_n);
            }
            for f in 0..FLEETS_PER_BUCKET {
                fleets.push((b, per_count.iter().map(|of_n| of_n[f]).collect()));
            }
        }
        Ok(fleets)
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` under the current directory.
    ///
    /// # Errors
    /// When the directory cannot be created.
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `.bench_work` itself once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Writes `samples` as `.leadbin` shards of `SHARD_SIZE` under `dir`.
///
/// # Errors
/// Any container-write or I/O error.
pub fn write_shards(
    samples: &[TrainSample],
    dir: &Path,
    stem: &str,
) -> Result<Vec<PathBuf>, String> {
    write_sample_shards(samples, dir, stem, SHARD_SIZE).map_err(|e| format!("write shards: {e}"))
}

/// Time and volume read by [`TimedShards`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DataStats {
    /// Time inside `read_shard` calls.
    pub decode: Duration,
    /// Samples delivered.
    pub records: u64,
    /// Bytes of the shard files read.
    pub bytes: u64,
}

/// A [`SampleSource`] over `.leadbin` shards that times every `read_shard`
/// call of the wrapped `BinarySampleShards`.
pub struct TimedShards {
    inner: BinarySampleShards,
    sizes: Vec<u64>,
    /// What was read so far.
    pub stats: DataStats,
}

impl TimedShards {
    /// Opens the shard set.
    ///
    /// # Errors
    /// Header validation or I/O errors of the shard files.
    pub fn open(paths: &[PathBuf]) -> Result<TimedShards, SourceError> {
        let sizes = paths
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()))
            .collect::<Result<Vec<u64>, _>>()?;
        Ok(TimedShards {
            inner: BinarySampleShards::open(paths)?,
            sizes,
            stats: DataStats::default(),
        })
    }
}

impl SampleSource for TimedShards {
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn read_shard(
        &mut self,
        shard: usize,
        sink: &mut dyn FnMut(TrainSample),
    ) -> Result<(), SourceError> {
        let t0 = Instant::now();
        let mut records = 0;
        let result = self.inner.read_shard(shard, &mut |s| {
            records += 1;
            sink(s);
        });
        self.stats.decode += t0.elapsed();
        self.stats.records += records;
        self.stats.bytes += self.sizes.get(shard).copied().unwrap_or(0);
        result
    }
}

/// A probe that sums span durations by name; it is how the benchmark reads
/// the fit's stage times through `FitOptions::with_probe`.
#[derive(Debug, Default)]
pub struct StageSink(Mutex<BTreeMap<String, u64>>);

impl StageSink {
    /// Total nanoseconds recorded under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.0
            .lock()
            .expect("stage sink lock is never held across a panic")
            .get(name)
            .copied()
            .unwrap_or(0)
    }
}

impl Probe for StageSink {
    fn span_ns(&self, name: &str, nanos: u64) {
        *self
            .0
            .lock()
            .expect("stage sink lock is never held across a panic")
            .entry(name.to_string())
            .or_default() += nanos;
    }
}

/// One fit read from shards through [`TimedShards`].
pub struct Fitted {
    /// The trained model.
    pub model: Lead,
    /// Its training report.
    pub report: TrainingReport,
    /// What the data layer read.
    pub data: DataStats,
}

/// Fits full LEAD with `config` on the shard files `paths`, with one
/// worker thread: the model's thread count is also the one
/// `StreamingDetector` scores with.
///
/// # Errors
/// Shard or fit errors, as text.
pub fn fit_shards(
    paths: &[PathBuf],
    poi_db: &PoiDatabase,
    config: &LeadConfig,
    probe: &dyn Probe,
) -> Result<Fitted, String> {
    let mut source = TimedShards::open(paths).map_err(|e| format!("open shards: {e}"))?;
    let opts = FitOptions::new().with_threads(1).with_probe(probe);
    let (model, report) = Lead::fit_streaming(
        &mut source,
        None,
        poi_db,
        config,
        LeadOptions::full(),
        &opts,
    )
    .map_err(|e| format!("fit: {e}"))?;
    Ok(Fitted {
        model,
        report,
        data: source.stats,
    })
}

/// Digest of the model's `write_to` bytes, for byte-identity checks.
pub fn model_digest(model: &Lead) -> u64 {
    let mut bytes = Vec::new();
    model
        .write_to(&mut bytes)
        .expect("writing to a Vec<u8> cannot fail");
    let mut d = Digest::default();
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d.add(u64::from_le_bytes(word));
    }
    // The length separates inputs that differ only in trailing zero bytes.
    d.add(bytes.len() as u64);
    d.value()
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds.
///
/// # Errors
/// The first set-up error.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous set-up first, so each one starts from the same
        // state.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    let value = last.expect("at least one set-up ran");
    Ok((value, quantile(&secs, 0.5)))
}
