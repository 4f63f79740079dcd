//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).
//!
//! Each workload is a closed loop driven by one caller: the next operation
//! starts when the previous one returns. Whole passes over the workload's
//! inputs repeat until the run's seconds are spent, so every input weighs
//! the same in the pooled timings.

use crate::calibrate::Calibration;
use crate::layers::{traced_detect, LayerTotals, Parts};
use crate::report::{peak_rss_mb, quantile, Digest, Report};
use crate::world::{
    fit_config, fit_shards, fleet_config, model_digest, timed_setup, write_shards, DataStats, Day,
    Fitted, StageSink, WorkDir, World, BUCKETS, DETECT_DAYS_PER_COUNT, STREAM_DAYS_PER_COUNT,
};
use lead_core::pipeline::{DetectOptions, DetectionResult, Lead};
use lead_core::poi::PoiDatabase;
use lead_core::processing::Candidate;
use lead_core::streaming::StreamingDetector;
use lead_obs::probe::{Probe, NOOP};
use lead_obs::recorder::Recorder;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run of `detect_fig8` and `stream_day`, which fit the
/// fixture model; `setup_s` is their median.
pub const SERVED_SETUP_REPS: usize = 5;

/// Set-ups per run of `fit_small`, whose set-up only generates the world
/// and writes shards; `setup_s` is their median.
pub const FLEET_SETUP_REPS: usize = 25;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Lead::detect`, one thread, on held-out days (Figure 8).
    DetectFig8,
    /// The same days replayed fix by fix through `StreamingDetector`.
    StreamDay,
    /// `Lead::fit_streaming` on one small fleet per Figure 8 bucket.
    FitSmall,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "detect_fig8" => Some(Workload::DetectFig8),
            "stream_day" => Some(Workload::StreamDay),
            "fit_small" => Some(Workload::FitSmall),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DetectFig8 => "detect_fig8",
            Workload::StreamDay => "stream_day",
            Workload::FitSmall => "fit_small",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed: picks the days and fleets.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// What one run produced: the result line and a digest of its outputs.
pub struct RunOutput {
    /// The result line.
    pub report: Report,
    /// Digest of the detections (or fitted models) the run checked.
    pub digest: u64,
    /// The end-to-end times before calibration scaling (untraced runs).
    pub raw: Option<String>,
}

/// Runs one workload.
///
/// # Errors
/// Set-up failures, as text; failed operations are counted instead.
pub fn run(spec: RunSpec) -> Result<RunOutput, String> {
    match spec.workload {
        Workload::DetectFig8 | Workload::StreamDay => run_served(spec),
        Workload::FitSmall => run_fit_small(spec),
    }
}

/// Stage times, epochs and data-layer volume of one or more fits.
#[derive(Debug, Clone, Copy, Default)]
struct FitTrace {
    fits: u64,
    stage_ns: [u64; 4],
    ae_epochs: u64,
    det_epochs: u64,
    data: DataStats,
}

const FIT_STAGES: [&str; 4] = [
    "fit.features",
    "fit.autoencoder",
    "fit.encode",
    "fit.detectors",
];

impl FitTrace {
    fn add(&mut self, fitted: &Fitted, sink: &StageSink) {
        self.fits += 1;
        for (slot, stage) in self.stage_ns.iter_mut().zip(FIT_STAGES) {
            *slot += sink.total_ns(stage);
        }
        self.ae_epochs += fitted.report.ae_curve.len() as u64;
        self.det_epochs +=
            (fitted.report.forward_kld_curve.len() + fitted.report.backward_kld_curve.len()) as u64;
        self.data.decode += fitted.data.decode;
        self.data.records += fitted.data.records;
        self.data.bytes += fitted.data.bytes;
    }

    fn report(&self, out: &mut Report) {
        let per_fit = |v: f64| v / self.fits.max(1) as f64;
        out.push(
            "data.decode_ms",
            per_fit(self.data.decode.as_secs_f64() * 1e3),
            "ms",
        );
        out.push("data.records", per_fit(self.data.records as f64), "count");
        out.push("data.bytes", per_fit(self.data.bytes as f64), "bytes");
        for (stage, ns) in FIT_STAGES.iter().zip(self.stage_ns) {
            out.push(format!("{stage}_ms"), per_fit(ns as f64 / 1e6), "ms");
        }
        out.push("fit.ae_epochs", per_fit(self.ae_epochs as f64), "count");
        out.push("fit.det_epochs", per_fit(self.det_epochs as f64), "count");
    }
}

/// The fixed fixture model and the seeded held-out days it serves.
struct Served {
    world: World,
    model: Lead,
    days: Vec<usize>,
    fixture_fit: FitTrace,
    _work: WorkDir,
}

fn setup_served(spec: RunSpec) -> Result<Served, String> {
    let work = WorkDir::create(spec.workload.name())?;
    let world = World::generate();
    let per_count = if spec.workload == Workload::StreamDay {
        STREAM_DAYS_PER_COUNT
    } else {
        DETECT_DAYS_PER_COUNT
    };
    let days = world.select_days(spec.seed, per_count)?;
    let paths = write_shards(&world.fixture, work.path(), "fixture")?;
    let sink = StageSink::default();
    let probe: &dyn Probe = if spec.trace { &sink } else { &NOOP };
    let fitted = fit_shards(&paths, &world.poi_db, &fit_config(), probe)?;
    let mut fixture_fit = FitTrace::default();
    fixture_fit.add(&fitted, &sink);
    Ok(Served {
        world,
        model: fitted.model,
        days,
        fixture_fit,
        _work: work,
    })
}

fn run_served(spec: RunSpec) -> Result<RunOutput, String> {
    let (served, setup_s) = timed_setup(SERVED_SETUP_REPS, || setup_served(spec))?;
    let days: Vec<&Day> = served.days.iter().map(|&i| &served.world.pool[i]).collect();
    let poi_db = &served.world.poi_db;
    let model = &served.model;

    // Reference detections: outputs to check against, and a warm-up.
    let reference: Vec<Option<DetectionResult>> =
        days.iter().map(|d| detect(model, d, poi_db)).collect();
    let digest = detection_digest(&days, &reference);

    let mut report = Report::default();
    let mut raw = None;
    if spec.trace {
        let parts = Parts::from_model(model)?;
        let pass = TracePass::run(model, &parts, &days, poi_db, spec.seconds);
        pass.report(&mut report);
        served.fixture_fit.report(&mut report);
    } else {
        report.attempted = days.len() as u64;
        report.failed = reference.iter().filter(|r| r.is_none()).count() as u64;
        let mut ops = Ops::new(days.iter().map(|d| d.bucket()).collect());
        let t_run = Instant::now();
        while t_run.elapsed().as_secs_f64() < spec.seconds {
            for (i, (day, want)) in days.iter().zip(&reference).enumerate() {
                ops.calibration.sample();
                let ok = if spec.workload == Workload::DetectFig8 {
                    let t0 = Instant::now();
                    let got = detect(model, day, poi_db);
                    ops.record(i, t0.elapsed());
                    matches!((&got, want), (Some(g), Some(w)) if same_detection(g, w))
                } else {
                    let t0 = Instant::now();
                    let got = stream(model, day, poi_db);
                    ops.record(i, t0.elapsed());
                    matches!((&got, want), (Some(g), Some(w)) if g.detected == w.detected)
                };
                report.attempted += 1;
                report.failed += u64::from(!ok);
            }
        }
        raw = Some(ops.report(&mut report, setup_s));
    }
    report.correct = report.failed == 0;
    Ok(RunOutput {
        report,
        digest,
        raw,
    })
}

fn detect(model: &Lead, day: &Day, poi_db: &PoiDatabase) -> Option<DetectionResult> {
    black_box(model.detect_opts(&day.raw, poi_db, &DetectOptions::new().with_threads(1)))
}

/// Replays `day` through a fresh stream at full speed and finishes it.
fn stream(model: &Lead, day: &Day, poi_db: &PoiDatabase) -> Option<DetectionResult> {
    let mut s = StreamingDetector::new(model, poi_db);
    for &p in day.raw.points() {
        black_box(s.push(p));
    }
    black_box(s.finish())
}

fn same_detection(a: &DetectionResult, b: &DetectionResult) -> bool {
    a.detected == b.detected && same_bits(&a.probabilities, &b.probabilities)
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Digest of day ids, detected candidates and probability bits.
fn detection_digest(days: &[&Day], results: &[Option<DetectionResult>]) -> u64 {
    let mut order: Vec<usize> = (0..days.len()).collect();
    order.sort_by_key(|&i| days[i].id);
    let mut d = Digest::default();
    for i in order {
        d.add(days[i].id as u64);
        match &results[i] {
            None => d.add(u64::MAX),
            Some(r) => {
                d.add(r.detected.start_sp as u64);
                d.add(r.detected.end_sp as u64);
                for p in &r.probabilities {
                    d.add(u64::from(p.to_bits()));
                }
            }
        }
    }
    d.value()
}

/// Operation latencies per input (a day or a fleet). Interference from
/// other processes only ever adds time, so an input's time is its fastest
/// pass; the metrics are quantiles of those times over the inputs, pooled
/// and per Figure 8 bucket. Every time is scaled by the run's
/// [`Calibration`] factor.
struct Ops {
    best_ms: Vec<f64>,
    bucket: Vec<Option<usize>>,
    calibration: Calibration,
}

impl Ops {
    fn new(bucket: Vec<Option<usize>>) -> Ops {
        Ops {
            best_ms: vec![f64::INFINITY; bucket.len()],
            bucket,
            calibration: Calibration::default(),
        }
    }

    fn record(&mut self, input: usize, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1e3;
        self.best_ms[input] = self.best_ms[input].min(ms);
    }

    /// Reports the end-to-end metrics and returns a line with the raw,
    /// unscaled times.
    fn report(&self, out: &mut Report, setup_s: f64) -> String {
        let timed = |b: Option<usize>| -> Vec<f64> {
            self.best_ms
                .iter()
                .zip(&self.bucket)
                .filter(|(ms, bucket)| ms.is_finite() && (b.is_none() || **bucket == b))
                .map(|(ms, _)| *ms)
                .collect()
        };
        let all = timed(None);
        let mut raw = vec![
            ("setup_s".to_string(), setup_s, "s"),
            ("op_ms_p50".to_string(), quantile(&all, 0.5), "ms"),
            ("op_ms_p90".to_string(), quantile(&all, 0.9), "ms"),
        ];
        for (b, (name, _, _)) in BUCKETS.iter().enumerate() {
            raw.push((
                format!("op_ms_p50.{name}"),
                quantile(&timed(Some(b)), 0.5),
                "ms",
            ));
        }
        let factor = self.calibration.factor();
        let mut line = format!(
            "raw calibration_ms {:.6} factor {factor:.6}",
            self.calibration.best_ms()
        );
        for (name, value, unit) in raw {
            line.push_str(&format!(" {name} {value:.6}"));
            out.push(name, value * factor, unit);
        }
        out.push("peak_rss_mb", peak_rss_mb(), "MiB");
        line
    }
}

/// One traced pass (or more, until the run's seconds are spent) over some
/// days: the recomposed layers, `Lead::detect` with and without a
/// `Recorder`, and a streamed replay of every day.
#[derive(Default)]
struct TracePass {
    passes: u64,
    layers: LayerTotals,
    detect: Duration,
    recorded: Duration,
    correct: u64,
    attempted: u64,
    failed: u64,
    // streaming
    pushes: u64,
    push_busy: Duration,
    rescores: u64,
    rescore_busy: Duration,
    updates_ms: Vec<f64>,
    candidates_encoded: u64,
    final_candidates: u64,
    streamed_days: u64,
}

impl TracePass {
    fn run(model: &Lead, parts: &Parts, days: &[&Day], poi_db: &PoiDatabase, seconds: f64) -> Self {
        let mut pass = TracePass::default();
        let t_run = Instant::now();
        while pass.passes == 0 || t_run.elapsed().as_secs_f64() < seconds {
            pass.add(model, parts, days, poi_db);
            pass.passes += 1;
        }
        pass
    }

    /// Traces `days` with `model` and its recomposed `parts`.
    fn add(&mut self, model: &Lead, parts: &Parts, days: &[&Day], poi_db: &PoiDatabase) {
        let opts = DetectOptions::new().with_threads(1);
        for day in days {
            black_box(model.detect_opts(&day.raw, poi_db, &opts));
            let t0 = Instant::now();
            let want = black_box(model.detect_opts(&day.raw, poi_db, &opts));
            self.detect += t0.elapsed();
            let got = traced_detect(parts, &day.raw, poi_db, &mut self.layers, &mut |_| {});
            let recorder = Recorder::new();
            let t0 = Instant::now();
            black_box(model.detect_opts(&day.raw, poi_db, &opts.with_probe(&recorder)));
            self.recorded += t0.elapsed();

            let bitwise = match (&got, &want) {
                (Some(g), Some(w)) => {
                    g.detected == w.detected && same_bits(&g.probabilities, &w.probabilities)
                }
                _ => false,
            };
            self.attempted += 1;
            self.failed += u64::from(!bitwise);
            let truth = day.truth_pair.map(|(l, u)| Candidate::new(l, u));
            self.correct += u64::from(want.as_ref().is_some_and(|w| Some(w.detected) == truth));

            let streamed = self.stream(model, day, poi_db);
            let batch = want.as_ref().map(|w| w.detected);
            self.attempted += 1;
            self.failed += u64::from(streamed.is_none() || streamed != batch);
        }
    }

    /// Replays `day` timing every push; returns the final detection.
    fn stream(&mut self, model: &Lead, day: &Day, poi_db: &PoiDatabase) -> Option<Candidate> {
        let mut s = StreamingDetector::new(model, poi_db);
        for &p in day.raw.points() {
            let t0 = Instant::now();
            let update = black_box(s.push(p));
            let dt = t0.elapsed();
            if update.hypothesis.is_some() {
                let k = s.stay_points().len() as u64;
                self.rescores += 1;
                self.rescore_busy += dt;
                self.updates_ms.push(dt.as_secs_f64() * 1e3);
                self.candidates_encoded += k * k.saturating_sub(1) / 2;
            } else {
                self.pushes += 1;
                self.push_busy += dt;
            }
        }
        let t0 = Instant::now();
        let fin = black_box(s.finish());
        self.rescore_busy += t0.elapsed();
        self.rescores += 1;
        self.streamed_days += 1;
        let fin = fin?;
        let m = fin.processed.num_stay_points() as u64;
        self.candidates_encoded += m * m.saturating_sub(1) / 2;
        self.final_candidates += m * m.saturating_sub(1) / 2;
        Some(fin.detected)
    }

    fn detect_ms(&self) -> f64 {
        self.detect.as_secs_f64() * 1e3 / self.layers.days.max(1) as f64
    }

    fn recorder_overhead_pct(&self) -> f64 {
        (self.recorded.as_secs_f64() / self.detect.as_secs_f64() - 1.0) * 100.0
    }

    fn trace_overhead_pct(&self) -> f64 {
        (self.layers.traced.as_secs_f64() / self.detect.as_secs_f64() - 1.0) * 100.0
    }

    fn accuracy(&self) -> f64 {
        self.correct as f64 / self.layers.days.max(1) as f64
    }

    fn report(&self, out: &mut Report) {
        let l = &self.layers;
        let per_pass = |v: u64| v as f64 / self.passes.max(1) as f64;
        out.push("processing.busy_ms", l.per_day_ms(l.processing), "ms");
        out.push("processing.points_in", per_pass(l.points_in), "count");
        out.push(
            "processing.kept_ratio",
            l.points_kept as f64 / l.points_in.max(1) as f64,
            "ratio",
        );
        out.push("processing.stay_points", per_pass(l.stay_points), "count");
        out.push("features.busy_ms", l.per_day_ms(l.features), "ms");
        out.push("features.rows", per_pass(l.feature_rows), "count");
        out.push("encoding.busy_ms", l.per_day_ms(l.encoding), "ms");
        out.push("encoding.candidates", per_pass(l.candidates), "count");
        out.push(
            "encoding.us_per_candidate",
            l.encoding.as_secs_f64() * 1e6 / l.candidates.max(1) as f64,
            "us",
        );
        out.push("detection.fwd_busy_ms", l.per_day_ms(l.forward), "ms");
        out.push("detection.bwd_busy_ms", l.per_day_ms(l.backward), "ms");
        out.push("detection.merge_busy_us", l.per_day_ms(l.merge) * 1e3, "us");
        out.push("detection.subgroups", per_pass(l.subgroups), "count");
        out.push(
            "pipeline.other_ms",
            self.detect_ms() - l.per_day_ms(l.layer_sum()),
            "ms",
        );
        out.push(
            "pipeline.coverage",
            l.layer_sum().as_secs_f64() / self.detect.as_secs_f64(),
            "ratio",
        );
        out.push(
            "streaming.push_busy_us",
            self.push_busy.as_secs_f64() * 1e6 / self.pushes.max(1) as f64,
            "us",
        );
        out.push("streaming.rescores", per_pass(self.rescores), "count");
        out.push(
            "streaming.rescore_busy_ms",
            self.rescore_busy.as_secs_f64() * 1e3 / self.streamed_days.max(1) as f64,
            "ms",
        );
        out.push(
            "streaming.candidates_encoded",
            per_pass(self.candidates_encoded),
            "count",
        );
        out.push(
            "streaming.useful_ratio",
            self.final_candidates as f64 / self.candidates_encoded.max(1) as f64,
            "ratio",
        );
        out.push(
            "streaming.update_ms_p50",
            quantile(&self.updates_ms, 0.5),
            "ms",
        );
        out.push(
            "streaming.update_ms_p90",
            quantile(&self.updates_ms, 0.9),
            "ms",
        );
        out.push(
            "obs.recorder_overhead_pct",
            self.recorder_overhead_pct(),
            "%",
        );
        out.push("trace.overhead_pct", self.trace_overhead_pct(), "%");
        out.push("check.accuracy", self.accuracy(), "share");
        out.attempted += self.attempted;
        out.failed += self.failed;
    }
}

/// One `fit_small` fleet: its bucket, pool days and shard files.
struct Fleet {
    bucket: usize,
    days: Vec<usize>,
    paths: Vec<PathBuf>,
}

struct Fleets {
    world: World,
    fleets: Vec<Fleet>,
    _work: WorkDir,
}

fn setup_fleets(spec: RunSpec) -> Result<Fleets, String> {
    let work = WorkDir::create(spec.workload.name())?;
    let world = World::generate();
    let fleets = world
        .select_fleets(spec.seed)?
        .into_iter()
        .enumerate()
        .map(|(i, (bucket, days))| {
            let samples: Vec<_> = days.iter().map(|&d| world.pool[d].sample()).collect();
            let paths = write_shards(&samples, work.path(), &format!("fleet-{i}"))?;
            Ok(Fleet {
                bucket,
                days,
                paths,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Fleets {
        world,
        fleets,
        _work: work,
    })
}

fn run_fit_small(spec: RunSpec) -> Result<RunOutput, String> {
    let (set, setup_s) = timed_setup(FLEET_SETUP_REPS, || setup_fleets(spec))?;
    let config = fleet_config();
    let poi_db = &set.world.poi_db;
    let mut report = Report::default();
    let mut reference: Vec<Option<u64>> = vec![None; set.fleets.len()];
    let mut models: Vec<Option<Lead>> = (0..set.fleets.len()).map(|_| None).collect();
    let mut ops = Ops::new(set.fleets.iter().map(|f| Some(f.bucket)).collect());
    let mut fit_trace = FitTrace::default();
    let t_run = Instant::now();
    // Traced runs fit each fleet once; untraced runs repeat until time is up.
    let mut passes = 0;
    while passes == 0 || (!spec.trace && t_run.elapsed().as_secs_f64() < spec.seconds) {
        passes += 1;
        for (i, fleet) in set.fleets.iter().enumerate() {
            ops.calibration.sample();
            let sink = StageSink::default();
            let probe: &dyn Probe = if spec.trace { &sink } else { &NOOP };
            let t0 = Instant::now();
            let fitted = fit_shards(&fleet.paths, poi_db, &config, probe);
            let elapsed = t0.elapsed();
            report.attempted += 1;
            let Ok(fitted) = fitted else {
                report.failed += 1;
                continue;
            };
            ops.record(i, elapsed);
            fit_trace.add(&fitted, &sink);
            let bytes = model_digest(&fitted.model);
            match reference[i] {
                None => reference[i] = Some(bytes),
                Some(first) => report.failed += u64::from(first != bytes),
            }
            if spec.trace && models[i].is_none() {
                models[i] = Some(fitted.model);
            }
        }
    }

    let mut digest = Digest::default();
    for &model in reference.iter().flatten() {
        digest.add(model);
    }

    let raw = if spec.trace {
        // The layers and the stream, traced on each fleet's own days with
        // the model fitted on them.
        let traced = set
            .fleets
            .iter()
            .zip(&models)
            .filter_map(|(fleet, model)| {
                let model = model.as_ref()?;
                let days: Vec<&Day> = fleet.days.iter().map(|&i| &set.world.pool[i]).collect();
                Some(Parts::from_model(model).map(|parts| (model, parts, days)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut pass = TracePass::default();
        let remaining = (spec.seconds - t_run.elapsed().as_secs_f64()).max(0.0);
        let t_layers = Instant::now();
        while pass.passes == 0 || t_layers.elapsed().as_secs_f64() < remaining {
            for (model, parts, days) in &traced {
                pass.add(model, parts, days, poi_db);
            }
            pass.passes += 1;
        }
        pass.report(&mut report);
        fit_trace.report(&mut report);
        None
    } else {
        Some(ops.report(&mut report, setup_s))
    };
    report.correct = report.failed == 0;
    Ok(RunOutput {
        report,
        digest: digest.value(),
        raw,
    })
}
