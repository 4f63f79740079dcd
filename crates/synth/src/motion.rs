//! Kinematic simulation: a [`DayPlan`] becomes a noiseless GPS track plus
//! ground-truth loading/unloading intervals.
//!
//! The simulator builds a piecewise-linear *keyframe* timeline — waypoints
//! with arrival times — then samples it at the GPS cadence. Three behaviours
//! give the loaded phase its moving-behaviour signature (the signal LEAD
//! exploits and stay-point-only baselines cannot see):
//!
//! - loaded legs run at `loaded_speed_factor` of the empty cruise speed;
//! - loaded legs detour around the urban core (the regulatory prohibition);
//! - all legs get mild curvature and optional sub-threshold micro-stops.

use crate::city::City;
use crate::config::SynthConfig;
use crate::itinerary::{DayPlan, StayKind};
use crate::rand_util::{randn, uniform_f64, uniform_i64};
use rand::Rng;

/// Ground-truth intervals of the loading and unloading stays (re-exported
/// from `lead-core`, which owns the label model). The loaded trajectory spans
/// `load_start_s ..= unload_end_s`.
pub use lead_core::label::TruthLabel;

/// One point of the noiseless track, in local meters.
#[derive(Debug, Clone, Copy)]
pub struct TrackPoint {
    /// East offset, meters.
    pub x: f64,
    /// North offset, meters.
    pub y: f64,
    /// Seconds after midnight.
    pub t: i64,
    /// Whether the point falls within a planned stay (wander jitter applies).
    pub staying: bool,
}

/// The simulated day.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Noiseless track at the GPS cadence.
    pub track: Vec<TrackPoint>,
    /// Ground-truth l/u intervals.
    pub truth: TruthLabel,
}

#[derive(Debug, Clone, Copy)]
struct Keyframe {
    x: f64,
    y: f64,
    t: f64,
    staying: bool,
}

/// Simulates `plan` in `city`.
pub fn simulate<R: Rng>(
    city: &City,
    config: &SynthConfig,
    plan: &DayPlan,
    rng: &mut R,
) -> SimResult {
    let mut frames: Vec<Keyframe> = Vec::new();
    let mut pos = (plan.end_site.x, plan.end_site.y); // day starts at the depot
    let mut t = plan.depart_s as f64;
    frames.push(Keyframe {
        x: pos.0,
        y: pos.1,
        t,
        staying: false,
    });

    let mut truth = TruthLabel {
        load_start_s: 0,
        load_end_s: 0,
        unload_start_s: 0,
        unload_end_s: 0,
    };

    for (i, stop) in plan.stops.iter().enumerate() {
        let loaded = plan.loaded_on_leg(i);
        drive(
            city,
            config,
            rng,
            &mut frames,
            &mut pos,
            &mut t,
            (stop.site.x, stop.site.y),
            loaded,
        );
        // The stay: two keyframes at the site bracket the dwell.
        let start = t;
        frames.push(Keyframe {
            x: pos.0,
            y: pos.1,
            t,
            staying: true,
        });
        t += stop.dwell_s as f64;
        frames.push(Keyframe {
            x: pos.0,
            y: pos.1,
            t,
            staying: true,
        });
        // Only the *first* process is the ground truth; a reload leg's second
        // load/unload pair (scenario confounder) must not overwrite it.
        match stop.kind {
            StayKind::Loading if truth.load_end_s == 0 => {
                truth.load_start_s = start as i64;
                truth.load_end_s = t as i64;
            }
            StayKind::Unloading if truth.unload_end_s == 0 => {
                truth.unload_start_s = start as i64;
                truth.unload_end_s = t as i64;
            }
            StayKind::Loading | StayKind::Unloading | StayKind::Break => {}
        }
    }

    // Head home (empty) and stop recording shortly after arrival, so no
    // trailing stay point forms at the depot.
    drive(
        city,
        config,
        rng,
        &mut frames,
        &mut pos,
        &mut t,
        (plan.end_site.x, plan.end_site.y),
        false,
    );
    frames.push(Keyframe {
        x: pos.0,
        y: pos.1,
        t: t + 60.0,
        staying: false,
    });

    SimResult {
        track: sample_track(config, rng, &frames),
        truth,
    }
}

/// Appends the keyframes of one driving leg and advances `pos`/`t`.
fn drive<R: Rng>(
    city: &City,
    config: &SynthConfig,
    rng: &mut R,
    frames: &mut Vec<Keyframe>,
    pos: &mut (f64, f64),
    t: &mut f64,
    to: (f64, f64),
    loaded: bool,
) {
    let waypoints = route(city, config, rng, *pos, to, loaded);
    let speed_scale = if loaded {
        config.loaded_speed_factor
    } else {
        1.0
    };
    // One micro-stop per leg at most, placed on a random waypoint boundary.
    let micro_at = if rng.gen_bool(config.micro_stop_prob) && waypoints.len() > 1 {
        Some(rng.gen_range(0..waypoints.len() - 1))
    } else {
        None
    };
    for (w, &wp) in waypoints.iter().enumerate() {
        let speed = uniform_f64(rng, config.base_speed_mps) * speed_scale;
        let d = dist(*pos, wp);
        *t += d / speed.max(1.0);
        *pos = wp;
        frames.push(Keyframe {
            x: pos.0,
            y: pos.1,
            t: *t,
            staying: false,
        });
        if micro_at == Some(w) {
            let dwell = uniform_i64(rng, config.micro_stop_dwell_s) as f64;
            *t += dwell;
            frames.push(Keyframe {
                x: pos.0,
                y: pos.1,
                t: *t,
                staying: false,
            });
        }
    }
}

/// Waypoints from `from` to `to` (inclusive of `to`, exclusive of `from`):
/// mild curvature plus an urban-core detour for loaded trucks.
fn route<R: Rng>(
    city: &City,
    config: &SynthConfig,
    rng: &mut R,
    from: (f64, f64),
    to: (f64, f64),
    loaded: bool,
) -> Vec<(f64, f64)> {
    let mut pts = vec![from];

    if loaded && config.detour_when_loaded {
        if let Some(w) = core_detour_waypoint(city, from, to) {
            pts.push(w);
        }
    }
    pts.push(to);

    // Insert curvature between consecutive waypoints: 1–2 jittered midpoints.
    let mut out: Vec<(f64, f64)> = Vec::new();
    for seg in pts.windows(2) {
        let &[a, b] = seg else { continue };
        let len = dist(a, b);
        if len > 3_000.0 {
            let n = if len > 12_000.0 { 2 } else { 1 };
            for k in 1..=n {
                let f = k as f64 / (n + 1) as f64;
                let (mx, my) = (a.0 + (b.0 - a.0) * f, a.1 + (b.1 - a.1) * f);
                // Perpendicular wobble proportional to leg length, capped.
                let amp = (len * 0.04).min(700.0);
                let (px, py) = perp_unit(a, b);
                let off = randn(rng) * amp;
                out.push((mx + px * off, my + py * off));
            }
        }
        out.push(b);
    }
    out
}

/// A waypoint that routes the segment around the urban core, or `None` when
/// the straight segment keeps clear of it.
fn core_detour_waypoint(city: &City, a: (f64, f64), b: (f64, f64)) -> Option<(f64, f64)> {
    let margin = city.core_radius_m * 1.1;
    let (cx, cy) = closest_point_on_segment(a, b, (0.0, 0.0));
    let d = (cx * cx + cy * cy).sqrt();
    if d >= margin {
        return None;
    }
    // Push the closest-approach point radially outward past the core.
    let target = city.core_radius_m * 1.35;
    if d < 1.0 {
        // Segment passes through the center: detour perpendicular to it.
        let (px, py) = perp_unit(a, b);
        return Some((px * target, py * target));
    }
    Some((cx / d * target, cy / d * target))
}

fn closest_point_on_segment(a: (f64, f64), b: (f64, f64), p: (f64, f64)) -> (f64, f64) {
    let (abx, aby) = (b.0 - a.0, b.1 - a.1);
    let len2 = abx * abx + aby * aby;
    if len2 == 0.0 {
        return a;
    }
    let tt = (((p.0 - a.0) * abx + (p.1 - a.1) * aby) / len2).clamp(0.0, 1.0);
    (a.0 + abx * tt, a.1 + aby * tt)
}

fn perp_unit(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let (dx, dy) = (b.0 - a.0, b.1 - a.1);
    let len = (dx * dx + dy * dy).sqrt().max(1e-9);
    (-dy / len, dx / len)
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Samples the keyframe timeline at the GPS cadence with timestamp jitter and
/// stay-wander jitter.
fn sample_track<R: Rng>(config: &SynthConfig, rng: &mut R, frames: &[Keyframe]) -> Vec<TrackPoint> {
    assert!(frames.len() >= 2, "timeline needs at least two keyframes");
    let t0 = frames.first().map_or(0.0, |f| f.t);
    let t1 = frames.last().map_or(0.0, |f| f.t);
    let mut out = Vec::new();
    let mut t = t0;
    let mut last_t_emitted = i64::MIN;
    while t <= t1 {
        let (x, y, staying) = interpolate(frames, t);
        let (x, y) = if staying {
            // Wander within the site while staying (well inside D_max).
            (x + randn(rng) * 15.0, y + randn(rng) * 15.0)
        } else {
            // Roads are not straight lines: mild isotropic wobble.
            (
                x + randn(rng) * config.path_wobble_m,
                y + randn(rng) * config.path_wobble_m,
            )
        };
        let ti = t as i64;
        if ti > last_t_emitted {
            out.push(TrackPoint {
                x,
                y,
                t: ti,
                staying,
            });
            last_t_emitted = ti;
        }
        let jitter = uniform_i64(
            rng,
            (-config.gps_interval_jitter_s, config.gps_interval_jitter_s),
        );
        t += (config.gps_interval_s + jitter).max(1) as f64;
    }
    out
}

/// Linear interpolation over the keyframes at time `t`.
fn interpolate(frames: &[Keyframe], t: f64) -> (f64, f64, bool) {
    debug_assert!(
        matches!((frames.first(), frames.last()), (Some(a), Some(b)) if a.t <= t && t <= b.t)
    );
    // Binary search for the bracketing pair.
    let mut lo = 0;
    let mut hi = frames.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if frames[mid].t <= t {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (a, b) = (frames[lo], frames[hi]);
    let span = (b.t - a.t).max(1e-9);
    let f = ((t - a.t) / span).clamp(0.0, 1.0);
    (lerp(a.x, b.x, f), lerp(a.y, b.y, f), a.staying && b.staying)
}

#[inline]
fn lerp(from: f64, to: f64, f: f64) -> f64 {
    from + (to - from) * f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itinerary::{plan_day, TruckProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (City, SynthConfig, StdRng) {
        let cfg = SynthConfig::tiny();
        (City::generate(&cfg), cfg, StdRng::seed_from_u64(7))
    }

    fn simulate_one(seed: u64) -> (SimResult, DayPlan, SynthConfig, City) {
        let cfg = SynthConfig::tiny();
        let city = City::generate(&cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let truck = TruckProfile::generate(&city, &cfg, &mut rng, 0);
        let plan = plan_day(&city, &cfg, &truck, &mut rng);
        let sim = simulate(&city, &cfg, &plan, &mut rng);
        (sim, plan, cfg, city)
    }

    #[test]
    fn track_is_chronological() {
        let (sim, ..) = simulate_one(1);
        assert!(sim.track.windows(2).all(|w| w[0].t < w[1].t));
        assert!(sim.track.len() > 50, "got {}", sim.track.len());
    }

    #[test]
    fn truth_intervals_are_ordered() {
        for seed in 0..20 {
            let (sim, ..) = simulate_one(seed);
            let tr = sim.truth;
            assert!(tr.load_start_s < tr.load_end_s);
            assert!(tr.load_end_s < tr.unload_start_s);
            assert!(tr.unload_start_s < tr.unload_end_s);
        }
    }

    #[test]
    fn truck_dwells_at_loading_site_through_truth_interval() {
        let (sim, plan, ..) = simulate_one(3);
        let site = plan.stops[plan.loading_index()].site;
        for p in &sim.track {
            if p.t > sim.truth.load_start_s + 60 && p.t < sim.truth.load_end_s - 60 {
                let d = dist((p.x, p.y), (site.x, site.y));
                assert!(d < 200.0, "wandered {d} m from the loading site");
            }
        }
    }

    #[test]
    fn consecutive_speeds_stay_under_filter_threshold() {
        for seed in 0..10 {
            let (sim, ..) = simulate_one(seed);
            for w in sim.track.windows(2) {
                let d = dist((w[0].x, w[0].y), (w[1].x, w[1].y));
                let dt = (w[1].t - w[0].t) as f64;
                let v_kmh = d / dt * 3.6;
                assert!(v_kmh < 130.0, "speed {v_kmh} km/h at t={}", w[0].t);
            }
        }
    }

    #[test]
    fn loaded_legs_avoid_urban_core() {
        // Find a seed where loading and unloading straddle the core, then
        // check loaded samples stay out of it.
        let mut checked = 0;
        for seed in 0..40 {
            let (sim, plan, _, city) = simulate_one(seed);
            let l = &plan.stops[plan.loading_index()].site;
            let u = &plan.stops[plan.unloading_index()].site;
            let (cx, cy) = closest_point_on_segment((l.x, l.y), (u.x, u.y), (0.0, 0.0));
            if (cx * cx + cy * cy).sqrt() < city.core_radius_m {
                checked += 1;
                for p in &sim.track {
                    if p.t >= sim.truth.load_end_s && p.t <= sim.truth.unload_start_s {
                        let r = (p.x * p.x + p.y * p.y).sqrt();
                        assert!(
                            r > city.core_radius_m * 0.95,
                            "loaded truck inside core at r={r} (seed {seed})"
                        );
                    }
                }
            }
        }
        assert!(checked > 0, "no seed exercised a core-crossing leg");
    }

    #[test]
    fn detour_waypoint_clears_core() {
        let (city, ..) = setup();
        let a = (-15_000.0, -200.0);
        let b = (15_000.0, 150.0);
        let w = core_detour_waypoint(&city, a, b).expect("segment crosses core");
        let r = (w.0 * w.0 + w.1 * w.1).sqrt();
        assert!(r > city.core_radius_m * 1.2);
        assert!(core_detour_waypoint(&city, (-15_000.0, 14_000.0), (15_000.0, 14_000.0)).is_none());
    }

    #[test]
    fn closest_point_on_segment_cases() {
        let a = (0.0, 0.0);
        let b = (10.0, 0.0);
        assert_eq!(closest_point_on_segment(a, b, (5.0, 5.0)), (5.0, 0.0));
        assert_eq!(closest_point_on_segment(a, b, (-5.0, 5.0)), (0.0, 0.0));
        assert_eq!(closest_point_on_segment(a, b, (15.0, 5.0)), (10.0, 0.0));
        assert_eq!(closest_point_on_segment(a, a, (3.0, 4.0)), a);
    }

    #[test]
    fn micro_stops_do_not_create_long_dwells_off_site() {
        // No stretch of ≥ 900 s outside planned stays may sit within 100 m.
        let (sim, ..) = simulate_one(9);
        let pts = &sim.track;
        for i in 0..pts.len() {
            if pts[i].staying {
                continue;
            }
            for j in (i + 1)..pts.len() {
                if dist((pts[i].x, pts[i].y), (pts[j].x, pts[j].y)) > 400.0 {
                    break;
                }
                if pts[j].staying {
                    break;
                }
                assert!(
                    pts[j].t - pts[i].t < 900,
                    "spurious dwell from t={} to t={}",
                    pts[i].t,
                    pts[j].t
                );
            }
        }
    }
}
