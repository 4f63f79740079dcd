//! The performance ratchet: calibrated micro-benchmarks compared against a
//! checked-in baseline, so perf regressions fail CI the same way lint
//! regressions do (DESIGN.md §12).
//!
//! The moving parts:
//!
//! - [`measure`] — a self-calibrating timer: runs a workload until a wall
//!   budget is spent and reports the median per-iteration time (medians are
//!   robust to scheduler noise; means are not).
//! - [`BenchRecord`] — one bench's result: name, median, iteration count,
//!   and a *fingerprint* of the workload parameters. When the workload
//!   changes, the fingerprint changes, and the stale baseline entry is
//!   flagged for refresh instead of being compared against a different
//!   workload.
//! - [`render_json`] / [`parse_json`] — the canonical `bench-ratchet/v1`
//!   serialisation: sorted by bench name, fixed key order, fixed
//!   indentation, trailing newline. The schema (not the timings) is
//!   byte-stable and pinned by a golden test.
//! - [`compare`] — the ratchet itself: current vs baseline with a calibrated
//!   headroom ratio. Only fingerprint-matched entries can regress; new,
//!   removed, and refingerprinted benches are reported separately.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The schema tag of the canonical serialisation.
pub const SCHEMA: &str = "bench-ratchet/v1";

/// Regressions smaller than this many nanoseconds never fail the ratchet,
/// whatever the ratio: sub-microsecond benches flap on cache noise alone.
pub const MIN_REGRESSION_DELTA_NS: u64 = 10_000;

/// Per-bench wall budget handed to [`measure`], milliseconds.
pub const SAMPLE_MS: u64 = 150;

/// Headroom ratio of the gate: a bench regresses only past
/// `baseline × MAX_RATIO`. Generous because machines vary; the ratchet
/// exists to catch complexity-class regressions like an O(n) path going
/// O(n²), not 10 % noise.
pub const MAX_RATIO: f64 = 3.0;

/// One bench's measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Stable bench name (`component/workload` by convention).
    pub name: String,
    /// Median per-iteration wall time, nanoseconds.
    pub median_ns: u64,
    /// Number of timed iterations behind the median.
    pub iters: u64,
    /// FNV-1a hash of the workload parameters (see [`fingerprint`]).
    pub fingerprint: String,
}

/// Hashes a workload description into the fingerprint hex string stored in
/// [`BenchRecord`]. Include every parameter that shapes the work (dataset
/// seed, sizes, thresholds) so a changed workload never silently compares
/// against an old baseline.
pub fn fingerprint(workload_desc: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in workload_desc.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Runs `f` repeatedly for about `sample_ms` milliseconds (after one warmup
/// call) and returns `(median_ns, iters)`.
pub fn measure<F: FnMut()>(sample_ms: u64, mut f: F) -> (u64, u64) {
    f(); // warmup: touch caches, fault pages, JIT nothing — we are AOT.
    let budget = Duration::from_millis(sample_ms);
    let start = Instant::now();
    let mut times_ns: Vec<u64> = Vec::new();
    loop {
        let t = Instant::now();
        f();
        times_ns.push(t.elapsed().as_nanos() as u64);
        if (start.elapsed() >= budget && times_ns.len() >= 9) || times_ns.len() >= 100_000 {
            break;
        }
    }
    times_ns.sort_unstable();
    (times_ns[times_ns.len() / 2], times_ns.len() as u64)
}

/// Renders records in the canonical `bench-ratchet/v1` form: sorted by name,
/// fixed key order, two-space indent, trailing newline.
pub fn render_json(records: &[BenchRecord]) -> String {
    let sorted: BTreeMap<&str, &BenchRecord> =
        records.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    s.push_str("  \"benches\": {\n");
    let n = sorted.len();
    for (i, (name, r)) in sorted.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let _ = writeln!(
            s,
            "    \"{name}\": {{ \"median_ns\": {}, \"iters\": {}, \"fingerprint\": \"{}\" }}{comma}",
            r.median_ns, r.iters, r.fingerprint
        );
    }
    s.push_str("  }\n}\n");
    s
}

/// Parses the canonical form produced by [`render_json`].
///
/// This is deliberately *not* a general JSON parser: the ratchet only ever
/// reads files it (or a past run of it) wrote, and the golden test pins the
/// canonical shape. Anything else is a loud error, including a repeated
/// bench name, which [`compare`] would otherwise resolve by silently
/// dropping all but the last entry.
pub fn parse_json(s: &str) -> Result<Vec<BenchRecord>, String> {
    if !s.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("not a {SCHEMA} file"));
    }
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for line in s.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        if rest.starts_with("schema") || rest.starts_with("benches") {
            continue;
        }
        let (name, fields) = rest
            .split_once('"')
            .ok_or_else(|| format!("unterminated bench name in `{line}`"))?;
        if !seen.insert(name) {
            return Err(format!("duplicate bench name `{name}`"));
        }
        out.push(BenchRecord {
            name: name.to_string(),
            median_ns: field_u64(fields, "median_ns")?,
            iters: field_u64(fields, "iters")?,
            fingerprint: field_str(fields, "fingerprint")?,
        });
    }
    if out.is_empty() {
        return Err("no bench entries found".into());
    }
    Ok(out)
}

fn field_u64(fields: &str, key: &str) -> Result<u64, String> {
    let tag = format!("\"{key}\": ");
    let start = fields
        .find(&tag)
        .ok_or_else(|| format!("missing field `{key}`"))?
        + tag.len();
    let digits: String = fields[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|e| format!("bad `{key}` value: {e}"))
}

fn field_str(fields: &str, key: &str) -> Result<String, String> {
    let tag = format!("\"{key}\": \"");
    let start = fields
        .find(&tag)
        .ok_or_else(|| format!("missing field `{key}`"))?
        + tag.len();
    fields[start..]
        .split('"')
        .next()
        .map(str::to_string)
        .ok_or_else(|| format!("unterminated `{key}` value"))
}

/// One bench that got slower than the baseline allows.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The bench's name.
    pub name: String,
    /// Current median, nanoseconds.
    pub current_ns: u64,
    /// Baseline median, nanoseconds.
    pub baseline_ns: u64,
    /// `current_ns / baseline_ns`.
    pub ratio: f64,
}

/// The outcome of one ratchet comparison.
#[derive(Debug, Clone, Default)]
pub struct RatchetReport {
    /// Benches slower than `baseline × max_ratio` (plus the absolute floor).
    pub regressions: Vec<Regression>,
    /// Baseline entries that no longer match the current suite: the bench
    /// disappeared, or its workload fingerprint changed. Stale entries do
    /// not fail the gate but must be refreshed with `--update-baseline`.
    pub stale: Vec<String>,
    /// Current benches with no baseline entry yet (new benches).
    pub missing_baseline: Vec<String>,
}

impl RatchetReport {
    /// Whether the gate passes (stale and missing entries are warnings).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable summary, one line per finding.
    pub fn render(&self, max_ratio: f64) -> String {
        let mut s = String::new();
        for r in &self.regressions {
            let _ = writeln!(
                s,
                "REGRESSION {}: {} ns vs baseline {} ns ({:.2}x > {max_ratio:.2}x allowed)",
                r.name, r.current_ns, r.baseline_ns, r.ratio
            );
        }
        for name in &self.stale {
            let _ = writeln!(
                s,
                "STALE      {name}: baseline entry no longer matches the suite (refresh with --update-baseline)"
            );
        }
        for name in &self.missing_baseline {
            let _ = writeln!(
                s,
                "NEW        {name}: no baseline entry yet (record with --update-baseline)"
            );
        }
        if s.is_empty() {
            s.push_str("all benches within baseline headroom\n");
        }
        s
    }
}

/// Compares `current` against `baseline`: a fingerprint-matched bench
/// regresses when its median exceeds `baseline × max_ratio` and the absolute
/// slowdown exceeds [`MIN_REGRESSION_DELTA_NS`]. Fingerprint mismatches and
/// removed benches are stale; unknown benches are missing from the baseline.
pub fn compare(current: &[BenchRecord], baseline: &[BenchRecord], max_ratio: f64) -> RatchetReport {
    let base: BTreeMap<&str, &BenchRecord> =
        baseline.iter().map(|r| (r.name.as_str(), r)).collect();
    let cur: BTreeMap<&str, &BenchRecord> = current.iter().map(|r| (r.name.as_str(), r)).collect();

    let mut report = RatchetReport::default();
    for (name, c) in &cur {
        match base.get(name) {
            None => report.missing_baseline.push((*name).to_string()),
            Some(b) if b.fingerprint != c.fingerprint => report.stale.push((*name).to_string()),
            Some(b) => {
                let ratio = c.median_ns as f64 / (b.median_ns.max(1)) as f64;
                if ratio > max_ratio
                    && c.median_ns.saturating_sub(b.median_ns) > MIN_REGRESSION_DELTA_NS
                {
                    report.regressions.push(Regression {
                        name: (*name).to_string(),
                        current_ns: c.median_ns,
                        baseline_ns: b.median_ns,
                        ratio,
                    });
                }
            }
        }
    }
    for name in base.keys() {
        if !cur.contains_key(name) {
            report.stale.push((*name).to_string());
        }
    }
    report
}
