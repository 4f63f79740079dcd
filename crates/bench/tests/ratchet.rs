//! Integration tests for the bench-ratchet: a golden test pinning the
//! `bench-ratchet/v1` serialisation byte-for-byte, round-trip and comparison
//! semantics, and the fingerprint contract.
//!
//! The golden test is the schema's change detector: if the rendering ever
//! shifts, every checked-in `bench.baseline` becomes unreadable, so the
//! bytes below may only change together with a schema version bump.

use lead_bench::ratchet::{
    compare, fingerprint, measure, parse_json, render_json, BenchRecord, MIN_REGRESSION_DELTA_NS,
    SCHEMA,
};

fn rec(name: &str, median_ns: u64, iters: u64, fp: &str) -> BenchRecord {
    BenchRecord {
        name: name.to_string(),
        median_ns,
        iters,
        fingerprint: fp.to_string(),
    }
}

#[test]
fn golden_render_is_byte_stable() {
    // Deliberately unsorted input: the renderer must sort by name.
    let records = vec![
        rec("streaming/long_dwell", 987, 1500, "ebc82d6b23f510d0"),
        rec("processing/pipeline", 123456, 42, "4ef570f2c2a53211"),
    ];
    let expected = "{\n\
        \x20 \"schema\": \"bench-ratchet/v1\",\n\
        \x20 \"benches\": {\n\
        \x20   \"processing/pipeline\": { \"median_ns\": 123456, \"iters\": 42, \"fingerprint\": \"4ef570f2c2a53211\" },\n\
        \x20   \"streaming/long_dwell\": { \"median_ns\": 987, \"iters\": 1500, \"fingerprint\": \"ebc82d6b23f510d0\" }\n\
        \x20 }\n\
        }\n";
    assert_eq!(render_json(&records), expected);
    assert_eq!(SCHEMA, "bench-ratchet/v1");
}

#[test]
fn render_parse_roundtrip_preserves_records() {
    let records = vec![
        rec("b/two", 2_000_000, 10, "aaaa"),
        rec("a/one", 1, 100_000, "bbbb"),
    ];
    let parsed = parse_json(&render_json(&records)).expect("canonical form parses");
    // Parse returns name-sorted records (the canonical order).
    assert_eq!(parsed, vec![records[1].clone(), records[0].clone()]);
}

#[test]
fn parse_rejects_foreign_files() {
    assert!(parse_json("{}").is_err());
    assert!(parse_json("{ \"schema\": \"bench-ratchet/v999\" }").is_err());
    // Right schema tag but no entries is still an error, not an empty pass.
    let empty = "{\n  \"schema\": \"bench-ratchet/v1\",\n  \"benches\": {\n  }\n}\n";
    assert!(parse_json(empty).is_err());
    // A repeated name is an error, not a silent last-entry-wins merge.
    let dup = "{\n  \"schema\": \"bench-ratchet/v1\",\n  \"benches\": {\n\
        \x20   \"a\": { \"median_ns\": 1, \"iters\": 1, \"fingerprint\": \"fp\" },\n\
        \x20   \"a\": { \"median_ns\": 9, \"iters\": 1, \"fingerprint\": \"fp\" }\n  }\n}\n";
    assert!(parse_json(dup).unwrap_err().contains("duplicate"));
}

#[test]
fn checked_in_baseline_is_canonical() -> Result<(), String> {
    let baseline = include_str!("../../../bench.baseline");
    assert_eq!(render_json(&parse_json(baseline)?), baseline);
    Ok(())
}

#[test]
fn compare_flags_regressions_stale_and_new() {
    let baseline = vec![
        rec("a", 1_000_000, 10, "fp-a"),
        rec("b", 1_000_000, 10, "fp-b"),
        rec("gone", 1_000_000, 10, "fp-gone"),
    ];
    let current = vec![
        rec("a", 5_000_000, 10, "fp-a"),     // 5x slower: regression
        rec("b", 5_000_000, 10, "fp-b2"),    // refingerprinted: stale, not regression
        rec("fresh", 1_000, 10, "fp-fresh"), // no baseline yet
    ];
    let report = compare(&current, &baseline, 3.0);
    assert!(!report.passed());
    assert_eq!(report.regressions.len(), 1);
    assert_eq!(report.regressions[0].name, "a");
    assert!((report.regressions[0].ratio - 5.0).abs() < 1e-9);
    let mut stale = report.stale.clone();
    stale.sort();
    assert_eq!(stale, ["b", "gone"]);
    assert_eq!(report.missing_baseline, ["fresh"]);
    let rendered = report.render(3.0);
    assert!(rendered.contains("REGRESSION a"));
    assert!(rendered.contains("STALE"));
    assert!(rendered.contains("NEW"));
}

#[test]
fn tiny_absolute_slowdowns_never_regress() {
    // 100 ns -> 900 ns is a 9x ratio but far under the absolute floor:
    // sub-microsecond benches flap on cache noise and must not fail CI.
    let baseline = vec![rec("t", 100, 10, "fp")];
    let current = vec![rec("t", 900, 10, "fp")];
    assert!(compare(&current, &baseline, 3.0).passed());
    // Just past the floor with the same ratio, it does regress.
    let baseline = vec![rec("t", MIN_REGRESSION_DELTA_NS, 10, "fp")];
    let current = vec![rec("t", MIN_REGRESSION_DELTA_NS * 9, 10, "fp")];
    assert!(!compare(&current, &baseline, 3.0).passed());
}

#[test]
fn fingerprints_separate_workloads() {
    let a = fingerprint("n=14 dim=64 seed=9");
    let b = fingerprint("n=14 dim=64 seed=10");
    assert_ne!(a, b);
    assert_eq!(a, fingerprint("n=14 dim=64 seed=9"));
    assert_eq!(a.len(), 16);
    assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
}

#[test]
fn measure_reports_sane_medians() {
    let mut counter = 0u64;
    let (median_ns, iters) = measure(5, || {
        counter = counter.wrapping_add(1);
        std::hint::black_box(counter);
    });
    assert!(iters >= 9, "at least the minimum iteration count");
    assert!(median_ns < 1_000_000_000, "a no-op cannot take a second");
}
