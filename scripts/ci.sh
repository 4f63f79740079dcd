#!/usr/bin/env bash
# The full local CI gate: tier-1 (release build + tests), formatting, lints.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples"
cargo build --release --examples

# The benchmark is its own package with a committed lockfile. Building it
# here makes a public-API deletion it relies on, or a drift between its
# lockfile and the workspace crates, fail CI instead of the benchmark run.
echo "==> cargo build --release --offline --locked (leadbench, all targets)"
cargo build --release --offline --locked --manifest-path leadbench/Cargo.toml --all-targets

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The SIMD determinism contract is only as good as its weakest backend: run
# the NN suite again pinned to the scalar reference, so a bug that only the
# scalar path has (or that AVX2 masks) cannot slip through on AVX2 machines.
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-nn"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-nn

# Streaming detection reuses cached c-vecs and logits; its bit parity with
# batch detection must hold on the scalar backend too.
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test stream_detect_parity"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test stream_detect_parity

# Training bytes: parallel_parity's golden pins trained models, loss curves
# and detections, so the scalar backend must reproduce them too.
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test parallel_parity"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-core --test parallel_parity

# The SP-LSTM/SP-GRU baselines train through the same epoch loop; their
# golden pins trained parameters and curves, on the scalar backend too.
echo "==> LEAD_SIMD_FORCE=scalar cargo test -q -p lead-baselines fitted_parameters_match_the_golden_hash"
LEAD_SIMD_FORCE=scalar cargo test -q -p lead-baselines fitted_parameters_match_the_golden_hash

# Planted-divergence self-test: the parity battery must actually catch a
# kernel whose rounding differs (an FMA'd dot). If this test vanishes or
# stops detecting the fixture, the whole parity gate is decorative.
echo "==> simd parity self-test (planted FMA kernel must be caught)"
cargo test -q -p lead-nn --test proptest_simd planted_fma_kernel_is_caught_by_the_battery

# Lint fixtures are deliberately unformatted test inputs, so they are
# excluded (rustfmt's `ignore` config is nightly-only; exclusion happens in
# the file list instead).
echo "==> rustfmt --check (crates/lint/fixtures excluded)"
git ls-files '*.rs' ':!:crates/lint/fixtures/*' | xargs rustfmt --check --edition 2021

# Reports go under target/ci/ so a CI run never rewrites tracked files.
mkdir -p target/ci

echo "==> cargo run -p lead-lint --release (baseline ratchet, JSON report)"
if ! cargo run -q -p lead-lint --release -- --format json --baseline lint.baseline > target/ci/lint.json; then
    cat target/ci/lint.json
    echo "lead-lint gate failed (see target/ci/lint.json)"
    exit 1
fi

echo "==> lead-lint R10 self-test (planted unsafe-contract violations must fail)"
R10_TMP="target/tmp/r10-selftest"
rm -rf "$R10_TMP"
mkdir -p "$R10_TMP/crates/nn/src/simd" "$R10_TMP/crates/geo/src"
printf '[workspace]\nmembers = ["crates/*"]\n' > "$R10_TMP/Cargo.toml"
printf '[package]\nname = "lead-nn"\n\n[package.metadata.lead]\nclass = "result-lib"\n' \
    > "$R10_TMP/crates/nn/Cargo.toml"
printf '//! N.\n#![deny(unsafe_code)]\n#![deny(missing_docs)]\n#![deny(unreachable_pub)]\n#![deny(clippy::disallowed_types)]\n#![deny(clippy::missing_errors_doc)]\n' \
    > "$R10_TMP/crates/nn/src/lib.rs"
# Planted violation 1: an un-SAFETY'd unsafe site inside the sanctioned module.
printf '//! K.\n\nfn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n' \
    > "$R10_TMP/crates/nn/src/simd/kernel.rs"
# Planted violation 2: a library crate whose root is missing forbid(unsafe_code).
printf '[package]\nname = "lead-geo"\n\n[package.metadata.lead]\nclass = "lib"\n' \
    > "$R10_TMP/crates/geo/Cargo.toml"
printf '//! G.\n#![deny(missing_docs)]\n' > "$R10_TMP/crates/geo/src/lib.rs"
if cargo run -q -p lead-lint --release -- --root "$R10_TMP" > "$R10_TMP/out.txt"; then
    echo "lead-lint R10 self-test failed: planted violations were NOT caught"
    exit 1
fi
if [ "$(grep -c 'unsafe-contract' "$R10_TMP/out.txt")" -lt 2 ]; then
    echo "lead-lint R10 self-test failed: expected both planted unsafe-contract diagnostics"
    cat "$R10_TMP/out.txt"
    exit 1
fi

# Interprocedural self-test 1: a `pub fn` of a result-affecting crate that
# reaches `unwrap()` only through a private helper is invisible to the
# file-local panic rule's public-surface argument; R12 must walk the call
# graph and report the full witness path.
echo "==> lead-lint R12 self-test (pub fn reaching a panic via a private helper must fail)"
R12_TMP="target/tmp/r12-selftest"
rm -rf "$R12_TMP"
mkdir -p "$R12_TMP/crates/eval/src"
printf '[workspace]\nmembers = ["crates/*"]\n' > "$R12_TMP/Cargo.toml"
printf '[package]\nname = "lead-eval"\n\n[package.metadata.lead]\nclass = "result-lib"\n' \
    > "$R12_TMP/crates/eval/Cargo.toml"
printf '//! E.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)] #![deny(clippy::disallowed_types)]\n\n/// Entry.\npub fn entry(o: Option<u32>) -> u32 {\n    helper(o)\n}\n\nfn helper(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n' \
    > "$R12_TMP/crates/eval/src/lib.rs"
if cargo run -q -p lead-lint --release -- --root "$R12_TMP" > "$R12_TMP/out.txt"; then
    echo "lead-lint R12 self-test failed: planted panic path was NOT caught"
    exit 1
fi
if ! grep -q 'panic-path' "$R12_TMP/out.txt"; then
    echo "lead-lint R12 self-test failed: expected a panic-path diagnostic"
    cat "$R12_TMP/out.txt"
    exit 1
fi
if ! grep -q 'entry → helper' "$R12_TMP/out.txt"; then
    echo "lead-lint R12 self-test failed: expected the witness path 'entry → helper'"
    cat "$R12_TMP/out.txt"
    exit 1
fi

# Interprocedural self-test 2: a wall-clock read laundered through a helper
# crate (eval calls synth's now_ms) must be caught by R13 across the crate
# boundary, not just at the site.
echo "==> lead-lint R13 self-test (a clock laundered through a helper crate must fail)"
R13_TMP="target/tmp/r13-selftest"
rm -rf "$R13_TMP"
mkdir -p "$R13_TMP/crates/eval/src" "$R13_TMP/crates/synth/src"
printf '[workspace]\nmembers = ["crates/*"]\n' > "$R13_TMP/Cargo.toml"
printf '[package]\nname = "lead-eval"\n\n[package.metadata.lead]\nclass = "result-lib"\n\n[dependencies]\nlead-synth = { path = "../synth" }\n' \
    > "$R13_TMP/crates/eval/Cargo.toml"
printf '//! E.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)] #![deny(clippy::disallowed_types)]\n\n/// Entry.\npub fn entry() -> u64 {\n    lead_synth::now_ms()\n}\n' \
    > "$R13_TMP/crates/eval/src/lib.rs"
printf '[package]\nname = "lead-synth"\n\n[package.metadata.lead]\nclass = "lib"\n' \
    > "$R13_TMP/crates/synth/Cargo.toml"
printf '//! S.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\n/// Now.\npub fn now_ms() -> u64 {\n    let t = std::time::Instant::now();\n    t.elapsed().as_millis() as u64\n}\n' \
    > "$R13_TMP/crates/synth/src/lib.rs"
if cargo run -q -p lead-lint --release -- --root "$R13_TMP" > "$R13_TMP/out.txt"; then
    echo "lead-lint R13 self-test failed: planted cross-crate taint was NOT caught"
    exit 1
fi
if ! grep -q 'determinism-taint' "$R13_TMP/out.txt"; then
    echo "lead-lint R13 self-test failed: expected a determinism-taint diagnostic"
    cat "$R13_TMP/out.txt"
    exit 1
fi
if ! grep -q 'entry → now_ms' "$R13_TMP/out.txt"; then
    echo "lead-lint R13 self-test failed: expected the witness path 'entry → now_ms'"
    cat "$R13_TMP/out.txt"
    exit 1
fi

# Binary-format gate: a CSV -> binary -> CSV round trip must be byte-exact
# (the sample uses grid-aligned coordinates, so fixed-point encoding is
# provably lossless), and a planted flipped byte inside the first record
# payload must make `verify` fail — otherwise the checksum layer is
# decorative.
echo "==> data-convert round-trip + planted-corruption self-test"
DC_TMP="target/tmp/data-convert-selftest"
rm -rf "$DC_TMP"
mkdir -p "$DC_TMP"
DC="target/release/data-convert"
"$DC" sample-csv "$DC_TMP/sample.csv"
"$DC" csv2bin "$DC_TMP/sample.csv" "$DC_TMP/sample.leadbin"
"$DC" verify "$DC_TMP/sample.leadbin"
"$DC" bin2csv "$DC_TMP/back.csv" "$DC_TMP/sample.leadbin"
if ! cmp -s "$DC_TMP/sample.csv" "$DC_TMP/back.csv"; then
    echo "data-convert self-test failed: csv -> bin -> csv round trip is not byte-exact"
    exit 1
fi
# Offset 40: past the 20-byte header and 12-byte frame preamble, inside the
# first record's payload.
"$DC" corrupt "$DC_TMP/sample.leadbin" 40
if "$DC" verify "$DC_TMP/sample.leadbin"; then
    echo "data-convert self-test failed: planted corruption was NOT detected"
    exit 1
fi

echo "==> bench-ratchet self-test (the gate must catch a planted regression)"
cargo run -q -p lead-bench --release --bin bench_ratchet -- --self-test

# A STALE or NEW line means the suite and bench.baseline have drifted
# apart: a workload was added, removed or reshaped without re-recording it.
echo "==> bench-ratchet gate (target/ci/bench.json vs bench.baseline)"
cargo run -q -p lead-bench --release --bin bench_ratchet -- \
    --write target/ci/bench.json --baseline bench.baseline | tee target/ci/bench-gate.txt
if grep -qE '^(STALE|NEW) ' target/ci/bench-gate.txt; then
    echo "bench-ratchet gate failed: bench.baseline is out of step with the suite"
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Planted clippy self-test. The hash-order, thread-spawn, wall-clock and
# missing-doc checks (former lead-lint R1, R3, R5, R6) and R8's `# Errors`
# half live in clippy.toml, [workspace.lints] and the crate-root attributes.
# A throwaway crate with lead-core's root attributes and the workspace's
# clippy lint levels must trip each of them once per planted line, and the
# `#[expect]`-waived lines must stay quiet.
echo "==> clippy self-test (planted determinism and doc violations must fail)"
CL_TMP="target/tmp/clippy-selftest"
rm -rf "$CL_TMP"
mkdir -p "$CL_TMP/src"
{
    printf '[package]\nname = "planted"\nversion = "0.0.0"\nedition = "2021"\n\n[workspace]\n\n'
    sed -n '/^\[workspace\.lints\.clippy\]/,/^$/p' Cargo.toml | sed 's/^\[workspace\.lints\.clippy\]/[lints.clippy]/'
} > "$CL_TMP/Cargo.toml"
{
    printf '//! Planted violations: every line not under an `#[expect]` must trip a lint.\n'
    grep '^#!\[' crates/core/src/lib.rs
    cat <<'RUST'
#![expect(dead_code, reason = "planted items are never called")]

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::time::Instant;

fn hash_order_fires() -> usize {
    HashMap::<u32, u32>::new().len()
}

#[expect(clippy::disallowed_types, reason = "keys are sorted before iteration")]
fn hash_order_waived() -> HashMap<u32, u32> {
    let _ = HashMap::<u8, u8>::new();
    HashMap::new()
}

fn hash_order_clean(m: &BTreeMap<u32, u32>) -> usize {
    m.len()
}

pub fn undocumented() {}

/// Documented: fine.
pub fn documented() {}

pub struct Bare;

/// Documented struct with an attribute between doc and item: fine.
#[derive(Debug, Clone)]
pub struct Attributed {
    /// Field docs.
    pub field: u32,
}

pub const LIMIT: usize = 8;

#[expect(missing_docs, reason = "documented at the definition site")]
pub fn waived_item() {}

fn private_needs_no_docs() {}

mod private {
    pub fn hidden() {}
}

fn thread_spawn_fires() {
    let h = std::thread::spawn(|| 1 + 1);
    let _ = h.join();
    std::thread::scope(|_s| {});
    let _ = std::thread::Builder::new();
}

#[expect(clippy::disallowed_methods, reason = "watchdog thread, never touches results")]
fn thread_spawn_waived() {
    std::thread::spawn(|| ());
}

fn wall_clock_fires() -> u64 {
    let t = std::time::SystemTime::now();
    let _ = t;
    0
}

#[expect(clippy::disallowed_types, reason = "progress logging only")]
fn wall_clock_waived() {
    let _t = Instant::now();
}

/// Parses a number.
pub fn parse(s: &str) -> Result<u32, std::num::ParseIntError> {
    s.parse()
}

/// Clean: the expectation below is never met.
#[expect(clippy::disallowed_types, reason = "nothing here uses a banned type")]
pub fn unused_expect() {}

#[allow(clippy::needless_return)]
fn bare_allow() {}
RUST
} > "$CL_TMP/src/lib.rs"
if CLIPPY_CONF_DIR="$PWD" cargo clippy -q --offline --manifest-path "$CL_TMP/Cargo.toml" \
    --message-format=json -- -D warnings > "$CL_TMP/out.json" 2> "$CL_TMP/err.txt"; then
    echo "clippy self-test failed: planted violations were NOT caught"
    exit 1
fi
# Expected diagnostics per lint: the HashMap import and use, the Instant
# import and SystemTime::now; spawn, scope and Builder::new; three
# undocumented pub items; one each for the rest. The one unfulfilled
# expectation is the planted unused `#[expect]`, so every waiver held.
for want in clippy::disallowed_types=4 clippy::disallowed_methods=3 missing_docs=3 \
    unreachable_pub=1 clippy::missing_errors_doc=1 unfulfilled_lint_expectations=1 \
    clippy::allow_attributes=1 clippy::allow_attributes_without_reason=1; do
    lint="${want%=*}"
    got="$(grep -c "\"code\":{\"code\":\"$lint\"" "$CL_TMP/out.json" || true)"
    if [ "$got" != "${want#*=}" ]; then
        echo "clippy self-test failed: expected ${want#*=} $lint diagnostic(s), got $got"
        cat "$CL_TMP/err.txt"
        exit 1
    fi
done

# Deterministic artifact listing: uploads of results/ must not depend on
# filesystem enumeration order or locale.
echo "==> results/ artifacts"
find results -type f | LC_ALL=C sort

echo "CI gate passed."
