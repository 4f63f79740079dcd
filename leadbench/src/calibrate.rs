//! A benchmark-owned reference loop that measures how fast the machine is
//! running during a run.
//!
//! On a shared host, other tenants can slow every core by a third for
//! minutes at a time; no pass of the workload then runs at full speed. The
//! reference loop is sampled between operations, and the run's times are
//! scaled by how much slower than [`REFERENCE_MS`] its fastest sample was.
//! The loop is the benchmark's own code and calls nothing in the program,
//! so a change to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// The reference loop's fastest time, in ms, on the host the benchmark was
/// tuned on (2-core Xeon, 2.1 GHz, when no other tenant was busy). Scaled
/// times read as that host's ms.
pub const REFERENCE_MS: f64 = 0.098;

const N: usize = 128;
const STEPS: usize = 24;

/// The fastest reference-loop time seen so far.
pub struct Calibration {
    weights: Vec<f32>,
    best_ms: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        // A fixed, well-conditioned matrix: a recurrence `x ← tanh(W x)`
        // like one LSTM gate, compute-bound in cache.
        let weights = (0..N * N)
            .map(|i| ((i * 7919 % 257) as f32 - 128.0) / (128.0 * N as f32).sqrt())
            .collect();
        Calibration {
            weights,
            best_ms: f64::INFINITY,
        }
    }
}

impl Calibration {
    /// Times one run of the reference loop.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(recurrence(black_box(&self.weights)));
        self.best_ms = self.best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// The fastest sample, in ms.
    pub fn best_ms(&self) -> f64 {
        self.best_ms
    }

    /// What a time measured in this run is multiplied by to read as
    /// reference-host time: below 1 when the machine ran slow.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.best_ms
    }
}

fn recurrence(w: &[f32]) -> f32 {
    let mut x = [0.5f32; N];
    let mut y = [0.0f32; N];
    for _ in 0..STEPS {
        for (yi, row) in y.iter_mut().zip(w.chunks_exact(N)) {
            // Eight independent sums, so the loop vectorises like the
            // program's SIMD kernels instead of waiting on one add chain.
            let mut acc = [0.0f32; 8];
            for (a, b) in row.chunks_exact(8).zip(x.chunks_exact(8)) {
                for k in 0..8 {
                    acc[k] += a[k] * b[k];
                }
            }
            *yi = acc.iter().sum::<f32>().tanh();
        }
        x = y;
    }
    x.iter().sum()
}
