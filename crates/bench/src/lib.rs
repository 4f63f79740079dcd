//! Shared scaffolding for the experiment binaries and the perf ratchet.
//!
//! Every table and figure of the paper has a binary here (see DESIGN.md §4):
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Table III (accuracy vs baselines) | `table3` |
//! | Table IV (ablation accuracy)      | `table4` |
//! | Figure 8 (inference time)         | `fig8`   |
//! | Figure 9 (autoencoder MSE curves) | `fig9`   |
//! | Figure 10 (detector KLD curves)   | `fig10`  |
//! | everything                        | `run_all` |
//! | the L = 1..10 layer tuning claim  | `sweep_layers` |
//!
//! Beyond the paper, `scenarios` reports per-scenario robustness (accuracy
//! and IoU under each named GPS pathology of `lead_synth::scenario`), and
//! `bench_ratchet` runs the calibrated perf suite against `bench.baseline`.
//!
//! One diagnostic binary supports development: `probe` (loss curves and
//! detected-vs-truth dumps at an arbitrary scale).
//!
//! Binaries accept a scale argument (`tiny` / `quick` / `full`, default
//! `quick`) and write both stdout tables and CSV files under `results/`.

use lead_core::config::LeadConfig;
use lead_synth::SynthConfig;
use std::path::PathBuf;

pub mod ratchet;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (seconds; numbers are noisy).
    Tiny,
    /// Default scale: stable orderings, minutes per method.
    Quick,
    /// Closest to the paper's data volume this hardware affords.
    Full,
}

impl Scale {
    /// Parses the first CLI argument, defaulting to `Quick`.
    ///
    /// # Panics
    /// Panics on an unrecognised scale name.
    pub fn from_args() -> Scale {
        match std::env::args().nth(1).as_deref() {
            None => Scale::Quick,
            Some("tiny") => Scale::Tiny,
            Some("quick") => Scale::Quick,
            Some("full") => Scale::Full,
            Some(other) => panic!("unknown scale `{other}` (expected tiny|quick|full)"),
        }
    }

    /// The synthetic-world configuration for this scale.
    pub fn synth_config(self) -> SynthConfig {
        let mut c = SynthConfig::paper_scaled();
        match self {
            Scale::Tiny => {
                c.num_trucks = 30;
                c.days_per_truck = 2;
            }
            Scale::Quick => {
                c.num_trucks = 150;
                c.days_per_truck = 2;
            }
            Scale::Full => {
                c.num_trucks = 250;
                c.days_per_truck = 2;
            }
        }
        c
    }

    /// The LEAD configuration for this scale.
    pub fn lead_config(self) -> LeadConfig {
        let mut c = LeadConfig::experiment();
        if self == Scale::Tiny {
            c.ae_max_epochs = 4;
            c.detector_max_epochs = 6;
        }
        c
    }

    /// The scale's name (used in output paths).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Writes `contents` under `results/<name>` (creating the directory) and
/// echoes the path.
pub fn write_result(name: &str, contents: &str) {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results/");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write result file");
    println!("[written] {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_valid_configs() {
        for s in [Scale::Tiny, Scale::Quick, Scale::Full] {
            s.synth_config().validate();
            assert!(s.lead_config().validate().is_ok());
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn scales_are_ordered_by_size() {
        assert!(
            Scale::Tiny.synth_config().total_samples()
                < Scale::Quick.synth_config().total_samples()
        );
        assert!(
            Scale::Quick.synth_config().total_samples()
                < Scale::Full.synth_config().total_samples()
        );
    }
}
