//! The observability layer's only wall-clock home.
//!
//! Alongside `lead_eval::timing`, this module is the only place in
//! result-affecting code allowed to read the wall clock (R5, clippy's
//! `disallowed_types`). Durations measured here flow *into* probes and never back into
//! computation, so instrumented runs stay bit-identical to uninstrumented
//! ones.

#![expect(
    clippy::disallowed_types,
    reason = "the sanctioned wall-clock home: durations flow into probes, never back into computation"
)]

use crate::probe::Probe;
use std::time::{Duration, Instant};

/// A started wall-clock timer (mirrors `lead_eval::timing::Stopwatch`).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// An RAII span timer created by [`span`]: records the elapsed nanoseconds
/// into its probe when dropped. When the probe is disabled the clock is
/// never read at all.
pub struct Span<'a> {
    probe: &'a dyn Probe,
    name: &'a str,
    started: Option<Instant>,
}

/// Starts a span: the time until the returned guard drops is recorded as
/// `probe.span_ns(name, …)`. Disabled probes skip the clock read entirely,
/// making this free on the no-op path.
pub fn span<'a>(probe: &'a dyn Probe, name: &'a str) -> Span<'a> {
    let started = probe.enabled().then(Instant::now);
    Span {
        probe,
        name,
        started,
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.probe.span_ns(self.name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NOOP;
    use crate::recorder::Recorder;

    #[test]
    fn span_records_into_an_enabled_probe() {
        let r = Recorder::new();
        {
            let _guard = span(&r, "work");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let (name, summary) = &snap.spans[0];
        assert_eq!(name, "work");
        assert_eq!(summary.count, 1);
    }

    #[test]
    fn span_on_a_disabled_probe_never_reads_the_clock() {
        let guard = span(&NOOP, "skipped");
        assert!(guard.started.is_none());
    }

    #[test]
    fn stopwatch_elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed() <= sw.elapsed() + Duration::from_nanos(1));
    }
}
