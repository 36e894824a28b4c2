//! RFC 2544-style throughput search.
//!
//! The canonical benchmark a commercial tester runs: find the highest
//! offered load a device forwards **without loss**, per frame size, by
//! binary search. OSNT's pitch is that an open tester makes exactly this
//! kind of methodology-bound measurement reproducible; this module
//! implements it on top of [`crate::experiment::LatencyExperiment`]'s
//! topology.

use crate::experiment::LatencyExperiment;
use osnt_error::OsntError;
use osnt_switch::LegacyConfig;
use osnt_time::SimDuration;

/// Configuration of a throughput search.
#[derive(Debug, Clone)]
pub struct ThroughputSearch {
    /// Frame size under test (incl. FCS).
    pub frame_len: usize,
    /// Trial duration per step.
    pub trial: SimDuration,
    /// Warm-up discarded at the start of each trial.
    pub warmup: SimDuration,
    /// Binary-search resolution on the load axis (fraction of line
    /// rate).
    pub resolution: f64,
    /// Highest background load to consider, as a fraction of line rate.
    /// Capped at 1.0 when the search runs: a generator port cannot offer
    /// more than its MAC carries, so a higher figure would only be
    /// reported, never offered.
    pub max_load: f64,
}

impl Default for ThroughputSearch {
    fn default() -> Self {
        ThroughputSearch {
            frame_len: 512,
            trial: SimDuration::from_ms(15),
            warmup: SimDuration::from_ms(4),
            resolution: 0.01,
            max_load: 1.0,
        }
    }
}

/// The outcome of a search.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Frame size tested.
    pub frame_len: usize,
    /// Highest zero-loss background load found (fraction of line rate,
    /// never above 1.0).
    pub zero_loss_load: f64,
    /// Loss observed one resolution step above it (evidence the bound is
    /// tight; 0.0 when the device survived `max_load`).
    pub loss_above: f64,
    /// Trials executed.
    pub trials: u32,
}

impl ThroughputSearch {
    /// Run one trial at `load`; returns the probe loss fraction.
    fn trial_loss(&self, load: f64, cfg: &LegacyConfig) -> Result<f64, OsntError> {
        let exp = LatencyExperiment {
            frame_len: self.frame_len,
            background_load: load,
            duration: self.trial,
            warmup: self.warmup,
            ..LatencyExperiment::default()
        };
        Ok(exp.run_legacy(cfg.clone())?.loss)
    }

    /// Binary-search the zero-loss throughput of a legacy switch. Fails
    /// (typed) on an invalid search or switch configuration; individual
    /// lossy trials are the measurement, not an error.
    pub fn run_legacy(&self, cfg: &LegacyConfig) -> Result<ThroughputResult, OsntError> {
        let mut lo = 0.0f64; // known lossless
        let mut hi = self.max_load.min(1.0); // known (or assumed) lossy
        let mut trials = 0u32;
        let mut loss_at_hi = self.trial_loss(hi, cfg)?;
        trials += 1;
        if loss_at_hi == 0.0 {
            return Ok(ThroughputResult {
                frame_len: self.frame_len,
                zero_loss_load: hi,
                loss_above: 0.0,
                trials,
            });
        }
        while hi - lo > self.resolution {
            let mid = (lo + hi) / 2.0;
            let loss = self.trial_loss(mid, cfg)?;
            trials += 1;
            if loss == 0.0 {
                lo = mid;
            } else {
                hi = mid;
                loss_at_hi = loss;
            }
        }
        Ok(ThroughputResult {
            frame_len: self.frame_len,
            zero_loss_load: lo,
            loss_above: loss_at_hi,
            trials,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_converges_near_line_rate_for_a_clean_switch() {
        // The legacy switch forwards at line rate; the only loss source
        // is output-port oversubscription (probe + background > 1.0).
        // The zero-loss bound must land just below 1 − probe_load.
        let search = ThroughputSearch {
            resolution: 0.02,
            trial: SimDuration::from_ms(10),
            warmup: SimDuration::from_ms(3),
            ..ThroughputSearch::default()
        };
        let result = search
            .run_legacy(&LegacyConfig {
                output_buffer_bytes: 32 * 1024,
                ..LegacyConfig::default()
            })
            .expect("valid search");
        assert!(
            result.zero_loss_load > 0.90 && result.zero_loss_load < 1.0,
            "zero-loss load {}",
            result.zero_loss_load
        );
        assert!(result.loss_above > 0.0, "upper bound must be lossy");
        assert!(result.trials >= 4);
    }

    #[test]
    fn a_switch_that_never_drops_is_reported_at_line_rate_not_above() {
        // The default 512 KiB output buffer absorbs the probe's 2 % of
        // oversubscription for a whole trial, so the first trial is
        // loss-free and the search reports the load it offered.
        let above_line_rate = ThroughputSearch {
            max_load: 1.1,
            ..ThroughputSearch::default()
        };
        for search in [ThroughputSearch::default(), above_line_rate] {
            let result = search
                .run_legacy(&LegacyConfig::default())
                .expect("valid search");
            assert_eq!((result.zero_loss_load, result.trials), (1.0, 1));
            assert_eq!(result.loss_above, 0.0);
        }
    }
}
