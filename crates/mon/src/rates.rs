//! Windowed rate estimation for monitor statistics.
//!
//! The OSNT GUI shows live per-port packet and bit rates. The estimator
//! here is what backs such a display: fixed windows for exact interval
//! rates plus an exponentially weighted moving average for a smooth
//! needle.

use osnt_time::{SimDuration, SimTime};

/// One closed measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Window start.
    pub start: SimTime,
    /// Window length.
    pub length: SimDuration,
    /// Frames counted in the window.
    pub frames: u64,
    /// Frame bytes counted in the window.
    pub bytes: u64,
}

impl WindowSample {
    /// Packets per second over the window.
    pub fn pps(&self) -> f64 {
        self.frames as f64 / self.length.as_secs_f64()
    }

    /// Frame bits per second over the window.
    pub fn bps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.length.as_secs_f64()
    }
}

/// Fixed-window rate estimator with an EWMA smoother.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window: SimDuration,
    alpha: f64,
    window_start: SimTime,
    frames: u64,
    bytes: u64,
    /// Closed windows, oldest first.
    pub history: Vec<WindowSample>,
    ewma_pps: Option<f64>,
    ewma_bps: Option<f64>,
}

impl RateEstimator {
    /// An estimator with the given window and EWMA factor
    /// (`alpha` ∈ (0, 1]; 1 = no smoothing).
    pub fn new(window: SimDuration, alpha: f64) -> Self {
        assert!(window.as_ps() > 0, "window must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        RateEstimator {
            window,
            alpha,
            window_start: SimTime::ZERO,
            frames: 0,
            bytes: 0,
            history: Vec::new(),
            ewma_pps: None,
            ewma_bps: None,
        }
    }

    fn close_windows_until(&mut self, now: SimTime) {
        while now >= self.window_start + self.window {
            let sample = WindowSample {
                start: self.window_start,
                length: self.window,
                frames: self.frames,
                bytes: self.bytes,
            };
            let pps = sample.pps();
            let bps = sample.bps();
            self.ewma_pps = Some(match self.ewma_pps {
                Some(prev) => prev + self.alpha * (pps - prev),
                None => pps,
            });
            self.ewma_bps = Some(match self.ewma_bps {
                Some(prev) => prev + self.alpha * (bps - prev),
                None => bps,
            });
            self.history.push(sample);
            self.window_start += self.window;
            self.frames = 0;
            self.bytes = 0;
        }
    }

    /// Record a frame of `frame_bytes` observed at `now`. Times must be
    /// non-decreasing.
    pub fn record(&mut self, now: SimTime, frame_bytes: usize) {
        self.close_windows_until(now);
        self.frames += 1;
        self.bytes += frame_bytes as u64;
    }

    /// Advance time without traffic (closes idle windows).
    pub fn tick(&mut self, now: SimTime) {
        self.close_windows_until(now);
    }

    /// Smoothed packets-per-second estimate (`None` before the first
    /// closed window).
    pub fn pps(&self) -> Option<f64> {
        self.ewma_pps
    }

    /// Smoothed bits-per-second estimate.
    pub fn bps(&self) -> Option<f64> {
        self.ewma_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_rate_in_each_window() {
        let mut est = RateEstimator::new(SimDuration::from_ms(1), 1.0);
        // 100 frames of 125 bytes in the first millisecond: 100 kpps,
        // 100 Mb/s.
        for i in 0..100u64 {
            est.record(SimTime::from_us(i * 10), 125);
        }
        est.tick(SimTime::from_ms(2));
        let w = &est.history[0];
        assert_eq!(w.frames, 100);
        assert!((w.pps() - 100_000.0).abs() < 1e-6);
        assert!((w.bps() - 100_000_000.0).abs() < 1e-3);
        // Second window is idle.
        assert_eq!(est.history[1].frames, 0);
    }

    #[test]
    fn ewma_smooths_toward_new_rate() {
        let mut est = RateEstimator::new(SimDuration::from_ms(1), 0.5);
        // Window 0: 10 frames; window 1: 30 frames.
        for i in 0..10u64 {
            est.record(SimTime::from_us(i), 1);
        }
        for i in 0..30u64 {
            est.record(SimTime::from_ps(1_000_000_000 + i * 1_000_000), 1);
        }
        est.tick(SimTime::from_ms(2));
        // EWMA after [10k, 30k] pps with alpha .5: 10k, then 20k.
        assert!((est.pps().unwrap() - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn idle_gaps_produce_zero_windows() {
        let mut est = RateEstimator::new(SimDuration::from_ms(1), 1.0);
        est.record(SimTime::from_us(100), 64);
        est.record(SimTime::from_ms(5), 64); // skips 4 windows
        est.tick(SimTime::from_ms(6));
        assert_eq!(est.history.len(), 6);
        let frames: Vec<u64> = est.history.iter().map(|w| w.frames).collect();
        assert_eq!(frames, vec![1, 0, 0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = RateEstimator::new(SimDuration::from_ms(1), 0.0);
    }
}
