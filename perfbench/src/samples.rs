//! The raw end-to-end samples of one untraced run, and the metrics
//! they give.

use std::collections::BTreeMap;

use crate::stats::{median, percentile, sorted};

/// Raw end-to-end samples of one run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub session_ms: Vec<f64>,
    pub first_unit_ms: Vec<f64>,
    pub restart_ms: Vec<f64>,
    /// Measured window, seconds.
    pub wall_s: f64,
    /// Operations that completed and passed their gates.
    pub completed: f64,
    /// Verified payload bytes those operations delivered.
    pub payload_bytes: f64,
    pub peak_rss_mb: f64,
}

impl Samples {
    /// Every end-to-end metric these samples support, by name. Medians
    /// interpolate between the two middle samples of an even count;
    /// p99s take the nearest rank.
    #[must_use]
    pub fn metrics(&self, sweep: bool) -> BTreeMap<&'static str, f64> {
        let nan = f64::NAN;
        let p50 = |v: &[f64]| median(&sorted(v)).unwrap_or(nan);
        let p99 = |v: &[f64]| percentile(&sorted(v), 99.0).unwrap_or(nan);
        let mut m = BTreeMap::new();
        m.insert("setup_s", p50(&self.setup_s));
        m.insert("sessions_per_s", self.completed / self.wall_s);
        m.insert("goodput_mb_s", self.payload_bytes / 1e6 / self.wall_s);
        m.insert("session_ms_p50", p50(&self.session_ms));
        m.insert("session_ms_p99", p99(&self.session_ms));
        m.insert("first_unit_ms_p50", p50(&self.first_unit_ms));
        m.insert("first_unit_ms_p99", p99(&self.first_unit_ms));
        m.insert("peak_rss_mb", self.peak_rss_mb);
        if sweep {
            m.insert("sweep_s", p50(&self.session_ms) / 1e3);
        }
        if !self.restart_ms.is_empty() {
            m.insert("restart_ms_p50", p50(&self.restart_ms));
            m.insert("restart_ms_p99", p99(&self.restart_ms));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_take_medians_and_rates() {
        let s = Samples {
            setup_s: vec![0.3, 0.1, 0.2],
            session_ms: (1..=100).map(f64::from).collect(),
            first_unit_ms: vec![1.0, 3.0, 2.0, 4.0],
            restart_ms: vec![],
            wall_s: 2.0,
            completed: 100.0,
            payload_bytes: 4e6,
            peak_rss_mb: 10.0,
        };
        let m = s.metrics(false);
        assert_eq!(m["setup_s"], 0.2);
        assert_eq!(m["sessions_per_s"], 50.0);
        assert_eq!(m["goodput_mb_s"], 2.0);
        assert_eq!(m["session_ms_p50"], 50.5);
        assert_eq!(m["session_ms_p99"], 99.0);
        assert_eq!(m["first_unit_ms_p50"], 2.5);
        assert!(!m.contains_key("restart_ms_p50"));
        assert!(!m.contains_key("sweep_s"));
    }

    #[test]
    fn sweep_time_is_the_median_pass() {
        let s = Samples {
            session_ms: vec![4000.0, 3000.0],
            wall_s: 7.0,
            ..Samples::default()
        };
        assert_eq!(s.metrics(true)["sweep_s"], 3.5);
    }
}
