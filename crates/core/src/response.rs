//! The two-level prevention response (Section 3.2).
//!
//! First level (gentle): when a new resonant event arrives with count ≥ the
//! initial response threshold, reduce issue width (8→4) and data-cache
//! ports (2→1) for the initial response time. This lowers the frequency at
//! which instructions move through the pipeline, steering current
//! variations below the resonance band.
//!
//! Second level (guaranteed): when the count reaches one below the maximum
//! repetition tolerance, stall issue entirely while phantom operations hold
//! the chip at a medium current — both parts matter: without the stall the
//! variation frequency might not change, and without the medium current the
//! stall itself would be a resonant swing.

use cpusim::PipelineControls;

use crate::config::TuningConfig;
use crate::detector::{EventDetector, ResonantEvent};

/// Which response level is engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseLevel {
    /// Running free.
    None,
    /// First-level: reduced issue width and memory ports.
    First,
    /// Second-level: issue stall with medium-current phantoms.
    Second,
}

/// Cycle counters for time spent in each response level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResponseStats {
    /// Cycles with the first-level response engaged.
    pub first_level_cycles: u64,
    /// Cycles with the second-level response engaged.
    pub second_level_cycles: u64,
    /// First-level engagements (rising edges).
    pub first_level_engagements: u64,
    /// Second-level engagements (rising edges).
    pub second_level_engagements: u64,
}

/// The resonance-tuning controller: detector + two-level response state
/// machine. One instance per core.
///
/// # Examples
///
/// ```
/// use restune::{ResonanceTuner, TuningConfig};
///
/// let mut tuner = ResonanceTuner::new(TuningConfig::isca04_table1(100));
/// // Feed the per-cycle sensed current; apply the returned controls.
/// let controls = tuner.tick(70.0);
/// assert!(!controls.is_restricted()); // no resonance yet
/// ```
#[derive(Debug, Clone)]
pub struct ResonanceTuner {
    config: TuningConfig,
    detector: EventDetector,
    first_level_remaining: u32,
    second_level_remaining: u32,
    /// Pending (delay, event) pairs when a sensing-to-response delay is
    /// configured.
    pending: Vec<(u32, ResonantEvent)>,
    last_event: Option<ResonantEvent>,
    stats: ResponseStats,
}

impl ResonanceTuner {
    /// Creates a tuner.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TuningConfig) -> Self {
        Self {
            detector: EventDetector::new(config),
            config,
            first_level_remaining: 0,
            second_level_remaining: 0,
            pending: Vec::new(),
            last_event: None,
            stats: ResponseStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TuningConfig {
        &self.config
    }

    /// The detector (for event statistics).
    pub fn detector(&self) -> &EventDetector {
        &self.detector
    }

    /// Response-time statistics.
    pub fn stats(&self) -> &ResponseStats {
        &self.stats
    }

    /// The resonant event detected during the most recent [`Self::tick`],
    /// if any (for tracing; cleared every cycle).
    pub fn last_event(&self) -> Option<ResonantEvent> {
        self.last_event
    }

    /// The currently engaged response level.
    pub fn level(&self) -> ResponseLevel {
        if self.second_level_remaining > 0 {
            ResponseLevel::Second
        } else if self.first_level_remaining > 0 {
            ResponseLevel::First
        } else {
            ResponseLevel::None
        }
    }

    fn react(&mut self, ev: ResonantEvent) {
        if ev.count >= self.config.second_level_threshold {
            if self.second_level_remaining == 0 {
                self.stats.second_level_engagements += 1;
            }
            self.second_level_remaining = self.config.second_level_time;
        } else if ev.count >= self.config.initial_response_threshold {
            if self.first_level_remaining == 0 && self.second_level_remaining == 0 {
                self.stats.first_level_engagements += 1;
            }
            self.first_level_remaining = self.config.initial_response_time;
        }
    }

    /// Advances one cycle: senses the chip current (amps; quantized
    /// internally to the whole amp as the paper's sensors report) and
    /// returns the pipeline controls to apply *this* cycle.
    pub fn tick(&mut self, sensed_amps: f64) -> PipelineControls {
        // Deliver delayed events whose time has come.
        let mut due: Option<ResonantEvent> = None;
        self.pending.retain_mut(|(d, ev)| {
            *d -= 1;
            if *d == 0 {
                due = Some(*ev);
                false
            } else {
                true
            }
        });
        if let Some(ev) = due {
            self.react(ev);
        }

        self.last_event = self.detector.observe(whole_amps(sensed_amps));
        if let Some(ev) = self.last_event {
            if self.config.response_delay == 0 {
                self.react(ev);
            } else {
                self.pending.push((self.config.response_delay, ev));
            }
        }

        match self.level() {
            ResponseLevel::Second => {
                self.second_level_remaining -= 1;
                self.stats.second_level_cycles += 1;
                PipelineControls::second_level()
            }
            ResponseLevel::First => {
                self.first_level_remaining -= 1;
                self.stats.first_level_cycles += 1;
                PipelineControls::first_level(
                    self.config.first_level_issue_width,
                    self.config.first_level_mem_ports,
                )
            }
            ResponseLevel::None => PipelineControls::free(),
        }
    }
}

/// `x.round() as i64` — half away from zero, saturating, NaN to 0 —
/// computed without the libm call `f64::round` becomes on baseline x86-64.
/// Below 2^52 in magnitude the truncation and the fraction it drops are
/// both exact; every other f64 (and NaN) is already whole, where the
/// saturating cast alone agrees.
fn whole_amps(x: f64) -> i64 {
    const WHOLE_FROM: f64 = 4_503_599_627_370_496.0; // 2^52
    if x.abs() < WHOLE_FROM {
        let whole = x as i64;
        let frac = x - whole as f64;
        whole + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)
    } else {
        x as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_amps_matches_round() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            4_503_599_627_370_495.5,
            -4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            9.3e18,
            -9.3e18,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::EPSILON,
            f64::MIN_POSITIVE,
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let randoms = (0..200_000).map(|k| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match k % 3 {
                // Currents around the chip's envelope, half-amps included.
                0 => (state % 40_000) as f64 / 200.0 - 50.0,
                1 => (state % 4000) as f64 * 0.5 - 1000.0,
                // Arbitrary bit patterns.
                _ => f64::from_bits(state),
            }
        });
        for x in edges.into_iter().chain(randoms) {
            assert_eq!(whole_amps(x), x.round() as i64, "{x:e}");
        }
    }

    fn tuner() -> ResonanceTuner {
        ResonanceTuner::new(TuningConfig::isca04_table1(100))
    }

    /// Square wave helper: returns controls trace.
    fn drive(t: &mut ResonanceTuner, p2p: f64, period: u64, cycles: u64) -> Vec<ResponseLevel> {
        (0..cycles)
            .map(|c| {
                let i = if (c / (period / 2)).is_multiple_of(2) {
                    70.0 + p2p / 2.0
                } else {
                    70.0 - p2p / 2.0
                };
                let _ = t.tick(i);
                t.level()
            })
            .collect()
    }

    #[test]
    fn quiet_current_keeps_pipeline_free() {
        let mut t = tuner();
        for _ in 0..2000 {
            let c = t.tick(70.0);
            assert!(!c.is_restricted());
        }
        assert_eq!(t.stats().first_level_cycles, 0);
        assert_eq!(t.stats().second_level_cycles, 0);
    }

    #[test]
    fn resonant_wave_engages_first_then_second_level() {
        let mut t = tuner();
        let levels = drive(&mut t, 40.0, 100, 1200);
        let first_at = levels.iter().position(|&l| l == ResponseLevel::First);
        let second_at = levels.iter().position(|&l| l == ResponseLevel::Second);
        assert!(first_at.is_some(), "first level should engage");
        assert!(
            second_at.is_some(),
            "sustained wave should force second level"
        );
        assert!(
            first_at.unwrap() < second_at.unwrap(),
            "first level engages before second"
        );
        assert!(t.stats().first_level_cycles > 0);
        assert!(t.stats().second_level_cycles > 0);
    }

    #[test]
    fn second_level_controls_stall_with_phantom() {
        let mut t = tuner();
        // Drive until the second level engages, then inspect controls.
        for c in 0..2000u64 {
            let i = if (c / 50) % 2 == 0 { 90.0 } else { 50.0 };
            let controls = t.tick(i);
            if t.level() == ResponseLevel::Second {
                assert!(controls.stall_issue);
                assert_eq!(controls.phantom, Some(cpusim::PhantomLevel::Medium));
                return;
            }
        }
        panic!("second level never engaged");
    }

    #[test]
    fn first_level_response_expires() {
        let mut t = ResonanceTuner::new(TuningConfig::isca04_table1(75));
        // Two periods of resonance then quiet.
        let _ = drive(&mut t, 40.0, 100, 220);
        let mut quiet_levels = Vec::new();
        for _ in 0..400 {
            let _ = t.tick(70.0);
            quiet_levels.push(t.level());
        }
        assert_eq!(
            *quiet_levels.last().unwrap(),
            ResponseLevel::None,
            "response must expire after quiet period"
        );
    }

    #[test]
    fn sub_threshold_waves_cause_no_response() {
        let mut t = tuner();
        let levels = drive(&mut t, 12.0, 100, 3000);
        assert!(levels.iter().all(|&l| l == ResponseLevel::None));
    }

    #[test]
    fn response_delay_postpones_engagement() {
        let mut a = ResonanceTuner::new(TuningConfig::isca04_table1(100));
        let mut b = ResonanceTuner::new(TuningConfig::isca04_table1(100).with_response_delay(5));
        let la = drive(&mut a, 40.0, 100, 600);
        let lb = drive(&mut b, 40.0, 100, 600);
        let fa = la.iter().position(|&l| l != ResponseLevel::None).unwrap();
        let fb = lb.iter().position(|&l| l != ResponseLevel::None).unwrap();
        assert_eq!(
            fb,
            fa + 5,
            "delay must shift engagement by exactly 5 cycles"
        );
    }

    #[test]
    fn engagement_counters_track_rising_edges() {
        let mut t = tuner();
        let _ = drive(&mut t, 40.0, 100, 1500);
        assert!(t.stats().first_level_engagements >= 1);
        assert!(t.stats().second_level_engagements >= 1);
        // Second-level cycle count is a multiple-ish of the response time.
        assert!(t.stats().second_level_cycles >= 35);
    }
}
