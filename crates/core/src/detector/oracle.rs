//! The detector as it stood before the masked-ring and one-pass rewrite,
//! kept verbatim as the oracle the differential tests compare
//! [`super::EventDetector`] against cycle by cycle.

use std::collections::VecDeque;

use super::{Polarity, ResonantEvent};
use crate::config::TuningConfig;

/// Incrementally maintained sums over the last `q` and previous `q` cycles
/// of the current history, for one quarter-period length.
#[derive(Debug, Clone)]
struct QuarterAdder {
    q: u32,
    recent: i64,
    older: i64,
}

/// The current history register plus the per-quarter-period adders covering
/// the resonance band.
#[derive(Debug, Clone)]
pub struct CurrentHistory {
    /// Whole-amp samples, most recent at the back. Length is bounded by
    /// `2·q_max + 1`.
    samples: VecDeque<i64>,
    adders: Vec<QuarterAdder>,
    q_max: u32,
    cycles: u64,
}

impl CurrentHistory {
    /// Creates a history covering quarter periods `q_min..=q_max`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or starts below 2 cycles.
    pub fn new(q_min: u32, q_max: u32) -> Self {
        assert!(q_min >= 2, "quarter periods must span at least 2 cycles");
        assert!(q_min <= q_max, "quarter-period range must be non-empty");
        Self {
            samples: VecDeque::with_capacity((2 * q_max + 1) as usize),
            adders: (q_min..=q_max)
                .map(|q| QuarterAdder {
                    q,
                    recent: 0,
                    older: 0,
                })
                .collect(),
            q_max,
            cycles: 0,
        }
    }

    /// Pushes one cycle's whole-amp current sample.
    pub fn push(&mut self, amps: i64) {
        self.samples.push_back(amps);
        self.cycles += 1;
        // Update each adder incrementally. Sample indices from the back:
        // back = just pushed. For adder q: recent covers [len-q, len),
        // older covers [len-2q, len-q).
        let len = self.samples.len();
        for a in self.adders.iter_mut() {
            let q = a.q as usize;
            a.recent += amps;
            if len > q {
                let leaving_recent = self.samples[len - 1 - q];
                a.recent -= leaving_recent;
                a.older += leaving_recent;
            }
            if len > 2 * q {
                a.older -= self.samples[len - 1 - 2 * q];
            }
        }
        if self.samples.len() > (2 * self.q_max) as usize {
            self.samples.pop_front();
        }
    }

    /// `true` once at least `2·q` samples have been seen for the longest
    /// quarter period (the adders are warm).
    pub fn warm(&self) -> bool {
        self.cycles >= (2 * self.q_max) as u64
    }

    /// The signed difference `recent − older` for quarter period `q`, the
    /// quantity compared against `M·T/8` to flag a resonant half wave.
    /// Positive means current rose (low→high); negative means it fell.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the configured range.
    pub fn quarter_diff(&self, q: u32) -> i64 {
        let a = self
            .adders
            .iter()
            .find(|a| a.q == q)
            .expect("quarter period must be within the configured band");
        a.recent - a.older
    }
}

/// One polarity's event-history shift register (one bit per cycle).
#[derive(Debug, Clone)]
struct BitHistory {
    bits: Vec<bool>,
    head: usize, // position of the *current* cycle's bit
}

impl BitHistory {
    fn new(len: usize) -> Self {
        Self {
            bits: vec![false; len.max(8)],
            head: 0,
        }
    }

    /// Shift in an empty bit for the new cycle.
    fn advance(&mut self) {
        self.head = (self.head + 1) % self.bits.len();
        self.bits[self.head] = false;
    }

    fn set_current(&mut self) {
        self.bits[self.head] = true;
    }

    /// The bit `offset` cycles ago (0 = current cycle).
    fn get(&self, offset: usize) -> bool {
        if offset >= self.bits.len() {
            return false;
        }
        let n = self.bits.len();
        self.bits[(self.head + n - offset) % n]
    }

    /// Any bit set in `[from, to]` cycles ago? Returns the smallest such
    /// offset.
    fn first_in(&self, from: usize, to: usize) -> Option<usize> {
        (from..=to).find(|&o| self.get(o))
    }
}

/// The resonant-behavior detector: current history + band-wide event
/// identification + repetition counting.
///
/// Feed it one whole-amp current sample per cycle with
/// [`EventDetector::observe`]; it returns `Some(ResonantEvent)` on the first
/// cycle of each newly detected event run, with the current resonant event
/// count.
#[derive(Debug, Clone)]
pub struct EventDetector {
    config: TuningConfig,
    history: CurrentHistory,
    high_low: BitHistory,
    low_high: BitHistory,
    events_detected: u64,
}

impl EventDetector {
    /// Creates a detector for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TuningConfig) -> Self {
        config.validate();
        let q = config.quarter_periods();
        let len = config.history_length();
        Self {
            history: CurrentHistory::new(*q.start(), *q.end()),
            high_low: BitHistory::new(len),
            low_high: BitHistory::new(len),
            config,
            events_detected: 0,
        }
    }

    /// Total new (deduplicated) events detected so far.
    pub fn events_detected(&self) -> u64 {
        self.events_detected
    }

    /// Observes one cycle's current (whole amps) and reports a newly
    /// detected resonant event, if any, with its repetition count.
    pub fn observe(&mut self, whole_amps: i64) -> Option<ResonantEvent> {
        self.history.push(whole_amps);
        self.high_low.advance();
        self.low_high.advance();
        if !self.history.warm() {
            return None;
        }

        // Identify: any quarter period whose |recent − older| ≥ M·T/8.
        let mut rose = false;
        let mut fell = false;
        for q in self.config.quarter_periods() {
            let diff = self.history.quarter_diff(q);
            let thr = self.config.event_threshold(q);
            if diff as f64 >= thr {
                rose = true;
            } else if (diff as f64) <= -thr {
                fell = true;
            }
        }
        // Record this cycle's bits (both can fire at different periods; the
        // dominant, first-detected polarity wins for counting).
        let polarity = match (fell, rose) {
            (true, _) => {
                self.high_low.set_current();
                if rose {
                    self.low_high.set_current();
                }
                Polarity::HighLow
            }
            (false, true) => {
                self.low_high.set_current();
                Polarity::LowHigh
            }
            (false, false) => return None,
        };

        // Dedup: same polarity in the immediately preceding cycle means this
        // is a continuation of the same event run, not a new event.
        let register = match polarity {
            Polarity::HighLow => &self.high_low,
            Polarity::LowHigh => &self.low_high,
        };
        if register.get(1) {
            return None;
        }
        self.events_detected += 1;

        // Count: chain alternating polarities backward at half-period
        // offsets anywhere in the band.
        let h_min = *self.config.half_periods().start() as usize;
        let h_max = *self.config.half_periods().end() as usize;
        let mut count = 1u32;
        let mut look_polarity = polarity.opposite();
        let mut base = 0usize;
        while count < self.config.max_repetition_tolerance + 4 {
            let register = match look_polarity {
                Polarity::HighLow => &self.high_low,
                Polarity::LowHigh => &self.low_high,
            };
            match register.first_in(base + h_min, base + h_max) {
                Some(offset) => {
                    count += 1;
                    look_polarity = look_polarity.opposite();
                    base = offset;
                }
                None => break,
            }
        }
        Some(ResonantEvent { polarity, count })
    }
}
