//! The current history register and quarter-period adders (Section 3.1.1).
//!
//! Hardware model: the per-cycle whole-amp current readings of the last
//! `2·q_max` cycles live in a shift register; one small adder per
//! quarter-period length `q` maintains the sums of the most-recent `q`
//! cycles and of the `q` cycles before those, updated incrementally each
//! cycle exactly as a hardware accumulator would (add the entering sample,
//! subtract the leaving one).

/// Incrementally maintained sums over the last `q` and previous `q` cycles
/// of the current history, for one quarter-period length.
#[derive(Debug, Clone)]
struct QuarterAdder {
    q: u64,
    recent: i64,
    older: i64,
}

/// The current history register plus the per-quarter-period adders covering
/// the resonance band.
#[derive(Debug, Clone)]
pub struct CurrentHistory {
    /// Whole-amp samples in a power-of-two ring of at least `2·q_max + 1`
    /// slots: the sample pushed `k` cycles ago is at `(cycles − 1 − k) &
    /// mask`.
    samples: Vec<i64>,
    mask: u64,
    /// One adder per quarter period, `q_min` first.
    adders: Vec<QuarterAdder>,
    q_min: u32,
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
        let len = (2 * q_max as usize + 1).next_power_of_two();
        Self {
            samples: vec![0; len],
            mask: len as u64 - 1,
            adders: (q_min..=q_max)
                .map(|q| QuarterAdder {
                    q: q as u64,
                    recent: 0,
                    older: 0,
                })
                .collect(),
            q_min,
            q_max,
            cycles: 0,
        }
    }

    /// Pushes one cycle's whole-amp current sample.
    #[inline]
    pub fn push(&mut self, amps: i64) {
        let now = self.cycles;
        self.samples[(now & self.mask) as usize] = amps;
        self.cycles += 1;
        // Update each adder incrementally: recent covers the last q
        // samples, older the q before those. The sample q cycles back
        // moves from recent to older; the one 2q back leaves older.
        let n = self.cycles;
        if n > 2 * self.q_max as u64 {
            // Warm: every adder has a sample leaving each half.
            for a in self.adders.iter_mut() {
                let leaving_recent = self.samples[((now - a.q) & self.mask) as usize];
                a.recent += amps;
                a.recent -= leaving_recent;
                a.older += leaving_recent;
                a.older -= self.samples[((now - 2 * a.q) & self.mask) as usize];
            }
            return;
        }
        for a in self.adders.iter_mut() {
            let q = a.q;
            a.recent += amps;
            if n > q {
                let leaving_recent = self.samples[((now - q) & self.mask) as usize];
                a.recent -= leaving_recent;
                a.older += leaving_recent;
            }
            if n > 2 * q {
                a.older -= self.samples[((now - 2 * q) & self.mask) as usize];
            }
        }
    }

    /// Total cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
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
        let a = q
            .checked_sub(self.q_min)
            .and_then(|k| self.adders.get(k as usize))
            .expect("quarter period must be within the configured band");
        a.recent - a.older
    }

    /// Every configured quarter period's [`Self::quarter_diff`], shortest
    /// quarter period first.
    pub fn quarter_diffs(&self) -> impl Iterator<Item = i64> + '_ {
        self.adders.iter().map(|a| a.recent - a.older)
    }

    /// All configured quarter periods.
    pub fn quarter_periods(&self) -> impl Iterator<Item = u32> + '_ {
        self.q_min..=self.q_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_current_has_zero_diff() {
        let mut h = CurrentHistory::new(21, 29);
        for _ in 0..100 {
            h.push(70);
        }
        assert!(h.warm());
        for q in 21..=29 {
            assert_eq!(h.quarter_diff(q), 0, "q = {q}");
        }
    }

    #[test]
    fn step_up_gives_positive_diff() {
        let mut h = CurrentHistory::new(25, 25);
        for _ in 0..25 {
            h.push(40);
        }
        for _ in 0..25 {
            h.push(80);
        }
        // recent 25 cycles at 80, older 25 at 40: diff = 25·40 = 1000.
        assert_eq!(h.quarter_diff(25), 1000);
    }

    #[test]
    fn step_down_gives_negative_diff() {
        let mut h = CurrentHistory::new(25, 25);
        for _ in 0..25 {
            h.push(80);
        }
        for _ in 0..25 {
            h.push(40);
        }
        assert_eq!(h.quarter_diff(25), -1000);
    }

    #[test]
    fn incremental_matches_brute_force() {
        // Property: the incremental adders always equal a brute-force sum.
        let mut h = CurrentHistory::new(5, 12);
        let mut all: Vec<i64> = Vec::new();
        let mut x = 37i64;
        for k in 0..400i64 {
            // A deterministic pseudo-random-ish sequence.
            x = (x * 31 + k) % 97;
            all.push(x);
            h.push(x);
            for q in 5..=12u32 {
                let qq = q as usize;
                let n = all.len();
                let recent: i64 = all[n.saturating_sub(qq)..].iter().sum();
                let older: i64 = all[n.saturating_sub(2 * qq)..n.saturating_sub(qq)]
                    .iter()
                    .sum();
                assert_eq!(h.quarter_diff(q), recent - older, "cycle {k} q {q}");
            }
        }
    }

    #[test]
    fn warm_after_two_max_quarters() {
        let mut h = CurrentHistory::new(21, 29);
        for k in 0..58 {
            assert_eq!(h.warm(), k >= 58, "cycle {k}");
            h.push(1);
        }
        assert!(h.warm());
    }

    #[test]
    #[should_panic(expected = "within the configured band")]
    fn out_of_range_quarter_panics() {
        let h = CurrentHistory::new(21, 29);
        let _ = h.quarter_diff(30);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_panics() {
        let _ = CurrentHistory::new(29, 21);
    }

    #[test]
    fn triangle_wave_diff_peaks_at_xt_over_8() {
        // Section 3.1.1: for a triangle wave of peak-to-peak X the
        // quarter-sum difference is X·T/8.
        let q = 25u32;
        let t = 4 * q; // period 100
        let x = 40i64; // peak-to-peak
        let mut h = CurrentHistory::new(q, q);
        let mut peak = 0i64;
        for c in 0..500u32 {
            let phase = (c % t) as f64 / t as f64;
            let tri = if phase < 0.5 {
                4.0 * phase - 1.0
            } else {
                3.0 - 4.0 * phase
            };
            h.push((x as f64 / 2.0 * tri).round() as i64);
            if c > 2 * t {
                peak = peak.max(h.quarter_diff(q).abs());
            }
        }
        let expect = x * t as i64 / 8; // X·T/8 = 40·100/8 = 500
        let err = (peak - expect).abs() as f64 / expect as f64;
        assert!(err < 0.05, "peak diff {peak} vs X·T/8 = {expect}");
    }
}
