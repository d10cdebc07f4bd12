//! Spreading of multi-cycle operation current over pipeline stages.
//!
//! Wattch charges the whole energy of an event (e.g. a cache access) in the
//! cycle it starts; the paper extends it to spread the current of
//! multi-cycle operations over the cycles they actually occupy (Section
//! 4.1), as \[10\] and \[14\] also did. [`ActivitySpreader`] implements that: a
//! contribution of total weight `amount` scheduled `delay` cycles ahead and
//! lasting `duration` cycles is delivered as `amount/duration` per cycle.

/// A ring buffer of future per-cycle activity contributions for one
/// structure. The ring is a power of two at least `horizon` long, so
/// advancing and placing are masked, not divided.
#[derive(Debug, Clone)]
pub struct ActivitySpreader {
    ring: Vec<f64>,
    mask: usize,
    /// The furthest offset a contribution lands at (`horizon − 1`); later
    /// ones are clamped to it.
    last: usize,
    head: usize,
}

impl ActivitySpreader {
    /// Creates a spreader able to schedule up to `horizon` cycles ahead.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn new(horizon: usize) -> Self {
        assert!(horizon > 0, "spreader horizon must be nonzero");
        let slots = horizon.next_power_of_two();
        Self {
            ring: vec![0.0; slots],
            mask: slots - 1,
            last: horizon - 1,
            head: 0,
        }
    }

    /// Schedules `amount` of activity spread evenly over `duration` cycles
    /// beginning `delay` cycles from now. Contributions beyond the horizon
    /// are clamped to the last slot (never dropped, so energy is conserved).
    #[inline]
    pub fn schedule(&mut self, delay: u32, duration: u32, amount: f64) {
        debug_assert!(amount >= 0.0, "activity must be non-negative");
        let duration = duration.max(1) as usize;
        let per_cycle = amount / duration as f64;
        let start = delay as usize;
        // Offsets before the last slot each get one share, in at most two
        // contiguous runs of the ring; every later offset adds its share to
        // the last slot, one addition at a time.
        let direct = duration.min(self.last.saturating_sub(start));
        if direct > 0 {
            let from = (self.head + start) & self.mask;
            let first = direct.min(self.ring.len() - from);
            for slot in &mut self.ring[from..from + first] {
                *slot += per_cycle;
            }
            for slot in &mut self.ring[..direct - first] {
                *slot += per_cycle;
            }
        }
        let last = (self.head + self.last) & self.mask;
        for _ in direct..duration {
            self.ring[last] += per_cycle;
        }
    }

    /// Pops the activity that lands in the current cycle and advances time.
    #[inline]
    pub fn drain_cycle(&mut self) -> f64 {
        let v = std::mem::replace(&mut self.ring[self.head], 0.0);
        self.head = (self.head + 1) & self.mask;
        v
    }

    /// Total activity still scheduled (for tests / conservation checks).
    pub fn pending(&self) -> f64 {
        self.ring.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_single_cycle_delivery() {
        let mut s = ActivitySpreader::new(8);
        s.schedule(0, 1, 1.0);
        assert!((s.drain_cycle() - 1.0).abs() < 1e-12);
        assert_eq!(s.drain_cycle(), 0.0);
    }

    #[test]
    fn delayed_delivery() {
        let mut s = ActivitySpreader::new(8);
        s.schedule(3, 1, 2.0);
        assert_eq!(s.drain_cycle(), 0.0);
        assert_eq!(s.drain_cycle(), 0.0);
        assert_eq!(s.drain_cycle(), 0.0);
        assert!((s.drain_cycle() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn spreading_conserves_total() {
        let mut s = ActivitySpreader::new(128);
        s.schedule(14, 80, 1.0); // memory access: 80 cycles starting at +14
        let mut total = 0.0;
        for _ in 0..128 {
            total += s.drain_cycle();
        }
        assert!((total - 1.0).abs() < 1e-9, "total delivered = {total}");
    }

    #[test]
    fn spread_is_even_across_duration() {
        let mut s = ActivitySpreader::new(16);
        s.schedule(2, 4, 1.0);
        let vals: Vec<f64> = (0..8).map(|_| s.drain_cycle()).collect();
        assert_eq!(vals[0], 0.0);
        assert_eq!(vals[1], 0.0);
        for v in &vals[2..6] {
            assert!((v - 0.25).abs() < 1e-12);
        }
        assert_eq!(vals[6], 0.0);
    }

    #[test]
    fn beyond_horizon_clamps_but_conserves() {
        let mut s = ActivitySpreader::new(4);
        s.schedule(10, 5, 1.0); // entirely beyond horizon: lands in last slot
        let mut total = 0.0;
        for _ in 0..8 {
            total += s.drain_cycle();
        }
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_schedules_accumulate() {
        let mut s = ActivitySpreader::new(8);
        s.schedule(0, 2, 1.0);
        s.schedule(1, 2, 1.0);
        assert!((s.drain_cycle() - 0.5).abs() < 1e-12);
        assert!((s.drain_cycle() - 1.0).abs() < 1e-12);
        assert!((s.drain_cycle() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pending_tracks_outstanding_work() {
        let mut s = ActivitySpreader::new(8);
        s.schedule(2, 2, 3.0);
        assert!((s.pending() - 3.0).abs() < 1e-12);
        s.drain_cycle();
        s.drain_cycle();
        s.drain_cycle();
        assert!((s.pending() - 1.5).abs() < 1e-12);
    }

    /// The spreader before the masked rewrite, kept verbatim as the oracle
    /// the differential test compares against.
    mod oracle {
        /// A ring buffer of future per-cycle activity contributions for one
        /// structure.
        #[derive(Debug, Clone)]
        pub struct ActivitySpreader {
            ring: Vec<f64>,
            head: usize,
        }

        impl ActivitySpreader {
            /// Creates a spreader able to schedule up to `horizon` cycles ahead.
            ///
            /// # Panics
            ///
            /// Panics if `horizon` is zero.
            pub fn new(horizon: usize) -> Self {
                assert!(horizon > 0, "spreader horizon must be nonzero");
                Self {
                    ring: vec![0.0; horizon],
                    head: 0,
                }
            }

            /// Schedules `amount` of activity spread evenly over `duration` cycles
            /// beginning `delay` cycles from now. Contributions beyond the horizon
            /// are clamped to the last slot (never dropped, so energy is conserved).
            pub fn schedule(&mut self, delay: u32, duration: u32, amount: f64) {
                debug_assert!(amount >= 0.0, "activity must be non-negative");
                let duration = duration.max(1);
                let per_cycle = amount / duration as f64;
                let n = self.ring.len();
                for k in 0..duration {
                    let offset = ((delay + k) as usize).min(n - 1);
                    let slot = (self.head + offset) % n;
                    self.ring[slot] += per_cycle;
                }
            }

            /// Pops the activity that lands in the current cycle and advances time.
            pub fn drain_cycle(&mut self) -> f64 {
                let v = self.ring[self.head];
                self.ring[self.head] = 0.0;
                self.head = (self.head + 1) % self.ring.len();
                v
            }
        }
    }

    /// A seeded splitmix64 stream for the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_the_pre_rewrite_spreader_cycle_for_cycle() {
        // Horizons below, at, and past a power of two (96 is the Table 1
        // machine's); delays and durations reach past the horizon so the
        // clamp to the last slot is exercised.
        for (seed, horizon) in [(1u64, 96usize), (2, 64), (3, 5), (4, 1), (5, 130)] {
            let mut got = ActivitySpreader::new(horizon);
            let mut want = oracle::ActivitySpreader::new(horizon);
            let mut rng = seed;
            let reach = 2 * horizon as u64 + 4;
            for c in 0..5_000 {
                for _ in 0..splitmix(&mut rng) % 4 {
                    let delay = (splitmix(&mut rng) % reach) as u32;
                    let duration = (splitmix(&mut rng) % reach) as u32;
                    let amount = (splitmix(&mut rng) % 1000) as f64 / 7.0;
                    got.schedule(delay, duration, amount);
                    want.schedule(delay, duration, amount);
                }
                assert_eq!(
                    got.drain_cycle().to_bits(),
                    want.drain_cycle().to_bits(),
                    "horizon {horizon} cycle {c}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_panics() {
        let _ = ActivitySpreader::new(0);
    }
}
