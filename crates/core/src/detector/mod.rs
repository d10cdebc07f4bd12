//! Detection of nascent resonant behavior (Section 3.1): the current
//! history register with band-wide quarter-period adders, the high-low /
//! low-high event histories, and the resonant event count.

mod events;
mod history;
#[cfg(test)]
mod oracle;
mod wavelet;

pub use events::{EventDetector, Polarity, ResonantEvent};
pub use history::CurrentHistory;
pub use wavelet::{HaarWindow, WaveletConfig, WaveletDetector, WaveletWarning};
