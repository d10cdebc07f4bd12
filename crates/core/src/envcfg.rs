//! Shared parsing for the `RESTUNE_*` tuning knobs.
//!
//! `RESTUNE_WORKERS` and `RESTUNE_BATCH` follow the same contract: a
//! positive integer is honored, anything else warns once per knob on stderr
//! (through [`crate::obs::warn`], so the warning also lands in the trace
//! stream and warn counters) and falls back to the knob's default. [`positive_usize`] is that contract in one place; the
//! callers keep their own defaults, clamps, and warn categories.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Which knobs have already warned this process. Keyed by variable name so
/// each knob warns at most once — these parsers run on every simulation,
/// and a per-call warning would flood a suite.
fn warned() -> &'static Mutex<HashSet<&'static str>> {
    static WARNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Resets the warn-once registry so tests can observe the warning again.
#[cfg(test)]
pub(crate) fn reset_warnings() {
    warned().lock().unwrap().clear();
}

/// Reads environment variable `name` as a positive integer.
///
/// Returns `Some(n)` for a valid positive value, `None` when the variable
/// is unset **or** invalid; an invalid value additionally warns once per
/// process through `obs::warn` under `category`, naming `fallback_desc` as
/// what will be used instead.
pub(crate) fn positive_usize(
    name: &'static str,
    category: &'static str,
    fallback_desc: &str,
) -> Option<usize> {
    match std::env::var(name) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                if warned().lock().unwrap().insert(name) {
                    crate::obs::warn(
                        category,
                        &format!(
                            "invalid {name}='{raw}' (need a positive integer); \
                             using {fallback_desc}"
                        ),
                    );
                }
                None
            }
        },
        Err(_) => None,
    }
}

/// Reads environment variable `name` as a positive, finite float (seconds,
/// typically). Same warn-once contract as [`positive_usize`].
pub(crate) fn positive_f64(
    name: &'static str,
    category: &'static str,
    fallback_desc: &str,
) -> Option<f64> {
    match std::env::var(name) {
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Some(v),
            _ => {
                if warned().lock().unwrap().insert(name) {
                    crate::obs::warn(
                        category,
                        &format!(
                            "invalid {name}='{raw}' (need a positive number); \
                             using {fallback_desc}"
                        ),
                    );
                }
                None
            }
        },
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::with_env;

    #[test]
    fn parses_positive_and_rejects_everything_else() {
        let cases: [(Option<&str>, Option<usize>); 6] = [
            (None, None),
            (Some("3"), Some(3)),
            (Some(" 64 "), Some(64)),
            (Some("0"), None),
            (Some("-2"), None),
            (Some("lots"), None),
        ];
        for (value, expected) in cases {
            let got = with_env(&[("RESTUNE_ENVCFG_TEST", value)], || {
                positive_usize("RESTUNE_ENVCFG_TEST", "engine", "the default")
            });
            assert_eq!(got, expected, "value {value:?}");
        }
    }

    #[test]
    fn float_knob_requires_positive_finite_values() {
        let cases: [(Option<&str>, Option<f64>); 7] = [
            (None, None),
            (Some("2.5"), Some(2.5)),
            (Some(" 30 "), Some(30.0)),
            (Some("0"), None),
            (Some("-1.5"), None),
            (Some("inf"), None),
            (Some("soon"), None),
        ];
        for (value, expected) in cases {
            let got = with_env(&[("RESTUNE_ENVCFG_F64_TEST", value)], || {
                positive_f64("RESTUNE_ENVCFG_F64_TEST", "cache", "the default")
            });
            assert_eq!(got, expected, "value {value:?}");
        }
    }

    #[test]
    fn warns_once_per_knob() {
        reset_warnings();
        let warn_count = || {
            crate::obs::snapshot_counters()
                .into_iter()
                .find(|(name, _)| name == "warn.engine")
                .map(|(_, v)| v)
                .unwrap_or(0)
        };
        with_env(&[("RESTUNE_ENVCFG_WARN_TEST", Some("nope"))], || {
            let before = warn_count();
            let _ = positive_usize("RESTUNE_ENVCFG_WARN_TEST", "engine", "the default");
            let after_first = warn_count();
            let _ = positive_usize("RESTUNE_ENVCFG_WARN_TEST", "engine", "the default");
            let after_second = warn_count();
            assert_eq!(after_first, before + 1, "first invalid read warns");
            assert_eq!(after_second, after_first, "second read is silent");
        });
    }
}
