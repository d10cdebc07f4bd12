//! Deterministic fault injection and failure classification for the
//! supervised experiment engine.
//!
//! The paper's Table 4 is itself a robustness study — it perturbs the
//! voltage-sensor substrate with noise and delay and watches the technique
//! degrade. This module generalizes that axis into a seeded, reproducible
//! fault plane covering the whole harness:
//!
//! * **sensor faults** — stuck-at readings, extra gaussian noise, added
//!   delay on the value a controller observes (extending the Table 4 axis to
//!   the tuning detector too);
//! * **numerical faults** — NaN/Inf/overflow currents fed into the RLC
//!   integrator, exercising the guarded [`rlc::try_step`] path;
//! * **storage faults** — truncated or bit-flipped recorded-baseline cache
//!   files;
//! * **worker faults** — injected panics and artificial stalls in the
//!   worker pool.
//!
//! A [`FaultPlan`] is keyed by application and attempt: the same seed always
//! injects the same faults into the same apps, so every failure a fault
//! causes is reproducible bit-for-bit. [`FaultPlan::none`] is the default
//! and is bit-exact-neutral: the engine and simulator treat it as the
//! identity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// How the supervisor classified a failed application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The run panicked (an injected worker panic or a genuine bug).
    Panic,
    /// The run exceeded the supervisor's watchdog deadline.
    Timeout,
    /// The RLC integration surfaced an [`rlc::IntegrationError`].
    Numerical,
    /// A recorded-baseline cache file was corrupt or unreadable.
    Storage,
    /// The worker process died without unwinding: a signal (SIGKILL,
    /// SIGABRT, SIGSEGV), a non-zero exit, or — in the in-process tier —
    /// a hard-crash fault that only `RESTUNE_ISOLATION=process` can
    /// actually execute.
    Crash,
    /// The worker exited cleanly but its reply frame was missing, corrupt,
    /// or inconsistent with the job (wire codec drift).
    Transport,
    /// The run was abandoned because the suite received SIGINT/SIGTERM.
    Interrupted,
}

impl FailureKind {
    /// Stable lower-case label used in reports and JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::Numerical => "numerical",
            FailureKind::Storage => "storage",
            FailureKind::Crash => "crash",
            FailureKind::Transport => "transport",
            FailureKind::Interrupted => "interrupted",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed panic payload the simulator throws for classifiable failures.
///
/// The supervisor downcasts unwound payloads to this type: a `FaultSignal`
/// carries its own [`FailureKind`], anything else is classified as a plain
/// [`FailureKind::Panic`].
#[derive(Debug, Clone)]
pub struct FaultSignal {
    /// The classification the supervisor should record.
    pub kind: FailureKind,
    /// Human-readable description of what happened.
    pub message: String,
}

/// Installs (once per process) a panic hook that keeps [`FaultSignal`]
/// unwinds off stderr. Those panics are the supervisor's control flow — the
/// classification lands in the failure report — so the default hook's
/// backtrace would be pure noise. Any other panic payload still goes through
/// the previously installed hook untouched.
pub(crate) fn install_signal_quieting_hook() {
    static HOOK: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FaultSignal>().is_none() {
                previous(info);
            }
        }));
    });
}

impl FaultSignal {
    /// A watchdog-deadline expiry at the given simulated cycle.
    pub fn timeout(cycle: u64) -> Self {
        Self {
            kind: FailureKind::Timeout,
            message: format!("watchdog deadline exceeded at cycle {cycle}"),
        }
    }

    /// A surfaced integration error at the given simulated cycle.
    pub fn numerical(error: impl fmt::Display, cycle: u64) -> Self {
        Self {
            kind: FailureKind::Numerical,
            message: format!("integration failed at cycle {cycle}: {error}"),
        }
    }

    /// An injected worker panic.
    pub fn injected_panic() -> Self {
        Self {
            kind: FailureKind::Panic,
            message: "injected worker panic".to_string(),
        }
    }
}

/// One injectable fault, applied to a single application run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The controller's sensed value freezes at its `from_cycle` reading for
    /// `hold_cycles` cycles.
    SensorStuck {
        /// First faulty cycle.
        from_cycle: u64,
        /// How long the reading stays frozen.
        hold_cycles: u64,
    },
    /// Extra zero-mean gaussian noise on every sensed value, with standard
    /// deviation `sigma` relative to the technique's sensing scale.
    SensorNoise {
        /// Standard deviation as a fraction of the sensing scale.
        sigma: f64,
        /// Seed of the noise stream (independent of the plan seed).
        seed: u64,
    },
    /// The controller observes values `cycles` cycles stale.
    SensorDelay {
        /// Added delay in cycles.
        cycles: u32,
    },
    /// The CPU current fed to the supply becomes NaN at `at_cycle`.
    NumericNan {
        /// The faulty cycle.
        at_cycle: u64,
    },
    /// The CPU current becomes +∞ at `at_cycle`.
    NumericInf {
        /// The faulty cycle.
        at_cycle: u64,
    },
    /// The CPU current is scaled beyond any physical value at `at_cycle`,
    /// driving the integrator past its blow-up envelope.
    NumericOverflow {
        /// The faulty cycle.
        at_cycle: u64,
    },
    /// The worker panics before the run starts.
    WorkerPanic,
    /// The worker stalls for `millis` before the run starts (drives the
    /// watchdog when a timeout is configured).
    WorkerStall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// The worker calls [`std::process::abort`] before the run starts. A
    /// hard crash: no unwinding, no reply — only the process-isolation
    /// tier can contain it (the in-process tier records it as a simulated
    /// [`FailureKind::Crash`] without executing).
    WorkerAbort,
    /// The worker SIGKILLs itself before the run starts (indistinguishable
    /// from the OOM killer). Same containment rules as [`WorkerAbort`].
    WorkerKill,
}

impl FaultSpec {
    /// Stable lower-case class label used in reports and JSON output.
    pub fn class(&self) -> &'static str {
        match self {
            FaultSpec::SensorStuck { .. } => "sensor-stuck",
            FaultSpec::SensorNoise { .. } => "sensor-noise",
            FaultSpec::SensorDelay { .. } => "sensor-delay",
            FaultSpec::NumericNan { .. } => "numeric-nan",
            FaultSpec::NumericInf { .. } => "numeric-inf",
            FaultSpec::NumericOverflow { .. } => "numeric-overflow",
            FaultSpec::WorkerPanic => "worker-panic",
            FaultSpec::WorkerStall { .. } => "worker-stall",
            FaultSpec::WorkerAbort => "worker-abort",
            FaultSpec::WorkerKill => "worker-kill",
        }
    }

    /// `true` for faults that kill the worker process outright (no unwind,
    /// no reply frame). Containable only under `RESTUNE_ISOLATION=process`.
    pub fn is_hard_crash(&self) -> bool {
        matches!(self, FaultSpec::WorkerAbort | FaultSpec::WorkerKill)
    }

    /// `true` for faults that perturb the *result* of a successful run
    /// (sensor faults) rather than making the run fail. These participate in
    /// checkpoint fingerprints: results computed under different sensor
    /// faults are not interchangeable.
    pub fn perturbs_result(&self) -> bool {
        matches!(
            self,
            FaultSpec::SensorStuck { .. }
                | FaultSpec::SensorNoise { .. }
                | FaultSpec::SensorDelay { .. }
        )
    }
}

/// A fault applied to a recorded-baseline cache file on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The file is cut to half its length (simulates an interrupted write).
    Truncate,
    /// A byte in the middle of the file is bit-flipped.
    BitFlip,
}

impl StorageFault {
    /// Stable lower-case label used in reports.
    pub fn class(&self) -> &'static str {
        match self {
            StorageFault::Truncate => "storage-truncate",
            StorageFault::BitFlip => "storage-bitflip",
        }
    }
}

/// Whether an injected fault persists across supervisor retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// Applied only to the first attempt; a retry runs clean.
    Transient,
    /// Applied to every attempt; the supervisor's retries cannot help.
    Persistent,
}

/// The deterministic fault-injection plan for a suite run.
///
/// Off by default ([`FaultPlan::none`]) and bit-exact-neutral when disabled.
/// [`FaultPlan::seeded`] derives, per application, a reproducible set of
/// faults; explicit faults can be targeted at named apps with the builder
/// methods.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: Option<u64>,
    storage: Option<StorageFault>,
    targeted: Vec<(String, FaultSpec, Persistence)>,
}

/// FNV-1a over the app name, mixed with the plan seed, giving each app its
/// own deterministic fault stream.
fn app_stream_seed(seed: u64, app: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in app.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ seed.rotate_left(17)
}

impl FaultPlan {
    /// The disabled plan: injects nothing anywhere.
    pub fn none() -> Self {
        Self::default()
    }

    /// A fully seeded plan: every application draws its faults from a
    /// deterministic per-app stream, and the baseline cache suffers a
    /// storage fault. The same seed always produces the same plan.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed: Some(seed),
            storage: Some(if seed & 1 == 0 {
                StorageFault::Truncate
            } else {
                StorageFault::BitFlip
            }),
            targeted: Vec::new(),
        }
    }

    /// Adds an explicit fault for `app` applied only to the first attempt.
    pub fn with_transient_fault(mut self, app: &str, spec: FaultSpec) -> Self {
        self.targeted
            .push((app.to_string(), spec, Persistence::Transient));
        self
    }

    /// Adds an explicit fault for `app` applied to every attempt.
    pub fn with_persistent_fault(mut self, app: &str, spec: FaultSpec) -> Self {
        self.targeted
            .push((app.to_string(), spec, Persistence::Persistent));
        self
    }

    /// Adds (or replaces) the storage fault applied to baseline cache files.
    pub fn with_storage_fault(mut self, fault: StorageFault) -> Self {
        self.storage = Some(fault);
        self
    }

    /// `true` when the plan can inject anything at all.
    pub fn is_enabled(&self) -> bool {
        self.seed.is_some() || self.storage.is_some() || !self.targeted.is_empty()
    }

    /// The storage fault to apply to baseline cache files, if any.
    pub fn storage_fault(&self) -> Option<StorageFault> {
        self.storage
    }

    /// The faults to inject into `app` on the given retry `attempt`
    /// (0 = first try). Transient faults apply only to attempt 0.
    pub fn faults_for(&self, app: &str, attempt: u32) -> Vec<FaultSpec> {
        let mut out: Vec<FaultSpec> = self
            .targeted
            .iter()
            .filter(|(name, _, persistence)| {
                name == app && (attempt == 0 || *persistence == Persistence::Persistent)
            })
            .map(|(_, spec, _)| *spec)
            .collect();
        if let Some(seed) = self.seed {
            out.extend(
                Self::derived_faults(seed, app)
                    .into_iter()
                    .filter(|(_, p)| attempt == 0 || *p == Persistence::Persistent)
                    .map(|(spec, _)| spec),
            );
        }
        out
    }

    /// The result-perturbing (sensor) faults for `app` — the part of the
    /// plan a checkpoint fingerprint must include.
    pub fn result_faults(&self, app: &str) -> Vec<FaultSpec> {
        self.faults_for(app, 0)
            .into_iter()
            .filter(FaultSpec::perturbs_result)
            .collect()
    }

    /// `true` when the plan perturbs the *results* of any suite application
    /// (a sensor fault somewhere). Suites run under such a plan must never
    /// be recorded as clean baselines.
    pub fn has_result_faults(&self) -> bool {
        workloads::registry::all()
            .iter()
            .any(|p| !self.result_faults(p.name).is_empty())
    }

    /// Derives the seeded faults for one app. Kept deliberately sparse so a
    /// seeded suite degrades rather than collapses: most apps run clean,
    /// some see one or two faults, and a minority of those faults persist
    /// across retries.
    fn derived_faults(seed: u64, app: &str) -> Vec<(FaultSpec, Persistence)> {
        let mut rng = StdRng::seed_from_u64(app_stream_seed(seed, app));
        let mut out = Vec::new();
        if rng.gen_bool(0.18) {
            let spec = match rng.gen_range(0..3u32) {
                0 => FaultSpec::SensorStuck {
                    from_cycle: rng.gen_range(256..2048u64),
                    hold_cycles: rng.gen_range(64..512u64),
                },
                1 => FaultSpec::SensorNoise {
                    sigma: rng.gen_range(0.05..0.5),
                    seed: rng.gen(),
                },
                _ => FaultSpec::SensorDelay {
                    cycles: rng.gen_range(1..16u32),
                },
            };
            // Sensor faults model environment drift: they never clear on a
            // retry.
            out.push((spec, Persistence::Persistent));
        }
        if rng.gen_bool(0.12) {
            let at_cycle = rng.gen_range(256..2048u64);
            let spec = match rng.gen_range(0..3u32) {
                0 => FaultSpec::NumericNan { at_cycle },
                1 => FaultSpec::NumericInf { at_cycle },
                _ => FaultSpec::NumericOverflow { at_cycle },
            };
            out.push((spec, persistence(&mut rng, 0.3)));
        }
        if rng.gen_bool(0.15) {
            let spec = if rng.gen_bool(0.5) {
                FaultSpec::WorkerPanic
            } else {
                FaultSpec::WorkerStall {
                    millis: rng.gen_range(5..40u64),
                }
            };
            out.push((spec, persistence(&mut rng, 0.25)));
        }
        out
    }
}

fn persistence(rng: &mut StdRng, p_persistent: f64) -> Persistence {
    if rng.gen_bool(p_persistent) {
        Persistence::Persistent
    } else {
        Persistence::Transient
    }
}

/// Per-run fault state machine the simulator consults each cycle. Built by
/// the supervised runner from the [`FaultPlan`]'s specs for one (app,
/// attempt); [`FaultRuntime::none`] is the identity and is what the plain
/// (unsupervised) entry points use.
#[derive(Debug)]
pub struct FaultRuntime {
    inert: bool,
    stuck: Option<StuckState>,
    noise: Option<NoiseState>,
    delay: Option<DelayState>,
    numeric: Option<(u64, f64)>,
    pre: Vec<PreRunFault>,
    /// Application name for cycle-stamped fault events; `None` disables
    /// emission (the plain entry points never set it).
    traced_app: Option<&'static str>,
}

#[derive(Debug)]
struct StuckState {
    from_cycle: u64,
    until_cycle: u64,
    held: Option<f64>,
}

#[derive(Debug)]
struct NoiseState {
    rng: StdRng,
    sigma: f64,
}

#[derive(Debug)]
struct DelayState {
    buffer: VecDeque<f64>,
    cycles: usize,
}

#[derive(Debug, Clone, Copy)]
enum PreRunFault {
    Panic,
    Stall { millis: u64 },
    Abort,
    Kill,
}

/// Draws one standard gaussian via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl FaultRuntime {
    /// The identity runtime: every hook is a no-op returning its input
    /// bit-for-bit.
    pub fn none() -> Self {
        Self {
            inert: true,
            stuck: None,
            noise: None,
            delay: None,
            numeric: None,
            pre: Vec::new(),
            traced_app: None,
        }
    }

    /// Builds the runtime for one attempt. `sense_scale` is the technique's
    /// natural sensing magnitude (the noise margin in volts for the voltage
    /// sensor, the current variation threshold in amps for the tuning
    /// detector); relative noise sigmas are scaled by it.
    pub fn from_specs(specs: &[FaultSpec], sense_scale: f64) -> Self {
        let mut runtime = Self::none();
        for spec in specs {
            match *spec {
                FaultSpec::SensorStuck {
                    from_cycle,
                    hold_cycles,
                } => {
                    runtime.stuck = Some(StuckState {
                        from_cycle,
                        until_cycle: from_cycle.saturating_add(hold_cycles),
                        held: None,
                    });
                }
                FaultSpec::SensorNoise { sigma, seed } => {
                    runtime.noise = Some(NoiseState {
                        rng: StdRng::seed_from_u64(seed),
                        sigma: sigma * sense_scale,
                    });
                }
                FaultSpec::SensorDelay { cycles } => {
                    runtime.delay = Some(DelayState {
                        buffer: VecDeque::with_capacity(cycles as usize + 1),
                        cycles: cycles as usize,
                    });
                }
                FaultSpec::NumericNan { at_cycle } => {
                    runtime.numeric = Some((at_cycle, f64::NAN));
                }
                FaultSpec::NumericInf { at_cycle } => {
                    runtime.numeric = Some((at_cycle, f64::INFINITY));
                }
                FaultSpec::NumericOverflow { at_cycle } => {
                    // Large enough to push the integrator past its blow-up
                    // envelope, small enough to stay finite through the step
                    // arithmetic — it must be caught by the guard, not by
                    // accident of overflow.
                    runtime.numeric = Some((at_cycle, 1e12));
                }
                FaultSpec::WorkerPanic => runtime.pre.push(PreRunFault::Panic),
                FaultSpec::WorkerStall { millis } => {
                    runtime.pre.push(PreRunFault::Stall { millis })
                }
                FaultSpec::WorkerAbort => runtime.pre.push(PreRunFault::Abort),
                FaultSpec::WorkerKill => runtime.pre.push(PreRunFault::Kill),
            }
        }
        runtime.inert = runtime.stuck.is_none()
            && runtime.noise.is_none()
            && runtime.delay.is_none()
            && runtime.numeric.is_none()
            && runtime.pre.is_empty();
        runtime
    }

    /// `true` when every hook is a no-op.
    pub fn is_inert(&self) -> bool {
        self.inert
    }

    /// Names the application for cycle-stamped fault events (observability
    /// only; never changes what the runtime injects).
    pub fn set_traced_app(&mut self, app: &'static str) {
        self.traced_app = Some(app);
    }

    fn fault_event(&self, kind: &str, cycle: u64) -> crate::obs::Event {
        crate::obs::counter_add(&format!("sim.{kind}"), 1);
        crate::obs::Event::sim(kind, self.traced_app.unwrap_or("?"), cycle)
    }

    /// Fires pre-run worker faults: stalls sleep, panics unwind with a
    /// classified [`FaultSignal`], and the hard-crash faults take the
    /// process down for real (the supervisor only lets them execute inside
    /// an isolated worker process).
    pub fn pre_run(&self) {
        let tracing = self.traced_app.is_some() && crate::obs::trace_enabled();
        for fault in &self.pre {
            if tracing {
                // Emit *before* firing: the hard-crash faults never return,
                // and the armed event is the only trace they leave. (In
                // wire-forwarding mode even that is lost with the process —
                // the parent's fault-armed event still records the arming.)
                let kind = match fault {
                    PreRunFault::Panic => "fault-panic",
                    PreRunFault::Stall { .. } => "fault-stall",
                    PreRunFault::Abort => "fault-abort",
                    PreRunFault::Kill => "fault-kill",
                };
                self.fault_event(kind, 0).emit();
            }
            match fault {
                PreRunFault::Stall { millis } => {
                    std::thread::sleep(std::time::Duration::from_millis(*millis));
                }
                PreRunFault::Panic => std::panic::panic_any(FaultSignal::injected_panic()),
                PreRunFault::Abort => std::process::abort(),
                PreRunFault::Kill => crate::isolation::kill_self(),
            }
        }
    }

    /// Routes one sensed value through the sensor-fault chain
    /// (delay → stuck-at → noise). Identity when inert.
    #[inline]
    pub fn sense(&mut self, cycle: u64, value: f64) -> f64 {
        if self.inert {
            return value;
        }
        let mut v = value;
        if let Some(delay) = &mut self.delay {
            delay.buffer.push_back(v);
            v = if delay.buffer.len() > delay.cycles {
                delay.buffer.pop_front().expect("buffer is non-empty")
            } else {
                *delay.buffer.front().expect("buffer is non-empty")
            };
        }
        if let Some(stuck) = &mut self.stuck {
            if cycle >= stuck.from_cycle && cycle < stuck.until_cycle {
                v = *stuck.held.get_or_insert(v);
            } else {
                stuck.held = None;
            }
        }
        if let Some(noise) = &mut self.noise {
            v += noise.sigma * gaussian(&mut noise.rng);
        }
        v
    }

    /// Perturbs the CPU current fed to the supply at `cycle`. Identity when
    /// inert; the numeric faults replace the current at their cycle.
    #[inline]
    pub fn perturb_current(&mut self, cycle: u64, amps: f64) -> f64 {
        if self.inert {
            return amps;
        }
        match self.numeric {
            Some((at_cycle, injected)) if cycle == at_cycle => {
                if self.traced_app.is_some() && crate::obs::trace_enabled() {
                    self.fault_event("fault-perturb", cycle)
                        .f64_field("injected_amps", injected)
                        .f64_field("replaced_amps", amps)
                        .emit();
                }
                injected
            }
            _ => amps,
        }
    }
}

/// One application the supervisor gave up on, with its classification.
#[derive(Debug, Clone, PartialEq)]
pub struct AppFailure {
    /// The application name.
    pub app: String,
    /// How the last failure was classified.
    pub kind: FailureKind,
    /// The last failure's message.
    pub message: String,
    /// Total attempts made (1 + retries).
    pub attempts: u32,
}

impl fmt::Display for AppFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed ({}, {} attempts): {}",
            self.app, self.kind, self.attempts, self.message
        )
    }
}

/// A transient failure the supervisor retried past.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// The application name.
    pub app: String,
    /// How the failed attempt(s) were classified.
    pub kind: FailureKind,
    /// The last failed attempt's message.
    pub message: String,
    /// The attempt number that finally succeeded (≥ 2).
    pub attempts: u32,
}

/// A fault the plan injected into one attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionEvent {
    /// The application name.
    pub app: String,
    /// Which attempt received the fault (0 = first try).
    pub attempt: u32,
    /// The fault's class label ([`FaultSpec::class`]).
    pub class: &'static str,
}

/// A baseline-cache file that was found damaged (or deliberately damaged by
/// a storage fault) and what became of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageIncident {
    /// The file involved.
    pub path: String,
    /// What happened to it.
    pub detail: String,
    /// `true` when the engine recovered by re-simulating and re-recording.
    pub recovered: bool,
}

/// Everything the supervisor observed across one suite run: injected faults,
/// retried-and-recovered failures, final failures, and storage incidents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureReport {
    /// Which suite this report covers (a technique name or design-point
    /// label).
    pub scope: String,
    /// Applications the supervisor gave up on.
    pub failures: Vec<AppFailure>,
    /// Transient failures that succeeded on retry.
    pub recoveries: Vec<RecoveryEvent>,
    /// Faults the plan injected.
    pub injections: Vec<InjectionEvent>,
    /// Baseline-cache files found damaged.
    pub storage: Vec<StorageIncident>,
    /// `true` when at least one checkpoint append failed: results are
    /// still correct, but a crash now loses the unwritten rows (resume
    /// would re-run them).
    pub checkpoint_degraded: bool,
}

impl FailureReport {
    /// An empty report for the given scope.
    pub fn new(scope: impl Into<String>) -> Self {
        Self {
            scope: scope.into(),
            ..Self::default()
        }
    }

    /// `true` when nothing failed terminally (recoveries and injections are
    /// allowed — that is what "degraded gracefully" means).
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.storage.iter().all(|s| s.recovered)
    }

    /// `true` when the report has no events at all.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
            && self.recoveries.is_empty()
            && self.injections.is_empty()
            && self.storage.is_empty()
            && !self.checkpoint_degraded
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "[{}] {} injected, {} recovered, {} failed, {} storage incidents{}",
            self.scope,
            self.injections.len(),
            self.recoveries.len(),
            self.failures.len(),
            self.storage.len(),
            if self.checkpoint_degraded {
                ", checkpoint degraded"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_disabled_and_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.is_enabled());
        assert!(plan.storage_fault().is_none());
        for app in ["gzip", "mcf", "art"] {
            assert!(plan.faults_for(app, 0).is_empty());
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let c = FaultPlan::seeded(43);
        let apps = ["gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon"];
        let draw = |plan: &FaultPlan| -> Vec<Vec<FaultSpec>> {
            apps.iter().map(|app| plan.faults_for(app, 0)).collect()
        };
        assert_eq!(draw(&a), draw(&b), "same seed, same plan");
        assert_ne!(draw(&a), draw(&c), "different seeds must diverge");
    }

    #[test]
    fn seeded_plan_injects_somewhere_across_a_suite() {
        // The CI smoke stage relies on a seeded plan actually doing
        // something across the 26-app suite.
        let plan = FaultPlan::seeded(42);
        let total: usize = workloads::spec2k::all()
            .iter()
            .map(|p| plan.faults_for(p.name, 0).len())
            .sum();
        assert!(total > 0, "seed 42 must inject at least one fault");
    }

    #[test]
    fn transient_faults_clear_on_retry_and_persistent_ones_do_not() {
        let plan = FaultPlan::none()
            .with_transient_fault("gzip", FaultSpec::WorkerPanic)
            .with_persistent_fault("gzip", FaultSpec::NumericNan { at_cycle: 500 });
        assert_eq!(plan.faults_for("gzip", 0).len(), 2);
        let retry = plan.faults_for("gzip", 1);
        assert_eq!(retry, vec![FaultSpec::NumericNan { at_cycle: 500 }]);
        assert!(plan.faults_for("mcf", 0).is_empty(), "targeted app only");
    }

    #[test]
    fn result_faults_are_the_sensor_subset() {
        let plan = FaultPlan::none()
            .with_persistent_fault("gzip", FaultSpec::SensorDelay { cycles: 3 })
            .with_persistent_fault("gzip", FaultSpec::WorkerPanic);
        let result_faults = plan.result_faults("gzip");
        assert_eq!(result_faults, vec![FaultSpec::SensorDelay { cycles: 3 }]);
    }

    #[test]
    fn inert_runtime_is_the_identity() {
        let mut rt = FaultRuntime::none();
        assert!(rt.is_inert());
        for cycle in 0..100 {
            let v = 0.0125 * cycle as f64;
            assert_eq!(rt.sense(cycle, v).to_bits(), v.to_bits());
            assert_eq!(rt.perturb_current(cycle, v).to_bits(), v.to_bits());
        }
        rt.pre_run(); // must not panic or sleep
    }

    #[test]
    fn stuck_at_holds_the_entry_value_for_the_window() {
        let specs = [FaultSpec::SensorStuck {
            from_cycle: 10,
            hold_cycles: 5,
        }];
        let mut rt = FaultRuntime::from_specs(&specs, 1.0);
        assert!(!rt.is_inert());
        assert_eq!(rt.sense(9, 9.0), 9.0);
        for cycle in 10..15 {
            assert_eq!(rt.sense(cycle, cycle as f64), 10.0, "held at entry");
        }
        assert_eq!(rt.sense(15, 15.0), 15.0, "released after the window");
    }

    #[test]
    fn delay_shifts_the_stream() {
        let specs = [FaultSpec::SensorDelay { cycles: 3 }];
        let mut rt = FaultRuntime::from_specs(&specs, 1.0);
        let out: Vec<f64> = (0..8).map(|c| rt.sense(c, c as f64)).collect();
        assert_eq!(out, vec![0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn noise_is_seed_deterministic_and_scaled() {
        let specs = [FaultSpec::SensorNoise {
            sigma: 0.1,
            seed: 7,
        }];
        let mut a = FaultRuntime::from_specs(&specs, 0.05);
        let mut b = FaultRuntime::from_specs(&specs, 0.05);
        let va: Vec<f64> = (0..50).map(|c| a.sense(c, 1.0)).collect();
        let vb: Vec<f64> = (0..50).map(|c| b.sense(c, 1.0)).collect();
        assert_eq!(va, vb, "same seed, same noise stream");
        let max_dev = va.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        assert!(max_dev > 0.0, "noise must perturb");
        assert!(max_dev < 0.1 * 0.05 * 6.0, "six sigma bound, scaled");
    }

    #[test]
    fn numeric_faults_replace_the_current_at_their_cycle() {
        let specs = [FaultSpec::NumericNan { at_cycle: 3 }];
        let mut rt = FaultRuntime::from_specs(&specs, 1.0);
        assert_eq!(rt.perturb_current(2, 70.0), 70.0);
        assert!(rt.perturb_current(3, 70.0).is_nan());
        assert_eq!(rt.perturb_current(4, 70.0), 70.0);
    }

    #[test]
    fn worker_panic_fires_pre_run_with_a_typed_signal() {
        let rt = FaultRuntime::from_specs(&[FaultSpec::WorkerPanic], 1.0);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.pre_run()))
            .expect_err("pre_run must unwind");
        let signal = payload
            .downcast::<FaultSignal>()
            .expect("the payload is a typed FaultSignal");
        assert_eq!(signal.kind, FailureKind::Panic);
        assert_eq!(signal.message, "injected worker panic");
    }

    #[test]
    fn report_cleanliness_rules() {
        let mut report = FailureReport::new("base");
        assert!(report.is_clean() && report.is_empty());
        report.injections.push(InjectionEvent {
            app: "gzip".into(),
            attempt: 0,
            class: "worker-panic",
        });
        report.recoveries.push(RecoveryEvent {
            app: "gzip".into(),
            kind: FailureKind::Panic,
            message: "injected worker panic".into(),
            attempts: 2,
        });
        assert!(report.is_clean(), "recoveries keep a report clean");
        assert!(!report.is_empty());
        report.failures.push(AppFailure {
            app: "mcf".into(),
            kind: FailureKind::Timeout,
            message: "watchdog".into(),
            attempts: 3,
        });
        assert!(!report.is_clean());
        assert!(report.summary().contains("1 failed"));
    }
}
