//! The fused hot-path simulation kernel.
//!
//! [`run_fused`] is the batched form of the per-cycle chain in
//! [`crate::sim`]: controller → CPU → power model → supply. It exploits the
//! structure of each technique's feedback path to break the cycle-by-cycle
//! serialization with the supply integrator:
//!
//! * the base machine reads nothing back, pipeline damping reads only the
//!   previous cycle's pipeline events, and resonance tuning reads only the
//!   previous cycle's *current* — none of them observe the supply voltage.
//!   For these techniques the kernel runs controller/CPU/power serially while
//!   accumulating per-cycle current into a flat `f64` buffer, then flushes
//!   whole batches through [`PowerSupply::try_tick_batch`], whose step size
//!   and circuit coefficients are prepared once per flush
//!   ([`rlc::PreparedStep`]);
//! * the voltage-sensor technique feeds the supply voltage back into the
//!   next cycle's controller decision, so it flushes every cycle —
//!   the same code path, with a batch of one.
//!
//! Batches are rescheduling, not approximation: every stage runs the same
//! operations on the same values in the same order as the reference loop,
//! so the kernel is bit-exact with [`crate::sim`]'s pre-kernel path (pinned
//! by the golden-trace fixtures and the property suite). Workload decode is
//! shared across runs of the same application via
//! [`workloads::shared_stream`], and the CPU uses the event-driven
//! scheduler ([`cpusim::ScanMode::Event`]).
//!
//! Two per-run costs are skipped where they cannot change a result. The
//! cache warm-up walk touches a layout derived from the [`CpuConfig`]
//! alone, so each thread keeps the warmed cache image of the last config it
//! ran and clones it into every new core instead of walking again. And a
//! cycle's [`CycleEvents`] are buffered for the deferred per-cycle records
//! only when the caller reads those records (a live trace, or
//! [`crate::run_observed`]).
//!
//! The batch length comes from `RESTUNE_BATCH` (default
//! [`DEFAULT_BATCH`]) and is deliberately *not* part of [`SimConfig`]: it
//! cannot change results, so it must not enter checkpoint or baseline
//! fingerprints — a suite checkpointed at one batch size resumes bit-exactly
//! at another. `RESTUNE_KERNEL=off` routes runs through the reference loop
//! instead.

use std::cell::RefCell;
use std::time::Instant;

use cpusim::cache::CacheHierarchy;
use cpusim::{Cpu, CpuConfig, CycleEvents, PipelineControls};
use powermodel::{EnergyMeter, PowerModel};
use rlc::units::{Amps, Volts};
use rlc::PowerSupply;
use workloads::{shared_stream, stream::warm_caches, SharedStream, WorkloadProfile};

use crate::fault::{FaultRuntime, FaultSignal};
use crate::sim::{
    effective_power_config, finish_run, Controller, CycleRecord, PhaseTimings, SimConfig,
    SimResult, Technique, NO_OBSERVER, WATCHDOG_CHECK_MASK,
};

/// Cycles per supply flush when `RESTUNE_BATCH` is unset.
pub const DEFAULT_BATCH: usize = 1024;

/// Batch lengths are clamped to this to keep flush buffers bounded.
const MAX_BATCH: usize = 1 << 20;

/// The kernel's supply-flush batch length: `RESTUNE_BATCH` cycles when set
/// to a positive integer, [`DEFAULT_BATCH`] otherwise. Read per run so tests
/// can vary it; never fingerprinted (it cannot affect results).
///
/// A non-numeric or zero value is rejected with a once-per-process stderr
/// warning and falls back to the default — the shared `RESTUNE_*` knob
/// contract of [`crate::envcfg`].
pub fn batch_size() -> usize {
    crate::envcfg::positive_usize(
        "RESTUNE_BATCH",
        "kernel",
        &format!("the default batch of {DEFAULT_BATCH}"),
    )
    .map(|n| n.min(MAX_BATCH))
    .unwrap_or(DEFAULT_BATCH)
}

/// `false` when `RESTUNE_KERNEL` is `off`/`0` — the escape hatch that
/// routes all runs through the per-cycle reference loop.
pub(crate) fn fused_enabled() -> bool {
    !matches!(
        std::env::var("RESTUNE_KERNEL").as_deref(),
        Ok("off") | Ok("0")
    )
}

/// Which simulation engine executes a run: the batched kernel or the
/// pre-kernel per-cycle reference loop it is measured and validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePath {
    /// The fused batched kernel (the default engine).
    Fused,
    /// The pre-kernel reference: full-window CPU scans, private stream
    /// decode, one supply step per cycle.
    Reference,
}

/// Runs one application on an explicitly chosen engine path — the A/B entry
/// point for bit-exactness checks and the benchmark baseline, immune to the
/// `RESTUNE_KERNEL` environment toggle.
pub fn run_on_path(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    path: EnginePath,
) -> SimResult {
    let mut faults = FaultRuntime::none();
    match path {
        EnginePath::Fused => {
            run_fused(
                profile,
                technique,
                sim,
                batch_size(),
                NO_OBSERVER,
                None,
                &mut faults,
                None,
            )
            .0
        }
        EnginePath::Reference => {
            crate::sim::run_core_reference(
                profile,
                technique,
                sim,
                NO_OBSERVER,
                None,
                &mut faults,
                None,
            )
            .0
        }
    }
}

/// Runs one application through the fused kernel with an explicit supply
/// flush batch length, ignoring `RESTUNE_BATCH` — the hook the
/// batch-invariance property tests use. Returns the outcome and the
/// detector-event total, both of which must be identical for every `batch`.
pub fn run_with_batch(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    batch: usize,
) -> (SimResult, u64) {
    let mut faults = FaultRuntime::none();
    run_fused(
        profile,
        technique,
        sim,
        batch.clamp(1, MAX_BATCH),
        NO_OBSERVER,
        None,
        &mut faults,
        None,
    )
}

thread_local! {
    /// The warmed cache image of the last [`CpuConfig`] this thread ran.
    static WARMED: RefCell<Option<(CpuConfig, CacheHierarchy)>> = const { RefCell::new(None) };
}

/// A fresh core for `profile` whose caches hold exactly what
/// [`warm_caches`] leaves: the walk only touches a config-derived layout
/// and then resets the statistics, so its image is cloned from the
/// thread's memo when the config matches, and walked (and memoized)
/// otherwise.
fn warmed_cpu(profile: &WorkloadProfile, sim: &SimConfig) -> Cpu<SharedStream> {
    let mut cpu = Cpu::new(sim.cpu, shared_stream(profile, sim.instructions));
    WARMED.with_borrow_mut(|memo| match memo {
        Some((config, image)) if *config == sim.cpu => cpu.caches_mut().clone_from(image),
        _ => {
            warm_caches(&mut cpu);
            *memo = Some((sim.cpu, cpu.caches().clone()));
        }
    });
    cpu
}

/// A cycle simulated but not yet flushed through the supply: everything a
/// [`CycleRecord`] needs except the noise voltage.
struct PendingCycle {
    cycle: u64,
    current: f64,
    event_count: Option<u32>,
    restricted: bool,
    events: CycleEvents,
}

/// The fused batched simulation loop. Same contract as the reference loop
/// in [`crate::sim`]: returns the outcome and detector-event count;
/// watchdog expiry and surfaced integration errors unwind with a typed
/// [`FaultSignal`]. Per-cycle records are built only when there is an
/// `observer` to read them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fused<F: FnMut(&CycleRecord)>(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    flush_batch: usize,
    mut observer: Option<F>,
    mut timers: Option<&mut PhaseTimings>,
    faults: &mut FaultRuntime,
    deadline: Option<Instant>,
) -> (SimResult, u64) {
    let power_cfg = effective_power_config(technique, sim);
    let mut cpu = warmed_cpu(profile, sim);
    let mut model = PowerModel::new(power_cfg, sim.cpu);
    let idle = power_cfg.idle_current;
    let mut supply = PowerSupply::new(sim.supply, sim.clock, idle);
    let mut meter = EnergyMeter::new(power_cfg.vdd, sim.clock);
    let mut controller = Controller::for_technique(technique);

    // The sensor technique closes its loop through the supply voltage, so
    // its supply flush degenerates to one cycle; every other technique's
    // feedback is satisfied within the serial portion.
    let flush_every = if matches!(technique, Technique::Sensor(_)) {
        1
    } else {
        flush_batch.max(1)
    };

    let mut currents: Vec<f64> = Vec::with_capacity(flush_every);
    let mut noises: Vec<f64> = Vec::with_capacity(flush_every);
    let observe = observer.is_some();
    let mut pending: Vec<PendingCycle> = Vec::with_capacity(if observe { flush_every } else { 0 });

    let mut last_current = idle;
    let mut last_noise = Volts::new(0.0);
    let mut last_events = CycleEvents::default();
    let mut cycles = 0u64;
    let mut damping_bound = 0u64;

    // Times one stage when this cycle is sampled, otherwise runs it bare
    // (same sampling discipline as the reference loop).
    macro_rules! staged {
        ($sampling:expr, $field:ident, $e:expr) => {
            if let (true, Some(acc)) = ($sampling, timers.as_deref_mut()) {
                let t0 = Instant::now();
                let v = $e;
                acc.$field += t0.elapsed();
                v
            } else {
                $e
            }
        };
    }

    while cpu.stats().committed < sim.instructions && cycles < sim.max_cycles {
        // Serial portion: controller → CPU → power model, accumulating
        // per-cycle current until the batch is full or the run ends.
        currents.clear();
        pending.clear();
        let base_cycle = cycles;
        while currents.len() < flush_every
            && cpu.stats().committed < sim.instructions
            && cycles < sim.max_cycles
        {
            if let Some(deadline) = deadline {
                if cycles & WATCHDOG_CHECK_MASK == 0 && Instant::now() >= deadline {
                    std::panic::panic_any(FaultSignal::timeout(cycles));
                }
            }
            let sampling = timers.is_some() && cycles.is_multiple_of(PhaseTimings::SAMPLE_INTERVAL);
            let mut event_count = None;
            let controls = staged!(
                sampling,
                controller,
                match &mut controller {
                    Controller::Base => PipelineControls::free(),
                    Controller::Tuning(t) => {
                        let c = t.tick(faults.sense(cycles, last_current.amps()));
                        event_count = t.last_event().map(|e| e.count);
                        c
                    }
                    Controller::Sensor(s) =>
                        s.tick(Volts::new(faults.sense(cycles, last_noise.volts()))),
                    Controller::Damping(d) => {
                        let c = d.tick(&last_events);
                        if c.phantom.is_some() {
                            damping_bound += 1;
                        }
                        c
                    }
                }
            );
            let ev = staged!(sampling, cpu, cpu.tick(controls));
            let amps = staged!(
                sampling,
                power,
                faults.perturb_current(cycles, model.current_for(&ev).amps())
            );
            meter.record(Amps::new(amps));
            if sampling {
                if let Some(acc) = timers.as_deref_mut() {
                    acc.sampled_cycles += 1;
                }
            }
            currents.push(amps);
            if observe {
                pending.push(PendingCycle {
                    cycle: cycles,
                    current: amps,
                    event_count,
                    restricted: controls.is_restricted(),
                    events: ev,
                });
            }
            last_current = Amps::new(amps);
            last_events = ev;
            cycles += 1;
        }

        // Flush: one batched supply pass over the accumulated currents.
        // A batch flush is timed whole and its raw duration accumulated
        // undivided; report time scales the total down by SAMPLE_INTERVAL —
        // the batch analogue of timing every 64th cycle, without the
        // per-flush truncation that zeroes out short flushes. A one-cycle
        // flush (the sensor technique) is a per-cycle supply step, so it is
        // sampled like the reference loop's: timing every one of them would
        // cost more than the step itself.
        noises.clear();
        let per_cycle = flush_every == 1;
        let timed = timers.is_some()
            && (!per_cycle || base_cycle.is_multiple_of(PhaseTimings::SAMPLE_INTERVAL));
        let t0 = timed.then(Instant::now);
        let flushed = supply.try_tick_batch(&currents, &mut noises);
        if let (Some(t0), Some(acc)) = (t0, timers.as_deref_mut()) {
            if per_cycle {
                acc.supply += t0.elapsed();
            } else {
                acc.supply_flush += t0.elapsed();
            }
        }
        // On a failed step `noises` holds only the completed cycles, so the
        // zip stops at the failing one.
        if let Some(observer) = observer.as_mut() {
            for (p, &noise) in pending.iter().zip(&noises) {
                observer(&CycleRecord {
                    cycle: p.cycle,
                    current: Amps::new(p.current),
                    noise: Volts::new(noise),
                    event_count: p.event_count,
                    restricted: p.restricted,
                    events: p.events,
                });
            }
        }
        if let Err((k, e)) = flushed {
            std::panic::panic_any(FaultSignal::numerical(e, base_cycle + k as u64));
        }
        if let Some(&n) = noises.last() {
            last_noise = Volts::new(n);
        }
    }

    finish_run(
        profile,
        cycles,
        cpu.stats().committed,
        cpu.stats().ipc(),
        &supply,
        &meter,
        &controller,
        damping_bound,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TuningConfig;
    use crate::{DampingConfig, SensorConfig};
    use workloads::spec2k;

    fn paths_agree(technique: Technique) {
        let p = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(30_000);
        let fused = run_on_path(&p, &technique, &sim, EnginePath::Fused);
        let reference = run_on_path(&p, &technique, &sim, EnginePath::Reference);
        assert_eq!(fused, reference, "paths diverged for {}", technique.name());
    }

    #[test]
    fn fused_matches_reference_for_base() {
        paths_agree(Technique::Base);
    }

    #[test]
    fn fused_matches_reference_for_tuning() {
        paths_agree(Technique::Tuning(TuningConfig::isca04_table1(100)));
    }

    #[test]
    fn fused_matches_reference_for_sensor() {
        paths_agree(Technique::Sensor(SensorConfig::table4(20.0, 10.0, 5)));
    }

    #[test]
    fn fused_matches_reference_for_damping() {
        paths_agree(Technique::Damping(DampingConfig::isca04_table5(0.5)));
    }

    #[test]
    fn warmed_image_is_keyed_by_the_full_cpu_config() {
        // Two machines differing only in L2 geometry, alternated on one
        // thread: each fused run must match its own reference walk, so no
        // run may start from the other machine's memoized cache image.
        let p = spec2k::by_name("mcf").unwrap();
        let big = SimConfig::isca04(20_000);
        let mut small = big;
        small.cpu.l2 = cpusim::CacheConfig {
            size_bytes: 128 * 1024,
            ways: 4,
            ..big.cpu.l2
        };
        let mut fused = Vec::new();
        for sim in [&big, &small, &big, &small] {
            let got = run_on_path(&p, &Technique::Base, sim, EnginePath::Fused);
            let want = run_on_path(&p, &Technique::Base, sim, EnginePath::Reference);
            assert_eq!(got, want, "L2 of {} bytes", sim.cpu.l2.size_bytes);
            fused.push(got);
        }
        assert_ne!(fused[0], fused[1], "the L2 change must matter");
    }

    #[test]
    fn batch_size_defaults_and_parses() {
        use crate::testenv::with_env;
        // Positive integers are honored (clamped to the bound), everything
        // else warns once and falls back to the default — the same contract
        // as RESTUNE_WORKERS.
        let cases: [(Option<&str>, usize); 7] = [
            (None, DEFAULT_BATCH),
            (Some("7"), 7),
            (Some(" 512 "), 512),
            (Some("9999999999"), MAX_BATCH),
            (Some("0"), DEFAULT_BATCH),
            (Some("huge"), DEFAULT_BATCH),
            (Some("-1"), DEFAULT_BATCH),
        ];
        for (value, expected) in cases {
            let got = with_env(&[("RESTUNE_BATCH", value)], batch_size);
            assert_eq!(got, expected, "RESTUNE_BATCH={value:?}");
        }
    }
}
