//! Property-based tests (proptest) on the core invariants of the circuit,
//! the detector, the metrics, and the fused simulation kernel.

use proptest::prelude::*;
use restune::{
    run, run_on_path, run_with_batch, DampingConfig, EnginePath, EventDetector, SensorConfig,
    SimConfig, Technique, TuningConfig,
};
use rlc::units::{Amps, Cycles, Farads, Henries, Hertz, Ohms, Volts};
use rlc::{impedance_at, simulate_waveform, PeriodicWave, PowerSupply, SupplyParams};

const GHZ10: Hertz = Hertz::new(10e9);

fn table1() -> SupplyParams {
    SupplyParams::isca04_table1()
}

proptest! {
    /// A constant current never produces noise, whatever its level.
    #[test]
    fn constant_current_is_silent(level in 0.0..200.0f64) {
        let wave = rlc::Constant::new(Amps::new(level));
        let trace = simulate_waveform(&table1(), GHZ10, &wave, Cycles::new(500));
        prop_assert!(trace.worst_noise.abs().volts() < 1e-9);
    }

    /// Doubling the excitation amplitude doubles the response (linearity of
    /// the RLC network).
    #[test]
    fn supply_response_is_linear(p2p in 1.0..30.0f64, period in 30u64..200) {
        let a = simulate_waveform(
            &table1(), GHZ10,
            &PeriodicWave::sustained_square(Amps::new(70.0), Amps::new(p2p), Cycles::new(period)),
            Cycles::new(1_000),
        );
        let b = simulate_waveform(
            &table1(), GHZ10,
            &PeriodicWave::sustained_square(Amps::new(70.0), Amps::new(2.0 * p2p), Cycles::new(period)),
            Cycles::new(1_000),
        );
        let ratio = b.worst_noise.abs().volts() / a.worst_noise.abs().volts().max(1e-12);
        prop_assert!((ratio - 2.0).abs() < 0.02, "ratio {}", ratio);
    }

    /// The impedance magnitude never exceeds the resonant peak by more than
    /// sweep tolerance, anywhere in frequency.
    #[test]
    fn impedance_peaks_at_resonance(mhz in 1.0..1000.0f64) {
        let p = table1();
        let z = impedance_at(&p, Hertz::from_mega(mhz)).magnitude();
        let z_peak = impedance_at(&p, p.resonant_frequency()).magnitude();
        prop_assert!(z <= z_peak * 1.001, "|Z({mhz} MHz)| = {z} > peak {z_peak}");
    }

    /// Any underdamped supply's resonance band straddles its resonant
    /// frequency, with the geometric mean equal to it.
    #[test]
    fn band_straddles_resonance(
        r_micro in 100.0..5_000.0f64,
        l_pico in 0.5..50.0f64,
        c_nano in 100.0..10_000.0f64,
    ) {
        let params = SupplyParams::new(
            Ohms::from_micro(r_micro),
            Henries::from_pico(l_pico),
            Farads::from_nano(c_nano),
            Volts::new(1.0),
            Volts::new(0.05),
        );
        prop_assume!(params.is_ok());
        let p = params.unwrap();
        let f0 = p.resonant_frequency().hertz();
        let (lo, hi) = p.resonance_band();
        prop_assert!(lo.hertz() < f0 && f0 < hi.hertz());
        let gm = (lo.hertz() * hi.hertz()).sqrt();
        prop_assert!((gm - f0).abs() / f0 < 1e-9);
    }

    /// Sub-threshold current waveforms never raise detector events, for any
    /// period and any small amplitude (square-wave detection threshold is
    /// M/2 = 16 A).
    #[test]
    fn detector_ignores_small_variations(
        p2p in 0.0..13.0f64,
        period in 20u64..300,
        mid in 40.0..90.0f64,
    ) {
        let mut det = EventDetector::new(TuningConfig::isca04_table1(100));
        let mut fired = 0u32;
        for c in 0..2_000u64 {
            let i = if (c / (period / 2).max(1)) % 2 == 0 { mid + p2p / 2.0 } else { mid - p2p / 2.0 };
            if det.observe(i.round() as i64).is_some() {
                fired += 1;
            }
        }
        prop_assert_eq!(fired, 0, "sub-threshold wave must not register");
    }

    /// The detector's event count never exceeds its configured cap and is
    /// always at least 1 on a reported event.
    #[test]
    fn event_counts_are_bounded(seed in 0u64..1_000) {
        let cfg = TuningConfig::isca04_table1(100);
        let mut det = EventDetector::new(cfg);
        // A deterministic pseudo-random large-swing waveform.
        let mut x = seed;
        for _ in 0..3_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = 35 + (x >> 60) as i64 * 10; // steps of 10 A in [35, 105]
            if let Some(ev) = det.observe(i) {
                prop_assert!(ev.count >= 1);
                prop_assert!(ev.count <= cfg.max_repetition_tolerance + 4);
            }
        }
    }

    /// Waveform samples always stay within the baseline ± half the
    /// peak-to-peak amplitude.
    #[test]
    fn periodic_wave_is_bounded(
        p2p in 0.0..100.0f64,
        period in 1u64..500,
        baseline in 0.0..100.0f64,
        cycle in 0u64..100_000,
    ) {
        let wave = PeriodicWave::sustained_square(
            Amps::new(baseline),
            Amps::new(p2p),
            Cycles::new(period),
        );
        let i = rlc::Waveform::current_at(&wave, Cycles::new(cycle)).amps();
        prop_assert!(i >= baseline - p2p / 2.0 - 1e-12);
        prop_assert!(i <= baseline + p2p / 2.0 + 1e-12);
    }

    /// Relative-outcome arithmetic: energy-delay is exactly energy ×
    /// slowdown, and all quantities are positive.
    #[test]
    fn relative_outcome_identities(
        base_cycles in 1_000u64..1_000_000,
        extra in 0u64..100_000,
        base_joules in 0.001..10.0f64,
        extra_joules in 0.0..1.0f64,
    ) {
        use restune::RelativeOutcome;
        let mk = |cycles: u64, joules: f64| restune::SimResult {
            app: "p",
            cycles,
            committed: 1_000,
            ipc: 1.0,
            violation_cycles: 0,
            worst_noise: Volts::new(0.0),
            energy_joules: joules,
            energy_delay: 0.0,
            first_level_cycles: 0,
            second_level_cycles: 0,
            sensor_response_cycles: 0,
            damping_bound_cycles: 0,
        };
        let base = mk(base_cycles, base_joules);
        let tech = mk(base_cycles + extra, base_joules + extra_joules);
        let o = RelativeOutcome::new(&base, &tech);
        prop_assert!(o.slowdown >= 1.0);
        prop_assert!(o.relative_energy >= 1.0 - 1e-12);
        prop_assert!(
            (o.relative_energy_delay - o.slowdown * o.relative_energy).abs() < 1e-9
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any in-band period and super-threshold amplitude, sustained
    /// excitation is detected and chains to at least the second-level
    /// threshold — the guarantee the response relies on.
    #[test]
    fn detector_always_catches_sustained_resonance(
        period in 88u64..116,
        p2p in 36.0..44.0f64,
    ) {
        let mut det = EventDetector::new(TuningConfig::isca04_table1(100));
        let mut max_count = 0;
        for c in 0..4_000u64 {
            let i = if (c / (period / 2)) % 2 == 0 { 70.0 + p2p / 2.0 } else { 70.0 - p2p / 2.0 };
            if let Some(ev) = det.observe(i.round() as i64) {
                max_count = max_count.max(ev.count);
            }
        }
        prop_assert!(
            max_count >= 3,
            "period {period}, {p2p:.0} A: max count {max_count} below second-level threshold"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched supply stepping is bit-exact with per-cycle stepping for any
    /// current sequence and any chunking — the contract the fused kernel's
    /// deferred flushes rest on.
    #[test]
    fn batched_supply_stepping_is_bit_exact(
        currents in prop::collection::vec(0.0..150.0f64, 1..400),
        chunk in 1usize..64,
    ) {
        let params = table1();
        let idle = Amps::new(20.0);
        let mut serial = PowerSupply::new(params, GHZ10, idle);
        let mut batched = PowerSupply::new(params, GHZ10, idle);

        let mut serial_noise = Vec::with_capacity(currents.len());
        for &amps in &currents {
            let out = serial.try_tick(Amps::new(amps)).expect("bounded currents step");
            serial_noise.push(out.noise.volts());
        }
        let mut batched_noise = Vec::new();
        for c in currents.chunks(chunk) {
            let mut out = Vec::new();
            batched.try_tick_batch(c, &mut out).expect("bounded currents step");
            batched_noise.extend(out);
        }

        prop_assert_eq!(serial_noise.len(), batched_noise.len());
        for (k, (a, b)) in serial_noise.iter().zip(&batched_noise).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "noise diverged at cycle {}", k);
        }
        prop_assert_eq!(serial.state().v.to_bits(), batched.state().v.to_bits());
        prop_assert_eq!(serial.state().i_l.to_bits(), batched.state().i_l.to_bits());
        prop_assert_eq!(serial.violation_cycles(), batched.violation_cycles());
        prop_assert_eq!(
            serial.worst_noise().volts().to_bits(),
            batched.worst_noise().volts().to_bits()
        );
        prop_assert_eq!(serial.cycles(), batched.cycles());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The kernel's flush batch length is pure scheduling: for any batch
    /// size, every field of the outcome — detector events included — is
    /// bit-identical to batch-of-one execution.
    #[test]
    fn kernel_results_are_batch_size_invariant(batch in 1usize..2_048) {
        use std::sync::OnceLock;
        static BASELINE: OnceLock<(restune::SimResult, u64)> = OnceLock::new();

        let profile = workloads::spec2k::by_name("swim").expect("swim is in the suite");
        let sim = SimConfig::isca04(6_000);
        let technique = Technique::Tuning(TuningConfig::isca04_table1(100));
        let baseline =
            BASELINE.get_or_init(|| run_with_batch(&profile, &technique, &sim, 1));

        let (result, events) = run_with_batch(&profile, &technique, &sim, batch);
        prop_assert_eq!(&result, &baseline.0, "results diverged at batch {}", batch);
        prop_assert_eq!(events, baseline.1, "detector events diverged at batch {}", batch);
    }

    /// An inert fault plan is bit-exact-neutral through the kernel path:
    /// supervised execution with `FaultPlan::none()`'s (empty) spec list
    /// reproduces the plain run exactly, for any tuning design point.
    #[test]
    fn inert_fault_plan_is_neutral_through_the_kernel(initial_response in 75u32..200) {
        let profile = workloads::spec2k::by_name("art").expect("art is in the suite");
        let sim = SimConfig::isca04(6_000);
        let technique = Technique::Tuning(TuningConfig::isca04_table1(initial_response));

        let specs = restune::FaultPlan::none().faults_for(profile.name, 0);
        prop_assert!(specs.is_empty(), "FaultPlan::none() must schedule nothing");
        let supervised = restune::run_supervised(&profile, &technique, &sim, &specs, None);
        let plain = run(&profile, &technique, &sim);
        prop_assert_eq!(supervised.result, plain);
    }
}

/// Strategy for arbitrary straight-line RV32IM instructions: ALU
/// register/immediate ops over arbitrary registers. Straight-line code
/// retires in static order, which keeps the def-use oracle below exact.
fn arb_alu_inst() -> impl Strategy<Value = cpusim::riscv::Inst> {
    use cpusim::riscv::{Inst, Op};
    const OPS: [Op; 10] = [
        Op::Add,
        Op::Sub,
        Op::Xor,
        Op::And,
        Op::Or,
        Op::Mul,
        Op::Div,
        Op::Sltu,
        Op::Addi,
        Op::Xori,
    ];
    (0usize..OPS.len(), 0u8..32, 0u8..32, 0u8..32, -2048i32..2048).prop_map(
        |(o, rd, rs1, rs2, imm)| {
            let op = OPS[o];
            if op.is_r_type() {
                Inst::r(op, rd, rs1, rs2)
            } else {
                Inst::i(op, rd, rs1, imm)
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any straight-line program, every lowered dependence distance
    /// either is 0 (no register dependence) or points exactly at the
    /// dynamic instruction that architecturally produced the operand —
    /// never negative, zero-length, or at a non-writer.
    #[test]
    fn lowered_distances_point_at_the_true_producer(
        body in prop::collection::vec(arb_alu_inst(), 1..200),
    ) {
        use cpusim::riscv::{lower, Inst, Op, Program};

        let mut insts = body;
        insts.push(Inst::r(Op::Ecall, 0, 0, 0));
        let program = Program::from_insts(&insts);
        let trace = lower(&program, 10_000).expect("straight-line programs halt");
        prop_assert_eq!(trace.insts.len(), insts.len());

        // Independent def-use oracle: 1-based dynamic index of each
        // register's most recent writer (0 = never written).
        let mut last_writer = [0u64; 32];
        for (k, (inst, syn)) in insts.iter().zip(&trace.insts).enumerate() {
            let idx = k as u64 + 1;
            for (reads, reg, dist) in [
                (inst.op.reads_rs1(), inst.rs1, syn.src1_dist),
                (inst.op.reads_rs2(), inst.rs2, syn.src2_dist),
            ] {
                let expect = if reads && reg != 0 && last_writer[reg as usize] != 0 {
                    (idx - last_writer[reg as usize]) as u32
                } else {
                    0
                };
                prop_assert_eq!(dist, expect, "inst {} ({:?})", k, inst.op);
                if dist > 0 {
                    let producer = &insts[k - dist as usize];
                    prop_assert!(
                        producer.op.writes_rd() && producer.rd == reg,
                        "inst {} dist {} lands on {:?}, not a writer of x{}",
                        k, dist, producer.op, reg
                    );
                }
            }
            if inst.op.writes_rd() && inst.rd != 0 {
                last_writer[inst.rd as usize] = idx;
            }
        }
    }
}

/// The same producer invariant over the real corpus programs — loops,
/// branches, and memory traffic included. Ground truth comes from an
/// independent architectural replay (`Machine::step`), not from the
/// lowering layer under test.
#[test]
fn corpus_trace_distances_match_an_independent_replay() {
    use cpusim::riscv::{assemble, Machine};

    for profile in workloads::corpus::all() {
        let src = workloads::corpus::source(profile.name).expect("corpus app has source");
        let program = assemble(src).expect("corpus app assembles");
        let trace = workloads::corpus::trace(profile.name).expect("corpus app has a trace");

        let mut m = Machine::new(&program).expect("corpus app decodes");
        let mut last_writer = [0u64; 32];
        // Per retired instruction: whether it wrote a register, and which.
        let mut writers: Vec<(bool, u8)> = Vec::new();
        let mut idx = 0u64;
        while !m.halted() {
            let r = m.step().expect("corpus app executes").expect("not halted");
            let syn = &trace.insts[idx as usize];
            idx += 1;
            let op = r.inst.op;
            for (reads, reg, dist) in [
                (op.reads_rs1(), r.inst.rs1, syn.src1_dist),
                (op.reads_rs2(), r.inst.rs2, syn.src2_dist),
            ] {
                let expect = if reads && reg != 0 && last_writer[reg as usize] != 0 {
                    (idx - last_writer[reg as usize]) as u32
                } else {
                    0
                };
                assert_eq!(
                    dist, expect,
                    "{}: dyn inst {idx} ({op:?}) x{reg}",
                    profile.name
                );
                if dist > 0 {
                    let (wrote, rd) = writers[(idx - 1 - dist as u64) as usize];
                    assert!(
                        wrote && rd == reg,
                        "{}: dyn inst {idx} dist {dist} does not land on the producer of x{reg}",
                        profile.name
                    );
                }
            }
            let writes = op.writes_rd() && r.inst.rd != 0;
            writers.push((writes, r.inst.rd));
            if writes {
                last_writer[r.inst.rd as usize] = idx;
            }
        }
        assert_eq!(idx, trace.summary.dyn_insts, "{}", profile.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Corpus-driven runs are pure replay through every engine: for any
    /// technique, the reference per-cycle loop and the fused kernel retire
    /// bit-identical results. Running several apps in a row on one thread
    /// also checks that the fused kernel's memoized warm cache image carries
    /// nothing from one run into the next.
    #[test]
    fn corpus_runs_are_engine_path_invariant(tech_idx in 0usize..4) {
        use std::sync::OnceLock;
        static BASELINES: OnceLock<Vec<Vec<restune::SimResult>>> = OnceLock::new();

        let sim = SimConfig::isca04(6_000);
        let techniques = [
            Technique::Base,
            Technique::Tuning(TuningConfig::isca04_table1(100)),
            Technique::Sensor(SensorConfig::table4(20.0, 15.0, 3)),
            Technique::Damping(DampingConfig::isca04_table5(0.25)),
        ];
        let profiles: Vec<_> = ["hazards", "quicksort", "resonance"]
            .iter()
            .map(|n| workloads::corpus::by_name(n).expect("app is in the corpus"))
            .collect();

        let baselines = BASELINES.get_or_init(|| {
            techniques
                .iter()
                .map(|t| {
                    profiles
                        .iter()
                        .map(|p| run_on_path(p, t, &sim, EnginePath::Reference))
                        .collect()
                })
                .collect()
        });

        for (p, want) in profiles.iter().zip(&baselines[tech_idx]) {
            let fused = run_on_path(p, &techniques[tech_idx], &sim, EnginePath::Fused);
            prop_assert_eq!(
                &fused, want,
                "fused diverged from reference for {} under {}",
                p.name, techniques[tech_idx].name()
            );
        }
    }
}
