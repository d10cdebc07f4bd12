//! In-process probes behind the repository benchmark (`perfbench/run.py`).
//!
//! Each subcommand prints one JSON object as its last line of output:
//!
//! * `setup` times the one-time set-up of a fresh process around its public
//!   calls: building the workload profiles, executing the RISC-V corpus, and
//!   the first shared-stream decode of every profile at the run budget;
//! * `oracle` re-simulates a seed-chosen sample of runs on the per-cycle
//!   reference loop ([`EnginePath::Reference`]), for comparison with what the
//!   harnesses printed or stored;
//! * `trace` is the traced replay behind the per-layer metrics. It calls the
//!   engine and every layer of the simulation chain through their public
//!   functions and times them from here: the program itself is not
//!   instrumented. Every timed call is kept as a span in memory and the
//!   spans are written out at the end.
//!
//! Per-layer times come from replaying each layer's *recorded inputs* in a
//! tight loop with one clock read per loop. Reading the clock around every
//! call instead would add about as much per cycle as the cheapest layers
//! cost; the cost of one such span is measured and reported beside them.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cpusim::{Cpu, CycleEvents, PipelineControls};
use powermodel::{EnergyMeter, PowerConfig, PowerModel};
use restune::engine::{base_key, corpus_base_key, load_baseline, save_baseline};
use restune::kernel::batch_size;
use restune::{
    run_key, run_on_path, sim_for, try_run_suite, DampingConfig, EnginePath, GridSpec,
    PipelineDamping, RelativeOutcome, ResonanceTuner, RunStore, SensorConfig, SimConfig, SimResult,
    Technique, TuningConfig, VoltageSensor,
};
use rlc::units::{Amps, Volts};
use rlc::PowerSupply;
use workloads::stream::warm_caches;
use workloads::{corpus, shared_stream, spec2k, WorkloadProfile};

/// Applications per traced suite whose layers are replayed. The kernel and
/// the engine still run every application of the suite.
const LAYER_SAMPLE: usize = 8;

/// Times each replayed run's kernel, traced chain and layers are measured;
/// the fastest of each is kept, since interference from other processes
/// only ever adds time.
const REPEATS: usize = 2;

/// Load-baseline repetitions; the median is reported.
const BASELINE_LOADS: usize = 15;

/// Upper bound on run-store put/get pairs per traced run: every put syncs
/// to disk, so the count bounds the traced run's time, not its accuracy.
const STORE_OPS: usize = 256;

const USAGE: &str = "\
usage: perfbench setup  --classes spec2k[,corpus] --instructions N
       perfbench oracle --workload repro|sweep --instructions N --seed S
                        [--grid KEY=VALUES]... [--store DIR]
       perfbench trace  --workload repro|sweep --instructions N --seed S
                        --seconds T --work DIR [--grid KEY=VALUES]...";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.command.as_str() {
        "setup" => cmd_setup(&args),
        "oracle" => cmd_oracle(&args),
        "trace" => cmd_trace(&args),
        other => Err(format!("unknown subcommand '{other}'")),
    };
    if let Err(message) = outcome {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Arguments, seeded choice, JSON output.

struct Args {
    command: String,
    options: BTreeMap<String, String>,
    grid: Vec<(String, String)>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let command = raw.next().ok_or("missing subcommand")?;
        let mut options = BTreeMap::new();
        let mut grid = Vec::new();
        while let Some(flag) = raw.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if key == "grid" {
                let (k, v) = value
                    .split_once('=')
                    .ok_or_else(|| format!("invalid --grid '{value}'"))?;
                grid.push((k.to_string(), v.to_string()));
            } else {
                options.insert(key.to_string(), value);
            }
        }
        Ok(Args {
            command,
            options,
            grid,
        })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key)?;
        raw.parse()
            .map_err(|_| format!("--{key}: '{raw}' is not a valid number"))
    }
}

/// SplitMix64: the benchmark's only source of seeded choices.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A JSON object written field by field; numbers use Rust's shortest
/// round-trip formatting so every digit survives.
#[derive(Default)]
struct Json(String);

impl Json {
    fn field(&mut self, key: &str, rendered: String) -> &mut Json {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "{}: {rendered}", quote(key));
        self
    }

    fn num(&mut self, key: &str, value: f64) -> &mut Json {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            String::from("null")
        };
        self.field(key, rendered)
    }

    fn int(&mut self, key: &str, value: u64) -> &mut Json {
        self.field(key, value.to_string())
    }

    fn text(&mut self, key: &str, value: &str) -> &mut Json {
        self.field(key, quote(value))
    }

    fn done(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn seconds(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

// ---------------------------------------------------------------------------
// The workloads' run lists.

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    Base,
    Tuning,
    Sensor,
    Damping,
}

impl Family {
    fn of(technique: &Technique) -> Family {
        match technique {
            Technique::Base => Family::Base,
            Technique::Tuning(_) => Family::Tuning,
            Technique::Sensor(_) => Family::Sensor,
            Technique::Damping(_) => Family::Damping,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Family::Base => "base",
            Family::Tuning => "tuning",
            Family::Sensor => "sensor",
            Family::Damping => "damping",
        }
    }
}

/// One technique configuration over one profile list on one machine — the
/// unit the engine's `try_run_suite` executes.
struct Suite {
    label: String,
    class: &'static str,
    technique: Technique,
    sim: SimConfig,
    profiles: Vec<WorkloadProfile>,
}

impl Suite {
    fn family(&self) -> Family {
        Family::of(&self.technique)
    }
}

/// Table 4's rows: (threshold mV, sensor noise mV, delay cycles), as the
/// `table4_sensor` harness runs them.
const SENSOR_ROWS: [(f64, f64, u32); 5] = [
    (30.0, 0.0, 0),
    (20.0, 0.0, 0),
    (30.0, 15.0, 0),
    (20.0, 10.0, 5),
    (20.0, 15.0, 3),
];

/// Every suite a pass of the workload runs. The repro list is the union of
/// the `table3_tuning`, `table4_sensor` and `table5_damping` design points
/// (labels as the harnesses print them); the sweep list is the `sweep`
/// bin's expansion of the same grid.
fn suites(args: &Args) -> Result<Vec<Suite>, String> {
    let instructions: u64 = args.number("instructions")?;
    match args.get("workload")? {
        "repro" => {
            let sim = SimConfig::isca04(instructions);
            let mut points = vec![(String::from("base"), Technique::Base)];
            for rt in [75, 100, 125, 150, 200] {
                points.push((
                    format!("tuning-{rt}"),
                    Technique::Tuning(TuningConfig::isca04_table1(rt)),
                ));
            }
            points.push((
                String::from("tuning-100-delay-5"),
                Technique::Tuning(TuningConfig::isca04_table1(100).with_response_delay(5)),
            ));
            for (threshold, noise, delay) in SENSOR_ROWS {
                let config = SensorConfig::table4(threshold, noise, delay);
                points.push((
                    format!(
                        "sensor-{:.0}mV-{:.0}mV-{}cy",
                        config.target_threshold.volts() * 1e3,
                        config.sensor_noise_pp.volts() * 1e3,
                        config.delay_cycles
                    ),
                    Technique::Sensor(config),
                ));
            }
            for delta in [1.0, 0.5, 0.25] {
                points.push((
                    format!("damping-{delta}"),
                    Technique::Damping(DampingConfig::isca04_table5(delta)),
                ));
            }
            Ok(points
                .into_iter()
                .map(|(label, technique)| Suite {
                    label,
                    class: "spec2k",
                    technique,
                    sim,
                    profiles: spec2k::all(),
                })
                .collect())
        }
        "sweep" => {
            let spec = GridSpec::parse(&args.grid, instructions)?;
            let mut suites = Vec::new();
            for class in &spec.workloads {
                for &pdn in &spec.pdn_scales {
                    let sim = sim_for(pdn, spec.instructions)?;
                    for (label, technique) in spec.technique_points() {
                        suites.push(Suite {
                            label: format!("{}/pdn={pdn}/{label}", class.name()),
                            class: class.name(),
                            technique,
                            sim,
                            profiles: class.profiles(),
                        });
                    }
                }
            }
            Ok(suites)
        }
        other => Err(format!(
            "unknown workload '{other}' (expected repro or sweep)"
        )),
    }
}

// ---------------------------------------------------------------------------
// setup

fn cmd_setup(args: &Args) -> Result<(), String> {
    let instructions: u64 = args.number("instructions")?;
    let classes: BTreeSet<&str> = args.get("classes")?.split(',').collect();
    let with_corpus = classes.contains("corpus");

    let t = Instant::now();
    let mut profiles = if classes.contains("spec2k") {
        spec2k::all()
    } else {
        Vec::new()
    };
    let spec2k_s = seconds(t.elapsed());

    // The corpus is assembled, executed and lowered once per process. It
    // is timed on every workload (it is a layer metric) but counts towards
    // set-up only where the workload runs corpus profiles.
    let time_corpus = || {
        let t = Instant::now();
        let all = corpus::all();
        for p in &all {
            black_box(corpus::trace(p.name));
        }
        (all, seconds(t.elapsed()))
    };
    let mut corpus_s = f64::NAN;
    if with_corpus {
        let (all, s) = time_corpus();
        profiles.extend(all);
        corpus_s = s;
    }

    let t = Instant::now();
    for p in &profiles {
        black_box(shared_stream(p, instructions));
    }
    let decode_s = seconds(t.elapsed());

    if !with_corpus {
        corpus_s = time_corpus().1;
    }
    let setup_s = spec2k_s + decode_s + if with_corpus { corpus_s } else { 0.0 };
    println!(
        "{}",
        Json::default()
            .num("setup_s", setup_s)
            .num("spec2k_s", spec2k_s)
            .num("corpus_s", corpus_s)
            .num("decode_s", decode_s)
            .int("decode_insts", profiles.len() as u64 * instructions)
            .done()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// oracle

fn cmd_oracle(args: &Args) -> Result<(), String> {
    let suites = suites(args)?;
    let seed: u64 = args.number("seed")?;
    let mut rng = Rng::new(seed, 1);
    let reference = |p: &WorkloadProfile, t: &Technique, sim: &SimConfig| {
        run_on_path(p, t, sim, EnginePath::Reference)
    };

    if args.get("workload")? == "repro" {
        // One technique run and its base run, compared by the caller with
        // the harness's outcome row for the same design point.
        let techniques: Vec<&Suite> = suites
            .iter()
            .filter(|s| s.family() != Family::Base)
            .collect();
        let suite = techniques[rng.below(techniques.len())];
        let p = &suite.profiles[rng.below(suite.profiles.len())];
        let base = reference(p, &Technique::Base, &suite.sim);
        let run = reference(p, &suite.technique, &suite.sim);
        let o = RelativeOutcome::new(&base, &run);
        println!(
            "{}",
            Json::default()
                .text("design_point", &suite.label)
                .text("app", p.name)
                .int("base_cycles", base.cycles)
                .int("base_violation_cycles", base.violation_cycles)
                .num("slowdown", o.slowdown)
                .num("relative_energy", o.relative_energy)
                .num("relative_energy_delay", o.relative_energy_delay)
                .int("violation_cycles", o.violation_cycles)
                .done()
        );
        return Ok(());
    }

    // Sweep: the pass's run store must hold exactly the reference result
    // for a seed-chosen base run and a seed-chosen technique run.
    let store = RunStore::open(PathBuf::from(args.get("store")?));
    let mut rows = Vec::new();
    for want_base in [true, false] {
        let pool: Vec<&Suite> = suites
            .iter()
            .filter(|s| (s.family() == Family::Base) == want_base)
            .collect();
        let suite = pool[rng.below(pool.len())];
        let p = &suite.profiles[rng.below(suite.profiles.len())];
        let expected = reference(p, &suite.technique, &suite.sim);
        let stored = store.get(&run_key(p, &suite.technique, &suite.sim));
        rows.push(
            Json::default()
                .text("suite", &suite.label)
                .text("app", p.name)
                .field("store_match", (stored == Some(expected)).to_string())
                .done(),
        );
    }
    println!(
        "{}",
        Json::default()
            .field("runs", format!("[{}]", rows.join(", ")))
            .done()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// trace: the replayed chain and its layers

/// What each layer consumed, per cycle, in the traced chain.
#[derive(Default)]
struct Recording {
    controls: Vec<PipelineControls>,
    events: Vec<CycleEvents>,
    amps: Vec<f64>,
    noises: Vec<f64>,
}

impl Recording {
    fn clear(&mut self) {
        self.controls.clear();
        self.events.clear();
        self.amps.clear();
        self.noises.clear();
    }
}

/// The noise controller of one technique, dispatched per cycle. One per
/// run, ticked every cycle: an enum rather than a boxed trait object, as in
/// the kernel, so the tick inlines.
#[allow(clippy::large_enum_variant)]
enum Controller {
    Base,
    Tuning(ResonanceTuner),
    Sensor(VoltageSensor),
    Damping(PipelineDamping, u64),
}

impl Controller {
    fn new(technique: &Technique) -> Controller {
        match technique {
            Technique::Base => Controller::Base,
            Technique::Tuning(c) => Controller::Tuning(ResonanceTuner::new(*c)),
            Technique::Sensor(c) => Controller::Sensor(VoltageSensor::new(*c)),
            Technique::Damping(c) => Controller::Damping(PipelineDamping::new(*c), 0),
        }
    }

    /// One cycle's decision from the previous cycle's current, supply
    /// noise, and pipeline events — each technique reads one of them.
    fn tick(&mut self, amps: f64, noise: f64, events: &CycleEvents) -> PipelineControls {
        match self {
            Controller::Base => PipelineControls::free(),
            Controller::Tuning(t) => t.tick(amps),
            Controller::Sensor(s) => s.tick(Volts::new(noise)),
            Controller::Damping(d, bound) => {
                let c = d.tick(events);
                if c.phantom.is_some() {
                    *bound += 1;
                }
                c
            }
        }
    }
}

/// The power configuration a technique runs with: tuning is charged its
/// detection hardware, as in the kernel.
fn power_config(technique: &Technique, sim: &SimConfig) -> PowerConfig {
    if matches!(technique, Technique::Tuning(_)) {
        PowerConfig {
            detector_overhead: Amps::new(0.3),
            ..sim.power
        }
    } else {
        sim.power
    }
}

/// Cycles per supply flush: the voltage-sensor technique reads the supply
/// every cycle, so it flushes every cycle.
fn flush_len(technique: &Technique) -> usize {
    if matches!(technique, Technique::Sensor(_)) {
        1
    } else {
        batch_size()
    }
}

/// The fused chain rebuilt from public calls — controller, `Cpu::tick`,
/// `current_for` and `record`, then `try_tick_batch` per flush — recording
/// what each layer consumed.
fn record_run(
    p: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    rec: &mut Recording,
) -> Result<SimResult, String> {
    rec.clear();
    let power_cfg = power_config(technique, sim);
    let mut cpu = Cpu::new(sim.cpu, shared_stream(p, sim.instructions));
    warm_caches(&mut cpu);
    let mut model = PowerModel::new(power_cfg, sim.cpu);
    let idle = power_cfg.idle_current;
    let mut supply = PowerSupply::new(sim.supply, sim.clock, idle);
    let mut meter = EnergyMeter::new(power_cfg.vdd, sim.clock);
    let mut controller = Controller::new(technique);
    let flush = flush_len(technique);

    let mut currents = Vec::with_capacity(flush);
    let mut noises = Vec::with_capacity(flush);
    let mut last_current = idle.amps();
    let mut last_noise = 0.0;
    let mut last_events = CycleEvents::default();
    let mut cycles = 0u64;
    let running = |cpu: &Cpu<_>, cycles: u64| {
        cpu.stats().committed < sim.instructions && cycles < sim.max_cycles
    };
    while running(&cpu, cycles) {
        currents.clear();
        while currents.len() < flush && running(&cpu, cycles) {
            let controls = controller.tick(last_current, last_noise, &last_events);
            let ev = cpu.tick(controls);
            let amps = model.current_for(&ev).amps();
            meter.record(Amps::new(amps));
            currents.push(amps);
            rec.controls.push(controls);
            rec.events.push(ev);
            rec.amps.push(amps);
            last_current = amps;
            last_events = ev;
            cycles += 1;
        }
        noises.clear();
        supply
            .try_tick_batch(&currents, &mut noises)
            .map_err(|(k, e)| format!("{}: supply failed at cycle {}: {e}", p.name, k))?;
        rec.noises.extend_from_slice(&noises);
        if let Some(&n) = noises.last() {
            last_noise = n;
        }
    }

    let (first, second) = match &controller {
        Controller::Tuning(t) => (t.stats().first_level_cycles, t.stats().second_level_cycles),
        _ => (0, 0),
    };
    Ok(SimResult {
        app: p.name,
        cycles,
        committed: cpu.stats().committed,
        ipc: cpu.stats().ipc(),
        violation_cycles: supply.violation_cycles(),
        worst_noise: supply.worst_noise(),
        energy_joules: meter.joules(),
        energy_delay: meter.energy_delay(),
        first_level_cycles: first,
        second_level_cycles: second,
        sensor_response_cycles: match &controller {
            Controller::Sensor(s) => s.response_cycles(),
            _ => 0,
        },
        damping_bound_cycles: match &controller {
            Controller::Damping(d, bound) => d.throttled_cycles() + bound,
            _ => 0,
        },
    })
}

/// Host time per layer, summed over the replayed runs of one technique
/// family.
#[derive(Default, Clone, Copy)]
struct Layers {
    runs: u64,
    cycles: u64,
    kernel: Duration,
    traced: Duration,
    setup: Duration,
    controller: Duration,
    cpu: Duration,
    power: Duration,
    meter: Duration,
    flush: Duration,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.runs += o.runs;
        self.cycles += o.cycles;
        self.kernel += o.kernel;
        self.traced += o.traced;
        self.setup += o.setup;
        self.controller += o.controller;
        self.cpu += o.cpu;
        self.power += o.power;
        self.meter += o.meter;
        self.flush += o.flush;
    }

    /// The faster of two timings of the same run, component by component.
    fn fastest(&self, o: &Layers) -> Layers {
        Layers {
            runs: self.runs,
            cycles: self.cycles,
            kernel: self.kernel.min(o.kernel),
            traced: self.traced.min(o.traced),
            setup: self.setup.min(o.setup),
            controller: self.controller.min(o.controller),
            cpu: self.cpu.min(o.cpu),
            power: self.power.min(o.power),
            meter: self.meter.min(o.meter),
            flush: self.flush.min(o.flush),
        }
    }

    fn per_cycle(&self, d: Duration) -> f64 {
        d.as_nanos() as f64 / self.cycles as f64
    }

    /// Every layer's time, set-up included, per simulated cycle.
    fn layers_ns(&self) -> f64 {
        self.per_cycle(
            self.setup + self.controller + self.cpu + self.power + self.meter + self.flush,
        )
    }
}

/// Replays every layer of one run on its recorded inputs, one tight loop
/// per layer, and checks that each reproduces the traced chain's state.
fn time_layers(
    suite: &Suite,
    p: &WorkloadProfile,
    rec: &Recording,
    traced: &SimResult,
    spans: &mut Spans,
    parent: usize,
    run: &str,
) -> Result<Layers, String> {
    let (technique, sim) = (&suite.technique, &suite.sim);
    let power_cfg = power_config(technique, sim);
    let idle = power_cfg.idle_current;
    let n = rec.amps.len();
    let mut acc = Layers {
        runs: 1,
        cycles: n as u64,
        ..Layers::default()
    };
    let mismatch = |layer: &str| format!("{layer} replay diverged from the traced chain for {run}");

    let span = spans.open("cpusim.setup", Some(parent), run);
    let mut cpu = Cpu::new(sim.cpu, shared_stream(p, sim.instructions));
    warm_caches(&mut cpu);
    acc.setup = spans.close(span);

    let span = spans.open("cpusim.tick", Some(parent), run);
    for &c in &rec.controls {
        black_box(cpu.tick(c));
    }
    acc.cpu = spans.close(span);
    if cpu.stats().committed != traced.committed || cpu.cycle() != traced.cycles {
        return Err(mismatch("cpu"));
    }

    // Each controller reads the previous cycle's value of one signal; the
    // first cycle reads the reset value.
    let span = spans.open("controller.tick", Some(parent), run);
    let last = n.saturating_sub(1);
    let controller_ok = match technique {
        Technique::Base => true,
        Technique::Tuning(c) => {
            let mut t = ResonanceTuner::new(*c);
            black_box(t.tick(idle.amps()));
            for &a in &rec.amps[..last] {
                black_box(t.tick(a));
            }
            t.stats().first_level_cycles == traced.first_level_cycles
                && t.stats().second_level_cycles == traced.second_level_cycles
        }
        Technique::Sensor(c) => {
            let mut s = VoltageSensor::new(*c);
            black_box(s.tick(Volts::new(0.0)));
            for &v in &rec.noises[..last] {
                black_box(s.tick(Volts::new(v)));
            }
            s.response_cycles() == traced.sensor_response_cycles
        }
        Technique::Damping(c) => {
            let mut d = PipelineDamping::new(*c);
            let mut bound = u64::from(d.tick(&CycleEvents::default()).phantom.is_some());
            for ev in &rec.events[..last] {
                bound += u64::from(d.tick(ev).phantom.is_some());
            }
            d.throttled_cycles() + bound == traced.damping_bound_cycles
        }
    };
    acc.controller = spans.close(span);
    if !controller_ok {
        return Err(mismatch("controller"));
    }

    let mut model = PowerModel::new(power_cfg, sim.cpu);
    let span = spans.open("powermodel.current_for", Some(parent), run);
    let mut same = true;
    for (ev, &a) in rec.events.iter().zip(&rec.amps) {
        same &= model.current_for(ev).amps().to_bits() == a.to_bits();
    }
    acc.power = spans.close(span);
    if !same {
        return Err(mismatch("power model"));
    }

    let mut meter = EnergyMeter::new(power_cfg.vdd, sim.clock);
    let span = spans.open("powermodel.record", Some(parent), run);
    for &a in &rec.amps {
        meter.record(Amps::new(a));
    }
    acc.meter = spans.close(span);
    if meter.joules().to_bits() != traced.energy_joules.to_bits() {
        return Err(mismatch("energy meter"));
    }

    let mut supply = PowerSupply::new(sim.supply, sim.clock, idle);
    let mut noises = Vec::with_capacity(flush_len(technique));
    let span = spans.open("rlc.try_tick_batch", Some(parent), run);
    for chunk in rec.amps.chunks(flush_len(technique)) {
        noises.clear();
        supply
            .try_tick_batch(chunk, &mut noises)
            .map_err(|(k, e)| format!("{run}: supply failed at {k}: {e}"))?;
    }
    acc.flush = spans.close(span);
    if supply.violation_cycles() != traced.violation_cycles
        || supply.worst_noise() != traced.worst_noise
    {
        return Err(mismatch("supply"));
    }
    Ok(acc)
}

// ---------------------------------------------------------------------------
// trace: spans

struct Span {
    name: &'static str,
    parent: Option<usize>,
    run: String,
    start: Duration,
    end: Duration,
}

/// Spans kept in memory for the whole traced run and written at the end.
struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, run: &str) -> usize {
        let start = self.origin.elapsed();
        self.list.push(Span {
            name,
            parent,
            run: run.to_string(),
            start,
            end: start,
        });
        self.list.len() - 1
    }

    /// Ends span `id` and returns its duration.
    fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.list[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.list.iter().enumerate() {
            let mut line = Json::default();
            line.int("id", id as u64)
                .text("name", s.name)
                .field(
                    "parent",
                    s.parent.map_or(String::from("null"), |p| p.to_string()),
                )
                .text("run", &s.run)
                .int("start_ns", s.start.as_nanos() as u64)
                .int("end_ns", s.end.as_nanos() as u64);
            out.push_str(&line.done());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// The cost of one open/close span pair around an empty body.
fn calibrate_span_ns() -> f64 {
    const N: usize = 20_000;
    let mut spans = Spans::new();
    let t = Instant::now();
    for _ in 0..N {
        let id = spans.open("calibrate", None, "");
        black_box(spans.close(id));
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

/// The engine's worker-pool width: `RESTUNE_WORKERS` when it is a positive
/// integer, otherwise the machine's parallelism, never more than `jobs`.
fn worker_count(jobs: usize) -> usize {
    let configured = std::env::var("RESTUNE_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    configured
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(jobs)
        .max(1)
}

/// Suites in replay order: shuffled by seed within each technique family,
/// then interleaved across families so any prefix covers every family.
fn schedule(suites: &[Suite], seed: u64) -> Vec<usize> {
    let mut by_family: BTreeMap<Family, Vec<usize>> = BTreeMap::new();
    for (i, s) in suites.iter().enumerate() {
        by_family.entry(s.family()).or_default().push(i);
    }
    let mut rng = Rng::new(seed, 2);
    for list in by_family.values_mut() {
        rng.shuffle(list);
    }
    let longest = by_family.values().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|round| {
            by_family
                .values()
                .filter_map(move |list| list.get(round).copied())
                .collect::<Vec<_>>()
        })
        .collect()
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let suites = suites(args)?;
    let seed: u64 = args.number("seed")?;
    let budget = Duration::from_secs_f64(args.number("seconds")?);
    let work = PathBuf::from(args.get("work")?);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let span_ns = calibrate_span_ns();
    let mut spans = Spans::new();
    let clock = Instant::now();
    let families: BTreeSet<Family> = suites.iter().map(Suite::family).collect();
    let mut covered = BTreeSet::new();
    let mut layers: BTreeMap<Family, Layers> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut rec = Recording::default();

    let mut pool_serial = Duration::ZERO;
    let mut pool_capacity = Duration::ZERO;
    let mut tails = Vec::new();
    let mut kernel_runs = 0u64;
    // (suite, app, result) of every run the engine executed.
    let mut results: Vec<(usize, usize, SimResult)> = Vec::new();
    let mut replayed: Vec<(usize, usize)> = Vec::new();

    for si in schedule(&suites, seed) {
        if covered == families && clock.elapsed() >= budget {
            break;
        }
        let s = &suites[si];
        let suite_span = spans.open("suite", None, &s.label);

        let span = spans.open("engine.try_run_suite", Some(suite_span), &s.label);
        let engine = try_run_suite(&s.profiles, &s.technique, &s.sim)
            .map_err(|e| format!("{}: {e}", s.label))?;
        let wall = spans.close(span);

        // Every run again, alone and untraced: the pool's serial work, and
        // the oracle for the replay.
        let mut serial = Duration::ZERO;
        for (i, p) in s.profiles.iter().enumerate() {
            let run = format!("{}/{}", s.label, p.name);
            let span = spans.open("kernel.run_on_path", Some(suite_span), &run);
            let r = run_on_path(p, &s.technique, &s.sim, EnginePath::Fused);
            let dt = spans.close(span);
            serial += dt;
            if r != engine.results[i] {
                failures.push(format!(
                    "try_run_suite and run_on_path(Fused) differ on {run}"
                ));
            }
            results.push((si, i, r));
        }
        kernel_runs += s.profiles.len() as u64;
        let workers = worker_count(s.profiles.len());
        pool_serial += serial;
        pool_capacity += wall * workers as u32;
        tails.push(seconds(wall) - seconds(serial) / workers as f64);

        let mut sample: Vec<usize> = (0..s.profiles.len()).collect();
        Rng::new(seed, 3 + si as u64).shuffle(&mut sample);
        sample.truncate(LAYER_SAMPLE);
        sample.sort_unstable();
        for i in sample {
            let p = &s.profiles[i];
            let run = format!("{}/{}", s.label, p.name);
            let run_span = spans.open("run", Some(suite_span), &run);
            let expected = engine.results[i];
            let mut best: Option<Layers> = None;
            for _ in 0..REPEATS {
                let span = spans.open("kernel.run_on_path", Some(run_span), &run);
                let again = run_on_path(p, &s.technique, &s.sim, EnginePath::Fused);
                let kernel_time = spans.close(span);
                let span = spans.open("replay.traced", Some(run_span), &run);
                let traced = record_run(p, &s.technique, &s.sim, &mut rec)?;
                let traced_time = spans.close(span);
                if traced != expected || again != expected {
                    failures.push(format!(
                        "traced replay differs from run_on_path(Fused) on {run}"
                    ));
                    break;
                }
                match time_layers(s, p, &rec, &traced, &mut spans, run_span, &run) {
                    Ok(mut l) => {
                        l.kernel = kernel_time;
                        l.traced = traced_time;
                        best = Some(best.map_or(l, |b| b.fastest(&l)));
                    }
                    Err(message) => {
                        failures.push(message);
                        break;
                    }
                }
            }
            if let Some(l) = best {
                layers.entry(s.family()).or_default().add(&l);
            }
            spans.close(run_span);
            replayed.push((si, i));
        }
        spans.close(suite_span);
        covered.insert(s.family());
    }
    let replay_s = seconds(clock.elapsed());

    // The reference loop on one seed-chosen replayed run per family.
    let mut rng = Rng::new(seed, 4);
    let mut reference_runs = 0u64;
    for family in &covered {
        let pool: Vec<&(usize, usize)> = replayed
            .iter()
            .filter(|(si, _)| suites[*si].family() == *family)
            .collect();
        let &&(si, i) = &pool[rng.below(pool.len())];
        let (s, p) = (&suites[si], &suites[si].profiles[i]);
        let run = format!("{}/{}", s.label, p.name);
        let span = spans.open("kernel.reference", None, &run);
        let r = run_on_path(p, &s.technique, &s.sim, EnginePath::Reference);
        spans.close(span);
        let fused = results
            .iter()
            .find(|(a, b, _)| (*a, *b) == (si, i))
            .map(|(_, _, r)| *r);
        if fused != Some(r) {
            failures.push(format!("run_on_path Reference and Fused differ on {run}"));
        }
        reference_runs += 1;
    }

    // The run store: one put and one get per engine result.
    let store = RunStore::open(work.join("store"));
    let (mut puts, mut gets) = (Vec::new(), Vec::new());
    for &(si, i, r) in results.iter().take(STORE_OPS) {
        let s = &suites[si];
        let run = format!("{}/{}", s.label, s.profiles[i].name);
        let key = run_key(&s.profiles[i], &s.technique, &s.sim);
        let span = spans.open("store.put", None, &run);
        store
            .put(&key, &r)
            .map_err(|e| format!("store put {run}: {e}"))?;
        puts.push(seconds(spans.close(span)) * 1e6);
        let span = spans.open("store.get", None, &run);
        let got = store.get(&key);
        gets.push(seconds(spans.close(span)) * 1e6);
        if got != Some(r) {
            failures.push(format!("RunStore get after put differs on {run}"));
        }
    }

    // The recorded baseline of the first base suite the engine ran.
    let mut baseline_ms = Vec::new();
    if let Some(&(si, _, _)) = results
        .iter()
        .find(|(si, _, _)| suites[*si].family() == Family::Base)
    {
        let s = &suites[si];
        let rows: Vec<SimResult> = results
            .iter()
            .filter(|(a, _, _)| *a == si)
            .map(|(_, _, r)| *r)
            .collect();
        let key = if s.class == "corpus" {
            corpus_base_key(&s.sim)
        } else {
            base_key(&s.sim)
        };
        let path = work.join("baseline.tsv");
        save_baseline(&path, &key, &rows).map_err(|e| format!("save baseline: {e}"))?;
        for _ in 0..BASELINE_LOADS {
            let span = spans.open("engine.load_baseline", None, &s.label);
            let loaded = load_baseline(&path, &key);
            baseline_ms.push(seconds(spans.close(span)) * 1e3);
            if !matches!(&loaded, Ok(Some(l)) if *l == rows) {
                failures.push(format!(
                    "load_baseline differs from the saved rows of {}",
                    s.label
                ));
                break;
            }
        }
    }

    if let Some(path) = args.options.get("spans") {
        spans
            .write(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
    }

    // Per-layer metrics, pooled over the families that use each layer.
    let mut all = Layers::default();
    for l in layers.values() {
        all.add(l);
    }
    let family = |f: Family| layers.get(&f).copied().unwrap_or_default();
    let mut batched = Layers::default();
    for (f, l) in &layers {
        if *f != Family::Sensor {
            batched.add(l);
        }
    }
    let mut metrics = Json::default();
    metrics
        .num(
            "cpusim.setup_us_per_run",
            seconds(all.setup) * 1e6 / all.runs as f64,
        )
        .num("cpusim.tick_ns_per_cycle", all.per_cycle(all.cpu))
        .num(
            "response.tick_ns_per_cycle",
            family(Family::Tuning).per_cycle(family(Family::Tuning).controller),
        )
        .num(
            "baselines.sensor_tick_ns_per_cycle",
            family(Family::Sensor).per_cycle(family(Family::Sensor).controller),
        )
        .num(
            "baselines.damping_tick_ns_per_cycle",
            family(Family::Damping).per_cycle(family(Family::Damping).controller),
        )
        .num("powermodel.current_ns_per_cycle", all.per_cycle(all.power))
        .num("powermodel.meter_ns_per_cycle", all.per_cycle(all.meter))
        .num("rlc.flush_ns_per_cycle", batched.per_cycle(batched.flush))
        .num(
            "rlc.flush1_ns_per_cycle",
            family(Family::Sensor).per_cycle(family(Family::Sensor).flush),
        );
    for (f, l) in &layers {
        metrics
            .num(
                &format!("kernel.ns_per_cycle.{}", f.name()),
                l.per_cycle(l.kernel),
            )
            .num(
                &format!("kernel.glue_ns_per_cycle.{}", f.name()),
                l.per_cycle(l.kernel) - l.layers_ns(),
            );
    }
    metrics
        .num(
            "engine.pool_busy_frac",
            seconds(pool_serial) / seconds(pool_capacity),
        )
        .num(
            "engine.tail_s",
            tails.iter().sum::<f64>() / tails.len() as f64,
        )
        .num("engine.baseline_load_ms", median(&baseline_ms))
        .num("sweep.store_get_us", median(&gets))
        .num("sweep.store_put_us", median(&puts))
        .num(
            "trace.overhead_frac",
            (seconds(all.traced) - seconds(all.kernel)) / seconds(all.kernel),
        )
        .num("trace.span_ns", span_ns);

    let mut closure = Vec::new();
    for (f, l) in &layers {
        closure.push(
            Json::default()
                .text("technique", f.name())
                .int("runs", l.runs)
                .int("cycles", l.cycles)
                .num("kernel_ns", l.per_cycle(l.kernel))
                .num("layers_ns", l.layers_ns())
                .num("setup_ns", l.per_cycle(l.setup))
                .num("controller_ns", l.per_cycle(l.controller))
                .num("cpu_ns", l.per_cycle(l.cpu))
                .num("power_ns", l.per_cycle(l.power))
                .num("meter_ns", l.per_cycle(l.meter))
                .num("flush_ns", l.per_cycle(l.flush))
                .num("traced_ns", l.per_cycle(l.traced))
                .done(),
        );
    }
    let failures: Vec<String> = failures.iter().map(|f| quote(f)).collect();
    println!(
        "{}",
        Json::default()
            .int("suites", suites.len() as u64)
            .int("suites_traced", tails.len() as u64)
            .int("kernel_runs", kernel_runs)
            .int("runs_replayed", replayed.len() as u64)
            .int("reference_runs", reference_runs)
            .int("store_ops", puts.len() as u64)
            .num("replay_s", replay_s)
            .field("failures", format!("[{}]", failures.join(", ")))
            .field("closure", format!("[{}]", closure.join(", ")))
            .field("metrics", format!("{{{}}}", metrics.0))
            .done()
    );
    Ok(())
}
