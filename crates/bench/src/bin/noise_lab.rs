//! `noise-lab` — the umbrella command-line interface over the whole
//! library: supply analysis, calibration, guarantee analysis, single runs,
//! and the paper's table sweeps, with optional CSV/JSON output.
//!
//! ```console
//! $ cargo run --release -p bench --bin noise_lab -- help
//! $ cargo run --release -p bench --bin noise_lab -- calibrate
//! $ cargo run --release -p bench --bin noise_lab -- run --app swim --technique tuning
//! $ cargo run --release -p bench --bin noise_lab -- classify -n 60000 --out table2.csv
//! $ cargo run --release -p bench --bin noise_lab -- table3 --out table3.json
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::format_table;
use bench::report::Report;
use restune::experiment::{
    base_suite_supervised, table2_from_supervised, table3_supervised, table4_supervised,
    table5_supervised,
};
use restune::{
    analyze, run, DampingConfig, RelativeOutcome, RunPolicy, SensorConfig, SimConfig, Technique,
    TuningConfig,
};
use rlc::units::{Amps, Hertz};
use rlc::{calibrate, fit_supply, ImpedanceSample, ImpedanceSweep, SupplyParams};
use workloads::spec2k;

const USAGE: &str = "\
noise-lab — inductive-noise laboratory (ISCA'04 resonance-tuning reproduction)

usage: noise_lab <command> [options]

commands:
  impedance   sweep supply impedance      [--supply table1|section2] [--lo MHZ] [--hi MHZ] [--points N]
  calibrate   derive tuning parameters    [--supply table1|section2] [--clock GHZ] [--max-variation A]
  analyze     analytic guarantee report   [--max-variation A] [--response-time CY]
  fit         round-trip impedance fit    [--supply table1|section2]
  run         one application, one technique
              --app NAME [--technique base|tuning|sensor|damping] [-n INSTRUCTIONS]
  classify    Table 2 classification      [-n INSTRUCTIONS]
  table3      tuning sweep                [-n INSTRUCTIONS]
  table4      [10] sensor sweep           [-n INSTRUCTIONS]
  table5      [14] damping sweep          [-n INSTRUCTIONS]

common options:
  --out PATH  also write results as CSV (or JSON when PATH ends in .json)
  --help      this text
";

#[derive(Debug)]
struct Args {
    command: String,
    options: HashMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(|| USAGE.to_string())?;
    let mut options = HashMap::new();
    while let Some(key) = argv.next() {
        let key = key.trim_start_matches('-').to_string();
        if key == "help" {
            return Err(USAGE.to_string());
        }
        let value = argv
            .next()
            .ok_or(format!("option --{key} requires a value"))?;
        options.insert(key, value);
    }
    Ok(Args { command, options })
}

impl Args {
    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{key}: {v}")),
        }
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{key}: {v}")),
        }
    }

    fn supply(&self) -> Result<SupplyParams, String> {
        match self
            .options
            .get("supply")
            .map(String::as_str)
            .unwrap_or("table1")
        {
            "table1" => Ok(SupplyParams::isca04_table1()),
            "section2" => Ok(SupplyParams::isca04_section2_example()),
            other => Err(format!("unknown supply: {other} (table1|section2)")),
        }
    }

    fn out(&self) -> Option<PathBuf> {
        self.options.get("out").map(PathBuf::from)
    }
}

fn emit(report: &Report, args: &Args) -> Result<(), String> {
    if let Some(path) = args.out() {
        report
            .write_to(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("(wrote {} rows to {})", report.len(), path.display());
    }
    Ok(())
}

fn cmd_impedance(args: &Args) -> Result<(), String> {
    let supply = args.supply()?;
    let lo = args.get_f64("lo", 40.0)?;
    let hi = args.get_f64("hi", 160.0)?;
    let points = args.get_u64("points", 241)? as usize;
    if points < 2 || lo >= hi {
        return Err("need --points >= 2 and --lo < --hi".into());
    }
    let sweep = ImpedanceSweep::linear(&supply, Hertz::from_mega(lo), Hertz::from_mega(hi), points);
    let mut report = Report::new(&["frequency_mhz", "magnitude_mohm", "phase_rad"]);
    for p in sweep.points() {
        report.push(vec![
            (p.frequency.hertz() / 1e6).into(),
            (p.magnitude.ohms() * 1e3).into(),
            p.phase_radians.into(),
        ]);
    }
    let peak = sweep.peak();
    let (b_lo, b_hi) = sweep.half_energy_band();
    println!(
        "peak {:.3} mΩ at {:.1} MHz; half-energy band {:.1}–{:.1} MHz; Q = {:.2}",
        peak.magnitude.ohms() * 1e3,
        peak.frequency.hertz() / 1e6,
        b_lo.hertz() / 1e6,
        b_hi.hertz() / 1e6,
        supply.quality_factor()
    );
    emit(&report, args)
}

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let supply = args.supply()?;
    let clock = Hertz::from_giga(args.get_f64("clock", 10.0)?);
    let max_variation = Amps::new(args.get_f64("max-variation", 70.0)?);
    let cal = calibrate(&supply, clock, max_variation).map_err(|e| e.to_string())?;
    println!(
        "variation threshold   {:.1} A\nband-edge tolerance   {:.1} A\nmax repetition tol    {}\nresonant period       {}\nband periods          {}–{} cycles",
        cal.variation_threshold.amps(),
        cal.band_edge_tolerance.amps(),
        cal.max_repetition_tolerance,
        cal.resonant_period,
        cal.band_periods.0.count(),
        cal.band_periods.1.count(),
    );
    let mut report = Report::new(&[
        "variation_threshold_a",
        "band_edge_tolerance_a",
        "max_repetition_tolerance",
        "resonant_period_cycles",
        "band_min_cycles",
        "band_max_cycles",
    ]);
    report.push(vec![
        cal.variation_threshold.amps().into(),
        cal.band_edge_tolerance.amps().into(),
        u64::from(cal.max_repetition_tolerance).into(),
        cal.resonant_period.count().into(),
        cal.band_periods.0.count().into(),
        cal.band_periods.1.count().into(),
    ]);
    emit(&report, args)
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let supply = args.supply()?;
    let clock = Hertz::from_giga(args.get_f64("clock", 10.0)?);
    let response_time = args.get_u64("response-time", 100)? as u32;
    let max_variation = Amps::new(args.get_f64("max-variation", 40.0)?);
    let config = TuningConfig::isca04_table1(response_time);
    let r = analyze(&supply, clock, &config, max_variation).map_err(|e| e.to_string())?;
    println!(
        "resonant period        {}\npeak impedance         {:.3} mΩ\nhalf waves to violate  {}\nguaranteed variation   {:.1} A\nresponse budget        {} cycles",
        r.resonant_period,
        r.peak_impedance_ohms * 1e3,
        r.half_waves_to_violation.map_or("never".to_string(), |n| n.to_string()),
        r.guaranteed_variation.amps(),
        r.response_budget_cycles,
    );
    Ok(())
}

fn cmd_fit(args: &Args) -> Result<(), String> {
    let truth = args.supply()?;
    let f0 = truth.resonant_frequency().hertz() / 1e6;
    let sweep = ImpedanceSweep::linear(
        &truth,
        Hertz::from_mega(f0 * 0.3),
        Hertz::from_mega(f0 * 2.0),
        120,
    );
    let samples: Vec<ImpedanceSample> = sweep
        .points()
        .iter()
        .map(|p| ImpedanceSample {
            frequency: p.frequency,
            magnitude: p.magnitude,
        })
        .collect();
    let fit = fit_supply(&samples, truth.vdd(), truth.noise_margin()).map_err(|e| e.to_string())?;
    println!(
        "truth:  R = {:.1} µΩ  L = {:.3} pH  C = {:.0} nF  (f₀ {:.1} MHz, Q {:.2})",
        truth.resistance().ohms() * 1e6,
        truth.inductance().henries() * 1e12,
        truth.capacitance().farads() * 1e9,
        truth.resonant_frequency().hertz() / 1e6,
        truth.quality_factor()
    );
    println!(
        "fitted: R = {:.1} µΩ  L = {:.3} pH  C = {:.0} nF  (f₀ {:.1} MHz, Q {:.2}); rms err {:.2}%",
        fit.params.resistance().ohms() * 1e6,
        fit.params.inductance().henries() * 1e12,
        fit.params.capacitance().farads() * 1e9,
        fit.params.resonant_frequency().hertz() / 1e6,
        fit.params.quality_factor(),
        fit.rms_relative_error * 100.0
    );
    Ok(())
}

fn technique_from(args: &Args) -> Result<Technique, String> {
    match args
        .options
        .get("technique")
        .map(String::as_str)
        .unwrap_or("tuning")
    {
        "base" => Ok(Technique::Base),
        "tuning" => {
            let t = args.get_u64("response-time", 100)? as u32;
            Ok(Technique::Tuning(TuningConfig::isca04_table1(t)))
        }
        "sensor" => Ok(Technique::Sensor(SensorConfig::table4(
            args.get_f64("threshold-mv", 20.0)?,
            args.get_f64("noise-mv", 10.0)?,
            args.get_u64("delay", 5)? as u32,
        ))),
        "damping" => Ok(Technique::Damping(DampingConfig::isca04_table5(
            args.get_f64("delta", 0.5)?,
        ))),
        other => Err(format!("unknown technique: {other}")),
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let app = args.options.get("app").ok_or("run requires --app NAME")?;
    let profile = spec2k::by_name(app).ok_or(format!("unknown application: {app}"))?;
    let sim = SimConfig::isca04(args.get_u64("n", 120_000)?);
    let technique = technique_from(args)?;

    let base = run(&profile, &Technique::Base, &sim);
    let result = run(&profile, &technique, &sim);
    println!(
        "{app} under {}: {} cycles, IPC {:.2}, {} violation cycles (base {})",
        technique.name(),
        result.cycles,
        result.ipc,
        result.violation_cycles,
        base.violation_cycles
    );
    if !matches!(technique, Technique::Base) {
        let o = RelativeOutcome::new(&base, &result);
        println!(
            "slowdown {:.3}, relative energy {:.3}, relative energy-delay {:.3}",
            o.slowdown, o.relative_energy, o.relative_energy_delay
        );
    }
    Ok(())
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    let sim = SimConfig::isca04(args.get_u64("n", 120_000)?);
    let rows = table2_from_supervised(&base_suite_supervised(&sim, &RunPolicy::none()));
    let mut report = Report::new(&[
        "app",
        "ipc",
        "violation_fraction",
        "violating",
        "paper_violating",
    ]);
    let mut printed = Vec::new();
    for r in &rows {
        report.push(vec![
            r.app.into(),
            r.ipc.into(),
            r.violation_fraction.into(),
            u64::from(r.violation_fraction > 0.0).into(),
            u64::from(r.paper_violating).into(),
        ]);
        printed.push(vec![
            r.app.to_string(),
            format!("{:.2}", r.ipc),
            format!("{:.2e}", r.violation_fraction),
            if r.violation_fraction > 0.0 {
                "violating".into()
            } else {
                "clean".into()
            },
        ]);
    }
    println!(
        "{}",
        format_table(&["app", "IPC", "viol frac", "class"], &printed)
    );
    emit(&report, args)
}

fn summary_report(rows: &[(String, restune::Summary)]) -> Report {
    let mut report = Report::new(&[
        "config",
        "avg_slowdown",
        "worst_slowdown",
        "worst_app",
        "avg_energy_delay",
        "frac_first_level",
        "frac_second_level",
        "frac_sensor_response",
        "residual_violations",
    ]);
    for (label, s) in rows {
        report.push(vec![
            label.as_str().into(),
            s.avg_slowdown.into(),
            s.worst_slowdown.into(),
            s.worst_app.into(),
            s.avg_energy_delay.into(),
            s.avg_first_level_fraction.into(),
            s.avg_second_level_fraction.into(),
            s.avg_sensor_response_fraction.into(),
            s.total_violation_cycles.into(),
        ]);
    }
    report
}

fn print_summaries(rows: &[(String, restune::Summary)]) {
    let printed: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, s)| {
            vec![
                label.clone(),
                format!("{:.3}", s.avg_slowdown),
                format!("{:.3} ({})", s.worst_slowdown, s.worst_app),
                format!("{:.3}", s.avg_energy_delay),
                format!("{}", s.total_violation_cycles),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "config",
                "avg slowdown",
                "worst slowdown",
                "avg E·D",
                "resid viol"
            ],
            &printed
        )
    );
}

fn cmd_table3(args: &Args) -> Result<(), String> {
    let sim = SimConfig::isca04(args.get_u64("n", 120_000)?);
    let policy = RunPolicy::none();
    let base = base_suite_supervised(&sim, &policy);
    let (rows, _) = table3_supervised(&sim, &[75, 100, 125, 150, 200], &base, &policy, None);
    let labeled: Vec<(String, restune::Summary)> = rows
        .iter()
        .map(|r| (format!("tuning {} cy", r.initial_response_time), r.summary))
        .collect();
    print_summaries(&labeled);
    emit(&summary_report(&labeled), args)
}

fn cmd_table4(args: &Args) -> Result<(), String> {
    let sim = SimConfig::isca04(args.get_u64("n", 120_000)?);
    let policy = RunPolicy::none();
    let base = base_suite_supervised(&sim, &policy);
    let configs = [
        SensorConfig::table4(30.0, 0.0, 0),
        SensorConfig::table4(20.0, 0.0, 0),
        SensorConfig::table4(30.0, 15.0, 0),
        SensorConfig::table4(20.0, 10.0, 5),
        SensorConfig::table4(20.0, 15.0, 3),
    ];
    let (rows, _) = table4_supervised(&sim, &configs, &base, &policy, None);
    let labeled: Vec<(String, restune::Summary)> = rows
        .iter()
        .map(|r| {
            (
                format!(
                    "[10] {:.0}mV/{:.0}mV/{}cy",
                    r.config.target_threshold.volts() * 1e3,
                    r.config.sensor_noise_pp.volts() * 1e3,
                    r.config.delay_cycles
                ),
                r.summary,
            )
        })
        .collect();
    print_summaries(&labeled);
    emit(&summary_report(&labeled), args)
}

fn cmd_table5(args: &Args) -> Result<(), String> {
    let sim = SimConfig::isca04(args.get_u64("n", 120_000)?);
    let policy = RunPolicy::none();
    let base = base_suite_supervised(&sim, &policy);
    let (rows, _) = table5_supervised(&sim, &[1.0, 0.5, 0.25], &base, &policy, None);
    let labeled: Vec<(String, restune::Summary)> = rows
        .iter()
        .map(|r| (format!("damping δ={}", r.delta_relative), r.summary))
        .collect();
    print_summaries(&labeled);
    emit(&summary_report(&labeled), args)
}

fn dispatch() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "impedance" => cmd_impedance(&args),
        "calibrate" => cmd_calibrate(&args),
        "analyze" => cmd_analyze(&args),
        "fit" => cmd_fit(&args),
        "run" => cmd_run(&args),
        "classify" => cmd_classify(&args),
        "table3" => cmd_table3(&args),
        "table4" => cmd_table4(&args),
        "table5" => cmd_table5(&args),
        "help" | "--help" | "-h" => Err(USAGE.to_string()),
        other => Err(format!("unknown command: {other}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
