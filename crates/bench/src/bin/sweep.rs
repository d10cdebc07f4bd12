//! Parameter-grid sweeps over the technique × PDN × workload space, with
//! per-run result sharing through the content-addressed store and a Pareto
//! frontier per (workload class, PDN) group.

use bench::{format_table, json_document, HarnessArgs, Parsed, Report, EXIT_USAGE};
use restune::{run_sweep, GridSpec, RunStore, SweepOutcome, SweepPoint};

const SWEEP_USAGE: &str = "\
usage: sweep [--grid KEY=VALUES]... [harness options]

  Expand a declarative grid over workload classes, PDN scales, and
  technique configurations; run every point (sharing individual runs
  through the content-addressed store under the cache directory); report
  each (class, PDN) group's Pareto frontier over violations, slowdown,
  and energy-delay.

  --grid KEY=VALUES   one sweep axis (repeatable). Axes:
                        workloads=spec2k,corpus     workload classes
                        pdn=1.0,1.5                 PDN inductance scales
                        tuning=75,100               tuning response times
                        sensor=THR_MV:NOISE_MV:DELAY[,..]
                        damping=0.5,1.0             damping deltas
                        instructions=N              per-run instructions
                      defaults: workloads=spec2k pdn=1.0 tuning=100
                      (instructions defaults to the harness -n value)

  All harness options apply; --resume checkpoints suites so an
  interrupted sweep resumes bit-identically.
";

fn main() {
    let _shutdown = bench::harness_init();
    let (grid, args) = parse_args();
    let _trace = bench::init_trace(&args);
    let policy = args.policy();

    let spec = match GridSpec::parse(&grid, args.instructions) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("error: {message}\n{SWEEP_USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let store = RunStore::open_default();
    let outcome = match run_sweep(&spec, &policy, &store) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: sweep failed at {message}");
            std::process::exit(1);
        }
    };

    if args.json {
        print_json(&outcome);
    } else {
        print_human(&spec, &outcome);
    }
}

/// Splits repeatable `--grid KEY=VALUES` arguments off the command line
/// and hands everything else to the shared harness parser.
fn parse_args() -> (Vec<(String, String)>, HarnessArgs) {
    let mut grid = Vec::new();
    let mut rest = Vec::new();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        if arg == "--grid" {
            let Some(value) = iter.next() else {
                eprintln!("error: --grid requires a KEY=VALUES argument\n{SWEEP_USAGE}");
                std::process::exit(EXIT_USAGE);
            };
            let Some((key, values)) = value.split_once('=') else {
                eprintln!("error: invalid --grid '{value}' (expected KEY=VALUES)\n{SWEEP_USAGE}");
                std::process::exit(EXIT_USAGE);
            };
            grid.push((key.to_string(), values.to_string()));
        } else {
            rest.push(arg);
        }
    }
    match HarnessArgs::try_parse(rest) {
        Ok(Parsed::Args(args)) => (grid, args),
        Ok(Parsed::Help) => {
            println!("{SWEEP_USAGE}\n{}", bench::USAGE);
            std::process::exit(0);
        }
        Err(message) => {
            eprintln!("error: {message}\n{SWEEP_USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    }
}

fn point_row(p: &SweepPoint) -> Vec<bench::report::Value> {
    let s = &p.summary;
    vec![
        p.class.into(),
        p.pdn_scale.into(),
        p.technique.as_str().into(),
        s.total_violation_cycles.into(),
        s.avg_slowdown.into(),
        s.worst_slowdown.into(),
        s.avg_energy_delay.into(),
        u64::from(p.on_frontier).into(),
    ]
}

const POINT_COLUMNS: [&str; 8] = [
    "class",
    "pdn_scale",
    "technique",
    "violation_cycles",
    "avg_slowdown",
    "worst_slowdown",
    "avg_energy_delay",
    "on_frontier",
];

fn print_json(outcome: &SweepOutcome) {
    let mut sweep = Report::new(&POINT_COLUMNS);
    for p in &outcome.points {
        sweep.push(point_row(p));
    }
    // The frontier section repeats only the Pareto-optimal rows: it is the
    // byte-identity surface CI compares across execution paths.
    let mut frontier = Report::new(&POINT_COLUMNS);
    for p in outcome.frontier() {
        frontier.push(point_row(p));
    }
    let mut store = Report::new(&[
        "runs",
        "store_hits",
        "store_misses",
        "hit_rate",
        "evicted_files",
        "evicted_bytes",
    ]);
    store.push(vec![
        outcome.runs.into(),
        outcome.store_hits.into(),
        outcome.store_misses.into(),
        outcome.hit_rate().into(),
        outcome.evicted.files.into(),
        outcome.evicted.bytes.into(),
    ]);
    let sections = vec![("sweep", sweep), ("frontier", frontier), ("store", store)];
    println!("{}", json_document(&sections));
}

fn print_human(spec: &GridSpec, outcome: &SweepOutcome) {
    println!(
        "=== Sweep: {} points over {} technique configurations ===",
        outcome.points.len(),
        spec.technique_points().len()
    );
    println!("({} instructions per application run)\n", spec.instructions);

    let rows: Vec<Vec<String>> = outcome
        .points
        .iter()
        .map(|p| {
            let s = &p.summary;
            vec![
                p.class.to_string(),
                format!("{}", p.pdn_scale),
                p.technique.clone(),
                format!("{}", s.total_violation_cycles),
                format!("{:.3}", s.avg_slowdown),
                format!("{:.3} ({})", s.worst_slowdown, s.worst_app),
                format!("{:.3}", s.avg_energy_delay),
                if p.on_frontier {
                    "*".to_string()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "class",
                "pdn",
                "technique",
                "violations",
                "avg slowdown",
                "worst slowdown",
                "avg E·D",
                "frontier"
            ],
            &rows
        )
    );
    println!(
        "frontier: {} of {} points are Pareto-optimal over (violations, slowdown, energy-delay)",
        outcome.frontier().len(),
        outcome.points.len()
    );
    println!(
        "store: {}/{} runs served from the store (hit rate {:.2}), {} evicted",
        outcome.store_hits,
        outcome.runs,
        outcome.hit_rate(),
        outcome.evicted.files
    );
}
