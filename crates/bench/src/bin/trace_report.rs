//! Summarizes a JSON-lines trace written by `--trace-out` / `RESTUNE_TRACE`:
//! event histogram, per-app violation and waveform-window breakdown, engine
//! span timings, sweep activity (points and frontier sizes per workload
//! class), and the final counter registry. With `--check` it validates
//! every line against the event-log schema — including the sweep event
//! shapes (`sweep-point` / `frontier-point` must carry a string `class`
//! and `technique` plus numeric `pdn`, `violations`, `slowdown`, and
//! `energy_delay`) — and exits non-zero on the first malformed record;
//! the CI trace stage runs it in that mode.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::process::ExitCode;

use restune::obs::{parse_json, validate_line, JsonValue};

const USAGE: &str = "\
usage: trace_report [--check] PATH

  Summarize a restune JSON-lines trace (event histogram, per-app
  violation/waveform windows, engine span timings, counters).

  --check   validate every line against the event schema; exit 1 on the
            first malformed record instead of summarizing past it
";

fn main() -> ExitCode {
    let mut check = false;
    let mut path = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_string());
            }
            other => {
                eprintln!("error: unexpected argument '{other}'\n{USAGE}");
                return ExitCode::from(bench::EXIT_USAGE as u8);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("error: a trace path is required\n{USAGE}");
        return ExitCode::from(bench::EXIT_USAGE as u8);
    };
    let body = match std::fs::read_to_string(&path) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(bench::EXIT_USAGE as u8);
        }
    };

    let mut histogram: BTreeMap<String, u64> = BTreeMap::new();
    // app -> (violation episodes, waveform windows, window trigger cycles)
    let mut apps: BTreeMap<String, (u64, u64, Vec<u64>)> = BTreeMap::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut spans: Vec<(String, f64)> = Vec::new();
    // workload class -> (sweep points, frontier points)
    let mut sweep_classes: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut suite_start: Option<f64> = None;
    let mut total = 0u64;

    for (lineno, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        total += 1;
        let validity = validate_line(line).and_then(|()| {
            let event = parse_json(line).expect("validate_line parsed it");
            validate_sweep_shape(&event)?;
            Ok(event)
        });
        let event = match validity {
            Ok(event) => event,
            Err(e) => {
                if check {
                    eprintln!("error: line {}: {e}", lineno + 1);
                    return ExitCode::FAILURE;
                }
                eprintln!("warning: skipping malformed line {}: {e}", lineno + 1);
                continue;
            }
        };
        let kind = event
            .get("kind")
            .and_then(JsonValue::as_str)
            .expect("validated events carry a kind")
            .to_string();
        *histogram.entry(kind.clone()).or_insert(0) += 1;

        let app = event.get("app").and_then(JsonValue::as_str);
        match kind.as_str() {
            "violation" => {
                if let Some(app) = app {
                    apps.entry(app.to_string()).or_default().0 += 1;
                }
            }
            "waveform" => {
                if let Some(app) = app {
                    let entry = apps.entry(app.to_string()).or_default();
                    entry.1 += 1;
                    if let Some(cycle) = event.get("cycle").and_then(JsonValue::as_f64) {
                        entry.2.push(cycle as u64);
                    }
                }
            }
            "counter" => {
                if let (Some(name), Some(value)) = (
                    event.get("name").and_then(JsonValue::as_str),
                    event.get("value").and_then(JsonValue::as_f64),
                ) {
                    counters.push((name.to_string(), value as u64));
                }
            }
            "sweep-point" | "frontier-point" => {
                if let Some(class) = event.get("class").and_then(JsonValue::as_str) {
                    let entry = sweep_classes.entry(class.to_string()).or_default();
                    if kind == "sweep-point" {
                        entry.0 += 1;
                    } else {
                        entry.1 += 1;
                    }
                }
            }
            "suite-start" => {
                suite_start = event.get("wall").and_then(JsonValue::as_f64);
            }
            "suite-end" => {
                if let (Some(start), Some(end)) = (
                    suite_start.take(),
                    event.get("wall").and_then(JsonValue::as_f64),
                ) {
                    let technique = event
                        .get("technique")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?");
                    spans.push((format!("suite[{technique}]"), end - start));
                }
            }
            _ => {}
        }
    }

    // A closed pipe (`trace_report ... | head`) is a normal way to consume
    // the summary, so a broken-pipe write ends the program quietly instead
    // of panicking like println! would.
    let out = io::stdout().lock();
    match print_report(
        out,
        &path,
        total,
        &histogram,
        &apps,
        &spans,
        &counters,
        &sweep_classes,
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `--check` schema gate for sweep events: point records carry the
/// typed fields the frontier report (and this summary) depend on, and the
/// end record carries the store totals.
fn validate_sweep_shape(event: &JsonValue) -> Result<(), String> {
    let kind = event.get("kind").and_then(JsonValue::as_str).unwrap_or("");
    if matches!(kind, "sweep-point" | "frontier-point") {
        for field in ["class", "technique"] {
            if event.get(field).and_then(JsonValue::as_str).is_none() {
                return Err(format!("{kind} event without a string '{field}' field"));
            }
        }
        for field in ["pdn", "violations", "slowdown", "energy_delay"] {
            if event.get(field).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("{kind} event without a numeric '{field}' field"));
            }
        }
    }
    if kind == "sweep-end" {
        for field in ["points", "frontier", "store_hits", "store_misses"] {
            if event.get(field).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("sweep-end event without a numeric '{field}' field"));
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn print_report(
    mut out: impl Write,
    path: &str,
    total: u64,
    histogram: &BTreeMap<String, u64>,
    apps: &BTreeMap<String, (u64, u64, Vec<u64>)>,
    spans: &[(String, f64)],
    counters: &[(String, u64)],
    sweep_classes: &BTreeMap<String, (u64, u64)>,
) -> io::Result<()> {
    writeln!(out, "trace: {path} ({total} events)")?;
    writeln!(out)?;
    writeln!(out, "event histogram:")?;
    for (kind, count) in histogram {
        writeln!(out, "  {kind:<18} {count:>8}")?;
    }

    if !apps.is_empty() {
        writeln!(out)?;
        writeln!(out, "per-app violations and waveform windows:")?;
        for (app, (violations, windows, triggers)) in apps {
            let preview: Vec<String> = triggers.iter().take(4).map(u64::to_string).collect();
            let suffix = if triggers.len() > 4 { ", ..." } else { "" };
            writeln!(
                out,
                "  {app:<10} violations={violations:<6} windows={windows:<4} \
                 trigger_cycles=[{}{suffix}]",
                preview.join(", ")
            )?;
        }
    }

    if !spans.is_empty() {
        writeln!(out)?;
        writeln!(out, "span timings:")?;
        for (label, seconds) in spans {
            writeln!(out, "  {label:<18} {seconds:.3}s")?;
        }
    }

    if !sweep_classes.is_empty() {
        writeln!(out)?;
        writeln!(out, "sweep:")?;
        for (class, (points, frontier)) in sweep_classes {
            writeln!(out, "  {class:<18} points={points:<6} frontier={frontier}")?;
        }
        let store: Vec<&(String, u64)> = counters
            .iter()
            .filter(|(name, _)| name.starts_with("store."))
            .collect();
        for (name, value) in store {
            writeln!(out, "  {name:<28} {value:>10}")?;
        }
    }

    if !counters.is_empty() {
        writeln!(out)?;
        writeln!(out, "counters:")?;
        for (name, value) in counters {
            writeln!(out, "  {name:<28} {value:>10}")?;
        }
    }

    out.flush()
}
