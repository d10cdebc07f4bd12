//! Internal sanity sweep: base vs tuning violations across the full suite
//! (not a paper artifact; used to re-verify workload calibration quickly).
//!
//! This is also the supervision smoke harness: `--faults SEED` injects a
//! deterministic fault plan, `--timeout SECS` arms the watchdog, and
//! `--resume` checkpoints completed applications. Under an active policy
//! the sweep degrades gracefully — failed applications are reported, the
//! rest still print — and the process exits 0 as long as every failure was
//! injected (a clean run that fails still exits 1).

use bench::{
    failure_report_section, json_document, print_failure_reports, run_metrics_report, HarnessArgs,
    Report,
};
use restune::experiment::{base_suite_supervised, run_suite_policed};
use restune::{SimConfig, Technique, TuningConfig};
use workloads::spec2k;

fn main() {
    let _shutdown = bench::harness_init();
    let args = HarnessArgs::parse();
    let _trace = bench::init_trace(&args);
    let store = bench::open_store();
    let policy = args.policy();
    let sim = SimConfig::isca04(args.instructions);
    let tun = Technique::Tuning(TuningConfig::isca04_table1(100));
    let profiles = spec2k::all();

    let base = base_suite_supervised(&sim, &policy);
    let tuned = run_suite_policed(&profiles, &tun, &sim, &policy, "tuning-100", Some(&*store));
    let reports = [base.report.clone(), tuned.report.clone()];

    if args.json {
        let mut rows = Report::new(&[
            "app",
            "base_violation_cycles",
            "tuned_violation_cycles",
            "slowdown",
            "first_level_fraction",
            "classification_ok",
        ]);
        for ((p, b), t) in profiles.iter().zip(&base.outcomes).zip(&tuned.outcomes) {
            let (Ok(b), Ok(t)) = (b, t) else { continue };
            rows.push(vec![
                p.name.into(),
                b.violation_cycles.into(),
                t.violation_cycles.into(),
                (t.cycles as f64 / b.cycles as f64).into(),
                t.first_level_fraction().into(),
                ((b.violation_cycles > 0) == p.paper_violating).into(),
            ]);
        }
        let metrics: Vec<_> = base
            .metrics
            .iter()
            .chain(&tuned.metrics)
            .filter_map(|m| *m)
            .collect();
        let mut sections = vec![
            ("suite_check", rows),
            ("run_metrics", run_metrics_report(&metrics)),
        ];
        // Clean mode keeps the pre-supervision output shape: no failures
        // section.
        if !policy.is_inert() {
            sections.push(("failures", failure_report_section(&reports)));
        }
        println!("{}", json_document(&sections));
    } else {
        let (mut tb, mut tt) = (0u64, 0u64);
        let mut misclassified = 0;
        let mut failed = 0;
        for ((p, b), t) in profiles.iter().zip(&base.outcomes).zip(&tuned.outcomes) {
            let (Ok(b), Ok(t)) = (b, t) else {
                failed += 1;
                println!("{:10} FAILED (see supervision report)", p.name);
                continue;
            };
            tb += b.violation_cycles;
            tt += t.violation_cycles;
            let ok = (b.violation_cycles > 0) == p.paper_violating;
            if !ok {
                misclassified += 1;
            }
            println!(
                "{:10} base_viol={:6} tuned_viol={:5} slowdown={:.3} L1f={:.3} class_ok={}",
                p.name,
                b.violation_cycles,
                t.violation_cycles,
                t.cycles as f64 / b.cycles as f64,
                t.first_level_fraction(),
                ok
            );
        }
        println!("TOTAL base={tb} tuned={tt} misclassified={misclassified} failed={failed}");
        println!(
            "engine: base suite {:.1}s (recorded: {}), tuned suite {:.1}s",
            base.wall_seconds,
            base.metrics
                .first()
                .is_some_and(|m| m.as_ref().is_some_and(|m| m.replayed)),
            tuned.wall_seconds
        );
        print_failure_reports(&reports);
    }

    // Degraded mode (an active fault plan) exits 0: injected failures are
    // the experiment, not an error. A genuinely clean run that fails exits 1.
    let clean = reports.iter().all(|r| r.failures.is_empty());
    if !clean && !policy.plan.is_enabled() {
        std::process::exit(1);
    }
}
