//! Table 5: pipeline damping \[14\] with δ at 1, 0.5, and 0.25 of the
//! resonant current variation threshold (tightening δ is damping's only way
//! to cover the whole resonance band).

use bench::{
    failure_report_section, format_table, json_document, outcomes_report, print_failure_reports,
    push_outcomes, run_metrics_report, HarnessArgs, Report,
};
use restune::experiment::{base_suite_supervised, table5_supervised};
use restune::SimConfig;

fn main() {
    let _shutdown = bench::harness_init();
    let args = HarnessArgs::parse();
    let _trace = bench::init_trace(&args);
    let _connect = bench::init_connect(&args);
    let store = bench::open_store();
    let policy = args.policy();
    let sim = SimConfig::isca04(args.instructions);

    let deltas = [1.0, 0.5, 0.25];
    let base = base_suite_supervised(&sim, &policy);
    let (rows, mut reports) = table5_supervised(&sim, &deltas, &base, &policy, Some(&*store));
    reports.insert(0, base.report.clone());
    let metrics: Vec<_> = base.metrics.iter().filter_map(|m| *m).collect();

    if args.json {
        let mut table = Report::new(&[
            "delta_relative",
            "worst_slowdown",
            "worst_app",
            "avg_slowdown",
            "avg_energy_delay",
            "residual_violation_cycles",
        ]);
        let mut outcomes = outcomes_report();
        for r in &rows {
            let s = &r.summary;
            table.push(vec![
                r.delta_relative.into(),
                s.worst_slowdown.into(),
                s.worst_app.into(),
                s.avg_slowdown.into(),
                s.avg_energy_delay.into(),
                s.total_violation_cycles.into(),
            ]);
            push_outcomes(
                &mut outcomes,
                &format!("damping-{}", r.delta_relative),
                &r.outcomes,
            );
        }
        let metrics = run_metrics_report(&metrics);
        let mut sections = vec![
            ("table5", table),
            ("outcomes", outcomes),
            ("run_metrics", metrics),
        ];
        if !policy.is_inert() {
            sections.push(("failures", failure_report_section(&reports)));
        }
        println!("{}", json_document(&sections));
        return;
    }

    println!("=== Table 5: pipeline damping [14] ===");
    println!("({} instructions per application)\n", args.instructions);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let s = &r.summary;
            vec![
                format!("{}", r.delta_relative),
                format!("{:.3} ({})", s.worst_slowdown, s.worst_app),
                format!("{:.3}", s.avg_slowdown),
                format!("{:.3}", s.avg_energy_delay),
                format!("{}", s.total_violation_cycles),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "δ / variation threshold",
                "worst slowdown",
                "avg slowdown",
                "avg E·D",
                "resid viol"
            ],
            &table
        )
    );
    println!(
        "paper: avg slowdown 1.10 / 1.15 / 1.24, avg energy-delay 1.12 / 1.17 / 1.26\n\
         (worst: fma3d — high-ILP apps pay most under per-cycle current caps)"
    );
    print_failure_reports(&reports);
}
