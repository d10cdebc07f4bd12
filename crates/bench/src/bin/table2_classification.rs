//! Table 2: classification of the 26 SPEC2K applications by noise-margin
//! violations on the base machine, with IPCs and violation-cycle fractions.

use bench::{
    failure_report_section, format_table, json_document, print_failure_reports, run_metrics_report,
    HarnessArgs, Report,
};
use restune::experiment::{base_suite_supervised, table2_from_supervised};
use restune::SimConfig;

fn main() {
    let _shutdown = bench::harness_init();
    let args = HarnessArgs::parse();
    let _trace = bench::init_trace(&args);
    let _connect = bench::init_connect(&args);
    let policy = args.policy();
    let sim = SimConfig::isca04(args.instructions);
    let base = base_suite_supervised(&sim, &policy);
    let rows = table2_from_supervised(&base);

    if args.json {
        let mut table = Report::new(&[
            "app",
            "ipc",
            "violation_fraction",
            "violating",
            "paper_violating",
            "matches_paper",
        ]);
        for r in &rows {
            let violating = r.violation_fraction > 0.0;
            table.push(vec![
                r.app.into(),
                r.ipc.into(),
                r.violation_fraction.into(),
                violating.into(),
                r.paper_violating.into(),
                (violating == r.paper_violating).into(),
            ]);
        }
        let metrics: Vec<_> = base.metrics.iter().filter_map(|m| *m).collect();
        let mut sections = vec![
            ("table2", table),
            ("run_metrics", run_metrics_report(&metrics)),
        ];
        if !policy.is_inert() {
            let failures = failure_report_section(std::slice::from_ref(&base.report));
            sections.push(("failures", failures));
        }
        println!("{}", json_document(&sections));
        return;
    }

    println!("=== Table 2: classification of SPEC2K applications ===");
    println!("({} instructions per application)\n", args.instructions);

    let mut violating = Vec::new();
    let mut clean = Vec::new();
    for r in &rows {
        let row = vec![
            r.app.to_string(),
            format!("{:.2}", r.ipc),
            format!("{:.3}", r.violation_fraction * 1e3),
            if r.paper_violating {
                "violating".into()
            } else {
                "clean".into()
            },
            if (r.violation_fraction > 0.0) == r.paper_violating {
                "✓".into()
            } else {
                "✗".into()
            },
        ];
        if r.violation_fraction > 0.0 {
            violating.push(row);
        } else {
            clean.push(row);
        }
    }

    println!(
        "Applications with noise-margin violations ({}):",
        violating.len()
    );
    println!(
        "{}",
        format_table(
            &["app", "IPC", "viol frac ×10⁻³", "paper class", "match"],
            &violating
        )
    );
    println!(
        "Applications without noise-margin violations ({}):",
        clean.len()
    );
    println!(
        "{}",
        format_table(
            &["app", "IPC", "viol frac ×10⁻³", "paper class", "match"],
            &clean
        )
    );

    let matches = rows
        .iter()
        .filter(|r| (r.violation_fraction > 0.0) == r.paper_violating)
        .count();
    println!(
        "classification agreement with the paper: {matches}/{}",
        rows.len()
    );
    println!("(paper: 12 violating / 14 clean; violation fractions 3.2e-8 … 5.6e-3)");
    print_failure_reports(std::slice::from_ref(&base.report));
}
