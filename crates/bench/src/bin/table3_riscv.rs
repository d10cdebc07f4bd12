//! Table 3 over the RISC-V corpus: the real-program workload class run
//! under every technique of the paper — resonance tuning swept over
//! initial response times, plus one voltage-sensor and one
//! pipeline-damping design point — reporting violations, slowdown, and
//! energy-delay relative to the corpus base suite.
//!
//! Unlike the synthetic suite, every instruction here comes from an
//! assembled RV32IM program executed to completion and lowered onto the
//! pipeline, so this harness is the end-to-end check that real code
//! drives the noise model: the `resonance` microbench must violate on
//! the base machine and be contained by every technique.

use bench::{
    failure_report_section, format_table, json_document, outcomes_report, print_failure_reports,
    push_outcomes, run_metrics_report, HarnessArgs, Report,
};
use restune::experiment::{
    corpus_base_suite_supervised, paired_outcomes, run_suite_policed, table3_riscv_supervised,
    Table3Row,
};
use restune::{DampingConfig, RelativeOutcome, SensorConfig, SimConfig, Summary, Technique};
use workloads::corpus;

fn tuning_report(rows: &[Table3Row]) -> (Report, Report) {
    let mut table = Report::new(&[
        "initial_response_time",
        "avg_first_level_fraction",
        "avg_second_level_fraction",
        "worst_slowdown",
        "worst_app",
        "apps_over_15_percent",
        "avg_slowdown",
        "avg_energy_delay",
        "residual_violation_cycles",
    ]);
    let mut outcomes = outcomes_report();
    for r in rows {
        let s = &r.summary;
        table.push(vec![
            u64::from(r.initial_response_time).into(),
            s.avg_first_level_fraction.into(),
            s.avg_second_level_fraction.into(),
            s.worst_slowdown.into(),
            s.worst_app.into(),
            (s.apps_over_15_percent as u64).into(),
            s.avg_slowdown.into(),
            s.avg_energy_delay.into(),
            s.total_violation_cycles.into(),
        ]);
        push_outcomes(
            &mut outcomes,
            &format!("tuning-{}", r.initial_response_time),
            &r.outcomes,
        );
    }
    (table, outcomes)
}

/// The embedded programs' architectural identity: what actually executed,
/// independent of any noise technique. Pinned by the blessed goldens in
/// `tests/riscv_frontend.rs`.
fn programs_report() -> Report {
    let mut r = Report::new(&["app", "dyn_insts", "exit_code", "regs_crc", "mem_crc"]);
    for p in corpus::all() {
        let t = corpus::trace(p.name).expect("corpus app has a trace");
        let s = &t.summary;
        r.push(vec![
            p.name.into(),
            s.dyn_insts.into(),
            u64::from(s.exit_code).into(),
            format!("{:016x}", s.regs_crc).into(),
            format!("{:016x}", s.mem_crc).into(),
        ]);
    }
    r
}

fn main() {
    let _shutdown = bench::harness_init();
    let args = HarnessArgs::parse();
    let _trace = bench::init_trace(&args);
    let store = bench::open_store();
    let policy = args.policy();
    let sim = SimConfig::isca04(args.instructions);
    let response_times = [75, 100, 125, 150, 200];
    // One representative design point each for the paper's other two
    // techniques, so the corpus reports cover every technique.
    let sensor_technique = Technique::Sensor(SensorConfig::table4(20.0, 10.0, 5));
    let damping_technique = Technique::Damping(DampingConfig::isca04_table5(1.0));

    let base = corpus_base_suite_supervised(&sim, &policy);
    let (rows, mut reports) =
        table3_riscv_supervised(&sim, &response_times, &base, &policy, Some(&*store));
    let sensor = run_suite_policed(
        &corpus::all(),
        &sensor_technique,
        &sim,
        &policy,
        "sensor-20mV-10mV-5cy",
        Some(&*store),
    );
    let damping = run_suite_policed(
        &corpus::all(),
        &damping_technique,
        &sim,
        &policy,
        "damping-1",
        Some(&*store),
    );
    let sensor_outcomes = paired_outcomes(&base, &sensor);
    let damping_outcomes = paired_outcomes(&base, &damping);
    reports.insert(0, base.report.clone());
    reports.push(sensor.report);
    reports.push(damping.report);
    let metrics: Vec<_> = base.metrics.iter().filter_map(|m| *m).collect();

    let technique_summaries: Vec<(&str, Summary, &[RelativeOutcome])> = [
        ("sensor-20mV-10mV-5cy", &sensor_outcomes),
        ("damping-1", &damping_outcomes),
    ]
    .into_iter()
    .filter(|(_, o)| !o.is_empty())
    .map(|(name, o)| (name, Summary::from_outcomes(o), o.as_slice()))
    .collect();

    if args.json {
        let (table, mut outcomes) = tuning_report(&rows);
        let mut techniques = Report::new(&[
            "design_point",
            "worst_slowdown",
            "worst_app",
            "avg_slowdown",
            "avg_energy_delay",
            "residual_violation_cycles",
        ]);
        for (name, s, o) in &technique_summaries {
            techniques.push(vec![
                (*name).into(),
                s.worst_slowdown.into(),
                s.worst_app.into(),
                s.avg_slowdown.into(),
                s.avg_energy_delay.into(),
                s.total_violation_cycles.into(),
            ]);
            push_outcomes(&mut outcomes, name, o);
        }
        let metrics = run_metrics_report(&metrics);
        let mut sections = vec![
            ("programs", programs_report()),
            ("table3_riscv", table),
            ("techniques", techniques),
            ("outcomes", outcomes),
            ("run_metrics", metrics),
        ];
        if !policy.is_inert() {
            sections.push(("failures", failure_report_section(&reports)));
        }
        println!("{}", json_document(&sections));
        return;
    }

    println!("=== Table 3 (RISC-V corpus): techniques on real programs ===");
    println!("({} instructions per application)\n", args.instructions);

    let programs: Vec<Vec<String>> = corpus::all()
        .iter()
        .map(|p| {
            let t = corpus::trace(p.name).expect("corpus app has a trace");
            let s = &t.summary;
            vec![
                p.name.to_string(),
                format!("{}", s.dyn_insts),
                format!("{}", s.exit_code),
                format!("{:016x}", s.regs_crc),
                format!("{:016x}", s.mem_crc),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["program", "dyn insts", "exit code", "regs crc", "mem crc"],
            &programs
        )
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let s = &r.summary;
            vec![
                format!("{} cycles", r.initial_response_time),
                format!("{:.3}", s.avg_first_level_fraction),
                format!("{:.4}", s.avg_second_level_fraction),
                format!("{:.3} ({})", s.worst_slowdown, s.worst_app),
                format!("{}", s.apps_over_15_percent),
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
                "initial response",
                "frac L1 resp",
                "frac L2 resp",
                "worst slowdown",
                ">15%",
                "avg slowdown",
                "avg E·D",
                "resid viol"
            ],
            &table
        )
    );

    if !technique_summaries.is_empty() {
        println!("--- other techniques on the corpus ---");
        let rows: Vec<Vec<String>> = technique_summaries
            .iter()
            .map(|(name, s, _)| {
                vec![
                    (*name).to_string(),
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
                    "design point",
                    "worst slowdown",
                    "avg slowdown",
                    "avg E·D",
                    "resid viol"
                ],
                &rows
            )
        );
    }
    println!(
        "expectation: only `resonance` violates on the base machine; every\n\
         technique contains it at a small slowdown on the compute kernels"
    );
    print_failure_reports(&reports);
}
