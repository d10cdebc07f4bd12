//! Fault-tolerance integration: the supervised engine must classify every
//! fault class, retry transient ones, degrade instead of aborting, resume an
//! interrupted suite bit-exactly, and — with the policy disabled — stay
//! bit-identical to the unsupervised path.

use std::time::Duration;

use restune::engine::{
    append_checkpoint, base_key, checkpoint_path, load_baseline, load_checkpoint,
    run_suite_supervised, save_baseline, suite_fingerprint, suite_key, try_run_suite,
};
use restune::{FailureKind, FaultPlan, FaultSpec, SimConfig, SupervisorConfig, Technique};
use workloads::spec2k;

const APPS: [&str; 3] = ["mcf", "parser", "fma3d"];

fn profiles() -> Vec<workloads::WorkloadProfile> {
    APPS.iter()
        .map(|n| spec2k::by_name(n).expect("app is in the suite"))
        .collect()
}

fn fast_retries() -> SupervisorConfig {
    SupervisorConfig {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..SupervisorConfig::default()
    }
}

#[test]
fn disabled_plan_is_bit_identical_to_the_unsupervised_engine() {
    let profiles = profiles();
    let sim = SimConfig::isca04(30_000);

    let unsupervised = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    let supervised = run_suite_supervised(
        &profiles,
        &Technique::Base,
        &sim,
        &SupervisorConfig::default(),
        &FaultPlan::none(),
    );

    assert!(supervised.report.is_empty(), "no events without a plan");
    assert_eq!(
        supervised.all_results().expect("every app completes"),
        unsupervised.results,
        "FaultPlan::none() must be bit-exact-neutral"
    );
}

#[test]
fn every_fault_class_is_classified_and_transients_recover() {
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);

    // One fault per class: a transient panic (recovers on retry), a
    // persistent numerical fault (retries cannot help), and a transient
    // stall long enough to trip the watchdog once.
    let plan = FaultPlan::none()
        .with_transient_fault(APPS[0], FaultSpec::WorkerPanic)
        .with_persistent_fault(APPS[1], FaultSpec::NumericNan { at_cycle: 1_000 })
        .with_transient_fault(APPS[2], FaultSpec::WorkerStall { millis: 1_500 });
    let sup = SupervisorConfig {
        timeout: Some(Duration::from_secs(1)),
        ..fast_retries()
    };

    let suite = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan);

    // Degradation: exactly the numerically-poisoned app fails; the other
    // two still deliver results.
    assert_eq!(suite.completed(), 2);
    assert!(suite.outcomes[0].is_ok() && suite.outcomes[2].is_ok());
    let failure = suite.outcomes[1].as_ref().expect_err("NaN app fails");
    assert_eq!(failure.kind, FailureKind::Numerical);
    assert_eq!(failure.attempts, sup.max_retries + 1);

    // Classification: each recovery carries the kind of the attempt that
    // failed, not a generic label.
    let kind_for = |app: &str| {
        suite
            .report
            .recoveries
            .iter()
            .find(|r| r.app == app)
            .unwrap_or_else(|| panic!("{app} must recover"))
            .kind
    };
    assert_eq!(kind_for(APPS[0]), FailureKind::Panic);
    assert_eq!(kind_for(APPS[2]), FailureKind::Timeout);

    // Every injection was recorded with its class label.
    let classes: Vec<_> = suite.report.injections.iter().map(|i| i.class).collect();
    for class in ["worker-panic", "numeric-nan", "worker-stall"] {
        assert!(classes.contains(&class), "missing injection class {class}");
    }

    // Recovered apps must match a clean run bit-for-bit: worker faults
    // never perturb results.
    let clean = try_run_suite(&profiles, &Technique::Base, &sim).expect("clean suite");
    assert_eq!(suite.outcomes[0].as_ref().unwrap(), &clean.results[0]);
    assert_eq!(suite.outcomes[2].as_ref().unwrap(), &clean.results[2]);
}

#[test]
fn sensor_faults_are_injected_deterministically() {
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let technique = Technique::Tuning(restune::TuningConfig::isca04_table1(100));
    let plan = FaultPlan::none().with_persistent_fault(
        APPS[0],
        FaultSpec::SensorNoise {
            sigma: 2.0,
            seed: 7,
        },
    );

    let a = run_suite_supervised(&profiles, &technique, &sim, &fast_retries(), &plan);
    let b = run_suite_supervised(&profiles, &technique, &sim, &fast_retries(), &plan);

    assert_eq!(
        a.all_results(),
        b.all_results(),
        "a seeded sensor fault must reproduce bit-exactly"
    );
    assert!(
        a.report
            .injections
            .iter()
            .any(|i| i.class == "sensor-noise"),
        "the sensor fault must be recorded"
    );
    // Un-faulted apps are untouched by a neighbour's sensor fault.
    let clean = try_run_suite(&profiles, &technique, &sim).expect("clean suite");
    assert_eq!(a.outcomes[1].as_ref().unwrap(), &clean.results[1]);
    assert_eq!(a.outcomes[2].as_ref().unwrap(), &clean.results[2]);
}

#[test]
fn interrupted_suite_resumes_bit_exactly() {
    let profiles = profiles();
    let sim = SimConfig::isca04(25_000);
    let dir = std::env::temp_dir().join(format!("restune-ft-resume-{}", std::process::id()));
    let sup = SupervisorConfig {
        resume: true,
        checkpoint_dir: Some(dir.clone()),
        max_retries: 0,
        ..fast_retries()
    };

    // The uninterrupted reference run.
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    // "Interrupt" the suite: a persistent panic takes one app down, so the
    // run ends degraded and leaves its checkpoint on disk.
    let crash_plan = FaultPlan::none().with_persistent_fault(APPS[1], FaultSpec::WorkerPanic);
    let interrupted = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &crash_plan);
    assert_eq!(interrupted.completed(), 2);

    // Worker faults are excluded from the fingerprint (they change whether a
    // run completes, never what it computes), so the clean resume finds the
    // same checkpoint.
    let fp = suite_fingerprint(&profiles, &Technique::Base, &sim, &FaultPlan::none());
    assert_eq!(
        fp,
        suite_fingerprint(&profiles, &Technique::Base, &sim, &crash_plan)
    );
    let path = checkpoint_path(&sup, fp);
    assert!(path.exists(), "a degraded run keeps its checkpoint");

    // Resume without the fault: the two completed apps replay from the
    // checkpoint, the crashed one is simulated, and the total is
    // bit-identical to the uninterrupted reference.
    let resumed = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
    assert_eq!(
        resumed.all_results().expect("resume completes the suite"),
        reference.results
    );
    let replayed: Vec<bool> = resumed
        .metrics
        .iter()
        .map(|m| m.expect("all apps have metrics").replayed)
        .collect();
    assert_eq!(
        replayed,
        vec![true, false, true],
        "checkpointed apps replay; the crashed one re-simulates"
    );
    assert!(
        !path.exists(),
        "a fully successful suite retires its checkpoint"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_resumes_bit_exactly_across_kernel_batch_sizes() {
    // The kernel's supply-flush batch length (`RESTUNE_BATCH`) is pure
    // scheduling: it is deliberately excluded from the checkpoint
    // fingerprint, so a suite checkpointed at one batch size must resume at
    // another and still replay bit-exactly.
    let profiles = profiles();
    let sim = SimConfig::isca04(25_000);
    let dir = std::env::temp_dir().join(format!("restune-ft-batch-{}", std::process::id()));
    let sup = SupervisorConfig {
        resume: true,
        checkpoint_dir: Some(dir.clone()),
        max_retries: 0,
        ..fast_retries()
    };

    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    // Interrupt a run at a tiny batch size, leaving its checkpoint behind.
    let crash_plan = FaultPlan::none().with_persistent_fault(APPS[1], FaultSpec::WorkerPanic);
    let interrupted = restune::testenv::with_env(&[("RESTUNE_BATCH", Some("7"))], || {
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &crash_plan)
    });
    assert_eq!(interrupted.completed(), 2);

    // Resume at a very different batch size: the checkpoint is found (the
    // fingerprint never saw the batch length) and the completed apps replay.
    let resumed = restune::testenv::with_env(&[("RESTUNE_BATCH", Some("1019"))], || {
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none())
    });

    assert_eq!(
        resumed.all_results().expect("resume completes the suite"),
        reference.results,
        "resume across batch sizes must be bit-exact"
    );
    let replayed: Vec<bool> = resumed
        .metrics
        .iter()
        .map(|m| m.expect("all apps have metrics").replayed)
        .collect();
    assert_eq!(
        replayed,
        vec![true, false, true],
        "the checkpoint taken at batch 7 must be honored at batch 1019"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_recorded_baselines_are_discarded_not_trusted() {
    let profiles = profiles();
    let sim = SimConfig::isca04(15_000);
    let results: Vec<_> = try_run_suite(&profiles, &Technique::Base, &sim)
        .expect("suite runs")
        .results;
    let key = base_key(&sim);

    for label in ["truncated", "bit-flipped"] {
        let path = std::env::temp_dir().join(format!(
            "restune-ft-corrupt-{label}-{}.tsv",
            std::process::id()
        ));
        save_baseline(&path, &key, &results).expect("baseline writes");
        let mut bytes = std::fs::read(&path).expect("baseline reads back");
        let mid = bytes.len() / 2;
        if label == "truncated" {
            bytes.truncate(mid);
        } else {
            bytes[mid] ^= 0x10;
        }
        std::fs::write(&path, &bytes).expect("damage lands");

        let loaded = load_baseline(&path, &key).expect("load survives corruption");
        assert!(loaded.is_none(), "{label} baseline must not be trusted");
        assert!(!path.exists(), "{label} baseline must be deleted");
    }
}

#[test]
fn torn_checkpoints_recover_at_row_granularity() {
    // Crash-consistency contract: a checkpoint damaged mid-write loses at
    // most the rows that were actually damaged. A row whose CRC no longer
    // verifies is skipped (only that app re-runs); a structurally torn tail
    // is truncated (the intact prefix replays).
    let profiles = profiles();
    let sim = SimConfig::isca04(25_000);
    let dir = std::env::temp_dir().join(format!("restune-ft-torn-{}", std::process::id()));
    let sup = SupervisorConfig {
        resume: true,
        checkpoint_dir: Some(dir.clone()),
        max_retries: 0,
        ..fast_retries()
    };

    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    let key = suite_key(&profiles, &Technique::Base, &sim, &FaultPlan::none());
    let path = checkpoint_path(&sup, key.fingerprint);
    for (idx, result) in reference.results.iter().enumerate() {
        append_checkpoint(&path, &key, idx, result).expect("checkpoint writes");
    }

    // Damage the file the way a crash would: flip a CRC digit on the middle
    // row, and leave a half-written row dangling at the tail.
    let text = std::fs::read_to_string(&path).expect("checkpoint reads back");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 5, "header, identity row, one row per app");
    let flipped = match lines[3].pop().expect("row is nonempty") {
        '0' => '1',
        _ => '0',
    };
    lines[3].push(flipped);
    let torn = lines[4][..lines[4].len() / 2].to_string();
    lines.push(torn);
    std::fs::write(&path, lines.join("\n")).expect("damage lands");

    // Row-granular recovery: rows 0 and 2 survive, the damaged row 1 does
    // not, and the torn tail never reaches the parser.
    let rows = load_checkpoint(&path, &key, &profiles);
    assert_eq!(
        rows.iter().map(|(idx, _)| *idx).collect::<Vec<_>>(),
        vec![0, 2],
        "only the intact rows may be trusted"
    );
    assert_eq!(rows[0].1, reference.results[0]);
    assert_eq!(rows[1].1, reference.results[2]);

    // A resumed suite replays exactly those rows and re-runs the damaged
    // one, landing bit-identical to the uninterrupted reference.
    let resumed = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
    assert_eq!(
        resumed.all_results().expect("resume completes the suite"),
        reference.results
    );
    let replayed: Vec<bool> = resumed
        .metrics
        .iter()
        .map(|m| m.expect("all apps have metrics").replayed)
        .collect();
    assert_eq!(
        replayed,
        vec![true, false, true],
        "intact rows replay; the damaged row re-simulates"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Not a real test: the process-isolation tests below re-exec this test
/// binary with `worker_shim --exact` as its arguments, turning the libtest
/// run into a restune worker. Without the env gate it is a no-op, so a
/// normal `cargo test` sails through it.
#[test]
fn worker_shim() {
    if std::env::var("RESTUNE_WORKER_SHIM").as_deref() != Ok("1") {
        return;
    }
    std::process::exit(restune::isolation::serve_worker(None, None));
}

/// Environment under which the engine spawns `worker_shim` child processes
/// of this very test binary as its process-isolation tier.
fn with_process_isolation<R>(f: impl FnOnce() -> R) -> R {
    restune::testenv::with_env(
        &[
            ("RESTUNE_ISOLATION", Some("process")),
            ("RESTUNE_WORKER_ARGV", Some("worker_shim --exact")),
            ("RESTUNE_WORKER_SHIM", Some("1")),
        ],
        f,
    )
}

#[test]
fn process_isolated_suite_is_bit_exact() {
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");

    let sup = SupervisorConfig {
        timeout: Some(Duration::from_secs(120)),
        ..fast_retries()
    };
    let isolated = with_process_isolation(|| {
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none())
    });

    assert!(isolated.report.is_clean(), "no failures expected");
    assert_eq!(
        isolated.all_results().expect("every worker replies"),
        reference.results,
        "results crossing the wire must be bit-identical to in-process runs"
    );
}

#[test]
fn hard_crashes_are_contained_by_process_isolation() {
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let dir = std::env::temp_dir().join(format!("restune-ft-crash-{}", std::process::id()));
    let sup = SupervisorConfig {
        resume: true,
        checkpoint_dir: Some(dir.clone()),
        max_retries: 0,
        timeout: Some(Duration::from_secs(120)),
        ..fast_retries()
    };

    // One worker aborts, one SIGKILLs itself. In-process either would take
    // the whole suite down; the process tier must contain both to their
    // slots while the remaining app completes.
    let plan = FaultPlan::none()
        .with_persistent_fault(APPS[0], FaultSpec::WorkerAbort)
        .with_persistent_fault(APPS[2], FaultSpec::WorkerKill);
    let crashed = with_process_isolation(|| {
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &plan)
    });

    assert_eq!(crashed.completed(), 1, "the un-faulted app still completes");
    assert!(crashed.outcomes[1].is_ok());
    let aborted = crashed.outcomes[0].as_ref().expect_err("abort is fatal");
    assert_eq!(aborted.kind, FailureKind::Crash);
    let killed = crashed.outcomes[2].as_ref().expect_err("SIGKILL is fatal");
    assert_eq!(killed.kind, FailureKind::Crash);
    assert!(
        killed.message.contains("signal"),
        "a killed worker must be classified from its signal, got: {}",
        killed.message
    );

    // The crash never reaches the checkpoint: a clean resume replays the
    // completed app, re-runs the crashed ones, and matches an uninterrupted
    // reference bit-for-bit.
    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    let resumed = with_process_isolation(|| {
        run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none())
    });
    assert_eq!(
        resumed.all_results().expect("resume completes the suite"),
        reference.results
    );
    let replayed: Vec<bool> = resumed
        .metrics
        .iter()
        .map(|m| m.expect("all apps have metrics").replayed)
        .collect();
    assert_eq!(
        replayed,
        vec![false, true, false],
        "the completed app replays; the crashed ones re-simulate"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
