//! Sweep tier: the parameter-grid driver must share every individual run
//! between overlapping sweeps through the content-addressed store, resume
//! an interrupted sweep bit-identically through the checkpoint machinery,
//! and never let a fingerprint collision smuggle a wrong result in. The
//! paper's table drivers read and fill the same store through the same
//! supervised suite path.

use restune::engine::CacheKey;
use restune::experiment::{run_suite_policed, table3_supervised};
use restune::testenv::with_env;
use restune::{
    run, run_key, run_sweep, sim_for, FaultPlan, FaultSpec, GridSpec, RunPolicy, RunStore,
    SimConfig, SupervisorConfig, Technique, TuningConfig,
};
use workloads::{corpus, spec2k};

fn grid(pairs: &[(&str, &str)], instructions: u64) -> GridSpec {
    let pairs: Vec<(String, String)> = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    GridSpec::parse(&pairs, instructions).expect("test grid parses")
}

fn scratch(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("restune-sweep-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn overlapping_sweeps_share_every_run_and_reproduce_the_frontier() {
    let dir = scratch("overlap");
    let store = RunStore::open(dir.clone());
    let policy = RunPolicy::default();
    // The corpus class keeps the suites small; two technique axes give the
    // frontier real trade-offs to rank.
    let spec = grid(
        &[
            ("workloads", "corpus"),
            ("tuning", "100"),
            ("damping", "1.0"),
        ],
        8_000,
    );

    let first = run_sweep(&spec, &policy, &store).expect("first sweep runs");
    assert!(first.runs > 0);
    assert_eq!(first.store_hits, 0, "a fresh store cannot hit");
    assert_eq!(first.store_misses, first.runs);

    // The identical sweep again: every previously-computed run must be
    // served from the store, and the frontier must replay byte-identically
    // (PartialEq on the points compares every float bit-exactly, since
    // store rows round-trip through to_bits).
    let second = run_sweep(&spec, &policy, &store).expect("second sweep runs");
    assert_eq!(second.store_hits, second.runs, "every run is store-served");
    assert_eq!(second.store_misses, 0);
    assert_eq!(second.points, first.points, "frontier replays bit-exactly");

    // A *widened* sweep shares the overlap and simulates only the new axis
    // value.
    let wider = grid(
        &[
            ("workloads", "corpus"),
            ("tuning", "75,100"),
            ("damping", "1.0"),
        ],
        8_000,
    );
    let third = run_sweep(&wider, &policy, &store).expect("widened sweep runs");
    assert_eq!(third.store_hits, first.runs, "the overlap is store-served");
    assert_eq!(
        third.store_misses,
        third.runs - first.runs,
        "only the new tuning point simulates"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let store_dir = scratch("resume-store");
    let ckpt_dir = scratch("resume-ckpt");
    let store = RunStore::open(store_dir.clone());
    let spec = grid(&[("workloads", "corpus"), ("tuning", "100")], 8_000);
    let supervisor = SupervisorConfig {
        resume: true,
        checkpoint_dir: Some(ckpt_dir.clone()),
        max_retries: 0,
        ..SupervisorConfig::default()
    };

    // The reference outcome, computed with its own store.
    let reference_dir = scratch("resume-reference");
    let reference = run_sweep(
        &spec,
        &RunPolicy::default(),
        &RunStore::open(reference_dir.clone()),
    )
    .expect("reference sweep runs");

    // "Interrupt" the sweep: a persistent worker crash in one corpus app
    // fails every suite that reaches it, leaving the other apps'
    // checkpointed rows behind.
    let crashing = RunPolicy {
        supervisor: supervisor.clone(),
        plan: FaultPlan::none().with_persistent_fault("quicksort", FaultSpec::WorkerPanic),
    };
    let interrupted = run_sweep(&spec, &crashing, &store);
    assert!(
        interrupted.is_err(),
        "a crashed suite must surface an error"
    );
    let checkpoints = std::fs::read_dir(&ckpt_dir)
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert!(checkpoints > 0, "the interrupted suite left its checkpoint");

    // The clean re-run resumes: checkpointed apps replay, the crashed one
    // re-simulates, and the outcome matches the uninterrupted reference
    // bit-for-bit.
    let resuming = RunPolicy {
        supervisor,
        plan: FaultPlan::none(),
    };
    let resumed = run_sweep(&spec, &resuming, &store).expect("resumed sweep completes");
    assert_eq!(resumed.points, reference.points, "resume is bit-identical");

    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

#[test]
fn forced_store_collision_is_a_miss_never_a_wrong_result() {
    let dir = scratch("collision");
    let store = RunStore::open(dir.clone());
    let profile = spec2k::by_name("gzip").expect("gzip is in the suite");
    let sim = SimConfig::isca04(4_000);
    let result = run(&profile, &Technique::Base, &sim);
    let key = run_key(&profile, &Technique::Base, &sim);
    store.put(&key, &result).expect("store records the run");

    // Forge a 64-bit fingerprint collision: same fingerprint, different
    // configuration identity. The identity row must catch it — a miss,
    // never the other configuration's result.
    let impostor = CacheKey {
        fingerprint: key.fingerprint,
        identity: format!("{}|other-config", key.identity),
    };
    assert_eq!(store.get(&impostor), None, "collision must read as a miss");
    assert_eq!(
        store.get(&key),
        Some(result),
        "the rightful record survives the collision probe"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn no_retries(plan: FaultPlan) -> RunPolicy {
    RunPolicy {
        supervisor: SupervisorConfig {
            max_retries: 0,
            ..SupervisorConfig::default()
        },
        plan,
    }
}

fn records(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map(|e| e.count()).unwrap_or(0)
}

#[test]
fn table_driver_rerun_is_served_from_the_store_bit_identically() {
    let dir = scratch("table-rerun");
    let store = RunStore::open(dir.clone());
    let sim = SimConfig::isca04(3_000);
    let clean = RunPolicy::none();
    let base = run_suite_policed(&spec2k::all(), &Technique::Base, &sim, &clean, "base", None);

    let (reference, _) = table3_supervised(&sim, &[100], &base, &clean, None);
    let (cold, _) = table3_supervised(&sim, &[100], &base, &clean, Some(&store));
    assert_eq!(cold, reference, "recording must not change the rows");
    assert_eq!(records(&dir), spec2k::all().len());

    // Every application panics if it is simulated, so the rerun completes
    // only if the store serves every technique run.
    let panicking = no_retries(spec2k::all().iter().fold(FaultPlan::none(), |plan, p| {
        plan.with_persistent_fault(p.name, FaultSpec::WorkerPanic)
    }));
    let (warm, reports) = table3_supervised(&sim, &[100], &base, &panicking, Some(&store));
    assert!(
        reports.iter().all(|r| r.is_empty()),
        "the rerun simulated something: {reports:?}"
    );
    assert_eq!(warm, reference, "store-served rows are bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_app_does_not_cost_its_suite_the_other_records() {
    let dir = scratch("partial");
    let store = RunStore::open(dir.clone());
    let spec = grid(&[("workloads", "corpus")], 8_000);
    let crashing =
        no_retries(FaultPlan::none().with_persistent_fault("quicksort", FaultSpec::WorkerPanic));
    assert!(run_sweep(&spec, &crashing, &store).is_err());

    let sim = sim_for(1.0, 8_000).expect("the paper's PDN is valid");
    for p in corpus::all() {
        let stored = store.get(&run_key(&p, &Technique::Base, &sim));
        assert_eq!(
            stored.is_some(),
            p.name != "quicksort",
            "{}: every completed run of the failed suite is recorded",
            p.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_perturbing_faults_bypass_the_store() {
    let dir = scratch("perturbed");
    let store = RunStore::open(dir.clone());
    let profiles: Vec<_> = spec2k::all().into_iter().take(2).collect();
    let sim = SimConfig::isca04(3_000);
    let technique = Technique::Tuning(TuningConfig::isca04_table1(100));
    let noisy = no_retries(FaultPlan::none().with_persistent_fault(
        profiles[0].name,
        FaultSpec::SensorNoise {
            sigma: 0.5,
            seed: 7,
        },
    ));

    let perturbed = run_suite_policed(&profiles, &technique, &sim, &noisy, "t", Some(&store));
    assert_eq!(perturbed.completed(), profiles.len());
    assert_eq!(records(&dir), 0, "a perturbed suite records nothing");

    // Nor do clean records mask the injected fault.
    let clean = RunPolicy::none();
    run_suite_policed(&profiles, &technique, &sim, &clean, "t", Some(&store));
    assert_eq!(records(&dir), profiles.len());
    let again = run_suite_policed(&profiles, &technique, &sim, &noisy, "t", Some(&store));
    assert_eq!(again.store_hits, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_storeless_path_creates_no_store() {
    let dir = scratch("storeless");
    let profiles: Vec<_> = spec2k::all().into_iter().take(2).collect();
    let sim = SimConfig::isca04(3_000);
    let technique = Technique::Tuning(TuningConfig::isca04_table1(100));
    let cache = dir.to_str().expect("temp dir is UTF-8");
    let suite = with_env(&[("RESTUNE_CACHE_DIR", Some(cache))], || {
        run_suite_policed(&profiles, &technique, &sim, &RunPolicy::none(), "t", None)
    });
    assert_eq!(suite.completed(), profiles.len());
    assert!(!dir.join("store").exists(), "no store without a RunStore");
    let _ = std::fs::remove_dir_all(&dir);
}
