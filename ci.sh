#!/usr/bin/env sh
# Tier-1 gate: formatting, lints, build, full test suite.
# Fully offline — the workspace vendors its few dependencies as path crates,
# so no step here touches the network.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> RISC-V conformance tier (explicit rerun of the frontend gate)"
# Already part of the workspace test run above; rerun by name so a frontend
# regression is unmistakable in the CI log rather than buried in the suite.
cargo test -q --offline --test riscv_frontend

echo "==> corpus smoke (RV32IM corpus on both engine paths, bit-identical)"
# The corpus apps are assembled from source and executed at harness start,
# then run through the noise model on the fused kernel (default) and the
# per-cycle reference loop (RESTUNE_KERNEL=off). Every deterministic report
# section must be bit-identical across the two engine paths; run_metrics
# carries wall times and is excluded.
corpus_dir=$(mktemp -d)
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/table3_riscv -n 20000 --json > "$corpus_dir/fused.json"
RESTUNE_CACHE_DIR="$(mktemp -d)" RESTUNE_KERNEL=off \
    ./target/release/table3_riscv -n 20000 --json > "$corpus_dir/reference.json"
python3 - "$corpus_dir/fused.json" "$corpus_dir/reference.json" <<'EOF'
import json, sys
fused, reference = (json.load(open(p)) for p in sys.argv[1:])
apps = [r["app"] for r in fused["programs"]]
assert len(apps) >= 2, f"corpus smoke: expected several corpus apps, got {apps}"
for section in ("programs", "table3_riscv", "techniques", "outcomes"):
    assert fused[section] == reference[section], \
        f"corpus smoke: section {section!r} differs between engine paths"
viol = {r["app"]: r["violation_cycles"] for r in fused["run_metrics"]}
assert viol.get("resonance", 0) > 0, \
    f"corpus smoke: resonance must violate on the base machine: {viol}"
assert all(v == 0 for a, v in viol.items() if a != "resonance"), \
    f"corpus smoke: only resonance may violate on the base machine: {viol}"
print(f"corpus ok: {len(apps)} programs bit-identical across engine paths")
EOF

echo "==> fault-injection smoke (seeded plan, degraded run must exit 0)"
# Seed 42 injects at least one fault across the suite (pinned by the
# seeded_plan_injects_somewhere_across_a_suite unit test). The degraded run
# must still exit 0 and its JSON must carry a populated failures section.
smoke_out=$(RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --faults 42 --timeout 60 --json)
echo "$smoke_out" | grep -q '"failures"' || {
    echo "fault smoke: no failures section in --json output" >&2
    exit 1
}
echo "$smoke_out" | grep -q '"injected"' || {
    echo "fault smoke: seeded plan injected nothing" >&2
    exit 1
}

echo "==> chaos smoke (process isolation: abort + SIGKILL workers, bit-exact resume)"
# Two workers die hard — one aborts, one SIGKILLs itself. Under
# RESTUNE_ISOLATION=process the suite must contain both crashes to their
# slots and exit 0 (the plan is enabled, so the failures are the
# experiment). A second invocation against the same cache dir resumes the
# checkpoint, heals the crashed applications, and must be bit-identical to
# an uninterrupted reference run against a fresh cache.
chaos_dir=$(mktemp -d)
ref_dir=$(mktemp -d)
RESTUNE_CACHE_DIR="$chaos_dir" RESTUNE_ISOLATION=process \
    ./target/release/suite_check -n 20000 --timeout 60 --resume --json \
    --fault mcf=abort --fault swim=kill > "$chaos_dir/chaos.json"
RESTUNE_CACHE_DIR="$chaos_dir" RESTUNE_ISOLATION=process \
    ./target/release/suite_check -n 20000 --timeout 60 --resume --json \
    > "$chaos_dir/resumed.json"
RESTUNE_CACHE_DIR="$ref_dir" \
    ./target/release/suite_check -n 20000 --timeout 60 --resume --json \
    > "$ref_dir/reference.json"
python3 - "$chaos_dir/chaos.json" "$chaos_dir/resumed.json" "$ref_dir/reference.json" <<'EOF'
import json, sys
chaos, resumed, reference = (json.load(open(p)) for p in sys.argv[1:])
failed = [r for r in chaos["failures"] if r["event"] == "failed"]
assert failed, "chaos run recorded no terminal failures"
assert {r["app"] for r in failed} == {"mcf", "swim"}, failed
assert {r["kind"] for r in failed} == {"crash"}, failed
surviving = {r["app"] for r in chaos["suite_check"]}
assert surviving, "every other application must still complete"
assert not {"mcf", "swim"} & surviving, surviving
assert not [r for r in resumed["failures"] if r["event"] == "failed"], \
    "the resumed run must heal the crashed applications"
replays = sum(1 for r in resumed["run_metrics"] if r["replayed"])
assert replays, "the resumed run must replay checkpointed applications"
assert resumed["suite_check"] == reference["suite_check"], \
    "resumed suite must be bit-identical to an uninterrupted reference"
print(f"chaos ok: {len(failed)} contained crashes, {replays} replayed rows")
EOF

echo "==> trace smoke (traced suite bit-identical, schema-valid, windows present)"
# A traced run must be pure observation: the "suite_check" section (the
# deterministic simulation results) must be bit-identical to an untraced
# reference. run_metrics wall-time fields differ between ANY two runs, so
# the comparison targets the simulation section only. The trace itself must
# pass trace_report --check (the schema gate) and carry waveform windows —
# at this budget the base machine violates, so windows are guaranteed.
trace_dir=$(mktemp -d)
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --timeout 60 --json \
    --trace-out "$trace_dir/trace.jsonl" > "$trace_dir/traced.json"
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --timeout 60 --json \
    > "$trace_dir/reference.json"
./target/release/trace_report --check "$trace_dir/trace.jsonl" > /dev/null
python3 - "$trace_dir/traced.json" "$trace_dir/reference.json" "$trace_dir/trace.jsonl" <<'EOF'
import json, sys
traced, reference = (json.load(open(p)) for p in sys.argv[1:3])
assert traced["suite_check"] == reference["suite_check"], \
    "tracing changed simulation results"
kinds = set()
with open(sys.argv[3]) as f:
    lines = [json.loads(l) for l in f if l.strip()]
assert lines, "traced run emitted no events"
kinds = {l["kind"] for l in lines}
for k in ("suite-start", "run-start", "violation", "waveform", "run-end",
          "suite-end", "counter"):
    assert k in kinds, f"trace missing {k!r} events: {sorted(kinds)}"
windows = [l for l in lines if l["kind"] == "waveform"]
assert all(l["samples"] for l in windows), "empty waveform window"
simulated = [r for r in traced["run_metrics"] if not r["replayed"]]
assert simulated, "traced suite simulated no runs"
unphased = [r["app"] for r in simulated if not r["phase_cpu_seconds"] > 0]
assert not unphased, f"simulated rows without phase timings: {unphased}"
print(f"trace ok: {len(lines)} events, {len(windows)} waveform windows, "
      f"{len(simulated)} simulated rows with phase timings")
EOF

echo "==> warm rerun smoke (a repeated harness is served from the run store)"
# The second table3_tuning over the same cache directory must print the
# same table and outcomes as the first while simulating no technique run:
# the trace's store counters show all 26 x 6 technique runs (five response
# times plus the delayed design point) served from the run store.
warm_dir=$(mktemp -d)
RESTUNE_CACHE_DIR="$warm_dir/cache" \
    ./target/release/table3_tuning -n 20000 --json > "$warm_dir/cold.json"
RESTUNE_CACHE_DIR="$warm_dir/cache" \
    ./target/release/table3_tuning -n 20000 --json \
    --trace-out "$warm_dir/warm.jsonl" > "$warm_dir/warm.json"
python3 - "$warm_dir" <<'EOF'
import json, sys
d = sys.argv[1]
cold, warm = (json.load(open(f"{d}/{n}.json")) for n in ("cold", "warm"))
for section in ("table3", "outcomes"):
    assert cold[section] == warm[section], \
        f"warm rerun: section {section!r} differs from the cold run"
counters = {}
for line in open(f"{d}/warm.jsonl"):
    e = json.loads(line) if line.strip() else {}
    if e.get("kind") == "counter":
        counters[e["name"]] = counters.get(e["name"], 0) + int(e["value"])
hits, misses = counters.get("store.hits", 0), counters.get("store.misses", 0)
assert hits == 26 * 6, f"warm rerun: {hits} store hits, expected {26 * 6}"
assert misses == 0, f"warm rerun: {misses} store misses"
print(f"warm rerun ok: {hits} technique runs served from the store, 0 simulated")
EOF

echo "==> kernel bench smoke (--test mode + BENCH_kernel.json schema)"
# The kernel bench in --test mode runs each benchmark body once on shrunk
# workloads and still writes its JSON document (to a scratch path here, so
# the committed full-scale BENCH_kernel.json is not overwritten). The
# validator guards the schema only — numbers vary by machine, the shape
# must not.
smoke_json="$(mktemp -d)/BENCH_kernel.json"
RESTUNE_BENCH_OUT="$smoke_json" cargo bench -q --bench kernel --offline -- --test
python3 - "$smoke_json" BENCH_kernel.json <<'EOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == "restune-kernel-bench-v3", \
        f"{path}: schema drift: {doc.get('schema')!r}"
    for key in ("mode", "batch_size", "benchmarks", "table3_suite"):
        assert key in doc, f"{path}: missing top-level key {key!r}"
    assert doc["benchmarks"], f"{path}: no benchmark rows"
    for row in doc["benchmarks"]:
        for key in ("name", "path", "instructions_per_run", "runs", "cycles",
                    "wall_seconds", "ns_per_cycle", "cycles_per_second"):
            assert key in row, f"{path}: benchmark row missing {key!r}"
    suite = doc["table3_suite"]
    for key in ("apps", "instructions_per_app",
                "fused_wall_seconds", "fused_cycles_per_second",
                "reference_wall_seconds", "reference_cycles_per_second",
                "speedup_cycles_per_second"):
        assert key in suite, f"{path}: table3_suite missing {key!r}"
    print(f"{path}: schema ok ({doc['mode']} mode)")
EOF

echo "==> sweep smoke (grid sweep: store sharing, frontier byte-identity)"
# A small grid runs against a fresh cache. A repeat run over the same cache
# must then serve every previously computed run from the content-addressed
# store (hits == runs in the --json store section) and reproduce the sweep
# points and the Pareto frontier byte for byte without simulating.
# The sweep trace must pass the trace_report --check schema gate, which
# validates the sweep-point / frontier-point / sweep-end event shapes.
sweep_dir=$(mktemp -d)
sweep_grid="--grid pdn=1.0,1.5 --grid tuning=75,100"
RESTUNE_CACHE_DIR="$sweep_dir/local" ./target/release/sweep -n 8000 \
    $sweep_grid --json --trace-out "$sweep_dir/sweep.jsonl" \
    > "$sweep_dir/local.json"
./target/release/trace_report --check "$sweep_dir/sweep.jsonl" > /dev/null
RESTUNE_CACHE_DIR="$sweep_dir/local" ./target/release/sweep -n 8000 \
    $sweep_grid --json > "$sweep_dir/replay.json"
python3 - "$sweep_dir" <<'EOF'
import json, sys
d = sys.argv[1]
load = lambda name: json.load(open(f"{d}/{name}.json"))
local, replay = (load(n) for n in ("local", "replay"))
assert replay["frontier"] == local["frontier"], \
    "replay: Pareto frontier diverged from the local run"
assert replay["sweep"] == local["sweep"], \
    "replay: sweep points diverged from the local run"
assert local["frontier"], "sweep produced an empty frontier"
store = replay["store"][0]
assert store["store_hits"] == store["runs"] and store["store_misses"] == 0, \
    f"replay must serve every run from the store: {store}"
first_store = local["store"][0]
assert first_store["store_hits"] == 0, \
    f"a fresh cache cannot hit the store: {first_store}"
kinds = {json.loads(l)["kind"] for l in open(f"{d}/sweep.jsonl") if l.strip()}
for k in ("sweep-start", "sweep-point", "frontier-point", "sweep-end"):
    assert k in kinds, f"sweep trace missing {k!r} events: {sorted(kinds)}"
print(f"sweep ok: {len(local['sweep'])} points, {len(local['frontier'])} on the "
      f"frontier, byte-identical on replay, "
      f"{store['store_hits']} store-served on replay")
EOF

echo "==> tier-1 green"
