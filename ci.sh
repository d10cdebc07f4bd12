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

echo "==> server smoke (restuned: chaos tenants, SIGTERM drain, cache resume)"
# A restuned server with seeded network-fault injection armed serves two
# healthy tenants and two deliberately misbehaving ones concurrently; every
# tenant's deterministic sections must come out bit-identical to in-process
# references. Then SIGTERM lands under load: the server must drain and exit
# 0, and a restart over the same cache directory must serve the persisted
# results back (cache hits, not recomputation).
srv_dir=$(mktemp -d)
sock="$srv_dir/restuned.sock"
RESTUNE_CACHE_DIR="$srv_dir/cache" \
    ./target/release/restuned --socket "$sock" --faults 7 \
    2> "$srv_dir/restuned.log" &
srv_pid=$!
for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "server smoke: restuned did not bind" >&2; exit 1; }

RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json > "$srv_dir/ref_suite.json"
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/table3_tuning -n 8000 --json > "$srv_dir/ref_table3.json"

RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > "$srv_dir/thin_suite.json" &
healthy_a=$!
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/table3_tuning -n 8000 --json --connect "$sock" \
    > "$srv_dir/thin_table3.json" &
healthy_b=$!
RESTUNE_NET_FAULT=disconnect:5 RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > "$srv_dir/fault_disconnect.json" &
chaos_a=$!
RESTUNE_NET_FAULT=truncate:3 RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > "$srv_dir/fault_truncate.json" &
chaos_b=$!
for pid in $healthy_a $healthy_b $chaos_a $chaos_b; do
    wait "$pid" || { echo "server smoke: a tenant exited non-zero" >&2; exit 1; }
done
python3 - "$srv_dir" <<'EOF'
import json, sys
d = sys.argv[1]
load = lambda name: json.load(open(f"{d}/{name}.json"))
ref_suite, ref_table3 = load("ref_suite"), load("ref_table3")
for name in ("thin_suite", "fault_disconnect", "fault_truncate"):
    doc = load(name)
    assert doc["suite_check"] == ref_suite["suite_check"], \
        f"{name}: thin-client suite diverged from the in-process reference"
thin3 = load("thin_table3")
for section in ("table3", "outcomes"):
    assert thin3[section] == ref_table3[section], \
        f"thin_table3: section {section!r} diverged from the reference"
print("server smoke: 4 tenants bit-identical to in-process references")
EOF

# SIGTERM under load: a fresh tenant is mid-suite when the signal lands.
# The server drains (finishing and persisting what was admitted) and must
# exit 0; the interrupted tenant may fail and that is fine — its completed
# jobs live on in the cache.
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > /dev/null 2>&1 &
load_pid=$!
sleep 1
kill -TERM "$srv_pid"
srv_status=0
wait "$srv_pid" || srv_status=$?
[ "$srv_status" -eq 0 ] || {
    echo "server smoke: SIGTERM drain exited $srv_status" >&2
    exit 1
}
grep -q 'restuned: drained' "$srv_dir/restuned.log" || {
    echo "server smoke: no drain summary in the server log" >&2
    exit 1
}
wait "$load_pid" || true

RESTUNE_CACHE_DIR="$srv_dir/cache" \
    ./target/release/restuned --socket "$sock" \
    2> "$srv_dir/restuned2.log" &
srv_pid=$!
for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > "$srv_dir/resumed.json"
kill -TERM "$srv_pid"
srv_status=0
wait "$srv_pid" || srv_status=$?
[ "$srv_status" -eq 0 ] || {
    echo "server smoke: restarted server drain exited $srv_status" >&2
    exit 1
}
python3 - "$srv_dir" <<'EOF'
import json, re, sys
d = sys.argv[1]
resumed = json.load(open(f"{d}/resumed.json"))
reference = json.load(open(f"{d}/ref_suite.json"))
assert resumed["suite_check"] == reference["suite_check"], \
    "post-restart suite diverged from the in-process reference"
log = open(f"{d}/restuned2.log").read()
m = re.search(r"cache_hits=(\d+)", log)
assert m, f"no drain summary in the restarted server log:\n{log}"
assert int(m.group(1)) > 0, \
    "the restarted server recomputed everything instead of serving its persisted cache"
print(f"server smoke: restart served {m.group(1)} cache hits after SIGTERM drain")
EOF

echo "==> mesh chaos smoke (3-host shard mesh: kill -KILL + restart, bit-identical)"
# Three fault-seeded restuned hosts behind one comma-separated --connect
# list. A healthy traced run first learns which host owns the most jobs
# under rendezvous sharding (the per-host mesh counters), then that host is
# SIGKILLed just as a fresh tenant starts and restarted mid-suite. The
# tenant's report must come out bit-identical to the in-process reference,
# and the trace must prove failover actually happened (mesh.reroutes > 0).
mesh_dir=$(mktemp -d)
m0="$mesh_dir/host0.sock"
m1="$mesh_dir/host1.sock"
m2="$mesh_dir/host2.sock"
RESTUNE_CACHE_DIR="$mesh_dir/cache0" ./target/release/restuned --socket "$m0" \
    --faults 7 --mesh-peer "$m1" --mesh-peer "$m2" 2> "$mesh_dir/host0.log" &
mesh_pid0=$!
RESTUNE_CACHE_DIR="$mesh_dir/cache1" ./target/release/restuned --socket "$m1" \
    --faults 8 --mesh-peer "$m0" --mesh-peer "$m2" 2> "$mesh_dir/host1.log" &
mesh_pid1=$!
RESTUNE_CACHE_DIR="$mesh_dir/cache2" ./target/release/restuned --socket "$m2" \
    --faults 9 --mesh-peer "$m0" --mesh-peer "$m1" 2> "$mesh_dir/host2.log" &
mesh_pid2=$!
for _ in $(seq 50); do
    [ -S "$m0" ] && [ -S "$m1" ] && [ -S "$m2" ] && break
    sleep 0.1
done
[ -S "$m0" ] && [ -S "$m1" ] && [ -S "$m2" ] || {
    echo "mesh smoke: a restuned host did not bind" >&2; exit 1; }

RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json > "$mesh_dir/reference.json"
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$m0,$m1,$m2" \
    --trace-out "$mesh_dir/healthy.jsonl" > "$mesh_dir/healthy.json"
./target/release/trace_report --check "$mesh_dir/healthy.jsonl" > /dev/null
victim=$(python3 - "$mesh_dir/healthy.jsonl" <<'EOF'
import json, sys
jobs = {}
for line in open(sys.argv[1]):
    if not line.strip():
        continue
    e = json.loads(line)
    if e.get("kind") == "counter" and e.get("name", "").startswith("mesh.host") \
            and e["name"].endswith(".jobs"):
        host = int(e["name"][len("mesh.host"):-len(".jobs")])
        jobs[host] = jobs.get(host, 0) + int(e["value"])
assert jobs, "healthy mesh run recorded no per-host job counters"
print(max(jobs, key=lambda h: jobs[h]))
EOF
)
case "$victim" in
    0) victim_pid=$mesh_pid0; victim_sock=$m0; victim_seed=7 ;;
    1) victim_pid=$mesh_pid1; victim_sock=$m1; victim_seed=8 ;;
    2) victim_pid=$mesh_pid2; victim_sock=$m2; victim_seed=9 ;;
    *) echo "mesh smoke: bogus victim index '$victim'" >&2; exit 1 ;;
esac

RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$m0,$m1,$m2" \
    --trace-out "$mesh_dir/chaos.jsonl" > "$mesh_dir/chaos.json" &
tenant_pid=$!
kill -KILL "$victim_pid"
wait "$victim_pid" 2>/dev/null || true
sleep 0.5
RESTUNE_CACHE_DIR="$mesh_dir/cache$victim" ./target/release/restuned \
    --socket "$victim_sock" --faults "$victim_seed" \
    2> "$mesh_dir/host$victim.restart.log" &
restarted_pid=$!
wait "$tenant_pid" || { echo "mesh smoke: tenant exited non-zero" >&2; exit 1; }
./target/release/trace_report --check "$mesh_dir/chaos.jsonl" > /dev/null
python3 - "$mesh_dir" <<'EOF'
import json, sys
d = sys.argv[1]
reference = json.load(open(f"{d}/reference.json"))
for name in ("healthy", "chaos"):
    doc = json.load(open(f"{d}/{name}.json"))
    assert doc["suite_check"] == reference["suite_check"], \
        f"{name}: mesh suite diverged from the in-process reference"
reroutes = 0
for line in open(f"{d}/chaos.jsonl"):
    if not line.strip():
        continue
    e = json.loads(line)
    if e.get("kind") == "counter" and e.get("name") == "mesh.reroutes":
        reroutes += int(e["value"])
assert reroutes > 0, "a SIGKILLed home host must force failover reroutes"
print(f"mesh smoke: kill+restart bit-identical, {reroutes} failover reroutes")
EOF
case "$victim" in
    0) mesh_pid0=$restarted_pid ;;
    1) mesh_pid1=$restarted_pid ;;
    2) mesh_pid2=$restarted_pid ;;
esac
for pid in $mesh_pid0 $mesh_pid1 $mesh_pid2; do
    kill -TERM "$pid"
    wait "$pid" || { echo "mesh smoke: a host failed to drain" >&2; exit 1; }
done
grep -q 'probes=' "$mesh_dir"/host*.log || {
    echo "mesh smoke: drain summary lost its probes counter" >&2; exit 1; }

echo "==> sweep smoke (grid sweep: store sharing, frontier byte-identity, mesh)"
# The same small grid runs once per execution path against fresh caches —
# local, and through a restuned host (--connect; the scaled-PDN points fall
# back to local execution by design) — and the Pareto frontier must come
# out byte-identical from both.
# A repeat run over the first cache must then serve every previously
# computed run from the content-addressed store (hits == runs in the
# --json store section), reproducing the frontier without simulating.
# The sweep trace must pass the trace_report --check schema gate, which
# validates the sweep-point / frontier-point / sweep-end event shapes.
sweep_dir=$(mktemp -d)
sweep_grid="--grid pdn=1.0,1.5 --grid tuning=75,100"
RESTUNE_CACHE_DIR="$sweep_dir/local" ./target/release/sweep -n 8000 \
    $sweep_grid --json --trace-out "$sweep_dir/sweep.jsonl" \
    > "$sweep_dir/local.json"
./target/release/trace_report --check "$sweep_dir/sweep.jsonl" > /dev/null
sweep_sock="$sweep_dir/restuned.sock"
RESTUNE_CACHE_DIR="$sweep_dir/server-cache" \
    ./target/release/restuned --socket "$sweep_sock" \
    2> "$sweep_dir/restuned.log" &
sweep_srv=$!
for _ in $(seq 50); do [ -S "$sweep_sock" ] && break; sleep 0.1; done
[ -S "$sweep_sock" ] || { echo "sweep smoke: restuned did not bind" >&2; exit 1; }
RESTUNE_CACHE_DIR="$sweep_dir/mesh" ./target/release/sweep -n 8000 \
    $sweep_grid --json --connect "$sweep_sock" > "$sweep_dir/mesh.json"
kill -TERM "$sweep_srv"
wait "$sweep_srv" || { echo "sweep smoke: restuned failed to drain" >&2; exit 1; }
RESTUNE_CACHE_DIR="$sweep_dir/local" ./target/release/sweep -n 8000 \
    $sweep_grid --json > "$sweep_dir/replay.json"
python3 - "$sweep_dir" <<'EOF'
import json, sys
d = sys.argv[1]
load = lambda name: json.load(open(f"{d}/{name}.json"))
local, mesh, replay = (load(n) for n in ("local", "mesh", "replay"))
for name, doc in (("mesh", mesh), ("replay", replay)):
    assert doc["frontier"] == local["frontier"], \
        f"{name}: Pareto frontier diverged from the local run"
    assert doc["sweep"] == local["sweep"], \
        f"{name}: sweep points diverged from the local run"
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
      f"frontier, byte-identical across local/mesh, "
      f"{store['store_hits']} store-served on replay")
EOF

echo "==> tier-1 green"
