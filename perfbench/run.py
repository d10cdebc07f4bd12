#!/usr/bin/env python3
"""The repository benchmark: cold and warm paper reproduction plus a short sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from anywhere inside a checkout of the repository. The benchmark builds
the harness binaries and its own probe program (`perfbench/src/main.rs`)
into `$CARGO_TARGET_DIR` (default `.bench_build/`) and keeps every cache
directory it uses under `.bench_work/`.

Workloads (see perfbench/README.md for why each exists):

  repro_cold   table3_tuning, table4_sensor, table5_damping in that order,
               each a fresh process, against an empty cache directory
  repro_warm   the same three against a copy of the cache directory an
               untimed repro_cold pass left behind
  sweep_short  the `sweep` bin over spec2k+corpus, three PDN scales, two
               tuning points, one sensor and one damping point, at ~20k
               instructions per run, against an empty run store

With --trace 0 a run times whole passes of the workload as fresh processes
(the end-to-end metrics). With --trace 1 it runs one untimed pass for the
exact serving counts, then the traced in-process replay (`perfbench trace`)
for the per-layer metrics. Every run checks the outputs; the last line of
standard output is one JSON object, and the exit code is 1 if a check
failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("repro_cold", "repro_warm", "sweep_short")
HARNESSES = ("table3_tuning", "table4_sensor", "table5_damping")
CANONICAL_SEED = 0

# Set-up probes per run (fresh processes): at least the first number, and
# more while they have taken less than the given seconds, up to the last.
# The median is reported.
SETUP_PROBES = (5, 3.0, 30)
# Longest any one child process may take before it is killed.
CHILD_TIMEOUT_S = 150
# The per-layer closure check: the layers must sum to the kernel's time
# per cycle within this share of it, per technique.
CLOSURE_SLACK = 0.25

# Paper constants for the fidelity figures, transcribed from EXPERIMENTS.md.
# Table 2 ("Table 2 — application classification"): the twelve SPEC2K
# applications the paper found violating on the base machine; the other
# fourteen are clean.
PAPER_VIOLATING = {
    "applu", "art", "bzip", "crafty", "facerec", "gcc",
    "lucas", "mcf", "mgrid", "parser", "swim", "wupwise",
}
# Figure 5 ("Figure 5 — technique comparison"): relative energy-delay of
# design points A-F, each keyed by the harness table and row that
# measures it.
PAPER_FIG5 = {
    "A": ("table3", "initial_response_time", 75, 1.052),
    "B": ("table3", "initial_response_time", 100, 1.057),
    "C": ("table4", "sensor", (20, 10, 5), 1.19),
    "D": ("table4", "sensor", (20, 15, 3), 1.46),
    "E": ("table5", "delta_relative", 0.5, 1.17),
    "F": ("table5", "delta_relative", 0.25, 1.26),
}

# Harness --json columns that measure the host, not the simulation, and the
# columns that say which store served a run. Neither enters an output
# digest, so cold and warm passes must digest identically.
HOST_COLUMNS = {
    "wall_seconds", "sim_cycles_per_second", "phase_controller_seconds",
    "phase_cpu_seconds", "phase_power_seconds", "phase_supply_seconds",
}
SERVING_COLUMNS = {"replayed", "base_cache_hits", "base_cache_misses"}


class ChildFailed(Exception):
    """A child process failed or timed out: the runs it owned failed."""


def mix(seed, salt):
    """SplitMix64 of (seed, salt): the benchmark's seeded choices."""
    z = (seed * 0x9E3779B97F4A7C15 + salt * 0xD1B54A32D192ED03 + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def inputs(workload, seed):
    """The generated inputs of one run. The canonical seed gives the
    paper's inputs (120k instructions per run) and the canonical sweep;
    other seeds move the per-run budget and the sweep's axis values a
    little, keeping the amount of work close to the canonical one."""
    canonical = seed == CANONICAL_SEED
    pick = lambda salt, options: options[0] if canonical else options[mix(seed, salt) % len(options)]
    if workload.startswith("repro"):
        return {"instructions": 120_000 + 500 * pick(1, (0, -2, -1, 1, 2))}
    grid = {
        "workloads": "spec2k,corpus",
        "pdn": "1.0," + pick(2, ("1.25,1.5", "1.2,1.5", "1.3,1.5", "1.25,1.45", "1.25,1.55")),
        "tuning": pick(3, ("75,100", "75,110", "80,100", "70,100", "75,90")),
        "sensor": pick(4, ("20:10:5", "21:10:5", "19:10:5", "20:10:4", "20:10:6")),
        "damping": pick(5, ("0.5", "0.55", "0.45", "0.52", "0.48")),
        "instructions": str(20_000 + 250 * pick(6, (0, -2, -1, 1, 2))),
    }
    return {"instructions": int(grid["instructions"]), "grid": grid}


def grid_args(grid):
    return [arg for key, value in grid.items() for arg in ("--grid", f"{key}={value}")]


# ---------------------------------------------------------------------------
# Processes


def run_child(argv, env=None, stdout_path=None, timeout=CHILD_TIMEOUT_S):
    """Runs one child to completion; returns (rusage, stdout).
    Stdout goes to `stdout_path` when given, else it is captured."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.PIPE
    try:
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.PIPE, cwd=ROOT)
    finally:
        if stdout_path:
            out.close()
    # Drain both pipes on threads so a chatty child never blocks, and reap
    # with wait4 for the child's own rusage.
    chunks = {"out": [], "err": []}
    readers = [threading.Thread(target=lambda: chunks["err"].append(proc.stderr.read()))]
    if not stdout_path:
        readers.append(threading.Thread(target=lambda: chunks["out"].append(proc.stdout.read())))
    for r in readers:
        r.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    stderr = b"".join(chunks["err"]).decode(errors="replace")
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{Path(argv[0]).name} exited with {proc.returncode}: {' | '.join(tail)}")
    stdout = b"".join(chunks["out"]).decode() if not stdout_path else None
    return usage, stdout


def build():
    """Builds the four harness binaries and the probe program; returns
    the release directory."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit(f"error: {ROOT} is not a checkout of the repository (no Cargo.toml or crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    bins = [a for h in (*HARNESSES, "sweep") for a in ("--bin", h)]
    for argv in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml", "-p", "bench", *bins],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(argv, env=env, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"error: build failed: {' '.join(argv)}")
    return target / "release"


# ---------------------------------------------------------------------------
# One pass


def strip(doc):
    return {
        section: [{k: v for k, v in row.items() if k not in HOST_COLUMNS | SERVING_COLUMNS} for row in rows]
        for section, rows in doc.items()
    }


def digest(docs):
    h = hashlib.sha256()
    for name, doc in docs:
        h.update(name.encode())
        h.update(json.dumps(strip(doc), sort_keys=True).encode())
    return h.hexdigest()[:16]


def run_pass(bins, workload, inp, cache):
    """One pass of the workload, each harness a fresh process with
    RESTUNE_CACHE_DIR=cache. Returns timings, outputs and serving counts."""
    env = dict(os.environ, RESTUNE_CACHE_DIR=str(cache))
    if workload == "sweep_short":
        commands = [("sweep", [str(bins / "sweep"), *grid_args(inp["grid"]), "--json"])]
    else:
        n = str(inp["instructions"])
        commands = [(h, [str(bins / h), "--instructions", n, "--json"]) for h in HARNESSES]
    cache.mkdir(parents=True, exist_ok=True)
    # Write back what earlier passes left dirty, so that a pass's own
    # syncs (the run store syncs every record) do not wait for it.
    os.sync()
    docs, cpu, rss = [], 0.0, 0
    start = time.perf_counter()
    for name, argv in commands:
        out = cache.parent / f"{cache.name}.{name}.json"
        usage, _ = run_child(argv, env=env, stdout_path=out)
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss)
        docs.append((name, out))
    wall = time.perf_counter() - start
    parsed = []
    for name, out in docs:
        try:
            parsed.append((name, json.loads(out.read_text())))
        except ValueError as e:
            raise ChildFailed(f"{name} printed invalid JSON: {e}")
        out.unlink()
    result = {"pass_s": wall, "cpu_s": cpu, "peak_rss_mb": rss / 1024.0, "docs": parsed, "digest": digest(parsed)}
    result.update(serving(workload, inp, parsed, cache))
    return result


def inputs_expected(workload, inp):
    """The number of runs one pass of the workload attempts."""
    if workload != "sweep_short":
        return 26 * (7 + 6 + 4)  # base + Table 3's six, Table 4's five, Table 5's three
    g = inp["grid"]
    profiles = {"spec2k": 26, "corpus": 6}
    techniques = 1 + sum(len(g[k].split(",")) for k in ("tuning", "sensor", "damping"))
    return sum(profiles[c] for c in g["workloads"].split(",")) * len(g["pdn"].split(",")) * techniques


def serving(workload, inp, docs, cache):
    """Exact per-pass counts: runs attempted, simulated, and served (by the
    recorded baseline or by the run store), and cycles simulated."""
    if workload == "sweep_short":
        (_, doc), = docs
        store = doc["store"][0]
        # The pass started from an empty store, so every record in it was
        # simulated by this pass.
        cycles = 0
        for record in (cache / "store").glob("run-*.tsv"):
            cycles += int(record.read_text().splitlines()[2].split("\t")[1])
        return {
            "attempted": store["runs"], "expected": inputs_expected(workload, inp), "served": store["store_hits"],
            "simulated": store["store_misses"], "store_lookups": store["runs"],
            "store_hits": store["store_hits"], "cycles": cycles,
        }
    attempted = served = cycles = 0
    for _, doc in docs:
        base = {m["app"]: m for m in doc["run_metrics"]}
        attempted += len(doc["run_metrics"]) + len(doc["outcomes"])
        served += sum(1 for m in doc["run_metrics"] if m["replayed"])
        cycles += sum(m["cycles"] for m in doc["run_metrics"] if not m["replayed"])
        # slowdown = technique cycles / base cycles, exactly as divided.
        cycles += sum(round(base[o["app"]]["cycles"] * o["slowdown"]) for o in doc["outcomes"])
    return {
        "attempted": attempted, "expected": inputs_expected(workload, inp), "served": served,
        "simulated": attempted - served, "store_lookups": 0, "store_hits": 0, "cycles": cycles,
    }


def fidelity(docs):
    """Table 2 mismatches and the mean relative error of Figure 5's A-F
    energy-delay points against the paper (repro workloads only)."""
    tables = {name: doc for name, doc in docs}
    base = tables["table3_tuning"]["run_metrics"]
    mismatched = sorted(m["app"] for m in base if (m["violation_cycles"] > 0) != (m["app"] in PAPER_VIOLATING))
    rows = {
        "table3": tables["table3_tuning"]["table3"],
        "table4": tables["table4_sensor"]["table4"],
        "table5": tables["table5_damping"]["table5"],
    }
    errors = {}
    for point, (table, column, key, paper) in PAPER_FIG5.items():
        if column == "sensor":
            match = lambda r: (r["target_threshold_mv"], r["sensor_noise_mv"], r["delay_cycles"]) == key
        else:
            match = lambda r: r[column] == key
        (row,) = [r for r in rows[table] if match(r)]
        errors[point] = abs(row["avg_energy_delay"] - paper) / paper
    return mismatched, statistics.fmean(errors.values())


def check_pass(p, workload):
    if p["attempted"] != p["expected"]:
        return f"pass attempted {p['attempted']} runs, expected {p['expected']}"
    if workload == "sweep_short" and p["served"] + p["simulated"] != p["attempted"]:
        return "sweep store hits + misses != runs"
    return None


def oracle(bins, workload, seed, inp, first_pass, cache):
    """Compares the pass's output with the reference loop on a seed-chosen
    sample (the harness's outcome row, or the sweep's stored record);
    returns what differs, or None."""
    kind = "sweep" if workload == "sweep_short" else "repro"
    argv = [str(bins / "perfbench"), "oracle", "--workload", kind, "--instructions", str(inp["instructions"]),
            "--seed", str(seed)]
    if kind == "sweep":
        argv += [*grid_args(inp["grid"]), "--store", str(cache / "store")]
    _, out = run_child(argv)
    got = json.loads(out.strip().splitlines()[-1])
    if kind == "sweep":
        for r in got["runs"]:
            if not r["store_match"]:
                return f"stored sweep result for {r['suite']}/{r['app']} differs from the reference loop"
        return None
    for _, doc in first_pass["docs"]:
        rows = [o for o in doc["outcomes"] if o["design_point"] == got["design_point"] and o["app"] == got["app"]]
        if rows:
            row = rows[0]
            base = {m["app"]: m for m in doc["run_metrics"]}[got["app"]]
            same = all(row[k] == got[k] for k in ("slowdown", "relative_energy", "relative_energy_delay",
                                                  "violation_cycles"))
            same = same and base["cycles"] == got["base_cycles"]
            same = same and base["violation_cycles"] == got["base_violation_cycles"]
            if not same:
                return f"{got['design_point']}/{got['app']} differs from the reference loop"
            return None
    return f"no harness row for {got['design_point']}/{got['app']}"


# ---------------------------------------------------------------------------
# Statistics and output


def high_percentile(values):
    """The highest percentile with at least ten samples above it, as
    (percentile, value), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summary_line(name, unit, values):
    hi = high_percentile(values)
    hi_text = f"p{hi[0]:.0f}={hi[1]:.6g}" if hi else "p-hi: n<11"
    return f"  {name:<14} {unit:<5} median={statistics.median(values):<12.6g} {hi_text:<16} n={len(values)}"


def setup_probes(bins, workload, inp):
    classes = "spec2k,corpus" if workload == "sweep_short" else "spec2k"
    least, seconds, most = SETUP_PROBES
    probes, start = [], time.perf_counter()
    while len(probes) < least or (len(probes) < most and time.perf_counter() - start < seconds):
        _, out = run_child([str(bins / "perfbench"), "setup", "--classes", classes,
                            "--instructions", str(inp["instructions"])])
        probes.append(json.loads(out.strip().splitlines()[-1]))
    return probes


def fresh_dir(path, template=None):
    shutil.rmtree(path, ignore_errors=True)
    if template:
        shutil.copytree(template, path)
    else:
        path.mkdir(parents=True)
    return path


def measure(bins, workload, seed, seconds, trace):
    """One benchmark run; returns (human lines, metrics, attempted, failed,
    failure messages)."""
    inp = inputs(workload, seed)
    work = fresh_dir(WORK / f"{workload}-s{seed}-p{os.getpid()}")
    lines = [f"{workload}: seed {seed}, {inp['instructions']} instructions per run"
             + (f", grid {' '.join(f'{k}={v}' for k, v in inp['grid'].items())}" if "grid" in inp else "")]
    failures, attempted, failed = [], 0, 0
    try:
        probes = setup_probes(bins, workload, inp)
        fill = None
        if workload == "repro_warm":
            # The untimed cold fill whose cache directory every warm pass
            # starts from; its outputs must equal the warm passes'.
            attempted += inputs_expected(workload, inp)
            fill = run_pass(bins, workload, inp, work / "fill")
        passes, first_cache = [], None
        start = time.perf_counter()
        while not passes or (not trace and time.perf_counter() - start < seconds):
            cache = fresh_dir(work / f"pass{len(passes)}", fill and work / "fill")
            attempted += inputs_expected(workload, inp)
            p = run_pass(bins, workload, inp, cache)
            failures += filter(None, [check_pass(p, workload)])
            passes.append(p)
            if first_cache is None:
                first_cache = cache
            else:
                shutil.rmtree(cache)
        digests = {p["digest"] for p in passes} | ({fill["digest"]} if fill else set())
        if len(digests) != 1:
            failures.append(f"output digests differ across passes{' and the cold fill' if fill else ''}: {sorted(digests)}")
        failures += filter(None, [oracle(bins, workload, seed, inp, passes[0], first_cache)])

        p0 = passes[0]
        lines.append(f"  serving per pass: {p0['attempted']} runs attempted, {p0['simulated']} simulated, "
                     f"{p0['served']} served ({p0['served'] - p0['store_hits']} by the recorded baseline, "
                     f"{p0['store_hits']} by the run store); {p0['cycles']} cycles simulated")
        if workload != "sweep_short":
            mismatched, fig5 = fidelity(p0["docs"])
            lines.append(f"  table2_mismatches count {len(mismatched)} ({', '.join(mismatched) or 'none'}); "
                         f"fig5_ed_error frac {fig5:.6g} (mean |measured-paper|/paper over A-F, EXPERIMENTS.md)")
        lines.append(f"  output digest {digests.pop()} identical across {len(passes)} pass(es)"
                     + (" and the cold fill" if fill else ""))

        if not trace:
            values = {
                "pass_s": [p["pass_s"] for p in passes],
                "cpu_s": [p["cpu_s"] for p in passes],
                "setup_s": [probe["setup_s"] for probe in probes],
                "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
            }
            units = declared("end_to_end")
            for name, unit in units.items():
                lines.append(summary_line(name, unit, values[name]))
            metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                       for name, unit in units.items()}
            return lines, metrics, attempted, failed, failures

        argv = [str(bins / "perfbench"), "trace", "--workload", "sweep" if workload == "sweep_short" else "repro",
                "--instructions", str(inp["instructions"]), "--seed", str(seed), "--seconds", str(seconds),
                "--work", str(work / "trace"), "--spans", str(WORK / f"spans-{workload}-s{seed}.jsonl")]
        if "grid" in inp:
            argv += grid_args(inp["grid"])
        _, out = run_child(argv, env=dict(os.environ, RESTUNE_CACHE_DIR=str(work / "trace")))
        traced = json.loads(out.strip().splitlines()[-1])
        failures += traced["failures"]
        lines.append(f"  traced replay: {traced['suites_traced']} of {traced['suites']} suites through the engine, "
                     f"{traced['kernel_runs']} runs through the kernel, {traced['runs_replayed']} replayed by layer, "
                     f"{traced['reference_runs']} against the reference loop, {traced['store_ops']} store put/get pairs")
        lines.append(f"  closure (slack {CLOSURE_SLACK:.0%}; ns/cycle, host time): technique kernel = layers + glue")
        for c in traced["closure"]:
            glue = c["kernel_ns"] - c["layers_ns"]
            ok = abs(glue) <= CLOSURE_SLACK * c["kernel_ns"]
            lines.append(f"    {c['technique']:<8} {c['kernel_ns']:7.1f} = {c['layers_ns']:7.1f} + {glue:6.1f} "
                         f"(glue {glue / c['kernel_ns']:+.1%}; ctl {c['controller_ns']:.1f} cpu {c['cpu_ns']:.1f} "
                         f"power {c['power_ns']:.1f} meter {c['meter_ns']:.1f} flush {c['flush_ns']:.1f} "
                         f"setup {c['setup_ns']:.1f}) {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append(f"closure check failed for {c['technique']}: glue {glue / c['kernel_ns']:+.1%}")
        m = traced["metrics"]
        lines.append(f"  tracing overhead: traced chain {m['trace.overhead_frac']:+.1%} over the untraced kernel; "
                     f"one span costs {m['trace.span_ns']:.0f} ns")
        units = declared("per_layer")
        values = dict(m)
        values.update({
            "workloads.decode_ns_per_inst": statistics.median(
                [pr["decode_s"] / pr["decode_insts"] * 1e9 for pr in probes]),
            "workloads.corpus_s": statistics.median([pr["corpus_s"] for pr in probes]),
            "sweep.store_hit_frac": p0["store_hits"] / p0["store_lookups"] if p0["store_lookups"] else 0.0,
            "kernel.cycles": p0["cycles"],
            "runs_simulated": p0["simulated"],
            "runs_served": p0["served"],
        })
        metrics = {}
        for name, unit in units.items():
            if values.get(name) is None:
                failures.append(f"per-layer metric {name} was not measured")
                continue
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"  {name:<38} {unit:<9} {values[name]:.6g}")
        return lines, metrics, attempted, failed, failures
    except ChildFailed as e:
        # The runs of the pass in flight failed with its process.
        return lines, {}, max(attempted, 1), inputs_expected(workload, inp), failures + [str(e)]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared(section):
    """Every metric BENCHMARK.json declares in `section`, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bins = build()
    WORK.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, failures = {}, 0, 0, []
    for w in workloads:
        lines, m, a, f, fails = measure(bins, w, args.seed, args.seconds, bool(args.trace))
        lines.append(f"  failed_frac {f / a:.6g} ({f} of {a} runs failed)")
        print("\n".join(lines + [f"  CHECK FAILED: {x}" for x in fails]), flush=True)
        prefix = f"{w}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted, failed, failures = attempted + a, failed + f, failures + fails
    print(json.dumps({"correct": not failures, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
