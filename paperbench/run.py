#!/usr/bin/env python3
r"""Paper-campaign benchmark for alertsim.

Builds paperbench-harness from the checkout's sources, then runs one
workload as cold-cache campaigns, each in a fresh process:

  python3 paperbench/run.py --workload alert-groups --seed 7 --seconds 30 \
      --trace 0

--trace 0 (end to end, no tracing): a run has SUB_SEEDS inputs, harness
seeds SEED*SUB_SEEDS+k. It repeats the campaign, cycling through the inputs,
until --seconds have passed (each input at least once, the first twice),
takes each input's median over its repetitions and reports the mean over
the inputs:
  setup_s      launch until the campaign is handed to run_campaign (spec
               built, units expanded, cache roots created); median over the
               repetitions plus SETUP_LAUNCHES set-up-only launches
  units_per_s  units completed per wall second, every unit executed live
  cpu_s        user + system CPU seconds of the campaign's process
  peak_rss_mb  that process's peak resident set
Failures are counted per unit ("attempted"/"failed" in the result line;
failed_unit_ratio is printed by name above it). A unit fails when its
process crashes or exits non-zero, a manifest fails tools/check_manifest.py,
or the repetitions of one input disagree on series, notes, sorted trace
digests or total events executed. Any failure makes the command exit 1.
One output fingerprint is printed per input.

--trace 1 (per layer): one traced campaign of the run's first input,
composed from the engine's public pieces, plus probe replications of a fixed
sample of units (harness.cpp, probe.cpp); prints every per-layer metric and
fails on a fidelity mismatch. Its fingerprint equals the --trace 0 one for
that input.

--smoke runs the smallest size (the self-test size). The last line of
standard output is always one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "paperbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "paperbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "runs")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")  # kept after a run
HARNESS = os.path.join(BUILD_DIR, "paperbench-harness")
CHECK_MANIFEST = os.path.join(ROOT, "tools", "check_manifest.py")

WORKLOADS = ("alert-groups", "dense-gpsr", "attack-readback")
BUILD_JOBS = 4
SETUP_LAUNCHES = 20  # extra set-up-only launches per run for setup_s
SUB_SEEDS = 6        # independent inputs per --trace 0 run
CHILD_TIMEOUT_S = 150


def metric_units(kind: str) -> dict:
    """Name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class BenchError(Exception):
    """Set-up failure: nothing was measured, no result line is printed."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "campaign", "engine.hpp")):
        raise BenchError("simulator sources (src/) not found next to "
                         "paperbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS),
                  "--target", "paperbench-harness"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(build_log) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")


# --- one harness process -----------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ALERTSIM_REPS", None)
    env.pop("ALERTSIM_CACHE_DIR", None)
    return env


def launch(args: list[str], work: str) -> dict:
    """Run the harness once; returns its JSON line plus launch time, exit
    code and the child's own rusage (CPU seconds, peak RSS)."""
    os.makedirs(work, exist_ok=True)
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launch_ns = time.monotonic_ns()
        proc = subprocess.Popen([HARNESS] + args, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    with open(out_path, "rb") as f:
        lines = f.read().decode(errors="replace").strip().splitlines()
    result = {}
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {}
    return {
        "rc": proc.returncode,
        "launch_ns": launch_ns,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        "stderr": stderr,
        "result": result,
    }


def harness_args(mode: str, workload: str, seed: int, work: str,
                 smoke: bool) -> list[str]:
    args = ["--mode", mode, "--workload", workload, "--seed", str(seed),
            "--cache-dir", os.path.join(work, "cache"),
            "--out-dir", os.path.join(work, "out")]
    if smoke:
        args.append("--smoke")
    return args


# --- output check ------------------------------------------------------------

def manifests_valid(paths: list[str]) -> bool:
    if not paths:
        return False
    rc = subprocess.call([sys.executable, CHECK_MANIFEST] + paths,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return rc == 0


def fingerprint(manifest_paths: list[str], events: list[int]) -> str:
    """What must be byte-identical across every run of one input: each
    campaign's series and notes, its sorted trace digests and its total
    events executed."""
    h = hashlib.sha256()
    for path, ev in zip(manifest_paths, events):
        with open(path) as f:
            doc = json.load(f)
        part = {"series": doc.get("series"),
                "notes": doc.get("notes"),
                "trace_digests": sorted(doc.get("trace_digests", [])),
                "events_executed": ev}
        h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def check_outputs(manifest_paths: list[str], events: list[int]):
    """Validate the manifests; returns their fingerprint, or None."""
    if not manifests_valid(manifest_paths):
        return None
    try:
        return fingerprint(manifest_paths, events)
    except (OSError, ValueError):
        return None


# --- end to end --------------------------------------------------------------

def sub_seed(seed: int, k: int) -> int:
    """The harness seed of the k-th input of a run with --seed `seed`."""
    return seed * SUB_SEEDS + k


def run_end_to_end(workload: str, seed: int, seconds: float, smoke: bool,
                   work_root: str):
    units_of = metric_units("end_to_end")
    setups: list[float] = []
    unit_counts: set[int] = set()
    threads = 0
    attempted = failed = 0
    # Per input k: the measured repetitions and the output fingerprints.
    reps: list[list[dict]] = [[] for _ in range(SUB_SEEDS)]
    fingerprints: list[set[str]] = [set() for _ in range(SUB_SEEDS)]

    for i in range(SETUP_LAUNCHES):
        work = os.path.join(work_root, f"setup{i}")
        r = launch(harness_args("campaign", workload,
                                sub_seed(seed, i % SUB_SEEDS), work, smoke)
                   + ["--setup-only"], work)
        end = r["result"].get("setup_end_ns")
        if r["rc"] != 0 or end is None:
            raise BenchError(f"set-up launch failed: {r['stderr'][-2000:]}")
        setups.append((end - r["launch_ns"]) / 1e9)
        unit_counts.add(int(r["result"].get("units", 0)))
        threads = int(r["result"].get("threads", 0))
        shutil.rmtree(work, ignore_errors=True)
    # A repetition that crashes prints nothing, so its unit count comes from
    # the set-up launches, which expand the same grid.
    if len(unit_counts) != 1 or min(unit_counts) < 1:
        raise BenchError(f"set-up launches disagree on units: {unit_counts}")
    units_per_rep = unit_counts.pop()

    # Repetitions cycle through the run's inputs; every input runs at least
    # once and the first twice, so the output check always has a repeat, and
    # more repetitions start while they fit in --seconds.
    start = time.monotonic()
    rep_costs: list[float] = []
    n = 0
    while True:
        rep_start = time.monotonic()
        k = n % SUB_SEEDS
        work = os.path.join(work_root, f"rep{n}")
        r = launch(harness_args("campaign", workload, sub_seed(seed, k), work,
                                smoke), work)
        res = r["result"]
        units = int(res.get("units", 0))
        campaigns = res.get("campaigns", [])
        ok = (r["rc"] == 0 and units == units_per_rep
              and res.get("failed_units") == 0
              and all(c.get("ok") for c in campaigns))
        fp = None
        if ok:
            fp = check_outputs([c["manifest"] for c in campaigns],
                               [c["events_executed"] for c in campaigns])
            ok = fp is not None
        if not ok:
            log(f"repetition {n} failed (rc {r['rc']}): "
                f"{r['stderr'][-2000:]}")
        attempted += units_per_rep
        failed += 0 if ok else units_per_rep
        if fp is not None:
            fingerprints[k].add(fp)
        if ok:
            wall = (res["run_end_ns"] - res["setup_end_ns"]) / 1e9
            setups.append((res["setup_end_ns"] - r["launch_ns"]) / 1e9)
            reps[k].append({"units_per_s": units / wall, "cpu_s": r["cpu_s"],
                            "peak_rss_mb": r["peak_rss_mb"]})
        shutil.rmtree(work, ignore_errors=True)
        n += 1
        rep_costs.append(time.monotonic() - rep_start)
        if n > SUB_SEEDS and (time.monotonic() - start
                               + statistics.median(rep_costs) > seconds):
            break

    consistent = all(len(f) <= 1 for f in fingerprints)
    if not consistent:
        log(f"OUTPUT MISMATCH across repetitions: {fingerprints}")
        failed = attempted  # the whole set is suspect
    print(f"# {workload}: seed {seed}, {n} cold campaigns x "
          f"{units_per_rep} units over {SUB_SEEDS} inputs, {threads} "
          f"threads, {len(setups)} set-ups")
    metrics = {}
    if all(reps):
        # Each input's median over its repetitions, so a slow repetition does
        # not move the figure, then the mean over the inputs, so that one
        # input's heavy-tailed cost and memory count for 1/SUB_SEEDS of it.
        metrics["setup_s"] = statistics.median(setups)
        print(f"setup_s = {metrics['setup_s']:.6g} {units_of['setup_s']}")
        for name in ("units_per_s", "cpu_s", "peak_rss_mb"):
            per_input = [statistics.median(x[name] for x in rs) for rs in reps]
            metrics[name] = statistics.fmean(per_input)
            print(f"{name} = {metrics[name]:.6g} {units_of[name]}  (inputs: "
                  + ", ".join(f"{v:.4g}" for v in per_input) + ")")
    print(f"failed_unit_ratio = {failed / max(attempted, 1):.6g} fraction "
          f"({failed}/{attempted} units)")
    for k, fps in enumerate(fingerprints):
        shown = "MISMATCH" if len(fps) > 1 else next(iter(fps), "none")
        print(f"fingerprint {workload} seed={sub_seed(seed, k)} {shown}")
    return metrics, attempted, failed, units_of


# --- traced ------------------------------------------------------------------

def run_traced(workload: str, seed: int, smoke: bool, work_root: str):
    units_of = metric_units("per_layer")
    # The unit count comes from a set-up launch, so a crashed traced run is
    # charged every unit it would have run.
    seed = sub_seed(seed, 0)  # the first input of the --trace 0 run
    work = os.path.join(work_root, "setup")
    r = launch(harness_args("campaign", workload, seed, work, smoke)
               + ["--setup-only"], work)
    units = int(r["result"].get("units", 0))
    if r["rc"] != 0 or units < 1:
        raise BenchError(f"set-up launch failed: {r['stderr'][-2000:]}")
    work = os.path.join(work_root, "traced")
    r = launch(harness_args("traced", workload, seed, work, smoke), work)
    res = r["result"]
    if r["stderr"].strip():
        log(r["stderr"].strip()[-4000:])
    fp = check_outputs(res.get("manifests", []),
                       res.get("events_executed", []))
    ok = (r["rc"] == 0 and res.get("fidelity_ok") is True
          and res.get("units") == units and fp is not None)
    metrics = dict(res.get("metrics", {}))
    step_ms = res.get("step_loop_ms_per_unit", 0.0)
    print(f"# {workload} traced: seed {seed}, {units} units, "
          f"{res.get('threads', 0)} threads, {res.get('probes', 0)} probe "
          f"replications, fidelity "
          f"{'ok' if res.get('fidelity_ok') else 'FAILED'}")
    print(f"# event loop {step_ms:.3f} ms/unit; layer self time, ranked:")
    layers = res.get("layers_ms_per_unit", {})
    for name, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = 100.0 * ms / step_ms if step_ms > 0 else 0.0
        print(f"#   {name:<16} {ms:12.3f} ms/unit  {share:6.2f}%")
    print(f"# core.unit_s_tail is p{res.get('unit_tail_percentile', 100):.4g} "
          f"of n={units} units (p100 = max when n <= 20)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units_of.get(name, '?')}")
    print(f"fingerprint {workload} seed={seed} {fp or 'INVALID'}")
    if res.get("spans") and os.path.isfile(res["spans"]):
        os.makedirs(SPANS_DIR, exist_ok=True)
        kept = os.path.join(SPANS_DIR, f"{workload}-seed{seed}.json")
        shutil.copyfile(res["spans"], kept)
        print(f"spans: {os.path.relpath(kept, ROOT)}")
    return metrics, units, 0 if ok else units, units_of


# --- main --------------------------------------------------------------------

def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest size (the self-test size)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
        os.makedirs(WORK_ROOT, exist_ok=True)
        work_root = os.path.join(WORK_ROOT, f"{os.getpid()}-{time.time_ns()}")
        try:
            if args.trace:
                metrics, attempted, failed, units = run_traced(
                    args.workload, args.seed, args.smoke, work_root)
            else:
                metrics, attempted, failed, units = run_end_to_end(
                    args.workload, args.seed, args.seconds, args.smoke,
                    work_root)
        finally:
            shutil.rmtree(work_root, ignore_errors=True)
    except BenchError as e:
        log(f"paperbench: {e}")
        return 2

    correct = failed == 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
