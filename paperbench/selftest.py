#!/usr/bin/env python3
"""Self-test of the paper-campaign benchmark, at smoke size (well under a
minute once the harness is built):

  python3 paperbench/selftest.py

1. Every workload, once with --trace 0 and once with --trace 1: the result
   line is correct, and it carries exactly the metrics BENCHMARK.json names,
   each with its unit.
2. The output check trips on deliberately perturbed copies of a manifest
   (a trace digest, a series value, a note line, the events total, a
   missing schema key).
3. The harness refuses a cache directory that is not empty.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

WORK = os.path.join(bench.ROOT, ".bench_build", "selftest")
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        failures.append(what)


def check_result_line(workload: str, trace: int, wanted: dict) -> None:
    cmd = [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bench.ROOT)
    tag = f"{workload} --trace {trace}"
    expect(proc.returncode == 0,
           f"{tag}: exit status 0 (got {proc.returncode})")
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{tag}: last line is a JSON object")
        sys.stderr.write(proc.stderr[-3000:])
        return
    expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
           f"{tag}: result keys")
    expect(res.get("correct") is True and res.get("failed") == 0
           and res.get("attempted", 0) >= 1, f"{tag}: correct, none failed")
    metrics = res.get("metrics", {})
    mismatch = sorted(set(wanted) ^ set(metrics))
    expect(not mismatch, f"{tag}: metric names match {mismatch or ''}")
    for name, unit in wanted.items():
        m = metrics.get(name, {})
        value = m.get("value")
        expect(m.get("unit") == unit and isinstance(value, (int, float))
               and math.isfinite(value), f"{tag}: {name} in {unit}")


def check_output_check() -> None:
    """Run one smoke campaign, then perturb copies of its manifests."""
    work = os.path.join(WORK, "perturb")
    r = bench.launch(bench.harness_args("campaign", "attack-readback", 1, work,
                                        smoke=True), work)
    campaigns = r["result"].get("campaigns", [])
    expect(r["rc"] == 0 and len(campaigns) > 0, "smoke campaign ran")
    if not campaigns:
        return
    paths = [c["manifest"] for c in campaigns]
    events = [c["events_executed"] for c in campaigns]
    reference = bench.check_outputs(paths, events)
    expect(reference is not None, "unperturbed manifests pass the check")
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))

    def perturbed(edit, label):
        # Edit a copy of the first manifest the edit applies to.
        i = next(i for i, d in enumerate(docs) if d.get("series"))
        bad = copy.deepcopy(docs[i])
        edit(bad)
        path = os.path.join(work, f"perturbed-{label}.json")
        with open(path, "w") as f:
            json.dump(bad, f)
        return bench.check_outputs(paths[:i] + [path] + paths[i + 1:], events)

    def bump_digest(m):
        m["trace_digests"][0] ^= 1

    def bump_series(m):
        m["series"][0]["points"][0]["y"] += 1e-9

    def edit_note(m):
        m["notes"][0] += " "

    def drop_schema(m):
        del m["schema"]

    expect(perturbed(bump_digest, "digest") not in (None, reference),
           "a changed trace digest changes the fingerprint")
    expect(perturbed(bump_series, "series") not in (None, reference),
           "a changed series value changes the fingerprint")
    expect(perturbed(edit_note, "note") not in (None, reference),
           "a changed note line changes the fingerprint")
    expect(perturbed(drop_schema, "schema") is None,
           "a manifest without its schema fails validation")
    expect(bench.check_outputs(paths, [events[0] + 1] + events[1:])
           not in (None, reference),
           "a different events total changes the fingerprint")


def check_warm_cache_refused() -> None:
    work = os.path.join(WORK, "warm")
    args = bench.harness_args("campaign", "dense-gpsr", 1, work, smoke=True)
    stale = os.path.join(work, "cache", "paperbench_dense_gpsr", "objects")
    os.makedirs(stale, exist_ok=True)
    r = bench.launch(args + ["--setup-only"], work)
    expect(r["rc"] != 0 and "not empty" in r["stderr"],
           "a non-empty cache directory is refused")


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = bench.metric_units("end_to_end")
    layers = bench.metric_units("per_layer")
    try:
        bench.build()
    except bench.BenchError as e:
        expect(False, f"build: {e}")
        return 1
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for w in spec["workloads"]:
            check_result_line(w["name"], 0, e2e)
            check_result_line(w["name"], 1, layers)
        check_output_check()
        check_warm_cache_refused()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
