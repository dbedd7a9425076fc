#!/usr/bin/env python3
"""diff_manifests — check that two directories of alertsim run manifests
hold the same results.

Two runs of one campaign (another thread count, another build of the same
simulator) must write byte-identical results. Only two top-level fields may
differ: `profile` (wall-clock timings) and `version` (the build's commit).
This tool compares every <name>.json at the top of DIR_A with the file of
the same name in DIR_B and names each field that differs. Pure stdlib so CI
can run it with any python3.

Usage:
  tools/diff_manifests.py DIR_A DIR_B
  tools/diff_manifests.py --self-test

Exit status: 0 = the manifests match, 1 = a manifest differs or exists on
one side only, 2 = usage error (not a directory, no manifests, bad JSON).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile

IGNORED_FIELDS = ("profile", "version")


class UsageError(Exception):
    pass


def load_manifests(directory: str) -> dict:
    """File name -> parsed JSON for every *.json at the top of `directory`."""
    if not os.path.isdir(directory):
        raise UsageError(f"{directory}: not a directory")
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not name.endswith(".json") or not os.path.isfile(path):
            continue
        try:
            with open(path, encoding="utf-8") as f:
                out[name] = json.load(f)
        except (OSError, ValueError) as e:
            raise UsageError(f"{path}: {e}") from e
    return out


def differing_fields(a, b) -> list:
    """Top-level fields, other than the ignored ones, whose values differ."""
    if not isinstance(a, dict) or not isinstance(b, dict):
        return [] if a == b else ["<document>"]
    missing = object()
    keys = sorted((set(a) | set(b)) - set(IGNORED_FIELDS))
    return [k for k in keys if a.get(k, missing) != b.get(k, missing)]


def diff_dirs(dir_a: str, dir_b: str, out=sys.stdout) -> int:
    a = load_manifests(dir_a)
    b = load_manifests(dir_b)
    if not a and not b:
        raise UsageError(f"no *.json manifests in {dir_a} or {dir_b}")
    differences = 0
    for name in sorted(set(a) | set(b)):
        if name not in b:
            print(f"{name}: only in {dir_a}", file=out)
        elif name not in a:
            print(f"{name}: only in {dir_b}", file=out)
        else:
            fields = differing_fields(a[name], b[name])
            if not fields:
                continue
            print(f"{name}: differs in {', '.join(fields)}", file=out)
        differences += 1
    total = len(set(a) | set(b))
    print(f"{total - differences}/{total} manifests match "
          f"(ignoring {', '.join(IGNORED_FIELDS)})", file=out)
    return 1 if differences else 0


def self_test() -> int:
    """An identical pair passes, a changed series value fails."""
    manifest = {
        "schema": "alertsim-run-manifest/1",
        "name": "fig_demo",
        "version": "abc123",
        "params": {"node_count": "200"},
        "trace_digests": ["0x1"],
        "profile": [{"scope": "sim.dispatch", "total_ms": 1.5}],
        "series": [{"name": "ALERT",
                    "points": [{"x": 50, "y": 12.5, "ci": 0}]}],
        "notes": [],
    }
    # Same results, other timings and build: still a match.
    rerun = json.loads(json.dumps(manifest))
    rerun["version"] = "def456"
    rerun["profile"][0]["total_ms"] = 9.0
    changed = json.loads(json.dumps(manifest))
    changed["series"][0]["points"][0]["y"] = 12.75

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def write(sub: str, doc: dict) -> str:
            d = os.path.join(tmp, sub)
            os.makedirs(d)
            with open(os.path.join(d, "fig_demo.json"), "w") as f:
                json.dump(doc, f)
            return d

        base = write("base", manifest)
        cases = [("identical pair", write("rerun", rerun), 0),
                 ("changed series value", write("changed", changed), 1)]
        for label, other, want in cases:
            got = diff_dirs(base, other, out=io.StringIO())
            if got != want:
                failures.append(f"{label}: exit {got}, want {want}")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("diff_manifests self-test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two directories of run manifests, ignoring "
                    "the profile and version fields.")
    parser.add_argument("dirs", nargs="*", metavar="DIR")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if len(args.dirs) != 2:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return diff_dirs(args.dirs[0], args.dirs[1])
    except UsageError as e:
        print(f"diff_manifests: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
