#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny budget.

Run from the root of the repository:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py once
untraced and once traced, and checks that the result line is well
formed, correct, and names every end-to-end (untraced) or per-layer
(traced) metric with the unit BENCHMARK.json gives it.  It then damages
one recorded corpus container and checks that the tasks reading it are
counted as failed instead of crashing the run.  Exits 0 when every
check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "0", "--seconds", "1", "--insts", "2000",
        "--setup-reps", "1"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--trace", str(trace), *TINY, *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr[-4000:])
        result = None
    return done.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            rc, r = run(name, trace)
            tag = f"{name} --trace {trace}"
            check(rc == 0 and r is not None, f"{tag}: exits 0 with a result")
            if r is None:
                continue
            check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result has exactly the four keys")
            check(r["correct"] is True and r["failed"] == 0 and
                  r["attempted"] >= 1, f"{tag}: correct, nothing failed")
            got = r["metrics"]
            for m in metrics:
                entry = got.get(m["name"])
                check(entry is not None and entry["unit"] == m["unit"] and
                      isinstance(entry["value"], (int, float)),
                      f"{tag}: {m['name']} printed in {m['unit']}")
            want = {m["name"] for m in metrics}
            check(set(got) == want, f"{tag}: no unlisted metric")

    for trace in (0, 1):
        rc, r = run("conventional-corpus", trace, "--corrupt-corpus")
        tag = f"corrupt corpus entry, --trace {trace}"
        check(rc == 0 and r is not None, f"{tag}: run completes")
        if r is not None:
            check(r["correct"] is False and 0 < r["failed"] <= r["attempted"],
                  f"{tag}: counted as failed tasks "
                  f"({r['failed']} of {r['attempted']})")

    print(f"{len(failures)} check(s) failed" if failures else "all checks held")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
