#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; exits 1 if any check fails.

    python3 bench/selftest.py

1. Every workload runs through the command line at tiny sizes, traced and
   untraced, and emits exactly the metrics BENCHMARK.json names, each with
   its unit.
2. Each workload's output check fires on a deliberately corrupted output.
3. Without the mqoc sources the command exits non-zero and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

import run

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def command(args, cwd=run.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_emission(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            proc = command(["--workload", w["name"], "--seed", "3", "--seconds", "0.3",
                            "--trace", str(trace), "--tiny"])
            expect(proc.returncode == 0, f"{w['name']} trace={trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w['name']} trace={trace} result keys and counts")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{w['name']} trace={trace} emits every {key} metric "
                                  "with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{w['name']} trace={trace} metric values are numbers")


def check_corruption(wmod):
    corrupt = {
        "ensemble_qnd": [("negative eigenvalue", "final", lambda o: _bad_state(o["final"])),
                         ("wrong record", "y_T", lambda o: -o["y_T"])],
        "closed_loop_21": [("trace not 1", "final", lambda o: 1.5 * o["final"]),
                           ("cost above uncontrolled", "costs",
                            lambda o: [2.0 * c for c in o["costs"]]),
                           ("large FBSDE residual", "fbsde_resid", lambda o: 0.5)],
        "fock_moment": [("negative eigenvalue", "final", lambda o: _bad_state(o["final"])),
                        ("moment filter off", "means", lambda o: 1.2 * o["means"])],
    }
    for name, cases in corrupt.items():
        wl = run.build(wmod, name, seed=3, tiny=True)
        out = wl.run()
        clean = wl.check(out)
        expect(clean.failed == 0 and not clean.failures, f"{name} clean output passes")
        for label, key, make in cases:
            bad = wl.check(dict(out, **{key: make(out)}))
            expect(bad.failed > 0 and bad.failures, f"{name} check fires on {label}")
    tally = run.Tally()
    tally.add(wmod.Outcome(attempted=4, failed=1, failures=["x"]))
    expect(not tally.correct, "a failed check makes the run incorrect")


def _bad_state(final):
    states = final.copy()
    d = states.shape[-1]
    states[0] = 0.0
    states[0, 0, 0] = 1.1
    states[0, d - 1, d - 1] = -0.1
    return states


def check_bare_directory():
    bare = os.path.join(run.OUT, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = command(["--workload", "ensemble_qnd", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not any(line.startswith("{") for line in lines),
           "without src/ the command exits non-zero and prints no result")
    shutil.rmtree(bare)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    run.pin_blas()
    wmod = run.load_workloads()
    check_emission(spec)
    check_corruption(wmod)
    check_bare_directory()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
