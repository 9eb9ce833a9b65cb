#!/usr/bin/env python3
"""Run one mqoc benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload closed_loop_41 --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the workload's pipeline with tracing off for about
``--seconds`` seconds (default: ``run_seconds`` in BENCHMARK.json), times
set-up in fresh interpreters started between the repeats, and reports the
end-to-end metrics.  ``--trace 1``
alternates untraced and traced pipelines and reports the per-layer metrics.
Every pipeline's outputs are checked against the workload's oracle.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 1 when any
check failed.  Full results (with an environment fingerprint), span traces
and the pipelines' own files are written under ``.bench_out/`` at the
repository root.  One process, one caller, BLAS pinned to one thread.
"""

import time

START = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
# Set-up is measured in this process and in this many fresh interpreters,
# started at even intervals over the run so that their median reflects the
# host's speed over the whole run rather than over one moment.
SETUP_CHILDREN = 10
# Untraced repeats per run at least, so wall_s always averages several.
MIN_REPEATS = 2
NAMES = ("ensemble_qnd", "closed_loop_21", "closed_loop_41", "fock_moment")


def pin_blas():
    for var in BLAS_VARS:
        os.environ[var] = "1"


def run_seconds():
    """The measuring time per run that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def load_workloads():
    """Import the workload module (and with it mqoc) from the repository's src/."""
    if not os.path.isfile(os.path.join(SRC, "mqoc", "__init__.py")):
        raise SystemExit(f"error: mqoc sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    return workloads


def build(wmod, name, seed, tiny=False):
    cls = wmod.WORKLOADS[name]
    outdir = os.path.join(OUT, "work", name)
    os.makedirs(outdir, exist_ok=True)
    return cls(seed, outdir, **(cls.tiny if tiny else {}))


def setup_in_child(name, seed, tiny):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_checked(wmod, wl, pipeline=None):
    """Run the pipeline once; returns (outputs or None, wall seconds, Outcome)."""
    t0 = time.perf_counter()
    try:
        out = (pipeline or wl.run)()
    except wmod.TYPED_ERRORS as exc:
        wall = time.perf_counter() - t0
        n = len(wl.seeds)
        return None, wall, wmod.Outcome(attempted=n, failed=n, failures=[repr(exc)])
    wall = time.perf_counter() - t0
    return out, wall, wl.check(out)


class Tally:
    """Attempts, failures and losses over every pipeline run in this process."""

    def __init__(self):
        self.outcomes = []
        self.first_loss = None

    def add(self, outcome):
        if outcome.failed == 0:
            if self.first_loss is None:
                self.first_loss = outcome.loss
            elif outcome.loss != self.first_loss:
                outcome.failures.append(f"result changed between repeats: "
                                        f"{outcome.loss!r} vs {self.first_loss!r}")
                outcome.failed = outcome.attempted
        self.outcomes.append(outcome)

    @property
    def attempted(self):
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self):
        return sum(o.failed for o in self.outcomes)

    @property
    def failures(self):
        return [f for o in self.outcomes for f in o.failures]

    @property
    def correct(self):
        return bool(self.outcomes) and self.failed == 0 and not self.failures


def keep_going(begin, seconds, repeats, at_least):
    """Start another repeat while fewer than `at_least` ran or a typical one still fits."""
    if len(repeats) < at_least:
        return True
    return time.perf_counter() - begin + statistics.median(repeats) <= seconds


def measure(wmod, wl, args, tally, setups):
    """Untraced repeats for about `seconds`, with the set-up children spread
    between them (appended to `setups`); returns the pipeline wall times."""
    walls, repeats = [], []
    begin = time.perf_counter()

    def catch_up(share):
        while len(setups) <= SETUP_CHILDREN * min(share, 1.0):
            setups.append(setup_in_child(args.workload, args.seed, args.tiny))

    while True:
        out, wall, outcome = run_checked(wmod, wl)
        tally.add(outcome)
        repeats.append(wall)
        if out is not None:
            walls.append(wall)
        catch_up((time.perf_counter() - begin) / args.seconds)
        if not keep_going(begin, args.seconds, repeats, MIN_REPEATS):
            catch_up(1.0)
            return walls


def trace_profile(wmod, tracing, wl, seconds, tally):
    """Alternate untraced and traced repeats; returns (per-layer medians, tracer, walls)."""
    tracer = tracing.Tracer()
    plain, traced, rows, pairs = [], [], [], []
    begin = time.perf_counter()
    while True:
        out, plain_wall, outcome = run_checked(wmod, wl)
        tally.add(outcome)
        if out is not None:
            plain.append(plain_wall)
        tracer.install()
        try:
            out, wall, outcome = run_checked(wmod, wl, lambda: tracer.run_root(wl.run))
        finally:
            tracer.uninstall()
        tally.add(outcome)
        if out is not None:
            traced.append(wall)
            rows.append(layer_row(tracing, tracer.spans, tracer.last_root, out))
        pairs.append(plain_wall + wall)
        if not keep_going(begin, seconds, pairs, 1):
            break
    walls = {"untraced": plain, "traced": traced}
    if not (rows and plain):
        return {}, tracer, walls
    layers = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    layers["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return layers, tracer, walls


def layer_row(tracing, spans, members, out):
    """Per-layer metrics of one traced pipeline."""
    profile = tracing.layer_profile(spans, members)
    row = {}
    for target in tracing.TRACED:
        entry = profile.get(target, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row[f"{target}.calls"] = entry["calls"]
        row[f"{target}.self_s"] = entry["self_s"]
    filter_s = tracing.exclusive_time(spans, members, "belavkin.simulate_ensemble",
                                      "pontryagin.GridPolicy.__call__")
    row["belavkin.simulate_ensemble.ns_per_traj_step"] = 1e9 * filter_s / out["traj_steps"]
    solve = profile.get("hjb_bloch.solve_hjb_grid")
    row["hjb_bloch.solve_hjb_grid.ns_per_node_step"] = (
        1e9 * solve["total_s"] / out["node_steps"] if solve else 0.0)
    row["pontryagin.minimize_hamiltonian.evals"] = (
        row["pontryagin.minimize_hamiltonian.calls"] * out.get("u_grid_size", 0))
    row["io.bytes"] = sum(os.path.getsize(p) for p in out["files"])
    row["unattributed_s"] = profile[tracing.ROOT]["self_s"]
    return row


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ns_per_traj_step", "ns_per_node_step")):
        return "ns"
    if name == "io.bytes":
        return "bytes"
    return "count"


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], env=env,
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git": git_state(),
        "seed": seed,
    }


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_table(rows):
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:>14} {unit:<6} {note}")


def end_to_end(setups, walls, tally):
    losses = [o.loss for o in tally.outcomes if o.failed == 0]
    return {
        "setup_s": (statistics.median(setups), "s"),
        # The host switches between speeds for tens of seconds at a time: the
        # median of a run's repeats snaps to whichever speed held for most of
        # it, while the mean weighs each speed by the time it held.
        "wall_s": (statistics.mean(walls) if walls else float("nan"), "s"),
        "peak_mb": (peak_mb(), "MB"),
        "result_loss": (statistics.median(losses) if losses else float("nan"), "1"),
    }


def report_end_to_end(metrics, setups, walls, tally):
    detail = {}
    for o in tally.outcomes:
        detail.update(o.values)
    n = len(walls)
    wall_note = (f"mean of {n}, median {statistics.median(walls):.4g}, "
                 f"min {min(walls):.4g}, max {max(walls):.4g}" if walls
                 else "no pipeline completed")
    rows = [("setup_s", metrics["setup_s"][0], "s", f"median of {len(setups)} set-ups"),
            ("wall_s", metrics["wall_s"][0], "s", wall_note),
            ("peak_mb", metrics["peak_mb"][0], "MB", "peak resident set"),
            ("fail_frac", tally.failed / max(tally.attempted, 1), "1",
             f"{tally.failed} of {tally.attempted} trajectories"),
            ("result_loss", metrics["result_loss"][0], "1", "workload's accuracy figure")]
    for key in ("qnd_err", "moment_err", "fbsde_resid", "control_cost", "uncontrolled_cost"):
        rows.append((key, detail.get(key), "1", ""))
    print("end-to-end metrics:")
    print_table(rows)


def report_layers(layers, walls):
    if not layers:
        print("per-layer metrics: no traced pipeline completed")
        return
    total = statistics.median(walls["traced"])
    print(f"per-layer metrics (median of {len(walls['traced'])} traced pipelines, "
          f"traced wall {total:.4g} s, untraced {statistics.median(walls['untraced']):.4g} s):")
    rows = []
    for name, value in layers.items():
        note = f"{100 * value / total:.1f}% of traced wall" if name.endswith("self_s") \
            or name == "unattributed_s" else ""
        rows.append((name, value, layer_unit(name), note))
    print_table(rows)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: fast, not comparable with full runs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    pin_blas()
    wmod = load_workloads()
    wl = build(wmod, args.workload, args.seed, args.tiny)
    setup_here = time.perf_counter() - START
    if args.setup_only:
        print(repr(setup_here))
        return 0

    env = fingerprint(args.seed)
    print("env:", json.dumps(env, sort_keys=True))
    tally = Tally()
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": env}
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        import tracing

        layers, tracer, walls = trace_profile(wmod, tracing, wl, args.seconds, tally)
        tracer.write(os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.jsonl"))
        report_layers(layers, walls)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        result["walls"] = walls
    else:
        setups = [setup_here]
        walls = measure(wmod, wl, args, tally, setups)
        e2e = end_to_end(setups, walls, tally)
        report_end_to_end(e2e, setups, walls, tally)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
        result.update(setups=setups, walls=walls)
    for failure in dict.fromkeys(tally.failures):
        print("CHECK FAILED:", failure)
    summary = {"correct": tally.correct, "attempted": tally.attempted,
               "failed": tally.failed, "metrics": metrics}
    result.update(summary, checks=[vars(o) for o in tally.outcomes])
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=float)
    print(json.dumps(summary))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
