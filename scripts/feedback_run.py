"""Time one continuous-feedback ensemble: a damped oscillator under linear state feedback.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/feedback_run.py --dim 12 --traj 200 --steps 500

The driven oscillator of `tests/reference.py` (H0 = a^dag a, Hc = (x, p),
L = sqrt(0.5) a, from a displaced thermal state, alpha = 0.8 + 0.4i and
nbar = 0.5), under u = -0.3 (<p>, <x>) read from each trajectory's state at
every step, dt = 1e-3.  Every trajectory gets a new control row at every
step, so this is the filter's per-state Cayley half step.  Prints the wall
time of `simulate_ensemble` (keep_states=False), the process's peak
resident set (`ru_maxrss`; run one case per process) and a hash of the
final states, so two versions of the filter can be compared bit for bit.
Not part of the test suite or the benchmark.
"""

import argparse
import hashlib
import resource
import sys
import time
from pathlib import Path

import numpy as np

from mqoc import belavkin as bel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference import oscillator  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=12)
    parser.add_argument("--traj", type=int, default=200)
    parser.add_argument("--steps", type=int, default=500)
    args = parser.parse_args()
    model, rho0, quadratures = oscillator(args.dim, driven=True)[:3]
    px = quadratures[::-1]

    def policy(t, rho, past):
        return -0.3 * np.real(np.einsum("nij,qji->nq", rho, px))

    dt = 1e-3
    cfg = bel.SmeConfig(dt=dt, T=args.steps * dt)
    start = time.perf_counter()
    states = bel.simulate_ensemble(model, policy, cfg, rho0, range(args.traj),
                                   keep_states=False)[1]
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"dim={args.dim} traj={args.traj} steps={args.steps} wall_s={wall:.2f} "
          f"ru_maxrss_mb={rss_mb:.0f} final_sha256={hashlib.sha256(states.tobytes()).hexdigest()[:16]}")


if __name__ == "__main__":
    main()
