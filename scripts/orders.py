"""Write the filter's observed strong orders on its exact QND oracles as key-value text.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/orders.py --out orders.txt

Each ladder runs the filter to T = 1 at dt = 1e-2 and 1e-3 and compares it
with an exact closed form on the filter's own record (`tests/reference.py`):
- qnd_d2: the qubit, L = sqrt(0.5) sigma_z, H = 0, against the tanh oracle
  (mean over 200 seeds of sup_t |z_t - z_exact|);
- qnd_d3, qnd_d8: H = n^, L = sqrt(0.05) n^, 200 seeds; qnd_d21: H = n^,
  L = sqrt(0.005) n^, 64 seeds; each the mean over seeds of the worst entry of
  |rho_T - exact| against `qnd_filter_exact`, where the Kraus operator is
  diagonal, and again as <case>_rotated in the basis of a fixed random
  unitary, where it is dense.
For each case the file holds `<case>.err = [coarse, fine]` and
`<case>.order = log10(coarse / fine)`.  The seeds and sizes are those of the
tier-1 oracle tests, and two runs write the same file byte for byte.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from mqoc.io import write_keyvalue

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference import qnd_oracle_error, tanh_oracle_error  # noqa: E402

DTS = (1e-2, 1e-3)
# (dim, kappa, seeds) of each any-d ladder.
QND_CASES = ((3, 0.05, 200), (8, 0.05, 200), (21, 0.005, 64))


def ladders():
    """(case name, error at each dt of DTS) in report order."""
    yield "qnd_d2", [tanh_oracle_error(dt) for dt in DTS]
    for dim, kappa, seeds in QND_CASES:
        for rotated in (False, True):
            name = f"qnd_d{dim}" + ("_rotated" if rotated else "")
            yield name, [qnd_oracle_error(dim, kappa, dt, seeds, rotated) for dt in DTS]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="key-value file to write")
    args = parser.parse_args()
    items = {"dt": list(DTS)}
    for name, (coarse, fine) in ladders():
        items[f"{name}.err"] = [coarse, fine]
        items[f"{name}.order"] = float(np.log10(coarse / fine))
        print(f"{name}: {coarse:.3e} {fine:.3e} order {items[f'{name}.order']:.3f}", flush=True)
    write_keyvalue(args.out, items)


if __name__ == "__main__":
    main()
