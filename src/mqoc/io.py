"""Small deterministic writers: flat CSV and key-value text.

All numbers are written with shortest round-trip formatting, so identical
inputs produce byte-identical files.
"""

import numpy as np


def fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (complex, np.complexfloating)):
        return f"{repr(float(x.real))}{'+' if x.imag >= 0 else '-'}{repr(abs(float(x.imag)))}j"
    return str(x)


def write_csv(path, header, rows):
    """Write a flat CSV; header is a list of column names, rows an iterable of sequences."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_keyvalue(path, items):
    """Write `key = value` lines; values may be scalars or flat sequences."""
    with open(path, "w") as fh:
        for key, value in items.items():
            if isinstance(value, (list, tuple, np.ndarray)):
                body = "[" + ", ".join(fmt(v) for v in np.ravel(value)) + "]"
            else:
                body = fmt(value)
            fh.write(f"{key} = {body}\n")

