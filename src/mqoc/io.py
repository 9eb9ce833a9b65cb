"""Small deterministic writers, flat CSV and key-value text, and a strict key-value reader.

All numbers are written with shortest round-trip formatting so identical
inputs produce byte-identical files, and the arrays that `read_keyvalue`
reads back are the values that were written.
"""

import numpy as np

from .errors import RejectedInputError


# Exact-type fast path for the Python scalars that `tolist()` rows hold and for text
# (unchanged); it gives the same text as the isinstance chain below, which serves the rest.
_FMT_EXACT = {
    float: repr,
    int: str,
    str: str,
    bool: lambda x: "true" if x else "false",
}


def fmt(x):
    exact = _FMT_EXACT.get(type(x))
    if exact is not None:
        return exact(x)
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


def read_keyvalue(path, names):
    """Arrays from `write_keyvalue` text, each as `<name>.shape = [...]` plus `<name> = [...]`.

    The shape is [] for a scalar and the entries are row-major; an entry
    with a `j` is complex.  Every name must be in `names`.  A malformed
    line, a duplicate or unknown key, a missing shape or data line, or a
    length that does not fit the shape raises RejectedInputError naming the
    key.
    """
    entries = {}
    with open(path) as fh:
        for line in filter(str.strip, fh):
            key, _, body = (part.strip() for part in line.partition("="))
            if key.removesuffix(".shape") not in names:
                raise RejectedInputError(f"unknown key {key!r}")
            if key in entries:
                raise RejectedInputError(f"duplicate key {key!r}")
            if not (body.startswith("[") and body.endswith("]")):
                raise RejectedInputError(f"key {key!r}: expected `{key} = [...]`")
            entries[key] = body[1:-1].split(",") if body[1:-1].strip() else []
    arrays = {}
    for name in dict.fromkeys(key.removesuffix(".shape") for key in entries):
        for key in (f"{name}.shape", name):
            if key not in entries:
                raise RejectedInputError(f"key {key!r} is missing")
        try:
            shape = [int(t) for t in entries[f"{name}.shape"]]
            data = np.array([complex(t) if "j" in t else float(t) for t in entries[name]])
            if data.size != np.prod(shape):
                raise ValueError(f"{data.size} entries do not fit shape {shape}")
            arrays[name] = data.reshape(shape)
        except ValueError as exc:
            raise RejectedInputError(f"key {name!r}: {exc}") from exc
    return arrays
