import math

import numpy as np
import pytest

from mqoc import io


def chain_fmt(x):
    """The isinstance chain that `io.fmt` falls back to, kept as its reference."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (complex, np.complexfloating)):
        return f"{repr(float(x.real))}{'+' if x.imag >= 0 else '-'}{repr(abs(float(x.imag)))}j"
    return str(x)


@pytest.mark.parametrize("x", [
    True, False, np.bool_(True), np.bool_(False),
    0, -7, 2 ** 70, np.int64(-3),
    0.1, 1e-300, 1 / 3, np.float64(2.5e17), 0.0, -0.0, math.nan, math.inf, -math.inf,
    complex(1.5, -2.0), complex(0.0, -0.0), np.complex128(0.25 + 3j), "label",
], ids=repr)
def test_fmt_matches_isinstance_chain(x):
    assert io.fmt(x) == chain_fmt(x)
