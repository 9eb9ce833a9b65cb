"""Reference formulas the tests compare the library against, written apart from its kernel."""

import numpy as np


def adjoint_generator(model, u, X):
    """Heisenberg-picture generator: (i/hbar)[H, X] + sum_L (L^dag X L - (1/2){L^dag L, X})."""
    h = model.H0 + sum(ui * hc for ui, hc in zip(u, model.Hc))
    out = (1j / model.hbar) * (h @ X - X @ h)
    for L in model.channels():
        Ld = np.conj(L.T)
        LdL = Ld @ L
        out = out + Ld @ X @ L - 0.5 * (LdL @ X + X @ LdL)
    return out
