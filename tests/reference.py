"""Reference formulas the tests compare the library against, written apart from its kernel."""

import numpy as np

from mqoc import hjb_bloch as hjb


def adjoint_generator(model, u, X):
    """Heisenberg-picture generator: (i/hbar)[H, X] + sum_L (L^dag X L - (1/2){L^dag L, X})."""
    h = model.H0 + sum(ui * hc for ui, hc in zip(u, model.Hc))
    out = (1j / model.hbar) * (h @ X - X @ h)
    for L in model.channels():
        Ld = np.conj(L.T)
        LdL = Ld @ L
        out = out + Ld @ X @ L - 0.5 * (LdL @ X + X @ LdL)
    return out


def hjb_grid_values(model, cost, u_grid, spec):
    """Stored slices (n_time + 1, N_in) of the backward explicit HJB scheme, one
    19-tap gather per step: with V = v[taps], every derivative is
    scale * (_PATTERN @ V), and each control's Hamiltonian is formed in full
    (running cost, diffusion and its own drift) before the minimum over u_grid.
    """
    stencil = hjb._stencil(spec.n_space)
    pts = stencil.points_in
    gen = model.bloch
    s = gen.diffusion(pts)
    drift = gen.drift(np.asarray(u_grid, dtype=float)[:, None], pts)  # (n_u, N, 3)
    q = np.concatenate([0.5 * s.T ** 2, [s[:, a] * s[:, b] for a, b in hjb._PAIRS]])
    w_diff = hjb._PATTERN[3:].T @ (q * stencil.scale[3:])
    w_drift = np.transpose(drift, (0, 2, 1)) * stencil.scale[:3]
    stored = np.empty((spec.n_time + 1, len(pts)))
    stored[-1] = v = hjb.expectation_fields([cost.terminal_op], pts)[0]
    for step in range(spec.n_time):
        t_next = spec.T - step * spec.dt
        running = hjb.expectation_fields([cost.running(t_next, u) for u in u_grid], pts)
        at_taps = v[stencil.taps]
        ham = running + np.einsum("tn,tn->n", w_diff, at_taps)
        ham += np.einsum("uan,an->un", w_drift, at_taps[1:7:2] - at_taps[2:7:2])
        v = v + spec.dt * np.min(ham, axis=0)
        stored[spec.n_time - step - 1] = v
    return stored
