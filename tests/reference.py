"""Reference formulas the tests compare the library against, written apart from its kernel,
and the one-seed record the tests pack from `simulate_ensemble`."""

import numpy as np

from mqoc import belavkin as bel
from mqoc import hjb_bloch as hjb
from mqoc import operators as ops


def record(model, policy, cfg, rho0, seed):
    """The `TrajectoryRecord` of one seed, packed from `simulate_ensemble`'s output."""
    times, states, controls, y, w = bel.simulate_ensemble(model, policy, cfg, rho0, [seed])
    return bel.TrajectoryRecord(times, states[0], controls[0], y[0], w[0], seed)


def trajectory_cost_loop(traj, cost):
    """Left-endpoint Riemann sum of the running cost plus the terminal cost, one
    step at a time: <C(t_k, u_k)>_k dt added in step order, then <M>_T."""
    dt = traj.dt
    total = 0.0
    for k in range(traj.n_steps):
        running = cost.running(traj.times[k], traj.controls[k])
        total += np.real(ops.expectation(traj.states[k], running)) * dt
    return total + np.real(ops.expectation(traj.states[-1], cost.terminal_op))


def qnd_filter_exact(rho0, h, l, T, y_T, hbar=1.0):
    """The filter state at time T of H = diag(h) with one measured L = diag(l), l real,
    and no extra channel, on its own record y_T (shape (n,)): the unnormalised filter is
    rho0 * exp(-i (h_i - h_j) T / hbar - (l_i^2 + l_j^2) T + (l_i + l_j) y_T) entrywise,
    returned with unit trace, (n, d, d).  For L = sqrt(kappa) sigma_z this is the tanh
    oracle of the qubit."""
    h, l = np.asarray(h, dtype=float), np.asarray(l, dtype=float)
    exponent = (-1j * (h[:, None] - h[None, :]) * T / hbar
                - (l[:, None] ** 2 + l[None, :] ** 2) * T)
    w = rho0 * np.exp(exponent + (l[:, None] + l[None, :]) * np.asarray(y_T)[:, None, None])
    return w / np.einsum("nii->n", w)[:, None, None]


def kraus_map_reference(model, dt, rho, dW):
    """The Rouchon-Ralph measurement map of the states rho (n, d, d), one state at a
    time: dy = 2 Re tr(L rho) dt + dW, the Kraus operator
    M = I - (1/2) sum_c c^dag c dt + L dy + (1/2) L^2 (dy^2 - dt) over every channel c,
    and rho' = (M rho M^dag + sum_K K rho K^dag dt) / tr(...) over the extra channels K.
    Returns (rho', dy) with dy (n,)."""
    L = model.L
    loss = sum(np.conj(c.T) @ c for c in model.channels())
    out, dys = [], []
    for r, dw in zip(rho, dW):
        dy = 2.0 * np.real(np.trace(L @ r)) * dt + dw
        M = np.eye(model.dim) - 0.5 * loss * dt + L * dy + 0.5 * (L @ L) * (dy * dy - dt)
        w = M @ r @ np.conj(M.T)
        for K in model.L_extra:
            w = w + K @ r @ np.conj(K.T) * dt
        out.append(w / np.trace(w))
        dys.append(dy)
    return np.array(out), np.array(dys)


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
    stored[-1] = v = hjb.expectation_fields(hjb.cost_chart([cost.terminal_op], "M"), pts)[0]
    for step in range(spec.n_time):
        t_next = spec.T - step * spec.dt
        running = hjb.cost_chart([cost.running(t_next, u) for u in u_grid], "C")
        running = hjb.expectation_fields(running, pts)
        at_taps = v[stencil.taps]
        ham = running + np.einsum("tn,tn->n", w_diff, at_taps)
        ham += np.einsum("uan,an->un", w_drift, at_taps[1:7:2] - at_taps[2:7:2])
        v = v + spec.dt * np.min(ham, axis=0)
        stored[spec.n_time - step - 1] = v
    return stored
