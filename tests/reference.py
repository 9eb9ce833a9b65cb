"""Reference formulas the tests compare the library against, written apart from its kernel,
the one-seed record the tests pack from `simulate_ensemble`, the qubit state of a Bloch
vector, the exact QND oracle ladders that the tests and `scripts/orders.py` run, the
damped oscillator that the tests and `scripts/feedback_run.py` share with its
coherent-state oracle, and the stacked HJB step and the value-by-value grid CSV that the
sweep and the grid writer must match bit for bit."""

from collections import namedtuple
from math import factorial

import numpy as np

from mqoc import belavkin as bel
from mqoc import hjb_bloch as hjb
from mqoc import moments as mom
from mqoc import operators as ops
from mqoc.io import fmt

Oscillator = namedtuple("Oscillator", ["model", "rho0", "quadratures", "linear", "state0"])


def record(model, policy, cfg, rho0, seed):
    """The `TrajectoryRecord` of one seed, packed from `simulate_ensemble`'s output."""
    times, states, controls, y, w = bel.simulate_ensemble(model, policy, cfg, rho0, [seed])
    return bel.TrajectoryRecord(times, states[0], controls[0], y[0], w[0], seed)


def density_from_bloch(r):
    """rho = (I + r.sigma)/2 for r in the unit ball (`hjb_bloch.check_bloch`); accepts
    stacked vectors (..., 3)."""
    r = hjb.check_bloch(r)
    return 0.5 * (np.einsum("...k,kij->...ij", r, np.stack(ops.PAULI)) + ops.IDENTITY2)


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


def qnd_oracle_error(dim, kappa, dt, n_seeds, rotated=False):
    """Mean over seeds 0..n_seeds-1 of the worst entry of |rho_T - exact(y_T)| at T = 1 for
    H = n^ and one measured L = sqrt(kappa) n^ on dim levels, from a random mixed state with
    coherences: the filter on its own record against `qnd_filter_exact`, phases and
    populations alike.  rotated runs the same filter in the basis of a fixed random unitary
    V, H' = V H V^dag, L' = V L V^dag and rho0' = V rho0 V^dag, against V exact V^dag;
    there its Kraus operator is dense."""
    h = np.arange(dim, dtype=float)
    l = np.sqrt(kappa) * h
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(2, dim, dim))
    rho0 = (g[0] + 1j * g[1]) @ ops.dagger(g[0] + 1j * g[1])
    rho0 /= np.trace(rho0)
    g = rng.normal(size=(2, dim, dim))
    v = np.linalg.qr(g[0] + 1j * g[1])[0]
    turn = (lambda x: v @ x @ ops.dagger(v)) if rotated else (lambda x: x)
    model = ops.QuantumModel(H0=turn(np.diag(h)), L=turn(np.diag(l)))
    _, states, _, y, _ = bel.simulate_ensemble(
        model, None, bel.SmeConfig(dt=dt, T=1.0), turn(rho0), range(n_seeds), keep_states=False)
    exact = turn(qnd_filter_exact(rho0, h, l, 1.0, y[:, -1]))
    return float(np.mean(np.max(np.abs(states[:, -1] - exact), axis=(1, 2))))


def tanh_oracle_error(dt):
    """QND measurement of the qubit, L = sqrt(kappa) sigma_z with kappa = 0.5 and H = 0,
    from r0 = (0.3, 0, 0.2): on the filter's own record, z_t = tanh(artanh z_0 +
    2 sqrt(kappa) y_t) exactly.  Returns the mean over seeds 0-199 of
    sup_t |z_t - z_exact(y_t)|, T = 1."""
    kappa, r0 = 0.5, (0.3, 0.0, 0.2)
    model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(kappa) * ops.SIGMA_Z)
    rho0 = 0.5 * (np.eye(2) + sum(c * s for c, s in zip(r0, ops.PAULI)))
    _, states, _, y, _ = bel.simulate_ensemble(
        model, None, bel.SmeConfig(dt=dt, T=1.0), rho0, list(range(200)))
    z = np.real(states[..., 0, 0] - states[..., 1, 1])
    exact = np.tanh(np.arctanh(r0[2]) + 2.0 * np.sqrt(kappa) * y)
    return float(np.mean(np.max(np.abs(z - exact), axis=1)))


def damped_oscillator_model(omega=1.0, kappa=0.5, B=((0.0,), (0.0,))):
    """The `LinearModel` of H0 = omega a^dag a and L = sqrt(kappa) a in the quadratures
    (x, p), with the controls' input matrix B."""
    return mom.LinearModel(
        A=np.array([[-kappa / 2, omega], [-omega, -kappa / 2]]),
        B=np.array(B),
        C=np.array([[np.sqrt(2 * kappa), 0.0]]),
        F=np.sqrt(kappa / 2) * np.eye(2),
        M_cov=np.array([[-np.sqrt(kappa / 2)], [0.0]]),
    )


def oscillator(dim=21, driven=False):
    """The damped oscillator H0 = a^dag a, L = sqrt(0.5) a on dim Fock levels, from a
    displaced thermal state (alpha = 0.8 + 0.4i, nbar = 0.5); driven adds Hc = (x, p).
    An `Oscillator`: the Fock model, rho0 and the quadratures (x, p), and their moment
    twins, the `LinearModel` (B = [[0, 1], [-1, 0]] when driven) and rho0's `MomentState`."""
    a = ops.annihilation(dim)
    ad = ops.dagger(a)
    x, p = (a + ad) / np.sqrt(2), 1j * (ad - a) / np.sqrt(2)
    model = ops.QuantumModel(H0=ad @ a, L=np.sqrt(0.5) * a, Hc=(x, p) if driven else ())
    alpha, nbar = 0.8 + 0.4j, 0.5
    w, v = np.linalg.eigh(-1j * (alpha * ad - np.conj(alpha) * a))
    disp = (v * np.exp(1j * w)[None, :]) @ ops.dagger(v)
    pn = np.array([nbar ** k / (1 + nbar) ** (k + 1) for k in range(dim)])
    rho0 = ops.project_physical(disp @ np.diag(pn / pn.sum()) @ ops.dagger(disp))
    linear = damped_oscillator_model(B=[[0.0, 1.0], [-1.0, 0.0]] if driven else [[0.0], [0.0]])
    state0 = mom.MomentState(xhat=np.sqrt(2) * np.array([alpha.real, alpha.imag]),
                             sigma=(nbar + 0.5) * np.eye(2))
    return Oscillator(model, rho0, np.stack([x, p]), linear, state0)


def coherent_oracle_error(dim, dt, drive, n_seeds=16):
    """Mean over seeds 0..n_seeds-1 of the worst entry of |rho_T - |alpha_T><alpha_T||, T = 1,
    for the driven `oscillator` (kappa = 0.5) under the constant control u = (drive, 0), that
    is H = a^dag a + u x, from the coherent state |alpha_0>, alpha_0 = 0.8 + 0.4i, on dim
    levels.  L |alpha> = sqrt(kappa) alpha |alpha>, so the measurement's fluctuation vanishes
    and the state stays coherent on every record, with d alpha / dt = -(i + kappa / 2) alpha
    - i u / sqrt(2).  This checks the damping, the half step (the dense Cayley solve when
    driven, the diagonal phase when not) with an H that does not commute with L, and the
    dense products.  Its blind spot: the dy terms of M, L dy and (1/2) L^2 (dy^2 - dt), only
    rescale the ket, so this oracle cannot see them."""
    z, alpha0 = 1j + 0.25, 0.8 + 0.4j
    alpha_T = alpha0 * np.exp(-z) - 1j * drive / np.sqrt(2) * (1.0 - np.exp(-z)) / z

    def ket(alpha):
        c = np.array([alpha ** k / np.sqrt(factorial(k)) for k in range(dim)])
        return c / np.linalg.norm(c)

    _, states, _, _, _ = bel.simulate_ensemble(
        oscillator(dim, driven=True).model, lambda t, rho, past: [drive, 0.0],
        bel.SmeConfig(dt=dt, T=1.0), np.outer(ket(alpha0), np.conj(ket(alpha0))),
        range(n_seeds), keep_states=False)
    exact = np.outer(ket(alpha_T), np.conj(ket(alpha_T)))
    return float(np.mean(np.max(np.abs(states[:, -1] - exact), axis=(1, 2))))


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


class StackedSweep:
    """The explicit HJB step as stacked passes, the sweep's bitwise reference: the 6
    face taps in one (6, N) gather, the cross differences as one more (6, N) gather of
    the a-differences at taps +b and -b, and every control's Hamiltonian formed as one
    (n_u, N) stack before the minimum.  Per node, the same arithmetic in the same order
    as `hjb_bloch._Sweep`."""

    def __init__(self, stencil, gen, u_grid, s):
        self.u_grid, self.taps = np.asarray(u_grid, dtype=float), stencil.taps
        q = np.concatenate([0.5 * s.T ** 2, [s[:, a] * s[:, b] for a, b in hjb._PAIRS]])
        w_drift = (gen.A @ stencil.points_in.T) * stencil.scale[:3]
        w_drift[0] += gen.c[:, None] * stencil.scale[:3]
        self.w_rest = np.concatenate([w_drift[0], q * stencil.scale[3:]])
        self.w_control = w_drift[1:]
        # Per pair (a, b): rows of the flat (3 N) a-differences at taps +b and -b.
        offset = len(stencil.points_in) * np.array([0, 0, 0, 0, 1, 1])[:, None]
        self.cross = stencil.taps[[3, 4, 5, 6, 5, 6]] + offset

    def differences(self, v):
        d, face = np.empty((9, len(v))), v[self.taps[1:7]]
        np.subtract(face[0::2], face[1::2], out=d[:3])
        np.add(face[0::2], face[1::2], out=d[3:6])
        d[3:6] -= 2.0 * v
        at_b = d[:3].ravel()[self.cross]
        np.subtract(at_b[0::2], at_b[1::2], out=d[6:])
        return d

    def __call__(self, v, running, dt):
        d, ham = self.differences(v), running
        for u_i, g_i in zip(self.u_grid.T, np.einsum("jan,an->jn", self.w_control, d[:3])):
            ham = ham + u_i[:, None] * g_i
        rest = np.einsum("kn,kn->n", self.w_rest, d)
        return v + dt * (np.min(ham, axis=0) + rest)


def grid_csv_reference(grid, path, times):
    """`hjb_bloch.write_grid_csv`'s file written value by value: one (N_in, 5) block of
    (t, rx, ry, rz, S) per time, the stored slice nearest to it, each number through
    `io.fmt`."""
    tp = grid.time_points
    pts = hjb._stencil(grid.n_space).points_in
    with open(path, "w") as fh:
        fh.write("t,rx,ry,rz,S\n")
        for t in times:
            k = int(np.argmin(np.abs(tp - t)))
            for row in np.column_stack([np.full(len(pts), tp[k]), pts, grid.values[k]]):
                fh.write(",".join(fmt(x) for x in row) + "\n")
