"""Stochastic master equation integration and measurement-record simulation.

The filter runs on its own output: innovation increments dW are sampled
i.i.d. Normal(0, dt) from a counter-based generator, and the measurement
record is reconstructed as dy = <L + L^dag> dt + dW.  Control policies only
ever see the past record, so adaptedness holds by construction.

Each step is a Strang split around the Rouchon-Ralph Kraus map (Phys. Rev.
A 91, 012118, 2015): rho <- U rho U^dag with the Cayley half step
U = (I + i H(u) dt / 4 hbar)^-1 (I - i H(u) dt / 4 hbar), then
`operators.kraus_map`, then U again, then the Hermitian part; a diagonal
H(u), as H0 = omega a^dag a, gives a closed-form diagonal U (`_half_step`).
The mean in dy is taken at the state the Kraus map measures, after the
first half step, and the record gets that same dy.  Every state is positive
semidefinite with unit trace by construction, up to rounding; nothing is
projected.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import operators as ops
from .errors import NumericalBlowupError, RejectedInputError
from .io import write_csv

STEP_COUNT_TOL = 1e-9


@dataclass(frozen=True)
class SmeConfig:
    """Fixed-step discretization of the filtering equation."""

    dt: float
    T: float
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.dt <= self.T < np.inf:
            raise RejectedInputError(f"need 0 < dt <= T < inf, got dt={self.dt}, T={self.T}")
        ratio = self.T / self.dt
        if abs(ratio - round(ratio)) > STEP_COUNT_TOL * max(1.0, ratio):
            raise RejectedInputError(f"T/dt = {ratio} does not round to an integer step count")
        _seed_list([self.seed])

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


def _check_psd(m, name):
    """m as a complex operator, refused unless Hermitian PSD within 1e-10."""
    m = ops.check_hermitian(np.asarray(m, dtype=complex), 1e-10, name)
    if np.min(np.linalg.eigvalsh(m)) < -1e-10:
        raise RejectedInputError(f"{name} is not positive semidefinite")
    return m


@dataclass(frozen=True)
class CostSpec:
    """Linear cost: running density <rho, C(t,u)> plus terminal <rho(T), M>."""

    running_op: object  # callable (t, u) -> Hermitian PSD matrix
    terminal_op: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "terminal_op", _check_psd(self.terminal_op, "terminal_op"))

    def running(self, t, u):
        return np.asarray(self.running_op(t, u), dtype=complex)

    def running_value(self, t, u, rho):
        return np.real(ops.expectation(rho, self.running(t, u)))

    def terminal_value(self, rho):
        return np.real(ops.expectation(rho, self.terminal_op))

    def check_at(self, t, u):
        """Spot-check Hermiticity/PSD of the running operator at one (t, u)."""
        _check_psd(self.running(t, u), f"running_op({t}, {u})")


def quadratic_control_cost(state_op, terminal_op, control_weight=0.0):
    """CostSpec with C(t, u) = state_op + (1/2) u^T W u * I (W = control_weight).

    state_op must be Hermitian PSD, and W finite PSD: entries >= 0, or a PSD matrix.
    """
    state_op = _check_psd(state_op, "state_op")
    w = np.asarray(control_weight, dtype=float)
    if w.ndim == 2:
        _check_psd(w, "control_weight")
    elif w.ndim > 2 or not np.all(np.isfinite(w) & (w >= 0)):
        raise RejectedInputError("control_weight must be finite and >= 0, or a PSD matrix")
    eye = np.eye(state_op.shape[-1], dtype=complex)

    def running_op(t, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if w.ndim < 2:
            penalty = 0.5 * float(np.sum(w * u * u))
        else:
            penalty = 0.5 * float(u @ w @ u)
        return state_op + penalty * eye

    return CostSpec(running_op=running_op, terminal_op=terminal_op)


@dataclass(frozen=True)
class TrajectoryRecord:
    """One filtered trajectory: states, controls, record y, innovations W."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    record_y: np.ndarray
    innovations_W: np.ndarray
    seed: int

    def __post_init__(self):
        n = len(self.times)
        for name in ("states", "controls", "record_y", "innovations_W"):
            if len(getattr(self, name)) != n:
                raise RejectedInputError(f"{name} length differs from times")
        if self.record_y[0] != 0.0 or self.innovations_W[0] != 0.0:
            raise RejectedInputError("record_y and innovations_W must start at 0")

    @property
    def n_steps(self):
        return len(self.times) - 1

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])


RecordView = namedtuple("RecordView", ["times", "y", "W"])


def _seed_list(seeds):
    """seeds as a list of ints; refuses all but a non-empty 1-D sequence of
    integers in [0, 2**64), the Philox key range (`noise_increments`)."""
    arr = np.asarray(seeds, dtype=object)
    if arr.ndim != 1 or not arr.size or not all(
            ops.is_count(s) and 0 <= s < 2**64 for s in arr):
        raise RejectedInputError("a seed must be an integer in [0, 2**64), and seeds a "
                                 "non-empty 1-D sequence of them")
    return [int(s) for s in arr]


def noise_increments(seed, n_steps, dt):
    """Innovation increments dW ~ Normal(0, dt) from a Philox stream keyed by seed."""
    ops.check_steps(dt, n_steps)
    (seed,) = _seed_list([seed])
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return rng.normal(0.0, np.sqrt(dt), size=n_steps)


def _conjugate(rho, ud):
    """U rho U^dag as (rho U^dag)^dag U^dag for U^dag (d, d) or (n, d, d).
    A shared (d, d) U^dag is one (n d, d) GEMM per product, not n small ones."""
    if ud.ndim == 3:
        return ops.dagger(rho @ ud) @ ud
    n, d = rho.shape[:2]
    u_rho = ops.dagger((rho.reshape(n * d, d) @ ud).reshape(n, d, d))
    return (u_rho.reshape(n * d, d) @ ud).reshape(n, d, d)


def _half_step(h, s):
    """rho -> U rho U^dag for U = `ops.cayley`(h, s) and h (d, d) or (n, d, d),
    or None when h = 0, where U is exactly I.  A diagonal h gives a diagonal U,
    u_j = (1 - i s h_jj) / (1 + i s h_jj), and U rho U^dag is rho times the
    phase matrix u_j conj(u_k): no solve and no GEMM.  Any other h takes the
    dense solve and `_conjugate`."""
    if not h.any():
        return None
    diag = np.diagonal(h, axis1=-2, axis2=-1)
    if np.count_nonzero(h) == np.count_nonzero(diag):
        u = (1.0 - 1j * s * diag) / (1.0 + 1j * s * diag)
        phase = u[..., :, None] * np.conj(u[..., None, :])
        return lambda rho: rho * phase
    return partial(_conjugate, ud=ops.dagger(ops.cayley(h, s)))


class _KrausStep:
    """The filter step (module docstring) of one call on a stack of n states.

    The last step's control rows and half step are reused while the rows
    repeat, and the Kraus map reuses one set of work arrays from step to step.
    """

    def __init__(self, model, dt, n):
        self.model, self.dt = model, dt
        self.rows = self.conjugate = None
        self.work = ops.KrausWork(model.kraus, n)

    def half_step(self, u):
        """`_half_step` for controls u (n, k): shared when every row equals the
        first, else one per state; None when H(u) = 0 for every row."""
        if (u == u[:1]).all():
            u = u[0]
        if self.rows is None or not np.array_equal(u, self.rows):
            h = self.model.hamiltonian(u)
            self.rows = u.copy()
            self.conjugate = _half_step(h, self.dt / (4.0 * self.model.hbar))
        return self.conjugate

    def __call__(self, u, rho, dW):
        """Returns (rho', dy) with the mean in dy taken at the measured state."""
        conjugate = self.half_step(u) or (lambda r: r)
        rho, dy = ops.kraus_map(self.model.kraus, conjugate(rho), dW, self.dt, self.work)
        rho = conjugate(rho)
        rho = rho + ops.dagger(rho)
        rho *= 0.5
        return rho, dy


def step_sme(rho, u, dW, model, cfg):
    """One filter step for one state: the batch-of-1 `simulate_ensemble` step.

    The model keeps the `_KrausStep` of its last dt, so repeated calls reuse
    its work arrays and, while the control repeats, its half step.
    """
    if not np.isfinite(dW):
        raise RejectedInputError("dW must be finite")
    u, rho = ops.check_drift_inputs(model, u, rho)
    u = np.broadcast_to(u, (1, model.n_controls))
    step = getattr(model, "_sme_step", None)
    if step is None or step.dt != cfg.dt:
        step = _KrausStep(model, cfg.dt, 1)
        object.__setattr__(model, "_sme_step", step)
    out = step(u, rho[None], np.array([dW]))[0][0]
    if not np.all(np.isfinite(out)):
        raise NumericalBlowupError("non-finite state after step_sme")
    return out


def _policy_controls(policy, model, rho, times, y, w, k):
    """The checked controls of the batch rho (n_traj, d, d) at step k, shared or
    one row per trajectory; the policy contract is `simulate_ensemble`'s."""
    if policy is None:
        return np.zeros(model.n_controls)
    past = RecordView(times[: k + 1], y[:, : k + 1], w[:, : k + 1])
    return ops.check_control(model, policy(times[k], rho, past), (len(rho),))


def simulate_ensemble(model, policy, cfg, rho0, seeds, keep_states=True):
    """Integrate one filtered trajectory per seed with shared vectorized steps.

    Each step is the split Kraus step (module docstring) and y advances by
    the step's own dy.

    policy is None (every control 0) or policy(t, rho, past), called on the
    whole batch at each step k = 0..n_steps: rho is the (n_traj, d, d) stack
    of states and past a `RecordView` of times (k+1,), y and W (n_traj, k+1).
    It returns one shared control (n_controls,) or one per trajectory
    (n_traj, n_controls).

    Returns (times, states, controls, record_y, innovations_W) where states is
    (n_traj, n_steps+1, d, d) if keep_states else the final slice only.
    Each trajectory's noise comes from its own counter-based stream, so results
    do not depend on batch composition or execution order.
    """
    rho0 = ops.check_density(rho0)
    if rho0.shape[-1] != model.dim:
        raise RejectedInputError("rho0 dimension does not match model")
    seeds = _seed_list(seeds)
    n_traj = len(seeds)
    n = cfg.n_steps
    d = model.dim

    times = np.linspace(0.0, cfg.T, n + 1)
    # w_path[:, k + 1] holds the raw increment dW_k until step k adds
    # w_path[:, k] to it, so the noise needs no array of its own.
    w_path = np.zeros((n_traj, n + 1))
    for i, s in enumerate(seeds):
        w_path[i, 1:] = noise_increments(s, n, cfg.dt)

    rho = np.broadcast_to(rho0, (n_traj, d, d)).copy()
    y = np.zeros((n_traj, n + 1))
    controls = np.zeros((n_traj, n + 1, model.n_controls))
    if keep_states:
        states = np.empty((n_traj, n + 1, d, d), dtype=complex)
        states[:, 0] = rho

    step = _KrausStep(model, cfg.dt, n_traj)
    for k in range(n):
        controls[:, k] = _policy_controls(policy, model, rho, times, y, w_path, k)
        dW = w_path[:, k + 1].copy()
        rho, dy = step(controls[:, k], rho, dW)
        total = rho.sum()
        if not (np.isfinite(total.real) and np.isfinite(total.imag)):
            bad = np.where(~np.isfinite(rho.reshape(n_traj, -1)).all(axis=1))[0]
            raise NumericalBlowupError(
                f"non-finite state after step_sme at step {k} (seed {seeds[bad[0]]})",
                step_index=k, t=float(times[k + 1]))

        y[:, k + 1] = y[:, k] + dy
        w_path[:, k + 1] = w_path[:, k] + dW
        if keep_states:
            states[:, k + 1] = rho

    controls[:, n] = _policy_controls(policy, model, rho, times, y, w_path, n)
    if not keep_states:
        states = rho[:, None]
    return times, states, controls, y, w_path


def generate_record(model, policy, cost, cfg, rho0):
    """Simulate one trajectory; reproducible from cfg.seed alone."""
    if cost is not None:
        cost.check_at(0.0, np.zeros(model.n_controls))
    times, states, controls, y, w_path = simulate_ensemble(
        model, policy, cfg, rho0, [cfg.seed], keep_states=True)
    return TrajectoryRecord(
        times=times,
        states=states[0],
        controls=controls[0],
        record_y=y[0],
        innovations_W=w_path[0],
        seed=int(cfg.seed),
    )


def trajectory_cost(traj, cost):
    """Left-endpoint Riemann sum of the running cost plus the terminal cost."""
    dt = traj.dt
    total = 0.0
    for k in range(traj.n_steps):
        total += cost.running_value(traj.times[k], traj.controls[k], traj.states[k]) * dt
    return total + cost.terminal_value(traj.states[-1])


def filter_observable_check(traj, X, model):
    """Propagate the scalar SDE for the conditional expectation of X and
    return max_t |pi_t(X) - tr(rho_t X)| against the stored states.

    The scalar recursion is the raw Euler-Maruyama recursion of the
    conditional expectation: it shares the trajectory's innovations and
    evaluates operator expectations along the stored states, but never
    renormalizes.  The discrepancy therefore measures the terms by which
    the filter's split Kraus step differs from a raw Euler-Maruyama step
    (its higher-order terms and its normalisation): 0.0091 at most over
    seeds 0-9 for the driven qubit in the tests at dt = 1e-3, T = 1.
    """
    X = ops.check_hermitian(np.asarray(X, dtype=complex), 1e-10, "X")
    dt = traj.dt
    dW = np.diff(traj.innovations_W)
    # Along the stored states, with G* the Heisenberg-picture generator:
    # tr(rho G*(X)) = tr(X w), and
    # <X L + L^dag X> = tr(X (L rho + rho L^dag)) = tr(X sigma) + <L + L^dag> <X>.
    u, rho = ops.check_drift_inputs(model, traj.controls[:-1], traj.states[:-1])
    w, sig, lsum_vals = ops.drift_and_fluctuation(model, u, rho)
    refs = np.real(np.einsum("tij,ji->t", traj.states, X))
    gen_vals = np.real(np.einsum("tij,ji->t", w, X))
    xl_vals = np.real(np.einsum("tij,ji->t", sig, X)) + lsum_vals * refs[:-1]
    m = refs[0]
    worst = 0.0
    for k in range(traj.n_steps):
        m = m + gen_vals[k] * dt + (xl_vals[k] - lsum_vals[k] * m) * dW[k]
        worst = max(worst, abs(m - refs[k + 1]))
    return worst


def trajectory_csv_header(dim, n_controls):
    cols = ["t", "y", "W"]
    cols += [f"u_{i}" for i in range(n_controls)]
    cols += [f"rho_re_{i}_{j}" for i in range(dim) for j in range(dim)]
    cols += [f"rho_im_{i}_{j}" for i in range(dim) for j in range(dim)]
    return cols


def write_trajectory_csv(traj, path):
    """One row per stored step: t, y, W, u_0..u_k, rho_re flat, rho_im flat."""
    n, d = len(traj.times), traj.states.shape[-1]
    header = trajectory_csv_header(d, traj.controls.shape[-1])
    rows = np.column_stack([traj.times, traj.record_y, traj.innovations_W, traj.controls,
                            traj.states.real.reshape(n, -1), traj.states.imag.reshape(n, -1)])
    write_csv(path, header, map(np.ndarray.tolist, rows))
