"""Stochastic master equation integration and measurement-record simulation.

The filter runs on its own output: innovation increments dW are sampled
i.i.d. Normal(0, dt) from a counter-based generator, and the measurement
record is reconstructed as dy = <L + L^dag> dt + dW.  Control policies only
ever see the past record, so adaptedness holds by construction.

Each step is a Strang split around the Rouchon-Ralph Kraus map (Phys. Rev.
A 91, 012118, 2015), written once in `_KrausStep`: rho <- U rho U^dag with
the Cayley half step U = (I + i H(u) dt / 4 hbar)^-1 (I - i H(u) dt / 4 hbar)
(`operators.cayley`), then the measurement map `_KrausStep.measure`, then U
again; a diagonal H(u), as H0 = omega a^dag a, gives a diagonal U
(`_half_step`).  The step holds one of two forms, decided once from the run.
When the Kraus operator M is diagonal, as under a QND measurement, there is
no extra channel, and every U the run can take is diagonal, each step acts
entry by entry, and the batch is held as rho = base * a a^dag with amplitudes
a (d, n), scaled by M's and U's diagonals and formed only when read.  Every
other run holds the formed stack: M acts by one formula, X = M rho and then
M X^dag, two batched matmuls, on float views when M is real (as for
L = sqrt(kappa) a) and on complex stacks when it is not, and U by a callable.
Every formed stack is the Hermitian part of what formed it (`_hermitian_part`),
after each step on a formed stack and when amplitudes are formed, so every
state is exactly Hermitian.  One ufunc broadcasts a per-state scalar over the
stack: the scale by 1 / tr (`_normalised`).  The mean in dy is
taken at the state the Kraus map measures, after the first half step, and
the record gets that same dy.  Every state is positive semidefinite with
unit trace by construction, up to rounding; nothing is projected.
`simulate_ensemble`, the one trajectory generator, and `step_sme` run this
step, keeping no state on the model, and refuse a step whose trace before
normalisation is not finite and positive; a `TrajectoryRecord` is packed from
the generator's output, and `trajectory_cost` checks every running operator.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import operators as ops
from .errors import DimensionMismatchError, NumericalBlowupError, RejectedInputError

STEP_COUNT_TOL = 1e-9


@dataclass(frozen=True)
class SmeConfig:
    """Fixed-step discretization of the filtering equation."""

    dt: float
    T: float

    def __post_init__(self):
        if not 0 < self.dt <= self.T < np.inf:
            raise RejectedInputError(f"need 0 < dt <= T < inf, got dt={self.dt}, T={self.T}")
        ratio = self.T / self.dt
        if abs(ratio - round(ratio)) > STEP_COUNT_TOL * max(1.0, ratio):
            raise RejectedInputError(f"T/dt = {ratio} does not round to an integer step count")

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))


def _check_psd(m, name):
    """m as a complex operator, refused unless Hermitian PSD within ops.OPERATOR_TOL."""
    m = ops.check_hermitian(np.asarray(m, dtype=complex), ops.OPERATOR_TOL, name)
    if np.min(np.linalg.eigvalsh(m)) < -ops.OPERATOR_TOL:
        raise RejectedInputError(f"{name} is not positive semidefinite")
    return m


@dataclass(frozen=True)
class CostSpec:
    """Linear cost: running density <rho, C(t,u)> plus terminal <rho(T), M>.  M is
    checked Hermitian PSD here, C where it is read (within ops.OPERATOR_TOL):
    `trajectory_cost` refuses a C along its record that is not Hermitian PSD, and
    the Bloch readers (`solve_hjb_grid`, `pontryagin`) read C and M only through
    `hjb_bloch.cost_chart`, which refuses one that is not 2 x 2 and Hermitian."""

    running_op: object  # callable (t, u) -> Hermitian PSD matrix
    terminal_op: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "terminal_op", _check_psd(self.terminal_op, "terminal_op"))

    def running(self, t, u):
        return np.asarray(self.running_op(t, u), dtype=complex)


def quadratic_control_cost(state_op, terminal_op, control_weight=0.0):
    """CostSpec with C(t, u) = state_op + (1/2) u^T W u * I (W = control_weight).

    state_op must be Hermitian PSD, and W finite PSD: entries >= 0, or a PSD matrix.
    A scalar W serves any control count k; a vector or matrix W must fit k.
    """
    state_op = _check_psd(state_op, "state_op")
    w = np.asarray(control_weight, dtype=float)
    if w.ndim == 2:
        _check_psd(w, "control_weight")
    elif w.ndim > 2 or not np.all(np.isfinite(w) & (w >= 0)):
        raise RejectedInputError("control_weight must be finite and >= 0, or a PSD matrix")
    eye = np.eye(state_op.shape[-1], dtype=complex)

    def running_op(t, u):
        u = np.array(u, dtype=float, copy=None, ndmin=1)
        if w.ndim and w.shape != (len(u),) * w.ndim:
            raise DimensionMismatchError(f"control_weight {w.shape} does not fit k = {len(u)}")
        penalty = 0.5 * float(u @ w @ u if w.ndim == 2 else np.add.reduce(w * u * u, axis=None))
        return state_op + penalty * eye

    return CostSpec(running_op=running_op, terminal_op=terminal_op)


@dataclass(frozen=True)
class TrajectoryRecord:
    """One filtered trajectory, kept as the arrays it is checked as: states, controls, record
    y, innovations W, packed from row i of the output of `simulate_ensemble`, the one
    generator.  Every consumer reads one dt, so times must be two or more finite points,
    evenly increasing (relative STEP_COUNT_TOL), with one row of each array per time, and
    every array must be finite."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    record_y: np.ndarray
    innovations_W: np.ndarray
    seed: int

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if not (len(t) > 1 and np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)
                and np.ptp(np.diff(t)) <= STEP_COUNT_TOL * (t[1] - t[0])):
            raise RejectedInputError("times must be two or more finite, evenly increasing points")
        for name in ("times", "states", "controls", "record_y", "innovations_W"):
            a = np.asarray(getattr(self, name), dtype=complex if name == "states" else float)
            if a.shape[:1] != t.shape:
                raise RejectedInputError(f"{name} length differs from times")
            if not np.all(np.isfinite(a)):
                raise RejectedInputError(f"{name} has non-finite entries")
            object.__setattr__(self, name, a)
        if self.states.shape[1:] != self.states.shape[-1:] * 2 or self.controls.ndim != 2:
            raise DimensionMismatchError("states must be (n, d, d) and controls (n, k)")
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
    return next(_philox_normals(_seed_list([seed]), n_steps, dt))


def _philox_normals(seeds, n_steps, dt):
    """Yields each seed's `noise_increments` from one generator: a Philox state reset to
    the seed's key, counter 0 and an empty buffer is that of a new Philox(key=seed)."""
    rng, zeros = np.random.Generator(np.random.Philox(key=0)), np.zeros(4, np.uint64)
    for seed in seeds:
        key = np.array([seed, 0], np.uint64)
        rng.bit_generator.state = {"bit_generator": "Philox", "buffer": zeros, "buffer_pos": 4,
                                   "state": {"counter": zeros, "key": key},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng.normal(0.0, np.sqrt(dt), size=n_steps)


def _conjugate(rho, ud):
    """U rho U^dag as (rho U^dag)^dag U^dag for U^dag (d, d) or (n, d, d).
    A shared (d, d) U^dag is one (n d, d) GEMM per product, not n small ones."""
    if ud.ndim == 3:
        return ops.dagger(rho @ ud) @ ud
    n, d = rho.shape[:2]
    u_rho = ops.dagger((rho.reshape(n * d, d) @ ud).reshape(n, d, d))
    return (u_rho.reshape(n * d, d) @ ud).reshape(n, d, d)


def _outer(m):
    """P[i, j] = m[i] conj(m[j]) for m (d, ...)."""
    return m[:, None] * np.conj(m[None])


def _hermitian_part(rho):
    """(rho + rho^dag) / 2 as a new C-ordered array, exactly Hermitian."""
    out = np.conjugate(np.swapaxes(rho, -1, -2), order="C")
    out += rho
    out *= 0.5
    return out


def _normalised(out):
    """(out, tr): the C-ordered stack out (n, d, d) scaled in place by 1 / tr, its traces
    tr (n,)."""
    tr = np.einsum("nii->n", out).real
    scaled = out.view(float)
    scaled *= (1.0 / tr)[:, None, None]
    return out, tr


def _is_diagonal(x):
    """True when x (..., d, d) has no nonzero entry off its diagonals."""
    return np.count_nonzero(x) == np.count_nonzero(np.diagonal(x, axis1=-2, axis2=-1))


def _half_step(h, s):
    """U = `ops.cayley`(h, s) for h (d, d) or (n, d, d), or None when h = 0, where U
    is exactly I.  A diagonal h gives a diagonal U, returned as its phases
    u_j = (1 - i s h_jj) / (1 + i s h_jj) batch-last, (d, 1) or (d, n): no solve
    and no GEMM.  Any other h gives rho -> U rho U^dag by the dense solve and
    `_conjugate`, a partial."""
    if not h.any():
        return None
    if _is_diagonal(h):
        diag = np.diagonal(h, axis1=-2, axis2=-1).T.reshape(h.shape[-1], -1)
        return (1.0 - 1j * s * diag) / (1.0 + 1j * s * diag)
    return partial(_conjugate, ud=ops.dagger(ops.cayley(h, s)))


def _floats(x):
    """The stack x (n, d, d) as complex entries and then as its real view (n, 2 d^2)."""
    return np.asarray(x, dtype=complex).reshape(len(x), -1).view(float)


class _KrausStep:
    """The filter step (module docstring) on a stack rho (n, d, d) of states it holds.

    L^dag, L^dag^2 and a0 = I + dt loss are built once.  The step holds amplitudes when all
    three are diagonal, there is no extra channel, and H0 and, if the run is controlled
    (has a policy), each Hc are diagonal: M's columns l, l2, a0 (d, 1) and dy's weights
    w = 2 dt Re l are kept, and the states are rho * a a^dag, a (d, n) None meaning 1.  A
    measurement scales a by m / sqrt(tr), a half step by its phases, and dy and tr read
    the populations q |a|^2, q (d, n) rho's diagonal.  Else it holds the formed stack, and
    L, L^2 and a0 are one k-major table, (3, d^2) when all are real, else (3, 2 d^2), their
    float views; with work arrays m (n, d, d), M in the table's dtype, and work, as fresh
    pages cost more.  The last control rows and half step are reused while the rows repeat.
    """

    def __init__(self, model, dt, rho, controlled=True):
        n, d = rho.shape[:2]
        self.model, self.dt, self.rho, self.a, self.q = model, dt, rho, None, None
        self.rows = self.turn = None
        ld = ops.dagger(model.L)
        loss = -0.5 * sum(ops.dagger(c) @ c for c in model.channels())  # over every channel
        shared = (ld, ld @ ld, np.eye(d) + dt * loss)
        self.kd = [ops.dagger(K) for K in model.L_extra]
        turns = (model.H0,) + (model.Hc if controlled else ())
        if not self.kd and all(map(_is_diagonal, shared + turns)):
            cols = [np.conj(np.diagonal(x))[:, None] for x in shared]
            self.l, self.l2, self.a0 = cols if any(c.imag.any() for c in cols) else np.real(cols)
            self.w, self.table = 2.0 * dt * self.l[:, 0].real, None
        else:
            table, self.ld_floats = ops.dagger(np.stack(shared)), _floats(ld[None])[0]
            real = not table.imag.any()
            self.table = table.real.reshape(3, -1) if real else _floats(table)
            self.m = np.empty((n, d, d), dtype=float if real else complex)
            self.work = np.empty((n, d, d), dtype=complex)

    def state(self):
        """The states (n, d, d), exactly Hermitian after `advance`.  Amplitudes are formed
        here: the Hermitian part of rho * a a^dag over its trace becomes the base, a = 1."""
        if self.a is not None:
            formed = _hermitian_part(self.rho * _outer(self.a).transpose(2, 0, 1))
            self.rho = _normalised(formed)[0]
            self.a = self.q = None
        return self.rho

    def half_step(self, u):
        """`_half_step` for controls u (n, k): shared when every row equals the first, else
        one per state; None when H(u) = 0 for every row.  u None (no policy) means every
        control 0, whose turn is reused without comparing rows.  On a formed stack a
        diagonal U acts as rho times the phase matrix u_j conj(u_k) (`_outer`)."""
        if u is None:
            if self.rows is not None and not self.rows.any():
                return self.turn
            u = np.zeros((1, self.model.n_controls))
        elif self.rows is not None and not u.shape[-1]:
            return self.turn
        if (u == u[:1]).all():
            u = u[0]
        if self.rows is None or not np.array_equal(u, self.rows):
            self.rows = u.copy()
            turn = _half_step(self.model.hamiltonian(u), self.dt / (4.0 * self.model.hbar))
            if isinstance(turn, np.ndarray) and self.table is not None:
                phase = np.moveaxis(_outer(turn), (0, 1), (-2, -1))
                turn = lambda rho: rho * phase
            self.turn = turn
        return self.turn

    def _turn(self, turn):
        """U rho U^dag: a callable turns the formed stack, phases scale the amplitudes."""
        if callable(turn):
            self.rho = turn(self.rho)
        elif turn is not None:
            self.a = turn if self.a is None else self.a * turn

    def measure(self, dW):
        """Rouchon-Ralph measurement map of the held states; returns (dy, tr), each (n,).

        With dy = <L + L^dag> dt + dW at rho and the Kraus operator
        M = I - (1/2) sum L^dag L dt + L dy + (1/2) L^2 (dy^2 - dt),

            rho' = (M rho M^dag + sum_K K rho K^dag dt) / tr,  tr = tr(...),

        positive semidefinite by construction.  On amplitudes dy and tr read the
        populations alone, and a <- a m / sqrt(tr), m = diag(M) (d, n).  On a formed stack
        Re tr(L rho) is one `np.vecdot` of float views, M is formed per state by one
        `np.einsum` of (dy, c2, 1) with the table into m's float view, and M rho M^dag is
        M X^dag after X = M rho, two `np.matmul` calls, on the (n, d, 2 d) float views
        of rho and X^dag when M is real.  K rho K^dag = (rho K^dag)^dag K^dag is two shared
        GEMMs per extra channel (`_conjugate`).  tr is as computed, non-finite if a state is.
        """
        dt = self.dt
        if self.table is None:  # Re tr(L rho) = sum_i Re(l_i) rho_ii |a_i|^2
            if self.q is None:
                self.q = np.ascontiguousarray(_floats(self.rho)[:, :: 2 * len(self.w) + 2].T)
            q = self.q if self.a is None else self.q * (self.a * self.a.conj()).real
            dy = sum((w * x for w, x in zip(self.w, q)), dW)
            m = self.l * dy + self.l2 * (0.5 * (dy * dy - dt)) + self.a0
            weights = q * (m * m.conj()).real
            tr = sum(weights[1:], weights[0])
            m *= 1.0 / np.sqrt(tr)
            self.a = m if self.a is None else self.a * m
            return dy, tr
        floats = _floats(self.rho)
        dy = 2.0 * np.vecdot(floats, self.ld_floats) * dt + dW
        # X = M rho into out, then M X^dag over it, each stack viewed as M's dtype
        coef = np.stack((dy, 0.5 * (dy * dy - dt), np.ones_like(dy)), axis=1)
        np.einsum("nk,km->nm", coef, self.table, out=self.m.reshape(len(dy), -1).view(float))
        out, dtype = np.empty_like(self.work), self.m.dtype
        x = floats.reshape(out.shape[:2] + (-1,)).view(dtype)
        np.matmul(self.m, x, out=out.view(dtype))
        xd = np.conjugate(out.transpose(0, 2, 1), out=self.work)
        np.matmul(self.m, xd.view(dtype), out=out.view(dtype))
        for kd in self.kd:
            out += dt * _conjugate(self.rho, kd)
        self.rho, tr = _normalised(out)
        return dy, tr

    def advance(self, u, dW):
        """One step under controls u (n, k) or None (`half_step`); returns `measure`'s
        (dy, tr).  A step on a formed stack ends with its Hermitian part."""
        turn = self.half_step(u)
        self._turn(turn)
        dy, tr = self.measure(dW)
        self._turn(turn)
        if self.table is not None:
            self.rho = _hermitian_part(self.rho)
        return dy, tr


def step_sme(rho, u, dW, model, cfg):
    """One filter step for one state: the batch-of-1 `simulate_ensemble` step.

    dW must be one finite real number.
    """
    dW = np.asarray(dW)
    if dW.ndim or dW.dtype.kind not in "iuf" or not np.isfinite(dW):
        raise RejectedInputError(f"dW must be one finite real number, got {dW!r}")
    u, rho = ops.check_drift_inputs(model, u, rho)
    if rho.ndim != 2:
        raise DimensionMismatchError(f"rho is {rho.shape}, not one state")
    step = _KrausStep(model, cfg.dt, _hermitian_part(rho)[None])
    tr = step.advance(np.broadcast_to(u, (1, model.n_controls)), dW[None])[1][0]
    if not 0.0 < tr < np.inf:
        raise NumericalBlowupError(f"step_sme: trace {tr} before normalisation is not "
                                   "finite and positive")
    return step.state()[0]


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
    record_y and innovations_W are transposed views of time-major arrays.  Each
    trajectory's noise is its seed's `noise_increments` stream, so results do
    not depend on batch composition or execution order.  A step whose trace
    before normalisation is not finite and positive raises NumericalBlowupError.
    """
    rho0 = _hermitian_part(ops.check_density(rho0))
    if rho0.shape != (model.dim,) * 2:
        raise DimensionMismatchError(f"rho0 is {rho0.shape}, not one state of the model's dim")
    seeds = _seed_list(seeds)
    n_traj = len(seeds)
    n = cfg.n_steps
    d = model.dim

    times = np.linspace(0.0, cfg.T, n + 1)
    # w[k + 1] holds the raw increments dW_k until step k adds w[k] to them,
    # so the noise needs no array of its own.
    w = np.zeros((n + 1, n_traj))
    for i, dw in enumerate(_philox_normals(seeds, n, cfg.dt)):
        w[1:, i] = dw

    y = np.zeros((n + 1, n_traj))
    controls = np.zeros((n_traj, n + 1, model.n_controls))
    if keep_states:
        states = np.empty((n_traj, n + 1, d, d), dtype=complex)
        states[:, 0] = rho0

    step = _KrausStep(model, cfg.dt, np.broadcast_to(rho0, (n_traj, d, d)).copy(),
                      controlled=policy is not None)
    for k in range(n + 1):  # the controls at every k, and a step from each k < n
        if policy is not None:  # y and w are time-major
            past = RecordView(times[: k + 1], y[: k + 1].T, w[: k + 1].T)
            controls[:, k] = ops.check_control(model, policy(times[k], step.state(), past),
                                               (n_traj,))
        if k == n:
            break
        dy, tr = step.advance(None if policy is None else controls[:, k], w[k + 1])
        # tr itself, not 1 / tr, which is 0 and finite at tr = inf
        if not 0.0 < tr.min() <= tr.max() < np.inf:
            bad = np.flatnonzero(~((tr > 0.0) & (tr < np.inf)))[0]
            raise NumericalBlowupError(
                f"simulate_ensemble: trace before normalisation is not finite and "
                f"positive at step {k} (seed {seeds[bad]})",
                step_index=k, t=float(times[k + 1]))

        np.add(y[k], dy, out=y[k + 1])
        w[k + 1] += w[k]
        if keep_states:
            states[:, k + 1] = step.state()

    if not keep_states:
        states = step.state()[:, None]
    return times, states, controls, y.T, w.T


def trajectory_cost(traj, cost):
    """Left-endpoint Riemann sum of the running cost plus the terminal cost, in one pass:
    each C(t_k, u_k) is stacked and checked Hermitian PSD, and summed in step order."""
    running = [cost.running(t, u) for t, u in zip(traj.times[:-1], traj.controls[:-1])]
    if len({c.shape for c in running}) > 1:
        raise DimensionMismatchError("running_op changes shape along the record")
    running = _check_psd(running, "running_op")
    values = np.real(ops.expectation(traj.states[:-1], running)) * traj.dt
    return np.cumsum(values)[-1] + np.real(ops.expectation(traj.states[-1], cost.terminal_op))


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
    X, d = np.asarray(X, dtype=complex), traj.states.shape[-1]
    if X.shape != (d, d):
        raise DimensionMismatchError(f"X is {X.shape}, not ({d}, {d}) as the record's states")
    X = ops.check_hermitian(X, ops.OPERATOR_TOL, "X")
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

