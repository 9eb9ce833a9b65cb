"""Finite-difference dynamic programming for a measured qubit in Bloch coordinates.

The qubit state rho = (I + r.sigma)/2 lives in the unit ball, and the filter
moves it by dr = b dt + s dW with

    b(r, u) = A(u) r + c,          A(u) = A[0] + sum_i u_i A[1 + i],
    s(r) = s0 + S1 r - (l.r) r,    l_j = tr((L + L^dag) sigma_j) / 2.

These images are read off the model's kernel once (`operators.BlochGenerator`,
held as `model.bloch`); the grid solver and the Hamiltonian of `pontryagin`
evaluate them.

The value function is computed by explicit backward Euler on a cubic grid masked
to the ball.  Each grid size has one cached stencil, a tap table: for every inside
node the positions of its 19 taps (itself, 6 face and 12 edge neighbours) and
per-node weights that encode its rule, central differences where both sides are
inside and one-sided first (zero second) differences where a tap leaves the ball.
A sweep step reads the 6 face taps, the +-z ones as shifted rows (in C order the
next and previous node), and takes each cross difference as a difference of
central differences; b being affine in u, it contracts the drift once per control
direction and folds the minimum over u_grid one control row at a time.  The value
grid holds the inside nodes only, in C order; the stencil owns the grid's
geometry.  The costate lookup reads all 19 taps at the inside grid corners it
interpolates between, for a whole batch of points at once.

Each input rule has one owner, which `pontryagin` calls: `check_bloch` (the ball),
`bloch_from_density` (a qubit), `cost_chart` (2 x 2 Hermitian cost operators),
`operators.check_control_grid` and `_check_times` (grid times, HORIZON_TOL).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .errors import DimensionMismatchError, RejectedInputError, StabilityError
from .io import fmt

BLOCH_NORM_TOL = 1e-9
HORIZON_TOL = 1e-9  # how far a time may pass either end of a value grid's stored range
STABILITY_EPS = 1e-12

SIGN_STANDARD = "standard"


def check_bloch(r):
    r = np.asarray(r, dtype=float)
    if r.shape[-1] != 3:
        raise RejectedInputError(f"Bloch vector must have 3 components, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise RejectedInputError("Bloch vector has non-finite components")
    outside = np.linalg.norm(r, axis=-1) > 1.0 + BLOCH_NORM_TOL
    if np.any(outside):
        at = tuple(np.argwhere(outside)[0].tolist())
        raise RejectedInputError(f"Bloch vector {r[at]} at index {at} lies outside the unit ball")
    return r


def bloch_from_density(rho):
    """r_i = tr(rho sigma_i); accepts stacked states (..., 2, 2)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise DimensionMismatchError(f"bloch_from_density needs a qubit state, got {rho.shape}")
    return ops.pauli_components(rho)


@dataclass(frozen=True)
class GridSpec:
    """Spatial/temporal resolution of the value grid."""

    T: float
    n_space: int = 21
    n_time: int = 200

    def __post_init__(self):
        if not all(map(ops.is_count, (self.n_space, self.n_time))):
            raise RejectedInputError("n_space and n_time must be integers")
        if not 0 < self.T < np.inf or self.n_space < 5 or self.n_time < 1:
            raise RejectedInputError("GridSpec needs finite T > 0, n_space >= 5, n_time >= 1")

    @property
    def dt(self):
        return self.T / self.n_time


@dataclass(eq=False)
class ValueGrid:
    """Backward-solved cost-to-go on a Bloch-ball grid.

    time_points are the stored times as a float array, finite and strictly
    increasing (at least two).  values has shape (len(time_points), N_in): one
    column per inside node of the ball, in C order (`_stencil(n).points_in`).
    A cube (len(time_points), n, n, n) is also accepted, and only its inside
    nodes are kept.  The geometry belongs to `_stencil(n)`, with n = len(axes[0])
    and n >= 5: axes must be linspace(-1, 1, n) three times, h its spacing and
    inside its ball mask (n, n, n), or the grid is refused, as is any
    convention but SIGN_STANDARD (the HJB that `solve_hjb_grid` integrates).
    """

    time_points: np.ndarray
    axes: tuple
    values: np.ndarray
    h: float
    convention: str
    inside: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.time_points = tp = np.asarray(self.time_points, dtype=float)
        if tp.ndim != 1 or len(tp) < 2 or not np.all(np.isfinite(tp)) or np.any(np.diff(tp) <= 0):
            raise RejectedInputError(
                "time_points must be at least two finite, strictly increasing times")
        if self.convention != SIGN_STANDARD:
            raise RejectedInputError(f"unknown convention {self.convention!r}")
        n = len(self.axes[0])
        if n < 5:
            raise RejectedInputError(f"value grid needs n >= 5 nodes per axis, got {n}")
        stencil = _stencil(n)
        if (len(self.axes) != 3 or not abs(self.h - stencil.h) <= 1e-12
                or any(np.shape(a) != (n,) or not np.max(np.abs(a - stencil.axes[0])) <= 1e-12
                       for a in self.axes)):
            raise RejectedInputError(f"axes and h must be linspace(-1, 1, {n}) and its spacing")
        cube = stencil.inside.shape
        shapes = ((len(tp), len(stencil.points_in)), (len(tp),) + cube)
        if np.shape(self.values) not in shapes or np.shape(self.inside) != cube:
            raise RejectedInputError(
                f"values and inside must have shapes {shapes[0]} or {shapes[1]}, and {cube}, "
                f"got {np.shape(self.values)} and {np.shape(self.inside)}")
        if not np.array_equal(self.inside, stencil.inside):
            raise RejectedInputError(f"inside must be the ball mask of the {n}^3 grid")
        values = np.asarray(self.values, dtype=float)
        # min and max propagate NaN and +-inf, without a (slices x nodes) mask.
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise RejectedInputError("value grid contains non-finite entries")
        self.values = values[:, stencil.inside] if values.ndim == 4 else values

    @property
    def n_space(self):
        return len(self.axes[0])

    @property
    def T(self):
        return float(self.time_points[-1])


# The 19 taps of a node as grid offsets: the centre, the face neighbours
# (+x, -x, +y, -y, +z, -z), then the diagonals (++, +-, -+, --) of the
# xy, xz and yz planes.
_PAIRS = ((0, 1), (0, 2), (1, 2))
_UNIT = np.eye(3, dtype=int)
_TAP_OFFSETS = np.array(
    [[0, 0, 0]]
    + [sign * _UNIT[a] for a in range(3) for sign in (1, -1)]
    + [sa * _UNIT[a] + sb * _UNIT[b] for a, b in _PAIRS for sa in (1, -1) for sb in (1, -1)])
_PLUS, _MINUS, _EDGES = slice(1, 7, 2), slice(2, 7, 2), slice(7, 19)
_FACE = np.abs(_TAP_OFFSETS).sum(axis=1) == 1
_CENTRE = np.abs(_TAP_OFFSETS).sum(axis=1) == 0
# Tap coefficients of the nine derivatives d/dr_a, d2/dr_a2 and the 4-point
# d2/dr_a dr_b; `_BallStencil.scale` supplies each node's 1/h factor.
_PATTERN = np.vstack([_TAP_OFFSETS.T * _FACE,
                      _TAP_OFFSETS.T ** 2 * _FACE - 2 * _CENTRE,
                      [_TAP_OFFSETS[:, a] * _TAP_OFFSETS[:, b] for a, b in _PAIRS]]).astype(float)
_HESSIAN = np.array([[3, 6, 7], [6, 4, 8], [7, 8, 5]])  # Hessian entries as rows of _PATTERN
_CORNERS = np.array([(cx, cy, cz) for cx in (0, 1) for cy in (0, 1) for cz in (0, 1)])


class _BallStencil:
    """Ball mask and the 19-tap derivative stencil of one grid size.

    `taps[t, i]` is the inside position of tap t of inside node i; a tap that
    leaves the ball points back at the node itself.  `scale[k, i]` encodes
    node i's rule for derivative k: central where both sides are inside,
    one-sided where one is (first derivatives only), zero otherwise.  So
    derivative k at every inside node is scale[k] * (_PATTERN[k] @ v[taps]), as
    `extract_costate` reads them.  The sweep reads only the face taps; the +-z tap of
    node i is i +- 1 (C order) except at the row ends `z_ends` (+z, -z), where it is i.
    """

    def __init__(self, n):
        axis_pts = np.linspace(-1.0, 1.0, n)
        self.axes = (axis_pts, axis_pts, axis_pts)
        self.h = axis_pts[1] - axis_pts[0]
        gx, gy, gz = np.meshgrid(axis_pts, axis_pts, axis_pts, indexing="ij")
        self.points = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
        self.inside_flat = np.linalg.norm(self.points, axis=1) <= 1.0 + BLOCH_NORM_TOL
        self.inside = self.inside_flat.reshape(n, n, n)
        self.inside_idx = np.where(self.inside_flat)[0]
        n_in = len(self.inside_idx)
        self.points_in = self.points[self.inside_idx]  # (N_in, 3)
        self.pos_of_flat = np.full(n ** 3, -1)
        self.pos_of_flat[self.inside_idx] = np.arange(n_in)

        nodes = np.stack(np.unravel_index(self.inside_idx, self.inside.shape))
        nbr = nodes[None] + _TAP_OFFSETS[:, :, None]  # (19, 3, N_in)
        flat = np.ravel_multi_index(tuple(np.clip(nbr, 0, n - 1).swapaxes(0, 1)),
                                    self.inside.shape)
        ok = np.all((nbr >= 0) & (nbr < n), axis=1) & self.inside_flat[flat]
        self.taps = np.where(ok, self.pos_of_flat[flat], np.arange(n_in))
        both = ok[_PLUS] & ok[_MINUS]
        h = self.h
        self.scale = np.concatenate([
            np.where(both, 0.5 / h, np.where(ok[_PLUS] | ok[_MINUS], 1.0 / h, 0.0)),
            np.where(both, 1.0 / h ** 2, 0.0),
            np.where(ok[_EDGES].reshape(3, 4, n_in).all(axis=1), 0.25 / h ** 2, 0.0)])
        i = np.arange(n_in)
        assert np.all(np.isin(np.concatenate([self.taps[5] - i, i - self.taps[6]]), (0, 1)))
        self.z_ends = (np.flatnonzero(self.taps[5] == i), np.flatnonzero(self.taps[6] == i))


@functools.cache
def _stencil(n):
    """The stencil of grid size n, built on first use so repeated solves/queries stay cheap."""
    return _BallStencil(n)


def cost_chart(operators, name):
    """(tr C, tr(C sigma)) / 2, (n, 4), of cost operators C (n, 2, 2), refused unless
    2 x 2 (DimensionMismatchError) and Hermitian within `operators.OPERATOR_TOL`."""
    operators = np.asarray(operators)
    if operators.shape[1:] != (2, 2):
        raise DimensionMismatchError(f"{name} must be 2 x 2, got {operators.shape[1:]}")
    operators = ops.check_hermitian(operators, ops.OPERATOR_TOL, name)
    return 0.5 * np.real(np.einsum("uij,kji->uk", operators, ops.PAULI_BASIS))


def expectation_fields(chart, r):
    """<rho(r), C> of each row of a `cost_chart`, (n, N) for points r (N, 3)."""
    return chart[:, :1] + chart[:, 1:] @ r.T


class _Sweep:
    """The explicit step v + dt * min over u_grid of [running_u + diffusion + drift_u].

    `differences` forms the rows of `_PATTERN @ v[taps]`, unscaled, from the +a and
    -a taps of one axis at a time (`_tap`): cross (a, b) is the a-difference at tap +b
    minus that at -b, which is the 4-point rule wherever `scale` keeps it (the ball is
    convex).  As b(r, u) = b(r, 0) + sum_i u_i A_i r, only running_u + sum_i u_i
    (A_i r).scale d enter the minimum, folded in one u row at a time.  The work
    arrays are (N_in,) rows, reused; `np.take` fills them unbuffered (mode="clip").
    """

    def __init__(self, stencil, gen, u_grid, s):
        self.stencil, self.u_grid = stencil, np.asarray(u_grid, dtype=float)
        q = np.concatenate([0.5 * s.T ** 2, [s[:, a] * s[:, b] for a, b in _PAIRS]])
        w_drift = (gen.A @ stencil.points_in.T) * stencil.scale[:3]  # (A_j r)_a, (1 + k, 3, N_in)
        w_drift[0] += gen.c[:, None] * stencil.scale[:3]  # b(r, 0) = A_0 r + c
        self.w_rest = np.concatenate([w_drift[0], q * stencil.scale[3:]])
        self.w_control = w_drift[1:]
        work = np.empty((12, len(s)))
        self.d, (self.plus, self.minus, self.low) = work[:9], work[9:]

    def _tap(self, x, t, out):
        """x at tap t (1-6) of every node.  In C order the +z (-z) tap is the next
        (previous) node, or the node itself at a row end (`stencil.z_ends`)."""
        if t < 5:
            return np.take(x, self.stencil.taps[t], out=out, mode="clip")
        ends = self.stencil.z_ends[t - 5]
        if t == 5:
            out[:-1] = x[1:]
        else:
            out[1:] = x[:-1]
        out[ends] = x[ends]
        return out

    def differences(self, v):
        d, plus, minus = self.d, self.plus, self.minus
        two_v = np.multiply(v, 2.0, out=self.low)
        for a in range(3):
            np.subtract(self._tap(v, 1 + 2 * a, plus), self._tap(v, 2 + 2 * a, minus), out=d[a])
            np.subtract(np.add(plus, minus, out=d[3 + a]), two_v, out=d[3 + a])
        for k, (a, b) in enumerate(_PAIRS):
            np.subtract(self._tap(d[a], 1 + 2 * b, plus), self._tap(d[a], 2 + 2 * b, minus),
                        out=d[6 + k])
        return d

    def __call__(self, v, running, dt, out=None):
        d, low, row, term = self.differences(v), self.low, self.plus, self.minus  # free once d is formed
        g = np.einsum("jan,an->jn", self.w_control, d[:3])
        low.fill(np.inf)
        for ham, u in zip(running, self.u_grid):
            for u_i, g_i in zip(u, g):
                ham = np.add(ham, np.multiply(g_i, u_i, out=term), out=row)
            np.minimum(low, ham, out=low)
        low += np.einsum("kn,kn->n", self.w_rest, d)
        return np.add(v, np.multiply(low, dt, out=low), out=out)


def solve_hjb_grid(model, cost, u_grid, spec):
    """Backward explicit scheme for the cost-to-go S on the ball: S(T) = <M> and
    -dS/dt = min over u_grid of <C(t, u)> + <b, grad S> + (1/2) s^T Hess(S) s."""
    gen = model.bloch
    u_grid = ops.check_control_grid(model, u_grid)
    stencil = _stencil(spec.n_space)
    pts = stencil.points_in
    # s(r) does not depend on u; the explicit limit is h^2 / (6 max|s|^2).
    s = gen.diffusion(pts)
    dt_max = stencil.h ** 2 / (6.0 * float(np.max(np.sum(s * s, axis=1))) + STABILITY_EPS)
    if spec.dt > dt_max:
        raise StabilityError(
            f"explicit scheme unstable: dt={spec.dt:.3e} exceeds h^2/(6 max|s|^2) = "
            f"{dt_max:.3e}; increase n_time to at least {int(np.ceil(spec.T / dt_max))}")
    sweep = _Sweep(stencil, gen, u_grid, s)

    stored = np.empty((spec.n_time + 1, len(pts)))
    stored[-1] = v = expectation_fields(cost_chart([cost.terminal_op], "terminal_op"), pts)[0]
    for step in range(spec.n_time):
        t_next = spec.T - step * spec.dt
        now = np.stack([cost.running(t_next, u) for u in u_grid])
        if step == 0 or not np.array_equal(now, running_ops):
            running_ops = now
            running = expectation_fields(cost_chart(now, "running_op"), pts)
        v = sweep(v, running, spec.dt, out=stored[spec.n_time - step - 1])

    return ValueGrid(
        time_points=np.linspace(0.0, spec.T, spec.n_time + 1),
        axes=stencil.axes,
        values=stored,
        h=stencil.h,
        convention=SIGN_STANDARD,
        inside=stencil.inside,
    )


def _check_times(grid, t):
    """Refuse any entry of the time array t that is non-finite or out of range (HORIZON_TOL)."""
    tp = grid.time_points
    late = ~((tp[0] - HORIZON_TOL <= t) & (t <= tp[-1] + HORIZON_TOL))
    if np.any(late):
        raise RejectedInputError(f"t={t[late][0]} outside grid time range plus horizon tolerance")


def extract_costate(grid, t, r):
    """Finite-difference costate (p, P) at points r (..., 3) and times t.

    t is a scalar or broadcasts to r's batch shape r.shape[:-1]; p has shape
    (..., 3) and P (..., 3, 3), so one point r (3,) gives p (3,) and P (3, 3).
    p approximates the Bloch gradient of the value function and P its Hessian:
    linear in t between stored slices (a t up to HORIZON_TOL past an end reads
    its slice), and trilinear in r over the 19-tap stencils of the (up to eight)
    surrounding inside nodes, with central differences inside and one-sided first
    (zero second) differences where a tap leaves the ball.  No outside node is read.
    """
    r = check_bloch(r)
    batch = r.shape[:-1]
    t = np.asarray(t, dtype=float)
    try:
        t = np.broadcast_to(t, batch).reshape(-1)
    except ValueError:
        raise RejectedInputError(
            f"t of shape {t.shape} does not broadcast to the batch shape {batch}") from None
    _check_times(grid, t)
    tp = grid.time_points
    stencil = _stencil(grid.n_space)
    r = r.reshape(-1, 3)

    kt = np.clip(np.searchsorted(tp, t) - 1, 0, len(tp) - 2)
    wt = np.clip((t - tp[kt]) / (tp[kt + 1] - tp[kt]), 0.0, 1.0)[:, None]

    ix = np.clip(((r + 1.0) / stencil.h).astype(int), 0, grid.n_space - 2)
    frac = ((r + 1.0) / stencil.h - ix)[:, None]
    corners = ix[:, None] + _CORNERS  # (N, 8, 3)
    pos = stencil.pos_of_flat[np.ravel_multi_index(tuple(np.moveaxis(corners, -1, 0)),
                                                   stencil.inside.shape)]
    weight = np.where(pos >= 0, np.prod(np.where(_CORNERS, frac, 1 - frac), axis=-1), 0.0)
    wsum = np.sum(weight, axis=1)
    if np.any(wsum <= 0.0):
        raise RejectedInputError(f"no inside nodes around {r[np.argmax(wsum <= 0.0)]}")
    pos = np.maximum(pos, 0)  # an outside corner has weight 0; read any inside node

    at_taps = grid.values[(kt[:, None] + [0, 1])[..., None, None], stencil.taps.T[pos][:, None]]
    derivs = stencil.scale.T[pos][:, None] * (at_taps @ _PATTERN.T)  # (N, 2 slices, 8, 9)
    derivs = np.einsum("nsck,nc->nsk", derivs, weight / wsum[:, None])
    derivs = (1 - wt) * derivs[:, 0] + wt * derivs[:, 1]
    return derivs[:, :3].reshape(batch + (3,)), derivs[:, _HESSIAN].reshape(batch + (3, 3))


def write_grid_csv(grid, path, times=None):
    """Flat CSV `t, rx, ry, rz, S`: for each requested time (default: the first
    stored one), the stored slice nearest to it, one row per inside node in C
    order.  A time that is non-finite or outside the grid's range is refused.  The
    axis is formatted once per call and t once per slice; only S is, per node.  Each
    row is one f-string, streamed: a list of per-node prefixes would cost 3 MB at 41^3.
    The text is `io.fmt`'s.
    """
    tp = grid.time_points
    times = np.asarray([tp[0]] if times is None else times, dtype=float)
    if not times.size:
        raise RejectedInputError("write_grid_csv needs at least one time")
    _check_times(grid, times)
    idx = [int(np.argmin(np.abs(tp - t))) for t in times]
    stencil = _stencil(grid.n_space)
    axis = [fmt(a) + "," for a in stencil.axes[0].tolist()]
    nodes = np.unravel_index(stencil.inside_idx, stencil.inside.shape)
    xyz = [[axis[j] for j in ix.tolist()] for ix in nodes]
    with open(path, "w") as fh:
        fh.write("t,rx,ry,rz,S\n")
        for k in idx:
            t = fmt(tp[k])
            fh.writelines(f"{t},{x}{y}{z}{s!r}\n"
                          for x, y, z, s in zip(*xyz, grid.values[k].tolist()))
