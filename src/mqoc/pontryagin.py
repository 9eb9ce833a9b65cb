"""Generalized Hamiltonian, costate recursion, and forward-backward residuals.

Value-function gradients for the qubit are carried in the real Bloch chart:
the costate p and the noise costate q are 3-vectors, and the second-order
weight P is the 3x3 Bloch Hessian.  With the filter's Bloch drift
b(r, u) = A(u) r + c and diffusion s(r) = s0 + S1 r - (l.r) r (see
`hjb_bloch`), the Hamiltonian and its exact gradient in r (p and P held
fixed) are

    H = <C(t, u)>(r) + <b, p> + (1/2) s^T P s,
    grad_r H = tr(C sigma) / 2 + A(u)^T p + J^T (P + P^T) s / 2,

with <C>(r) = (tr C + r . tr(C sigma)) / 2 and J = ds/dr = S1 - (l.r) I - r l^T.
H is the minimand of the HJB that `hjb_bloch.solve_hjb_grid` integrates.

Its input rules live in `hjb_bloch` (`check_bloch`, `bloch_from_density`, `cost_chart`,
and `_check_times` through `extract_costate`) and `operators.check_control_grid`.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import hjb_bloch as hb
from . import operators as ops
from .errors import NumericalBlowupError, RejectedInputError
from .io import write_keyvalue


def _check_costate(p, P, batch=()):
    """Finite p of shape (*batch, 3) and P of shape (*batch, 3, 3)."""
    p = np.asarray(p, dtype=float)
    P = np.asarray(P, dtype=float)
    if p.shape != batch + (3,) or P.shape != batch + (3, 3):
        raise RejectedInputError(
            f"p and P must have shapes {batch + (3,)} and {batch + (3, 3)}, "
            f"got {p.shape} and {P.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(P))):
        raise RejectedInputError("costate (p, P) has non-finite entries")
    return p, P


def hamiltonian_gradient_r(t, u, r, p, P, model, cost):
    """Exact gradient of the Hamiltonian in r, with p and P held fixed (module docstring)."""
    gen = model.bloch
    r = hb.check_bloch(r)
    p, P = _check_costate(p, P, r.shape[:-1])
    u = ops.check_control(model, u)
    grad_c = hb.cost_chart([cost.running(t, u)], "running_op")[0, 1:]
    jac = gen.S1 - (r @ gen.ell)[..., None, None] * np.eye(3) - r[..., :, None] * gen.ell
    return (grad_c + p @ gen.drift_matrix(u)
            + np.einsum("...ji,...jk,...k->...i", jac, 0.5 * (P + np.swapaxes(P, -1, -2)),
                        gen.diffusion(r)))


def minimize_hamiltonian(t, rho, p, P, model, cost, u_grid):
    """Exhaustive minimum over the control grid for one state or a stack of states.

    rho is (2, 2) with p (3,) and P (3, 3), or (n, 2, 2) with p (n, 3) and
    P (n, 3, 3).  Returns (u, H) per state; ties go to the lexicographically
    smallest control vector.
    """
    grid = ops.check_control_grid(model, u_grid)
    rho = ops.check_density(rho)
    r = hb.bloch_from_density(rho)
    p, P = _check_costate(p, P, r.shape[:-1])
    gen = model.bloch
    s = gen.diffusion(r)
    running = hb.cost_chart([cost.running(t, u) for u in grid], "running_op")
    running = hb.expectation_fields(running, r.reshape(-1, 3))
    h = (running.T.reshape(r.shape[:-1] + (len(grid),))
         + np.einsum("...ui,...i->...u", gen.drift(grid, r[..., None, :]), p)
         + 0.5 * np.einsum("...i,...ij,...j->...", s, P, s)[..., None])
    return grid[np.argmin(h, axis=-1)], np.min(h, axis=-1)


class GridPolicy:
    """Greedy feedback from a value grid: argmin of the Hamiltonian at (t, r).

    Called with one state rho (2, 2) it returns one control (k,); with a
    stack (n, 2, 2) it returns (n, k) from one costate lookup for the stack.
    The control grid is checked here (`operators.check_control_grid`), the time by the
    costate lookup: up to its horizon tolerance past grid.T it reads grid.T, later it refuses.
    """

    def __init__(self, grid, model, cost, u_grid):
        self.grid = grid
        self.model = model
        self.cost = cost
        self.u_grid = ops.check_control_grid(model, u_grid)

    def __call__(self, t, rho, past):
        p, P = hb.extract_costate(self.grid, t, hb.bloch_from_density(rho))
        u, _ = minimize_hamiltonian(t, rho, p, P, self.model, self.cost, self.u_grid)
        return u


@dataclass(frozen=True)
class FbsdeReport:
    """Deviation of the backward-propagated costate from the grid gradient."""

    terminal_residual: float
    max_backward_residual: float
    mean_backward_residual: float
    mean_costate_norm: float
    grid_h: float
    dt: float

    @property
    def mean_relative_residual(self):
        if self.mean_costate_norm == 0.0:
            return 0.0
        return self.mean_backward_residual / self.mean_costate_norm

    def write(self, path):
        write_keyvalue(path, asdict(self))


def fbsde_residual(traj, grid, model, cost, u_grid):
    """Propagate the costate backward along a recorded trajectory and compare
    it with the value-grid gradient at every step.

    The terminal residual compares the grid gradient at (T, r_T) against the
    exact Bloch gradient of the terminal cost; the backward leg starts from
    the grid gradient at T and uses the trajectory's own innovations.
    u_grid is never read; it stays only because the benchmark passes it.
    """
    n = traj.n_steps
    dt = traj.dt
    r_path = hb.bloch_from_density(traj.states)
    p_ref, P_ref = hb.extract_costate(grid, traj.times, r_path)
    q = np.einsum("nij,nj->ni", P_ref, model.bloch.diffusion(r_path))

    grad_m = hb.cost_chart([cost.terminal_op], "terminal_op")[0, 1:]
    terminal_residual = float(np.linalg.norm(p_ref[-1] - grad_m))

    dW = np.diff(traj.innovations_W)
    p_prop = p_ref[-1].copy()
    residuals = np.zeros(n + 1)
    for k in range(n - 1, -1, -1):
        grad = hamiltonian_gradient_r(
            traj.times[k + 1], traj.controls[k + 1], r_path[k + 1], p_prop, P_ref[k + 1],
            model, cost)
        # Undo the forward increment dp = -grad dt + q dW over [t_k, t_{k+1}].
        p_prop = p_prop + grad * dt - q[k + 1] * dW[k]
        if not np.all(np.isfinite(p_prop)):
            raise NumericalBlowupError(f"non-finite costate at t={traj.times[k]:.6g}")
        residuals[k] = np.linalg.norm(p_prop - p_ref[k])

    return FbsdeReport(
        terminal_residual=terminal_residual,
        max_backward_residual=float(np.max(residuals)),
        mean_backward_residual=float(np.mean(residuals[:-1])),
        mean_costate_norm=float(np.mean(np.linalg.norm(p_ref, axis=1))),
        grid_h=grid.h,
        dt=dt,
    )
