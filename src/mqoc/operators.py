"""Dense complex-matrix kernel: density matrices, Lindblad drift, fluctuation.

All functions accept stacked inputs: a state argument may have shape
(..., d, d) with leading batch axes, and operators broadcast against it.

`drift_and_fluctuation` writes the Schroedinger-picture generator once,
straight from its formulas, for H(u) = H0 + sum_i u_i Hc[i] and every
dissipative channel L of the model (the measured one first):

    w = -(i/hbar)[H(u), rho] + sum_L (L rho L^dag - (1/2){L^dag L, rho}),
    sigma = L rho + rho L^dag - <L + L^dag> rho,   <L + L^dag> = 2 Re tr(L rho),

sigma for the measured channel only.  `lindblad_drift` and `fluctuation`
validate their inputs and call it.  `BlochGenerator.of_model` calls it on the
Pauli basis, and `belavkin.filter_observable_check` on validated stored
states.

`cayley` gives the unitary half steps of the filter's split step; the
Rouchon-Ralph measurement map between them is `belavkin._KrausStep.measure`.

`project_physical` is set-up repair, not part of any step: it makes a
start state exactly physical by clipping negative eigenvalues through
`numpy.linalg.eigh` and renormalizing.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateStateError, DimensionMismatchError, RejectedInputError

# Tolerances for state/operator invariants.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIG_TOL = 1e-10
OPERATOR_TOL = 1e-10  # Hermitian (and PSD) slack of cost operators and observables
# project_physical only repairs matrices that are already close to Hermitian.
PROJECTION_HERM_TOL = 0.1
DEGENERATE_TRACE_FLOOR = 1e-14
# Dense desk-scale algebra only.
MAX_DIM = 64

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY2 = np.eye(2, dtype=complex)
PAULI_BASIS = np.stack((IDENTITY2,) + PAULI)  # I, sigma_x, sigma_y, sigma_z


def dagger(m):
    return np.conj(np.swapaxes(m, -1, -2))


def trace(m):
    return np.einsum("...ii", m)


def herm_defect(m):
    """Largest entrywise deviation from Hermiticity."""
    return np.max(np.abs(m - dagger(m)), axis=(-1, -2))


def as_operator(m, name="operator"):
    """Validate a square complex matrix (dim >= 1, dim <= MAX_DIM, finite entries)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise RejectedInputError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise RejectedInputError(f"{name} must have dim >= 1")
    if m.shape[-1] > MAX_DIM:
        raise RejectedInputError(
            f"{name} has dim {m.shape[-1]} above the dense-algebra cap {MAX_DIM}"
        )
    if not np.all(np.isfinite(m)):
        raise RejectedInputError(f"{name} has non-finite entries")
    return m


def check_hermitian(m, tol=HERMITIAN_TOL, name="operator"):
    m = as_operator(m, name)
    defect = np.max(herm_defect(m))
    if defect > tol:
        raise RejectedInputError(f"{name} is not Hermitian (defect {defect:.3e} > {tol:.0e})")
    return m


def check_density(rho, name="rho"):
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite."""
    rho = check_hermitian(rho, HERMITIAN_TOL, name)
    tr_err = np.max(np.abs(trace(rho) - 1.0))
    if tr_err > TRACE_TOL:
        raise RejectedInputError(f"{name} trace deviates from 1 by {tr_err:.3e}")
    eigmin = np.min(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0))
    if eigmin < -PSD_EIG_TOL:
        raise RejectedInputError(f"{name} has negative eigenvalue {eigmin:.3e}")
    return rho


def check_hbar(hbar):
    """Refuse all but one finite real hbar > 0: a string, None or a bool is no number."""
    h = np.asarray(hbar)
    if h.ndim or h.dtype.kind not in "iuf" or not 0 < h < np.inf:
        raise RejectedInputError(f"hbar must be one finite number > 0, got {hbar!r}")


def _same_dim(a, b, what="operands"):
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(
            f"{what} have mismatched dims {a.shape[-1]} and {b.shape[-1]}"
        )


@dataclass(frozen=True, eq=False)
class QuantumModel:
    """System Hamiltonian pieces, measured coupling L, extra decoherence channels.

    H(u) = H0 + sum_i u_i Hc[i].  The measured channel L drives both the
    deterministic dissipator and the fluctuation term; channels in L_extra
    contribute dissipation only.
    """

    H0: np.ndarray
    L: np.ndarray
    Hc: tuple = ()
    L_extra: tuple = ()
    hbar: float = 1.0

    def __post_init__(self):
        h0 = check_hermitian(np.asarray(self.H0, dtype=complex), name="H0")
        lop = as_operator(np.asarray(self.L, dtype=complex), name="L")
        _same_dim(h0, lop, "H0 and L")
        hc = tuple(
            check_hermitian(np.asarray(h, dtype=complex), name=f"Hc[{i}]")
            for i, h in enumerate(self.Hc)
        )
        for i, h in enumerate(hc):
            _same_dim(h0, h, f"H0 and Hc[{i}]")
        extra = tuple(as_operator(np.asarray(m, dtype=complex), name=f"L_extra[{i}]")
                      for i, m in enumerate(self.L_extra))
        for i, m in enumerate(extra):
            _same_dim(h0, m, f"H0 and L_extra[{i}]")
        check_hbar(self.hbar)
        object.__setattr__(self, "H0", h0)
        object.__setattr__(self, "L", lop)
        object.__setattr__(self, "Hc", hc)
        object.__setattr__(self, "L_extra", extra)

    @property
    def dim(self):
        return self.H0.shape[-1]

    @property
    def n_controls(self):
        return len(self.Hc)

    def hamiltonian(self, u):
        """H(u): (d, d) for one control u (k,), (n, d, d) for rows u (n, k)."""
        u = check_control(self, u, np.shape(u)[:-1])
        h = self.H0
        for i, hci in enumerate(self.Hc):
            h = h + u[..., i, None, None] * hci
        return h

    def channels(self):
        """All dissipative channels: the measured L first, then L_extra."""
        return (self.L,) + self.L_extra

    @cached_property
    def bloch(self):
        """The `BlochGenerator` of a qubit model, built on first use."""
        if self.dim != 2:
            raise RejectedInputError("the Bloch chart is qubit-only")
        return BlochGenerator.of_model(self)


def drift_and_fluctuation(model, u, rho):
    """Drift w, fluctuation sigma and <L + L^dag> of a stack of states (module docstring).

    rho is (..., d, d), not checked here.  u is (k,) for one control shared
    by all states or (..., k) per state.  Returns (w, sigma, mean).
    """
    h = model.hamiltonian(u)
    w = (-1j / model.hbar) * (h @ rho - rho @ h)
    for L in model.channels():
        ld = dagger(L)
        ldl = ld @ L
        w = w + L @ rho @ ld - 0.5 * (ldl @ rho + rho @ ldl)
    return (w,) + _fluctuation(model.L, rho)


def _fluctuation(L, rho):
    """(sigma, <L + L^dag>) of the channel L at the states rho."""
    l_rho = L @ rho
    mean = 2.0 * np.real(trace(l_rho))
    return l_rho + rho @ dagger(L) - mean[..., None, None] * rho, mean


def cayley(h, s):
    """(I + i s h)^-1 (I - i s h): unitary for Hermitian h and real s, and
    exp(-2 i s h) to second order in s."""
    eye = np.eye(h.shape[-1])
    return np.linalg.solve(eye + 1j * s * h, eye - 1j * s * h)


def pauli_components(m):
    """Re tr(m sigma_i) for i = x, y, z of (..., 2, 2) m: the Bloch vector of a state."""
    return np.real(np.einsum("...ij,kji->...k", m, PAULI_BASIS[1:]))


@dataclass(frozen=True, eq=False)
class BlochGenerator:
    """Bloch images of a qubit model's drift and fluctuation (`hjb_bloch` docstring):
    b(r, u) = A(u) r + c with A(u) = A[0] + sum_i u_i A[1 + i], and
    s(r) = s0 + S1 r - (l.r) r.

    `of_model` reads them off one kernel call on the basis I/2, sigma_j/2 at
    u = 0 and at every u = e_i: w is linear in rho and affine in u, and the
    control parts have no constant term, because [Hc, I] = 0.
    """

    A: np.ndarray  # (1 + k, 3, 3)
    c: np.ndarray  # (3,)
    s0: np.ndarray  # (3,)
    S1: np.ndarray  # (3, 3)
    ell: np.ndarray  # (3,)

    @classmethod
    def of_model(cls, model):
        k = model.n_controls
        u = np.concatenate([np.zeros((1, k)), np.eye(k)])
        w, sig, mean = drift_and_fluctuation(
            model, np.repeat(u[:, None], 4, axis=1),
            np.broadcast_to(PAULI_BASIS / 2.0, (1 + k, 4, 2, 2)))
        wb = pauli_components(w)  # (1 + k, basis, component)
        A = np.swapaxes(wb[:, 1:], 1, 2).copy()
        A[1:] -= A[0]
        # At sigma_j/2 the kernel subtracts l_j e_j; S1 subtracts <L + L^dag>(I/2) e_j.
        ell = mean[0, 1:]
        S1 = pauli_components(sig[0, 1:]).T + np.diag(ell - mean[0, 0])
        return cls(A, wb[0, 0], pauli_components(sig[0, 0]), S1, ell)

    def drift_matrix(self, u):
        """A(u) for u (..., k)."""
        return self.A[0] + np.tensordot(u, self.A[1:], axes=(-1, 0))

    def drift(self, u, r):
        """b(r, u) for u (k,) or (..., k) broadcasting against r (..., 3)."""
        return (self.drift_matrix(u) @ r[..., None])[..., 0] + self.c

    def diffusion(self, r):
        """s(r) for r (..., 3)."""
        return self.s0 + r @ self.S1.T - (r @ self.ell)[..., None] * r


def is_count(n):
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def check_steps(dt, n_steps):
    """Refuse all but a finite step dt > 0 and an integer step count n_steps >= 0."""
    if not (0 < dt < np.inf and is_count(n_steps) and n_steps >= 0):
        raise RejectedInputError(
            f"need finite dt > 0 and integer n_steps >= 0, got dt={dt}, n_steps={n_steps}")


def check_control(model, u, batch=()):
    """Validate u: finite, one entry per control, shared (k,) or one row per state (*batch, k)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(np.isfinite(u)):
        raise RejectedInputError(f"control {u} has non-finite entries")
    if u.shape[-1] != model.n_controls:
        raise DimensionMismatchError(
            f"control has {u.shape[-1]} components, model has {model.n_controls}"
        )
    if u.ndim > 1 and u.shape[:-1] != batch:
        raise DimensionMismatchError(f"controls {u.shape} do not match states {batch}")
    return u


def check_control_grid(model, u_grid):
    """A non-empty (n_u, k) array of `check_control`ed rows, sorted lexicographically."""
    rows = sorted(tuple(check_control(model, u)) for u in u_grid)
    if not rows:
        raise RejectedInputError("u_grid must be nonempty")
    return np.array(rows, dtype=float)


def check_drift_inputs(model, u, rho):
    """Validate (u, rho) for the model's kernel: Hermitian rho of the model's
    dim, u with one entry per control, shared or one row per state."""
    rho = check_hermitian(rho, name="rho")
    if rho.shape[-1] != model.dim:
        raise DimensionMismatchError(
            f"rho has dim {rho.shape[-1]}, model has dim {model.dim}"
        )
    return check_control(model, u, rho.shape[:-2]), rho


def lindblad_drift(model, u, rho):
    """Unconditional state velocity w(t, u, rho).

    w = -(i/hbar)[H(u), rho] plus the dissipator of the measured channel and
    of every extra channel.  Hermitian and trace-free for valid states.
    u may hold one control per state, shape (..., k).
    """
    u, rho = check_drift_inputs(model, u, rho)
    return drift_and_fluctuation(model, u, rho)[0]


def fluctuation(L, rho):
    """Measurement-induced state fluctuation sigma(rho) = L rho + rho L^dag - <L+L^dag> rho."""
    L = as_operator(L, "L")
    if L.ndim != 2:
        raise RejectedInputError(f"L must be a single matrix, got shape {L.shape}")
    rho = check_hermitian(rho, name="rho")
    _same_dim(L, rho, "L and rho")
    return _fluctuation(L, rho)[0]


def expectation(rho, X):
    """tr(rho X); real up to rounding when X is Hermitian.  Stacks must broadcast."""
    rho = as_operator(rho, "rho")
    X = as_operator(X, "X")
    _same_dim(rho, X, "rho and X")
    try:
        np.broadcast_shapes(rho.shape, X.shape)
    except ValueError:
        raise DimensionMismatchError(
            f"rho {rho.shape} and X {X.shape} do not broadcast") from None
    return np.einsum("...ij,...ji->...", rho, X)


def project_physical(m):
    """Make a nearly physical matrix a density matrix: hermitize, clip
    negative eigenvalues, renormalize.

    Rejects inputs farther than PROJECTION_HERM_TOL from Hermitian; raises
    DegenerateStateError when clipping removes essentially all trace.
    """
    m = as_operator(m, "m")
    defect = np.max(herm_defect(m))
    if defect > PROJECTION_HERM_TOL:
        raise RejectedInputError(
            f"matrix too far from Hermitian to project (defect {defect:.3e})"
        )
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    w = np.clip(w, 0.0, None)
    tr = np.sum(w, axis=-1)
    if np.any(tr <= DEGENERATE_TRACE_FLOOR):
        raise DegenerateStateError("state trace vanished after clipping negative eigenvalues")
    w = w / tr[..., None]
    return (v * w[..., None, :]) @ dagger(v)


def annihilation(dim):
    """Truncated Fock-space annihilation operator of the given integer dimension."""
    if not is_count(dim) or dim < 1:
        raise RejectedInputError(f"dim must be >= 1 and an integer, got {dim!r}")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
