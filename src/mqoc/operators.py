"""Dense complex-matrix kernel: density matrices, Lindblad drift, fluctuation.

All functions accept stacked inputs: a state argument may have shape
(..., d, d) with leading batch axes, and operators broadcast against it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, DimensionMismatchError, RejectedInputError

# Tolerances for state/operator invariants.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIG_TOL = 1e-10
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


def dagger(m):
    return np.conj(np.swapaxes(m, -1, -2))


def trace(m):
    return np.einsum("...ii", m)


def herm_defect(m):
    """Largest entrywise deviation from Hermiticity."""
    return np.max(np.abs(m - dagger(m)), axis=(-1, -2))


def as_operator(m, name="operator"):
    """Validate a square complex matrix (dim >= 1, dim <= MAX_DIM)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise RejectedInputError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise RejectedInputError(f"{name} must have dim >= 1")
    if m.shape[-1] > MAX_DIM:
        raise RejectedInputError(
            f"{name} has dim {m.shape[-1]} above the dense-algebra cap {MAX_DIM}"
        )
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


def _same_dim(a, b, what="operands"):
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(
            f"{what} have mismatched dims {a.shape[-1]} and {b.shape[-1]}"
        )


@dataclass(frozen=True)
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
        if self.hbar <= 0:
            raise RejectedInputError("hbar must be positive")
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
        u = np.atleast_1d(np.asarray(u, dtype=float)) if np.size(u) else np.zeros(0)
        if u.shape[-1] != len(self.Hc):
            raise DimensionMismatchError(
                f"control has {u.shape[-1]} components, model has {len(self.Hc)}"
            )
        h = self.H0
        for ui, hci in zip(u, self.Hc):
            h = h + ui * hci
        return h

    def channels(self):
        """All dissipative channels: the measured L first, then L_extra."""
        return (self.L,) + self.L_extra


def commutator(a, b):
    """[a, b] = ab - ba."""
    a = as_operator(a, "a")
    b = as_operator(b, "b")
    _same_dim(a, b)
    return a @ b - b @ a


def dissipator(L, rho, LdL=None):
    """L rho L^dag - (1/2){L^dag L, rho} for one channel."""
    Ld = dagger(L)
    if LdL is None:
        LdL = Ld @ L
    return L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)


def lindblad_drift(model, u, rho):
    """Unconditional state velocity w(t, u, rho).

    w = -(i/hbar)[H(u), rho] plus the dissipator of the measured channel and
    of every extra channel.  Hermitian and trace-free for valid states.
    """
    rho = as_operator(rho, "rho")
    if rho.shape[-1] != model.dim:
        raise DimensionMismatchError(
            f"rho has dim {rho.shape[-1]}, model has dim {model.dim}"
        )
    h = model.hamiltonian(u)
    w = (-1j / model.hbar) * (h @ rho - rho @ h)
    for L in model.channels():
        w = w + dissipator(L, rho)
    return w


def fluctuation(L, rho):
    """Measurement-induced state fluctuation sigma(rho) = L rho + rho L^dag - <L+L^dag> rho."""
    L = as_operator(L, "L")
    rho = as_operator(rho, "rho")
    _same_dim(L, rho, "L and rho")
    mean = np.real(trace(rho @ (L + dagger(L))))
    return L @ rho + rho @ dagger(L) - mean[..., None, None] * rho


def expectation(rho, X):
    """tr(rho X); real up to rounding when X is Hermitian."""
    rho = as_operator(rho, "rho")
    X = as_operator(X, "X")
    _same_dim(rho, X, "rho and X")
    return np.einsum("...ij,...ji->...", rho, X)


def project_physical(m):
    """Repair integration drift: hermitize, clip negative eigenvalues, renormalize.

    Rejects inputs farther than PROJECTION_HERM_TOL from Hermitian; raises
    DegenerateStateError when clipping removes essentially all trace.
    """
    m = as_operator(m, "m")
    defect = np.max(herm_defect(m))
    if defect > PROJECTION_HERM_TOL:
        raise RejectedInputError(
            f"matrix too far from Hermitian to project (defect {defect:.3e})"
        )
    h = (m + dagger(m)) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    tr = np.sum(w, axis=-1)
    if np.any(tr <= DEGENERATE_TRACE_FLOOR):
        raise DegenerateStateError("state trace vanished after clipping negative eigenvalues")
    w = w / tr[..., None]
    return (v * w[..., None, :]) @ dagger(v)


def annihilation(dim):
    """Truncated Fock-space annihilation operator of the given dimension."""
    if dim < 1:
        raise RejectedInputError("dim must be >= 1")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
