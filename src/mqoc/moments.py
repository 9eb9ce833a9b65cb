"""Heisenberg-picture quantum linear model and the Gaussian moment filter.

`build_AB` constructs the state matrices from the Hamiltonian parameters
(R, K, Gamma) with their Hermiticity constraints.  R and K act on the
annihilator representation X = (a_1..a_m; a_1^dag..a_m^dag), where
[X_i, X_j] = S_ij, and the matrices A, B it returns act there too.  Gamma
acts on the Hermitian quadratures (x; p) = U X of `to_quadrature`: each row
is one channel L = Gamma_l . (x; p).

The filter runs on a `LinearModel`, five real read-only quadrature matrices: the
conditional mean follows dXhat = (A Xhat + B u) dt + Ktilde dYtilde, Ktilde = Sigma C^T + M,
and Sigma a Riccati recursion that never reads the record.  Its diffusion
F F^T comes from the dissipator and always enters (F=None: none).  So
`covariance_path` caches Sigma and Ktilde per model and inputs.  Against
them, `MomentFilter` advances a batch of means one Euler step at a time,
x <- x + (A x + B u) dt + Ktilde_k dy, written as the affine map
x <- Phi x + g with Phi = I + A dt and g = (B u) dt + Ktilde_k dy, and
`run_moment_filter` runs the same step over whole records.
"""

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import DimensionMismatchError, NumericalBlowupError, RejectedInputError

HERM_CONSTRAINT_TOL = 1e-10
SIGMA_PSD_TOL = 1e-9


def _mat(x, name):
    m = np.asarray(x)
    if m.ndim != 2:
        raise RejectedInputError(f"{name} must be a matrix, got shape {m.shape}")
    return m


def _real(x, name):
    """x as a read-only float copy; a complex dtype or a non-finite entry is refused by name."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise RejectedInputError(f"{name} must be real and finite, not complex")
    if not np.all(np.isfinite(x)):
        raise RejectedInputError(f"{name} has non-finite entries: it must be real and finite")
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


def symplectic(m):
    """S = [[0, I], [-I, 0]] acting on stacked (annihilators, creators)."""
    eye = np.eye(m)
    return np.block([[np.zeros((m, m)), eye], [-eye, np.zeros((m, m))]])


def _quadrature_basis(m):
    """U with (x; p) = U (a; a^dag): x = (a + a^dag)/sqrt2, p = i(a^dag - a)/sqrt2."""
    eye = np.eye(m)
    return np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2.0)


def check_construction(R_param, K_ham, Gamma):
    """Validate the Hermiticity constraints; returns the first violation name."""
    R = _mat(R_param, "R_param")
    K = _mat(K_ham, "K_ham")
    n = R.shape[0]
    if R.shape[0] != R.shape[1] or n % 2:
        raise RejectedInputError("R_param must be square with even dimension 2m")
    m = n // 2
    # H = X^T R X / 2 is Hermitian iff sym = R + R^T obeys sym = P sym* P (P
    # swaps a and a^dag; its (1,1) and (1,2) blocks suffice) and the c-number
    # tr(R^T S) / 4 of R's antisymmetric part ([X_i, X_j] = S_ij) is real.
    sym = R + R.T
    if np.max(np.abs(sym[:m, :m] - np.conj(sym[m:, m:]))) > HERM_CONSTRAINT_TOL:
        return "R11 + R11^T = (R22 + R22^T)*"
    if np.max(np.abs(sym[:m, m:] - np.conj(sym[m:, :m]))) > HERM_CONSTRAINT_TOL:
        return "R12 + R21^T is Hermitian"
    if abs(np.imag(np.sum(R * symplectic(m)))) > HERM_CONSTRAINT_TOL:
        return "Im tr(R^T S) = 0"
    if K.shape[0] != n:
        raise DimensionMismatchError(f"K_ham must have {n} rows, got {K.shape[0]}")
    k_minus, k_plus = K[:m], K[m:]
    if np.max(np.abs(np.real(k_minus) - np.real(k_plus))) > HERM_CONSTRAINT_TOL:
        return "Re(K-) = Re(K+)"
    if Gamma is not None:
        g = _mat(Gamma, "Gamma")
        if g.shape[1] != n:
            raise DimensionMismatchError(f"Gamma must have {n} columns, got {g.shape[1]}")
    return None


def build_AB(R_param, K_ham, Gamma=None, hbar=1.0):
    """State matrices of the annihilator-representation linear model.

    R and K act on X = (a; a^dag), with H = (1/2) X^T R X; A and B act on X.
    Each row of Gamma is one channel L = Gamma_l . (x; p) on the quadratures
    (x; p) = U X, U the matrix of `to_quadrature`.  With S = `symplectic(m)`,

        A = -(i/2hbar) S (R + R^T) + U^-1 S Im(Gamma^dag Gamma) U,
        B = -(i/2hbar) S (K + K*).

    The Gamma term is the dissipator sum_L (L^dag X L - (1/2){L^dag L, X});
    in quadratures it reads S Im(Gamma^dag Gamma), and it carries no 1/hbar.
    It vanishes exactly when Gamma is real, i.e. when every L is self-adjoint;
    a complex Gamma damps or amplifies the mean (Gamma = sqrt(kappa/2) [1, i]
    is L = sqrt(kappa) a, which damps at rate kappa/2).
    Violated Hermiticity constraints are rejected by the equation name, and
    hbar must be one finite number > 0 (`operators.check_hbar`).
    """
    ops.check_hbar(hbar)
    violated = check_construction(R_param, K_ham, Gamma)
    if violated is not None:
        raise RejectedInputError(f"Hermiticity constraint violated: {violated}")
    R = np.asarray(R_param, dtype=complex)
    K = np.asarray(K_ham, dtype=complex)
    m = R.shape[0] // 2
    S = symplectic(m)
    A = (-1j / (2 * hbar)) * (S @ (R + R.T))
    if Gamma is not None:
        G = np.asarray(Gamma, dtype=complex)
        U = _quadrature_basis(m)
        A = A + U.conj().T @ S @ np.imag(G.conj().T @ G) @ U
    B = (-1j / (2 * hbar)) * (S @ (K + K.conj()))
    return A, B


def to_quadrature(mat, m):
    """Conjugate an annihilator-representation matrix into (x, p) quadratures."""
    mat = _mat(mat, "mat")
    if mat.shape != (2 * m, 2 * m):
        raise DimensionMismatchError(f"expected shape {(2*m, 2*m)}, got {mat.shape}")
    u = _quadrature_basis(m)
    return u @ mat @ np.linalg.inv(u)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """State-space matrices of the measured linear model, in real quadrature coordinates.

    n states, d controls, q measured outputs.  M_cov is the constant part of
    the filter gain (a covariance of noise increments, treated as a free
    model parameter), and F F^T the diffusion, always in the Riccati (F=None: zeros).
    Each matrix is checked once, here, and refused by name if misshapen,
    complex or not finite; the model keeps read-only float copies, so the
    checks hold for its life.  `covariance_path` caches its path on the model.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    F: np.ndarray = None
    M_cov: np.ndarray = None

    def __post_init__(self):
        n, q = len(_mat(self.A, "A")), len(_mat(self.C, "C"))
        defaults = {"F": np.zeros((n, n)), "M_cov": np.zeros((n, q))}
        # The shape each matrix must have, None leaving an axis free.
        for name, shape in (("A", (n, n)), ("B", (n, None)), ("C", (q, n)), ("F", (n, None)),
                            ("M_cov", (n, q))):
            val = getattr(self, name)
            val = _mat(defaults.get(name) if val is None else val, name)
            if any(want not in (None, got) for want, got in zip(shape, val.shape)):
                raise DimensionMismatchError(f"{name} must have shape {shape}, got {val.shape}")
            object.__setattr__(self, name, _real(val, name))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.B.shape[1]

    @property
    def q(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class MomentState:
    """Conditional mean vector and covariance of the filter, read-only float copies refused
    by name if complex or not finite; `covariance_path` checks that sigma is PSD."""

    xhat: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        xhat = _real(self.xhat, "xhat").reshape(-1)
        sigma = _real(_mat(self.sigma, "sigma"), "sigma")
        if sigma.shape != (len(xhat), len(xhat)):
            raise DimensionMismatchError("sigma shape does not match xhat")
        object.__setattr__(self, "xhat", xhat)
        object.__setattr__(self, "sigma", sigma)


def _covariance_update(sigma, A, ktilde, dt, FFt):
    out = sigma + (A @ sigma + sigma @ A.T - ktilde @ ktilde.T) * dt + FFt * dt
    return (out + out.T) / 2


def covariance_path(model, sigma0, dt, n_steps):
    """Sigma_0..Sigma_n (n_steps + 1, n, n) and Ktilde_0..Ktilde_{n-1} (n_steps, n, q).

    Ktilde_k = Sigma_k C^T + M and the Euler step of the Riccati recursion,
    Sigma_{k+1} = Sigma_k + (A Sigma_k + Sigma_k A^T - Ktilde_k Ktilde_k^T
    + FF^T) dt, then symmetrized exactly, never read the record, so one path
    serves every trajectory.  FF^T always enters; a model built with F=None
    has F = 0 and no diffusion.  The path is cached per model and inputs:
    the model keeps its last path, keyed by n_steps, sigma0 and dt, and
    returns it read-only.  The model's read-only matrices were checked when
    it was built and sigma0 (real, finite) is checked here, so the loop
    runs the two updates without re-validating them.  A new path
    is checked at the end and cached only if it passes: a non-finite Sigma
    raises NumericalBlowupError, and a symmetric part with an eigenvalue
    below -SIGMA_PSD_TOL raises RejectedInputError, as do a dt that is not
    finite and positive and an n_steps that is not a non-negative integer.
    """
    ops.check_steps(dt, n_steps)
    sigma0 = _real(_mat(sigma0, "sigma0"), "sigma0")
    if sigma0.shape != (model.n, model.n):
        raise DimensionMismatchError(f"sigma0 must be {(model.n, model.n)}, got {sigma0.shape}")
    key = (n_steps, sigma0.tobytes(), dt)
    cached = getattr(model, "_covariance_path", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    sigmas = np.empty((n_steps + 1, model.n, model.n))
    gains = np.empty((n_steps, model.n, model.q))
    sigmas[0] = sigma0
    FFt = model.F @ model.F.T
    for k in range(n_steps):
        gains[k] = sigmas[k] @ model.C.T + model.M_cov
        sigmas[k + 1] = _covariance_update(sigmas[k], model.A, gains[k], dt, FFt)
    if not np.all(np.isfinite(sigmas)):
        raise NumericalBlowupError("non-finite covariance on the filter's path")
    sym = (sigmas + np.swapaxes(sigmas, 1, 2)) / 2
    if np.min(np.linalg.eigvalsh(sym)) < -SIGMA_PSD_TOL:
        raise RejectedInputError("symmetric part of sigma must be PSD along the covariance path")
    sigmas.flags.writeable = gains.flags.writeable = False
    object.__setattr__(model, "_covariance_path", (key, (sigmas, gains)))
    return sigmas, gains


def _columns(rows, tail, name):
    """Inputs (..., *tail) as column vectors (..., *tail, 1), or None."""
    if rows is None:
        return None
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-len(tail):] != tail:
        raise DimensionMismatchError(
            f"{name} must have shape (..., {', '.join(map(str, tail))}), got {rows.shape}")
    return rows[..., None]


def _forcing(bu, kdy, dt):
    """g = (B u) dt + Ktilde dy from B u and Ktilde dy, None meaning zero; None if both are."""
    if bu is None:
        return kdy
    return bu * dt if kdy is None else bu * dt + kdy


def _batch(*shapes):
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise DimensionMismatchError(f"batch shapes {shapes} do not broadcast") from None


class MomentFilter:
    """The moment filter (module docstring) advanced one step at a time.

    The Sigma/Ktilde path of `covariance_path` is fetched once, for n_steps
    steps, and Phi = I + A dt built once.  The means start at state.xhat and
    are kept as column vectors (*batch, n, 1), the batch shape being whatever
    the inputs broadcast to.
    """

    def __init__(self, state, model, dt, n_steps):
        self.sigmas, self.gains = covariance_path(model, state.sigma, dt, n_steps)
        self.model, self.dt, self.k = model, dt, 0
        self.phi = np.eye(model.n) + model.A * dt
        self.x = state.xhat[:, None].copy()

    def _advance(self, g):
        """x <- Phi x + g, given g = (B u) dt + Ktilde_k dy (None: zero)."""
        x = self.phi @ self.x
        self.x = x if g is None else x + g
        self.k += 1

    def step(self, dy=None, u=None):
        """Advance by the innovation dy (..., q) and control u (..., d), None
        meaning zero; returns the new means (*batch, n).  Sigma_k is sigmas[k].
        A step past n_steps raises RejectedInputError; inputs that are
        misshapen, or do not broadcast with the batch, DimensionMismatchError."""
        if self.k == len(self.gains):
            raise RejectedInputError(f"the filter has taken all its {self.k} steps")
        dy = _columns(dy, (self.model.q,), "dy")
        u = _columns(u, (self.model.d,), "u")
        _batch(self.x.shape[:-2], *(v.shape[:-2] for v in (dy, u) if v is not None))
        self._advance(_forcing(None if u is None else self.model.B @ u,
                               None if dy is None else self.gains[self.k] @ dy, self.dt))
        if not np.all(np.isfinite(self.x)):
            raise NumericalBlowupError(f"non-finite mean at step {self.k} of MomentFilter")
        return self.x[..., 0]


def run_moment_filter(state, model, dt, n_steps, controls=None, innovations=None,
                      include_diffusion=True):
    """Filter a batch of records from one initial state; returns (xhat_path, sigma_path).

    innovations (..., n_steps, q) and controls (..., n_steps, d) hold one
    row per step, None meaning zero; their leading axes broadcast to the
    batch shape.  The covariance path is shared and cached per model and
    inputs (`covariance_path`), so xhat_path has shape
    (*batch, n_steps + 1, n) and sigma_path, read-only, (n_steps + 1, n, n).
    include_diffusion stays for callers that pass True; F F^T always enters.
    """
    if include_diffusion is not True:
        raise RejectedInputError(f"include_diffusion={include_diffusion!r}: F F^T always enters")
    dy = _columns(innovations, (n_steps, model.q), "innovations")
    u = _columns(controls, (n_steps, model.d), "controls")
    filt = MomentFilter(state, model, dt, n_steps)
    batch = _batch(*(v.shape[:-3] for v in (dy, u) if v is not None))
    xs = np.empty(batch + (n_steps + 1, model.n))
    xs[..., 0, :] = state.xhat
    # A stacked matmul does one matrix-vector product per record and step,
    # so a batch gives the bits of its records one by one, and g takes one
    # stacked matmul each for B u and Ktilde dy over all steps.
    filt.x = np.broadcast_to(filt.x, batch + (model.n, 1)).copy()
    g = _forcing(None if u is None else model.B @ u, None if dy is None else filt.gains @ dy, dt)
    for k in range(n_steps):
        filt._advance(None if g is None else g[..., k, :, :])
        xs[..., k + 1, :] = filt.x[..., 0]
    if not np.all(np.isfinite(xs)):
        raise NumericalBlowupError("non-finite mean in run_moment_filter")
    return xs, filt.sigmas

