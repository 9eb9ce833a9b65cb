"""Heisenberg-picture quantum linear model and the Gaussian moment filter.

`build_AB` constructs the state matrices from the Hamiltonian parameters
(R, K, Gamma) with their Hermiticity constraints.  R and K act on the
annihilator representation X = (a_1..a_m; a_1^dag..a_m^dag), where
[X_i, X_j] = S_ij, and the matrices A, B it returns act there too.  Gamma
acts on the Hermitian quadratures (x; p) = U X of `to_quadrature`: each row
is one channel L = Gamma_l . (x; p).
Simulation scenarios use real quadrature coordinates, where the conditional
mean follows dXhat = (A Xhat + B u) dt + Ktilde dYtilde with gain
Ktilde = Sigma C^T + M and a deterministic covariance recursion.
"""

from dataclasses import dataclass

import numpy as np
import yaml

from .errors import DimensionMismatchError, NumericalBlowupError, RejectedInputError

HERM_CONSTRAINT_TOL = 1e-10
SIGMA_PSD_TOL = 1e-9


def _mat(x, name):
    m = np.asarray(x)
    if m.ndim != 2:
        raise RejectedInputError(f"{name} must be a matrix, got shape {m.shape}")
    return m


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
    r11, r12 = R[:m, :m], R[:m, m:]
    r21, r22 = R[m:, :m], R[m:, m:]
    if np.max(np.abs(r11 + r11.T - np.conj(r22 + r22.T))) > HERM_CONSTRAINT_TOL:
        return "R11 + R11^T = (R22 + R22^T)*"
    if np.max(np.abs(r12.T - r12)) > HERM_CONSTRAINT_TOL:
        return "R12^T = R12"
    if np.max(np.abs(r21.T - r21)) > HERM_CONSTRAINT_TOL:
        return "R21^T = R21"
    # H = X^T R X / 2 is Hermitian iff its symmetric part obeys
    # sym(R) = P sym(R)* P, P swapping a and a^dag, and the c-number
    # tr(R^T S) / 4 left by its antisymmetric part ([X_i, X_j] = S_ij) is real.
    sym = R + R.T
    swap = np.r_[m:n, :m]
    if np.max(np.abs(sym - np.conj(sym[np.ix_(swap, swap)]))) > HERM_CONSTRAINT_TOL:
        return "sym(R) = P sym(R)* P"
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
    Violated Hermiticity constraints are rejected by the equation name.
    """
    violated = check_construction(R_param, K_ham, Gamma)
    if violated is not None:
        raise RejectedInputError(f"Hermiticity constraint violated: {violated}")
    R = np.asarray(R_param, dtype=complex)
    K = np.asarray(K_ham, dtype=complex)
    n = R.shape[0]
    m = n // 2
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


@dataclass(frozen=True)
class LinearModel:
    """State-space matrices of the measured linear model.

    n states, d control/noise channels, q measured outputs.  M_cov is the
    constant part of the filter gain (a covariance of noise increments,
    treated as a free model parameter).  The optional construction block
    records the Hamiltonian parameters the A/B matrices came from.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = None
    F: np.ndarray = None
    G: np.ndarray = None
    M_cov: np.ndarray = None
    construction: dict = None

    def __post_init__(self):
        A = _mat(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatchError("A must be square")
        B = _mat(self.B, "B")
        if B.shape[0] != n:
            raise DimensionMismatchError(f"B must have {n} rows")
        C = _mat(self.C, "C")
        if C.shape[1] != n:
            raise DimensionMismatchError(f"C must have {n} columns")
        q = C.shape[0]
        D = np.zeros((q, B.shape[1])) if self.D is None else _mat(self.D, "D")
        F = np.zeros((n, n)) if self.F is None else _mat(self.F, "F")
        G = np.eye(q) if self.G is None else _mat(self.G, "G")
        M = np.zeros((n, q)) if self.M_cov is None else _mat(self.M_cov, "M_cov")
        if D.shape != (q, B.shape[1]):
            raise DimensionMismatchError(f"D must be {(q, B.shape[1])}")
        if F.shape[0] != n:
            raise DimensionMismatchError(f"F must have {n} rows")
        if G.shape[0] != q:
            raise DimensionMismatchError(f"G must have {q} rows")
        if M.shape != (n, q):
            raise DimensionMismatchError(f"M_cov must be {(n, q)}")
        if self.construction is not None:
            violated = check_construction(
                self.construction["R_param"], self.construction["K_ham"],
                self.construction.get("Gamma"))
            if violated is not None:
                raise RejectedInputError(f"Hermiticity constraint violated: {violated}")
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D), ("F", F),
                          ("G", G), ("M_cov", M)):
            object.__setattr__(self, name, val)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.B.shape[1]

    @property
    def q(self):
        return self.C.shape[0]

    @property
    def FFt(self):
        return np.real(self.F @ np.conj(self.F.T))


@dataclass(frozen=True)
class MomentState:
    """Conditional mean vector and (symmetrized) covariance of the filter."""

    xhat: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        xhat = np.asarray(self.xhat, dtype=float).reshape(-1)
        sigma = _mat(self.sigma, "sigma")
        if sigma.shape != (len(xhat), len(xhat)):
            raise DimensionMismatchError("sigma shape does not match xhat")
        sym = (sigma + sigma.T) / 2
        if np.min(np.linalg.eigvalsh(np.real(sym))) < -SIGMA_PSD_TOL:
            raise RejectedInputError("symmetric part of sigma must be PSD")
        object.__setattr__(self, "xhat", xhat)
        object.__setattr__(self, "sigma", np.asarray(sigma, dtype=float))


def kalman_gain(sigma, C, M_cov):
    """Ktilde = Sigma C^T + M."""
    sigma = _mat(sigma, "sigma")
    C = _mat(C, "C")
    if sigma.shape[1] != C.shape[1]:
        raise DimensionMismatchError("sigma and C disagree on the state size")
    gain = sigma @ C.T
    if M_cov is not None:
        M_cov = _mat(M_cov, "M_cov")
        if M_cov.shape != gain.shape:
            raise DimensionMismatchError(f"M_cov must be {gain.shape}")
        gain = gain + M_cov
    return gain


def covariance_step(sigma, A, ktilde, include_diffusion=False, FFt=None, dt=None):
    """Euler step of the covariance: Sigma + (A Sigma + Sigma A^T - Ktilde Ktilde^T) dt.

    The optional FF^T dt injection restores the classical Kalman-Bucy noise
    term; without it the gain drains the covariance toward zero.  The result
    is symmetrized exactly.
    """
    if dt is None:
        raise RejectedInputError("covariance_step requires dt")
    sigma = _mat(sigma, "sigma")
    g = A @ sigma + sigma @ A.T - ktilde @ ktilde.T
    out = sigma + g * dt
    if include_diffusion:
        if FFt is None:
            raise RejectedInputError("include_diffusion requires FFt")
        out = out + _mat(FFt, "FFt") * dt
    return (out + out.T) / 2


def moment_filter_step(state, u, dYtilde, model, dt, include_diffusion=False):
    """One joint Euler step of the conditional mean and covariance."""
    if np.iscomplexobj(model.A) or np.iscomplexobj(model.B) or np.iscomplexobj(model.C):
        raise RejectedInputError(
            "moment filtering runs in the real quadrature representation")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    dY = np.atleast_1d(np.asarray(dYtilde, dtype=float))
    if u.shape[-1] != model.d:
        raise DimensionMismatchError(f"control must have {model.d} components")
    if dY.shape[-1] != model.q:
        raise DimensionMismatchError(f"innovation must have {model.q} components")
    ktilde = kalman_gain(state.sigma, model.C, model.M_cov)
    xhat = state.xhat + (model.A @ state.xhat + model.B @ u) * dt + ktilde @ dY
    if not np.all(np.isfinite(xhat)):
        raise NumericalBlowupError("non-finite mean after moment_filter_step")
    sigma = covariance_step(state.sigma, model.A, ktilde,
                            include_diffusion=include_diffusion,
                            FFt=model.FFt, dt=dt)
    return MomentState(xhat=xhat, sigma=sigma)


def run_moment_filter(state, model, dt, n_steps, controls=None, innovations=None,
                      include_diffusion=False):
    """Iterate the filter; returns (xhat_path, sigma_path) with n_steps+1 entries."""
    xs = np.empty((n_steps + 1, model.n))
    sigmas = np.empty((n_steps + 1, model.n, model.n))
    xs[0] = state.xhat
    sigmas[0] = state.sigma
    cur = state
    for k in range(n_steps):
        u = np.zeros(model.d) if controls is None else controls[k]
        dy = np.zeros(model.q) if innovations is None else innovations[k]
        cur = moment_filter_step(cur, u, dy, model, dt,
                                 include_diffusion=include_diffusion)
        xs[k + 1] = cur.xhat
        sigmas[k + 1] = cur.sigma
    return xs, sigmas


def _matrix_block(m):
    m = np.asarray(m)
    if np.iscomplexobj(m) and np.max(np.abs(m.imag)) > 0:
        return {"shape": list(m.shape),
                "data_re": [float(v) for v in m.real.ravel()],
                "data_im": [float(v) for v in m.imag.ravel()]}
    return {"shape": list(m.shape), "data": [float(v) for v in np.real(m).ravel()]}


def _block_matrix(block, name):
    try:
        shape = tuple(block["shape"])
        if "data" in block:
            return np.array(block["data"], dtype=float).reshape(shape)
        data = np.array(block["data_re"], dtype=float) \
            + 1j * np.array(block["data_im"], dtype=float)
        return data.reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise RejectedInputError(f"malformed matrix block {name!r}: {exc}") from exc


def save_linear_model(model, path):
    """YAML mapping, keys sorted, of row-major matrix blocks {shape, data[_re, _im]}."""
    doc = {name: _matrix_block(getattr(model, name))
           for name in ("A", "B", "C", "D", "F", "G", "M_cov")}
    if model.construction is not None:
        doc["construction"] = {k: _matrix_block(v) if not np.isscalar(v) else float(v)
                               for k, v in model.construction.items()}
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


def load_linear_model(path):
    """Parse and validate a model file; the first violated constraint is named."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    mats = {}
    for name in ("A", "B", "C", "D", "F", "G", "M_cov"):
        if name in doc:
            mats[name] = _block_matrix(doc[name], name)
    construction = None
    if "construction" in doc:
        construction = {k: (_block_matrix(v, k) if isinstance(v, dict) else float(v))
                        for k, v in doc["construction"].items()}
    return LinearModel(construction=construction, **mats)
