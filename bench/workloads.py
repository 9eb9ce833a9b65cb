"""The four benchmark workloads: set-up, the timed pipeline, and output checks.

Each workload drives mqoc only through its public functions.  The
constructor is the set-up (model, cost, grid and first-use caches); ``run``
is the timed pipeline; ``check`` compares the pipeline's outputs with an
oracle outside the timed region.  Trajectory seeds derive from the workload
seed, so one seed always gives the same inputs.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from mqoc import belavkin as bel
from mqoc import errors
from mqoc import hjb_bloch as hb
from mqoc import io
from mqoc import moments as mom
from mqoc import operators as ops
from mqoc import pontryagin as pmp

# Errors a pipeline may raise by design (every exception class in mqoc.errors);
# they count as failed trajectories.
TYPED_ERRORS = tuple(v for v in vars(errors).values()
                     if isinstance(v, type) and issubclass(v, Exception)
                     and v.__module__ == errors.__name__)

# Physicality of final states: unit trace and no eigenvalue below -PSD_TOL.
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# qnd_err is 0.0080-0.0093 over seeds 1-10 (Euler-Maruyama, dt = 1e-3, T = 1);
# twice that leaves room for scheme changes but not for a broken step or record.
QND_ERR_BOUND = 0.02
# The tier-1 suite's tolerances for the same quantities.
MOMENT_ERR_BOUND = 0.05
FBSDE_RESID_BOUND = 0.10


def trajectory_seeds(seed, n):
    """n distinct 32-bit trajectory seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def unphysical(states):
    """Boolean mask over a stack of (d, d) states that fail trace, Hermiticity or PSD."""
    finite = np.all(np.isfinite(states.reshape(len(states), -1)), axis=1)
    states = np.where(finite[:, None, None], states, 0.0)
    tr_err = np.abs(np.einsum("...ii", states) - 1.0)
    herm = np.max(np.abs(states - np.conj(np.swapaxes(states, -1, -2))), axis=(-1, -2))
    eigmin = np.linalg.eigvalsh((states + np.conj(np.swapaxes(states, -1, -2))) / 2.0)[..., 0]
    return ~finite | (tr_err > TRACE_TOL) | (herm > TRACE_TOL) | (eigmin < -PSD_TOL)


@dataclass
class Outcome:
    """Checked result of one pipeline run."""

    attempted: int
    failed: int
    loss: float = float("nan")
    values: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def bloch_state(r):
    return 0.5 * (ops.IDENTITY2 + sum(c * s for c, s in zip(r, ops.PAULI)))


class EnsembleQnd:
    """QND-measured qubit, no control: the batched d = 2 filter hot path.

    Oracle: on the same record, z_T = tanh(artanh z_0 + 2 sqrt(kappa) y_T).
    """

    name = "ensemble_qnd"
    tiny = {"n_traj": 8, "n_steps": 50}
    kappa = 0.5
    r0 = (0.3, 0.0, 0.2)

    def __init__(self, seed, outdir, n_traj=1000, n_steps=1000, dt=1e-3):
        self.outdir = outdir
        self.model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(self.kappa) * ops.SIGMA_Z)
        self.cfg = bel.SmeConfig(dt=dt, T=n_steps * dt)
        self.rho0 = bloch_state(self.r0)
        self.seeds = trajectory_seeds(seed, n_traj)
        self.traj_steps = n_traj * n_steps

    def run(self):
        _, states, _, y, _ = bel.simulate_ensemble(
            self.model, None, self.cfg, self.rho0, self.seeds, keep_states=False)
        final = states[:, -1]
        z = np.real(np.einsum("sij,ji->s", final, ops.SIGMA_Z))
        paths = [os.path.join(self.outdir, "final_z.csv"),
                 os.path.join(self.outdir, "summary.txt")]
        io.write_csv(paths[0], ["seed", "y_T", "z_T"], zip(self.seeds, y[:, -1], z))
        io.write_keyvalue(paths[1], {"n_traj": len(self.seeds), "n_steps": self.cfg.n_steps,
                                     "dt": self.cfg.dt, "mean_z_T": float(np.mean(z))})
        return {"final": final, "y_T": y[:, -1].copy(), "files": paths,
                "traj_steps": self.traj_steps}

    def check(self, out):
        n = len(self.seeds)
        final = out["final"]
        bad = unphysical(final)
        z = np.real(np.einsum("sij,ji->s", final, ops.SIGMA_Z))
        exact = np.tanh(np.arctanh(self.r0[2]) + 2.0 * np.sqrt(self.kappa) * out["y_T"])
        qnd_err = float(np.mean(np.abs(z - exact)))
        res = Outcome(attempted=n, failed=int(bad.sum()), loss=qnd_err,
                      values={"qnd_err": qnd_err})
        if bad.any():
            res.failures.append(f"{int(bad.sum())} unphysical final states")
        if not qnd_err <= QND_ERR_BOUND:
            res.failed = n
            res.failures.append(f"qnd_err {qnd_err:.4g} above {QND_ERR_BOUND}")
        return res


class ClosedLoop:
    """HJB grid -> GridPolicy ensemble -> trajectory cost -> FBSDE residual -> files.

    The controlled qubit and cost are the tier-1 suite's.  The reported loss
    is the ensemble's mean cost relative to the uncontrolled cost on the same
    seeds: it is what the controller minimises, and the ratio is steady
    across seeds where the raw cost is not.
    """

    kappa = 0.5
    r0 = (0.3, 0.0, 0.2)
    u_grid = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    T = 0.1

    def __init__(self, seed, outdir, n_space, n_time, n_traj=10, n_steps=100):
        self.outdir = outdir
        excited = np.diag([0.0, 1.0]).astype(complex)
        self.model = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(self.kappa) * ops.SIGMA_Z,
                                      Hc=(ops.SIGMA_Y,))
        self.cost = bel.quadratic_control_cost(0.5 * excited, excited, 0.2)
        self.spec = hb.GridSpec(T=self.T, n_space=n_space, n_time=n_time)
        self.cfg = bel.SmeConfig(dt=self.T / n_steps, T=self.T)
        self.rho0 = bloch_state(self.r0)
        self.seeds = trajectory_seeds(seed, n_traj)
        self.traj_steps = n_traj * n_steps
        self._uncontrolled = None
        axis = np.linspace(-1.0, 1.0, n_space)
        r2 = sum(c ** 2 for c in np.meshgrid(axis, axis, axis, indexing="ij"))
        inside = r2 <= 1.0 + hb.BLOCH_NORM_TOL
        self.inside_nodes = int(np.count_nonzero(inside))
        # extract_costate builds a per-size stencil on first use: pay it here,
        # with one lookup on an all-zero grid of the same size.
        zero = hb.ValueGrid(time_points=np.array([0.0, self.T]), axes=(axis, axis, axis),
                            values=np.zeros((2,) + inside.shape), h=float(axis[1] - axis[0]),
                            convention=hb.SIGN_STANDARD, inside=inside)
        hb.extract_costate(zero, 0.0, np.zeros(3))

    def _records(self, out):
        times, states, controls, y, w = out
        return [bel.TrajectoryRecord(times, states[i], controls[i], y[i], w[i], s)
                for i, s in enumerate(self.seeds)]

    def run(self):
        grid = hb.solve_hjb_grid(self.model, self.cost, self.u_grid, self.spec)
        policy = pmp.GridPolicy(grid, self.model, self.cost, self.u_grid)
        trajs = self._records(bel.simulate_ensemble(
            self.model, policy, self.cfg, self.rho0, self.seeds))
        costs = [bel.trajectory_cost(t, self.cost) for t in trajs]
        report = pmp.fbsde_residual(trajs[0], grid, self.model, self.cost, self.u_grid)
        paths = [os.path.join(self.outdir, "fbsde_report.txt"),
                 os.path.join(self.outdir, "grid_t0.csv")]
        report.write(paths[0])
        hb.write_grid_csv(grid, paths[1])
        return {"final": np.stack([t.states[-1] for t in trajs]), "costs": costs,
                "fbsde_resid": report.mean_relative_residual, "files": paths,
                "traj_steps": self.traj_steps,
                "node_steps": self.inside_nodes * self.spec.n_time * len(self.u_grid),
                "u_grid_size": len(self.u_grid)}

    def uncontrolled_cost(self):
        if self._uncontrolled is None:
            trajs = self._records(bel.simulate_ensemble(
                self.model, None, self.cfg, self.rho0, self.seeds))
            self._uncontrolled = float(np.mean([bel.trajectory_cost(t, self.cost)
                                                for t in trajs]))
        return self._uncontrolled

    def check(self, out):
        n = len(self.seeds)
        bad = unphysical(out["final"])
        control_cost = float(np.mean(out["costs"]))
        free_cost = self.uncontrolled_cost()
        resid = float(out["fbsde_resid"])
        res = Outcome(attempted=n, failed=int(bad.sum()), loss=control_cost / free_cost,
                      values={"fbsde_resid": resid, "control_cost": control_cost,
                              "uncontrolled_cost": free_cost})
        if bad.any():
            res.failures.append(f"{int(bad.sum())} unphysical final states")
        ensemble_failures = []
        if not resid <= FBSDE_RESID_BOUND:
            ensemble_failures.append(f"fbsde_resid {resid:.4g} above {FBSDE_RESID_BOUND}")
        if not control_cost < free_cost:
            ensemble_failures.append(
                f"control_cost {control_cost:.6g} not below uncontrolled {free_cost:.6g}")
        if ensemble_failures:
            res.failures += ensemble_failures
            res.failed = n
        return res


class ClosedLoop21(ClosedLoop):
    name = "closed_loop_21"
    tiny = {"n_space": 11, "n_time": 40, "n_traj": 3, "n_steps": 20}

    def __init__(self, seed, outdir, n_space=21, n_time=160, **kw):
        super().__init__(seed, outdir, n_space, n_time, **kw)


class ClosedLoop41(ClosedLoop):
    name = "closed_loop_41"
    tiny = ClosedLoop21.tiny

    def __init__(self, seed, outdir, n_space=41, n_time=640, **kw):
        super().__init__(seed, outdir, n_space, n_time, **kw)


def displacement(a, alpha):
    """exp(alpha a^dag - alpha* a) through the Hermitian generator's eigenbasis."""
    gen = -1j * (alpha * ops.dagger(a) - np.conj(alpha) * a)
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(1j * w)[None, :]) @ ops.dagger(v)


class FockMoment:
    """Damped oscillator: dense Fock filter vs the Gaussian moment filter.

    Large d with a small batch.  Oracle: the Fock filter's <x>, <p> on the
    same innovations, as in the tier-1 agreement test.
    """

    name = "fock_moment"
    tiny = {"dim": 8, "n_traj": 4, "n_steps": 100}
    omega, kappa, nbar, alpha = 1.0, 0.5, 0.5, 0.8 + 0.4j

    def __init__(self, seed, outdir, dim=21, n_traj=16, n_steps=1000, dt=1e-3):
        a = ops.annihilation(dim)
        ad = ops.dagger(a)
        self.model = ops.QuantumModel(H0=self.omega * (ad @ a), L=np.sqrt(self.kappa) * a)
        pn = np.array([self.nbar ** k / (1 + self.nbar) ** (k + 1) for k in range(dim)])
        disp = displacement(a, self.alpha)
        self.rho0 = ops.project_physical(disp @ np.diag(pn / pn.sum()) @ ops.dagger(disp))
        k = self.kappa
        self.linear = mom.LinearModel(
            A=np.array([[-k / 2, self.omega], [-self.omega, -k / 2]]),
            B=np.zeros((2, 1)),
            C=np.array([[np.sqrt(2 * k), 0.0]]),
            F=np.sqrt(k / 2) * np.eye(2),
            M_cov=np.array([[-np.sqrt(k / 2)], [0.0]]),
        )
        self.state0 = mom.MomentState(
            xhat=[np.sqrt(2) * self.alpha.real, np.sqrt(2) * self.alpha.imag],
            sigma=(self.nbar + 0.5) * np.eye(2))
        self.quadratures = np.stack([(a + ad) / np.sqrt(2), 1j * (ad - a) / np.sqrt(2)])
        self.cfg = bel.SmeConfig(dt=dt, T=n_steps * dt)
        self.seeds = trajectory_seeds(seed, n_traj)
        self.traj_steps = n_traj * n_steps

    def run(self):
        _, states, _, _, w = bel.simulate_ensemble(self.model, None, self.cfg, self.rho0,
                                                   self.seeds)
        ref = np.real(np.einsum("stij,qji->stq", states, self.quadratures))
        means = [mom.run_moment_filter(self.state0, self.linear, self.cfg.dt, self.cfg.n_steps,
                                       innovations=np.diff(wi)[:, None],
                                       include_diffusion=True)[0]
                 for wi in w]
        return {"final": states[:, -1].copy(), "ref": ref, "means": np.stack(means),
                "files": [], "traj_steps": self.traj_steps}

    def check(self, out):
        n = len(self.seeds)
        bad = unphysical(out["final"])
        ref = out["ref"]
        rel = (np.max(np.abs(ref - out["means"]), axis=(1, 2))
               / np.max(np.abs(ref), axis=(1, 2)))
        over = ~(rel <= MOMENT_ERR_BOUND)
        moment_err = float(np.mean(rel))
        res = Outcome(attempted=n, failed=int((bad | over).sum()), loss=moment_err,
                      values={"moment_err": moment_err})
        if bad.any():
            res.failures.append(f"{int(bad.sum())} unphysical final states")
        if over.any():
            res.failures.append(f"{int(over.sum())} trajectories with moment error above "
                                f"{MOMENT_ERR_BOUND} (worst {float(np.max(rel)):.4g})")
        return res


WORKLOADS = {w.name: w for w in (EnsembleQnd, ClosedLoop21, ClosedLoop41, FockMoment)}
