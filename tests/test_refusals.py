"""Typed refusals that no other test reaches: one case per `raise` statement, each
asserting the exact `mqoc.errors` type and a fragment of the message."""

import dataclasses

import numpy as np
import pytest

from mqoc import belavkin as bel
from mqoc import hjb_bloch as hjb
from mqoc import moments as mom
from mqoc import operators as ops
from mqoc import pontryagin as pmp
from mqoc.errors import DimensionMismatchError, NumericalBlowupError, RejectedInputError
from reference import density_from_bloch, record

QUBIT = ops.QuantumModel(H0=np.zeros((2, 2)), L=np.sqrt(0.5) * ops.SIGMA_Z, Hc=(ops.SIGMA_Y,))
CFG = bel.SmeConfig(dt=2.5e-3, T=0.05)
START = density_from_bloch([0.3, 0.0, 0.2])


def trajectory(**changes):
    """QUBIT's uncontrolled `TrajectoryRecord`, rebuilt with some arrays replaced."""
    return dataclasses.replace(record(QUBIT, None, CFG, START, 3), **changes)


def moment_filter_overflow(tmp_path):
    # B u = 10 * 1e308 overflows to inf: the covariance path, which B does not enter,
    # stays finite, and the mean does not.
    model = mom.LinearModel(A=[[0.0]], B=[[10.0]], C=[[1.0]])
    state = mom.MomentState(xhat=[0.0], sigma=[[1.0]])
    mom.MomentFilter(state, model, 0.1, 1).step(u=[[1e308]])


def costate_overflow(tmp_path):
    # The last innovation, 1e308 - (-1e308), overflows to inf in the backward leg's
    # first step.
    excited = np.diag([0.0, 1.0]).astype(complex)
    cost = bel.quadratic_control_cost(0.5 * excited, excited, 0.2)
    u_grid = [[-1.0], [0.0], [1.0]]
    grid = hjb.solve_hjb_grid(QUBIT, cost, u_grid, hjb.GridSpec(T=0.05, n_space=11, n_time=20))
    w = np.zeros(CFG.n_steps + 1)
    w[-2:] = -1e308, 1e308
    pmp.fbsde_residual(trajectory(innovations_W=w), grid, QUBIT, cost, u_grid)


CASES = {
    "check_density_trace": (
        lambda tmp_path: bel.simulate_ensemble(QUBIT, None, CFG, 0.6 * np.eye(2), [1]),
        RejectedInputError, "trace deviates from 1"),
    "check_density_negative_eigenvalue": (
        lambda tmp_path: bel.simulate_ensemble(QUBIT, None, CFG, np.diag([1.5, -0.5]), [1]),
        RejectedInputError, "has negative eigenvalue"),
    "as_operator_empty": (lambda tmp_path: ops.as_operator(np.zeros((0, 0))),
                          RejectedInputError, "must have dim >= 1"),
    "bloch_of_a_qutrit": (
        lambda tmp_path: ops.QuantumModel(H0=np.zeros((3, 3)), L=np.eye(3)).bloch,
        RejectedInputError, "qubit-only"),
    "lindblad_drift_dim": (lambda tmp_path: ops.lindblad_drift(QUBIT, [0.0], np.eye(3) / 3),
                           DimensionMismatchError, "rho has dim 3, model has dim 2"),
    "fluctuation_stacked_L": (
        lambda tmp_path: ops.fluctuation(np.stack([ops.SIGMA_Z] * 2), np.eye(2) / 2),
        RejectedInputError, "L must be a single matrix"),
    "annihilation_zero": (lambda tmp_path: ops.annihilation(0),
                          RejectedInputError, "dim must be >= 1"),
    # Before: 2.5 gave a 3 x 3 operator and True a 1 x 1 one.
    "annihilation_float": (lambda tmp_path: ops.annihilation(2.5),
                           RejectedInputError, "an integer, got 2.5"),
    "annihilation_bool": (lambda tmp_path: ops.annihilation(True),
                          RejectedInputError, "an integer, got True"),
    # Before: a bare TypeError from comparing the string or None with 0.
    "hbar_string": (
        lambda tmp_path: ops.QuantumModel(H0=np.zeros((2, 2)), L=np.eye(2), hbar="1"),
        RejectedInputError, "hbar must be one finite number > 0, got '1'"),
    "hbar_none": (lambda tmp_path: mom.build_AB(np.zeros((2, 2)), np.zeros((2, 1)), hbar=None),
                  RejectedInputError, "hbar must be one finite number > 0, got None"),
    # Before: numpy's bare "operands could not be broadcast" ValueError.
    "expectation_batches": (
        lambda tmp_path: ops.expectation(np.zeros((3, 2, 2)), np.zeros((2, 2, 2))),
        DimensionMismatchError, "rho (3, 2, 2) and X (2, 2, 2) do not broadcast"),
    "record_too_few_states": (lambda tmp_path: trajectory(states=np.eye(2)[None] / 2),
                              RejectedInputError, "states length differs from times"),
    "record_y_start": (
        lambda tmp_path: trajectory(record_y=np.ones(CFG.n_steps + 1)),
        RejectedInputError, "must start at 0"),
    # Before: each was accepted, and an infinite innovation failed late, in
    # `fbsde_residual`'s backward leg.
    "record_states_non_finite": (
        lambda tmp_path: trajectory(states=np.full((CFG.n_steps + 1, 2, 2), np.nan)),
        RejectedInputError, "states has non-finite entries"),
    "record_controls_non_finite": (
        lambda tmp_path: trajectory(controls=np.full((CFG.n_steps + 1, 1), np.inf)),
        RejectedInputError, "controls has non-finite entries"),
    "record_y_non_finite": (
        lambda tmp_path: trajectory(record_y=np.r_[0.0, np.full(CFG.n_steps, np.inf)]),
        RejectedInputError, "record_y has non-finite entries"),
    "record_W_non_finite": (
        lambda tmp_path: trajectory(innovations_W=np.r_[0.0, np.full(CFG.n_steps, np.nan)]),
        RejectedInputError, "innovations_W has non-finite entries"),
    "check_bloch_two_components": (lambda tmp_path: hjb.check_bloch([0.1, 0.2]),
                                   RejectedInputError, "must have 3 components"),
    "build_AB_vector_R": (lambda tmp_path: mom.build_AB(np.zeros(2), np.zeros((2, 1))),
                          RejectedInputError, "R_param must be a matrix"),
    "build_AB_odd_R": (lambda tmp_path: mom.build_AB(np.zeros((3, 3)), np.zeros((3, 1))),
                       RejectedInputError, "even dimension 2m"),
    "build_AB_K_rows": (lambda tmp_path: mom.build_AB(np.zeros((2, 2)), np.zeros((3, 1))),
                        DimensionMismatchError, "K_ham must have 2 rows, got 3"),
    "build_AB_Gamma_columns": (
        lambda tmp_path: mom.build_AB(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3))),
        DimensionMismatchError, "Gamma must have 2 columns, got 3"),
    "to_quadrature_shape": (lambda tmp_path: mom.to_quadrature(np.zeros((3, 3)), 1),
                            DimensionMismatchError, "expected shape (2, 2)"),
    "moment_state_sigma_shape": (
        lambda tmp_path: mom.MomentState(xhat=np.zeros(2), sigma=np.eye(3)),
        DimensionMismatchError, "sigma shape does not match xhat"),
    "moment_filter_non_finite_mean": (moment_filter_overflow, NumericalBlowupError,
                                      "non-finite mean at step 1 of MomentFilter"),
    "fbsde_non_finite_costate": (costate_overflow, NumericalBlowupError,
                                 "non-finite costate at t=0.0475"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_typed_refusal(name, tmp_path):
    call, error, fragment = CASES[name]
    with np.errstate(all="ignore"), pytest.raises(error) as err:
        call(tmp_path)
    assert err.type is error
    assert fragment in str(err.value)
