import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from capdist import channel, estimator, examples
from capdist.channel import QuadraticDistortion, SdmcSpec
from capdist.errors import Infeasible
from capdist.estimator import (EstimatorTable, build_estimator, d_min, d_trivial,
                               expected_distortion)


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------

def test_binary_estimator_table_and_cost():
    spec = examples.binary_multiplicative_spec(0.4)
    est = build_estimator(spec)
    assert est.table[1, 0] == 0 and est.table[1, 1] == 1
    assert est.table[0, 0] == 0       # prior favors s=0 (q=0.4)
    assert np.allclose(est.cost, [0.4, 0.0])
    assert expected_distortion(est, [0.5, 0.5]) == pytest.approx(0.2)


def test_tie_breaks_to_lowest_index():
    # S uniform, feedback carries nothing: both estimates have risk 1/2
    law = np.zeros((1, 2, 1, 1))
    law[:, :, 0, 0] = 1.0
    spec = SdmcSpec(state_pmf=[0.5, 0.5], law=law,
                    distortion=np.array([[0.0, 1.0], [1.0, 0.0]]))
    est = build_estimator(spec)
    assert est.table[0, 0] == 0


def test_zero_probability_cells_map_to_index_zero():
    spec = examples.binary_multiplicative_spec(0.4)
    est = build_estimator(spec)
    assert est.table[0, 1] == 0       # (x=0, z=1) has probability zero


def test_erasure_estimator_is_exact_and_input_free():
    # the feedback determines the erasure state exactly: z = '?' iff s = 1
    spec = examples.erasure_spec(0.3)
    est = build_estimator(spec)
    for x in range(spec.input_size):
        assert est.table[x, 0] == 0
        assert est.table[x, 2] == 1
    assert np.allclose(est.cost, 0.0)


def test_quadratic_fast_path_matches_matrix_path():
    cfg = examples.GaussianQuantConfig(pam_points=4, noise_points=9,
                                       state_points=12)
    spec = examples.gaussian_quantized_spec(cfg)
    qd = spec.distortion
    dense = SdmcSpec(state_pmf=spec.state_pmf, law_y=spec.law_y,
                     law_z=spec.law_z, distortion=qd.as_matrix(),
                     cost=spec.cost)
    fast = build_estimator(spec)
    slow = build_estimator(dense)
    # tables must agree on every cell that actually occurs; cells of
    # negligible probability are distortion-irrelevant
    mass = np.einsum("s,xsz->xz", spec.state_pmf, spec.law_z)
    occurs = mass > 1e-12
    assert np.array_equal(fast.table[occurs], slow.table[occurs])
    assert np.allclose(fast.cost, slow.cost, atol=1e-12)


def test_quadratic_fast_path_ties_as_the_matrix_path():
    # feedback cell z shifts the posterior mean to k * 2**-50, k = -3..3,
    # either side of 0, the midpoint of the estimates -1 and +1: the two
    # risks, 2 -+ 2 * mean, tie within TIE_RTOL, so both paths take index 0
    k = np.arange(-3, 4)
    law = np.stack([1.0 - k * 2.0 ** -50, 1.0 + k * 2.0 ** -50])[None] / k.size
    sv = np.array([-1.0, 1.0])
    fast, slow = (build_estimator(SdmcSpec(state_pmf=[0.5, 0.5], law_y=law, law_z=law,
                                           distortion=d))
                  for d in (QuadraticDistortion(state_values=sv, estimate_values=sv),
                            (sv[:, None] - sv[None, :]) ** 2))
    assert np.array_equal(fast.table, slow.table)
    assert not fast.table.any()
    assert np.allclose(fast.cost, slow.cost, atol=1e-15)


# ---------------------------------------------------------------------------
# d_min / d_trivial
# ---------------------------------------------------------------------------

def test_d_trivial_closed_forms():
    assert d_trivial(examples.binary_multiplicative_spec(0.4)) == pytest.approx(0.4)
    assert d_trivial(examples.erasure_spec(0.3)) == pytest.approx(0.3)


def test_d_min_unconstrained_picks_best_symbol():
    spec = examples.binary_multiplicative_spec(0.4)
    val, pmf = d_min(spec)
    assert val == pytest.approx(0.0)
    assert np.allclose(pmf, [0.0, 1.0])


def test_d_min_two_point_mix_under_budget():
    # c = (0.3, 0.1, 0.5), b = (2, 5, 0), B = 3: the best single feasible
    # symbol gives 0.3; mixing x0 with the infeasible-alone x1 at weight 1/3
    # achieves 7/30.
    est = EstimatorTable(table=np.zeros((3, 1), dtype=np.int64),
                         cost=np.array([0.3, 0.1, 0.5]))
    law = np.ones((3, 1, 1, 1))
    spec = SdmcSpec(state_pmf=[1.0], law=law, distortion=np.zeros((1, 1)),
                    cost=[2.0, 5.0, 0.0])
    val, pmf = d_min(spec, budget=3.0, est=est)
    assert val == pytest.approx(7.0 / 30.0, abs=1e-12)
    assert np.allclose(pmf, [2.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-12)
    assert pmf @ spec.cost <= 3.0 + 1e-12


def test_d_min_rejects_nan_budget():
    # it once returned (inf, None)
    with pytest.raises(ValueError, match="nan"):
        d_min(examples.binary_multiplicative_spec(0.4), budget=np.nan)


def test_d_min_infeasible_budget_raises():
    spec = examples.binary_multiplicative_spec(0.4)
    tight = dataclasses.replace(spec, cost=[2.0, 3.0])
    with pytest.raises(Infeasible):
        d_min(tight, budget=1.0)


# tied values come from the small set, duplicate costs from the 1/16 grid,
# on which HiGHS's coefficient and feasibility tolerances cannot blur them
_VALUES = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 1.0]), st.floats(-1.0, 1.0))
_COSTS = st.integers(0, 48).map(lambda k: k / 16)
_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), n=st.integers(1, 5), where=st.sampled_from(
    ["min", "between", "max", "inf"]))
def test_budget_lp_matches_linprog(data, n, where):
    # an independent oracle: HiGHS on max v.p s.t. sum p = 1, p.b <= B, p >= 0
    b = np.array(data.draw(st.lists(_COSTS, min_size=n, max_size=n)))
    rows = data.draw(st.lists(st.lists(_VALUES, min_size=n, max_size=n),
                              min_size=1, max_size=3))
    budget = {"min": b.min(), "max": b.max(), "inf": np.inf,
              "between": b.min() + data.draw(st.integers(1, 15)) / 16 * np.ptp(b)}[where]
    bounded = dict(A_ub=b[None], b_ub=[budget]) if np.isfinite(budget) else {}
    v = np.array(rows)

    def oracle(row):
        res = linprog(-row, A_eq=np.ones((1, n)), b_eq=[1.0], bounds=(0, None),
                      method="highs", options=_TIGHT, **bounded)
        assert res.status == 0
        return -res.fun

    for row, got, i, j, t in zip(v, *estimator._budget_lp(v, b, budget)):
        want = oracle(row)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        # the returned vertex reaches the value and meets the budget
        assert (1.0 - t) * row[i] + t * row[j] == got
        assert (i == j and t == 0.0 and b[i] <= budget) or (
            b[i] < budget < b[j] and t == (budget - b[i]) / (b[j] - b[i]))
    # d_min is -LP(-c); its pmf meets the budget as summed and attains D_min
    c = v[0]
    spec = SdmcSpec(state_pmf=[1.0], law=np.ones((n, 1, 1, 1)),
                    distortion=np.zeros((1, 1)), cost=b)
    est = EstimatorTable(table=np.zeros((n, 1), dtype=np.int64), cost=c)
    val, pmf = d_min(spec, budget, est=est)
    assert abs(val + oracle(-c)) <= 1e-9 * max(1.0, abs(val))
    assert (pmf >= 0.0).all() and pmf.sum() == pytest.approx(1.0, abs=1e-15)
    assert pmf @ b <= budget
    assert abs(pmf @ c - val) <= 1e-12


# ---------------------------------------------------------------------------
# broadcast estimators
# ---------------------------------------------------------------------------

def test_bc_estimators_corollary4_costs():
    bc = examples.binary_bc_spec(0.6, 0.5)
    e1, e2 = (build_estimator(channel.receiver_spec(bc, k)) for k in (1, 2))
    assert np.allclose(e1.cost, [min(0.6, 0.4), 0.0])   # x=0 hides S1
    assert np.allclose(e2.cost, [min(0.3, 0.7), 0.0])


def test_bc_estimators_flipped_costs():
    bc = examples.flipped_bc_spec(0.6, 0.5)
    e1, e2 = (build_estimator(channel.receiver_spec(bc, k)) for k in (1, 2))
    assert np.allclose(e1.cost, [min(0.6 * 0.5, 0.4), 0.0])
    assert np.allclose(e2.cost, [0.0, 0.6 * min(0.5, 0.5)])
