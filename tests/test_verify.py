import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from capdist import examples, estimator, verify
from capdist.channel import (MAX_LATTICE_POINTS, QuadraticDistortion, SdmcSpec,
                             simplex_lattice)
from capdist.errors import InfeasibleConstraints, InstanceTooLarge, SpecValidationError
from capdist.verify import (brute_force_tradeoff, exhaustive_estimator_search,
                            simulate_distortion)
from random_specs import random_spec


# ---------------------------------------------------------------------------
# simplex lattice
# ---------------------------------------------------------------------------

def test_simplex_lattice_counts_and_normalization():
    for n in (1, 2, 3, 4, 5, 8):
        for k in (1, 3, 5):
            pts = simplex_lattice(n, k)
            assert pts.shape[0] == math.comb(n + k - 1, k)
            assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(pts >= 0)
            assert np.unique(pts.round(12), axis=0).shape[0] == pts.shape[0]
            # lexicographic order: region rows and CLI output follow it
            assert np.array_equal(np.lexsort(pts.T[::-1]), np.arange(len(pts)))


def test_simplex_lattice_guard():
    # the guard counts points, so five symbols pass at 1/10 (1001 points)
    # and fail at 1/1000 (C(1004, 4) ~ 4.2e10)
    assert simplex_lattice(5, 10).shape == (1001, 5)
    with pytest.raises(InstanceTooLarge):
        simplex_lattice(5, 1000)
    with pytest.raises(InstanceTooLarge):      # one point over the cap
        simplex_lattice(2, MAX_LATTICE_POINTS)
    with pytest.raises(ValueError):            # no lattice below resolution 1
        simplex_lattice(3, 0)


def stars_and_bars(n, k):
    """The lattice as first written: each choice of n-1 bar positions among
    n+k-1 slots, in the lexicographic order of combinations(), is one
    composition of k."""
    count = math.comb(n + k - 1, n - 1)
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n + k - 1), n - 1)),
        dtype=np.int64, count=count * (n - 1)).reshape(count, n - 1)
    edges = np.column_stack([np.full(count, -1), bars, np.full(count, n + k - 1)])
    return (np.diff(edges, axis=1) - 1) / k


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 9) for k in range(1, 11)]
                         + [(6, 16), (8, 5), (2, 100), (1, 37)])
def test_simplex_lattice_is_stars_and_bars_bit_for_bit(n, k):
    got, want = simplex_lattice(n, k), stars_and_bars(n, k)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_simplex_lattice_guards_before_allocating():
    tracemalloc.start()
    try:
        for n, k, error in ((3, 0, ValueError), (3, -2, ValueError),
                            (5, 1000, InstanceTooLarge),
                            (2, MAX_LATTICE_POINTS, InstanceTooLarge)):
            with pytest.raises(error):
                simplex_lattice(n, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024            # the exceptions, not an array


def test_simplex_lattice_working_set():
    # the walk holds one step's rows and (N,) index vectors beside the
    # result: binary-bc's degraded region at resolution 32 builds this
    # 435,897 x 6 lattice (20.9 MB), which stars and bars traced at 80 MB
    tracemalloc.start()
    try:
        out = simplex_lattice(6, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (435_897, 6)
    assert peak <= 1.5 * out.nbytes


# ---------------------------------------------------------------------------
# Monte-Carlo distortion
# ---------------------------------------------------------------------------

def test_simulate_is_reproducible():
    spec = examples.binary_multiplicative_spec(0.4)
    a = simulate_distortion(spec, [0.5, 0.5], 10000, seed=42)
    b = simulate_distortion(spec, [0.5, 0.5], 10000, seed=42)
    assert a.empirical_value == b.empirical_value
    assert a.z_score == b.z_score


def test_simulate_point_mass_zero_cost_is_exactly_zero():
    spec = examples.binary_multiplicative_spec(0.4)
    rep = simulate_distortion(spec, [0.0, 1.0], 5000, seed=0)
    assert rep.empirical_value == 0.0
    assert rep.analytic_value == 0.0
    assert rep.passed


def test_simulate_takes_the_pmf_it_reports():
    # X was drawn from p_x / sum(p_x) but rated at the raw p_x: [1, 1] read
    # empirical 0.2032 against analytic 0.4 (z = -69.2)
    spec = examples.binary_multiplicative_spec(0.4)
    with pytest.raises(SpecValidationError, match="p_x: sums to 2"):
        simulate_distortion(spec, [1.0, 1.0], 20000, seed=0)
    with pytest.raises(SpecValidationError, match="p_x: expected 2 entries"):
        simulate_distortion(spec, [0.5, 0.25, 0.25], 20000, seed=0)
    rep = simulate_distortion(spec, [0.2, 0.8], 20000, seed=0)
    assert rep.passed and rep.analytic_value == pytest.approx(0.2 * 0.4)


def test_simulate_z_scores_look_standard_normal():
    spec = examples.binary_multiplicative_spec(0.4)
    inside = 0
    for seed in range(100):
        rep = simulate_distortion(spec, [0.5, 0.5], 2000, seed=seed)
        inside += abs(rep.z_score) <= 2.5
    assert inside >= 95


# ---------------------------------------------------------------------------
# brute-force tradeoff oracle
# ---------------------------------------------------------------------------

def test_brute_force_binary_anchors():
    spec = examples.binary_multiplicative_spec(0.4)
    val, _ = brute_force_tradeoff(spec, 0.1, np.inf, 1e-3)
    assert val == pytest.approx(0.3245, abs=2e-3)
    cap, pmf = brute_force_tradeoff(spec, 0.2, np.inf, 1e-3)
    assert cap == pytest.approx(0.4, abs=1e-6)
    assert np.allclose(pmf, [0.5, 0.5])
    sens, pmf0 = brute_force_tradeoff(spec, 0.0, np.inf, 1e-2)
    assert sens == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(pmf0, [0.0, 1.0])


def test_brute_force_monotone_in_d_and_b():
    rng = np.random.default_rng(19)
    spec = random_spec(rng)
    est = estimator.build_estimator(spec)
    d_lo, d_hi = est.cost.min(), est.cost.max()
    b_lo, b_hi = spec.cost.min(), spec.cost.max()
    ds = np.linspace(d_lo, d_hi, 4)
    bs = np.linspace(b_lo, b_hi, 4)
    vals = np.array([[brute_force_tradeoff(spec, d, b, 0.05)[0]
                      for b in bs] for d in ds])
    assert np.all(np.diff(vals, axis=0) >= -1e-12)   # non-decreasing in D
    assert np.all(np.diff(vals, axis=1) >= -1e-12)   # non-decreasing in B
    for row in vals:
        for v in row:
            assert v >= -1e-12


def test_brute_force_guards():
    rng = np.random.default_rng(2)
    five = random_spec(rng, nx=5)
    with pytest.raises(InstanceTooLarge):
        brute_force_tradeoff(five, 1.0, np.inf, 1e-3)
    val, pmf = brute_force_tradeoff(five, np.inf, np.inf, 0.5)
    assert pmf.shape == (5,) and val >= 0.0
    spec = random_spec(rng)
    with pytest.raises(InfeasibleConstraints):
        brute_force_tradeoff(spec, -1.0, np.inf, 0.5)
    with pytest.raises(ValueError):
        brute_force_tradeoff(spec, 1.0, np.inf, 0.7)


# ---------------------------------------------------------------------------
# exhaustive estimator oracle
# ---------------------------------------------------------------------------

def test_estimator_matches_enumeration_on_seeded_instances():
    rng = np.random.default_rng(123)
    for _ in range(50):
        nx, ns, ny, nz = rng.integers(2, 4, size=4)
        spec = random_spec(rng, nx=nx, ns=ns, ny=ny, nz=nz)
        p_x = rng.dirichlet(np.ones(nx))
        est = estimator.build_estimator(spec)
        analytic = estimator.expected_distortion(est, p_x)
        _, oracle = exhaustive_estimator_search(spec, p_x)
        assert abs(analytic - oracle) <= 1e-12


def test_estimator_search_zero_distortion():
    rng = np.random.default_rng(4)
    spec = random_spec(rng)
    zero = dataclasses.replace(spec, distortion=np.zeros((3, 3)))
    _, best = exhaustive_estimator_search(zero, np.full(3, 1 / 3))
    assert best == 0.0


def test_estimator_search_guard():
    rng = np.random.default_rng(4)
    spec = random_spec(rng, nx=3, ns=3, ny=3, nz=3)
    big = dataclasses.replace(spec, distortion=np.zeros((3, 16)))
    with pytest.raises(InstanceTooLarge):
        exhaustive_estimator_search(big, np.full(3, 1 / 3))


def test_oracles_read_a_quadratic_distortion_as_its_matrix():
    # the quadratic form is looked up entry by entry, the dense one indexed
    rng = np.random.default_rng(8)
    law_z = rng.multinomial(8, np.full(3, 1 / 3), size=(2, 3)) / 8.0
    quad = SdmcSpec(state_pmf=[0.25, 0.5, 0.25], law_y=law_z, law_z=law_z,
                    distortion=QuadraticDistortion([-1.0, 0.0, 2.0], [-1.0, 0.5, 2.0]))
    dense = dataclasses.replace(quad, distortion=quad.distortion.as_matrix())
    p_x = [0.375, 0.625]
    a, b = (simulate_distortion(spec, p_x, 4000, seed=3) for spec in (quad, dense))
    assert a.empirical_value == b.empirical_value
    assert a.analytic_value == pytest.approx(b.analytic_value, abs=1e-12)
    (ta, va), (tb, vb) = (exhaustive_estimator_search(spec, p_x) for spec in (quad, dense))
    assert np.array_equal(ta, tb)
    assert va == vb
