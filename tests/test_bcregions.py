import numpy as np
import pytest

from capdist import channel, estimator, examples, solver, verify
from capdist.bcregions import (binary_bc_region, binary_entropy,
                               degraded_region, dueck_distortion, dueck_dmin,
                               dueck_inner, dueck_outer, envelope_value,
                               erasure_bc_distortion_region, flipped_bc_region,
                               is_physically_degraded, outer_bound_samples,
                               product_region_check, upper_concave_hull)
from capdist.channel import MappingTable
from capdist.errors import SpecValidationError
from random_specs import random_spec


def erasure_pairs():
    p1 = np.array([[0.58, 0.10], [0.12, 0.20]])   # P_{E1 S1}, P(1,0) = 0.12
    p2 = np.array([[0.30, 0.20], [0.30, 0.20]])   # P_{E2 S2}, P(1,0) = 0.30
    return p1, p2


# ---------------------------------------------------------------------------
# degradedness
# ---------------------------------------------------------------------------

def test_corollary4_channel_is_degraded():
    ok, worst, _ = is_physically_degraded(examples.binary_bc_spec(0.6, 0.5))
    assert ok and worst <= 1e-12


def test_flipped_channel_is_also_degraded():
    # The flipped channel's joint state pmf has P(s1=0, s2=1) = 0, so the
    # only (s1, y1) cell reachable from both inputs is (0, 0), where the
    # conditional on (s2, y2) is the same point mass for both; a single
    # degrading kernel therefore exists for every gamma.
    for gamma in (0.2, 0.5, 0.8):
        ok, worst, _ = is_physically_degraded(
            examples.flipped_bc_spec(0.6, gamma))
        assert ok and worst <= 1e-12


def test_identical_receivers_are_degraded():
    bc = examples.binary_bc_spec(0.6, 1.0)     # S2 = S1, Y2 = Y1
    ok, worst, _ = is_physically_degraded(bc)
    assert ok and worst <= 1e-12


def test_erasure_bc_is_not_degraded():
    bc = examples.erasure_bc_spec(*erasure_pairs())
    ok, worst, _ = is_physically_degraded(bc)
    assert not ok
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# degraded region (Corollary-4 channel)
# ---------------------------------------------------------------------------

def test_degraded_region_matches_closed_form_identity():
    q, gamma = 0.6, 0.5
    bc = examples.binary_bc_spec(q, gamma)
    s = degraded_region(bc, u_size=2, resolution=16)
    assert len(s)
    assert np.all(s.r1 >= -1e-12) and np.all(s.r2 >= -1e-12)
    assert np.all((-1e-12 <= s.d1) & (s.d1 <= 0.4 + 1e-12))
    assert s.d2 == pytest.approx(0.75 * s.d1, abs=1e-12)
    # P(X=0) per sample; x=0 is the sensing-blind input
    p = s.p_ux.reshape(-1, 2, 2)[:, :, 0].sum(axis=1)
    # every auxiliary choice lands exactly on the closed-form surface
    assert (s.r1 / q + s.r2 / (gamma * q)
            == pytest.approx(binary_entropy(p), abs=1e-9))
    assert s.d1 == pytest.approx(p * min(q, 1 - q), abs=1e-12)


def test_degraded_region_independent_aux_gives_zero_r2():
    bc = examples.binary_bc_spec(0.6, 0.5)
    samples = degraded_region(bc, u_size=1, resolution=8)
    assert samples.r2 == pytest.approx(np.zeros(len(samples)), abs=1e-12)


# ---------------------------------------------------------------------------
# outer bound
# ---------------------------------------------------------------------------

def test_outer_bound_sample_invariants():
    bc = examples.binary_bc_spec(0.6, 0.5)
    s = outer_bound_samples(bc, resolution=8)
    assert len(s)
    assert np.all(s.r0 >= -1e-12) and np.all(s.r1 >= -1e-12) and np.all(s.r2 >= -1e-12)
    assert np.all(0.0 - 1e-12 <= s.d1) and np.all(0.0 - 1e-12 <= s.d2)
    # the sum-rate cap at uniform input is attained within the sample set
    r0_max = s.r0.max()
    assert r0_max <= 0.6 * 1.0 + 0.3 * 1.0 + 1e-9   # I(X;Y1Y2|S1S2) <= H(X)


@pytest.mark.parametrize("make, resolution", [
    (lambda: examples.binary_bc_spec(0.6, 0.5), 8),
    (lambda: examples.flipped_bc_spec(0.6, 0.5), 8),
    (lambda: examples.erasure_bc_spec(*erasure_pairs()), 8),
    (lambda: examples.dueck_bc_spec(0.75), 4)],
    ids=["binary-bc", "flipped-bc", "erasure-bc", "dueck"])
def test_outer_bound_aux_rows(make, resolution):
    bc = make()
    s = outer_bound_samples(bc, resolution=resolution)
    ident = s[s.aux == "identity"]
    n = len(ident)
    # rows run through the same input lattice once per auxiliary channel
    assert len(s) == 12 * n and (s.p_x.reshape(12, n, -1) == ident.p_x).all()
    for k, col in ((1, "r1"), (2, "r2")):
        view = channel.receiver_spec(bc, k)
        want = [solver.conditional_mutual_information(view, p) for p in ident.p_x]
        assert ident[col] == pytest.approx(want, abs=1e-12)
        assert (s[s.aux == "constant"][col] == 0.0).all()
        # data processing over U - X - Y: U = X dominates every auxiliary
        assert (s[col].reshape(12, n) <= ident[col] + 1e-12).all()


# ---------------------------------------------------------------------------
# closed-form regions
# ---------------------------------------------------------------------------

def test_binary_bc_region_example_values():
    samples = binary_bc_region(0.6, 0.5, p_grid=[0.5], r_grid=[1.0])
    s = samples[0]
    assert s.r1 == pytest.approx(0.6)
    assert s.r2 == pytest.approx(0.0)
    assert s.d1 == pytest.approx(0.2)
    assert s.d2 == pytest.approx(0.15)


def test_binary_bc_region_degenerate_p():
    s = binary_bc_region(0.6, 0.5, p_grid=[0.0], r_grid=[0.3])[0]
    assert s.r1 == 0.0 and s.r2 == 0.0 and s.d1 == 0.0 and s.d2 == 0.0


def test_flipped_bc_region_values():
    # D1 = p min{q(1-gamma), 1-q}, D2 = (1-p) q min{gamma, 1-gamma}
    s = flipped_bc_region(0.6, 0.5, p_grid=[0.5], r_grid=[0.5])[0]
    assert s.d1 == pytest.approx(0.5 * min(0.6 * 0.5, 0.4))
    assert s.d2 == pytest.approx(0.5 * 0.6 * 0.5)      # = 0.15
    s = flipped_bc_region(0.6, 0.5, p_grid=[1.0], r_grid=[0.5])[0]
    assert s.d2 == 0.0
    s = flipped_bc_region(0.6, 0.5, p_grid=[0.0], r_grid=[0.5])[0]
    assert s.d1 == 0.0 and s.r1 == 0.0 and s.r2 == 0.0


def test_flipped_region_matches_generic_estimator_costs():
    # the closed-form distortions equal the generic per-symbol estimation
    # costs averaged over the input pmf
    q, gamma, p = 0.6, 0.3, 0.35
    bc = examples.flipped_bc_spec(q, gamma)
    e1, e2 = (estimator.build_estimator(channel.receiver_spec(bc, k)) for k in (1, 2))
    pmf = np.array([p, 1.0 - p])      # the region's p parametrizes P(X=0)
    s = flipped_bc_region(q, gamma, p_grid=[p], r_grid=[0.0])[0]
    assert float(pmf @ e1.cost) == pytest.approx(s.d1, abs=1e-12)
    assert float(pmf @ e2.cost) == pytest.approx(s.d2, abs=1e-12)


# ---------------------------------------------------------------------------
# Dueck closed forms
# ---------------------------------------------------------------------------

def test_dueck_distortion_values():
    assert dueck_distortion(0.75, 0.5) == pytest.approx(11 / 64, abs=1e-15)
    assert dueck_distortion(0.75, 0.0) == pytest.approx(5 / 32, abs=1e-15)
    for t in (0.0, 0.3, 1.0):
        assert dueck_distortion(0.3, t) == pytest.approx(0.15, abs=1e-15)


def test_dueck_dmin_branches():
    assert dueck_dmin(0.75) == pytest.approx(5 / 32, abs=1e-15)
    assert dueck_dmin(0.6) == pytest.approx(0.24, abs=1e-15)
    assert dueck_dmin(0.0) == 0.0


def test_dueck_inner_below_outer_on_lattice():
    for q in np.linspace(0.0, 1.0, 21):
        for t in np.linspace(0.0, 1.0, 21):
            inner = 1.0 + q * binary_entropy(t) - q * (1 - q)
            outer = 1.0 + q * q * binary_entropy(t)
            assert inner <= outer + 1e-12


def test_dueck_outer_terminal_points():
    samples = dueck_outer(0.75, t_grid=[0.0, 0.5])
    assert samples[0].r0 == pytest.approx(1.0)
    assert samples[0].d1 == pytest.approx(0.15625)
    assert samples[1].r0 == pytest.approx(25 / 16)
    assert samples[1].d1 == pytest.approx(0.171875)


def test_dueck_inner_hull_lifts_t0_point():
    samples, hull = dueck_inner(0.75, t_grid=np.linspace(0, 1, 101))
    assert envelope_value(hull, 5 / 32) == pytest.approx(1.0, abs=1e-12)
    assert envelope_value(hull, 11 / 64) == pytest.approx(
        1 + 0.75 - 3 / 16, abs=1e-9)


# ---------------------------------------------------------------------------
# product region / erasure BC
# ---------------------------------------------------------------------------

def test_erasure_bc_thresholds():
    t1, t2 = erasure_bc_distortion_region(*erasure_pairs())
    assert t1 == pytest.approx(0.12)
    assert t2 == pytest.approx(0.30)
    ind = np.array([[0.25, 0.25], [0.25, 0.25]])
    assert erasure_bc_distortion_region(ind, ind) == (0.25, 0.25)
    perfect = np.array([[0.7, 0.3], [0.0, 0.0]])
    assert erasure_bc_distortion_region(perfect, perfect) == (0.0, 0.0)


def test_product_region_erasure_bc_passes():
    bc = examples.erasure_bc_spec(*erasure_pairs())
    psi1, psi2 = examples.erasure_bc_psis()
    rep = product_region_check(bc, psi1, psi2)
    assert rep.passed
    assert max(rep.worst_independence + rep.worst_markov) <= 1e-12


def test_product_region_corollary4_fails():
    bc = examples.binary_bc_spec(0.6, 0.5)
    # psi_k(x, z) = y_k read out of the joint feedback z = 2*y1 + y2
    t1 = np.tile((np.arange(4) // 2)[None, :], (2, 1))
    t2 = np.tile((np.arange(4) % 2)[None, :], (2, 1))
    rep = product_region_check(bc, MappingTable(t1, 2), MappingTable(t2, 2))
    assert not rep.passed
    assert max(rep.worst_independence + rep.worst_markov) > 1e-3


def test_product_region_rejects_psi_of_wrong_shape():
    bc = examples.erasure_bc_spec(*erasure_pairs())
    psi1, _ = examples.erasure_bc_psis()
    with pytest.raises(SpecValidationError, match="psi table"):
        product_region_check(bc, psi1, MappingTable(psi1.table[:1], 2))


# ---------------------------------------------------------------------------
# hulls and envelopes
# ---------------------------------------------------------------------------

def test_upper_concave_hull_drops_interior_points():
    pts = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.2), (2.0, 1.2)]
    hull = upper_concave_hull(pts)
    assert (0.5, 0.2) not in hull
    assert hull[0] == (0.0, 0.0) and hull[-1] == (2.0, 1.2)


def test_envelope_value_interpolates_and_extends_flat():
    hull = [(0.0, 0.0), (1.0, 1.0), (2.0, 1.2)]
    assert envelope_value(hull, 0.5) == pytest.approx(0.5)
    assert envelope_value(hull, 1.5) == pytest.approx(1.1)
    assert envelope_value(hull, 5.0) == pytest.approx(1.2)   # flat extension
    assert envelope_value(hull, -1.0) == -np.inf


def test_envelope_value_reaches_vertex_within_tie_slack():
    # Channel 12 of the seed-0 random draws has two inputs with equal
    # estimation cost, so D_min = D_trivial; the D_min anchor sits one ulp
    # below the solved points, and the envelope at D_min must still reach
    # their rate (the brute-force oracle gives 0.1083 bits there).
    rng = np.random.default_rng(0)
    for _ in range(13):   # the draws of criterion 6, in order
        spec = random_spec(rng, *rng.integers(2, 4, size=4))
    budget = float(np.quantile(spec.cost, 0.7))
    pts = solver.sweep_frontier(spec, budget, [0.0] + list(np.logspace(-3, 3, 40)))
    dmin, _ = estimator.d_min(spec, budget)
    curve = upper_concave_hull([(p.distortion, p.rate) for p in pts])
    oracle, _ = verify.brute_force_tradeoff(spec, dmin, budget, 1e-2)
    assert oracle > 0.1
    assert abs(envelope_value(curve, dmin) - oracle) <= 2e-3
    assert envelope_value(curve, min(x for x, _ in curve) - 1e-9) == -np.inf
