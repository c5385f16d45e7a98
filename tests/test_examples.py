import numpy as np
import pytest

from capdist import channel, estimator, examples, solver
from capdist.bcregions import dueck_distortion
from capdist.channel import QuadraticDistortion
from capdist.errors import MemoryGuard
from capdist.examples import (GaussianQuantConfig, binary_multiplicative_cd,
                              binary_multiplicative_spec, dueck_bc_spec,
                              dueck_input_pmf, dueck_reduction_spec,
                              gaussian_analytic_anchors,
                              gaussian_quantized_spec,
                              gaussian_two_pam_analytic)


# ---------------------------------------------------------------------------
# binary multiplicative closed form
# ---------------------------------------------------------------------------

def test_binary_cd_curve_values():
    assert binary_multiplicative_cd(0.4, 0.04) == pytest.approx(0.1876, abs=1e-4)
    assert binary_multiplicative_cd(0.4, 0.1) == pytest.approx(0.3245, abs=1e-4)
    assert binary_multiplicative_cd(0.4, 0.2) == pytest.approx(0.4)
    assert binary_multiplicative_cd(0.4, 0.9) == pytest.approx(0.4)  # clamp
    assert binary_multiplicative_cd(0.7, 0.0) == 0.0


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_binary_cd_at_a_known_state_is_the_capacity(q):
    # the state costs nothing to sense, so C(D) is the capacity at every D:
    # 0 bits for Y = 0 (q = 0), 1 bit for Y = X (q = 1), where it read 0
    points = solver.sweep_frontier(binary_multiplicative_spec(q), np.inf, [0.0, 1.0])
    assert max(p.rate for p in points) == pytest.approx(q, abs=1e-10)
    for d in (0.0, 0.3, 1.0):
        assert binary_multiplicative_cd(q, d) == q


def test_binary_spec_is_deterministic():
    spec = binary_multiplicative_spec(0.4)
    assert np.all((spec.law_y == 0) | (spec.law_y == 1))
    # y = s*x, and z = y: a deterministic y with z's law equal to y's
    for x in (0, 1):
        for s in (0, 1):
            assert spec.law_y[x, s, s * x] == 1.0
    assert np.array_equal(spec.law_z, spec.law_y)


# ---------------------------------------------------------------------------
# Dueck builders
# ---------------------------------------------------------------------------

def dueck_bc_pmf(t):
    """Input pmf on x = 4*x0 + 2*x1 + x2 with uniform common bit and
    P(x1 != x2) = t, symmetric."""
    w = {(0, 0): (1 - t) / 2, (1, 1): (1 - t) / 2,
         (0, 1): t / 2, (1, 0): t / 2}
    p = np.zeros(8)
    for x0 in (0, 1):
        for (x1, x2), wv in w.items():
            p[4 * x0 + 2 * x1 + x2] = 0.5 * wv
    return p


def test_dueck_bc_estimators_match_closed_form():
    q = 0.75
    bc = dueck_bc_spec(q)
    e1, e2 = (estimator.build_estimator(channel.receiver_spec(bc, k)) for k in (1, 2))
    for t in (0.0, 0.25, 0.5, 1.0):
        p = dueck_bc_pmf(t)
        want = dueck_distortion(q, t)
        assert float(p @ e1.cost) == pytest.approx(want, abs=1e-12)
        assert float(p @ e2.cost) == pytest.approx(want, abs=1e-12)


def test_dueck_reduction_matches_closed_form():
    q = 0.75
    for receiver in (1, 2):
        spec = dueck_reduction_spec(q, receiver=receiver)
        est = estimator.build_estimator(spec)
        for t in (0.0, 0.5, 1.0):
            val = float(dueck_input_pmf(t) @ est.cost)
            assert val == pytest.approx(dueck_distortion(q, t), abs=1e-12)


# ---------------------------------------------------------------------------
# Gaussian quantized example
# ---------------------------------------------------------------------------

def test_gaussian_atoms_normalized_and_symmetric():
    vals, probs = examples._gaussian_atoms(1.0, 25, 6.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(vals, -vals[::-1])
    assert np.allclose(probs, probs[::-1])


def test_noiseless_feedback_shares_the_output_law():
    cfg = GaussianQuantConfig(pam_points=4, noise_points=5, state_points=4,
                              feedback_variance=0.0)
    spec = gaussian_quantized_spec(cfg)
    assert np.array_equal(spec.law_z, spec.law_y)


def test_snap_ties_to_lower_index():
    assert examples._snap(0.5) == 0
    assert examples._snap(1.5) == 1
    assert examples._snap(-0.5) == -1
    assert examples._snap(0.51) == 1


def test_gaussian_spec_structure():
    cfg = GaussianQuantConfig(pam_points=8, noise_points=25, state_points=100)
    spec = gaussian_quantized_spec(cfg)
    xv = np.array(spec.labels["x_values"])
    kappa = np.sqrt(3.0 * 10.0 / 63.0)
    assert np.allclose(np.diff(xv), 2 * kappa)
    assert np.allclose(xv, -xv[::-1])
    assert np.allclose(spec.cost, xv ** 2)
    assert isinstance(spec.distortion, QuadraticDistortion)
    assert spec.state_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    # sign-split state quantization: prior mean exactly 0, variance near 1
    # (midpoint representatives of the chi-square cells bias it slightly high)
    sv = spec.distortion.state_values
    assert float(spec.state_pmf @ sv) == pytest.approx(0.0, abs=1e-12)
    es2 = float(spec.state_pmf @ sv ** 2)
    assert es2 == pytest.approx(1.0, abs=2e-2)
    # best constant estimate: E[S^2] + (closest representative to 0)^2
    assert estimator.d_trivial(spec) == pytest.approx(
        es2 + np.abs(sv).min() ** 2, abs=1e-12)


def test_gaussian_memory_guard():
    cfg = GaussianQuantConfig(state_points=200_000)
    with pytest.raises(MemoryGuard):
        gaussian_quantized_spec(cfg)


def test_gaussian_config_validation():
    with pytest.raises(ValueError):
        GaussianQuantConfig(pam_points=1)
    with pytest.raises(ValueError):
        GaussianQuantConfig(power=0.0)
    with pytest.raises(ValueError):
        GaussianQuantConfig(output_spacing_factor=0.0)


def test_gaussian_analytic_anchors_continuous_model():
    a = gaussian_analytic_anchors(10.0, mc_samples=400_000, seed=1)
    assert a["d_min"] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert a["r_min"] == pytest.approx(0.733, abs=2e-2)
    # independent Gauss-Hermite evaluation of the two Monte-Carlo anchors
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(301)
    gh_w = gh_w / gh_w.sum()
    assert a["c_noest"] == pytest.approx(
        float(gh_w @ (0.5 * np.log2(1 + 10 * gh_x ** 2))), abs=1e-2)
    x = gh_x * np.sqrt(10.0)
    assert a["d_max"] == pytest.approx(
        float(gh_w @ (2.0 / (2.0 + x ** 2))), abs=1e-2)


def test_gaussian_anchor_limits():
    tiny = gaussian_analytic_anchors(1e-6, mc_samples=50_000, seed=0)
    assert tiny["c_noest"] == pytest.approx(0.0, abs=1e-4)
    blind = gaussian_analytic_anchors(10.0, sigma_fb2=1e6,
                                      mc_samples=50_000, seed=0)
    assert blind["d_max"] == pytest.approx(1.0, abs=1e-3)


def test_two_pam_analytic_monotone():
    amps = [1.0, 2.0, 3.0]
    pts = [gaussian_two_pam_analytic(a) for a in amps]
    rates = [p[0] for p in pts]
    dists = [p[1] for p in pts]
    assert rates == sorted(rates)
    assert dists == sorted(dists, reverse=True)


def test_quantized_two_pam_tracks_analytic():
    cfg = GaussianQuantConfig(pam_points=8, noise_points=25, state_points=500,
                              output_spacing_factor=1.0)
    spec = gaussian_quantized_spec(cfg)
    rate, dist, pmf = examples.gaussian_two_pam_point(spec, 10.0)
    xv = np.array(spec.labels["x_values"])
    amp = float(np.abs(xv[pmf > 0]).max())
    assert amp ** 2 <= 10.0 + 1e-12
    r_cont, d_cont = gaussian_two_pam_analytic(amp)
    assert rate == pytest.approx(r_cont, abs=2e-2)
    assert dist == pytest.approx(d_cont, abs=2e-2)


def test_two_pam_budget_infeasible():
    cfg = GaussianQuantConfig(pam_points=8, noise_points=25, state_points=100)
    spec = gaussian_quantized_spec(cfg)
    with pytest.raises(ValueError):
        examples.gaussian_two_pam_point(spec, 1e-6)
