import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capdist import channel, cli, estimator, examples, solver
from capdist.bcregions import dueck_distortion
from capdist.channel import QuadraticDistortion
from capdist.errors import MemoryGuard, SpecValidationError
from capdist.examples import (GaussianQuantConfig, binary_multiplicative_cd,
                              binary_multiplicative_spec, dueck_bc_spec,
                              dueck_reduction_spec, gaussian_quantized_spec,
                              gaussian_two_pam_analytic)
from random_specs import dueck_input_pmf


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


@pytest.mark.parametrize("noise_points, state_points", [
    (50, 8000),     # the full grid, the builder's defaults
    (25, 500),      # gaussian-reduced
    (50, 100),
])
def test_distribution_functions_match_scipy_special(noise_points, state_points):
    # on the builder's grids: the noise-cell midpoints in sigma units and the
    # state-cell edges of the chi-square(1) quantizer
    from scipy import special

    vals = np.linspace(-6.0, 6.0, noise_points)
    mids = (vals[:-1] + vals[1:]) / 2.0
    assert np.abs(examples._normal_cdf(mids) - special.ndtr(mids)).max() <= 1e-14
    edges = np.linspace(0.0, examples._chi2_1_isf(1e-6), state_points + 1)
    assert np.abs(examples._chi2_1_cdf(edges) - special.chdtr(1.0, edges)).max() <= 1e-14


@pytest.mark.parametrize("tail", [1e-3, 1e-6, 1e-9])
def test_chi2_isf_is_scipys_within_one_ulp(tail):
    from scipy import special

    want = special.chdtri(1.0, tail)
    assert abs(examples._chi2_1_isf(tail) - want) <= np.spacing(want)
    if tail == GaussianQuantConfig.state_tail_mass:
        # the default quantizer's range, so its state values, to the bit
        assert examples._chi2_1_isf(tail) == want


def test_noiseless_feedback_shares_the_output_law():
    cfg = GaussianQuantConfig(pam_points=4, noise_points=5, state_points=4,
                              feedback_variance=0.0)
    spec = gaussian_quantized_spec(cfg)
    assert np.array_equal(spec.law_z, spec.law_y)


def _float_snap(v):
    # the snap as first written, of the float sum: nearest integer, half-integer
    # ties to the lower one
    return np.ceil(np.asarray(v, float) - 0.5).astype(np.int64)


def _per_atom_scatter(mean_pos, kernel_off, kernel_pr):
    # the law as first written: one fancy-indexed add per kernel atom, so each
    # cell sums its masses in kernel order, over the cells that rows reach
    lo = _float_snap(mean_pos + kernel_off.min()).min()
    hi = _float_snap(mean_pos + kernel_off.max()).max()
    out = np.zeros(mean_pos.shape + (hi - lo + 1,))
    rows = np.arange(mean_pos.shape[0])[:, None]
    cols = np.arange(mean_pos.shape[1])[None, :]
    for off, pr in zip(kernel_off, kernel_pr):
        out[rows, cols, _float_snap(mean_pos + off) - lo] += pr
    return out


@pytest.mark.parametrize("kw", [
    dict(pam_points=2, noise_points=5, state_points=4),
    dict(pam_points=4, noise_points=25, state_points=6, feedback_variance=0.0,
         output_spacing_factor=3.0),
    dict(pam_points=4, noise_points=21, state_points=9, output_spacing_factor=3.0),
    dict(pam_points=3, noise_points=25, state_points=50,   # 4 and 3 distinct windows
         output_spacing_factor=3.0),
])
def test_block_scatter_matches_per_atom_adds(monkeypatch, kw):
    # the per-window bincounts must give every law the same bits as adding the
    # atoms one at a time; at 3 noise steps per output step a cell gets
    # enough atoms that adding them in another order changes its last bits
    cfg = GaussianQuantConfig(**kw)
    spec = gaussian_quantized_spec(cfg)
    monkeypatch.setattr(examples, "_scatter", _per_atom_scatter)
    ref = gaussian_quantized_spec(cfg)
    for got, want in ((spec.law_y, ref.law_y), (spec.law_z, ref.law_z)):
        assert got.shape == want.shape and np.array_equal(got, want)


def _exact_cells(mean, kernel_off):
    # snap(mean + atom) of the exact sum, in fractions
    return np.array([math.ceil(Fraction(mean) + Fraction(off) - Fraction(1, 2))
                     for off in kernel_off.tolist()])


def _exact_law(mean_pos, kernel_off, kernel_pr):
    # each row the bincount of its own cells, its masses added in kernel order
    cells = [_exact_cells(m, kernel_off) for m in mean_pos.ravel().tolist()]
    lo = min(c.min() for c in cells)
    ny = max(c.max() for c in cells) + 1 - lo
    want = np.array([np.bincount(c - lo, kernel_pr, minlength=ny) for c in cells])
    return want.reshape(mean_pos.shape + (ny,))


def test_scatter_is_the_per_row_bincount(monkeypatch):
    # 900 (x, s) rows, a quarter of the means on half-integers, where
    # snapping ties; each row's dense law is the bincount of its own cells,
    # its masses added in kernel order.  Then 3 x 301 means equal to
    # themselves reversed on both axes, as the Gaussian's s*x.  Each law
    # takes one bincount per distinct key of its rows, (ceil(8 mean) mod 8,
    # how far its window was moved back), after the one that finds the keys
    rng = np.random.default_rng(5)
    mean_pos = rng.normal(0.0, 6.0, size=(3, 300))
    mean_pos[0, :75] = np.round(mean_pos[0, :75] * 2.0) / 2.0
    half = np.round(rng.normal(0.0, 6.0, 452) * 2.0) / 2.0
    mirrored = np.concatenate((half, half[-2::-1])).reshape(3, 301)
    kernel_off = np.unique(np.round(rng.normal(0.0, 3.0, 60) * 8.0) / 8.0)
    kernel_pr = rng.dirichlet(np.ones(kernel_off.size))
    filled = []
    bincount = np.bincount

    def counted(idx, weights=None, minlength=0):
        filled.append(minlength)
        return bincount(idx, weights, minlength=minlength)

    monkeypatch.setattr(examples.np, "bincount", counted)
    for mean_pos in (mean_pos, mirrored):
        want = _exact_law(mean_pos, kernel_off, kernel_pr)
        ny = want.shape[2]
        filled.clear()
        law = examples._scatter(mean_pos, kernel_off, kernel_pr)
        width = law.windows.shape[1]
        first = np.array([_exact_cells(m, kernel_off[:1])[0] for m in mean_pos.ravel().tolist()])
        keys = {(math.ceil(8 * Fraction(m)) % 8, int(f - o))
                for m, f, o in zip(mean_pos.ravel().tolist(), first - first.min(),
                                   law.offset.ravel())}
        assert filled == [8 * width] + [width] * len(keys)
        assert len(law.windows) <= len(keys) <= 8 * width
        assert isinstance(law, channel.BandedLaw) and law.shape == want.shape
        assert np.asarray(law).tobytes() == want.tobytes()
        assert law.offset.min() >= 0 and law.offset.max() + width <= ny
        assert width == max(np.ptp(np.flatnonzero(r)) + 1 for r in want.reshape(-1, ny))


_EIGHTHS = st.integers(-400, 400).map(lambda k: k / 8.0)
_MEANS = st.one_of(
    _EIGHTHS,                                        # on a cell edge for some atom
    _EIGHTHS.map(lambda v: float(np.nextafter(v, np.inf))),
    _EIGHTHS.map(lambda v: float(np.nextafter(v, -np.inf))),
    st.floats(-60.0, 60.0))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(means=st.lists(_MEANS, min_size=1, max_size=12), data=st.data())
def test_scatter_snaps_the_exact_sum(means, data):
    # every row is the per-atom bincount of the snap of mean + atom, taken in
    # fractions: a mean one ulp from a cell edge falls on its exact side
    atoms = data.draw(st.lists(st.integers(-80, 80), min_size=1, max_size=20))
    kernel_off = np.array(atoms, float) / 8.0
    kernel_pr = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(atoms),
                                            max_size=len(atoms))))
    mean_pos = np.array(means).reshape(1, -1)
    if data.draw(st.booleans()) and len(means) % 2 == 0:
        mean_pos = mean_pos.reshape(2, -1)
    law = examples._scatter(mean_pos, kernel_off, kernel_pr)
    want = _exact_law(mean_pos, kernel_off, kernel_pr)
    assert law.shape == want.shape and np.asarray(law).tobytes() == want.tobytes()


# the Gaussian builtins that the banded-law tests cover; the last has
# noiseless feedback, so its law_z is its law_y
_BANDED_BUILTINS = ["gaussian-reduced,state_points=100",
                    "gaussian,pam_points=2,noise_points=5,state_points=4",
                    "gaussian,pam_points=4,noise_points=5,state_points=4,feedback_variance=0"]


def _builtin(text):
    name, params = cli._parse_builtin(text)
    return cli.BUILTINS[name](**params)


@pytest.mark.parametrize("text", _BANDED_BUILTINS)
def test_banded_storage_changes_no_result(text):
    # the same spec with dense np.asarray copies of its laws must give the
    # same bits everywhere a banded law is read one input at a time
    spec = _builtin(text)
    assert isinstance(spec.law_y, channel.BandedLaw) and isinstance(spec.law_z, channel.BandedLaw)
    assert (spec.law_z is spec.law_y) == text.endswith("feedback_variance=0")
    law_y = np.asarray(spec.law_y)
    law_z = law_y if spec.law_z is spec.law_y else np.asarray(spec.law_z)
    dense = dataclasses.replace(spec, law_y=law_y, law_z=law_z)
    for banded, full in ((spec.law_y, law_y), (spec.law_z, law_z)):
        assert banded.shape == full.shape
        for x in range(full.shape[0]):
            assert banded[x].tobytes() == full[x].tobytes()
            for z in range(full.shape[2]):
                assert banded[x, :, z].tobytes() == full[x, :, z].tobytes()

    def frontier(s):                      # the median cost binds on the 8-PAM
        return [(p.mu, p.rate, p.distortion, p.input_pmf.tobytes())
                for p in solver.sweep_frontier(s, float(np.median(s.cost)), [0.05, 0.5, 5.0])]

    assert frontier(spec) == frontier(dense)
    got, want = estimator.build_estimator(spec), estimator.build_estimator(dense)
    assert got.table.tobytes() == want.table.tobytes()
    assert got.cost.tobytes() == want.cost.tobytes()
    assert vars(solver.no_tradeoff_check(spec)) == vars(solver.no_tradeoff_check(dense))
    assert cli._spec_digest(spec) == cli._spec_digest(dense)


@pytest.mark.parametrize("text", [n for n in cli.BUILTINS if n.startswith("gaussian")]
                         + _BANDED_BUILTINS)
def test_gaussian_lattice_ends_at_reached_outputs(text):
    # the output lattice runs from the least reached cell to the largest:
    # some (x, s) row of each law reaches its first output and some its last
    spec = _builtin(text)
    for law in (spec.law_y, spec.law_z):
        hit = law.windows > 0
        first = law.offset + hit.argmax(axis=1)[law.index]
        last = law.offset + hit.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)[law.index]
        assert first.min() == 0 and last.max() == law.size - 1


@pytest.mark.parametrize("field", ["law_y", "law_z"])
@pytest.mark.parametrize("array, row, value, message", [
    ("offset", (1, 2), 8, "{}: window of row (x,s) (1, 2) covers outputs 8 to 10, "
                          "outside [0, 7)"),
    ("offset", (0, 3), -1, "{}: window of row (x,s) (0, 3) covers outputs -1 to 1, "
                           "outside [0, 7)"),
    ("window", (1, 2), [-0.5, 1.5, 0.0], "{} window row (x,s) (1, 2): negative probability "
                                         "at (0,)"),
    ("window", (1, 2), [1.001, 0.0, 0.0], "{} window row (x,s) (1, 2): sums to 1.001"),
])
def test_banded_law_is_validated_on_its_windows(field, array, row, value, message):
    # the law given with one window per row, one of them changed; the rows
    # after (1, 2) with the same bad window are not named
    spec = _builtin(_BANDED_BUILTINS[1])
    law = spec.law_y                                   # (2, 8, 7), windows of 3
    parts = {"offset": law.offset.copy(), "window": law.windows[law.index]}
    parts[array][row] = value
    if array == "window":
        parts[array][1, 5] = value
    laws = {"law_y": law, "law_z": law, field: channel.BandedLaw(
        parts["offset"], np.arange(16).reshape(2, 8), parts["window"].reshape(16, -1), law.size)}
    with pytest.raises(SpecValidationError) as err:
        channel.SdmcSpec(state_pmf=spec.state_pmf, **laws, distortion=spec.distortion,
                         cost=spec.cost)
    assert str(err.value).startswith(message.format(field))


def test_banded_law_rejects_a_bad_window_that_no_row_has():
    spec = _builtin(_BANDED_BUILTINS[1])
    law = spec.law_y
    bad = channel.BandedLaw(law.offset, law.index, np.vstack((law.windows, [[-1.0, 2.0, 0.0]])),
                            law.size)
    with pytest.raises(SpecValidationError,
                       match=r"^law_y window: negative probability at \(\d+, 0\)$"):
        channel.SdmcSpec(state_pmf=spec.state_pmf, law_y=bad, law_z=law,
                         distortion=spec.distortion, cost=spec.cost)


def test_banded_law_keeps_each_distinct_window_once():
    # rows given their own byte-equal windows share one index; 0.0 and -0.0
    # differ in their bytes, so their windows do not
    windows = [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]
    windows[3] = [0.5, 0.5 - 0.0]
    windows[4] = [1.0, -0.0]
    law = channel.BandedLaw([[0, 1, 2, 0, 1]], [[0, 1, 2, 3, 4]], windows, 4)
    assert law.windows.shape == (3, 2) and not law.windows.flags.writeable
    assert law.index[0, 0] == law.index[0, 2] == law.index[0, 3] != law.index[0, 1]
    assert law.windows[law.index[0, 4]].tobytes() == np.array([1.0, -0.0]).tobytes()
    assert np.asarray(law).tolist() == [[[0.5, 0.5, 0, 0], [0, 0.25, 0.75, 0], [0, 0, 0.5, 0.5],
                                         [0.5, 0.5, 0, 0], [0, 1.0, 0, 0]]]
    for index in ([[0, 1, 2, 3, 5]], [[0, 1, 2, 3, -1]], [[0, 1, 2, 3]]):
        with pytest.raises(SpecValidationError, match="banded law: offsets of shape"):
            channel.BandedLaw([[0, 1, 2, 0, 1]], index, windows, 4)


# cli._spec_digest of Gaussian builtins, pinned at the values of their laws as
# first built: one noise atom snapped per (x, s) row at a time.  The last two
# have more than two distinct windows per law, and windows moved back from
# the last output
_GAUSSIAN_DIGESTS = {
    "gaussian,state_points=100":
        "068995895040988a0ef40bb1931ea2481e503bcbabf1bb8bffdb9525c115ad53",
    "gaussian,state_points=500":
        "a9bd46e374af8ca815418c80a8717a37e43f0fbfaad17c86e1994a5a0d7e6b2d",
    "gaussian-reduced,state_points=100":
        "8f389d12c4f3baa9c36c23eb63a829365f245d8e7e385b2be3602c1c613605f4",
    "gaussian-reduced,state_points=500":
        "f852f90cab3552beb92d5f7b5ea46babd9ca459482e24773174a8ef74e3d5332",
    "gaussian,state_points=100,feedback_variance=0":
        "c76fbec38a281c9ee1493ffe3c0ef6848845d532df50a4b60031024aed825216",
    "gaussian,pam_points=7,state_points=20,output_spacing_factor=3.0":
        "45ce39b2fe7bfafcb5159795d3249007007e57158a35891d368c924c358bcf03",
    "gaussian,pam_points=5,state_points=100,output_spacing_factor=1.3":
        "963189bd34ecc374ba14a59e94d6af819828653f68590f4885e4b696e88c92ef",
}


@pytest.mark.parametrize("text", list(_GAUSSIAN_DIGESTS))
def test_gaussian_spec_digests_are_pinned(text):
    spec = _builtin(text)
    assert cli._spec_digest(spec) == _GAUSSIAN_DIGESTS[text]
    if "output_spacing_factor" in text:
        for law in (spec.law_y, spec.law_z):
            assert len(law.windows) > 2
        assert any((law.windows[:, 0] == 0).any() for law in (spec.law_y, spec.law_z))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def spec_500():
    return gaussian_quantized_spec(GaussianQuantConfig(state_points=500))


def test_gaussian_build_working_set_is_banded():
    # at 1,000 states the dense laws alone are 16.6 + 19.7 MB, and one
    # window per (x, s) row 3.3 + 6.4 MB; each law's offsets and window
    # indices are 0.26 MB, its 2 distinct windows under 1 kB
    assert _traced_peak(gaussian_quantized_spec, GaussianQuantConfig(state_points=500)) < 3e6


@pytest.mark.parametrize("read", [
    estimator.build_estimator,
    lambda spec: examples.gaussian_two_pam_point(spec, 10.0),
    cli._spec_digest,
    solver.no_tradeoff_check,
], ids=["build_estimator", "two_pam_point", "spec_digest", "no_tradeoff_check"])
def test_banded_readers_never_build_a_dense_law(spec_500, read):
    # each reads the laws one input's (S, Y) rows at a time: a dense law_z
    # alone would be 19.7 MB
    assert _traced_peak(read, spec_500) < 12e6


def test_snap_ties_to_lower_index():
    # one atom at 0, then atoms at -3/8 and 3/8: a mean whose sum with an atom
    # is a half-integer goes to the lower cell
    law = examples._scatter(np.array([[0.5, 1.5, -0.5, 0.51]]), np.array([0.0]), np.array([1.0]))
    assert np.asarray(law)[0].argmax(axis=1).tolist() == [1, 2, 0, 2]      # cells 0, 1, -1, 1
    law = examples._scatter(np.array([[0.125, 0.875]]), np.array([-0.375, 0.375]),
                            np.array([0.25, 0.75]))
    assert np.asarray(law).tolist() == [[[1.0, 0.0], [0.25, 0.75]]]   # cells 0 and 0, 0 and 1


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
    for tail in (0.0, 1.0):
        with pytest.raises(ValueError):
            GaussianQuantConfig(state_tail_mass=tail)


def test_gaussian_analytic_anchors_continuous_model():
    # the antipodal input at full power is the continuous model's D_min point
    r_min, d_min = gaussian_two_pam_analytic(np.sqrt(10.0))
    assert d_min == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert r_min == pytest.approx(0.733, abs=2e-2)


def test_gaussian_anchor_limits():
    assert gaussian_two_pam_analytic(1e-6)[0] == pytest.approx(0.0, abs=1e-4)
    # feedback that sees nothing leaves the prior's unit variance
    assert gaussian_two_pam_analytic(np.sqrt(10.0), sigma_fb2=1e6)[1] == pytest.approx(
        1.0, abs=1e-3)


def test_two_pam_analytic_monotone():
    amps = [1.0, 2.0, 3.0]
    pts = [gaussian_two_pam_analytic(a) for a in amps]
    rates = [p[0] for p in pts]
    dists = [p[1] for p in pts]
    assert rates == sorted(rates)
    assert dists == sorted(dists, reverse=True)


TWO_PAM_AMPLITUDES = [1e-3, 0.1, 0.7, 1.0, 2.0, 3.0, np.sqrt(10.0), 5.0, 10.0]


@pytest.mark.parametrize("amplitude", TWO_PAM_AMPLITUDES)
def test_two_pam_analytic_matches_scipy_quad(amplitude):
    # the oracle is the adaptive integral over a stats.norm.pdf integrand;
    # it differs from the fixed rule by its own error, up to 5e-10 here
    from scipy import integrate, stats

    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(151)

    def i_bpsk(snr):
        arg = -2.0 * snr - 2.0 * np.sqrt(snr) * gh_x
        val = np.log1p(np.exp(np.minimum(arg, 700.0))) / np.log(2.0)
        return 1.0 - float(np.dot(gh_w, val)) / np.sqrt(2.0 * np.pi)

    def integrand(s_abs):
        return 2.0 * stats.norm.pdf(s_abs) * i_bpsk(s_abs * s_abs * amplitude ** 2)

    rate, _ = integrate.quad(integrand, 0.0, 10.0, limit=200)
    assert gaussian_two_pam_analytic(amplitude)[0] == pytest.approx(rate, abs=1e-9)


def test_two_pam_analytic_rule_is_converged(monkeypatch):
    # doubling both node counts moves no rate by more than 1e-10 bits
    rates = [gaussian_two_pam_analytic(a)[0] for a in TWO_PAM_AMPLITUDES]
    monkeypatch.setattr(examples, "_TWO_PAM_NODES",
                        tuple(2 * n for n in examples._TWO_PAM_NODES))
    finer = [gaussian_two_pam_analytic(a)[0] for a in TWO_PAM_AMPLITUDES]
    assert finer == pytest.approx(rates, abs=1e-10)


def test_gaussian_paths_leave_scipy_unloaded(tmp_path):
    # the quantized builder, the 2-PAM anchor and a Gaussian CLI frontier
    # need NumPy and `math` only
    src = str(Path(examples.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys\n"
             "from capdist import cli, examples as ex\n"
             "spec = ex.gaussian_quantized_spec(ex.GaussianQuantConfig(state_points=20))\n"
             "rate, dist, pmf = ex.gaussian_two_pam_point(spec, 10.0)\n"
             "ex.gaussian_two_pam_analytic(max(spec.cost[pmf > 0]) ** 0.5)\n"
             "code = cli.main(['tradeoff', '--builtin', 'gaussian-reduced,state_points=20',\n"
             "                 '--out', sys.argv[1]])\n"
             "sys.exit(code or any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = tmp_path / "g.csv"
    assert subprocess.run([sys.executable, "-c", probe, str(out)], env=env).returncode == 0
    assert out.exists()


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
