import dataclasses
import logging
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capdist import channel, cli, estimator, examples, solver
from capdist.channel import SdmcSpec, simplex_lattice
from capdist.errors import DegenerateUpdate, Infeasible, SpecValidationError
from capdist.solver import (BaConfig, baseline_ts,
                            conditional_mutual_information, no_tradeoff_check,
                            solve_fixed_mu, sweep_frontier)
from random_specs import random_spec


# ---------------------------------------------------------------------------
# conditional mutual information
# ---------------------------------------------------------------------------

def test_cmi_binary_uniform_input():
    spec = examples.binary_multiplicative_spec(0.4)
    assert conditional_mutual_information(spec, [0.5, 0.5]) == pytest.approx(0.4)


def test_cmi_point_mass_is_zero():
    spec = examples.binary_multiplicative_spec(0.4)
    assert conditional_mutual_information(spec, [1.0, 0.0]) == pytest.approx(0.0)
    assert conditional_mutual_information(spec, [0.0, 1.0]) == pytest.approx(0.0)


def test_cmi_matches_direct_formula_on_random_channels():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = random_spec(rng)
        p_full = rng.dirichlet(np.ones(spec.input_size))
        # and one input with no mass, whose law row the CMI leaves out
        p_hole = np.append(rng.dirichlet(np.ones(spec.input_size - 1)), 0.0)
        for p_x in (p_full, p_hole):
            law = spec.law_y
            direct = 0.0
            for s in range(spec.state_size):
                pys = p_x @ law[:, s, :]
                for x in range(spec.input_size):
                    for y in range(spec.output_size):
                        v = law[x, s, y]
                        if p_x[x] > 0 and v > 0:
                            direct += (spec.state_pmf[s] * p_x[x] * v
                                       * np.log2(v / pys[y]))
            assert conditional_mutual_information(spec, p_x) == pytest.approx(
                direct, abs=1e-12)


def test_cmi_on_the_support_matches_the_full_work():
    # the Gaussian 2-PAM pairs put mass on 2 of 8 inputs
    spec = examples.gaussian_quantized_spec(examples.GaussianQuantConfig(
        pam_points=8, noise_points=25, state_points=100))
    m = spec.input_size
    i = np.arange(m // 2)
    pairs = np.zeros((i.size, m))
    pairs[i, i] = pairs[i, m - 1 - i] = 0.5
    full = solver._BaWork(spec.law_y, spec.state_pmf).rates(pairs)
    cmi = [conditional_mutual_information(spec, p) for p in pairs]
    assert cmi == pytest.approx(full, abs=1e-12)


@pytest.mark.parametrize("p_x, fault", [
    ([2.0, 2.0], "sums to 4"),
    ([0.3, 0.3], "sums to 0.6"),
    ([np.nan, 1.0], "non-finite entry"),
    ([-0.5, 1.5], "negative probability"),
    ([0.2, 0.3, 0.5], "expected 2 entries"),
], ids=["sum-above", "sum-below", "nan", "negative", "length"])
def test_cmi_rejects_a_non_pmf(p_x, fault):
    # each of these once returned a number (0.682 bits above the binary
    # channel's 0.4 capacity at [0.3, 0.3]) or failed inside NumPy
    spec = examples.binary_multiplicative_spec(0.4)
    with pytest.raises(SpecValidationError, match=f"p_x: .*{fault}"):
        conditional_mutual_information(spec, p_x)


def test_rates_rows_do_not_depend_on_blocks_and_are_nonnegative(monkeypatch):
    # the region producers stack many pmfs in one `rates` call: each row must
    # equal its one-row call, and point masses (I = 0) must not read below 0.
    # a(x), summed along each law row, must not depend on its block either:
    # the Gaussian's 23,800 S*Y columns put two law rows in a default block
    rng = np.random.default_rng(23)
    specs = [random_spec(rng, *rng.integers(2, 4, size=4)) for _ in range(10)]
    specs.append(examples.gaussian_quantized_spec(examples.GaussianQuantConfig(
        pam_points=8, noise_points=25, state_points=100)))
    cases = []
    for spec in specs:
        work = solver._BaWork(spec.law_y, spec.state_pmf)
        p = np.vstack([np.eye(spec.input_size),
                       rng.dirichlet(np.ones(spec.input_size), size=6)])
        singles = [work.rates(row[None])[0] for row in p]
        assert min(singles[:spec.input_size]) >= 0.0
        assert work.rates(p).tolist() == singles
        cases.append((spec, work, p, singles))
    for elements in (1, 2 ** 22):                          # one row per block, one block
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", elements)
        for spec, work, p, singles in cases:
            assert work.rates(p).tolist() == singles
            assert solver._BaWork(spec.law_y, spec.state_pmf).a.tobytes() == work.a.tobytes()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sizes=st.tuples(*[st.integers(1, 4)] * 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_rates_are_row_independent_bit_for_bit(sizes, seed, data):
    # degraded_region rates each distinct P_X once and copies the rate to the
    # rows that repeat it, so a row's rate may depend on nothing else
    nx, ns, ny = sizes
    rng = np.random.default_rng(seed)
    law = rng.dirichlet(np.full(ny, 0.3), size=(nx, ns))       # some entries ~0
    law[rng.random(law.shape) < 0.3] = 0.0
    law[:, :, 0] += law.sum(axis=2) == 0.0                     # rows keep mass
    law /= law.sum(axis=2, keepdims=True)
    work = solver._BaWork(law, rng.dirichlet(np.ones(ns)))
    distinct = np.vstack([np.eye(nx), rng.dirichlet(np.full(nx, 0.5), size=3)])
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    p = distinct[picks]
    rates = work.rates(p)
    assert np.concatenate([work.rates(p[i:i + 1]) for i in range(len(p))]).tobytes() \
        == rates.tobytes()


# ---------------------------------------------------------------------------
# BA updates
# ---------------------------------------------------------------------------

def q_update(spec, p_x):
    """Backward channel Q(x|y,s), shape (X, S, Y); uniform where P(y|s) = 0."""
    num = np.asarray(p_x, float)[:, None, None] * spec.law_y
    den = num.sum(axis=0)
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 1.0 / num.shape[0])


def p_update(spec, est, q, mu, lam=0.0):
    """Exponential input update P*(x) proportional to 2**g(x)."""
    w = spec.state_pmf[None, :, None] * spec.law_y
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(w > 0, w * np.log2(q), 0.0).sum(axis=(1, 2))
    g = g - lam * np.asarray(spec.cost) - mu * est.cost
    e = np.exp2(g - g.max())
    return e / e.sum()


def test_q_update_is_bayes_posterior():
    rng = np.random.default_rng(3)
    spec = random_spec(rng)
    p_x = rng.dirichlet(np.ones(spec.input_size))
    q = q_update(spec, p_x)
    law = spec.law_y
    for s in range(spec.state_size):
        for y in range(spec.output_size):
            den = float(p_x @ law[:, s, y])
            if den > 0:
                assert np.allclose(q[:, s, y], p_x * law[:, s, y] / den)
            else:
                assert np.allclose(q[:, s, y], 1.0 / spec.input_size)


def test_p_update_fixed_point_at_binary_capacity():
    spec = examples.binary_multiplicative_spec(0.4)
    est_cost_free = solve_fixed_mu(spec, BaConfig(mu=0.0))
    p = est_cost_free.input_pmf
    assert np.allclose(p, [0.5, 0.5], atol=1e-9)
    est = estimator.build_estimator(spec)
    p_next = p_update(spec, est, q_update(spec, p), mu=0.0)
    assert np.allclose(p_next, p, atol=1e-12)


def test_kernel_step_matches_reference_updates():
    # one pass of the batched kernel is the over-relaxed reference step
    # p**(1 - theta) * p_update(q_update(p))**theta, renormalized, on every row
    theta = solver._THETA
    rng = np.random.default_rng(19)
    for _ in range(10):
        spec = random_spec(rng, *rng.integers(2, 4, size=4))
        est = estimator.build_estimator(spec)
        mus = np.array([0.0, 0.1, 1.0, 5.0, 30.0])
        starts = rng.dirichlet(np.ones(spec.input_size), size=mus.size)
        work = solver._BaWork(spec.law_y, spec.state_pmf)
        pts = solver._solve_rows(work, est.cost, spec.cost, mus, np.inf,
                                 BaConfig(max_outer_iters=1), start=starts)
        for pt, p, mu in zip(pts, starts, mus):
            ref = p ** (1.0 - theta) * p_update(spec, est, q_update(spec, p), mu) ** theta
            ref /= ref.sum()
            assert np.max(np.abs(pt.input_pmf - ref)) <= 1e-12


def test_curvature_matches_direct_sums(monkeypatch):
    # M(x, x') = sum P_S W(y|x,s) W(y|x',s) / (q ln 2) and its own part,
    # weighted by x's share of each output; row blocks change nothing.  The
    # last three laws, S*Y = 8, 9 and 20, are summed in several blocks of
    # three columns, the last one ragged where 3 does not divide S*Y
    rng = np.random.default_rng(31)
    for sizes in [None] * 5 + [(3, 2, 4, 2), (2, 3, 3, 2), (4, 4, 5, 2)]:
        if sizes is not None:
            monkeypatch.setattr(solver, "_CURVATURE_COLUMNS", 3)
        spec = random_spec(rng, *(rng.integers(2, 5, size=4) if sizes is None else sizes))
        work = solver._BaWork(spec.law_y, spec.state_pmf)
        p = rng.dirichlet(np.ones(spec.input_size), size=3)
        law, ps = spec.law_y, spec.state_pmf
        q = np.einsum("nx,xsy->nsy", p, law)
        m_ref = np.einsum("s,xsy,zsy,nsy->nxz", ps, law, law, 1.0 / q) / np.log(2.0)
        own_ref = np.einsum("s,xsy,nx,nsy->nx", ps, law ** 3, p, 1.0 / q ** 2) / np.log(2.0)
        m, own = work.curvature(p)
        assert np.allclose(m, m_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(own, own_ref, rtol=1e-12, atol=0.0)
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_BLOCK_ELEMENTS", 1)
            assert all(np.array_equal(a, b) for a, b in zip(work.curvature(p), (m, own)))


def test_curvature_working_set_is_one_column_block():
    # a (4, 1024, 128) law has 131,072 S*Y columns; the curvature at 16 rows
    # takes them _CURVATURE_COLUMNS at a time, so its traced peak stays below
    # one (16, S*Y) array of floats, 16 MB
    rng = np.random.default_rng(41)
    law = rng.random((4, 1024, 128))
    law /= law.sum(axis=2, keepdims=True)
    work = solver._BaWork(law, np.full(1024, 1.0 / 1024))
    p = rng.dirichlet(np.ones(4), size=16)
    tracemalloc.start()
    try:
        work.curvature(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * law[0].size * 8


def test_rates_working_set_is_one_row_block():
    # Dueck's sum-rate work: an (8, 4, 256) pair law, so 1,024 S*Y columns;
    # its 792 resolution-5 lattice rows take 6.2 MiB of P(y|s) in one block
    # and _BLOCK_ELEMENTS // 1,024 rows at a time in row blocks
    bc = examples.dueck_bc_spec()
    nx, (s1, s2, _, y1, y2, _) = bc.input_size, bc.law.shape
    pair_law = bc.law.sum(axis=5).transpose(2, 0, 1, 3, 4).reshape(nx, s1 * s2, y1 * y2)
    work = solver._BaWork(pair_law, bc.joint_state_pmf.ravel())
    grid = simplex_lattice(nx, 5)
    assert grid.shape == (792, 8)
    tracemalloc.start()
    try:
        work.rates(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


# hashes of every `_BaWork` kernel's output on the gaussian,state_points=100
# law at a fixed (41, 16) pmf matrix, and `unreached` where only the even
# inputs have mass
_KERNEL_PROBE = """
import hashlib, numpy as np
from capdist import examples, solver
spec = examples.gaussian_quantized_spec(examples.GaussianQuantConfig(state_points=100))
work = solver._BaWork(spec.law_y, spec.state_pmf)
p = np.random.default_rng(41).dirichlet(np.ones(16), size=41)
holes = p * (np.arange(16) % 2 == 0)
holes /= holes.sum(axis=1, keepdims=True)
for out in (work.a, work.per_x(p), work.unreached(holes), *work.curvature(p), work.rates(p)):
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_kernels_do_not_depend_on_blas_threads():
    # each S*Y reduction is taken within one row, so one and two OpenBLAS
    # threads give the same bits; `rates` once took its sum as one BLAS dot,
    # which OpenBLAS splits across threads
    src = str(Path(solver.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    children = [subprocess.Popen([sys.executable, "-c", _KERNEL_PROBE], stdout=subprocess.PIPE,
                                 text=True, env=dict(env, OPENBLAS_NUM_THREADS=threads))
                for threads in ("1", "2")]
    hashes = [child.communicate()[0].split() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert len(hashes[0]) == 6 and hashes[0] == hashes[1]


def test_work_build_working_set_is_one_row_block():
    # a (16, 1024, 512) law has 524,288 S*Y columns, 64 MB of floats; a(x)
    # is taken one law row at a time (_BLOCK_ELEMENTS // 524,288 rows, at
    # least one), so building the work traces less than one law-size array
    rng = np.random.default_rng(43)
    law = rng.random((16, 1024, 512))
    law /= law.sum(axis=2, keepdims=True)
    tracemalloc.start()
    try:
        solver._BaWork(law, np.full(1024, 1.0 / 1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < law.nbytes


def test_work_build_never_makes_a_banded_law_dense():
    # the state_points=500 law_y is banded, 15.75 MB dense; the work reads it
    # one input at a time and keeps 73% of its columns
    spec = examples.gaussian_quantized_spec(examples.GaussianQuantConfig(state_points=500))
    assert isinstance(spec.law_y, channel.BandedLaw)
    tracemalloc.start()
    try:
        solver._BaWork(spec.law_y, spec.state_pmf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.prod(spec.law_y.shape) * 8


def test_work_keeps_the_reached_columns():
    # 6,996 of the gaussian,state_points=100 law's 25,800 (s, y) columns and
    # 1,006 of the 1,024 of Dueck's pair law are 0 at every input
    spec = examples.gaussian_quantized_spec(examples.GaussianQuantConfig(state_points=100))
    bc = examples.dueck_bc_spec()
    nx, (s1, s2, _, y1, y2, _) = bc.input_size, bc.law.shape
    pair_law = bc.law.sum(axis=5).transpose(2, 0, 1, 3, 4).reshape(nx, s1 * s2, y1 * y2)
    for law, ps, kept in ((spec.law_y, spec.state_pmf, 18_804),
                          (pair_law, bc.joint_state_pmf.ravel(), 18)):
        work = solver._BaWork(law, ps)
        dense = np.asarray(law).reshape(law.shape[0], -1)
        reached = (dense > 0).any(axis=0)
        assert work.law_flat.shape == (law.shape[0], kept) == (law.shape[0], reached.sum())
        assert work.law_flat.tobytes() == dense[:, reached].tobytes()
        assert work.ps_rep.tobytes() == np.repeat(ps, law.shape[2])[reached].tobytes()


def test_work_uses_a_fully_reached_dense_law_as_it_is():
    rng = np.random.default_rng(47)
    law = rng.dirichlet(np.ones(5), size=(3, 4))
    assert np.shares_memory(solver._BaWork(law, np.full(4, 0.25)).law_flat, law)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(sizes=st.tuples(*[st.integers(1, 4)] * 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_kernels_depend_only_on_reached_columns(sizes, seed, data):
    # output symbols that no (x, s) reaches add exactly 0 to every kernel:
    # with them inserted, the kernels and the sweep keep their bytes
    nx, ns, ny = sizes
    rng = np.random.default_rng(seed)
    law = rng.dirichlet(np.full(ny, 0.3), size=(nx, ns))       # some entries ~0
    law[rng.random(law.shape) < 0.3] = 0.0
    law[:, :, 0] += law.sum(axis=2) == 0.0                     # rows keep mass
    law /= law.sum(axis=2, keepdims=True)
    at = data.draw(st.lists(st.integers(0, ny), min_size=1, max_size=4))
    wide = np.insert(law, at, 0.0, axis=2)
    ps = rng.dirichlet(np.ones(ns))
    p = rng.dirichlet(np.ones(nx), size=5)
    holes = np.where(np.arange(nx) % 2 == 0, p, 0.0)
    holes /= holes.sum(axis=1, keepdims=True)

    def kernels(law):
        work = solver._BaWork(law, ps)
        return [work.a, work.per_x(p), work.unreached(holes), *work.curvature(p),
                work.rates(p)]

    assert [k.tobytes() for k in kernels(law)] == [k.tobytes() for k in kernels(wide)]
    law_z = rng.dirichlet(np.ones(2), size=(nx, ns))
    d = rng.random((ns, ns))
    np.fill_diagonal(d, 0.0)
    cost = rng.random(nx)
    budget = rng.uniform(cost.min(), cost.max())
    sweeps = [sweep_frontier(SdmcSpec(state_pmf=ps, law_y=law_y, law_z=law_z,
                                      distortion=d, cost=cost), budget, [0.0, 0.3, 3.0])
              for law_y in (law, wide)]
    assert [(pt.mu, pt.rate, pt.distortion, pt.cost, pt.input_pmf.tobytes(),
             pt.iterations, pt.converged, pt.gap) for pt in sweeps[0]] == \
        [(pt.mu, pt.rate, pt.distortion, pt.cost, pt.input_pmf.tobytes(),
          pt.iterations, pt.converged, pt.gap) for pt in sweeps[1]]


def test_gap_is_infinite_where_a_massless_input_reaches_new_outputs():
    # at p = [1, 0] on the binary channel only x = 1 reaches y = 1, so its
    # divergence from the output law is infinite: no bound, however small
    # the a - t that takes log2 P(y|s) = 0 there
    spec = examples.binary_multiplicative_spec(0.4)
    work = solver._BaWork(spec.law_y, spec.state_pmf)
    p = np.array([[1.0, 0.0]])
    w = work.per_x(p)
    assert np.isfinite(w).all()
    gap = solver._gaps(work, p, w, (p * w).sum(axis=1), np.zeros(2), np.inf)
    assert gap[0] == np.inf
    # the budget can rule that input out: then the bound is w(0) = J
    gap = solver._gaps(work, p, w, (p * w).sum(axis=1), np.array([0.0, 1.0]), 0.0)
    assert gap[0] == 0.0


def test_certified_gaps_are_never_negative():
    # the bound and J sum the same terms in different orders, so rows at the
    # optimum (mu = 41.25, 58.78 and 1000 here) once read an ulp below 0
    spec = cli.BUILTINS["gaussian-reduced"](state_points=100)
    points = sweep_frontier(spec, 0.5, cli._parse_mu_grid("auto"))
    assert all(p.gap >= 0.0 for p in points)
    assert all(p.converged for p in points)


def test_degenerate_update_raises():
    with pytest.raises(DegenerateUpdate):
        solver._pmfs(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))


# ---------------------------------------------------------------------------
# fixed-mu solves
# ---------------------------------------------------------------------------

def test_binary_capacity_exact():
    spec = examples.binary_multiplicative_spec(0.4)
    pt = solve_fixed_mu(spec, BaConfig(mu=0.0))
    assert pt.converged
    assert pt.rate == pytest.approx(0.4, abs=1e-9)
    assert pt.distortion == pytest.approx(0.2, abs=1e-9)


def test_mu_penalty_matches_closed_form():
    # with mu = log2((1-p)/p) the stationary input pmf puts mass p on x=0
    spec = examples.binary_multiplicative_spec(0.4)
    p_target = 0.25
    mu = np.log2((1.0 - p_target) / p_target)
    pt = solve_fixed_mu(spec, BaConfig(mu=mu, convergence_eps=1e-14))
    assert pt.distortion == pytest.approx(p_target * 0.4, abs=1e-6)
    assert pt.rate == pytest.approx(
        examples.binary_multiplicative_cd(0.4, pt.distortion), abs=1e-9)


def test_budget_constraint_respected():
    spec = examples.binary_multiplicative_spec(0.4)
    costly = dataclasses.replace(spec, cost=[0.0, 1.0])
    cfg = BaConfig(mu=0.0, budget=0.3)
    pt = solve_fixed_mu(costly, cfg)
    assert pt.cost <= 0.3          # the dual search returns the feasible end
    assert pt.rate <= 0.4 + 1e-9
    # the budget binds: unconstrained optimum spends 0.5
    assert pt.cost == pytest.approx(0.3, abs=1e-6)


def test_budget_below_min_cost_is_infeasible():
    spec = examples.binary_multiplicative_spec(0.4)
    costly = dataclasses.replace(spec, cost=[2.0, 3.0])
    with pytest.raises(Infeasible):
        solve_fixed_mu(costly, BaConfig(mu=0.0, budget=1.0))


def test_nan_budget_raises():
    # a NaN budget skipped both budget checks and came back converged
    spec = dataclasses.replace(examples.binary_multiplicative_spec(0.4), cost=[0.0, 1.0])
    with pytest.raises(ValueError, match="nan"):
        solve_fixed_mu(spec, BaConfig(budget=np.nan))


@pytest.mark.parametrize("mu", [-1.0, np.nan, np.inf])
def test_bad_penalties_raise(mu):
    # mu = -1 came back as a "converged" row and displaced the mu = 0 row of
    # the sweep; nan and inf failed with DegenerateUpdate and a RuntimeWarning
    spec = examples.binary_multiplicative_spec(0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"not {mu}$"):
            sweep_frontier(spec, np.inf, [mu])
        with pytest.raises(ValueError, match=f"not {mu}$"):
            solve_fixed_mu(spec, BaConfig(mu=mu))


def test_objective_trace_monotone_on_random_channels():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spec = random_spec(rng)
        cfg = BaConfig(mu=rng.random(), record_objective=True)
        pt = solve_fixed_mu(spec, cfg)
        trace = np.asarray(pt.objective_trace)
        assert np.all(np.diff(trace) >= -1e-10)


# ---------------------------------------------------------------------------
# sweeps and baselines
# ---------------------------------------------------------------------------

def test_sweep_sorted_and_monotone():
    spec = examples.binary_multiplicative_spec(0.4)
    pts = sweep_frontier(spec, np.inf, np.logspace(-2, 1, 12))
    d = [p.distortion for p in pts]
    r = [p.rate for p in pts]
    assert d == sorted(d)
    assert all(r2 >= r1 - 1e-9 for r1, r2 in zip(r, r[1:]))
    mus = [p.mu for p in pts]
    assert np.inf in mus and 0.0 in mus


def _frontier(points):
    return [(p.mu, p.rate, p.distortion, p.cost, p.iterations, p.converged)
            for p in points]


def test_sweep_threads_match_sequential():
    # `threads` is accepted and ignored: the points are identical
    spec = examples.binary_multiplicative_spec(0.4)
    grid = np.logspace(-1, 1, 6)
    seq = sweep_frontier(spec, np.inf, grid, threads=1)
    par = sweep_frontier(spec, np.inf, grid, threads=4)
    assert _frontier(seq) == _frontier(par)


@pytest.mark.parametrize("quantile", [None, 0.5])
def test_sweep_rows_match_cold_solves(quantile):
    rng = np.random.default_rng(23)
    for _ in range(4):
        spec = random_spec(rng, *rng.integers(2, 4, size=4))
        budget = np.inf if quantile is None else float(np.quantile(spec.cost, quantile))
        for pt in sweep_frontier(spec, budget, np.logspace(-2, 2, 9)):
            if not np.isfinite(pt.mu):
                continue
            cold = solve_fixed_mu(spec, BaConfig(mu=pt.mu, budget=budget))
            assert pt.converged
            assert pt.rate == pytest.approx(cold.rate, abs=1e-9)
            assert pt.distortion == pytest.approx(cold.distortion, abs=1e-9)


def test_sweep_row_blocks_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(29)
    spec = random_spec(rng)
    budget = float(np.quantile(spec.cost, 0.5))
    grid = [0.0] + list(np.logspace(-3, 3, 40))
    default = _frontier(sweep_frontier(spec, budget, grid))
    a = solver._BaWork(spec.law_y, spec.state_pmf).a.tobytes()
    for elements in (1, 2 ** 22):                          # one row per block, one block
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", elements)
        assert _frontier(sweep_frontier(spec, budget, grid)) == default
        assert solver._BaWork(spec.law_y, spec.state_pmf).a.tobytes() == a


@settings(derandomize=True, deadline=None, max_examples=25)
@given(sizes=st.tuples(*[st.integers(2, 3)] * 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sweep_invariant_under_relabelling(sizes, seed, data):
    spec = random_spec(np.random.default_rng(seed), *sizes)
    px, ps, py, pz = (data.draw(st.permutations(range(n))) for n in sizes)
    relabelled = SdmcSpec(state_pmf=spec.state_pmf[ps],
                          law_y=spec.law_y[np.ix_(px, ps, py)],
                          law_z=spec.law_z[np.ix_(px, ps, pz)],
                          distortion=spec.distortion[np.ix_(ps, ps)],
                          cost=spec.cost[px])
    budget = float(np.quantile(spec.cost, 0.7))
    grid = np.logspace(-2, 2, 7)

    def points(s):
        return {p.mu: (p.rate, p.distortion)
                for p in sweep_frontier(s, budget, grid) if np.isfinite(p.mu)}

    a, b = points(spec), points(relabelled)
    assert a.keys() == b.keys()
    for mu in a:
        assert a[mu] == pytest.approx(b[mu], abs=1e-8)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(sizes=st.tuples(*[st.integers(2, 3)] * 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_duplicated_input_leaves_frontier_unchanged(sizes, seed, data):
    # a copy of input k (its law rows and cost; the distortion is indexed by
    # states) adds no (rate, distortion, cost) that a pmf could not reach
    spec = random_spec(np.random.default_rng(seed), *sizes)
    k = data.draw(st.integers(0, spec.input_size - 1))
    rows = [*range(spec.input_size), k]
    doubled = SdmcSpec(state_pmf=spec.state_pmf, law_y=spec.law_y[rows],
                       law_z=spec.law_z[rows], distortion=spec.distortion,
                       cost=spec.cost[rows])
    budget = float(np.quantile(spec.cost, 0.7))
    grid = np.logspace(-2, 2, 7)

    def points(s):
        return {p.mu: p for p in sweep_frontier(s, budget, grid) if np.isfinite(p.mu)}

    a, b = points(spec), points(doubled)
    assert a.keys() == b.keys()
    tol = BaConfig().convergence_eps
    for mu in a:
        assert a[mu].converged and b[mu].converged
        j_a, j_b = (p.rate - mu * p.distortion for p in (a[mu], b[mu]))
        assert j_a == pytest.approx(j_b, abs=2 * tol + 1e-12)
        assert (a[mu].rate, a[mu].distortion) == pytest.approx(
            (b[mu].rate, b[mu].distortion), abs=1e-8)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(sizes=st.tuples(*[st.integers(2, 3)] * 4), seed=st.integers(0, 2**32 - 1),
       binding=st.booleans(), data=st.data())
def test_dominated_input_leaves_frontier_unchanged(sizes, seed, binding, data):
    # an input with input k's channel law, k's feedback garbled (so its
    # estimation cost is no lower) and a cost no lower is never better than
    # k: the optimum sits on a face of the simplex, where the Newton polish
    # has to finish the row
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, *sizes)
    k = data.draw(st.integers(0, spec.input_size - 1))
    garble = rng.dirichlet(np.ones(spec.law_z.shape[2]), size=spec.law_z.shape[2])
    extra = data.draw(st.floats(0.0, 1.0))
    dominated = SdmcSpec(state_pmf=spec.state_pmf,
                         law_y=np.concatenate([spec.law_y, spec.law_y[k, None]]),
                         law_z=np.concatenate([spec.law_z, (spec.law_z[k] @ garble)[None]]),
                         distortion=spec.distortion,
                         cost=np.append(spec.cost, spec.cost[k] + extra))
    c = estimator.build_estimator(dominated).cost
    assert c[-1] >= c[k] - 1e-12                     # garbling never helps
    budget = float(np.quantile(spec.cost, 0.7)) if binding else np.inf
    grid = np.logspace(-2, 2, 7)

    def points(s):
        return {p.mu: p for p in sweep_frontier(s, budget, grid) if np.isfinite(p.mu)}

    a, b = points(spec), points(dominated)
    assert a.keys() == b.keys()
    for mu in a:
        assert a[mu].converged and b[mu].converged
        j_a, j_b = (p.rate - mu * p.distortion for p in (a[mu], b[mu]))
        assert j_a == pytest.approx(j_b, abs=2e-10)


def _mirror_spec(rng, nx, ns, ny, nz):
    """A dense spec that (x, s) -> (X-1-x, S-1-s) leaves unchanged: of the
    X*S law rows (x, s), in row-major order, the first half are drawn (with
    some zero entries) and row X*S-1-i is row i; the state pmf, the cost and
    the distortion matrix are made symmetric."""
    def mirrored(half, n):                 # the first ceil(n/2) entries given
        return np.concatenate((half, half[:n // 2][::-1]))

    def law(n):
        rows = rng.dirichlet(np.full(n, 0.5), size=(nx * ns + 1) // 2)
        rows[rng.random(rows.shape) < 0.2] = 0.0
        rows[:, 0] += rows.sum(axis=1) == 0.0
        return mirrored(rows / rows.sum(axis=1, keepdims=True), nx * ns).reshape(nx, ns, n)

    ps = mirrored(rng.random((ns + 1) // 2) + 0.1, ns)
    d = rng.random((ns, ns))
    np.fill_diagonal(d, 0.0)
    cost = rng.random(nx)
    return SdmcSpec(state_pmf=ps / ps.sum(), law_y=law(ny), law_z=law(nz),
                    distortion=0.5 * (d + d[::-1, ::-1]), cost=0.5 * (cost + cost[::-1]))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(sizes=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)),
       seed=st.integers(0, 2**32 - 1))
def test_mirror_kernels_match_the_plain_work(sizes, seed):
    # the half-state kernels, at symmetric pmfs (one evaluation of the half)
    # and at others (two), are the plain kernels to 1e-13 relative
    nx, ns, ny = sizes
    rng = np.random.default_rng(seed)
    spec = _mirror_spec(rng, nx, ns, ny, 2)
    assert isinstance(solver._work(spec)[1], solver._MirrorWork)
    plain = solver._BaWork(spec.law_y, spec.state_pmf)
    mirror = solver._MirrorWork(spec.law_y, spec.state_pmf)
    p = rng.dirichlet(np.ones(nx), size=4)
    holes = np.where(rng.random(p.shape) < 0.4, 0.0, p)
    holes[:, 0] += holes.sum(axis=1) == 0.0
    holes /= holes.sum(axis=1, keepdims=True)
    for q in (p, 0.5 * (p + p[:, ::-1]), holes, 0.5 * (holes + holes[:, ::-1])):
        for got, want in zip((mirror.per_x(q), *mirror.curvature(q), mirror.rates(q)),
                             (plain.per_x(q), *plain.curvature(q), plain.rates(q))):
            assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
        assert np.array_equal(mirror.unreached(q), plain.unreached(q))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(sizes=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(2, 3),
                       st.integers(2, 3)),
       seed=st.integers(0, 2**32 - 1), binding=st.booleans(),
       broken=st.sampled_from(["law_y", "law_z", "state_pmf", "cost", "distortion"]))
def test_mirrored_sweep_matches_the_plain_solve(sizes, seed, binding, broken):
    # on a mirror-symmetric spec the sweep iterates on half the states: each
    # row's J is the plain solve's within the two gaps summed, and its pmf
    # is its own reverse, bit for bit.  With one part moved off the mirror,
    # the spec takes the plain path: the sweep's bits are the plain solve's
    rng = np.random.default_rng(seed)
    spec = _mirror_spec(rng, *sizes)
    budget = float(np.quantile(spec.cost, 0.6)) if binding else np.inf
    mus = [0.0, 0.1, 1.0, 10.0]

    def plain(spec):
        return solver._solve_rows(solver._BaWork(spec.law_y, spec.state_pmf),
                                  estimator.build_estimator(spec).cost, spec.cost, mus,
                                  budget, BaConfig())

    rows = {pt.mu: pt for pt in sweep_frontier(spec, budget, mus)}
    c_max = estimator.build_estimator(spec).cost.max()
    for want in plain(spec):
        got = rows[want.mu]
        assert got.converged and want.converged
        assert got.input_pmf.tobytes() == got.input_pmf[::-1].tobytes()
        j_got, j_want = (pt.rate - pt.mu * pt.distortion for pt in (got, want))
        assert abs(j_got - j_want) <= got.gap + want.gap + 1e-14 * (1.0 + want.mu * c_max)
    nx, ns = sizes[:2]
    assume(nx * ns > 1 or broken not in ("law_y", "law_z"))   # one row is its own image
    assume(nx > 1 or broken != "cost")
    assume(ns > 1 or broken not in ("state_pmf", "distortion"))
    parts = {"law_y": np.array(spec.law_y), "law_z": np.array(spec.law_z),
             "state_pmf": np.array(spec.state_pmf), "cost": np.array(spec.cost),
             "distortion": np.array(spec.distortion)}
    a = parts[broken].reshape(-1, parts[broken].shape[-1])[0]
    if broken in ("law_y", "law_z"):            # row (0, 0) gives half an entry to the next
        a[1] += a[0] / 2
        a[0] -= a[0] / 2
        assume(a[0] > 0.0)
    else:
        a[0] += 0.25
    parts["state_pmf"] /= parts["state_pmf"].sum()
    off = SdmcSpec(**parts)
    est, work, cost = solver._work(off)
    assert type(work) is solver._BaWork and cost is est.cost
    rows = sorted((pt for pt in sweep_frontier(off, budget, mus) if np.isfinite(pt.mu)),
                  key=lambda pt: pt.mu)
    assert [(pt.mu, pt.rate, pt.distortion, pt.input_pmf.tobytes(), pt.iterations, pt.gap)
            for pt in rows] == [(pt.mu, pt.rate, pt.distortion, pt.input_pmf.tobytes(),
                                 pt.iterations, pt.gap) for pt in plain(off)]


def test_gaussian_spec_off_the_mirror_takes_the_plain_path():
    # each part of the symmetry checked: one law window entry or offset, the
    # state pmf, the cost, or one quadratic grid moved off the mirror.  The
    # laws given with one window per row, each its own byte-equal copy, are
    # still symmetric
    spec = cli.BUILTINS["gaussian-reduced"](state_points=20)
    assert isinstance(solver._work(spec)[1], solver._MirrorWork)
    law, grids = spec.law_y, spec.distortion
    rows = np.arange(law.index.size).reshape(law.index.shape)
    window, offset = law.windows[law.index].reshape(rows.size, -1), np.array(law.offset)
    copies = channel.BandedLaw(law.offset, rows, window.copy(), law.size)
    assert (copies.index == law.index).all()
    assert isinstance(solver._work(dataclasses.replace(spec, law_y=copies, law_z=copies))[1],
                      solver._MirrorWork)
    window[0, :2] = window[0, 1::-1]
    offset[0, 0] += 1 if offset[0, 0] + window.shape[1] < law.size else -1
    ps, cost, values = np.array(spec.state_pmf), np.array(spec.cost), np.array(grids.state_values)
    ps[[0, 1]], cost[0], values[0] = ps[[1, 0]], cost[0] + 1.0, values[0] - 1.0
    for off in (dataclasses.replace(spec, law_y=channel.BandedLaw(law.offset, rows, window,
                                                                  law.size)),
                dataclasses.replace(spec, law_z=channel.BandedLaw(offset, law.index, law.windows,
                                                                  law.size)),
                dataclasses.replace(spec, state_pmf=ps), dataclasses.replace(spec, cost=cost),
                dataclasses.replace(spec, distortion=channel.QuadraticDistortion(
                    values, grids.estimate_values)),
                dataclasses.replace(spec, distortion=channel.QuadraticDistortion(
                    grids.state_values, np.append(grids.estimate_values, 10.0)))):
        assert type(solver._work(off)[1]) is solver._BaWork


@pytest.mark.parametrize("text, budget", [("gaussian-reduced,state_points=100", 0.5),
                                          ("gaussian-reduced,state_points=100", np.inf),
                                          ("gaussian,state_points=100", 10.0)])
def test_mirrored_gaussian_rows_are_symmetric_and_the_anchor_is_not(text, budget):
    # the estimator's c(x) is mirror-symmetric only to rounding, so the
    # mirrored solve iterates with (c + c reversed) / 2: every finite-mu row
    # of the auto grid is its own reverse, bit for bit.  The mu = inf anchor
    # is d_min at the estimator's own c(x): with the symmetric c, the tied
    # least-distortion vertex flipped at B = 0.5 and the anchor's rate fell
    # from 0.01914 to 0.00770 bits
    name, params = cli._parse_builtin(text)
    spec = cli.BUILTINS[name](**params)
    c = estimator.build_estimator(spec).cost
    assert isinstance(solver._work(spec)[1], solver._MirrorWork)
    assert not np.array_equal(c, c[::-1])
    want = {0.5: ([2, 4], 0.01914403531133768), np.inf: ([7], 0.0),
            10.0: ([2, 3], 0.027697237706602262)}[budget]
    d_min, pmf = estimator.d_min(spec, budget)
    points = sweep_frontier(spec, budget, cli._parse_mu_grid("auto"))
    anchor, = (pt for pt in points if pt.mu == np.inf)
    assert all(pt.input_pmf.tobytes() == pt.input_pmf[::-1].tobytes()
               for pt in points if pt is not anchor)
    assert anchor.input_pmf.tobytes() == pmf.tobytes()
    assert baseline_ts(spec, budget)["dmin_pmf"].tobytes() == pmf.tobytes()
    assert np.flatnonzero(pmf).tolist() == want[0] and anchor.distortion == d_min
    assert anchor.rate == pytest.approx(want[1], abs=1e-15)


def test_gaussian_reduced_sweep_rows_converge_within_225_passes():
    # criterion 3's reduced Gaussian at B = 10 on the CLI `auto` grid; under
    # the binding budget a plain step can lower J by rounding, and a row that
    # rejects it steps back to the same pmf forever
    spec = cli.BUILTINS["gaussian-reduced"]()
    points = [p for p in sweep_frontier(spec, 10.0, cli._parse_mu_grid("auto"))
              if np.isfinite(p.mu)]
    assert all(p.converged for p in points)
    assert max(p.iterations for p in points) <= 225       # the plain step's max


@settings(derandomize=True, deadline=None, max_examples=25)
@given(sizes=st.tuples(*[st.integers(2, 3)] * 4), seed=st.integers(0, 2**32 - 1))
def test_relaxed_sweep_is_no_worse_than_plain(sizes, seed):
    spec = random_spec(np.random.default_rng(seed), *sizes)
    grid = np.logspace(-2, 2, 7)
    tol = BaConfig().convergence_eps

    def sweep(budget):
        points = [p for p in sweep_frontier(spec, budget, grid) if np.isfinite(p.mu)]
        assert all(p.converged and p.gap <= tol for p in points)
        return points

    def objectives(points):     # by mu: rows tied in distortion may swap
        return {p.mu: p.rate - p.mu * p.distortion for p in points}

    free = sweep(np.inf)
    # below every unconstrained row's cost, so the budget binds at every mu
    b_min = spec.cost.min()
    budget = b_min + 0.5 * (min(p.cost for p in free) - b_min)
    relaxed = [objectives(free), objectives(sweep(budget))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_THETA", 1.0)
        plain = [objectives(sweep(np.inf)), objectives(sweep(budget))]
    # both certify J within tol of the optimum, so they agree within tol
    for r, q in zip(relaxed, plain):
        assert r.keys() == q.keys()
        assert all(abs(r[mu] - q[mu]) <= tol for mu in q)


def _lattice_objectives(spec, mu, budget, k=100):
    """I(X;Y|S) - mu*c at every pmf of the step-1/k simplex lattice whose
    cost meets the budget, from the law directly."""
    pmfs = simplex_lattice(spec.input_size, k)
    pmfs = pmfs[pmfs @ spec.cost <= budget]
    law, ps = spec.law_y, spec.state_pmf
    pys = np.einsum("nx,xsy->nsy", pmfs, law)
    used = (pmfs[:, :, None, None] > 0) & (law[None] > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(used, law[None] * np.log2(law[None] / pys[:, None]), 0.0)
    rate = np.einsum("nx,s,nxsy->n", pmfs, ps, terms)
    return rate - mu * (pmfs @ estimator.build_estimator(spec).cost)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(sizes=st.tuples(*[st.integers(2, 3)] * 4), seed=st.integers(0, 2**32 - 1),
       binding=st.booleans())
def test_no_lattice_pmf_beats_a_certified_row(sizes, seed, binding):
    # a converged row's J is within tol of the optimum: a bound that is not
    # one would stop rows early, below some feasible lattice pmf
    spec = random_spec(np.random.default_rng(seed), *sizes)
    grid = np.logspace(-2, 2, 7)
    tol = BaConfig().convergence_eps
    budget = np.inf
    if binding:     # below every unconstrained row's cost
        free = [p for p in sweep_frontier(spec, np.inf, grid) if np.isfinite(p.mu)]
        budget = spec.cost.min() + 0.5 * (min(p.cost for p in free) - spec.cost.min())
    for p in sweep_frontier(spec, budget, grid):
        if np.isfinite(p.mu):
            assert p.converged and p.gap <= tol and p.cost <= budget
            best = _lattice_objectives(spec, p.mu, budget).max()
            assert best <= p.rate - p.mu * p.distortion + tol


def test_face_bound_row_converges():
    # this row's optimum lies near a face of the simplex, where BA crawls:
    # it was unconverged after 10,000 passes, raising J by 6.7e-10 per pass
    spec = random_spec(np.random.default_rng(414284), 2, 2, 2, 3)
    points = [p for p in sweep_frontier(spec, np.inf, np.logspace(-2, 2, 7))
              if np.isfinite(p.mu)]
    row, = [p for p in points if p.mu == pytest.approx(10 ** (-4 / 3))]
    assert all(p.converged and p.gap <= 1e-10 for p in points)
    assert row.iterations <= 4                # the first Newton polish, at pass 4


def test_polish_lifts_massless_inputs_of_gaussian_rows():
    # BA underflows the inner inputs of these rows to 0, and a Newton step
    # cannot move an input with no mass: its outputs are reached by no
    # other input, so the gap stayed inf for 10,000 passes
    spec = cli.BUILTINS["gaussian-reduced"](state_points=100)
    work = solver._BaWork(spec.law_y, spec.state_pmf)
    pts = solver._solve_rows(work, estimator.build_estimator(spec).cost, spec.cost,
                             [701.7038286703837, 1000.0], np.inf,
                             BaConfig(max_outer_iters=64))
    assert all(p.converged and p.gap <= 1e-10 for p in pts)


def test_polish_from_zero_and_subnormal_masses_is_warning_free():
    # a noiseless ternary channel at p = [1, 0, 2**-1070]: input 1 reaches
    # an output no other input reaches, and input 2's output has a
    # subnormal P(y), whose reciprocal overflowed in the curvature (inf * 0
    # put NaN into M); raised to the floor, both move and the polish
    # reaches the uniform capacity pmf
    spec = SdmcSpec(state_pmf=np.ones(1), law_y=np.eye(3)[:, None, :],
                    law_z=np.ones((3, 1, 1)), distortion=np.zeros((1, 1)),
                    cost=np.zeros(3))
    est = estimator.build_estimator(spec)
    work = solver._BaWork(spec.law_y, spec.state_pmf)
    p, mu = np.array([[1.0, 0.0, 2.0 ** -1070]]), np.zeros((1, 1))
    w = work.per_x(p) - mu * est.cost
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, _, gap, ok = solver._polish(work, est.cost, p, w, (p * w).sum(axis=1), mu,
                                       spec.cost, np.inf, 1e-10)
    assert ok[0] and gap[0] <= 1e-10
    assert q[0] == pytest.approx(np.full(3, 1.0 / 3.0), abs=1e-9)


_AUTO = cli._parse_mu_grid("auto")


@pytest.mark.parametrize("budget, mu", [(np.inf, _AUTO[29])] + [
    (0.5, mu) for mu in _AUTO[1:10] + [_AUTO[14]]])
def test_stalled_gaussian_reduced_rows_certify_within_64_passes(budget, mu):
    # mu = 20.31 at B = inf took 256 passes: the step in ln p of an input
    # that dominates its outputs grew masses near 1e-25 to 1e135 or inf.
    # The budget-0.5 rows mu = 0.001 to 0.017 and 0.1 took 128 to 512: every
    # polish stalled at one gap and then stepped to gap inf
    spec = cli.BUILTINS["gaussian-reduced"]()
    row, = [p for p in sweep_frontier(spec, budget, [mu]) if p.mu == mu]
    assert row.converged and row.gap <= 1e-10 and row.iterations <= 64


def test_stress_spec_34_row_certifies_within_64_passes():
    # spec 34 of the stress set (sizes 4, 4, 2, 2) at its 0.7 cost quantile
    # took 1,408 passes at mu = 1.70: each polish froze a crossing input far
    # down, and the budget row then forced two inputs of near-equal cost
    # apart along a flat direction of J
    from stress_passes import stress_specs
    spec = list(stress_specs(35))[34]
    assert spec.law_y.shape == (4, 4, 2)
    mu = _AUTO[22]
    row, = [p for p in sweep_frontier(spec, float(np.quantile(spec.cost, 0.7)), [mu])
            if p.mu == mu]
    assert row.converged and row.gap <= 1e-10 and row.iterations <= 64


def test_newton_step_keeps_rows_left_with_one_free_input_under_the_budget(monkeypatch):
    # random models in which the active-set search binds the budget and then
    # holds all inputs but one at the edge of the trust region; the KKT
    # system of such a row is singular, and its step used to be NaN
    singular, seen = solver._singular, []

    def spy(free, bind, b):
        out = singular(free, bind, b)
        seen.append(bool((out & bind & (free.sum(axis=1) == 1)).any()))
        return out

    monkeypatch.setattr(solver, "_singular", spy)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        law = rng.random((1, 3, 4))
        p, b = rng.dirichlet(np.ones(3), size=1), rng.random(3)
        budget = float(p[0] @ b) + 0.05 * rng.random()
        q = solver._newton_step(law @ law.transpose(0, 2, 1), np.zeros((1, 3)), p,
                                rng.normal(size=(1, 3)), b, budget,
                                np.array([0.5 * rng.random()]))
        assert np.isfinite(q).all() and (q > 0.0).all()
    assert any(seen)


def _elimination(a, r):
    """x with a @ x = r for each of a stack of square systems, by Gaussian
    elimination with partial pivoting, as the Newton step first solved its
    KKT systems; a singular system gives non-finite entries."""
    a, r = a.copy(), r.copy()
    n, idx = a.shape[1], np.arange(len(a))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for c in range(n):
            piv = c + np.abs(a[:, c:, c]).argmax(axis=1)
            a[idx, c], a[idx, piv] = a[idx, piv], a[idx, c].copy()
            r[idx, c], r[idx, piv] = r[idx, piv], r[idx, c].copy()
            f = a[:, c + 1:, c] / a[:, c, c, None]
            a[:, c + 1:, c:] -= f[:, :, None] * a[:, c, None, c:]
            r[:, c + 1:] -= f * r[:, c, None]
        x = np.zeros_like(r)
        for c in range(n - 1, -1, -1):
            x[:, c] = (r[:, c] - (a[:, c, c + 1:] * x[:, c + 1:]).sum(axis=1)) / a[:, c, c]
    return x


def _kkt_reference(m, grad, p, held, free, bind, b, slack):
    """(KKT matrices, their solutions by `_elimination`) of the systems that
    `solver._kkt_step` solves: the step d on the first X entries, then the
    multipliers of the sum and budget rows."""
    n, nx = p.shape
    diag = np.arange(nx)
    scale = b.max() if b.max() > 0.0 else 1.0
    kkt = np.zeros((n, nx + 2, nx + 2))
    kkt[:, :nx, :nx] = np.where(free[:, :, None] & free[:, None, :], m, 0.0)
    kkt[:, diag, diag] = np.where(free, m[:, diag, diag] * (1.0 + solver._RIDGE), 1.0)
    kkt[:, nx, :nx] = kkt[:, :nx, nx] = free
    kkt[:, nx + 1, :nx] = kkt[:, :nx, nx + 1] = np.where(bind[:, None] & free, b / scale, 0.0)
    kkt[:, nx + 1, nx + 1] = np.where(bind, 0.0, 1.0)
    shift = held - p
    rhs = np.zeros((n, nx + 2))
    rhs[:, :nx] = np.where(free, grad - (shift[:, None, :] @ m)[:, 0], 0.0)
    rhs[:, nx] = -shift.sum(axis=1)
    rhs[:, nx + 1] = np.where(bind, (slack - (shift * b).sum(axis=1)) / scale, 0.0)
    return kkt, _elimination(kkt, rhs)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(nx=st.integers(2, 18), seed=st.integers(0, 2**32 - 1),
       good=st.lists(st.sampled_from(["free", "binding"]), min_size=1, max_size=5),
       bad=st.lists(st.sampled_from(["tied", "single", "empty", "nan", "inf"]),
                    min_size=1, max_size=3))
def test_kkt_step_matches_the_elimination_row_by_row(nx, seed, good, bad):
    # random curvatures (Gram matrices, rank-deficient too), held inputs and
    # binding rows; inputs 0 and 1 cost the same.  Singular rows: "tied" binds
    # with free inputs 0 and 1 only, "single" binds with one free input,
    # "empty" has none; "nan" and "inf" put that entry into M or grad
    rng = np.random.default_rng(seed)
    kinds = good + bad
    n = len(kinds)
    k = int(rng.integers(1, 2 * nx))
    law = rng.random((n, nx, k)) ** 3
    m = (law * (rng.random((n, 1, k)) + 0.1)) @ law.transpose(0, 2, 1)
    grad = rng.normal(size=(n, nx))
    p = rng.dirichlet(np.ones(nx), size=n)
    free = rng.random((n, nx)) < 0.7
    free[np.arange(n), rng.integers(nx, size=n)] = True
    held = np.where(free, p, p * rng.random((n, nx)))
    b = rng.random(nx)
    b[1] = b[0]
    slack = 0.1 * rng.normal(size=n)
    bind = np.array([kind != "free" for kind in kinds])
    for i, kind in enumerate(kinds):
        j = int(rng.choice(np.flatnonzero(free[i])))
        if kind == "tied":
            free[i] = np.arange(nx) < 2
        elif kind == "single":
            free[i] = np.arange(nx) == j
        elif kind == "empty":
            free[i] = False
        elif kind in ("nan", "inf"):
            bad_value = np.nan if kind == "nan" else np.inf
            if rng.random() < 0.5:
                m[i, j, j] = bad_value
            else:
                grad[i, j] = bad_value
    # a "binding" row whose free inputs happen to be 0 and 1 alone is tied
    tied = bind & np.array([np.unique(b[f]).size <= 1 for f in free])
    ok = np.array([kind in ("free", "binding") for kind in kinds]) & ~tied

    with np.errstate(invalid="ignore"):         # inf * 0 in M (held - p) on "inf" rows
        d = solver._kkt_step(m, grad, p, held, free, bind, b, slack)
        kkt, ref = _kkt_reference(m, grad, p, held, free, bind, b, slack)
    eps = np.finfo(float).eps
    for i in np.flatnonzero(ok):
        assert np.isfinite(d[i]).all() and np.all(d[i][~free[i]] == 0.0)
        tol = 16.0 * eps * np.linalg.cond(kkt[i]) * np.abs(ref[i]).max()
        assert np.abs(d[i] - ref[i, :nx]).max() <= tol
    assert not np.isfinite(d[~ok]).any()
    # the singular and non-finite rows change no bit of the others' steps
    alone = solver._kkt_step(m[ok], grad[ok], p[ok], held[ok], free[ok], bind[ok], b,
                             slack[ok])
    assert np.array_equal(alone, d[ok])


def test_budget_fixed_row_stops_at_once():
    # criterion 6's first spec at its median budget: two inputs, so the
    # budget fixes the pmf, and the uniform start already spends it exactly.
    # Its gap is 0 after one pass; the J-step rule took 3 passes
    rng = np.random.default_rng(2024)
    spec = random_spec(rng, *rng.integers(2, 4, size=4))
    budget = float(np.quantile(spec.cost, 0.5))
    mu = [m for m in np.logspace(-3, 3, 120) if abs(m - 110.158) < 1e-3][0]
    pt = solve_fixed_mu(spec, BaConfig(mu=mu, budget=budget))
    assert pt.converged and pt.gap <= 1e-10 and pt.cost <= budget
    assert pt.iterations == 1


def test_binding_sweep_rows_stay_within_budget():
    # rows whose E[b] was within 1e-9 above B once skipped the lambda search
    # and reported a cost above the budget
    spec = random_spec(np.random.default_rng(13), 2, 2, 2, 3)
    grid = np.logspace(-2, 2, 7)
    free = [p for p in sweep_frontier(spec, np.inf, grid) if np.isfinite(p.mu)]
    b_min = spec.cost.min()
    budget = b_min + 0.5 * (min(p.cost for p in free) - b_min)
    assert all(p.cost <= budget for p in sweep_frontier(spec, budget, grid))


@pytest.mark.parametrize("seed", [9, 138])
def test_dmin_anchor_stays_within_budget(seed):
    # d_min mixes two symbols with weight (B - b_i)/(b_j - b_i); the anchor's
    # cost, the rounded mix, once read up to 5.6e-17 above B on these seeds
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, *rng.integers(2, 4, size=4))
    grid = cli._parse_mu_grid("auto")
    free = [p for p in sweep_frontier(spec, np.inf, grid) if np.isfinite(p.mu)]
    budget = 0.5 * (spec.cost.min() + min(p.cost for p in free))
    anchor, = [p for p in sweep_frontier(spec, budget, grid) if p.mu == np.inf]
    assert anchor.cost <= budget


def test_baselines_binary_closed_form():
    spec = examples.binary_multiplicative_spec(0.4)
    base = baseline_ts(spec)
    assert base["d_min"] == pytest.approx(0.0, abs=1e-9)
    assert base["r_min"] == pytest.approx(0.0, abs=1e-9)
    assert base["c_noest"] == pytest.approx(0.4, abs=1e-9)
    assert base["d_max"] == pytest.approx(0.2, abs=1e-9)
    assert base["d_trivial"] == pytest.approx(0.4, abs=1e-9)
    assert base["basic"] == ((0.0, 0.0), (base["c_noest"], base["d_trivial"]))
    assert base["improved"] == ((0.0, 0.0), (base["c_noest"], base["d_max"]))


# ---------------------------------------------------------------------------
# no-tradeoff certification
# ---------------------------------------------------------------------------

def test_no_tradeoff_erasure_passes():
    spec = examples.erasure_spec(0.3)
    rep = no_tradeoff_check(spec)
    assert rep.passed
    assert rep.worst_independence < 1e-12
    assert rep.worst_markov < 1e-12
    # psi* reads the erasure; each unreachable (x, z) is a class of its own
    psi = solver._posterior_classes(spec)
    assert psi[0, 0] == psi[1, 1] and psi[0, 2] == psi[1, 2]
    assert len({psi[0, 0], psi[0, 2], psi[0, 1], psi[1, 0]}) == 4


def test_no_tradeoff_binary_fails():
    spec = examples.binary_multiplicative_spec(0.4)
    rep = no_tradeoff_check(spec)
    assert not rep.passed
    assert rep.worst_independence == pytest.approx(0.6, abs=1e-12)


def test_no_tradeoff_constant_psi_independent_state_passes():
    rng = np.random.default_rng(5)
    law = rng.dirichlet(np.ones(4), size=(2, 1, 2)).reshape(2, 2, 2, 2)
    law = np.repeat(law[:, :1], 2, axis=1)     # state does not affect the law
    spec = SdmcSpec(state_pmf=[0.5, 0.5], law=law,
                    distortion=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert no_tradeoff_check(spec).passed
    assert not solver._posterior_classes(spec).any()   # every posterior is the prior


def _reference_no_tradeoff(spec, table, rng, tol=1e-9):
    """Conditions (i) and (ii) for T = table[x, z] on the full joint
    P(x, s, z, t), at a random full-support pmf and at every point mass."""
    w = spec.state_pmf[None, :, None] * spec.law_z
    is_t = np.eye(table.max() + 1)[table]                 # (X, Z, T): 1{t = psi(x,z)}
    p = 1.0 + rng.random(spec.input_size)
    for p_x in [p / p.sum(), *np.eye(spec.input_size)]:
        joint = p_x[:, None, None, None] * w[..., None] * is_t[:, None]   # (X,S,Z,T)
        p_xst, p_xzt = joint.sum(axis=2), joint.sum(axis=1)
        p_st = p_xst.sum(axis=0)
        # (i) P(x,s,t) = P(x) P(s,t); (ii) P(x,s,z,t) P(t) = P(s,t) P(x,z,t)
        dev_i = np.abs(p_xst - p_x[:, None, None] * p_st).max()
        dev_ii = np.abs(joint * p_st.sum(axis=0)
                        - p_st[None, :, None, :] * p_xzt[:, None]).max()
        if max(dev_i, dev_ii) > tol:
            return False
    return True


def _state_free_spec(rng, nx, ns, nz):
    """The law does not depend on the state (passes with a constant psi)."""
    law = rng.dirichlet(np.ones(2 * nz), size=(nx, 1)).reshape(nx, 1, 2, nz)
    return SdmcSpec(state_pmf=rng.dirichlet(np.ones(ns)),
                    law=np.repeat(law, ns, axis=1), distortion=np.ones((ns, ns)))


def _revealing_spec(rng, nx, ns, nz):
    """Z carries T ~ P(t|s), the same for every x, through a kernel that
    depends on x alone; psi(x, .) = table[x] reads T back, so that psi
    passes.  Returns (spec, table)."""
    nt = min(nz, 2)
    table = np.array([rng.permutation(np.arange(nz) % nt) for _ in range(nx)])
    p_t_s = rng.dirichlet(np.ones(nt), size=ns)               # (S, T)
    kernel = rng.random((nx, nz)) + 0.1                       # z | x, t
    kernel /= np.stack([np.bincount(row, weights=k, minlength=nt)[row]
                        for row, k in zip(table, kernel)])
    law_z = p_t_s[:, table].transpose(1, 0, 2) * kernel[:, None, :]
    spec = SdmcSpec(state_pmf=rng.dirichlet(np.ones(ns)),
                    law_y=rng.dirichlet(np.ones(2), size=(nx, ns)), law_z=law_z,
                    distortion=np.ones((ns, ns)))
    return spec, table


@settings(derandomize=True, deadline=None, max_examples=120)
@given(family=st.sampled_from(["random", "state-free", "revealing", "erasure"]),
       sizes=st.tuples(*[st.integers(1, 3)] * 4), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_no_tradeoff_matches_joint_reference(family, sizes, seed, data):
    rng = np.random.default_rng(seed)
    nx, ns, nz, nt = sizes
    if family == "random":
        spec = random_spec(rng, nx, ns, 2, nz)
    elif family == "state-free":
        spec = _state_free_spec(rng, nx, ns, nz)
    elif family == "revealing":
        spec, _ = _revealing_spec(rng, nx, ns, nz)
    else:
        spec = examples.erasure_spec(data.draw(st.floats(0.0, 1.0)))
    rep = no_tradeoff_check(spec)
    # the verdict is the reference's at psi*, ...
    assert rep.passed == _reference_no_tradeoff(spec, solver._posterior_classes(spec), rng)
    if family != "random":
        assert rep.passed
    # ... no random psi passes where psi* fails, ...
    psi = rng.integers(0, nt, spec.law_z.shape[::2])
    assert rep.passed or not _reference_no_tradeoff(spec, psi, rng)
    # ... and relabelling the inputs changes nothing
    perm = data.draw(st.permutations(range(spec.input_size)))
    relabelled = dataclasses.replace(spec, law_y=spec.law_y[perm], law_z=spec.law_z[perm],
                                     cost=spec.cost[perm])
    assert no_tradeoff_check(relabelled) == rep


@settings(derandomize=True, deadline=None, max_examples=80)
@given(sizes=st.tuples(*[st.integers(1, 3)] * 3), seed=st.integers(0, 2**32 - 1),
       perturb=st.booleans(), split=st.integers(1, 3))
def test_no_tradeoff_refined_psi_never_passes_where_psi_star_fails(sizes, seed,
                                                                  perturb, split):
    rng = np.random.default_rng(seed)
    nx, ns, nz = sizes
    spec, table = _revealing_spec(rng, nx, ns, nz)
    if perturb:                                   # input 0 no longer carries T
        law_z = spec.law_z.copy()
        law_z[0] = rng.dirichlet(np.ones(nz), size=ns)
        spec = dataclasses.replace(spec, law_z=law_z)
    rep = no_tradeoff_check(spec)
    assert rep.passed or perturb
    # split each planted class at random, then relabel the classes
    refined = table * split + rng.integers(0, split, table.shape)
    relabelled = rng.permutation(refined.max() + 1)[refined]
    for psi in (table, refined, relabelled):
        assert rep.passed or not _reference_no_tradeoff(spec, psi, rng)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sizes=st.tuples(*[st.integers(1, 3)] * 3), seed=st.integers(0, 2**32 - 1))
def test_no_tradeoff_ties_posteriors_equal_up_to_rounding(sizes, seed):
    # posteriors that agree but for a few ulps, as differently ordered float
    # sums leave them, are one class: split, they would fail (i) by about P(t)
    rng = np.random.default_rng(seed)
    spec, _ = _revealing_spec(rng, *sizes)
    ulps = 1.0 + rng.integers(-4, 5, spec.law_z.shape) * np.finfo(float).eps
    assert no_tradeoff_check(dataclasses.replace(spec, law_z=spec.law_z * ulps)).passed


def test_no_tradeoff_ties_erasure_bc_receiver_posteriors():
    # a receiver's view sums the joint law over the other receiver's axes, so
    # its equal posteriors differ in their last bits; psi* still ties them
    view = channel.receiver_spec(examples.erasure_bc_spec(
        np.array([[0.58, 0.10], [0.12, 0.20]]), np.array([[0.30, 0.20], [0.30, 0.20]])), 1)
    joint = view.state_pmf[None, :, None] * view.law_z
    psi = solver._posterior_classes(view)
    tied = [joint[x, :, z] / joint[x, :, z].sum() for x in range(2) for z in range(9)
            if psi[x, z] == psi[0, 8]]                # z = 8: both components erased
    assert len(tied) > 1 and any((p != tied[0]).any() for p in tied)
    assert no_tradeoff_check(view).passed


# ---------------------------------------------------------------------------
# the cost dual
# ---------------------------------------------------------------------------

def _scaled_costs(g, b, budget):
    """(u, scale): `_dual_rows` solves for x = lambda * scale with the pmf
    ~ 2**(g - x*u), u = (b - least)/scale on the support of g, where least
    is the least cost there and scale its gap to the least cost above B
    (least 0 and scale 1 if no cost there is above B)."""
    cost = np.where(np.isfinite(g), b, np.inf)
    if not (cost[np.isfinite(cost)] > budget).any():
        return cost, 1.0
    least = cost.min()
    scale = cost[cost > budget].min() - least
    return (cost - least) / scale, scale


def _bisection_lambda(g, u, b, budget):
    """The least x >= 0 whose pmf ~ 2**(g - x*u) has E[b] <= budget, by
    doubling and plain bisection."""
    def cost(x):
        e = np.exp2(g - x * u - np.max(g - x * u))
        return (e / e.sum() * b).sum()

    lo, hi = 0.0, 1.0
    while cost(hi) > budget:
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if cost(mid) <= budget else (mid, hi)
    return hi


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), rows=st.integers(1, 4), nx=st.integers(2, 6),
       frac=st.floats(0.01, 0.99))
def test_dual_rows_properties(data, rows, nx, frac):
    finite = st.floats(-8.0, 8.0)
    g = np.array([data.draw(st.lists(st.one_of(finite, st.just(-np.inf)),
                                     min_size=nx, max_size=nx)
                            .filter(lambda row: max(row) > -np.inf))
                  for _ in range(rows)])
    b = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=nx, max_size=nx)))
    lam0 = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
                                       min_size=rows, max_size=rows)))
    base = solver._pmfs(g)
    free = (base * b).sum(axis=1)
    least = np.where(np.isfinite(g), b, np.inf).min(axis=1)   # on each row's support
    lowest, highest = least.max(), free.max()
    assume(highest > lowest)
    # any cost gap, down to the least subnormal: the scaled lambda stays finite
    budget = lowest + frac * (highest - lowest)

    p, lam, _ = solver._dual_rows(g, b, budget, lam0)
    cost = (p * b).sum(axis=1)
    assert np.all(cost <= budget)
    tol = 4.0 * np.finfo(float).eps * budget
    for i in range(rows):
        if free[i] <= budget:
            assert lam[i] == 0.0 and np.array_equal(p[i], base[i])
            continue
        u, scale = _scaled_costs(g[i], b, budget)
        # the stop rule: slack at rounding level, or an infeasible lambda
        # (the bracket's lower end) within 4 spacings below the returned one
        if budget - cost[i] > tol:
            below, lower = [], lam[i]
            while lower > 0.0 and lower > lam[i] - 4.0 * np.spacing(lam[i]):
                lower = np.nextafter(lower, 0.0)
                below.append(lower)
            costs = (solver._pmfs(g[i] - np.array(below)[:, None] * u) * b).sum(axis=1)
            assert np.any(costs > budget)
        one_p, one_lam, _ = solver._dual_rows(g[i:i + 1], b, budget, lam0[i:i + 1])
        assert np.array_equal(one_p[0], p[i]) and one_lam[0] == lam[i]
        # the lambdas agree to 1e-9, or to the width of the slack window,
        # tol / |dE/dx|, where E[b] is too flat in lambda for that; with
        # b = least + scale*u on the support, dE[b]/dx = -ln2 scale Var[u],
        # which stays a normal double at subnormal cost gaps.  At a
        # subnormal budget E[b] rounds in steps of the least subnormal, not
        # of eps*budget
        ref = _bisection_lambda(g[i], u, b, budget)
        q = solver._pmfs(g[i] - ref * u)
        uq = np.where(q > 0, u, 0.0)
        var = (q * (uq - (q * uq).sum()) ** 2).sum()
        rounding = max(tol, 4 * nx * np.finfo(float).smallest_subnormal)
        with np.errstate(divide="ignore", over="ignore"):   # a point mass: any lambda
            flat = rounding / scale / (np.log(2.0) * var)
        assert abs(lam[i] - ref) <= 1e-9 * ref + 2.0 * flat


def test_dual_rows_keeps_lambda_finite_between_close_costs():
    # the budget between two costs 2.2e-313 apart: lambda itself, about
    # 1 / the gap, overflows a double, and the dual called it infeasible
    g, b = np.zeros((1, 2)), np.array([0.0, 2.2250738585e-313])
    p, lam, _ = solver._dual_rows(g, b, 1.1e-313, np.zeros(1))
    assert np.isfinite(lam).all() and (p * b).sum() <= 1.1e-313 and p[0, 1] > 0.0


def test_dual_rows_budget_below_support_is_infeasible():
    # the cheapest input has no mass left, so no lambda reaches the budget
    g = np.array([[0.0, 0.0, 0.0], [-np.inf, 0.0, 0.0]])
    with pytest.raises(Infeasible):
        solver._dual_rows(g, np.array([0.0, 1.0, 2.0]), 0.5, np.zeros(2))


def test_binding_gaussian_solve_needs_few_dual_evaluations(monkeypatch):
    # the bracketing grid search took about 13 pmf evaluations per BA pass
    spec = cli.BUILTINS["gaussian-reduced"]()
    counts = {"calls": 0, "pmfs": 0}
    pmfs, dual_rows = solver._pmfs, solver._dual_rows

    def counting_pmfs(g):
        counts["pmfs"] += 1
        return pmfs(g)

    def counting_dual_rows(*args):
        counts["calls"] += 1
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_pmfs", counting_pmfs)
            return dual_rows(*args)

    monkeypatch.setattr(solver, "_dual_rows", counting_dual_rows)
    pt = solve_fixed_mu(spec, BaConfig(mu=0.0, budget=10.0))
    assert pt.converged and pt.cost == pytest.approx(10.0, abs=1e-12)   # binding
    # one call per pass that steps (all but the certified last one), and one
    # per Newton step of each polish, at passes 8, 16, 32, ...
    polishes = sum(1 for k in range(1, pt.iterations + 1)
                   if k >= solver._POLISH_FIRST and k & (k - 1) == 0)
    assert counts["calls"] <= pt.iterations - 1 + solver._POLISH_STEPS * polishes
    assert counts["pmfs"] <= 6 * counts["calls"]


@pytest.mark.parametrize("cost, budget", [
    ([0.0, 1.0], 0.0), ([2.0, 1.0], 1.0), ([5.0, 5.0 + 1e-12], 5.0),
])
def test_budget_at_unique_least_cost_is_feasible(cost, budget):
    # lambda has no finite root: the search must reach a pmf whose other
    # entries vanish in rounding, not declare the budget unattainable
    spec = examples.binary_multiplicative_spec(0.4)
    costly = dataclasses.replace(spec, cost=cost)
    pt = solve_fixed_mu(costly, BaConfig(mu=0.0, budget=budget))
    assert pt.converged and pt.cost <= budget


def test_solve_logs_one_debug_record_per_call(caplog):
    spec = examples.binary_multiplicative_spec(0.4)
    costly = dataclasses.replace(spec, cost=[0.0, 1.0])
    grid = [0.0, 1.0, 10.0]
    sweep_frontier(costly, 0.3, grid)
    assert not [r for r in caplog.records if r.name == "capdist"]   # silent by default
    with caplog.at_level(logging.DEBUG, logger="capdist"):
        points = [p for p in sweep_frontier(costly, 0.3, grid) if np.isfinite(p.mu)]
    records = [r for r in caplog.records if r.name == "capdist"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    rows, passes, evals, tries, accepted, wall = re.fullmatch(
        r"solve: (\d+) rows, (\d+) passes, (\d+) dual evaluations, "
        r"(\d+) polish attempts, (\d+) accepted, ([\d.]+) s",
        records[0].getMessage()).groups()
    assert int(rows) == len(grid)
    assert int(passes) == max(p.iterations for p in points)
    # every pass but the last steps, and under the binding budget each step
    # evaluates the dual at least once
    assert int(evals) >= int(passes) - 1 and float(wall) >= 0.0
    assert int(accepted) <= int(tries)
