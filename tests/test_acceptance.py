"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Run with `pytest -v` (lines appear in captured output) or `pytest -s` to see
the lines inline.  Criterion 3 runs twice: on a reduced Gaussian
discretization with doubled tolerances, and on the full discretization at
the original tolerances (a few seconds; its spec alone is 0.6 GB).
"""

import time

import numpy as np

from capdist import bcregions, estimator, examples, solver, verify
from capdist.examples import (GaussianQuantConfig, binary_multiplicative_cd,
                              binary_multiplicative_spec,
                              gaussian_quantized_spec, gaussian_two_pam_analytic,
                              gaussian_two_pam_point)
from capdist.solver import BaConfig, solve_fixed_mu, sweep_frontier
from random_specs import dueck_input_pmf, random_spec


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. binary multiplicative channel vs the closed-form tradeoff curve
# ---------------------------------------------------------------------------

def test_criterion_1_binary_closed_form_curve():
    start = time.time()
    q = 0.4
    spec = binary_multiplicative_spec(q)
    worst = 0.0
    for d_target in np.linspace(0.0, 0.2, 20):
        p0 = d_target / q
        if p0 == 0.0:
            rate, dist = 0.0, 0.0
        else:
            mu = np.inf if p0 >= 1.0 else np.log2((1.0 - p0) / p0)
            pt = solve_fixed_mu(spec, BaConfig(mu=float(mu),
                                               convergence_eps=1e-14))
            rate, dist = pt.rate, pt.distortion
        worst = max(worst,
                    abs(dist - d_target),
                    abs(rate - binary_multiplicative_cd(q, d_target)))
    cap = solve_fixed_mu(spec, BaConfig(mu=0.0))
    cap_err = abs(cap.rate - q)
    elapsed = time.time() - start
    report(1, "binary channel matches closed-form C(D)",
           worst <= 1e-3 and cap_err <= 1e-4 and elapsed < 5.0,
           f"worst curve error {worst:.2e}, capacity error {cap_err:.2e}, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. time-sharing baselines, exact
# ---------------------------------------------------------------------------

def test_criterion_2_time_sharing_baselines():
    start = time.time()
    base = solver.baseline_ts(binary_multiplicative_spec(0.4))
    errs = [abs(base["d_min"]), abs(base["r_min"]),
            abs(base["c_noest"] - 0.4), abs(base["d_max"] - 0.2),
            abs(base["d_trivial"] - 0.4)]
    seg_ok = (base["basic"] == ((0.0, 0.0), (base["c_noest"], 0.4))
              and base["improved"] == ((0.0, 0.0), (base["c_noest"], 0.2)))
    elapsed = time.time() - start
    report(2, "time-sharing baselines exact",
           max(errs) <= 1e-9 and seg_ok and elapsed < 1.0,
           f"worst anchor error {max(errs):.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. quantized fading Gaussian channel anchors
# ---------------------------------------------------------------------------

def _gaussian_criterion(cfg, tol_scale, budget=10.0):
    spec = gaussian_quantized_spec(cfg)
    pt = solve_fixed_mu(spec, BaConfig(mu=0.0, budget=budget))
    rate_ok = abs(pt.rate - 1.213) <= 0.02 * tol_scale
    dist_ok = abs(pt.distortion - 0.367) <= 0.01 * tol_scale
    r2, d2, pmf = gaussian_two_pam_point(spec, budget)
    amp = float(np.abs(np.array(spec.labels["x_values"])[pmf > 0]).max())
    r2_ref, d2_ref = gaussian_two_pam_analytic(amp)
    pam_ok = (abs(r2 - r2_ref) <= 0.02 * tol_scale
              and abs(d2 - d2_ref) <= 0.01 * tol_scale)
    detail = (f"rate {pt.rate:.4f}, distortion {pt.distortion:.4f}, "
              f"2-PAM ({r2:.4f}, {d2:.4f}) vs ({r2_ref:.4f}, {d2_ref:.4f})")
    return rate_ok and dist_ok and pam_ok, detail


def test_criterion_3_gaussian_reduced():
    start = time.time()
    cfg = GaussianQuantConfig(pam_points=8, noise_points=25, state_points=500,
                              output_spacing_factor=1.0)
    ok, detail = _gaussian_criterion(cfg, tol_scale=2.0)
    elapsed = time.time() - start
    report(3, "quantized Gaussian anchors (reduced grid, doubled tolerances)",
           ok and elapsed < 10.0, f"{detail}, {elapsed:.1f}s")


def test_criterion_3_gaussian_full():
    start = time.time()
    ok, detail = _gaussian_criterion(GaussianQuantConfig(), tol_scale=1.0)
    elapsed = time.time() - start
    report(3, "quantized Gaussian anchors (full grid)",
           ok and elapsed < 60.0, f"{detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Dueck broadcast example: distortion floor and sum-rate bounds
# ---------------------------------------------------------------------------

def test_criterion_4_dueck_bounds():
    start = time.time()
    q = 0.75
    exact = (bcregions.dueck_dmin(q) == 5 / 32
             and bcregions.dueck_distortion(q, 0.5) == 11 / 64)
    t_grid = np.linspace(0.0, 1.0, 2001)
    outer = bcregions.upper_concave_hull(
        [(s.d1, s.r0) for s in bcregions.dueck_outer(q, t_grid)])
    _, inner = bcregions.dueck_inner(q, t_grid)
    worst = max(abs(bcregions.envelope_value(outer, 5 / 32) - 1.0),
                abs(bcregions.envelope_value(outer, 11 / 64) - 1.5625),
                abs(bcregions.envelope_value(inner, 5 / 32) - 1.0),
                abs(bcregions.envelope_value(inner, 11 / 64) - 1.5625))
    elapsed = time.time() - start
    report(4, "Dueck distortion floor and sum-rate anchors",
           exact and worst <= 1e-4 and elapsed < 1.0,
           f"worst envelope error {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. degraded broadcast region vs the closed form
# ---------------------------------------------------------------------------

def test_criterion_5_degraded_region_complete():
    start = time.time()
    q, gamma = 0.6, 0.5
    bc = examples.binary_bc_spec(q, gamma)
    s = bcregions.degraded_region(bc, u_size=2, resolution=128)
    # soundness: every sample sits exactly on the closed-form surface
    p0 = s.p_ux.reshape(-1, 2, 2)[:, :, 0].sum(axis=1)
    sound = bool(
        np.all(np.abs(s.r1 / q + s.r2 / (gamma * q)
                      - bcregions.binary_entropy(p0)) <= 1e-9)
        and np.all(np.abs(s.d2 - 0.75 * s.d1) <= 1e-9))
    # completeness: every closed-form target is dominated within tolerance
    targets = bcregions.binary_bc_region(q, gamma,
                                         p_grid=np.linspace(0, 1, 17),
                                         r_grid=np.linspace(0, 1, 17))
    r1, r2, d1, d2 = (np.ascontiguousarray(c) for c in (s.r1, s.r2, s.d1, s.d2))
    gap = 0.0
    for t in targets:
        short = np.maximum.reduce([
            np.maximum(t.r1 - r1, 0.0),
            np.maximum(t.r2 - r2, 0.0),
            np.maximum(d1 - t.d1, 0.0),
            np.maximum(d2 - t.d2, 0.0),
        ])
        gap = max(gap, float(short.min()))
    elapsed = time.time() - start
    report(5, "degraded broadcast region matches closed form",
           sound and gap <= 5e-3 and elapsed < 60.0,
           f"completeness gap {gap:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. randomized cross-validation against brute-force oracles
# ---------------------------------------------------------------------------

def test_criterion_6_random_channels_vs_oracles():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_est = 0.0
    worst_curve = 0.0
    worst_mono = 0.0
    worst_concave = 0.0
    for idx in range(50):
        nx, ns, ny, nz = rng.integers(2, 4, size=4)
        spec = random_spec(rng, nx=nx, ns=ns, ny=ny, nz=nz)
        # (a) estimator vs exhaustive search
        p_x = rng.dirichlet(np.ones(nx))
        est = estimator.build_estimator(spec)
        _, oracle = verify.exhaustive_estimator_search(spec, p_x)
        worst_est = max(worst_est,
                        abs(estimator.expected_distortion(est, p_x) - oracle))
        # (c) objective trace monotone
        pt = solve_fixed_mu(spec, BaConfig(mu=float(rng.random()),
                                           record_objective=True))
        worst_mono = max(worst_mono,
                         -float(np.diff(pt.objective_trace).min()))
        # (d) the frontier (upper hull of the sweep) is concave and
        # non-decreasing in D; raw samples may tie in distortion, so the
        # check lives on the hull vertices
        pts = sweep_frontier(spec, np.inf, np.logspace(-2, 1, 10))
        hull = bcregions.upper_concave_hull(
            [(p.distortion, p.rate) for p in pts])
        hd = np.array([v[0] for v in hull])
        hr = np.array([v[1] for v in hull])
        if hr.size >= 2:
            worst_mono_front = -float(np.diff(hr).min())
            worst_concave = max(worst_concave, worst_mono_front)
        if hr.size >= 3:
            slopes = np.diff(hr) / np.diff(hd)
            worst_concave = max(worst_concave, float(np.diff(slopes).max()))
        # (b) envelope vs brute force at three (D, B) points (subset: the
        # brute-force lattice dominates the runtime)
        if idx < 12:
            budget = float(np.quantile(spec.cost, 0.7))
            est_b = estimator.build_estimator(spec)
            dmin, _ = estimator.d_min(spec, budget, est=est_b)
            dmax = estimator.d_trivial(spec)
            pts_b = sweep_frontier(spec, budget,
                                   [0.0] + list(np.logspace(-3, 3, 120)))
            curve = bcregions.upper_concave_hull(
                [(p.distortion, p.rate) for p in pts_b])
            for frac in (0.25, 0.5, 1.0):
                d_cap = dmin + frac * (dmax - dmin)
                val, _ = verify.brute_force_tradeoff(spec, d_cap, budget, 1e-2)
                worst_curve = max(
                    worst_curve,
                    abs(bcregions.envelope_value(curve, d_cap) - val))
    elapsed = time.time() - start
    report(6, "random channels agree with brute-force oracles",
           (worst_est <= 1e-12 and worst_curve <= 2e-3
            and worst_mono <= 1e-10 and worst_concave <= 1e-6
            and elapsed < 60.0),
           f"estimator {worst_est:.1e}, curve {worst_curve:.1e}, "
           f"monotonicity {worst_mono:.1e}, concavity {worst_concave:.1e}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. no-tradeoff certification
# ---------------------------------------------------------------------------

def test_criterion_7_no_tradeoff_certificates():
    start = time.time()
    erasure = solver.no_tradeoff_check(examples.erasure_spec(0.3))
    pass_ok = (erasure.passed
               and max(erasure.worst_independence, erasure.worst_markov)
               <= 1e-12)
    p1 = np.array([[0.58, 0.10], [0.12, 0.20]])
    p2 = np.array([[0.30, 0.20], [0.30, 0.20]])
    bc_rep = bcregions.product_region_check(examples.erasure_bc_spec(p1, p2))
    binary = solver.no_tradeoff_check(binary_multiplicative_spec(0.4))
    fail_ok = (not binary.passed
               and max(binary.worst_independence, binary.worst_markov) > 1e-3)
    elapsed = time.time() - start
    report(7, "no-tradeoff certificates (pass and fail cases)",
           pass_ok and bc_rep.passed and fail_ok and elapsed < 5.0,
           f"erasure worst {max(erasure.worst_independence, erasure.worst_markov):.1e}, "
           f"binary worst {max(binary.worst_independence, binary.worst_markov):.1e}, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 8. Monte-Carlo distortion validation
# ---------------------------------------------------------------------------

def test_criterion_8_monte_carlo_distortion():
    start = time.time()
    n = 10**6
    binary = verify.simulate_distortion(binary_multiplicative_spec(0.4),
                                        [0.5, 0.5], n, seed=8)
    ok_bin = (abs(binary.z_score) <= 4.0
              and abs(binary.analytic_value - 0.2) <= 1e-12)
    dueck = verify.simulate_distortion(examples.dueck_reduction_spec(0.75),
                                       dueck_input_pmf(0.5), n,
                                       seed=9)
    ok_dueck = (abs(dueck.z_score) <= 4.0
                and abs(dueck.analytic_value - 11 / 64) <= 1e-12)
    elapsed = time.time() - start
    report(8, "Monte-Carlo distortion matches analytic values",
           ok_bin and ok_dueck and elapsed < 30.0,
           f"z-scores {binary.z_score:+.2f} / {dueck.z_score:+.2f}, "
           f"{elapsed:.1f}s")
