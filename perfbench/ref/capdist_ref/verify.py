"""Independent verification oracles.

Nothing here shares logic with the estimator or the solver: the Monte-Carlo
sampler works on raw channel draws, the tradeoff oracle enumerates a simplex
lattice, and the estimator oracle enumerates every deterministic table.
They exist to catch bugs in the analytic code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, estimator, solver
from .channel import distortion_lookup
from .errors import InfeasibleConstraints, InstanceTooLarge


@dataclass
class TrialReport:
    n_samples: int
    empirical_value: float
    analytic_value: float
    std_error: float
    z_score: float
    passed: bool
    seed: int


def simulate_distortion(spec, p_x, n, seed):
    """Empirical distortion of the optimal estimator over n i.i.d. uses.

    One numpy Generator seeded with `seed` drives the whole trial (state,
    input, feedback draws in that fixed order), so identical seeds reproduce
    bit-identical reports.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    est = estimator.build_estimator(spec)
    p_x = np.asarray(p_x, float)
    rng = np.random.default_rng(seed)
    s = rng.choice(spec.state_size, size=n, p=spec.state_pmf)
    x = rng.choice(spec.input_size, size=n, p=p_x / p_x.sum())
    law_z = channel.marginal_z_given_xs(spec)
    cum = np.cumsum(law_z[x, s, :], axis=1)
    u = rng.random(n)
    z = (u[:, None] > cum).sum(axis=1)
    shat = est.table[x, z]
    d = distortion_lookup(spec.distortion, s, shat).astype(float)
    emp = float(d.mean())
    analytic = estimator.expected_distortion(est, p_x)
    se = float(d.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    if se == 0.0:
        z_score = 0.0 if emp == analytic else np.inf
    else:
        z_score = (emp - analytic) / se
    return TrialReport(n_samples=n, empirical_value=emp, analytic_value=analytic,
                       std_error=se, z_score=float(z_score),
                       passed=bool(abs(z_score) <= 4.0), seed=seed)


def simplex_lattice(n_symbols, k):
    """All pmfs with entries that are multiples of 1/k, as an (N, n) array."""
    if n_symbols == 1:
        return np.ones((1, 1))
    if n_symbols == 2:
        i = np.arange(k + 1)
        return np.stack([i, k - i], axis=1) / k
    if n_symbols == 3:
        i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        keep = (i + j) <= k
        i, j = i[keep], j[keep]
        return np.stack([i, j, k - i - j], axis=1) / k
    if n_symbols == 4:
        pts = []
        for i in range(k + 1):
            j, l = np.meshgrid(np.arange(k + 1 - i), np.arange(k + 1 - i),
                               indexing="ij")
            keep = (j + l) <= k - i
            j, l = j[keep], l[keep]
            pts.append(np.stack([np.full(j.size, i), j, l, k - i - j - l], axis=1))
        return np.concatenate(pts) / k
    raise InstanceTooLarge(f"simplex lattice not supported for {n_symbols} symbols")


def brute_force_tradeoff(spec, distortion_cap, budget, grid_step):
    """Exhaustive maximization of I(X;Y|S) over the constrained simplex lattice."""
    nx = spec.input_size
    if nx > 4:
        raise InstanceTooLarge("brute force limited to |X| <= 4")
    if not (0 < grid_step <= 0.5):
        raise ValueError("grid_step must lie in (0, 0.5]")
    k = int(round(1.0 / grid_step))
    pmfs = simplex_lattice(nx, k)
    est = estimator.build_estimator(spec)
    b = np.asarray(spec.cost, float)
    slack = 1e-12
    feas = (pmfs @ est.cost <= distortion_cap + slack) & (pmfs @ b <= budget + slack)
    if not np.any(feas):
        raise InfeasibleConstraints("no lattice pmf satisfies the D/B constraints")
    pmfs = pmfs[feas]
    law = channel.marginal_y_given_xs(spec)
    a = solver._xlog2x(law).reshape(nx, -1) @ np.repeat(spec.state_pmf, law.shape[2])
    law_flat = law.reshape(nx, -1)
    ps_rep = np.repeat(spec.state_pmf, law.shape[2])
    best_val = -np.inf
    best_pmf = None
    chunk = 200000
    for lo in range(0, pmfs.shape[0], chunk):
        block = pmfs[lo:lo + chunk]
        pys = block @ law_flat                       # (N, S*Y)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(pys > 0, pys * np.log2(np.where(pys > 0, pys, 1.0)), 0.0)
        rates = block @ a - ent @ ps_rep
        i = int(np.argmax(rates))
        if rates[i] > best_val:
            best_val = float(rates[i])
            best_pmf = block[i].copy()
    return best_val, best_pmf


def exhaustive_estimator_search(spec, p_x):
    """Enumerate every deterministic estimator table; return the best.

    This is the oracle for the optimal-estimator construction: it evaluates
    the expected distortion of all |Shat| ** (|X| * |Z|) tables directly
    from the channel joint.
    """
    nx, ns, nz = spec.input_size, spec.state_size, spec.feedback_size
    nshat = spec.estimate_size
    n_cells = nx * nz
    n_tables = nshat ** n_cells
    if n_tables > 10**6:
        raise InstanceTooLarge(f"{n_tables} estimator tables to enumerate")
    law_z = channel.marginal_z_given_xs(spec)
    w = np.asarray(p_x, float)[:, None, None] * spec.state_pmf[None, :, None] * law_z
    d = spec.distortion
    if isinstance(d, channel.QuadraticDistortion):
        d = d.as_matrix()
    cell_risk = np.einsum("xsz,st->xzt", w, np.asarray(d)).reshape(n_cells, nshat)
    digits = np.arange(n_tables)
    total = np.zeros(n_tables)
    for cell in range(n_cells):
        total += cell_risk[cell, digits % nshat]
        digits = digits // nshat
    best = int(np.argmin(total))
    tbl = np.empty(n_cells, dtype=np.int64)
    rem = best
    for cell in range(n_cells):
        tbl[cell] = rem % nshat
        rem //= nshat
    return tbl.reshape(nx, nz), float(total[best])
