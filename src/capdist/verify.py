"""Independent verification oracles.

Nothing here shares logic with the solver: the Monte-Carlo sampler works on
raw channel draws, the tradeoff oracle evaluates I(X;Y|S) directly on every
point of a simplex lattice, and the estimator oracle enumerates every
deterministic table.  The first two do use `estimator.build_estimator`
(its table and per-input costs), the construction the third one checks.
They exist to catch bugs in the analytic code paths, and they read each
law as one dense (X, S, ·) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel, estimator
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
    bit-identical reports.  p_x must be a pmf (`channel._check_pmf`): the
    analytic value is taken at the p_x that X is drawn from.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    p_x = channel._check_pmf(p_x, spec.input_size, "p_x")
    est = estimator.build_estimator(spec)
    rng = np.random.default_rng(seed)
    s = rng.choice(spec.state_size, size=n, p=spec.state_pmf)
    x = rng.choice(spec.input_size, size=n, p=p_x)
    cum = np.cumsum(np.asarray(spec.law_z)[x, s, :], axis=1)
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


def brute_force_tradeoff(spec, distortion_cap, budget, grid_step):
    """Exhaustive maximization of I(X;Y|S) over the constrained simplex lattice."""
    nx = spec.input_size
    if not (0 < grid_step <= 0.5):
        raise ValueError("grid_step must lie in (0, 0.5]")
    k = int(round(1.0 / grid_step))
    pmfs = channel.simplex_lattice(nx, k)
    est = estimator.build_estimator(spec)
    b = np.asarray(spec.cost, float)
    slack = 1e-12
    feas = (pmfs @ est.cost <= distortion_cap + slack) & (pmfs @ b <= budget + slack)
    if not np.any(feas):
        raise InfeasibleConstraints("no lattice pmf satisfies the D/B constraints")
    pmfs = pmfs[feas]
    law = np.asarray(spec.law_y)
    log_law = np.zeros_like(law)
    np.log2(law, out=log_law, where=law > 0)
    law_flat = law.reshape(nx, -1)
    ps_rep = np.repeat(spec.state_pmf, law.shape[2])
    a = (law * log_law).reshape(nx, -1) @ ps_rep
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
    from the channel law P(z|x,s).
    """
    nx, ns, nz = spec.input_size, spec.state_size, spec.feedback_size
    nshat = spec.estimate_size
    n_cells = nx * nz
    n_tables = nshat ** n_cells
    if n_tables > 10**6:
        raise InstanceTooLarge(f"{n_tables} estimator tables to enumerate")
    w = (np.asarray(p_x, float)[:, None, None] * spec.state_pmf[None, :, None]
         * np.asarray(spec.law_z))
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
