"""Optimal symbol-by-symbol state estimator and derived distortion quantities.

The estimator picks, for every (input, feedback) pair, the estimate
minimizing the posterior-expected distortion.  No coding scheme can beat it,
which makes its per-input expected distortion c(x) the only statistic the
rate solver needs.  Everything here takes a single-user spec; receiver k of a
broadcast spec is the single-user spec `channel.receiver_spec(bc, k)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import QuadraticDistortion
from .errors import Infeasible

TIE_RTOL = 1e-12  # ties in the argmin detected at this relative tolerance


@dataclass(frozen=True)
class EstimatorTable:
    """table[x, z] = index of the optimal estimate; cost[x] = c(x)."""
    table: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.table, dtype=np.int64))
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        c = np.ascontiguousarray(np.asarray(self.cost, dtype=float))
        c.setflags(write=False)
        object.__setattr__(self, "cost", c)


def _weights(spec):
    """w[x,s,z] = P_S(s) P(z|s,x); the unnormalized posterior."""
    return spec.state_pmf[None, :, None] * spec.law_z


def _argmin_ties_low(values):
    """Argmin along the last axis; ties within relative tolerance TIE_RTOL go
    to the lowest index."""
    m = values.min(axis=-1, keepdims=True)
    thresh = m + TIE_RTOL * np.maximum(1.0, np.abs(m))
    return np.argmax(values <= thresh, axis=-1)


def build_estimator(spec):
    """EstimatorTable for the optimal estimator.

    For (x,z) with P(z|x)=0 the table stores index 0 by convention; such
    pairs contribute nothing to c(x).
    """
    d = spec.distortion
    if isinstance(d, QuadraticDistortion):
        # quadratic distortion: the posterior-risk minimizer over a sorted
        # grid is one of the two grid points around the posterior mean.  Work
        # with (X,Z)-sized moments only, taken one input's (S,Z) rows at a
        # time (a banded law's in one reused buffer); the (X,S,Z) weight
        # tensor is never materialized (it is ~0.6 GB for the quantized
        # Gaussian example).
        ps, sv = spec.state_pmf, d.state_values
        weights = (ps, ps * sv, ps * sv * sv)
        m0, m1, m2 = (np.empty((spec.input_size, spec.feedback_size)) for _ in weights)
        for x, rows in enumerate(spec.law_z):
            for m, w in zip((m0, m1, m2), weights):     # P(z|x) and two moments
                m[x] = np.einsum("sz,s->z", rows, w)
        norm = np.where(m0 > 0, m0, 1.0)
        mean = np.where(m0 > 0, m1 / norm, 0.0)
        ev = d.estimate_values
        table = np.searchsorted(ev, mean)   # first index with ev >= mean
        table = np.clip(table, 1, ev.size - 1) if ev.size > 1 else np.zeros_like(table, dtype=np.int64)
        if ev.size > 1:
            lo = table - 1
            # the two posterior risks E[S^2|x,z] - 2 e mean + e^2, tied
            # within TIE_RTOL to the lower index as on the matrix path (a
            # farther point ties only on a grid finer than ~1e-6)
            pair = np.stack([ev[lo], ev[table]], axis=-1)
            risk = (m2 / norm)[..., None] - 2.0 * pair * mean[..., None] + pair * pair
            table = lo + _argmin_ties_low(risk)
        table = np.where(m0 > 0, table, 0)
        evt = ev[table]
        cost = (m2 - 2.0 * evt * m1 + evt * evt * m0).sum(axis=1)
        return EstimatorTable(table=table, cost=np.maximum(cost, 0.0))
    w = _weights(spec)                      # (X, S, Z)
    d = np.asarray(d)
    risk = np.einsum("xsz,st->xzt", w, d)   # (X, Z, Shat)
    pz = w.sum(axis=1)
    # tie detection on posterior (per-cell normalized) risks, so the
    # tolerance is scale-invariant in the cell probability
    norm = np.where(pz > 0, pz, 1.0)[:, :, None]
    table = _argmin_ties_low(risk / norm)
    table = np.where(pz > 0, table, 0)
    cost = np.take_along_axis(risk, table[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return EstimatorTable(table=table, cost=cost)


def expected_distortion(est, p_x):
    """D = sum_x P_X(x) c(x)."""
    return float(np.dot(np.asarray(p_x, float), est.cost))


def _check_budget(b, budget):
    """Reject a NaN budget (ValueError) and one below the least cost of b
    (Infeasible)."""
    if np.isnan(budget):
        raise ValueError("budget must be a number, not nan")
    if budget < b.min():
        raise Infeasible(f"budget {budget} below min cost {b.min()}")


def _budget_lp(v, b, budget):
    """The budget LP, per row of v: (value, i, j, t), the largest mean of
    the row over the pmfs with p.b <= B, and a pmf that reaches it, with
    mass 1 - t on input i and t on j.  An optimal vertex is one input with
    b <= B (j = i, t = 0) or the mix of an i with b_i < B and a j with
    b_j > B that spends B.  The first largest candidate is taken (singles,
    then mixes i-major), so the value is exact; a +inf in v makes every
    candidate with mass on that input +inf."""
    rows, singles = np.arange(len(v)), np.where(b <= budget, v, -np.inf)
    lo, hi = np.flatnonzero(b < budget), np.flatnonzero(b > budget)
    if lo.size == 0 or hi.size == 0:        # no mix, so nothing to index in lo or hi
        k = singles.argmax(axis=1)
        return singles[rows, k], k, k, np.zeros(len(v))
    t = (budget - b[lo, None]) / (b[hi] - b[lo, None])          # (lo, hi), in (0, 1)
    mix = (1.0 - t) * v[:, lo, None] + t * v[:, None, hi]
    cand = np.concatenate([singles, mix.reshape(len(v), -1)], axis=1)
    k = cand.argmax(axis=1)
    l, h = np.divmod(np.maximum(k - b.size, 0), hi.size)
    single = k < b.size
    return (cand[rows, k], np.where(single, k, lo[l]), np.where(single, k, hi[h]),
            np.where(single, 0.0, t[l, h]))


def d_min(spec, budget=np.inf, est=None):
    """Minimum distortion under the cost budget, with an attaining pmf:
    minus the budget LP (`_budget_lp`) of -c, its mix rounded to meet the
    budget as summed.  A NaN budget raises ValueError, one below the least
    cost Infeasible."""
    b = np.asarray(spec.cost, float)
    _check_budget(b, budget)
    c = (build_estimator(spec) if est is None else est).cost
    _, (i,), (j,), (t,) = _budget_lp(-c[None], b, budget)
    pmf = np.zeros(c.size)
    while True:
        pmf[j], pmf[i] = t, 1.0 - t     # i last: j = i for a single input
        if pmf @ b <= budget:           # the rounded mix can cost an ulp above B
            break
        t = np.nextafter(t, 0.0)
    return float((1.0 - t) * c[i] + t * c[j]), pmf


def d_trivial(spec):
    """Distortion of the best constant (feedback-blind) estimate."""
    d = spec.distortion
    if isinstance(d, QuadraticDistortion):
        # E (S - e)^2 = E[S^2] - 2 e E[S] + e^2, exact and memory-free
        mean = float(np.dot(spec.state_pmf, d.state_values))
        es2 = float(np.dot(spec.state_pmf, d.state_values**2))
        return float((es2 - 2 * mean * d.estimate_values + d.estimate_values**2).min())
    return float(np.einsum("s,st->t", spec.state_pmf, np.asarray(d)).min())

