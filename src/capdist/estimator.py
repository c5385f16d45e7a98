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


def _argmin_ties_low(values, rtol=TIE_RTOL):
    """Argmin along the last axis; ties within relative tolerance go to the
    lowest index."""
    m = values.min(axis=-1, keepdims=True)
    thresh = m + rtol * np.maximum(1.0, np.abs(m))
    return np.argmax(values <= thresh, axis=-1)


def build_estimator(spec):
    """EstimatorTable for the optimal estimator.

    For (x,z) with P(z|x)=0 the table stores index 0 by convention; such
    pairs contribute nothing to c(x).
    """
    d = spec.distortion
    if isinstance(d, QuadraticDistortion):
        # quadratic distortion: the posterior-risk minimizer over a sorted
        # grid is the grid point nearest the posterior mean (exact).  Work
        # with (X,Z)-sized moments only; the (X,S,Z) weight tensor is never
        # materialized (it is ~0.6 GB for the quantized Gaussian example).
        law_z, ps, sv = spec.law_z, spec.state_pmf, d.state_values
        m0 = np.einsum("xsz,s->xz", law_z, ps)            # P(z|x)
        m1 = np.einsum("xsz,s->xz", law_z, ps * sv)
        m2 = np.einsum("xsz,s->xz", law_z, ps * sv * sv)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(m0 > 0, m1 / np.where(m0 > 0, m0, 1.0), 0.0)
        ev = d.estimate_values
        table = np.searchsorted(ev, mean)   # first index with ev >= mean
        table = np.clip(table, 1, ev.size - 1) if ev.size > 1 else np.zeros_like(table, dtype=np.int64)
        if ev.size > 1:
            lo = table - 1
            # half-interval ties go to the lower index
            pick_lo = (mean - ev[lo]) <= (ev[table] - mean)
            table = np.where(pick_lo, lo, table)
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


def d_min(spec, budget=np.inf, est=None):
    """Minimum distortion under the cost budget, with an attaining pmf.

    The objective and the single constraint are both linear in P_X, so an
    optimizer exists supported on at most two symbols; we search those
    supports in closed form.  A NaN budget raises ValueError.
    """
    if np.isnan(budget):
        raise ValueError("budget must be a number, not nan")
    if est is None:
        est = build_estimator(spec)
    c = est.cost
    b = np.asarray(spec.cost, float)
    n = c.size
    if budget < b.min():
        raise Infeasible(f"budget {budget} below min cost {b.min()}")
    best_val = np.inf
    best_pmf = None
    feas = b <= budget
    if np.any(feas):
        i = int(np.flatnonzero(feas)[np.argmin(c[feas])])
        best_val = c[i]
        best_pmf = np.zeros(n)
        best_pmf[i] = 1.0
    for i in range(n):
        if b[i] > budget:
            continue
        for j in range(n):
            # mix a feasible i with an infeasible-alone j up to the budget
            if b[j] <= budget or b[j] <= b[i]:
                continue
            wj = (budget - b[i]) / (b[j] - b[i])
            pmf = np.zeros(n)
            pmf[i], pmf[j] = 1 - wj, wj
            while pmf @ b > budget:      # the rounded mix can cost an ulp above B
                wj = np.nextafter(wj, 0.0)
                pmf[i], pmf[j] = 1 - wj, wj
            val = (1 - wj) * c[i] + wj * c[j]
            if val < best_val - 1e-15:
                best_val, best_pmf = val, pmf
    return float(best_val), best_pmf


def d_trivial(spec):
    """Distortion of the best constant (feedback-blind) estimate."""
    d = spec.distortion
    if isinstance(d, QuadraticDistortion):
        # E (S - e)^2 = E[S^2] - 2 e E[S] + e^2, exact and memory-free
        mean = float(np.dot(spec.state_pmf, d.state_values))
        es2 = float(np.dot(spec.state_pmf, d.state_values**2))
        return float((es2 - 2 * mean * d.estimate_values + d.estimate_values**2).min())
    return float(np.einsum("s,st->t", spec.state_pmf, np.asarray(d)).min())

