"""Modified Blahut-Arimoto solver for the capacity-distortion-cost tradeoff.

For a penalty mu >= 0 the solver maximizes

    J_mu(P_X) = I(X;Y|S) - mu * sum_x P_X(x) c(x)

over input pmfs subject to the cost budget sum_x P_X(x) b(x) <= B, by
alternating the exact backward-channel update Q(x|y,s) with the exponential
input update, handling the budget through a dual variable lambda.
Log base 2 throughout; rates in bits.

The per-iteration work is reduced algebraically: with

    a(x) = sum_{s,y} P_S(s) P(y|x,s) log2 P(y|x,s)
    t(x) = sum_{s,y} P_S(s) P(y|x,s) log2 P(y|s)        (depends on P_X)

the plain update exponent is g(x) = log2 P_X(x) + a(x) - t(x) - lambda*b(x)
- mu*c(x), and I(X;Y|S) = sum_x P_X(x) (a(x) - t(x)).  The solver takes the
over-relaxed step g(x) = log2 P_X(x) + theta*(a(x) - t(x) - mu*c(x))
- lambda*b(x) with theta = _THETA = 2 (the natural-gradient step of Matz and
Duhamel, ITW 2004), which about halves the passes; a row whose relaxed step
lowers J falls back to the plain step (theta = 1) for good.

`_BaWork` holds one (X, S, Y) law and state pmf.  Its `rates` evaluates
I(X;Y|S) = sum_x P_X(x) a(x) - sum_{s,y} P_S(s) P(y|s) log2 P(y|s) for every
row of a pmf matrix, clamped at 0; it is the library's one I(X;Y|S) code
outside `verify`: the reported rates and every broadcast-region rate in
`bcregions` (through the chain rule for the auxiliary-variable bounds) come
from it.

One kernel, `_solve_rows`, iterates all penalties of a sweep at once: their
pmfs are the rows of an (M, X) matrix, each starts from the uniform pmf and
leaves the active set when its own stopping rule holds.  Its `iterations`
count every pass, rejected relaxed steps included, and its objective trace
holds J at the accepted passes only.  Active rows pass in blocks of at most
`_BLOCK_ELEMENTS` // (S*Y) rows through two products with the (X, S*Y) law,
each taken row by row, so a row's result does not depend on its block: a
sweep point does not depend on the other mu of the grid, and `rates` takes
its products the same way.  There are no warm starts of the pmfs.  Where
the budget binds, `_dual_rows` solves E_lambda[b] = B for lambda by
safeguarded Newton steps on all rows at once, each row starting from its
lambda of the previous pass, and returns feasible pmfs.  Each `_solve_rows`
call logs one debug record (rows, passes, dual evaluations, wall time) to the
"capdist" logger, which is silent unless the application configures it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import estimator
from .errors import DegenerateUpdate, Infeasible, SpecValidationError

_BLOCK_ELEMENTS = 2 ** 22   # cap on the elements of each (rows, S*Y) temporary
_LAMBDA_STEP = 1.0          # first lambda of a newly binding row, and the least doubled one
_LN2 = np.log(2.0)
_MAX_DUAL_ROUNDS = 4096     # cap on lambda evaluations of one dual solve.  Until a
                            # row finds a feasible lambda, each step doubles lambda
                            # (<= 1,024 times before overflow) or follows a step that
                            # quartered E[b] - budget (<= ~1,050 times in the float
                            # range), so a row still without one is infeasible
_THETA = 2.0                # over-relaxation of the input update (1 = plain BA)
_CHECK_TOL = 1e-9           # deviation the exact no-tradeoff and degradedness checks pass


def _xlog2x(p):
    out = np.zeros_like(p)
    np.log2(p, out=out, where=p > 0)
    return p * out


def conditional_mutual_information(spec, p_x):
    """I(X;Y|S) in bits for the given input pmf."""
    work = _BaWork(spec.law_y, spec.state_pmf)
    return float(work.rates(np.asarray(p_x, float)[None])[0])


def _pmfs(g):
    """Pmfs proportional to 2**g along the last axis."""
    m = g.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise DegenerateUpdate("all update exponents are -inf")
    e = np.exp2(g - m)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class BaConfig:
    mu: float = 0.0
    budget: float = np.inf
    max_outer_iters: int = 10000
    convergence_eps: float = 1e-10
    record_objective: bool = False


@dataclass
class TradeoffPoint:
    mu: float
    budget: float
    rate: float                        # bits/use
    distortion: float
    cost: float
    input_pmf: np.ndarray
    iterations: int
    converged: bool
    objective_trace: Optional[list] = field(default=None, repr=False)


class _BaWork:
    """Precomputed tensors of one (X, S, Y) law and state pmf: the BA kernel
    and I(X;Y|S) at every row of a pmf matrix."""

    def __init__(self, law, state_pmf):
        nx = law.shape[0]
        self.law_flat = np.ascontiguousarray(law.reshape(nx, -1))
        self.ps_rep = np.repeat(state_pmf, law.shape[2])
        self.a = _xlog2x(self.law_flat) @ self.ps_rep

    def _blocks(self, n):
        """Slices of n rows, at most _BLOCK_ELEMENTS // (S*Y) rows each."""
        step = max(1, _BLOCK_ELEMENTS // self.law_flat.shape[1])
        return (slice(lo, lo + step) for lo in range(0, n, step))

    def per_x(self, p):
        """a(x) - t(x) for every row of p; P_S is folded into log2 P(y|s)."""
        law = self.law_flat
        out = np.empty_like(p)
        for rows in self._blocks(p.shape[0]):
            pys = p[rows, None, :] @ law                     # (rows, 1, S*Y)
            log_pys = np.zeros_like(pys)
            np.log2(pys, out=log_pys, where=pys > 0)
            log_pys *= self.ps_rep
            out[rows] = self.a - (log_pys @ law.T)[:, 0]
        return out

    def rates(self, p):
        """I(X;Y|S) = sum_x p(x) a(x) - sum_{s,y} P_S(s) P(y|s) log2 P(y|s) at
        every row of p, clamped at 0 (the difference of two rounded sums can
        fall an ulp below it)."""
        out = (p[:, None, :] @ self.a)[:, 0]
        for rows in self._blocks(p.shape[0]):
            pys = p[rows, None, :] @ self.law_flat
            out[rows] -= (_xlog2x(pys) @ self.ps_rep)[:, 0]
        return np.maximum(out, 0.0)


def _dual_rows(base_g, b, budget, lam0):
    """Input update under the cost constraint, per row: (pmfs, lambdas, evals).

    Rows with E[b] <= budget get lambda = 0 and the plain update.  For the
    others the pmf p_lambda ~ 2**(g - lambda*b) is tuned so that E_lambda[b],
    decreasing in lambda with dE/dlambda = -ln2 Var_lambda[b], meets the
    budget, by Newton steps on all binding rows at once.  A row starts at its
    lam0, or at _LAMBDA_STEP if lam0 is 0, and brackets the root between its
    last infeasible lambda lo and its last feasible one hi.  While hi is
    infinite a row doubles (to at least _LAMBDA_STEP) in place of a Newton
    iterate that does not exceed lo or would more than double, and after a
    step that failed to quarter the excess E[b] - budget; once hi is finite,
    bisection replaces a Newton iterate outside (lo, hi).  Newton aims at the
    middle of the stopping window, so it comes to rest inside it: a row stops
    once a feasible iterate leaves slack budget - E[b] <= tol = 4 eps budget
    (relative, as the rounding of E[b], a sum of nonnegative terms, is), or
    once hi - lo <= 4 spacing(hi), and returns hi with its pmf, so
    (p * b).sum(axis=1) <= budget holds as summed here.  A row's result
    depends on that row alone.  `evals` counts the batched evaluations of the
    lambda loop.
    """
    p = _pmfs(base_g)
    lam = np.zeros(len(p))
    bind = (p * b).sum(axis=1) > budget
    if not bind.any():
        return p, lam, 0
    tol = 4.0 * np.finfo(float).eps * budget
    target = budget - 0.5 * tol
    act = np.flatnonzero(bind)
    g, x = base_g[act], np.where(lam0[act] > 0, lam0[act], _LAMBDA_STEP)
    if np.any(np.where(np.isfinite(g), b, np.inf).min(axis=1) > budget):
        raise Infeasible("cost budget unattainable on the current support")
    lo, hi, excess = np.zeros(act.size), np.full(act.size, np.inf), np.full(act.size, np.inf)
    for evals in range(1, _MAX_DUAL_ROUNDS + 1):
        q = _pmfs(g - x[:, None] * b)
        e = (q * b).sum(axis=1)
        ok = e <= budget
        if ok.any():
            p[act[ok]], lam[act[ok]] = q[ok], x[ok]
        lo, hi = np.where(ok, lo, x), np.where(ok, x, hi)
        keep = ~((ok & (budget - e <= tol)) | (hi - lo <= 4.0 * np.spacing(hi)))
        if not keep.all():
            if not keep.any():
                return p, lam, evals
            act, g, q, e, ok, x, lo, hi, excess = (
                v[keep] for v in (act, g, q, e, ok, x, lo, hi, excess))
        slow = ~ok & (e - budget > 0.25 * excess)
        excess = np.where(ok, excess, e - budget)
        dev = b - e[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x + (e - target) / (_LN2 * (q * dev * dev).sum(axis=1))
            double = np.maximum(2.0 * lo, _LAMBDA_STEP)
        x = np.where(np.isfinite(hi),
                     np.where((newton > lo) & (newton < hi), newton, lo + 0.5 * (hi - lo)),
                     np.where((newton > lo) & (newton < double) & ~slow, newton, double))
        if not np.isfinite(x).all():                # doubled past the largest float
            raise Infeasible("cost budget unattainable in floating point")
    if not np.isfinite(hi).all():
        raise Infeasible("cost budget unattainable in floating point")
    return p, lam, evals


def _solve_rows(work, est, b, mus, budget, cfg, start=None):
    """One TradeoffPoint per penalty in `mus`, all iterated in lockstep; b is
    the input cost vector the budget bounds.

    Row i starts at `start` (a pmf, or one per row; uniform if None).  Each
    pass evaluates J at every active row's pmf and takes the over-relaxed
    step p * 2**(theta*(a - t - mu*c) - lambda*b), theta = _THETA.  A row
    whose relaxed step lowered J returns to its last accepted pmf, steps
    plainly (theta = 1) from the a - t it holds for that pmf, and stays at
    theta = 1; a plain step is always accepted, since under a binding budget
    it can lower J by rounding.  A row stops when an accepted pass raises J
    by less than convergence_eps or leaves its pmf unchanged; a row still
    moving after max_outer_iters passes is unconverged.  `iterations` counts
    passes, rejected ones included, and `objective_trace` holds J at the
    accepted passes only.  The call logs its rows, batched passes, dual
    evaluations and wall time at DEBUG level on the "capdist" logger.
    """
    started = time.perf_counter()
    b = np.asarray(b, float)
    if budget < b.min():
        raise Infeasible(f"budget {budget} below min cost {b.min()}")
    mus = np.asarray(mus, float)
    m, nx = mus.size, b.size
    p = np.array(np.broadcast_to(np.full(nx, 1.0 / nx) if start is None
                                 else np.asarray(start, float), (m, nx)), order="C")
    need_dual = np.isfinite(budget) and b.max() > budget
    iters = np.full(m, cfg.max_outer_iters)
    converged = np.zeros(m, dtype=bool)
    traces = [[] for _ in range(m)] if cfg.record_objective else None
    # state of the active rows, compacted whenever rows leave; the accepted
    # pmf, its a - t and its J are those of the previous pass
    act, pa, mu, lam = np.arange(m), p.copy(), mus[:, None], np.zeros(m)
    theta = np.full((m, 1), _THETA)
    relaxed = theta[:, 0] > 1.0
    p_acc, per_acc, j_acc = None, None, np.full(m, -np.inf)
    evals = 0
    for k in range(1, cfg.max_outer_iters + 1):
        per_x = work.per_x(pa)
        j = (pa * per_x).sum(axis=1) - mu[:, 0] * (pa * est.cost).sum(axis=1)
        back = (j < j_acc) & relaxed
        rejected = back.any()
        if rejected:
            theta[back], relaxed[back] = 1.0, False
            pa[back], per_x[back], j[back] = p_acc[back], per_acc[back], j_acc[back]
        if traces is not None:
            for i, v, bk in zip(act.tolist(), j.tolist(), back.tolist()):
                if not bk:
                    traces[i].append(v)
        with np.errstate(divide="ignore"):
            base_g = np.where(pa > 0, np.log2(pa) + theta * (per_x - mu * est.cost),
                              -np.inf)
        if need_dual:
            p_new, lam, n = _dual_rows(base_g, b, budget, lam)
            evals += n
        else:
            p_new = _pmfs(base_g)
        done = (p_new == pa).all(axis=1) | (j - j_acc < cfg.convergence_eps)
        if rejected:
            done &= ~back
        pa, p_acc, per_acc, j_acc = p_new, pa, per_x, j
        if done.any():
            rows = act[done]
            p[rows], iters[rows], converged[rows] = pa[done], k, True
            keep = ~done
            act, pa, p_acc, per_acc, j_acc, mu, lam, theta, relaxed = (
                v[keep] for v in (act, pa, p_acc, per_acc, j_acc, mu, lam, theta,
                                  relaxed))
            if act.size == 0:
                break
    p[act] = pa
    # E[b] summed as the dual search sums it, so a binding row reads <= budget
    rates, dist, cost = work.rates(p), (p * est.cost).sum(axis=1), (p * b).sum(axis=1)
    # a process that never imported logging configured no handler that could
    # show the record; importing it here would cost ~10 ms and 0.3 MB
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("capdist").debug(
            "solve: %d rows, %d passes, %d dual evaluations, %.4f s", m,
            iters.max(initial=0), evals, time.perf_counter() - started)
    return [TradeoffPoint(mu=float(mus[i]), budget=budget, rate=float(rates[i]),
                          distortion=float(dist[i]), cost=float(cost[i]),
                          input_pmf=p[i], iterations=int(iters[i]),
                          converged=bool(converged[i]),
                          objective_trace=None if traces is None else traces[i])
            for i in range(m)]


def solve_fixed_mu(spec, config):
    """Run the alternating maximization for one penalty value."""
    est = estimator.build_estimator(spec)
    work = _BaWork(spec.law_y, spec.state_pmf)
    return _solve_rows(work, est, spec.cost, [config.mu], config.budget, config)[0]


def sweep_frontier(spec, budget, mu_grid, threads=1):
    """One solve per mu plus the two analytic anchors, sorted by distortion.

    All mu iterate from the uniform pmf in lockstep, in row blocks (see
    `_solve_rows`), under the default `BaConfig`; there are no warm starts.
    `threads` is accepted and ignored; it stays only because the benchmark
    harness (perfbench) still passes it.
    """
    est = estimator.build_estimator(spec)
    work = _BaWork(spec.law_y, spec.state_pmf)
    mus = sorted(float(m) for m in mu_grid)
    if not mus:
        raise ValueError("mu_grid must be nonempty")
    if mus[0] > 0.0:
        mus = [0.0] + mus

    # mu -> infinity anchor: the d_min point, evaluated analytically
    dm_val, dm_pmf = estimator.d_min(spec, budget, est=est)
    points = [TradeoffPoint(
        mu=np.inf, budget=budget, rate=float(work.rates(dm_pmf[None])[0]),
        distortion=dm_val, cost=float(dm_pmf @ spec.cost),
        input_pmf=dm_pmf, iterations=0, converged=True)]
    points += _solve_rows(work, est, spec.cost, mus, budget, BaConfig())
    points.sort(key=lambda pt: (pt.distortion, -pt.rate, -pt.mu))
    return points


def baseline_ts(spec, budget=np.inf):
    """Basic and improved time-sharing baselines.

    Segments are ((rate, distortion), (rate, distortion)) endpoint pairs:
    basic connects the pure-sensing point (0, D_min) with the estimation-blind
    capacity point (C_NoEst, D_trivial); improved connects (R_min, D_min)
    with (C_NoEst, D_max).  C_NoEst is solved at mu = 0 with
    convergence_eps = 1e-15.
    """
    est = estimator.build_estimator(spec)
    work = _BaWork(spec.law_y, spec.state_pmf)
    dm_val, dm_pmf = estimator.d_min(spec, budget, est=est)
    r_min = float(work.rates(dm_pmf[None])[0])
    cap, = _solve_rows(work, est, spec.cost, [0.0], budget,
                       BaConfig(convergence_eps=1e-15))
    d_max = estimator.expected_distortion(est, cap.input_pmf)
    d_triv = estimator.d_trivial(spec)
    return {
        "d_min": dm_val, "r_min": r_min,
        "c_noest": cap.rate, "d_max": d_max, "d_trivial": d_triv,
        "basic": ((0.0, dm_val), (cap.rate, d_triv)),
        "improved": ((r_min, dm_val), (cap.rate, d_max)),
        "capacity_pmf": cap.input_pmf, "dmin_pmf": dm_pmf,
    }


# ---------------------------------------------------------------------------
# no-tradeoff sufficient condition
# ---------------------------------------------------------------------------

@dataclass
class NoTradeoffReport:
    worst_independence: float        # fields in `verify no-tradeoff` JSON order
    worst_markov: float
    tol: float
    passed: bool


def no_tradeoff_check(spec, psi):
    """Test the sufficient no-tradeoff conditions for T = psi(X,Z), exactly.

    Let W(x,s,t) = sum_{z: psi(x,z)=t} P_S(s) P(z|x,s); the input pmf cancels.
    (i) (S,T) is independent of X for every P_X iff W(x,.,.) is the same at
    every x; given (i), (ii) S - T - (X,Z) is a Markov chain iff
    P_S(s) P(z|x,s) W(t|x) = W(x,s,t) P(z|x) at t = psi(x,z).  The report
    holds the largest spread of W over x and the largest gap in (ii).  A pass
    certifies that the estimation cost is constant in P_X, i.e.
    communication and sensing do not trade off; it needs both at most
    _CHECK_TOL.
    """
    w = spec.state_pmf[None, :, None] * spec.law_z                    # (X, S, Z)
    nx, ns, nz = w.shape
    if psi.table.shape != (nx, nz):
        raise SpecValidationError(f"psi table has shape {psi.table.shape}, "
                                  f"not (|X|, |Z|) = {(nx, nz)}")
    w_st = np.zeros((nx, ns, psi.codomain_size))                      # W(x, s, t)
    np.add.at(w_st, (np.arange(nx)[:, None], slice(None), psi.table),
              w.transpose(0, 2, 1))
    w_at = np.take_along_axis(w_st, psi.table[:, None, :], axis=2)    # at t = psi(x, z)
    worst1 = float(np.ptp(w_st, axis=0).max())
    worst2 = float(np.abs(w * w_at.sum(axis=1)[:, None]
                          - w_at * w.sum(axis=1)[:, None]).max())
    return NoTradeoffReport(worst1, worst2, _CHECK_TOL,
                            passed=max(worst1, worst2) <= _CHECK_TOL)
